import itertools
import sys

import pytest

from treeramsey import enumeration, trees
from treeramsey.enumeration import (
    all_embeddings,
    all_rigid_surjections,
    enum_colorings,
    rigid_surjection_values,
)
from treeramsey.errors import ResourceCapExceeded, VertexOutOfRange
from treeramsey.maps import TreeMap, classify, is_embedding

from _oracles import (
    count_colorings,
    embeddings_by_meet_loop,
    rigid_surjections_by_meet_loop,
    stirling2,
)

C2, C3 = trees.chain(2), trees.chain(3)
Y = trees.tree([None, 0, 0])


def trees_up_to(n):
    for k in range(1, n + 1):
        yield from trees.all_trees(k)


def test_rigid_surjection_examples():
    assert [m.values for m in all_rigid_surjections(C3, C2)] == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
    ]
    assert [m.values for m in all_rigid_surjections(Y, C2)] == [(0, 0, 1), (0, 1, 0)]
    assert [tuple(row) for row in rigid_surjection_values(C3, C2, True)] == [(0, 0, 1)]


def test_embedding_examples():
    assert len(all_embeddings(C2, Y)) == 2
    assert len(all_embeddings(Y, Y)) == 1
    assert len(all_embeddings(Y, C2)) == 0


def test_streams_complete_against_classifier():
    # brute force over all value tuples with the definitional classifier as oracle
    for dom in trees_up_to(4):
        for cod in trees_up_to(4):
            brute_rigid, brute_sealed, brute_emb = set(), set(), set()
            for vals in itertools.product(range(cod.n), repeat=dom.n):
                fl = classify(TreeMap(dom, cod, vals))
                if fl.rigid_surjection:
                    brute_rigid.add(vals)
                if fl.sealed:
                    brute_sealed.add(vals)
                if fl.embedding:
                    brute_emb.add(vals)
            assert {m.values for m in all_rigid_surjections(dom, cod)} == brute_rigid
            assert set(map(tuple, rigid_surjection_values(dom, cod, True))) == brute_sealed
            assert {m.values for m in all_embeddings(dom, cod)} == brute_emb


def test_streams_sorted_and_duplicate_free():
    for dom in trees_up_to(5):
        for cod in trees_up_to(4):
            for stream in (
                [m.values for m in all_rigid_surjections(dom, cod)],
                [m.values for m in all_embeddings(cod, dom)],
            ):
                assert stream == sorted(stream)
                assert len(set(stream)) == len(stream)


def test_two_runs_identical():
    for dom in trees_up_to(4):
        for cod in trees_up_to(4):
            first = [m.values for m in all_rigid_surjections(dom, cod)]
            second = [m.values for m in all_rigid_surjections(dom, cod)]
            assert first == second


def test_chain_counts_are_stirling_numbers():
    for n in range(1, 8):
        for k in range(1, n + 1):
            rs = all_rigid_surjections(trees.chain(n), trees.chain(k))
            assert len(rs) == stirling2(n, k)
            sealed = rigid_surjection_values(trees.chain(n), trees.chain(k), True)
            assert len(sealed) == stirling2(n - 1, k - 1)


def test_colorings_counting_order():
    assert list(enum_colorings(0, 3)) == [()]
    cols = list(enum_colorings(3, 2))
    assert len(cols) == 8
    assert cols[0] == (0, 0, 0) and cols[-1] == (1, 1, 1)
    assert cols == sorted(cols)


def test_colorings_pinned():
    pinned = list(enum_colorings(2, 2, pin_first=True))
    assert pinned == [(0, 0), (0, 1)]
    assert count_colorings(2, 2, pin_first=True) == 2
    assert count_colorings(3, 2) == 8


def test_count_colorings_counts_the_stream():
    for k in range(6):
        for b in range(1, 4):
            for pin_first in (False, True):
                stream = list(enum_colorings(k, b, pin_first))
                assert len(stream) == count_colorings(k, b, pin_first)


@pytest.mark.parametrize("k, b", [(-1, 2), (3, 0), (0, 0), (-1, -1)])
def test_count_colorings_refuses_what_enum_colorings_refuses(k, b):
    for pin_first in (False, True):
        with pytest.raises(ValueError):
            list(enum_colorings(k, b, pin_first))
        with pytest.raises(ValueError):
            count_colorings(k, b, pin_first)


def test_value_table_refuses_an_out_of_range_kernel_value(monkeypatch):
    # the table checks what the kernel yields: 2 is outside a 2-vertex codomain,
    # and 1.0, although 0 <= 1.0 < 2, is not an int
    for bad in ((0, 2), (0, 1.0)):
        monkeypatch.setattr(enumeration, "_prefix_table", lambda dom, cod: [bad])
        rigid_surjection_values.cache_clear()
        try:
            with pytest.raises(VertexOutOfRange):
                rigid_surjection_values(C2, C2, False)
        finally:
            rigid_surjection_values.cache_clear()


def test_value_table_refuses_a_kernel_row_that_is_not_bytes(monkeypatch):
    # (0, 1) is in range for a 2-vertex codomain, but a row must be bytes
    monkeypatch.setattr(enumeration, "_prefix_table", lambda dom, cod: [(0, 1)])
    rigid_surjection_values.cache_clear()
    try:
        with pytest.raises(TypeError):
            rigid_surjection_values(C2, C2, False)
    finally:
        rigid_surjection_values.cache_clear()


def test_value_tables_refuse_codomains_over_256_vertices_before_building(monkeypatch):
    # a row's byte holds values below 256; domains of any length stay allowed
    def refuse(*args):
        raise AssertionError("built a table before the width check")

    big = trees.chain(257)
    assert rigid_surjection_values(trees.chain(300), trees.chain(1), False) == (bytes(300),)
    assert rigid_surjection_values(trees.chain(256), trees.chain(256), True) == (bytes(range(256)),)
    monkeypatch.setattr(enumeration, "_prefix_table", refuse)
    for sealed in (False, True):
        with pytest.raises(ResourceCapExceeded, match="at most 256 vertices"):
            rigid_surjection_values(big, big, sealed)
    with pytest.raises(ResourceCapExceeded, match="at most 256 vertices"):
        all_rigid_surjections(big, big)


def test_rigid_surjections_with_injection_partition_the_stream():
    from treeramsey.enumeration import rigid_surjections_with_injection

    for dom in trees_up_to(4):
        for cod in trees_up_to(4):
            total = 0
            for e in all_embeddings(cod, dom):
                group = rigid_surjections_with_injection(e)
                assert all(m.values for m in group) or not group
                total += len(group)
            assert total == len(all_rigid_surjections(dom, cod))


def test_embeddings_strictly_monotone():
    for dom in trees_up_to(4):
        for cod in trees_up_to(5):
            for e in all_embeddings(dom, cod):
                assert is_embedding(e)
                assert all(a < b for a, b in zip(e.values, e.values[1:]))


def test_streams_complete_against_classifier_full_bound():
    # the stated completeness bound: brute force over every value tuple with the
    # definitional checks as oracle, for all domain/codomain pairs up to 5
    import itertools as it

    from treeramsey.maps import is_embedding, try_injection

    for dom in trees_up_to(5):
        for cod in trees_up_to(5):
            brute_rigid, brute_sealed = set(), set()
            for vals in it.product(range(cod.n), repeat=dom.n):
                e = try_injection(TreeMap(dom, cod, vals))
                if e is not None:
                    brute_rigid.add(vals)
                    if e.values[-1] == dom.n - 1:
                        brute_sealed.add(vals)
            assert {m.values for m in all_rigid_surjections(dom, cod)} == brute_rigid
            assert set(map(tuple, rigid_surjection_values(dom, cod, True))) == brute_sealed
            brute_emb = {
                vals
                for vals in it.product(range(dom.n), repeat=cod.n)
                if is_embedding(TreeMap(cod, dom, vals))
            }
            assert {m.values for m in all_embeddings(cod, dom)} == brute_emb


def test_rigid_kernel_matches_meet_loop_oracle():
    # the constant-time fresh-value test against the full meet loop, both
    # flags, and the TreeMap view of the unsealed table
    cases = 0
    for dom in trees_up_to(7):
        for cod in trees_up_to(4):
            for sealed in (False, True):
                expected = rigid_surjections_by_meet_loop(dom, cod, sealed)
                got = [tuple(row) for row in rigid_surjection_values(dom, cod, sealed)]
                assert got == expected, (dom, cod, sealed)
                if not sealed:
                    assert [m.values for m in all_rigid_surjections(dom, cod)] == expected, (dom, cod)
                cases += 1
    assert cases == 3_546


def test_one_value_table_per_argument_triple():
    # the TreeMap view, the value table and a witness build that reads the
    # same RS(t, s) all share one table, and the view has one key per pair
    from treeramsey import witness

    s, t, u = C2, trees.chain(4), trees.tree([None, 0, 1, 1, 0])
    all_rigid_surjections.cache_clear()
    rigid_surjection_values.cache_clear()
    try:
        view = all_rigid_surjections(t, s)
        assert all_rigid_surjections(t, s) is view
        with pytest.raises(TypeError):
            all_rigid_surjections(t, s, False)
        assert tuple(map(tuple, rigid_surjection_values(t, s, False))) == tuple(m.values for m in view)
        assert all_rigid_surjections.cache_info().currsize == 1
        assert rigid_surjection_values.cache_info().currsize == 1
        witness._mn_hypergraph(s, t, u)  # reads RS(u, s), RS(t, s) and RS(u, t)
        assert rigid_surjection_values.cache_info().currsize == 3
        assert rigid_surjection_values.cache_info().misses == 3
    finally:
        all_rigid_surjections.cache_clear()
        rigid_surjection_values.cache_clear()


def test_embedding_kernel_matches_meet_loop_oracle():
    for s in trees_up_to(6):
        for t in trees_up_to(7):
            got = [e.values for e in all_embeddings(s, t)]
            assert got == embeddings_by_meet_loop(s, t), (s, t)


def test_embeddings_between_deep_chains_need_no_recursion():
    n = sys.getrecursionlimit() + 100
    c = trees.chain(n)
    assert [e.values for e in all_embeddings(c, c)] == [tuple(range(n))]


def _clear_table_caches():
    all_rigid_surjections.cache_clear()
    rigid_surjection_values.cache_clear()
    enumeration._prefix_table.cache_clear()


@pytest.fixture(scope="module")
def meet_loop_tables():
    # the oracle's tables for every domain of at most 8 vertices and codomain of at most 4
    cods = list(trees_up_to(4))
    return {
        (dom, cod, sealed): rigid_surjections_by_meet_loop(dom, cod, sealed)
        for dom in trees_up_to(8)
        for cod in cods
        for sealed in (False, True)
    }


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_prefix_tables_match_meet_loop_oracle_from_cold_caches(meet_loop_tables, order):
    # in reverse order each tree's table is built before its prefix's
    cases = list(meet_loop_tables.items())
    if order == "reverse":
        cases.reverse()
    _clear_table_caches()
    try:
        for (dom, cod, sealed), expected in cases:
            got = [tuple(row) for row in rigid_surjection_values(dom, cod, sealed)]
            assert got == expected, (dom, cod, sealed)
    finally:
        _clear_table_caches()
    assert len(cases) == 9 * 2 * sum(len(trees.all_trees(n)) for n in range(1, 9))


def test_deep_domains_fill_their_prefix_tables_in_steps(meet_loop_tables, monkeypatch):
    # with a step of 3 levels no call of _prefix_table recurses through more
    # than 3 prefixes below it, and the tables are unchanged
    table, depth, deepest = enumeration._prefix_table, [0], [0]

    def tracking(dom, cod):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return table(dom, cod)
        finally:
            depth[0] -= 1

    _clear_table_caches()
    monkeypatch.setattr(enumeration, "_DEPTH", 3)
    monkeypatch.setattr(enumeration, "_prefix_table", tracking)
    try:
        for (dom, cod, sealed), expected in reversed(meet_loop_tables.items()):
            got = [tuple(row) for row in rigid_surjection_values(dom, cod, sealed)]
            assert got == expected, (dom, cod, sealed)
    finally:
        monkeypatch.undo()
        _clear_table_caches()
    assert deepest[0] == 4


def test_value_tables_are_the_prefix_tables():
    # the public table hands out the cached prefix table, not a copy
    dom, cod = trees.tree([None, 0, 1, 1, 0]), C2
    assert rigid_surjection_values(dom, cod, False) is enumeration._prefix_table(dom.parent, cod.parent)
