import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from treeramsey import halesjewett as hj
from treeramsey import maps, trees
from treeramsey.enumeration import enum_colorings
from treeramsey.errors import (
    BlockConditionViolated,
    NotFoundWithinBound,
    ResourceCapExceeded,
    VerificationFailed,
    VertexOutOfRange,
)

from _fixtures import assert_fixture
from _oracles import (
    _conclusion_holds,
    candidate_tuples_by_families,
    definitional_point_flags,
    is_a_rigid,
    monochromatic_host_by_enumeration,
    transfer_witness_by_loops,
    tuple_objects,
)

PT = trees.point_forest(1)
TWO_PT = trees.point_forest(2)
C2F = trees.forest([None, 0])


# --- monochromatic embedded copies ------------------------------------------


def test_host_search_single_point():
    assert hj.monochromatic_host_search(PT, 2, 6) == PT


def test_host_search_two_points_needs_three():
    assert hj.monochromatic_host_search(TWO_PT, 2, 6) == trees.point_forest(3)


def test_host_search_one_color_returns_the_input():
    for n in range(1, 4):
        for f in trees.all_forests(n):
            assert hj.monochromatic_host_search(f, 1, 6) == f
    for t in trees.all_trees(3):
        assert hj.monochromatic_host_search(t, 1, 6) == t


def test_host_search_tree_mode_ignores_root_color():
    # chain of 2: the one non-root vertex is monochromatic on its own
    assert hj.monochromatic_host_search(trees.chain(2), 3, 6) == trees.chain(2)


def test_host_search_result_property_is_real():
    # re-verify the found host: every coloring admits a monochromatic copy
    host = hj.monochromatic_host_search(TWO_PT, 2, 6)
    from treeramsey.enumeration import enum_colorings

    embs = hj._forest_embeddings(TWO_PT, host)
    for coloring in enum_colorings(host.n, 2):
        assert any(len({coloring[v] for v in e}) == 1 for e in embs)


def test_host_search_bound_too_small():
    with pytest.raises(NotFoundWithinBound):
        hj.monochromatic_host_search(TWO_PT, 2, 2)


def test_host_search_matches_literal_enumeration():
    # every forest of 0-3 vertices and every tree of 1-3 vertices: the solver's
    # verdicts pick the same host as enumerating every coloring
    inputs = [f for n in range(4) for f in trees.all_forests(n)]
    inputs += [t for n in range(1, 4) for t in trees.all_trees(n)]
    for s in inputs:
        for b in (1, 2, 3):
            for max_size in (6, 7):
                expected = monochromatic_host_by_enumeration(s, b, max_size)
                try:
                    got = hj.monochromatic_host_search(s, b, max_size)
                except NotFoundWithinBound:
                    got = None
                assert got == expected, (s.parent, b, max_size)


def test_host_search_rejects_zero_colors():
    with pytest.raises(ValueError):
        hj.monochromatic_host_search(TWO_PT, 0, 6)


# --- word lemma searches ------------------------------------------------------


def test_hj_trivial_parameters():
    assert hj.hj_search(1, 1, 2, 3).i_size == 1
    assert hj.hj_search(1, 1, 1, 3).i_size == 1
    assert hj.hj_search(2, 1, 2, 3).i_size == 1
    assert hj.hj_search(2, 2, 1, 3).i_size == 1  # one color


def test_hj_derived_minimum_small():
    cert = hj.hj_search(1, 2, 2, 3)
    assert cert.i_size == 1
    assert_fixture("hj a=1 l=2 b=2 minimal i", cert.i_size)


def test_hj_derived_minimum_nontrivial():
    cert = hj.hj_search(2, 2, 2, 3)
    assert cert.i_size == 2
    assert len(cert.witnesses) == 2 ** 14  # one witness per pinned coloring
    assert_fixture("hj a=2 l=2 b=2 minimal i", cert.i_size)


def test_hj_witnesses_satisfy_block_condition():
    cert = hj.hj_search(2, 2, 2, 3)
    for (p,) in cert.witnesses[:256]:
        assert maps.check_block_condition(p, 2, 2, cert.i_size)


def test_hj_product_single_slot_agrees_with_hj():
    for a, l in [(1, 1), (1, 2), (2, 1)]:
        assert (
            hj.hj_product_search([a], [l], 2, 3).i_size == hj.hj_search(a, l, 2, 3).i_size
        )


def test_hj_product_one_color():
    assert hj.hj_product_search([1, 1], [1, 1], 1, 3).i_size == 1


def test_hj_product_direct_and_reduction_agree():
    direct = hj.hj_product_search([1, 1], [1, 1], 2, 3, mode="direct")
    reduced = hj.hj_product_search([1, 1], [1, 1], 2, 3, mode="reduction")
    assert direct.i_size == reduced.i_size
    assert_fixture("hj-product a=(1,1) l=(1,1) b=2 minimal i", direct.i_size)


def test_hj_product_reduction_with_nontrivial_bottom_chain():
    direct = hj.hj_product_search([2, 1], [1, 1], 2, 3, mode="direct")
    reduced = hj.hj_product_search([2, 1], [1, 1], 2, 3, mode="reduction")
    assert direct.i_size == reduced.i_size


def test_hj_product_coloring_cap():
    with pytest.raises(ResourceCapExceeded):
        hj.hj_product_check([2], [3], 2, 3, max_colorings=10)


def test_coloring_cap_decided_before_building_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("conclusion classes built for an over-cap call")

    monkeypatch.setattr(hj, "_conclusion_classes", refuse)
    with pytest.raises(ResourceCapExceeded):
        hj.hj_product_check([2], [16], 2, 1)
    with pytest.raises(ResourceCapExceeded):
        hj.hj_product_search([2], [30_000], 2, 1)
    with pytest.raises(ResourceCapExceeded):
        hj.lp_pipeline([1], [PT], 2, max_colorings=1)


def test_negative_coloring_caps_are_refused(monkeypatch):
    # a negative cap is an input error (ValueError), not a cap hit; 0 stays a cap
    with pytest.raises(ValueError):
        hj.hj_product_check([1], [1], 2, 1, max_colorings=-1)
    with pytest.raises(ValueError):
        hj.hj_search(1, 1, 2, 1, max_colorings=-1)
    with pytest.raises(ValueError):
        hj.hj_product_search([1], [1], 2, 0, max_colorings=-1)  # even with no size to try
    with pytest.raises(ResourceCapExceeded):
        hj.hj_product_check([1], [1], 2, 1, max_colorings=0)

    def refuse(*args):
        raise AssertionError("host search ran under a negative cap")

    monkeypatch.setattr(hj, "monochromatic_host_search", refuse)
    with pytest.raises(ValueError):
        hj.lp_pipeline([1], [PT], 2, max_colorings=-1)


def test_reduction_mode_raises_when_a_projection_fails_the_block_condition(monkeypatch):
    # a projected part that fails the block condition is an error, never a
    # silently dropped candidate
    monkeypatch.setattr(hj, "check_block_condition", lambda *args: False)
    with pytest.raises(VerificationFailed):
        hj.hj_product_check([1, 1], [1, 1], 2, 1, mode="reduction")
    assert hj.hj_product_check([1, 1], [1, 1], 2, 1, mode="direct") is not None


@pytest.mark.parametrize(
    "a_sizes, l_sizes", [([0], [2]), ([1], [3]), ([3], [2]), ([3, 2], [1, 2]), ([2, 0], [1, 1]), ([1], [0])]
)
def test_coloring_cap_counts_the_tuple_objects(a_sizes, l_sizes):
    # the closed-form count meets the listed objects: a cap of exactly
    # b^count passes and one less does not, pinned and unpinned
    for i in (1, 2):
        n = len(tuple_objects(a_sizes, l_sizes, i))
        for pin_first, exponent in ((True, max(0, n - 1)), (False, n)):
            for b in (1, 2, 3):
                hj._check_coloring_cap(a_sizes, l_sizes, i, b, b**exponent, pin_first)
                with pytest.raises(ResourceCapExceeded):
                    hj._check_coloring_cap(a_sizes, l_sizes, i, b, b**exponent - 1, pin_first)


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_object_positions_match_the_listed_objects(slots):
    # _object_index gives each listed object its position and _object_count
    # their number, on every size list with A <= 3, L <= 2 and i <= 2
    for a_sizes in itertools.product(range(4), repeat=slots):
        for l_sizes in itertools.product(range(3), repeat=slots):
            for i in range(3):
                objects = tuple_objects(a_sizes, l_sizes, i)
                assert hj._object_count(a_sizes, l_sizes, i) == len(objects), (a_sizes, l_sizes, i)
                assert [hj._object_index(obj, a_sizes) for obj in objects] == list(range(len(objects)))


def test_one_color_lists_no_objects():
    # b = 1 passes any cap >= 1, so the cap cannot bound the 265,720 objects
    # of (3, 4) at i = 3; listing them took about 100 MB
    import tracemalloc

    tracemalloc.start()
    try:
        cert = hj.hj_product_check([3], [4], 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hj._object_count([3], [4], 3) == 265_720
    assert cert.witnesses == [next(hj._candidate_tuples([3], [4], 3, "direct"))]
    assert peak < 5_000_000


@pytest.mark.parametrize(
    "a_sizes, l_sizes",
    [([-1], [1]), ([1], [-2]), ([1], [1, 1]), ([1, 1], [1]), ([], [])],
)
def test_hj_sizes_rejected_before_enumeration(a_sizes, l_sizes):
    with pytest.raises(ValueError):
        hj.hj_product_check(a_sizes, l_sizes, 2, 1)
    with pytest.raises(ValueError):
        hj.hj_product_search(a_sizes, l_sizes, 2, 0)
    if len(a_sizes) == len(l_sizes) == 1:
        with pytest.raises(ValueError):
            hj.hj_search(a_sizes[0], l_sizes[0], 2, 3)


# (a_sizes, l_sizes, b, i, mode)
CLASS_CASES = [
    *(([a], [l], b, i, "direct") for a, l, b, i in [
        (1, 2, 2, 1), (1, 2, 2, 2), (2, 1, 2, 2), (1, 2, 3, 2), (2, 2, 2, 1), (0, 1, 2, 1), (1, 0, 2, 1),
    ]),
    *(([1, 1], [1, 1], 2, i, mode) for i in (1, 2) for mode in ("direct", "reduction")),
    *(([2, 1], [1, 1], 2, i, mode) for i in (1, 2) for mode in ("direct", "reduction")),
    *(([1, 2], [1, 1], 2, i, mode) for i in (1, 2) for mode in ("direct", "reduction")),
]


def _oracle_witnesses(a_sizes, l_sizes, b, i, mode="direct", pin_first=True, candidates=None):
    """The search loop with the definitional conclusion: (coloring, first holding
    candidate) for every coloring, or None once one defeats every candidate.
    The candidates default to the mode's tuples, listed family by family."""
    objects = tuple_objects(a_sizes, l_sizes, i)
    if candidates is None:
        candidates = list(candidate_tuples_by_families(a_sizes, l_sizes, i, mode))
    out = []
    for coloring in enum_colorings(len(objects), b, pin_first=pin_first):
        color_of = dict(zip(objects, coloring))
        witness = next(
            (p for p in candidates if _conclusion_holds(p, a_sizes, l_sizes, i, color_of)), None
        )
        if witness is None:
            return None
        out.append((coloring, witness))
    return out


@pytest.mark.parametrize("a_sizes, l_sizes, b, i, mode", CLASS_CASES)
def test_conclusion_classes_match_oracle(a_sizes, l_sizes, b, i, mode):
    objects = tuple_objects(a_sizes, l_sizes, i)
    for p_tuple in hj._candidate_tuples(a_sizes, l_sizes, i, mode):
        classes = hj._conclusion_classes(p_tuple, a_sizes, l_sizes, i)
        assert len(classes) == l_sizes[0]  # one class per cut of slot 0
        for coloring in enum_colorings(len(objects), b, pin_first=True):
            mono = all(len({coloring[k] for k in c}) <= 1 for c in classes)
            color_of = dict(zip(objects, coloring))
            assert mono == _conclusion_holds(p_tuple, a_sizes, l_sizes, i, color_of)


@pytest.mark.parametrize("a_sizes, l_sizes, b, i, mode", CLASS_CASES)
def test_certificate_matches_oracle_loop(a_sizes, l_sizes, b, i, mode):
    cert = hj.hj_product_check(a_sizes, l_sizes, b, i, mode=mode)
    expected = _oracle_witnesses(a_sizes, l_sizes, b, i, mode)
    if expected is None:
        assert cert is None
    else:
        assert cert.witnesses == [w for _, w in expected]


def test_full_certificate_matches_oracle_loop():
    # (2, 2, 2) at its minimal i = 2: all 16,384 pinned colorings, witness by witness
    cert = hj.hj_product_check([2], [2], 2, 2)
    expected = _oracle_witnesses([2], [2], 2, 2)
    assert len(cert.witnesses) == len(expected) == 2 ** 14
    assert cert.witnesses == [w for _, w in expected]


def _swept(a_sizes, l_sizes, b, i, candidates, pin_first):
    """The shared word-lemma witnesses with the given candidates as the stream,
    under a cap that every instance here passes (unpinned (4, 3, 2) at i = 1
    has 2^21 colorings)."""
    with mock.patch.object(hj, "_candidate_tuples", lambda *args: iter(candidates)):
        found = hj._word_lemma_witnesses(a_sizes, l_sizes, i, b, 1 << 21, pin_first=pin_first)
    return None if found is None else found[1]


def _expected(a_sizes, l_sizes, b, i, candidates, pin_first):
    found = _oracle_witnesses(a_sizes, l_sizes, b, i, pin_first=pin_first, candidates=candidates)
    return None if found is None else [w for _, w in found]


@pytest.mark.parametrize("k", [0, 1, 2, 5, 7])
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("pin_first", [True, False])
def test_color_masks_follow_enum_colorings(k, b, pin_first):
    # bit j of item t's color-c mask is set iff coloring j gives t color c,
    # over all colorings and over the prefixes the sweep tries first
    colorings = list(enum_colorings(k, b, pin_first=pin_first))
    for n in sorted({1, 5, 64, len(colorings)} & set(range(1, len(colorings) + 1))):
        for t in range(k):
            masks = hj._color_masks(t, k, b, n)
            assert len(masks) == b
            for c, mask in enumerate(masks):
                assert mask == sum(1 << j for j, coloring in enumerate(colorings[:n]) if coloring[t] == c)


@pytest.mark.parametrize(
    "a_sizes, l_sizes, b, i",
    [([1, 2], [1, 1], 2, 2), ([2], [2], 2, 1), ([1], [2], 3, 2), ([1, 2], [1, 1], 3, 2), ([0], [1], 2, 1)],
)
def test_unpinned_sweep_matches_oracle_loop(a_sizes, l_sizes, b, i):
    # pin_first=False is the lp_pipeline path: b^k colorings, item 0 free
    candidates = list(hj._candidate_tuples(a_sizes, l_sizes, i, "direct"))
    assert _swept(a_sizes, l_sizes, b, i, candidates, False) == _expected(
        a_sizes, l_sizes, b, i, candidates, False
    )


@pytest.mark.parametrize("mode", ["direct", "reduction"])
@pytest.mark.parametrize("a_sizes, l_sizes, i", [([1, 2], [1, 1], 2), ([2, 1], [1, 1], 3)])
def test_three_colors_past_eight_bits_match_oracle_loop(a_sizes, l_sizes, i, mode):
    # 3^7 and 3^6 pinned colorings: the first instance is defeated, the second decided
    assert 3 ** (hj._object_count(a_sizes, l_sizes, i) - 1) >= 1 << 8
    cert = hj.hj_product_check(a_sizes, l_sizes, 3, i, mode=mode)
    expected = _oracle_witnesses(a_sizes, l_sizes, 3, i, mode)
    assert (cert is None) == (expected is None) == (a_sizes == [1, 2])
    if cert is not None:
        assert cert.witnesses == [w for _, w in expected]


@pytest.mark.parametrize("pin_first", [True, False])
def test_zero_objects_have_one_empty_coloring(pin_first):
    # k = 0: one coloring (), which the first candidate takes; no candidate defeats it
    first = ((0,),)
    assert _swept([1], [0], 2, 1, [first, ((1,),)], pin_first) == [first]
    assert _swept([1], [0], 2, 1, [], pin_first) is None
    assert hj.hj_product_check([1], [0], 2, 1).witnesses == [first]


def test_defeated_instance_returns_none():
    # (2, 2, 2) needs i = 2: at i = 1 some pinned coloring defeats every candidate
    assert _oracle_witnesses([2], [2], 2, 1) is None
    assert hj.hj_product_check([2], [2], 2, 1) is None
    assert _swept([2], [2], 2, 1, list(hj._candidate_tuples([2], [2], 1, "direct")), False) is None


@pytest.mark.parametrize(
    "a_sizes, l_sizes, i, first_defeat",
    [([4], [3], 1, 1), ([1, 2], [2, 1], 2, 4454), ([1, 3], [1, 1], 2, 43092)],
)
def test_defeat_in_or_past_the_swept_prefixes(a_sizes, l_sizes, i, first_defeat):
    # the first pinned coloring that defeats every candidate lies in the first
    # swept prefix (2^10 colorings), in the second (2^14) and past both
    objects = tuple_objects(a_sizes, l_sizes, i)
    candidates = list(hj._candidate_tuples(a_sizes, l_sizes, i, "direct"))
    colorings = enum_colorings(len(objects), 2, pin_first=True)
    defeat = dict(zip(objects, next(itertools.islice(colorings, first_defeat, None))))
    assert not any(_conclusion_holds(p, a_sizes, l_sizes, i, defeat) for p in candidates)
    assert hj.hj_product_check(a_sizes, l_sizes, 2, i) is None
    assert _swept(a_sizes, l_sizes, 2, i, candidates, False) is None
    if first_defeat < 5000:
        assert _oracle_witnesses(a_sizes, l_sizes, 2, i) is None


def test_candidates_are_compiled_only_when_a_sweep_reaches_them(monkeypatch):
    # A = (4, 1, 1), L = (1, 2, 3), i = 3 has 1,025,227 candidates, and
    # candidate 0 takes all 2^20 pinned colorings: no sweep pulls or compiles
    # a later one
    a_sizes, l_sizes, i = [4, 1, 1], [1, 2, 3], 3
    first = next(hj._candidate_tuples(a_sizes, l_sizes, i, "direct"))
    expected = hj.hj_product_check(a_sizes, l_sizes, 2, i).witnesses

    def stream(*args):
        yield first
        raise AssertionError("candidate stream pulled past the winning candidate")

    compiled = []
    conclusion_classes = hj._conclusion_classes

    def counting(p_tuple, *args):
        compiled.append(p_tuple)
        return conclusion_classes(p_tuple, *args)

    monkeypatch.setattr(hj, "_candidate_tuples", stream)
    monkeypatch.setattr(hj, "_conclusion_classes", counting)
    count, witnesses = hj._word_lemma_witnesses(a_sizes, l_sizes, i, 2, hj.DEFAULT_MAX_COLORINGS, pin_first=True)
    assert count == 21 and len(witnesses) == 1 << 20
    assert witnesses.count(first) == len(witnesses) and witnesses == expected
    assert compiled == [first]


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_candidate_streams_match_the_family_lists(slots):
    # both modes against the candidates listed family by family (reduction:
    # one map decoded value by value), the first 100 of every size list with
    # A <= 3, L <= 2 and i <= 2; block_condition_maps is the one-slot direct
    # stream
    for a_sizes in itertools.product(range(4), repeat=slots):
        for l_sizes in itertools.product(range(3), repeat=slots):
            for i in range(3):
                for mode in ("direct", "reduction"):
                    got = list(itertools.islice(hj._candidate_tuples(a_sizes, l_sizes, i, mode), 100))
                    expected = itertools.islice(candidate_tuples_by_families(a_sizes, l_sizes, i, mode), 100)
                    assert got == list(expected), (a_sizes, l_sizes, i, mode)
                    if slots == 1 and mode == "direct":
                        maps = itertools.islice(hj.block_condition_maps(*a_sizes, *l_sizes, i), 100)
                        assert [(p,) for p in maps] == got


@pytest.mark.parametrize("mode", ["direct", "reduction"])
def test_first_candidate_lists_no_family(mode):
    # slot 1 of A = (1, 1), L = (1, 7), i = 3 has 7^7 = 823,543 block-condition
    # maps; listing them takes about 100 MB
    import tracemalloc

    tracemalloc.start()
    try:
        first = next(hj._candidate_tuples([1, 1], [1, 7], 3, mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((0, 0, 0, 1), (0, *(v for x in range(1, 8) for v in (0, 0, x))))
    assert peak < 5_000_000


@pytest.mark.parametrize("lead", [0, 1, 2, 4])
def test_candidate_indices_past_eight_bits(lead):
    # 300 copies of a candidate some coloring defeats, ahead of the full list:
    # the colorings the copies lose go to candidates at index 300 and up
    a_sizes, l_sizes, i = [1, 2], [1, 1], 2
    candidates = list(hj._candidate_tuples(a_sizes, l_sizes, i, "direct"))
    padded = [candidates[lead]] * 300 + candidates
    found = _swept(a_sizes, l_sizes, 2, i, padded, True)
    assert found == _expected(a_sizes, l_sizes, 2, i, padded, True)
    assert any(w != candidates[lead] for w in found)


@pytest.mark.parametrize("top", [0, 1, 255, 256, (1 << 16) - 1, 1 << 16, 70_000])
def test_witness_indices_read_every_lane_width(top):
    # the colorings j < 37 go to candidates top, top-1, ... in turn: one byte
    # a lane below index 256, four bytes from there
    n = 37
    owners = [top - j % min(top + 1, 5) for j in range(n)]
    hits = [(idx, sum(1 << j for j in range(n) if owners[j] == idx)) for idx in sorted(set(owners))]
    assert list(hj._witness_indices(hits, n)) == owners


@pytest.mark.parametrize("b", [0, -1])
def test_fewer_than_one_color_is_refused(b):
    with pytest.raises(ValueError, match="b >= 1"):
        hj.hj_product_check([2], [2], b, 1)
    with pytest.raises(ValueError, match="b >= 1"):
        hj.hj_product_check([1], [0], b, 1)
    with pytest.raises(ValueError, match="b >= 1"):
        _swept([1], [1], b, 1, list(hj._candidate_tuples([1], [1], 1, "direct")), False)


def test_word_composition_matches_tree_map_composition():
    # every class member is the position, in the listed objects, of the
    # honest TreeMap composites (r1 o p1^x, r2 o p2)
    from treeramsey.trees import chain

    a_sizes, l_sizes, i = [2, 2], [2, 1], 2
    position = {obj: k for k, obj in enumerate(tuple_objects(a_sizes, l_sizes, i))}
    p_maps = [
        [maps.TreeMap(chain(a + l * i), chain(a + l), p) for p in hj.block_condition_maps(a, l, i)]
        for a, l in zip(a_sizes, l_sizes)
    ]
    (a1, a2), (l1, l2) = a_sizes, l_sizes
    for p1, p2 in itertools.product(*p_maps):
        seconds = [
            maps.compose(maps.TreeMap(chain(a2 + l2), chain(a2), tuple(range(a2)) + r2), p2).values[a2:]
            for r2 in itertools.product(range(a2), repeat=l2)
        ]
        expected = []
        for x in range(l1):
            members = []
            for r1 in itertools.product(range(a1), repeat=x):
                r_map = maps.TreeMap(chain(a1 + x + 1), chain(a1 + 1), tuple(range(a1)) + r1 + (a1,))
                first = maps.compose(r_map, maps.restrict_initial(p1, a1 + x)).values
                assert first[:a1] == tuple(range(a1)) and first[-1] == a1
                members += [position[(first[a1:-1], second)] for second in seconds]
            expected.append(tuple(members))
        assert hj._conclusion_classes((p1.values, p2.values), a_sizes, l_sizes, i) == tuple(expected)


# --- point classification and the transfer maps ---------------------------------


def test_classify_point_spec_example():
    p = (0, 1, 0)  # a = 1, block of the single cut: hit then fall to A
    assert hj.classify_point(PT, 2, 1, p, (0, (0,))) == hj.PointFlags(True, True, True)
    assert hj.classify_point(PT, 2, 1, p, (0, (1,))) == hj.PointFlags(False, False, False)


def test_singleton_alphabet_everything_very_good():
    for f in trees.all_forests(3):
        q = trees.q_set(f, 1)
        p = tuple(range(1)) + tuple(1 + qq for qq in range(len(q.points)))
        ti = trees.tensor(f, 1)
        for pt in ti.points:
            assert hj.classify_point(f, 1, 1, p, pt).very_good
        for v in range(f.n):
            assert hj.very_good_word(f, 1, 1, p, v) == (0,) * f.height[v]


def test_good_but_not_very_good_point():
    # two-level chain, blocks in order (s0,()), (s1,(1,)), (s1,(0,)); the last
    # block hits at both letters, so its second point keeps the p-condition and
    # leading prefixes while not being leading itself
    q = trees.q_set(C2F, 2)
    p = (0, 1, 1, 2, 0, 3, 3)
    assert maps.check_block_condition(p, 1, len(q.points), 2)
    flags = hj.classify_point(C2F, 2, 1, p, (1, (0, 1)))
    assert flags.good and not flags.very_good and not flags.leading


def test_build_pi_spec_example():
    pi, j = hj.build_pi(PT, 2, 1, (0, 1, 0))
    assert pi.values == (0, 1, 0)
    assert j.values == (0, 1)
    assert maps.classify(pi).rigid_surjection


def test_build_pi_singleton_alphabet_collapse():
    for f in trees.all_forests(3):
        nq = len(trees.q_set(f, 1).points)
        p = (0,) + tuple(1 + qq for qq in range(nq))
        pi, j = hj.build_pi(f, 1, 1, p)
        assert sorted(pi.values) == sorted(range(1 + f.n))  # bijective collapse
        assert maps.injection_of(pi) == j


def test_build_pi_rejects_bad_word_maps():
    with pytest.raises(BlockConditionViolated):
        hj.build_pi(PT, 2, 1, (0, 0, 0))  # block never hits its target


def test_build_r_examples():
    p = (0, 1, 0)
    rho = hj._sealed_tree_map(1, PT, ())
    r = hj.build_r(PT, 2, 1, p, 0, rho)
    assert r.values == (0, 1)
    rho_plain = maps.TreeMap(trees.oplus(1, PT), trees.chain(1), (0, 0))
    r2 = hj.build_r_plain(PT, 2, 1, p, rho_plain)
    assert r2.values[0] == 0


def test_build_r_plain_empty_forest():
    # Q is empty, so r is the identity of A
    empty = trees.forest([])
    rho = maps.TreeMap(trees.oplus(2, empty), trees.chain(2), (0, 1))
    assert hj.build_r_plain(empty, 2, 2, (0, 1), rho).values == (0, 1)


def test_build_r_all_small_instances():
    for f in trees.all_forests(2):
        for a in (1, 2):
            for p in hj.block_condition_maps(a, len(trees.q_set(f, 2).points), 2):
                for v in range(f.n):
                    pre = trees.OrderedForest(f.parent[: v + 1])
                    for rv in itertools.product(range(a), repeat=v):
                        rho = hj._sealed_tree_map(a, pre, rv)
                        hj.build_r(f, 2, a, p, v, rho)  # raises on any failure
                for rv in itertools.product(range(a), repeat=f.n):
                    rho = maps.TreeMap(
                        trees.oplus(a, f), trees.chain(a), tuple(range(a)) + rv
                    )
                    hj.build_r_plain(f, 2, a, p, rho)


def test_fast_cell_flags_match_definitional():
    for f in list(trees.all_forests(1)) + list(trees.all_forests(2)):
        for a in (1, 2):
            for isz in (1, 2):
                ti, q = trees.tensor(f, isz), trees.q_set(f, isz)
                t_pos = {(pt.s, pt.t): k for k, pt in enumerate(ti.points)}
                q_pos = {(qp.s, qp.u): k for k, qp in enumerate(q.points)}
                for p in hj.block_condition_maps(a, len(q.points), isz):
                    for pt in ti.points:
                        defn = definitional_point_flags(f.parent, a, p, q_pos, t_pos, pt.s, pt.t)
                        assert hj.classify_point(f, isz, a, p, pt) == hj.PointFlags(*defn)
                        assert defn[2] == (pt.t == hj.very_good_word(f, isz, a, p, pt.s))


def _cells(max_vertices, max_words, alphabets=(1, 2)):
    for n in range(1, max_vertices + 1):
        for f in trees.all_forests(n):
            for a in (1, 2):
                for isz in alphabets:
                    cell = hj.TransferCell(f, isz, a)
                    if cell.word_count() <= max_words:
                        yield cell


def _words(cell, p):
    return tuple(cell.structure(p)[1])


def test_cuts_and_j_match_the_definitional_very_good_points():
    # x_v is the block of v's very good point by definition, and j_p read
    # positionally from x_v equals the lookup of that point in S x I
    for cell in _cells(3, 3_000, alphabets=(1, 2, 3)):
        f, a, isz, ti = cell.s, cell.a, cell.i, cell.tensor
        t_pos = {(pt.s, pt.t): k for k, pt in enumerate(ti.points)}
        q_pos = {(qp.s, qp.u): k for k, qp in enumerate(cell.q.points)}
        for p in hj.block_condition_maps(a, cell.nq, isz):
            _, words, x = cell.structure(p)
            very_good = {
                pt.s: t_pos[pt] // isz
                for pt in ti.points
                if definitional_point_flags(f.parent, a, p, q_pos, t_pos, pt.s, pt.t)[2]
            }
            assert x == [very_good[v] for v in range(f.n)]
            _, j_vals, _ = cell.transfer_maps(p)
            assert j_vals[a:] == [a + ti.vertex_of[trees.TensorPoint(v, w)] for v, w in enumerate(words)]


def test_verify_transfer_cells_small():
    # the oracle: check_word_map on every block-condition map of each cell,
    # and j is the injection the generic classifier computes for pi
    for cell in _cells(4, 3_000):
        count = 0
        for p in hj.block_condition_maps(cell.a, cell.nq, cell.i):
            cell.check_word_map(p)
            pi, j, _ = cell.transfer_maps(p)
            pi_map = maps.TreeMap(cell.dom_tree, cell.cod_tree, tuple(pi))
            assert maps.injection_of(pi_map).values == tuple(j)
            count += 1
        assert count == hj.count_block_maps(cell.a, cell.nq, cell.i)
        assert hj.verify_transfer_cell(cell.s, cell.i, cell.a) == (count, True)


def test_galois_check_matches_witness_loops_on_corruptions():
    # one entry of pi or j changed, on every word map of every cell with a
    # forest of at most 2 vertices: check_word_map rejects the pair exactly
    # when the old witness loops do
    verdicts = {True: 0, False: 0}
    for n in (1, 2):
        for f in trees.all_forests(n):
            for a in (1, 2):
                for isz in (1, 2):
                    cell = hj.TransferCell(f, isz, a)
                    n_cod, n_dom = a + f.n, a + cell.n_block
                    for p in hj.block_condition_maps(a, cell.nq, isz):
                        pi_vals, j_vals, cuts = cell.transfer_maps(p)
                        assert transfer_witness_by_loops(cell, pi_vals, j_vals)
                        corrupted = [
                            (pi_vals[:k] + [x] + pi_vals[k + 1 :], j_vals)
                            for k in range(n_dom)
                            for x in range(n_cod)
                            if x != pi_vals[k]
                        ] + [
                            (pi_vals, j_vals[:k] + [x] + j_vals[k + 1 :])
                            for k in range(n_cod)
                            for x in range(n_dom)
                            if x != j_vals[k]
                        ]
                        for pi_c, j_c in corrupted:
                            ok = transfer_witness_by_loops(cell, pi_c, j_c)
                            verdicts[ok] += 1
                            cell.transfer_maps = lambda _p: (pi_c, j_c, cuts)
                            try:
                                cell.check_word_map(p)
                                rejected = False
                            except VerificationFailed as exc:
                                rejected = str(exc) == "pi and j are not a Galois pair"
                            del cell.transfer_maps
                            assert rejected == (not ok)
    assert verdicts[True] and verdicts[False]


# A cell whose domain ancestor masks are zeroed: no two vertices of A + (S x I)
# seem to have a meet, so j seems not to preserve meets.
CORRUPT_CELL = """
from treeramsey import halesjewett as hj, trees
cell = hj.TransferCell(trees.point_forest(1), 2, 2)
cell.dom_anc = [0] * len(cell.dom_anc)
cell.check_word_map(next(hj.block_condition_maps(2, cell.nq, 2)))
"""


def test_corrupted_cell_raises_verification_failed():
    with pytest.raises(VerificationFailed):
        exec(CORRUPT_CELL, {})


def test_corrupted_cell_raises_under_optimize():
    # python -O strips assert statements; the verification must not depend on them
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\nfrom treeramsey.errors import VerificationFailed\n"
        f"try:\n    exec({CORRUPT_CELL!r}, {{}})\nexcept VerificationFailed:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert proc.stdout == "raised 1\n", proc.stderr


def test_covering_family_meets_every_allowed_value():
    # grouped by very good words, one group per letter choice in product
    # order, each group a set of block-condition maps that takes every
    # (position, value) pair the literal maps with those words take
    for cell in _cells(3, 3_000, alphabets=(1, 2, 3)):
        a, isz, nq = cell.a, cell.i, cell.nq
        literal = {}
        for p in hj.block_condition_maps(a, nq, isz):
            literal.setdefault(_words(cell, p), set()).update(enumerate(p))
        members = list(cell.covering_family())
        assert len(members) <= cell.covering_bound()
        covered = {}
        for words, group in itertools.groupby(members, key=lambda p: _words(cell, p)):
            assert words not in covered
            covered[words] = set()
            for p in group:
                assert maps.check_block_condition(p, a, nq, isz)
                covered[words].update(enumerate(p))
        letters = [tuple(word[-1] for word in words) for words in covered]
        assert letters == list(itertools.product(range(isz), repeat=cell.s.n))
        assert covered == literal


def test_covering_bound_never_exceeds_the_minima_product():
    for n in range(1, 6):
        for f in trees.all_forests(n):
            for a in (1, 2, 3):
                for isz in (1, 2, 3):
                    cell = hj.TransferCell(f, isz, a)
                    assert cell.covering_bound() <= isz**cell.nq * (a + 1)


def test_verify_transfer_cells_up_to_five_vertices():
    for n in range(1, 6):
        for f in trees.all_forests(n):
            for a in (1, 2):
                for isz in (1, 2):
                    count = hj.count_block_maps(a, len(trees.q_set(f, isz).points), isz)
                    assert hj.verify_transfer_cell(f, isz, a) == (count, True)


def _passes(cell, family):
    try:
        for p in family:
            cell.check_word_map(p)
    except VerificationFailed:
        return False
    return True


def _off_path_positions(cell, words):
    on_path = {cell.q.position_of[trees.QPoint(v, word[:-1])] for v, word in enumerate(words)}
    return [cell.a + pos for pos in range(cell.n_block) if pos // cell.i not in on_path]


def test_covering_family_catches_local_faults_exactly():
    # a fault in pi_p(w) that depends on (very good words, w, p[w]), or in
    # j_p that depends on the words, is the kind locality covers: the
    # covering family rejects it exactly when some word map of the cell does
    rng = random.Random(9)
    verdicts = {True: 0, False: 0}
    off_path_faults = 0
    for cell in _cells(3, 3_000, alphabets=(1, 2, 3)):
        literal = list(hj.block_condition_maps(cell.a, cell.nq, cell.i))
        family = list(cell.covering_family())
        n_dom, n_cod = cell.a + cell.n_block, cell.a + cell.s.n
        transfer_maps = cell.transfer_maps
        for _ in range(12):
            q = rng.choice(literal)
            on_pi = rng.random() < 0.5
            off_path = _off_path_positions(cell, _words(cell, q))
            if on_pi and off_path and rng.random() < 0.5:
                w = rng.choice(off_path)
            else:
                w = rng.randrange(n_dom if on_pi else n_cod)
            off_path_faults += on_pi and w in off_path
            x = rng.randrange(n_cod if on_pi else n_dom)

            def corrupted(p, words=_words(cell, q), w=w, x=x, letter=q[w], on_pi=on_pi):
                pi_vals, j_vals, cuts = transfer_maps(p)
                if _words(cell, p) == words and (not on_pi or p[w] == letter):
                    (pi_vals if on_pi else j_vals)[w] = x
                return pi_vals, j_vals, cuts

            cell.transfer_maps = corrupted
            ok = _passes(cell, literal)
            assert _passes(cell, family) == ok
            verdicts[ok] += 1
            del cell.transfer_maps
    assert verdicts[True] and verdicts[False] and off_path_faults


def test_points_outside_s_x_i_raise_vertex_out_of_range():
    p = next(hj.block_condition_maps(1, len(trees.q_set(C2F, 2).points), 2))
    for point in ((0, (5,)), (7, (0,))):
        with pytest.raises(VertexOutOfRange):
            hj.classify_point(C2F, 2, 1, p, point)
    for v in (2, 5, -1):
        with pytest.raises(VertexOutOfRange):
            hj.very_good_word(C2F, 2, 1, p, v)
    assert issubclass(VertexOutOfRange, IndexError)  # callers catching IndexError still do


def test_build_r_refuses_a_vertex_outside_the_forest():
    # refused before v's very good word is looked up, not as a bare IndexError
    rho = hj._sealed_tree_map(1, PT, ())
    for v in (1, 5, -1):
        with pytest.raises(IndexError) as exc:
            hj.build_r(PT, 2, 1, (0, 1, 0), v, rho)
        assert type(exc.value) is VertexOutOfRange


# --- the pipeline ----------------------------------------------------------------


def test_pipeline_single_point_one_color():
    result = hj.lp_pipeline([1], [PT], 1)
    assert result.i_size == 1
    assert result.host == PT
    assert len(result.certificates) == 1
    assert result.certificates[0].color == 0


def test_pipeline_single_point_two_colors():
    result = hj.lp_pipeline([1], [PT], 2)
    assert result.host == PT
    assert len(result.certificates) == 2 ** len(
        tuple_objects([1], [len(trees.q_set(PT, result.i_size).points)], result.i_size)
    )
    for cert in result.certificates:
        assert cert.color in (0, 1)


def test_pipeline_two_point_forest():
    result = hj.lp_pipeline([1], [TWO_PT], 2)
    assert result.host == trees.point_forest(3)
    for cert in result.certificates:
        assert maps.is_rigid_surjection(
            maps.TreeMap(
                trees.oplus(1, result.tensors[0].forest),
                trees.oplus(1, TWO_PT),
                cert.t_maps[0],
            )
        )


def test_pipeline_undersized_caps():
    with pytest.raises(NotFoundWithinBound):
        hj.lp_pipeline([1], [TWO_PT], 2, max_host_size=2)


def test_pipeline_two_slots():
    result = hj.lp_pipeline([1, 1], [PT, PT], 2)
    assert result.i_size == 1
    assert len(result.tensors) == 2
    for cert in result.certificates:
        assert len(cert.t_maps) == 2
        assert cert.color in (0, 1)


@pytest.mark.parametrize("a_sizes, forests", [([1], [PT]), ([1, 1], [PT, PT]), ([2], [PT])])
def test_pipeline_word_maps_match_oracle_loop(a_sizes, forests):
    # the pipeline scans every coloring, unpinned, and takes the first feasible i
    result = hj.lp_pipeline(a_sizes, forests, 2)
    bases = [result.host] + forests[1:]
    for i in range(1, result.i_size + 1):
        l_sizes = [len(trees.q_set(f, i).points) for f in bases]
        expected = _oracle_witnesses(a_sizes, l_sizes, 2, i, pin_first=False)
        if i < result.i_size:
            assert expected is None
    assert [(c.coloring, c.word_maps) for c in result.certificates] == expected


def test_pipeline_nontrivial_bottom_chain():
    result = hj.lp_pipeline([2], [PT], 2)
    assert result.host == PT
    for cert in result.certificates:
        t1 = maps.TreeMap(
            trees.oplus(2, result.tensors[0].forest), trees.oplus(2, PT), cert.t_maps[0]
        )
        assert is_a_rigid(t1, 2)
