import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import colorsearch, framework, halesjewett, trees, witness
from treeramsey.colorsearch import (
    find_proper_coloring,
    find_proper_coloring_plain,
    has_monochromatic_edge,
)
from treeramsey.enumeration import all_embeddings, all_rigid_surjections
from treeramsey.errors import NotFoundWithinBound, ResourceCapExceeded

from _oracles import find_proper_coloring_enumerate


def test_singleton_edge_blocks_everything():
    res = find_proper_coloring(3, [(1,)], 5)
    assert res.holds


def test_empty_edge_blocks_everything():
    assert find_proper_coloring(3, [()], 2).holds


def test_no_edges_always_properly_colorable():
    res = find_proper_coloring(4, [], 1)
    assert res.proper == (0, 0, 0, 0)


def test_one_color_with_real_edges_holds():
    assert find_proper_coloring(3, [(0, 1, 2)], 1).holds


@pytest.mark.parametrize("b", [0, -1])
@pytest.mark.parametrize("edges", [[], [()], [(1,)], [(0, 1, 2)]])
@pytest.mark.parametrize("engine", [find_proper_coloring, find_proper_coloring_plain])
def test_fewer_than_one_color_is_refused(engine, edges, b):
    with pytest.raises(ValueError):
        engine(3, edges, b)


@pytest.mark.parametrize("edge", [frozenset({0, 1}), [0, 1], range(2)])
def test_solver_refuses_an_edge_that_is_not_a_tuple(edge):
    # a frozenset would be ordered by the subset order, so the propagation
    # order could depend on how the edges are listed
    with pytest.raises(TypeError, match="tuples"):
        find_proper_coloring(3, [(1, 2), edge], 2)


def test_triangle_of_pairs_needs_three_colors():
    edges = [(0, 1), (1, 2), (0, 2)]
    assert find_proper_coloring(3, edges, 2).holds
    res = find_proper_coloring(3, edges, 3)
    assert res.proper is not None
    assert not has_monochromatic_edge(res.proper, edges)


def test_found_colorings_are_proper():
    edges = [(0, 1, 2), (2, 3, 4), (0, 3)]
    res = find_proper_coloring(5, edges, 2)
    assert res.proper is not None and not has_monochromatic_edge(res.proper, edges)


def test_node_cap():
    edges = [tuple(sorted((i, (i + 1) % 12))) for i in range(12)]
    with pytest.raises(ResourceCapExceeded) as exc:
        find_proper_coloring(12, edges, 2, max_nodes=3)
    assert exc.value.stats.nodes == 3


def test_cap_hit_at_a_branch_and_inside_propagation_reports_exact_nodes():
    # two paths of five vertices: the first decision forces its whole path
    # (nodes 1 to 5), the second decision is node 6 and forces nodes 7 to 10
    edges = [(i, i + 1) for i in (0, 1, 2, 3, 5, 6, 7, 8)]
    assert find_proper_coloring(10, edges, 2).stats.nodes == 10
    for cap in (5, 7):  # node 6 is a branch, node 8 is forced inside propagation
        with pytest.raises(ResourceCapExceeded) as exc:
            find_proper_coloring(10, edges, 2, max_nodes=cap)
        assert str(exc.value) == f"coloring search exceeded {cap} nodes"
        assert exc.value.stats == colorsearch.SearchStats(10, 8, cap, 0)


def test_witness_cap_report_carries_the_exact_node_count():
    # (2; chain 2, chain 3, chain 6) holds after 51 nodes, with branches and
    # forced colors among them; every smaller cap stops it, at that cap exactly
    s, t, u = trees.chain(2), trees.chain(3), trees.chain(6)
    vertices, edges = witness._hypergraph("mn", s, t, u)
    assert witness._decide(2, "mn", s, t, u, None).stats.nodes == 51
    for cap in range(51):
        with pytest.raises(ResourceCapExceeded) as exc:
            find_proper_coloring(len(vertices), edges, 2, max_nodes=cap)
        assert exc.value.stats.nodes == cap
        report = witness._decide(2, "mn", s, t, u, cap)
        assert report.verdict == "cap_exceeded" and report.stats == exc.value.stats


@pytest.mark.parametrize("edges", [[], [(1,)], [(0, 1, 2)]])
@pytest.mark.parametrize("engine", [find_proper_coloring, find_proper_coloring_plain])
def test_negative_caps_are_refused(engine, edges, monkeypatch):
    with pytest.raises(ValueError):
        engine(3, edges, 2, max_nodes=-1)
    monkeypatch.setenv("RAMSEY_MAX_NODES", "-2")
    with pytest.raises(ValueError):
        engine(3, edges, 2)
    assert engine(3, edges, 2, max_nodes=5).stats.vertices == 3  # an explicit cap wins
    monkeypatch.delenv("RAMSEY_MAX_NODES")
    if engine is find_proper_coloring:
        with pytest.raises(ValueError):
            engine(3, edges, 2, max_colorings=-1)


def test_zero_caps_stay_valid():
    edges = [(0, 1, 2)]
    for engine in (find_proper_coloring, find_proper_coloring_plain):
        with pytest.raises(ResourceCapExceeded):
            engine(3, edges, 2, max_nodes=0)
    with pytest.raises(ResourceCapExceeded):
        find_proper_coloring(3, edges, 2, max_colorings=0)


def test_colorings_examined_is_the_proper_coloring_found():
    # propagation completes only proper assignments, so the one complete
    # assignment counted is the coloring returned, and a cap of 0 colorings
    # is exceeded exactly when one is found, with the same nodes counted
    rng = random.Random(20)
    found = 0
    for _ in range(3_000):
        n, b = rng.randint(2, 10), rng.randint(2, 3)
        edges = [
            tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
            for _ in range(rng.randint(1, 16))
        ]
        res = find_proper_coloring(n, edges, b)
        assert res.stats.colorings_examined == (res.proper is not None)
        found += res.proper is not None
        if res.proper is None:
            assert find_proper_coloring(n, edges, b, max_colorings=0).stats == res.stats
        else:
            with pytest.raises(ResourceCapExceeded) as exc:
                find_proper_coloring(n, edges, b, max_colorings=0)
            assert str(exc.value) == "coloring search exceeded 0 examined colorings"
            assert exc.value.stats == res.stats
    assert 0 < found < 3_000


def test_forced_colors_count_as_nodes():
    # the first decision forces the rest of the path: one node per vertex, no branching
    edges = [(i, i + 1) for i in range(9)]
    res = find_proper_coloring(10, edges, 2)
    assert res.proper is not None and not has_monochromatic_edge(res.proper, edges)
    assert res.stats.nodes == 10 and res.stats.colorings_examined == 1


def test_long_odd_cycle_holds_without_recursion():
    n = 1501
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    assert find_proper_coloring(n, edges, 2).holds


def test_plain_checker_long_odd_cycle_holds_without_recursion():
    # witness replay re-decides every holds report with the plain checker
    n = 1501
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    res = find_proper_coloring_plain(n, edges, 2)
    assert res.holds


def test_long_path_colored_without_recursion():
    n = 1500
    edges = [(i, i + 1) for i in range(n - 1)]
    res = find_proper_coloring(n, edges, 2)
    assert res.proper is not None and not has_monochromatic_edge(res.proper, edges)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edge_count = draw(st.integers(min_value=0, max_value=6))
    edges = []
    for _ in range(edge_count):
        size = draw(st.integers(min_value=0, max_value=min(4, n)))
        edges.append(tuple(sorted(draw(st.permutations(range(n)))[:size])))
    b = draw(st.integers(min_value=1, max_value=3))
    return n, edges, b


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_engines_agree(case):
    n, edges, b = case
    pruned = find_proper_coloring(n, edges, b)
    plain = find_proper_coloring_plain(n, edges, b)
    table = find_proper_coloring_enumerate(n, edges, b)
    assert pruned.holds == plain.holds == table.holds
    for res in (pruned, plain, table):
        if res.proper is not None:
            assert not has_monochromatic_edge(res.proper, edges)


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_solver_ignores_the_listing_order_of_edges(case, rnd):
    n, edges, b = case
    listed = find_proper_coloring(n, edges, b)
    shuffled = edges[:]
    rnd.shuffle(shuffled)
    for relisted in (shuffled, edges[::-1]):
        res = find_proper_coloring(n, relisted, b)
        assert res.proper == listed.proper and res.stats == listed.stats


def test_engines_agree_on_small_witness_hypergraphs():
    # sealed mode with U of 5 to 7 vertices is where a solver that reverts
    # only part of an assignment's counters goes wrong
    s = trees.chain(2)
    groups = [
        (witness._mn_hypergraph, trees.chain(4)),
        (witness._sealed_hypergraph, trees.tree([None, 0, 1, 1])),
    ]
    for build, t in groups:
        for n in range(1, 8):
            for u in trees.all_trees(n):
                vertices, edges = build(s, t, u)
                for b in (2, 3):
                    solved = find_proper_coloring(len(vertices), edges, b)
                    plain = find_proper_coloring_plain(len(vertices), edges, b)
                    assert solved.holds == plain.holds, (build.__name__, u.parent, b)
                    if solved.proper is not None:
                        assert not has_monochromatic_edge(solved.proper, edges)


def _old_edge_order(edges):
    """The distinct vertex sets of the edges, by size and then sorted elements."""
    return sorted(set(map(frozenset, edges)), key=lambda e: (len(e), sorted(e)))


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_solver_edge_order_is_the_frozenset_order(case):
    _, edges, _ = case  # mixed sizes and duplicates
    assert colorsearch._edge_order(edges) == [tuple(sorted(e)) for e in _old_edge_order(edges)]


def test_solver_edge_order_is_the_frozenset_order_on_witness_hypergraphs():
    # for increasing tuples, sorted(set(...)) and a stable sort by size give the
    # (size, sorted elements) order of the vertex sets, so propagation is unchanged
    s = trees.chain(2)
    for build, t in [
        (witness._mn_hypergraph, trees.chain(4)),
        (witness._sealed_hypergraph, trees.tree([None, 0, 1, 1])),
    ]:
        for n in range(1, 8):
            for u in trees.all_trees(n):
                _, edges = build(s, t, u)
                expected = [tuple(sorted(e)) for e in _old_edge_order(edges)]
                assert colorsearch._edge_order(edges) == expected, (build.__name__, u.parent)


def _increasing_tuple(edge):
    return type(edge) is tuple and all(x < y for x, y in zip(edge, edge[1:]))


def test_every_caller_passes_increasing_tuples(monkeypatch):
    solve = colorsearch.find_proper_coloring
    calls = []

    def checking(n_vertices, edges, b, max_nodes=None, max_colorings=None):
        calls.append(len(edges))
        assert all(map(_increasing_tuple, edges)), [e for e in edges if not _increasing_tuple(e)][:3]
        return solve(n_vertices, edges, b, max_nodes, max_colorings)

    monkeypatch.setattr(colorsearch, "find_proper_coloring", checking)
    monkeypatch.setattr(halesjewett, "find_proper_coloring", checking)
    s = trees.chain(2)
    for n in range(1, 8):
        for u in trees.all_trees(n):
            witness.check_witness_mn(2, s, trees.chain(4), u)
            witness.check_witness_sealed(2, s, trees.tree([None, 0, 1, 1]), u)
    assert len(calls) == 2 * sum(len(trees.all_trees(n)) for n in range(1, 8))
    del calls[:]
    framework.scan_lp_r_consistency(3, 2)
    assert len(calls) >= 50
    del calls[:]
    inputs = [f for n in range(4) for f in trees.all_forests(n)]
    inputs += [t for n in range(1, 4) for t in trees.all_trees(n)]
    for host in inputs:
        try:
            halesjewett.monochromatic_host_search(host, 2, 6)
        except NotFoundWithinBound:
            pass
    assert calls and any(calls)


def _sizes(edges):
    return {len(e) for e in edges}


def test_witness_edges_have_one_size():
    # the solver removes only duplicate edges: no edge of a builder may lie
    # inside another, and equal sizes rule that out
    for s in [s for n in range(1, 4) for s in trees.all_trees(n)]:
        for t in [t for n in range(1, 5) for t in trees.all_trees(n)]:
            mn_size = len(all_rigid_surjections(t, s))  # f -> f o g0 is injective
            sealed_size = sum(len(fs) for _, fs in witness._sealed_families(s, t))
            for u in [u for n in range(1, 7) for u in trees.all_trees(n)]:
                _, mn_edges = witness._mn_hypergraph(s, t, u)
                _, sealed_edges = witness._sealed_hypergraph(s, t, u)
                assert _sizes(mn_edges) <= {mn_size}, (s.parent, t.parent, u.parent)
                assert _sizes(sealed_edges) <= {sealed_size}, (s.parent, t.parent, u.parent)


def test_host_search_edges_have_one_size_and_are_distinct():
    # an embedding is strictly increasing, so it is fixed by its image
    for k in range(1, 4):
        for n in range(k, 7):
            for s in trees.all_trees(k):
                for cand in trees.all_trees(n):
                    edges = [frozenset(e.values[1:]) for e in all_embeddings(s, cand)]
                    assert _sizes(edges) <= {k - 1} and len(set(edges)) == len(edges)
            for s in trees.all_forests(k):
                for cand in trees.all_forests(n):
                    edges = [frozenset(e) for e in halesjewett._forest_embeddings(s, cand)]
                    assert _sizes(edges) <= {k} and len(set(edges)) == len(edges)


def test_framework_rows_have_one_size(monkeypatch):
    # l * r is injective in r, so every row has one item per right factor
    decide = framework._decide_products
    seen = []

    def recording(lefts, rights, b, max_nodes):
        report = decide(lefts, rights, b, max_nodes)
        seen.append(report)
        assert _sizes(report.edges) == {len(rights)}
        return report

    monkeypatch.setattr(framework, "_decide_products", recording)
    framework.scan_lp_r_consistency(3, 2)
    assert len(seen) >= 50


def _search_outcomes():
    """What find_proper_coloring returns, or where it stops at a cap, on seeded hypergraphs.

    Half the cases have edges of one size, half of mixed sizes; either kind
    has an occasional edge of at most one vertex.  b runs over 1 to 3, and a
    third of the cases carry a small node cap.
    """
    rng = random.Random(27)
    outcomes = []
    for i in range(2_000):
        n, b = rng.randint(2, 16), rng.choice((1, 2, 2, 3, 3))
        if i % 2:
            k = rng.randint(1, min(4, n)) if rng.random() < 0.05 else rng.randint(2, min(4, n))
            sizes = [k] * rng.randint(0, 3 * n)
        else:
            sizes = [
                rng.randint(0, 1) if rng.random() < 0.05 else rng.randint(2, min(5, n))
                for _ in range(rng.randint(0, 3 * n))
            ]
        edges = [tuple(sorted(rng.sample(range(n), k))) for k in sizes]
        max_nodes = rng.choice([None, None, rng.randint(0, 60)])
        max_colorings = 0 if rng.random() < 0.1 else None
        try:
            res = find_proper_coloring(n, edges, b, max_nodes, max_colorings)
        except ResourceCapExceeded as exc:
            outcomes.append(("cap", str(exc), exc.stats.nodes, exc.stats.edges))
        else:
            stats = res.stats
            outcomes.append((res.proper, stats.nodes, stats.edges, stats.colorings_examined))
    return outcomes


def test_search_outcomes_are_pinned():
    # every coloring, node count and cap hit of the propagating search on 2,000
    # seeded hypergraphs: a change to the solver's layout must not move one
    outcomes = _search_outcomes()
    caps = sum(o[0] == "cap" for o in outcomes)
    holds = sum(o[0] is None for o in outcomes)
    assert caps and holds and len(outcomes) - caps - holds  # every kind of outcome occurs
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]
    assert digest == "6475242a6a5bef5e"
