import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import trees, witness
from treeramsey.colorsearch import (
    _minimal_edges,
    find_proper_coloring,
    find_proper_coloring_plain,
    has_monochromatic_edge,
)
from treeramsey.errors import ResourceCapExceeded

from _oracles import find_proper_coloring_enumerate


def test_singleton_edge_blocks_everything():
    res = find_proper_coloring(3, [frozenset({1})], 5)
    assert res.holds


def test_empty_edge_blocks_everything():
    assert find_proper_coloring(3, [frozenset()], 2).holds


def test_no_edges_always_properly_colorable():
    res = find_proper_coloring(4, [], 1)
    assert res.proper == (0, 0, 0, 0)


def test_one_color_with_real_edges_holds():
    assert find_proper_coloring(3, [frozenset({0, 1, 2})], 1).holds


@pytest.mark.parametrize("b", [0, -1])
@pytest.mark.parametrize("edges", [[], [frozenset()], [frozenset({1})], [frozenset({0, 1, 2})]])
@pytest.mark.parametrize("engine", [find_proper_coloring, find_proper_coloring_plain])
def test_fewer_than_one_color_is_refused(engine, edges, b):
    with pytest.raises(ValueError):
        engine(3, edges, b)


def test_triangle_of_pairs_needs_three_colors():
    edges = [frozenset(p) for p in [(0, 1), (1, 2), (0, 2)]]
    assert find_proper_coloring(3, edges, 2).holds
    res = find_proper_coloring(3, edges, 3)
    assert res.proper is not None
    assert not has_monochromatic_edge(res.proper, edges)


def test_found_colorings_are_proper():
    edges = [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({0, 3})]
    res = find_proper_coloring(5, edges, 2)
    assert res.proper is not None and not has_monochromatic_edge(res.proper, edges)


def test_node_cap():
    edges = [frozenset({i, (i + 1) % 12}) for i in range(12)]
    with pytest.raises(ResourceCapExceeded):
        find_proper_coloring(12, edges, 2, max_nodes=3)


@pytest.mark.parametrize("edges", [[], [frozenset({1})], [frozenset({0, 1, 2})]])
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
    edges = [frozenset({0, 1, 2})]
    for engine in (find_proper_coloring, find_proper_coloring_plain):
        with pytest.raises(ResourceCapExceeded):
            engine(3, edges, 2, max_nodes=0)
    with pytest.raises(ResourceCapExceeded):
        find_proper_coloring(3, edges, 2, max_colorings=0)


def test_forced_colors_count_as_nodes():
    # the first decision forces the rest of the path: one node per vertex, no branching
    edges = [frozenset({i, i + 1}) for i in range(9)]
    res = find_proper_coloring(10, edges, 2)
    assert res.proper is not None and not has_monochromatic_edge(res.proper, edges)
    assert res.stats.nodes == 10 and res.stats.colorings_examined == 1


def test_long_odd_cycle_holds_without_recursion():
    n = 1501
    edges = [frozenset({i, (i + 1) % n}) for i in range(n)]
    assert find_proper_coloring(n, edges, 2).holds


def test_plain_checker_long_odd_cycle_holds_without_recursion():
    # witness replay re-decides every holds report with the plain checker
    n = 1501
    edges = [frozenset({i, (i + 1) % n}) for i in range(n)]
    res = find_proper_coloring_plain(n, edges, 2)
    assert res.holds


def test_long_path_colored_without_recursion():
    n = 1500
    edges = [frozenset({i, i + 1}) for i in range(n - 1)]
    res = find_proper_coloring(n, edges, 2)
    assert res.proper is not None and not has_monochromatic_edge(res.proper, edges)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edge_count = draw(st.integers(min_value=0, max_value=6))
    edges = []
    for _ in range(edge_count):
        size = draw(st.integers(min_value=0, max_value=min(4, n)))
        edges.append(frozenset(draw(st.permutations(range(n)))[:size]))
    b = draw(st.integers(min_value=1, max_value=3))
    return n, edges, b


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_minimal_edges_are_the_inclusion_minimal_ones(case):
    _, edges, _ = case
    distinct = set(edges)
    expected = {e for e in distinct if not any(k < e for k in distinct)}
    kept = _minimal_edges(edges)
    assert len(kept) == len(set(kept)) and set(kept) == expected


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
