"""Search for colorings in which no edge of a hypergraph is monochromatic.

Every Ramsey-style decision in this package reduces to the same question:
given items (hypergraph vertices) and candidate monochromatic sets (edges),
does every b-coloring leave some edge monochromatic?  Equivalently: is there a
"proper" coloring, one in which every edge sees at least two colors?  The
verdict "holds" means no proper coloring exists.

An edge is a tuple of vertex indices in strictly increasing order, so each
edge is its own sorted vertex set.  The witness builders produce that form by
the order argument in the witness module, the framework sorts its rows, and a
host embedding is increasing.  find_proper_coloring orders the distinct
edges by size and then lexicographically, with sorted(dict.fromkeys(edges))
and a stable sort by length; the dict drops duplicates but keeps the
listing, which the builders give partly sorted already, so the sort has runs
to merge.  On increasing tuples that is the order of the vertex sets by
(size, sorted elements), so the propagation order and the node counts depend
on the hypergraph only, not on how a caller lists its edges.  An edge
that is not a tuple raises TypeError: frozensets, say, would be sorted by
the subset order, and that order depends on the listing.

find_proper_coloring takes the hypergraph as built: it only removes duplicate
edges.  No library hypergraph has an edge inside another, because all of its
edges have the same size.  A witness edge {f∘g0 : f ∈ RS(T, S)} has |RS(T, S)|
elements, since g0 is onto and so f ↦ f∘g0 is injective; a sealed edge has one
element per cut e(t), since the cuts are distinct and g^t is onto; a host
embedding is strictly increasing, so it is fixed by its image; and a framework
row l*r is injective in r.  A superset edge from a direct caller costs only
counter updates: its subset edge always propagates first, or conflicts.  The
solver searches by backtracking with unit propagation, on an explicit stack
rather than by recursion:

- every vertex keeps a domain, the bitmask of the colors it may still take;
- one counter list per color holds, for every edge, how many of its
  vertices besides one still lack that color, so an assignment of color c
  reads the list of c once and then indexes it by edge; at 0 a scan of the
  edge finds its one vertex without color c, and below 0 the edge is fully
  colored with c;
- when an edge has one unassigned vertex left and all its other vertices
  have color c, c leaves that vertex's domain; a one-color domain forces the
  vertex, and an empty domain (or a fully colored monochromatic edge) is a
  conflict;
- the search branches on the first unassigned vertex in a static
  most-constrained-first order (vertices on many small edges first), tries
  the colors of its domain in turn, and pins color 0 on the first decision.
  The order is by descending weight, the sum of 1/|e| over the edges e of the
  vertex, and then by index.  When all edges have one size, as in every
  library hypergraph, that is the order by descending degree, computed
  without floats; float weights are summed only for mixed sizes;
- a trail of assignments and domain changes undoes a refuted branch.

stats.nodes counts assignments, branched and forced alike; rather than make
more than max_nodes of them the search raises ResourceCapExceeded carrying its
stats.  stats.colorings_examined counts complete assignments, which the
propagation only ever reaches with a proper coloring.

find_proper_coloring is the one engine: the witness and framework decisions
and the monochromatic host search all call it.  find_proper_coloring_plain,
a plain depth-first checker that shares none of these devices, re-decides
"holds" reports on replay and is the independent oracle the solver is tested
against, with the literal enumerator kept among the tests' oracles.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from ._record import Record
from .errors import ResourceCapExceeded

DEFAULT_MAX_NODES = 50_000_000


def max_nodes_default() -> int:
    env = os.environ.get("RAMSEY_MAX_NODES")
    return int(env) if env else DEFAULT_MAX_NODES


def _node_cap(max_nodes: Optional[int]) -> int:
    """max_nodes, or the RAMSEY_MAX_NODES default; a negative cap raises ValueError."""
    cap = max_nodes if max_nodes is not None else max_nodes_default()
    if cap < 0:
        raise ValueError(f"node cap must be >= 0, got {cap}")
    return cap


class SearchStats(Record):
    _fields = ("vertices", "edges", "nodes", "colorings_examined")

    def __init__(
        self, vertices: int = 0, edges: int = 0, nodes: int = 0, colorings_examined: int = 0
    ):
        self.vertices = vertices
        self.edges = edges  # distinct edges
        self.nodes = nodes  # color assignments, branched or forced
        self.colorings_examined = colorings_examined  # complete assignments


class SearchResult(Record):
    """proper is a coloring with no monochromatic edge, or None if none exists."""

    _fields = ("proper", "stats")

    def __init__(self, proper: Optional[tuple[int, ...]], stats: Optional[SearchStats] = None):
        self.proper = proper
        self.stats = SearchStats() if stats is None else stats

    @property
    def holds(self) -> bool:
        return self.proper is None


def has_monochromatic_edge(coloring: Sequence[int], edges: Sequence[Sequence[int]]) -> bool:
    for e in edges:
        colors = {coloring[v] for v in e}
        if len(colors) <= 1:  # empty and singleton edges are monochromatic
            return True
    return False


def _edge_order(edges: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct edges by size, then lexicographically."""
    ordered = sorted(dict.fromkeys(edges))  # the listing's sorted runs survive a dict, not a set
    ordered.sort(key=len)
    return ordered


def find_proper_coloring(
    n_vertices: int,
    edges: Sequence[tuple[int, ...]],
    b: int,
    max_nodes: Optional[int] = None,
    max_colorings: Optional[int] = None,
) -> SearchResult:
    """Propagating backtracking search for a coloring with every edge non-monochromatic.

    max_nodes caps assignments, max_colorings caps complete assignments;
    exceeding either raises ResourceCapExceeded with the stats so far.  The
    search reaches at most one complete assignment, the proper coloring it
    returns, so only max_colorings = 0 can be exceeded.  A
    color count b below 1 or a negative cap raises ValueError, and an edge
    that is not a tuple raises TypeError.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    cap = _node_cap(max_nodes)
    if max_colorings is not None and max_colorings < 0:
        raise ValueError(f"coloring cap must be >= 0, got {max_colorings}")
    if not set(map(type, edges)) <= {tuple}:
        raise TypeError("edges must be tuples of vertex indices in increasing order")
    # The order fixes the propagation order, so node counts do not depend on
    # how a builder lists its edges.
    edges = _edge_order(edges)
    stats = SearchStats(vertices=n_vertices, edges=len(edges))
    if not edges:
        stats.colorings_examined = 1
        return SearchResult(tuple([0] * n_vertices), stats)
    if len(edges[0]) <= 1:  # the smallest edge comes first
        return SearchResult(None, stats)  # an edge of at most one vertex is always monochromatic
    if b == 1:
        stats.colorings_examined = 1
        return SearchResult(None, stats)

    # Static most-constrained-first order: vertices on many (small) edges first.
    incident: list[list[int]] = [[] for _ in range(n_vertices)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    if len(edges[0]) == len(edges[-1]):
        # One edge size k: the weight of a vertex of degree d, d additions of
        # 1/k, rises strictly with d and is bit-equal for equal d, so the
        # degree alone orders the vertices (the sort is stable in v).
        order = sorted(range(n_vertices), key=lambda v: -len(incident[v]))
    else:
        weight = [0.0] * n_vertices
        for e in edges:
            w = 1.0 / len(e)
            for v in e:
                weight[v] += w
        order = sorted(range(n_vertices), key=lambda v: (-weight[v], v))

    # short[c][i]: how many vertices of edge i besides one lack color c; at 0
    # all vertices but one have color c, at -1 all of them do
    short = [[len(e) - 1 for e in edges] for _ in range(b)]
    domain = [(1 << b) - 1] * n_vertices
    colors = [-1] * n_vertices
    assigned: list[int] = []  # trail of assigned vertices
    narrowed: list[tuple[int, int]] = []  # trail of (vertex, domain before a removal)
    nodes = 0  # written to stats.nodes before every return and every cap hit

    def assign(v: int, c: int) -> bool:
        """Color v with c, then every vertex this forces; False on a conflict."""
        nonlocal nodes
        pending = [(v, c)]
        while pending:
            v, c = pending.pop()
            if nodes >= cap:
                stats.nodes = nodes
                raise ResourceCapExceeded(f"coloring search exceeded {cap} nodes", stats)
            nodes += 1
            colors[v] = c
            assigned.append(v)
            bit = 1 << c
            lack = short[c]
            ok = True
            for i in incident[v]:  # every counter of v is updated, so undo can revert them all
                rest = lack[i] - 1
                lack[i] = rest
                if rest <= 0 and ok:
                    if rest:
                        ok = False  # fully colored and monochromatic
                        continue
                    for u in edges[i]:  # the one vertex of the edge without color c
                        if colors[u] != c:
                            break
                    if colors[u] >= 0:
                        continue  # it has another color
                    d = domain[u]
                    if d & bit:
                        narrowed.append((u, d))
                        d ^= bit
                        domain[u] = d
                        if not d:
                            ok = False
                        elif not d & (d - 1):
                            pending.append((u, d.bit_length() - 1))
            if not ok:
                return False
        return True

    def undo(n_assigned: int, n_narrowed: int) -> None:
        while len(assigned) > n_assigned:
            v = assigned.pop()
            lack = short[colors[v]]
            colors[v] = -1
            for i in incident[v]:
                lack[i] += 1
        while len(narrowed) > n_narrowed:
            u, d = narrowed.pop()
            domain[u] = d

    decisions: list[list[int]] = []  # [vertex, untried colors, trail lengths, order position]
    pos = 0
    while True:
        while pos < n_vertices and colors[order[pos]] >= 0:
            pos += 1
        if pos == n_vertices:
            # propagation completes only proper assignments: this is the one examined
            stats.nodes = nodes
            stats.colorings_examined = 1
            if max_colorings == 0:
                raise ResourceCapExceeded(
                    f"coloring search exceeded {max_colorings} examined colorings", stats
                )
            return SearchResult(tuple(colors), stats)
        v = order[pos]
        options = domain[v] if decisions else 1  # pin color 0 on the first decision
        c = (options & -options).bit_length() - 1
        decisions.append([v, options ^ (1 << c), len(assigned), len(narrowed), pos])
        while not assign(v, c):
            while decisions and not decisions[-1][1]:
                decisions.pop()
            if not decisions:
                stats.nodes = nodes
                return SearchResult(None, stats)
            decision = decisions[-1]
            v, options, n_assigned, n_narrowed, pos = decision
            undo(n_assigned, n_narrowed)
            c = (options & -options).bit_length() - 1
            decision[1] = options ^ (1 << c)


def find_proper_coloring_plain(
    n_vertices: int,
    edges: Sequence[Sequence[int]],
    b: int,
    max_nodes: Optional[int] = None,
) -> SearchResult:
    """Straightforward checker: vertex order 0..n-1, no dedup, no pinning, no ordering.

    Complete and independent of find_proper_coloring; a branch is abandoned only
    when a fully assigned edge is monochromatic.  The depth-first search keeps
    its state in colors alone (the color tried at each level), so it needs no
    recursion at any size.  A color count b below 1 or a negative cap raises
    ValueError.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    cap = _node_cap(max_nodes)
    stats = SearchStats(vertices=n_vertices, edges=len(edges))
    edge_list = [tuple(sorted(e)) for e in edges]
    if any(len(e) <= 1 for e in edge_list):
        return SearchResult(None, stats)
    by_last = [[] for _ in range(n_vertices)]
    for e in edge_list:
        by_last[e[-1]].append(e)
    if not edge_list:
        stats.colorings_examined = 1
        return SearchResult(tuple([0] * n_vertices), stats)
    colors = [-1] * n_vertices

    def check_cap() -> None:  # before the search enters each level
        if stats.nodes >= cap:
            raise ResourceCapExceeded(f"plain coloring search exceeded {cap} nodes")

    check_cap()
    v = 0
    while v >= 0:
        c = colors[v] + 1  # the next color at this level
        if c == b:
            colors[v] = -1
            v -= 1
            continue
        stats.nodes += 1
        if v == n_vertices - 1:
            stats.colorings_examined += 1
        colors[v] = c
        if not any(
            all(colors[u] == colors[e[0]] for u in e) for e in by_last[v]
        ):
            check_cap()
            if v == n_vertices - 1:
                return SearchResult(tuple(colors), stats)
            v += 1
    return SearchResult(None, stats)

