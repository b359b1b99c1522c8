"""Deciding Ramsey witness trees, the classical bridges, and the sealed-to-plain assembly.

A witness question is a finite hypergraph problem: color the maps from the
candidate tree onto the small tree, one edge per composing map, and ask
whether every coloring leaves some edge monochromatic.  Verdicts carry the
counterexample coloring when they fail and are replayable without redoing the
search.

The builders hold value tuples as bytes and read each composite f o g off as
bytes(g).translate(table_f), table_f being f's values padded to 256 bytes;
so S and T may have at most 256 vertices, and larger ones raise
ResourceCapExceeded before anything is enumerated.  Every edge comes out as a
tuple of vertex positions in increasing order, the form colorsearch asks for:
a rigid g has increasing first occurrences, so f -> f o g keeps the
lexicographic order in which the vertices are listed (see _mn_hypergraph).

The sealed hypergraph of U is a stack of per-cut layers, one for each
initial subtree U^c: the layer holds the sealed maps U^c -> S as vertices
and the edges of the sealed g: U^c -> T.  A layer depends on U^c alone, so it
is cached per (S, T, U^c) and shared by every tree with that prefix; its
positions are global for all of them, the offset being the vertex count of
the cuts below (see _sealed_layer).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from . import colorsearch
from .colorsearch import SearchStats
from .enumeration import all_embeddings, all_rigid_surjections, rigid_surjection_values
from .errors import (
    DomainMismatch,
    NotFoundWithinBound,
    NotRigid,
    PrerequisiteFailed,
    ResourceCapExceeded,
    VerificationFailed,
)
from .maps import (
    TreeMap,
    _injection_values,
    compose,
    conjugate_leaf,
    injection_of,
    is_rigid_surjection,
    is_sealed,
    restrict_conjugate,
)
from .trees import OrderedTree, all_trees, chain, initial_subtree

__all__ = [
    "WitnessReport",
    "check_witness_mn",
    "check_witness_sealed",
    "search_witness",
    "replay_report",
    "bridge_prvo",
    "leeb_transport",
    "leeb_contract_check",
    "gr_compatibility",
    "assemble_plus",
    "lift_sealed",
    "assemble_V",
    "derive_mn_from_sealed",
]


@dataclass
class WitnessReport:
    """Outcome of one witness decision.

    mode is "mn" or "sealed"; vertices/edges describe the hypergraph actually
    searched; the counterexample (when failing) colors the vertex list in its
    stated order.
    """

    verdict: str  # holds | fails | cap_exceeded
    b: int
    mode: str
    s: tuple
    t: tuple
    u: tuple
    counterexample: Optional[tuple[int, ...]]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


_BYTE_VALUES = 256  # bytes.translate reads a composite through a 256-entry table


def _check_byte_width(s: OrderedTree, t: OrderedTree) -> None:
    """Refuse S or T with more than 256 vertices, before anything is enumerated.

    The builders hold every value tuple of a map into S or T as bytes, so each
    value must lie below 256.
    """
    if s.n > _BYTE_VALUES or t.n > _BYTE_VALUES:
        raise ResourceCapExceeded(
            f"witness hypergraphs need S and T of at most {_BYTE_VALUES} vertices, "
            f"got {s.n} and {t.n}"
        )


def _tables(fs: Sequence[tuple[int, ...]]) -> list[bytes]:
    """f's values padded to 256 bytes, for each f in fs: g.translate(table) is f o g.

    The padding is never read: g's values are range-checked in its value table
    and cod(g) = dom(f) is checked once per family, so they index f's values.
    """
    return [bytes(fv).ljust(_BYTE_VALUES, b"\0") for fv in fs]


def _mn_hypergraph(
    s: OrderedTree, t: OrderedTree, u: OrderedTree
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Vertices: maps in RS(U, S) by value tuple; one edge per g0 in RS(U, T).

    Each edge lists the positions of f o g0 over f in RS(T, S), in the
    lexicographic order of f, built as one column per f over all g0.  That
    order is increasing: f1 o g0 and f2 o g0 first differ at e(x), the first
    occurrence in g0 of the least x with f1(x) != f2(x), since g0 takes only
    values below x before e(x); so f -> f o g0 keeps the lexicographic order
    in which RS(U, S) is listed.  S or T with more than 256 vertices raises
    ResourceCapExceeded.
    """
    _check_byte_width(s, t)
    vertices = list(rigid_surjection_values(u, s, False))
    pos = {bytes(v): i for i, v in enumerate(vertices)}
    gvs = rigid_surjection_values(u, t, False)
    gs = list(map(bytes, gvs))
    columns = [
        list(map(pos.__getitem__, [g.translate(table) for g in gs]))
        for table in _tables(rigid_surjection_values(t, s, False))
    ]
    del gs  # freed before the edge tuples are made, which lowers the peak memory
    edges = list(zip(*columns)) if columns else [()] * len(gvs)
    return vertices, edges


_SealedFamilies = tuple[tuple[int, OrderedTree, list[bytes]], ...]


@lru_cache(maxsize=None)
def _sealed_families(s: OrderedTree, t: OrderedTree, /) -> _SealedFamilies:
    """(t, T^t, the sealed maps T^t -> S as translate tables) for every vertex t of T
    that has such maps; S or T with more than 256 vertices raises ResourceCapExceeded."""
    _check_byte_width(s, t)
    families = []
    for tv in range(t.n):
        t_cut = initial_subtree(t, tv)
        fs = rigid_surjection_values(t_cut, s, True)
        if fs:
            families.append((tv, t_cut, _tables(fs)))
    return tuple(families)


def _sealed_columns(
    g_dom: OrderedTree,
    g_cod: OrderedTree,
    gvs: Sequence[tuple[int, ...]],
    families: _SealedFamilies,
) -> list[list[list[bytes]]]:
    """The sealed edges of the maps g: g_dom -> g_cod with values in gvs, as
    columns: for each family t and each f of the family, the values of
    f o g^t for every g, as bytes.  A composite on the cut i(t) of g has
    i(t) + 1 values, so its length tells its cut.

    g^t is g cut at its injection i: the restriction to U^{i(t)}, which must
    be onto 0..t (onto T^t); T^t is the prefix 0..t of cod(g), checked
    against each family's domain once.  The injection is verified here, once
    per g, so a g that is not rigid raises NotRigid.  A verified g takes its
    values in increasing order of first occurrence, so a prefix of g is onto
    0..t iff its largest value is t.  Within a family the composites come in
    the lexicographic order of f (see _mn_hypergraph), and the cuts i(t)
    increase with t.
    """
    cod = g_cod.parent
    for tv, t_cut, _ in families:
        if t_cut.parent != cod[: tv + 1]:
            raise DomainMismatch("cod(g) != dom(f)")
    anc = g_dom.anc_mask
    injections = [_injection_values(anc, cod, gv) for gv in gvs]
    if None in injections:
        raise NotRigid(f"{list(gvs[injections.index(None)])} is not a rigid surjection")
    gs = list(map(bytes, gvs))
    columns = []
    for tv, _, tables in families:
        prefixes = [g[: e[tv] + 1] for g, e in zip(gs, injections)]
        for prefix, gv in zip(prefixes, gvs):
            if max(prefix) != tv:
                raise VerificationFailed(
                    f"restriction of {list(gv)} to the initial subtree of {tv} is not onto"
                )
        columns.append([[prefix.translate(table) for prefix in prefixes] for table in tables])
    return columns


class _SealedLayer(NamedTuple):
    """The part of a sealed hypergraph that the top cut c of U adds: the sealed
    maps U^c -> S as vertices, and one edge per sealed g: U^c -> T."""

    vertices: list[tuple[int, tuple[int, ...]]]
    edges: list[tuple[int, ...]]
    positions: tuple[dict[bytes, int], ...]  # per cut 0..c: value bytes -> position
    end: int  # the vertex count of the cuts 0..c


@lru_cache(maxsize=None)
def _sealed_layer(s: OrderedTree, t: OrderedTree, u: OrderedTree, /) -> _SealedLayer:
    """The layer of U's top cut, on top of the layer of its prefix U^{n-2}.

    The vertices of the cuts below c are those of U^{c-1}'s hypergraph, since
    the cuts of U^{c-1} are the cuts of U below c; so every position is global
    for every tree with this prefix, the offset of cut c being the vertex
    count below it.  Each cut keeps its own position map, and the layer only
    refers to the maps below it: a composite f o g^t lies on the cut i(t) <= c.
    """
    c = u.n - 1
    if c:
        below = _sealed_layer(s, t, initial_subtree(u, c - 1))
        offset, positions = below.end, below.positions
    else:
        offset, positions = 0, ()
    tops = rigid_surjection_values(u, s, True)
    positions += ({bytes(values): offset + i for i, values in enumerate(tops)},)
    gvs = rigid_surjection_values(u, t, True)
    columns = [
        [positions[len(x) - 1][x] for x in composites]
        for family in _sealed_columns(u, t, gvs, _sealed_families(s, t))
        for composites in family
    ]
    edges = list(zip(*columns)) if columns else [()] * len(gvs)
    return _SealedLayer([(c, values) for values in tops], edges, positions, offset + len(tops))


def _sealed_hypergraph(
    s: OrderedTree, t: OrderedTree, u: OrderedTree
) -> tuple[list[tuple[int, tuple[int, ...]]], list[tuple[int, ...]]]:
    """Vertices: sealed maps from every initial subtree of U onto S, keyed by
    (cut, values) and listed cut by cut; one edge per cut v0 and sealed
    g: U^{v0} -> T, collecting f o g^t over t in T and sealed f: T^t -> S.

    The hypergraph is the concatenation of one cached layer per cut (see
    _sealed_layer), built from the lowest cut up, so that each layer finds
    the one below it cached.  Each edge lists positions in increasing order:
    composites on a larger cut come later in the vertex list, the cuts i(t)
    increase with t, and within one cut f -> f o g^t keeps the lexicographic
    order (see _mn_hypergraph).  S or T with more than 256 vertices raises
    ResourceCapExceeded before any layer is built.
    """
    _check_byte_width(s, t)
    layers = [_sealed_layer(s, t, initial_subtree(u, c)) for c in range(u.n)]
    vertices = [vertex for layer in layers for vertex in layer.vertices]
    edges = [edge for layer in layers for edge in layer.edges]
    return vertices, edges


def _hypergraph(
    mode: str, s: OrderedTree, t: OrderedTree, u: OrderedTree
) -> tuple[list, list[tuple[int, ...]]]:
    """The hypergraph a decision in this mode searches: mn, or else sealed."""
    build = _mn_hypergraph if mode == "mn" else _sealed_hypergraph
    return build(s, t, u)


def _decide(
    b: int,
    mode: str,
    s: OrderedTree,
    t: OrderedTree,
    u: OrderedTree,
    max_nodes: Optional[int],
    max_colorings: Optional[int] = None,
) -> WitnessReport:
    vertices, edges = _hypergraph(mode, s, t, u)
    try:
        result = colorsearch.find_proper_coloring(
            len(vertices), edges, b, max_nodes=max_nodes, max_colorings=max_colorings
        )
    except ResourceCapExceeded as exc:
        return WitnessReport(
            "cap_exceeded", b, mode, s.parent, t.parent, u.parent, None,
            exc.stats,  # how far the search got
        )
    verdict = "holds" if result.holds else "fails"
    return WitnessReport(
        verdict, b, mode, s.parent, t.parent, u.parent, result.proper,
        result.stats,
    )


def check_witness_mn(
    b: int,
    s: OrderedTree,
    t: OrderedTree,
    u: OrderedTree,
    max_nodes: Optional[int] = None,
    max_colorings: Optional[int] = None,
) -> WitnessReport:
    """Does every b-coloring of RS(U, S) admit g0 in RS(U, T) with {f o g0} monochromatic?"""
    return _decide(b, "mn", s, t, u, max_nodes, max_colorings)


def check_witness_sealed(
    b: int,
    s: OrderedTree,
    t: OrderedTree,
    u: OrderedTree,
    max_nodes: Optional[int] = None,
    max_colorings: Optional[int] = None,
) -> WitnessReport:
    """Sealed variant: colorings of sealed maps from initial subtrees of U onto S,
    edges indexed by (v0, sealed g: U^{v0} -> T) collecting the f o g^t."""
    return _decide(b, "sealed", s, t, u, max_nodes, max_colorings)


def replay_report(report: WitnessReport) -> bool:
    """Re-verify a report without find_proper_coloring.

    fails: the stored coloring must use only the colors 0..b-1 and leave
    every edge polychromatic.  holds: re-decided by the plain checker (there
    is no succinct certificate).  cap_exceeded: nothing to replay.
    """
    s, t, u = (OrderedTree(tuple(x)) for x in (report.s, report.t, report.u))
    vertices, edges = _hypergraph(report.mode, s, t, u)
    if report.verdict == "fails":
        cex = report.counterexample
        if cex is None or len(cex) != len(vertices) or any(not 0 <= c < report.b for c in cex):
            return False
        return not colorsearch.has_monochromatic_edge(cex, edges)
    if report.verdict == "holds":
        return colorsearch.find_proper_coloring_plain(len(vertices), edges, report.b).holds
    return True


def _decide_candidate(job: tuple) -> WitnessReport:
    """One search_witness decision; module level so worker processes can run it."""
    return _decide(*job)


def search_witness(
    b: int,
    s: OrderedTree,
    t: OrderedTree,
    mode: str = "mn",
    max_vertices: int = 8,
    max_nodes: Optional[int] = None,
    max_colorings: Optional[int] = None,
    jobs: int = 1,
) -> tuple[OrderedTree, WitnessReport]:
    """First tree in enumeration order (chains only in chain mode) passing the check.

    With jobs > 1 (at most the cpu count) the candidates of each size are
    decided in that many worker processes; the first holding candidate in
    enumeration order wins, so the result is the same for every jobs value.
    """
    if mode not in ("mn", "sealed", "chain"):
        raise ValueError("mode must be mn, sealed or chain")
    decide_mode = "sealed" if mode == "sealed" else "mn"
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    pool = None
    if jobs > 1:
        # imported here so that single-process searches load no pool machinery;
        # spawned workers inherit no threads or locks from this process
        import concurrent.futures
        import multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        )
    try:
        for n in range(1, max_vertices + 1):
            candidates = [chain(n)] if mode == "chain" else all_trees(n)
            decisions = [(b, decide_mode, s, t, u, max_nodes, max_colorings) for u in candidates]
            reports = (pool.map if pool else map)(_decide_candidate, decisions)
            for u, rep in zip(candidates, reports):
                if rep.verdict == "cap_exceeded":
                    raise ResourceCapExceeded(
                        f"candidate with {u.n} vertices hit the node cap; result inconclusive"
                    )
                if rep.holds:
                    return u, rep
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    raise NotFoundWithinBound(f"no witness tree with at most {max_vertices} vertices")


# ---------------------------------------------------------------------------
# bridges to the two classical statements


def bridge_prvo(values: Sequence[int], n: int, k: int) -> tuple[bool, bool]:
    """(surjective growth-by-one test, tree-definition test) for a map of chains.

    The first verdict checks surjectivity plus f(y) <= 1 + max of f below y
    (empty max reading -1, so f(0) = 0); the second classifies the same values
    as a map between chain trees.  The two agree.
    """
    if len(values) != n:
        raise ValueError("value tuple length differs from the domain size")
    prvo = len(set(values)) == k and all(0 <= v < k for v in values)
    best = -1
    if prvo:
        for v in values:
            if v > best + 1:
                prvo = False
                break
            best = max(best, v)
    tree_verdict = is_rigid_surjection(TreeMap(chain(n), chain(k), tuple(values)))
    return prvo, tree_verdict


def leeb_transport(
    s: OrderedTree, u: OrderedTree, emb_coloring: Sequence[int]
) -> list[int]:
    """Color each rigid surjection U -> S by the color of its injection."""
    embeddings = all_embeddings(s, u)
    if len(emb_coloring) != len(embeddings):
        raise ValueError("coloring length differs from the number of embeddings")
    color_of = {e.values: c for e, c in zip(embeddings, emb_coloring)}
    return [color_of[injection_of(f).values] for f in all_rigid_surjections(u, s)]


def leeb_contract_check(
    s: OrderedTree,
    t: OrderedTree,
    u: OrderedTree,
    emb_coloring: Sequence[int],
    g0: TreeMap,
) -> bool:
    """If {f o g0} is monochromatic under the transported coloring then
    {e0 o d : d an embedding S -> T} is monochromatic under the original."""
    transported = leeb_transport(s, u, emb_coloring)
    rs_index = {m.values: i for i, m in enumerate(all_rigid_surjections(u, s))}
    edge_colors = {
        transported[rs_index[compose(f, g0).values]] for f in all_rigid_surjections(t, s)
    }
    if len(edge_colors) > 1:
        return True  # nothing to check
    e0 = injection_of(g0)
    emb_index = {e.values: i for i, e in enumerate(all_embeddings(s, u))}
    derived = {
        emb_coloring[emb_index[compose(e0, d).values]] for d in all_embeddings(s, t)
    }
    return len(derived) <= 1 and (not derived or derived <= edge_colors)


def gr_compatibility(u: OrderedTree, l: int) -> bool:
    """Every rigid surjection from the tree U onto the chain [l] is one from the
    linear order (U, <=) onto [l] as well."""
    flat = chain(u.n)
    return all(
        is_rigid_surjection(TreeMap(flat, chain(l), f.values))
        for f in all_rigid_surjections(u, chain(l))
    )


# ---------------------------------------------------------------------------
# the sealed-to-plain assembly


def assemble_plus(s: OrderedTree) -> tuple[OrderedTree, int]:
    """S+ : one extra vertex, an immediate successor of the root and the largest."""
    return OrderedTree(s.parent + (0,)), s.n


def lift_sealed(f: TreeMap) -> TreeMap:
    """Extend a rigid surjection T -> S to the sealed map T+ -> S+ sending top to top.

    The old top of T is conjugate to the old top of S through the lift, and
    truncating the lift along that pair gives f back; both are verified.
    """
    s_plus, s_new = assemble_plus(f.cod)
    t_plus, _ = assemble_plus(f.dom)
    lifted = TreeMap(t_plus, s_plus, f.values + (s_new,))
    if not is_sealed(lifted):
        raise VerificationFailed(f"the lift {lifted.values} is not sealed")
    old_top_s = f.cod.n - 1
    if old_top_s in s_plus.leaves:  # degenerate for one-vertex codomains (old top = root)
        if conjugate_leaf(injection_of(lifted), old_top_s) != f.dom.n - 1:
            raise VerificationFailed("the old tops are not conjugate through the lift")
        back = restrict_conjugate(lifted, old_top_s)
        if back.values != f.values or back.dom != f.dom or back.cod != f.cod:
            raise VerificationFailed("truncating the lift does not give the map back")
    return lifted


@dataclass
class Assembly:
    """V = 1 + (disjoint union of the rootless initial subtrees at each leaf),
    with the collapse maps onto each U^y."""

    tree: OrderedTree
    leaves: tuple[int, ...]  # leaves of U, in order
    projections: dict[int, TreeMap]  # y -> pi_y : V -> U^y
    inclusions: dict[int, TreeMap]  # y -> U^y -> V


def assemble_V(u: OrderedTree) -> Assembly:
    leaves = u.leaves
    parent: list[Optional[int]] = [None]
    offsets: dict[int, int] = {}
    for y in leaves:
        offsets[y] = len(parent)
        for i in range(1, y + 1):
            p = u.parent[i]
            parent.append(0 if p == 0 else offsets[y] + p - 1)
    v_tree = OrderedTree(tuple(parent))
    projections = {}
    inclusions = {}
    for y in leaves:
        vals = [0] * v_tree.n
        base = offsets[y]
        for i in range(1, y + 1):
            vals[base + i - 1] = i
        pi = TreeMap(v_tree, initial_subtree(u, y), tuple(vals))
        inc = TreeMap(
            initial_subtree(u, y), v_tree, (0,) + tuple(range(base, base + y))
        )
        if injection_of(pi) != inc:  # rigid, with the inclusion as injection
            raise VerificationFailed(f"the projection onto U^{y} does not have the inclusion as injection")
        projections[y] = pi
        inclusions[y] = inc
    return Assembly(v_tree, leaves, projections, inclusions)


def transport_through_projections(
    assembly: Assembly, coloring: dict[tuple[int, ...], int], s: OrderedTree
) -> dict[tuple[int, tuple[int, ...]], int]:
    """From a coloring of RS(V, S) to one of the RS(U^y, S), keyed (y, values)."""
    out = {}
    for y, pi in assembly.projections.items():
        for f in all_rigid_surjections(pi.cod, s):
            out[(y, f.values)] = coloring[compose(f, pi).values]
    return out


def transport_through_conjugates(
    u: OrderedTree,
    s_plus: OrderedTree,
    base: dict[tuple[int, tuple[int, ...]], int],
) -> Callable[[int, tuple[int, ...]], int]:
    """From a coloring of the RS(U^y, S), y a leaf, to one of the sealed maps from
    initial subtrees of U onto S+ (default color 0 off the leaf family)."""
    old_top = s_plus.n - 2

    def color(cut: int, values: tuple[int, ...]) -> int:
        h = TreeMap(initial_subtree(u, cut), s_plus, values)
        hs = restrict_conjugate(h, old_top)
        return base.get((hs.dom.n - 1, hs.values), 0)

    return color


def derive_mn_from_sealed(
    b: int,
    s: OrderedTree,
    t: OrderedTree,
    sealed_witness: OrderedTree,
    max_nodes: Optional[int] = None,
) -> tuple[OrderedTree, WitnessReport]:
    """Assemble a plain witness for (b, S, T) out of a sealed witness for (b, S+, T+).

    The preliminary sealed check must pass, else PrerequisiteFailed; the
    assembled tree is then decided by check_witness_mn and returned with its
    report.
    """
    s_plus, _ = assemble_plus(s)
    t_plus, _ = assemble_plus(t)
    pre = check_witness_sealed(b, s_plus, t_plus, sealed_witness, max_nodes=max_nodes)
    if not pre.holds:
        raise PrerequisiteFailed(
            f"tree is not a sealed witness for the extended pair (verdict {pre.verdict})"
        )
    assembly = assemble_V(sealed_witness)
    report = check_witness_mn(b, s, t, assembly.tree, max_nodes=max_nodes)
    return assembly.tree, report


def derivation_intermediates(
    b: int,
    s: OrderedTree,
    t: OrderedTree,
    sealed_witness: OrderedTree,
    coloring: dict[tuple[int, ...], int],
) -> dict:
    """Expose the constructive chain for one coloring of RS(V, S).

    Transports the coloring through the projections and the conjugate-leaf
    truncation, scans the sealed hypergraph for a monochromatic full-domain
    edge (v0 = top), and when one exists returns g+ together with g = (g+)_top
    and the final g o pi_{y0}.  Diagnostic only; the assembled tree's witness
    property is decided independently by check_witness_mn.
    """
    u = sealed_witness
    s_plus, _ = assemble_plus(s)
    t_plus, _ = assemble_plus(t)
    assembly = assemble_V(u)
    leaf_coloring = transport_through_projections(assembly, coloring, s)
    sealed_color = transport_through_conjugates(u, s_plus, leaf_coloring)
    out = {
        "assembly": assembly,
        "leaf_coloring": leaf_coloring,
        "g_plus": None,
        "g": None,
        "g_final": None,
    }
    old_top_t = t_plus.n - 2
    families = _sealed_families(s_plus, t_plus)
    for values in rigid_surjection_values(u, t_plus, True):
        colors = {
            sealed_color(len(composite) - 1, tuple(composite))
            for family in _sealed_columns(u, t_plus, [values], families)
            for [composite] in family
        }
        if len(colors) <= 1:
            g_plus = TreeMap(u, t_plus, values)
            g = restrict_conjugate(g_plus, old_top_t)
            y0 = g.dom.n - 1
            if y0 in assembly.projections:
                out["g_plus"] = g_plus
                out["g"] = g
                out["g_final"] = compose(g, assembly.projections[y0])
                return out
    return out
