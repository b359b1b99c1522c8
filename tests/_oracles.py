"""Independent oracles used to freeze expected values: kept free of the library's
search/enumeration code paths so cross-checks mean something."""

import itertools
from functools import lru_cache


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Set partitions of an n-set into k blocks, by the standard recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if k in (0, n):
        return 1
    return binom(n - 1, k - 1) + binom(n - 1, k)


def catalan(n: int) -> int:
    return binom(2 * n, n) // (n + 1)


def rightmost_path_violation(parent):
    """The first vertex whose parent is not on the rightmost path, or None.

    Climbs from vertex i to the root looking for parent[i + 1]: index order
    is preorder iff every vertex attaches to the path from the root to the
    vertex just before it.  Expects parent[i] < i for every i >= 1.
    """
    for i in range(1, len(parent) - 1):
        p, v = parent[i + 1], i
        while v is not None and v != p:
            v = parent[v]
        if v != p:
            return i + 1
    return None


def tree_tables_by_recurrence(parent):
    """Ancestor masks, 1-based heights and leaves of a canonical parent array,
    each by its own recurrence over the parent links."""
    n = len(parent)
    masks, heights, has_child = [0] * n, [0] * n, [False] * n
    for i, p in enumerate(parent):
        masks[i] = (1 << i) | (masks[p] if p is not None else 0)
        heights[i] = 1 + (heights[p] if p is not None else 0)
        if p is not None:
            has_child[p] = True
    return tuple(masks), tuple(heights), tuple(v for v in range(n) if not has_child[v])


def definitional_positions(parent) -> list[int]:
    """Rank every vertex by the two-clause lexicographic definition alone.

    Uses only predecessor chains and pairwise comparisons; no preorder
    machinery, so it is an independent check of the canonical numbering.
    """
    n = len(parent)

    def chain(v):
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return list(reversed(out))

    def less(v, w):
        if v == w:
            return False
        cv, cw = chain(v), chain(w)
        if v in cw:
            return True
        if w in cv:
            return False
        depth = 0
        while cv[depth] == cw[depth]:
            depth += 1
        return cv[depth] < cw[depth]  # sibling order is id order

    ranks = []
    for v in range(n):
        ranks.append(sum(1 for w in range(n) if less(w, v)))
    return ranks


def definitional_point_flags(parent, a, p, q_pos, t_pos, s_vertex, word):
    """(leading, good, very good) of the point (s_vertex, word) under the word map p.

    p is the full value tuple over A + (Q x I); q_pos and t_pos map (vertex,
    word) to positions in Q and in S x I.  A point is leading when p hits its
    block's target there and nowhere earlier in the block, good when p hits
    the target there and every proper prefix point is leading, and very good
    when it is itself leading as well.
    """

    def hits(sv, w):
        return p[a + t_pos[(sv, w)]] == a + q_pos[(sv, w[:-1])]

    def leading(sv, w):
        return hits(sv, w) and not any(hits(sv, w[:-1] + (j,)) for j in range(w[-1]))

    path = [s_vertex]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    prefixes = all(leading(sv, word[: k + 1]) for k, sv in enumerate(path[:-1]))
    own = leading(s_vertex, word)
    return own, hits(s_vertex, word) and prefixes, own and prefixes


def _conclusion_holds(p_tuple, a_sizes, l_sizes, i, color_of) -> bool:
    """The word lemma's conclusion, read off its definition: under color_of the
    colors of (r1 o p1^x, r2 o p2, ..., rn o pn) depend only on the cut x.

    r1 is a sealed word cut at x, so r1 o p1^x is p1 cut at the first hit of
    block x with every letter below renamed by r1; the later r's rename every
    letter of their p.  The objects are built here, not by the library's
    composition helpers.
    """
    from treeramsey.halesjewett import SealedWord

    def renamed(word, a, r_vals):
        return tuple(v if v < a else r_vals[v - a] for v in word)

    a0, p0 = a_sizes[0], p_tuple[0]
    later = [
        [
            renamed(p_tuple[k][a_sizes[k]:], a_sizes[k], rv)
            for rv in itertools.product(range(a_sizes[k]), repeat=l_sizes[k])
        ]
        for k in range(1, len(a_sizes))
    ]
    for x in range(l_sizes[0]):
        cut = next(j for j in range(x * i, (x + 1) * i) if p0[a0 + j] == a0 + x)
        colors = {
            color_of[(SealedWord(cut, renamed(p0[a0 : a0 + cut], a0, r_vals)), *rest)]
            for r_vals in itertools.product(range(a0), repeat=x)
            for rest in itertools.product(*later)
        }
        if len(colors) > 1:
            return False
    return True


def find_proper_coloring_enumerate(n_vertices, edges, b):
    """The first coloring in counting order that leaves no edge monochromatic,
    found by literal enumeration of all b^n colorings; only for small n."""
    from treeramsey.colorsearch import SearchResult

    if b**n_vertices > 2**22:
        raise ValueError("full coloring table too large to enumerate")
    for coloring in itertools.product(range(b), repeat=n_vertices):
        if all(len({coloring[v] for v in e}) > 1 for e in edges):
            return SearchResult(coloring)
    return SearchResult(None)


def monochromatic_host_by_enumeration(s, b, max_size):
    """The first forest/tree, by vertex count and enumeration order, on which
    every b-coloring (first vertex pinned) leaves some embedded copy of s
    monochromatic (off the root, in the tree case); None past max_size.

    The candidates and embeddings come from the library; every coloring is
    enumerated literally.
    """
    from treeramsey import halesjewett as hj
    from treeramsey.enumeration import all_embeddings
    from treeramsey.trees import OrderedTree, all_forests, all_trees

    tree_mode = isinstance(s, OrderedTree)
    for n in range(s.n, max_size + 1):
        for cand in all_trees(n) if tree_mode else all_forests(n):
            if tree_mode:
                mono_sets = [e.values[1:] for e in all_embeddings(s, cand)]
            else:
                mono_sets = hj._forest_embeddings(s, cand)
            if not mono_sets:
                continue
            colorings = itertools.product(*(range(b if v else 1) for v in range(cand.n)))
            if all(
                any(len({coloring[v] for v in ms}) <= 1 for ms in mono_sets)
                for coloring in colorings
            ):
                return cand
    return None


def mn_hypergraph_by_compose(s, t, u):
    """The mn witness hypergraph with one composed TreeMap per (f, g0) pair:
    vertices RS(U, S) by value tuple, one edge {f o g0 : f in RS(T, S)} per
    g0 in RS(U, T)."""
    from treeramsey.enumeration import all_rigid_surjections
    from treeramsey.maps import compose

    vertices = [m.values for m in all_rigid_surjections(u, s)]
    pos = {v: i for i, v in enumerate(vertices)}
    fs = all_rigid_surjections(t, s)
    edges = []
    for g0 in all_rigid_surjections(u, t):
        edges.append(frozenset(pos[compose(f, g0).values] for f in fs))
    return vertices, edges


def sealed_hypergraph_by_compose(s, t, u):
    """The sealed witness hypergraph with one composed TreeMap per (f, g^t) pair:
    vertices (cut, values) of the sealed maps U^cut -> S, one edge per cut v0
    and sealed g: U^v0 -> T collecting f o g^t over t in T and sealed
    f: T^t -> S."""
    from treeramsey.enumeration import all_rigid_surjections
    from treeramsey.maps import compose, restrict_initial
    from treeramsey.trees import initial_subtree

    vertices = []
    pos = {}
    for v in range(u.n):
        for m in all_rigid_surjections(initial_subtree(u, v), s, sealed=True):
            pos[(v, m.values)] = len(vertices)
            vertices.append((v, m.values))
    sealed_fs = {
        tv: all_rigid_surjections(initial_subtree(t, tv), s, sealed=True) for tv in range(t.n)
    }
    edges = []
    for v0 in range(u.n):
        for g in all_rigid_surjections(initial_subtree(u, v0), t, sealed=True):
            edge = set()
            for tv in range(t.n):
                if not sealed_fs[tv]:
                    continue
                g_t = restrict_initial(g, tv)
                for f in sealed_fs[tv]:
                    comp = compose(f, g_t)
                    edge.add(pos[(comp.dom.n - 1, comp.values)])
            edges.append(frozenset(edge))
    return vertices, edges


def tensor_by_recursion(s, k):
    """The points of S x I (forest vertex, word) in the preorder of the fan-out,
    letter successor first, fan-out successors ascending in S, and the parent
    positions, rebuilt from the points through a position dict."""
    children = [[v for v in range(s.n) if s.parent[v] == u] for u in range(s.n)]
    points = []

    def visit(v, word):
        points.append((v, word))
        if word[-1] + 1 < k:
            visit(v, word[:-1] + (word[-1] + 1,))
        for c in children[v]:
            visit(c, word + (0,))

    for m in range(s.n):
        if s.parent[m] is None:
            visit(m, (0,))
    pos = {pt: idx for idx, pt in enumerate(points)}
    parent = []
    for v, word in points:
        if word[-1] > 0:
            parent.append(pos[(v, word[:-1] + (word[-1] - 1,))])
        elif s.parent[v] is not None:
            parent.append(pos[(s.parent[v], word[:-1])])
        else:
            parent.append(None)
    return points, tuple(parent)


def embeddings_by_meet_loop(dom, cod):
    """The value tuples of the embeddings dom -> cod in lexicographic order, by
    backtracking that checks each new value's meet law against every earlier
    vertex."""
    ns, nt = dom.n, cod.n
    if ns > nt:
        return []
    vals = [0] * ns
    out = []

    def extend(v):
        if v == ns:
            out.append(tuple(vals))
            return
        for t in range(vals[v - 1] + 1, nt - (ns - v) + 1):
            if all(vals[dom.meet(u, v)] == cod.meet(vals[u], t) for u in range(v)):
                vals[v] = t
                extend(v + 1)

    extend(1)
    return out


def rigid_surjections_by_meet_loop(dom, cod, sealed=False):
    """The value tuples of the rigid surjections dom -> cod in lexicographic
    order, by backtracking over value tuples: the candidates at each position
    are the seen values plus one fresh value, a seen value needs its first
    occurrence below the position, and a fresh value needs the meet law
    against every earlier first occurrence.  Sealedness pins the top value to
    the final position."""
    nt, ns = dom.n, cod.n
    if ns > nt:
        return []
    values = [0] * nt
    first_occ = [0] * ns
    out = []

    def candidates(w, k):
        for v in range(min(k, ns - 1) + 1):
            if sealed and v == ns - 1 and (w < nt - 1 or v < k):
                continue
            if v < k:
                if not dom.below(first_occ[v], w):
                    continue
            elif any(
                first_occ[cod.meet(u, v)] != dom.meet(first_occ[u], w) for u in range(k)
            ):
                continue
            yield v

    def extend(w, k):
        if w == nt:
            if k == ns:
                out.append(tuple(values))
            return
        if ns - k > nt - w:
            return
        for v in candidates(w, k):
            values[w] = v
            if v == k:
                first_occ[k] = w
                extend(w + 1, k + 1)
            else:
                extend(w + 1, k)

    extend(0, 0)
    return out


def is_morphism_by_meet_loop(m):
    """Meet-preserving, monotone, root-to-root, with the meet law checked on
    every pair of domain vertices."""
    if m.values[0] != 0:
        return False
    dom, cod, f = m.dom, m.cod, m.values
    for v in range(1, dom.n):
        if f[v - 1] > f[v]:
            return False
    for v in range(dom.n):
        for w in range(v + 1, dom.n):
            if f[dom.meet(v, w)] != cod.meet(f[v], f[w]):
                return False
    return True


def try_injection_by_fiber_meet(f):
    """The injection of f if f is a rigid surjection, else None: the fiberwise
    meet candidate, verified by both Galois identities and the pairwise meet
    loop above."""
    from treeramsey.maps import TreeMap

    dom, cod = f.dom, f.cod
    fibers_meet = [None] * cod.n
    for w, v in enumerate(f.values):
        fibers_meet[v] = w if fibers_meet[v] is None else dom.meet(fibers_meet[v], w)
    if any(m is None for m in fibers_meet):
        return None
    e = TreeMap(cod, dom, tuple(fibers_meet))
    for v in range(cod.n):
        if f.values[e.values[v]] != v:
            return None
    for w in range(dom.n):
        if not dom.below(e.values[f.values[w]], w):
            return None
    if not is_morphism_by_meet_loop(e):
        return None
    return e


def transfer_witness_by_loops(cell, pi_vals, j_vals):
    """Whether pi o j = id, j o pi below id, j is strictly monotone, j
    preserves the meet of every pair (through a codomain meet table) and j
    fixes the root, for the pi and j values of a transfer cell."""
    m = cell.a + cell.s.n
    cod_meet = [[cell.cod_tree.meet(x, y) for y in range(m)] for x in range(m)]
    anc = cell.dom_anc
    if any(pi_vals[j_vals[x]] != x for x in range(m)):
        return False
    if any(not (anc[w] >> j_vals[pi_vals[w]]) & 1 for w in range(cell.a + cell.n_block)):
        return False
    for x in range(m):
        if x and j_vals[x - 1] >= j_vals[x]:
            return False
        for y in range(x + 1, m):
            common = anc[j_vals[x]] & anc[j_vals[y]]
            if j_vals[cod_meet[x][y]] != common.bit_length() - 1:
                return False
    return j_vals[0] == 0


def extends_by_quantifier(b, a, universe):
    """The literal definition of extension: every product a * x over the
    supplied finite universe is also defined for b and equals b * x."""
    from treeramsey.framework import is_composable, space_mul

    for x in universe:
        if is_composable(a, x):
            if not is_composable(b, x) or space_mul(a, x) != space_mul(b, x):
                return False
    return True


# ---------------------------------------------------------------------------
# helpers that only the tests use


def count_colorings(k: int, b: int, pin_first: bool = False) -> int:
    """len(list(enum_colorings(k, b, pin_first))), refusing the same inputs."""
    if k < 0 or b < 1:
        raise ValueError("need k >= 0 and b >= 1")
    if k == 0:
        return 1
    return b ** (k - 1) if pin_first else b**k


def is_a_rigid(f, a_size: int) -> bool:
    """Rigid surjection restricting to the identity on the bottom chain A."""
    from treeramsey.maps import is_rigid_surjection

    if not (1 <= a_size <= f.dom.n and a_size <= f.cod.n):
        return False
    if any(f.values[i] != i for i in range(a_size)):
        return False
    return is_rigid_surjection(f)


def coloring_to_json(colors, b: int) -> dict:
    """The coloring payload that serialize.coloring_from_json reads."""
    from treeramsey.serialize import SCHEMA_VERSIONS

    return {
        "schema": "coloring",
        "version": SCHEMA_VERSIONS["coloring"],
        "b": b,
        "colors": list(colors),
    }
