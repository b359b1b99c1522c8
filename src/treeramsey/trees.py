"""Ordered trees and ordered forests in canonical parent-array form.

A tree is a finite poset with a single minimum (the root) in which the
predecessors of every vertex form a chain; an ordered tree additionally fixes a
linear order on each vertex's immediate successors, which induces the
lexicographic order on all vertices (root first, then each child's subtree in
sibling order -- i.e. preorder).

Canonical encoding: vertices are 0..n-1 numbered in lexicographic order, stored
as a parent array with ``parent[0] = None`` and ``parent[i] < i``.  Sibling
order is index order.  Under this encoding the tree order is the ancestor
relation and the lexicographic order is plain integer order, so tree equality
is tuple equality.  All vertex ids in this package are 0-based.

Parents are None or ints, never bools or floats.  The constructor checks
canonicity and builds the ancestor masks once per distinct parent array,
while it is in the bounded table _tree_masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateAttachPoint,
    EmptyAlphabet,
    EmptyLinearOrder,
    NotATree,
    NotCanonical,
    VerificationFailed,
    VertexOutOfRange,
)

ParentArray = Sequence[Optional[int]]

LT, EQ, GT = -1, 0, 1


def _validate_raw_tree(parent: ParentArray) -> None:
    """Check that ``parent`` encodes some tree (root unique, refs in range, acyclic)."""
    n = len(parent)
    if n == 0:
        raise NotATree("empty parent array")
    roots = [i for i, p in enumerate(parent) if p is None]
    if len(roots) != 1:
        raise NotATree(f"expected exactly one root, found {len(roots)}")
    for i, p in enumerate(parent):
        if p is None:
            continue
        if not isinstance(p, int) or not (0 <= p < n):
            raise NotATree(f"parent of {i} out of range: {p!r}")
        if p == i:
            raise NotATree(f"vertex {i} is its own parent")
    # Cycle check: climbing from any vertex must reach the root in < n steps.
    for i in range(n):
        v, steps = i, 0
        while parent[v] is not None:
            v = parent[v]
            steps += 1
            if steps >= n:
                raise NotATree("cycle detected")


def _raw_children(parent: ParentArray) -> list[list[int]]:
    ch: list[list[int]] = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p is not None:
            ch[p].append(i)  # index order = sibling order
    return ch


def _raw_ancestors(parent: ParentArray, v: int) -> list[int]:
    """Predecessor chain of v, root first, v last."""
    chain = [v]
    p = parent[v]
    while p is not None:
        chain.append(p)
        p = parent[p]
    chain.reverse()
    return chain


def raw_lex_compare(parent: ParentArray, v: int, w: int) -> int:
    """Two-clause lexicographic comparison on an arbitrary parent-array tree.

    Sibling order is index order.  Returns LT/EQ/GT.  This is the definitional
    comparison; on canonical trees it agrees with integer comparison.
    """
    n = len(parent)
    if not (0 <= v < n and 0 <= w < n):
        raise VertexOutOfRange(f"vertex out of range: {v}, {w}")
    if v == w:
        return EQ
    av, aw = _raw_ancestors(parent, v), _raw_ancestors(parent, w)
    for x, y in zip(av, aw):
        if x != y:  # the children of the meet on the two chains: sibling order decides
            return LT if x < y else GT
    return LT if len(av) < len(aw) else GT  # one chain is a prefix: the predecessor comes first


_PARENT_TYPES = frozenset({int, type(None)})
TREE_TABLE_SIZE = 1024  # distinct parent arrays; a cold calculus pass has 65


@lru_cache(maxsize=TREE_TABLE_SIZE)
def _tree_masks(parent: tuple[Optional[int], ...], /) -> tuple[int, ...]:
    """The ancestor masks of a canonical parent array; NotCanonical (or NotATree) if
    it is not one.  Run once per distinct parent array while it is in the table.

    Callers refuse parents that are neither None nor an int before the lookup,
    because a bool or a float would be the same key as an int.
    """
    n = len(parent)
    if n == 0:
        raise NotATree("trees are non-empty")
    if parent[0] is not None:
        raise NotCanonical("vertex 0 must be the root")
    for i in range(1, n):
        p = parent[i]
        if type(p) is not int or not (0 <= p < i):
            raise NotCanonical(f"parent[{i}] = {p!r} must be an int < {i}")
    # Index order is preorder iff each vertex attaches to the rightmost
    # path, i.e. its parent lies below the vertex just before it.
    anc = [1]
    for i in range(1, n):
        p = parent[i]
        if not (anc[i - 1] >> p) & 1:
            raise NotCanonical(f"vertex {i} does not attach to the rightmost path")
        anc.append(anc[p] | (1 << i))
    return tuple(anc)


@dataclass(frozen=True)
class OrderedTree:
    """Canonical ordered tree: parent array in preorder, ``parent[i] < i``.

    ``n`` and ``anc_mask`` (bit v of anc_mask[w] = v below w, including w
    itself) are set once by the constructor, which reads the masks from the
    bounded validation table _tree_masks; equality and hashing use ``parent``
    only.  Parents are None or ints, never bools or floats.
    """

    parent: tuple[Optional[int], ...]
    n: int = field(init=False, compare=False, repr=False)
    anc_mask: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        parent = self.parent
        if type(parent) is not tuple:  # the table's key, and the hash, need a tuple
            parent = tuple(parent)
            object.__setattr__(self, "parent", parent)
        if not _PARENT_TYPES.issuperset(map(type, parent)):
            _tree_masks.__wrapped__(parent)  # uncached, raises NotCanonical at the first fault
        masks = _tree_masks(parent)
        object.__setattr__(self, "n", len(masks))
        object.__setattr__(self, "anc_mask", masks)

    def __len__(self) -> int:
        return len(self.parent)

    def __repr__(self) -> str:
        return f"OrderedTree({list(self.parent)})"

    @cached_property
    def height(self) -> tuple[int, ...]:
        """1-based height: ht(v) = number of predecessors including v."""
        return tuple(m.bit_count() for m in self.anc_mask)

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        has_child = [False] * self.n
        for p in self.parent[1:]:
            has_child[p] = True
        return tuple(v for v in range(self.n) if not has_child[v])

    def below(self, v: int, w: int) -> bool:
        """Tree order: v a predecessor of w (reflexive)."""
        n = self.n
        if not (0 <= v < n and 0 <= w < n):
            self._check(v)
            self._check(w)
        return bool((self.anc_mask[w] >> v) & 1)

    def meet(self, v: int, w: int) -> int:
        """The largest common predecessor of v and w."""
        n = self.n
        if not (0 <= v < n and 0 <= w < n):
            self._check(v)
            self._check(w)
        common = self.anc_mask[v] & self.anc_mask[w]
        return common.bit_length() - 1

    def lex_compare(self, v: int, w: int) -> int:
        """Definitional lexicographic comparison (LT/EQ/GT); equals integer order here."""
        self._check(v)
        self._check(w)
        return raw_lex_compare(self.parent, v, w)

    def ancestors(self, v: int) -> list[int]:
        self._check(v)
        return _raw_ancestors(self.parent, v)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} not in tree of size {self.n}")


def tree(parent: Iterable[Optional[int]]) -> OrderedTree:
    return OrderedTree(tuple(parent))


def chain(n: int) -> OrderedTree:
    """The chain tree on n vertices (the linear order [n] viewed as a tree)."""
    if n < 1:
        raise EmptyLinearOrder("chains need at least one vertex")
    return OrderedTree((None,) + tuple(range(n - 1)))


def canonicalize(parent: ParentArray) -> tuple[OrderedTree, tuple[int, ...]]:
    """Relabel an arbitrary parent-array tree into canonical preorder form.

    Sibling order of the input is child-list order, i.e. increasing vertex id.
    Returns the canonical tree and the permutation old id -> new id.
    """
    _validate_raw_tree(parent)
    n = len(parent)
    ch = _raw_children(parent)
    root = next(i for i, p in enumerate(parent) if p is None)
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(ch[v]))
    perm = [0] * n  # old -> new
    for new, old in enumerate(order):
        perm[old] = new
    new_parent: list[Optional[int]] = [None] * n
    for old in range(n):
        p = parent[old]
        if p is not None:
            new_parent[perm[old]] = perm[p]
    return OrderedTree(tuple(new_parent)), tuple(perm)


def initial_subtree(t: OrderedTree, v: int) -> OrderedTree:
    """T^v = all vertices lexicographically below-or-equal v, as a canonical tree.

    In the canonical encoding this is literally the prefix 0..v, and the
    inclusion back into T is the identity on ids.  A prefix of a canonical
    tree is canonical and its ancestor masks are the prefix of T's (every
    predecessor of w is at most w), so the prefix is not validated again.
    """
    t._check(v)
    if v == t.n - 1:
        return t
    return _trusted_tree(t.parent[: v + 1], t.anc_mask[: v + 1])


def _trusted_tree(parent: tuple[Optional[int], ...], anc_mask: tuple[int, ...]) -> OrderedTree:
    """The tree of a parent array that is canonical by construction, with its
    ancestor masks, made without validating it again."""
    t = object.__new__(OrderedTree)
    object.__setattr__(t, "parent", parent)
    object.__setattr__(t, "n", len(parent))
    object.__setattr__(t, "anc_mask", anc_mask)
    return t


@dataclass(frozen=True)
class OrderedForest:
    """Ordered forest: a canonical tree with the root removed (may be empty).

    ``parent[i] is None`` marks component minima; adding a fresh root below
    everything must give a canonical OrderedTree, so components are index
    intervals and index order is the forest's lexicographic order.
    """

    parent: tuple[Optional[int], ...]

    def __post_init__(self):
        for i, p in enumerate(self.parent):
            if p is not None and (type(p) is not int or not (0 <= p < i)):
                raise NotCanonical(f"forest parent[{i}] = {p!r} must be None or an int < {i}")
        one_plus(self)  # raises NotCanonical if the rooted version is not canonical

    @property
    def n(self) -> int:
        return len(self.parent)

    def __len__(self) -> int:
        return len(self.parent)

    def __repr__(self) -> str:
        return f"OrderedForest({list(self.parent)})"

    @cached_property
    def height(self) -> tuple[int, ...]:
        ht = [0] * self.n
        for i, p in enumerate(self.parent):
            ht[i] = 1 + (ht[p] if p is not None else 0)
        return tuple(ht)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex intervals of the components, in order."""
        if self.n == 0:
            return ()
        starts = [i for i, p in enumerate(self.parent) if p is None]
        bounds = starts + [self.n]
        return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def minima(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p is None)


def forest(parent: Iterable[Optional[int]]) -> OrderedForest:
    return OrderedForest(tuple(parent))


def point_forest(k: int) -> OrderedForest:
    """Forest of k pairwise incomparable points."""
    return OrderedForest((None,) * k)


def one_plus(f: OrderedForest | tuple) -> OrderedTree:
    """1 + F: the tree obtained by adding a fresh root below the forest."""
    parent = f.parent if isinstance(f, OrderedForest) else tuple(f)
    shifted: list[Optional[int]] = [None]
    for p in parent:
        shifted.append(0 if p is None else p + 1)
    return OrderedTree(tuple(shifted))


def drop_root(t: OrderedTree) -> OrderedForest:
    """The forest T minus its root (inverse of one_plus)."""
    out: list[Optional[int]] = []
    for p in t.parent[1:]:
        out.append(None if p == 0 else p - 1)
    return OrderedForest(tuple(out))


def attach(
    t: OrderedTree,
    points: Sequence[int],
    forests: Sequence[OrderedForest],
) -> tuple[OrderedTree, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(T; x_1..x_n) + (F_1..F_n): graft each forest above its attach point.

    The minima of F_i become immediate successors of x_i, placed after the
    existing successors so that F_i is a final interval among the vertices
    above x_i.  Returns the canonical result together with the embedding of T
    and of each F_i into it (as value tuples).
    """
    if len(points) != len(forests):
        raise ValueError("points and forests must have equal length")
    if len(set(points)) != len(points):
        raise DuplicateAttachPoint(f"attach points must be distinct: {points}")
    for x in points:
        t._check(x)
    # Build a raw parent array: T's vertices keep ids, forests appended.
    raw: list[Optional[int]] = list(t.parent)
    blocks: list[list[int]] = []
    for x, f in zip(points, forests):
        base = len(raw)
        blocks.append([base + i for i in range(f.n)])
        for p in f.parent:
            raw.append(x if p is None else base + p)
    canon, perm = canonicalize(raw)
    t_emb = tuple(perm[v] for v in range(t.n))
    f_embs = tuple(tuple(perm[v] for v in block) for block in blocks)
    return canon, t_emb, f_embs


def oplus(a: int, f: OrderedForest) -> OrderedTree:
    """A + F: the forest F grafted on top of the chain A of a vertices.

    A must be non-empty; A + (empty forest) is the chain A itself.
    """
    if a < 1:
        raise EmptyLinearOrder("the lower linear order must be non-empty")
    parent: list[Optional[int]] = [None] + list(range(a - 1))
    for p in f.parent:
        parent.append(a - 1 if p is None else a + p)
    return OrderedTree(tuple(parent))


class TensorPoint(NamedTuple):
    """A vertex of S x I: a forest vertex s paired with a word t of length ht(s)."""

    s: int
    t: tuple[int, ...]


class QPoint(NamedTuple):
    """A level cut of S x I: a forest vertex s with a word u of length ht(s)-1."""

    s: int
    u: tuple[int, ...]


@dataclass(frozen=True)
class TensorIndex:
    """S x I as a canonical ordered forest plus the bidirectional vertex index."""

    forest: OrderedForest
    points: tuple[TensorPoint, ...]  # vertex id -> point

    @cached_property
    def vertex_of(self) -> dict[TensorPoint, int]:
        return {pt: v for v, pt in enumerate(self.points)}


@lru_cache(maxsize=None)
def tensor(s: OrderedForest, i: int, /) -> TensorIndex:
    """Fan out the forest S along the alphabet I.

    Vertices are pairs (s, t) with ht(s) = |t|; (s1,t1) lies below (s2,t2) when
    s1 is below s2, the words agree strictly below level ht(s1), and at level
    ht(s1) the letters compare in I.  A point's immediate successors are its
    letter successor (s, t with the last letter incremented) and then its
    fan-out successors (s', t + (0,)), ascending in S; the vertices are listed
    in the preorder of that forest, the unique ordered-forest order in which
    every block {(s, u + (i,)) : i in I} is an interval ascending in the
    letter, which makes the identification with Q(S, I) x I an isomorphism of
    linear orders.  One pass with an explicit stack lists each point with its
    parent's position.
    """
    if i < 1:
        raise EmptyAlphabet("alphabet must be non-empty")
    children: list[list[int]] = [[] for _ in range(s.n)]
    for v, p in enumerate(s.parent):
        if p is not None:
            children[p].append(v)
    pts: list[TensorPoint] = []
    parent: list[Optional[int]] = []
    stack = [(m, (0,), None) for m in reversed(s.minima)]
    while stack:
        v, word, par = stack.pop()
        here = len(pts)
        pts.append(TensorPoint(v, word))
        parent.append(par)
        stack += [(c, word + (0,), here) for c in reversed(children[v])]
        if word[-1] + 1 < i:  # popped first: the letter successor precedes the fan-out
            stack.append((v, word[:-1] + (word[-1] + 1,), here))
    out = OrderedForest(tuple(parent))
    if out.n != sum(i ** s.height[v] for v in range(s.n)):
        raise VerificationFailed(f"tensor of {s} with {i} letters has {out.n} points")
    return TensorIndex(out, tuple(pts))


@dataclass(frozen=True)
class QIndex:
    """The level-cut index Q(S, I): its points in linear order and their positions.

    Block qq of S x I is the interval from qq*i of tensor(S, I), so the cut
    qq with letter k is the point at position qq*i + k there."""

    points: tuple[QPoint, ...]  # position in the linear order -> point

    @cached_property
    def position_of(self) -> dict[QPoint, int]:
        return {pt: idx for idx, pt in enumerate(self.points)}


@lru_cache(maxsize=None)
def q_set(s: OrderedForest, i: int, /) -> QIndex:
    """Q(S, I) = pairs (s, u) with ht(s) = |u| + 1, ordered by block position in S x I:
    the cut of each block's letter-0 point."""
    pts = [QPoint(p.s, p.t[:-1]) for p in tensor(s, i).points if p.t[-1] == 0]
    return QIndex(tuple(pts))


@lru_cache(maxsize=None)
def all_trees(n: int, /) -> tuple[OrderedTree, ...]:
    """All canonical ordered trees with exactly n vertices, in lexicographic order.

    Each is a tree of all_trees(n - 1) with a last vertex attached to its
    rightmost path, the predecessors of its last vertex, taken in ascending
    order, which keeps the parent arrays in lexicographic order.
    """
    if n < 1:
        raise VertexOutOfRange("trees are non-empty; need n >= 1")
    if n == 1:
        return (OrderedTree((None,)),)
    top = 1 << (n - 1)
    return tuple(
        _trusted_tree(t.parent + (p,), t.anc_mask + (t.anc_mask[p] | top,))
        for t in all_trees(n - 1)
        for p in range(n - 1)
        if t.anc_mask[-1] >> p & 1
    )


def all_forests(n: int) -> tuple[OrderedForest, ...]:
    """All ordered forests on n vertices (roots of (n+1)-vertex trees removed)."""
    if n < 0:
        raise VertexOutOfRange("forest size must be >= 0")
    return tuple(drop_root(t) for t in all_trees(n + 1))
