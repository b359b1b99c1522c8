"""Maps between ordered trees: morphisms, embeddings, rigid surjections.

A morphism preserves meets, is monotone for the lexicographic orders and sends
root to root; an embedding is an injective morphism.  A rigid surjection
f: T -> S is a map admitting an embedding e: S -> T with

    f o e = id_S   and   e o f below id_T  (pointwise in the tree order),

i.e. (f, e) is a perfect Galois connection (embedding-projection pair).  The
witness e is unique, the fiberwise meet e(v) = meet f^{-1}(v); we call it the
injection of f.  Since e(v) lies in its own fiber and below every element of
it, it is the fiber's least vertex, i.e. the first occurrence of v in f.

One rule, _galois_pair, decides morphism-ness and rigidity, here and in the
transfer cells: f o e = id, e o f below id, and e a morphism.  Morphism-ness
is tested by the consecutive law: a monotone map sending root to root is a
morphism iff meet(e(v-1), e(v)) = e(parent(v)) for every v >= 1, because in
preorder meet(v-1, v) = parent(v) and subtrees are index intervals.
Classification never trusts a flag: the first-occurrence candidate is
verified by the rule, so the same routine decides rigidity.

The check runs once per distinct (T, S, values) while that input is in the
bounded table _cached_injection_values, which try_injection (and so every
predicate, classify and the restrictions) and framework's domain elements
read.  The witness builders call the uncached _injection_values, because
their inputs do not repeat.  Map values must be ints, not bools or floats:
0.0, False and 0 would be one key of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .errors import (
    DomainMismatch,
    NotEmbedding,
    NotLeaf,
    NotRigid,
    VerificationFailed,
    VertexOutOfRange,
)
from .trees import OrderedTree, initial_subtree

__all__ = [
    "TreeMap",
    "KindFlags",
    "classify",
    "is_morphism",
    "is_embedding",
    "try_injection",
    "injection_of",
    "is_rigid_surjection",
    "is_sealed",
    "compose",
    "identity",
    "rigid_from_embedding",
    "restrict_initial",
    "conjugate_leaf",
    "restrict_conjugate",
    "check_block_condition",
]


@dataclass(frozen=True)
class TreeMap:
    """A total function between canonical ordered trees, stored as a value tuple."""

    dom: OrderedTree
    cod: OrderedTree
    values: tuple[int, ...]

    def __post_init__(self):
        if type(self.values) is not tuple:  # the injection table's key needs a tuple
            object.__setattr__(self, "values", tuple(self.values))
        _check_values(self.values, self.dom.n, self.cod.n)

    def __call__(self, v: int) -> int:
        return self.values[v]

    def __repr__(self) -> str:
        return f"TreeMap({list(self.values)}: {self.dom.n}->{self.cod.n})"

    @cached_property
    def injection(self) -> Optional[TreeMap]:
        """try_injection(self): the verified injection, read once per map (the map is frozen)."""
        return try_injection(self)


def _check_values(values: Sequence[int], dom_n: int, cod_n: int) -> None:
    """Refuse a value tuple that is not a total map from 0..dom_n-1 into 0..cod_n-1.

    Each value must be an int, not a bool or a float, which the injection table
    would take for 0 or 1.
    """
    if len(values) != dom_n:
        raise DomainMismatch(f"map has {len(values)} values for a domain of size {dom_n}")
    for v in values:
        if type(v) is not int or not (0 <= v < cod_n):
            raise VertexOutOfRange(f"value {v!r} outside codomain of size {cod_n}")


def _trusted_map(dom: OrderedTree, cod: OrderedTree, values: tuple[int, ...]) -> TreeMap:
    """A TreeMap of values already range-checked against dom and cod, as a value
    table's are, built without running _check_values a second time."""
    m = object.__new__(TreeMap)
    object.__setattr__(m, "dom", dom)
    object.__setattr__(m, "cod", cod)
    object.__setattr__(m, "values", values)
    return m


def identity(t: OrderedTree) -> TreeMap:
    return TreeMap(t, t, tuple(range(t.n)))


def _galois_pair(
    dom_anc: Sequence[int],
    cod_parent: Sequence[Optional[int]],
    f_values: Optional[Sequence[int]],
    e_values: Sequence[int],
) -> bool:
    """Whether e: S -> T is a morphism and (f, e) a Galois pair for f: T -> S.

    dom_anc holds the ancestor masks of T, cod_parent the parent array of S.
    e must send root to root, be monotone and satisfy the consecutive meet
    law; then f o e = id and e o f below id are checked.  With f_values None
    only the morphism clauses are checked.
    """
    if e_values[0] != 0:
        return False
    for v in range(1, len(e_values)):
        x, y = e_values[v - 1], e_values[v]
        if x > y or (dom_anc[x] & dom_anc[y]).bit_length() - 1 != e_values[cod_parent[v]]:
            return False
    if f_values is None:
        return True
    return all(f_values[x] == v for v, x in enumerate(e_values)) and all(
        (dom_anc[w] >> e_values[v]) & 1 for w, v in enumerate(f_values)
    )


def is_morphism(m: TreeMap) -> bool:
    """Meet-preserving, monotone, root-to-root."""
    return _galois_pair(m.cod.anc_mask, m.dom.parent, None, m.values)


def is_embedding(m: TreeMap) -> bool:
    return len(set(m.values)) == m.dom.n and is_morphism(m)


def _injection_values(
    dom_anc: Sequence[int], cod_parent: Sequence[Optional[int]], values: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """Injection values of the map ``values`` from T onto S if it is rigid, else None.

    dom_anc holds the ancestor masks of T, cod_parent the parent array of S.
    The candidate is the first occurrence of each value.  For a rigid map the
    fiberwise meet lies in its own fiber, so it is the fiber's least vertex
    and the candidate is the injection; for any other map no candidate passes.
    """
    if len(set(values)) != len(cod_parent):
        return None
    e = tuple(map(values.index, range(len(cod_parent))))
    return e if _galois_pair(dom_anc, cod_parent, values, e) else None


INJECTION_TABLE_SIZE = 4096  # distinct (T, S, values); a cold calculus pass has 480


@lru_cache(maxsize=INJECTION_TABLE_SIZE)
def _cached_injection_values(
    dom_anc: tuple[int, ...], cod_parent: tuple[Optional[int], ...], values: tuple[int, ...], /
) -> Optional[tuple[int, ...]]:
    """_injection_values, run once per distinct input while it is in the table.

    Callers pass int values, type-checked by _check_values, so equal keys are
    equal inputs.
    """
    return _injection_values(dom_anc, cod_parent, values)


def try_injection(f: TreeMap) -> Optional[TreeMap]:
    """Injection of f if f is a rigid surjection, else None (see _injection_values)."""
    e = _cached_injection_values(f.dom.anc_mask, f.cod.parent, f.values)
    # first occurrences of the values: in range for cod -> dom already
    return None if e is None else _trusted_map(f.cod, f.dom, e)


def injection_of(f: TreeMap) -> TreeMap:
    e = f.injection
    if e is None:
        raise NotRigid(f"{f} is not a rigid surjection")
    return e


def is_rigid_surjection(f: TreeMap) -> bool:
    return f.injection is not None


def is_sealed(f: TreeMap) -> bool:
    """Rigid and the injection sends the largest leaf to the largest leaf.

    In canonical form the lexicographically largest vertex is always a leaf,
    so sealedness reads e(|S|-1) = |T|-1.
    """
    e = f.injection
    return e is not None and e.values[-1] == f.dom.n - 1


@dataclass(frozen=True)
class KindFlags:
    morphism: bool
    embedding: bool
    rigid_surjection: bool
    sealed: bool
    injection: Optional[TreeMap] = None


def classify(m: TreeMap) -> KindFlags:
    """Recompute every kind flag from the definitions (flags are never trusted).

    The injection is the map's cached one, verified when it was computed.
    """
    mor = is_morphism(m)
    emb = mor and len(set(m.values)) == m.dom.n
    e = m.injection
    return KindFlags(
        morphism=mor,
        embedding=emb,
        rigid_surjection=e is not None,
        sealed=e is not None and e.values[-1] == m.dom.n - 1,
        injection=e,
    )


def compose(f: TreeMap, g: TreeMap) -> TreeMap:
    """Plain composition f o g; rigidity is preserved with composed injections."""
    if g.cod != f.dom:
        raise DomainMismatch("cod(g) != dom(f)")
    # g's values index f's, and f's are range-checked against f.cod
    return _trusted_map(g.dom, f.cod, tuple(f.values[x] for x in g.values))


def rigid_from_embedding(e: TreeMap) -> TreeMap:
    """The rigid surjection f(w) = largest v (tree order) with e(v) below w.

    Its injection is e; this inverts the injection and shows every embedding
    arises as one.
    """
    if not is_embedding(e):
        raise NotEmbedding(f"{e} is not an embedding")
    s, t = e.dom, e.cod
    values = []
    for w in range(t.n):
        best, best_ht = None, -1
        for v in range(s.n):
            if t.below(e.values[v], w) and s.height[v] > best_ht:
                best, best_ht = v, s.height[v]
        if best is None:  # e(root)=root is below everything
            raise VerificationFailed(f"no vertex of the embedding lies below {w}")
        values.append(best)
    f = TreeMap(t, s, tuple(values))
    if try_injection(f) != e:
        raise VerificationFailed(f"the injection of {f} is not the embedding {e}")
    return f


def restrict_initial(f: TreeMap, v: int) -> TreeMap:
    """f^v: restriction of a rigid f: T -> S to T^{i(v)}, a sealed map onto S^v."""
    e = injection_of(f)
    f.cod._check(v)
    iv = e.values[v]
    prefix = f.values[: iv + 1]
    if not _onto_initial(prefix, v):
        raise VerificationFailed(f"restriction of {f} to the initial subtree of {v} is not onto")
    return _trusted_map(initial_subtree(f.dom, iv), initial_subtree(f.cod, v), prefix)


def _onto_initial(values: tuple[int, ...], v: int) -> bool:
    """Whether values (all >= 0) take exactly the values 0..v, i.e. map onto S^v."""
    return max(values) == v and len(set(values)) == v + 1


def conjugate_leaf(e: TreeMap, x: int) -> int:
    """The leaf of T conjugate to the leaf x of S through the embedding e: S -> T.

    The largest leaf pairs with the largest leaf; otherwise, with x' the next
    leaf after x, the conjugate is the largest leaf y below i(x') in the linear
    order with meet(i(x), i(x')) = meet(y, i(x')).
    """
    if not is_embedding(e):
        raise NotEmbedding(f"{e} is not an embedding")
    s, t = e.dom, e.cod
    if x not in s.leaves:
        raise NotLeaf(f"{x} is not a leaf of the source tree")
    if x == s.leaves[-1]:
        return t.leaves[-1]
    x1 = min(l for l in s.leaves if l > x)  # next leaf in the linear order
    ix, ix1 = e.values[x], e.values[x1]
    pivot = t.meet(ix, ix1)
    candidates = [y for y in t.leaves if y < ix1 and t.meet(y, ix1) == pivot]
    if not candidates:  # a conjugate leaf always exists (e.g. any leaf above i(x))
        raise VerificationFailed(f"leaf {x} has no conjugate leaf through {e}")
    return max(candidates)


def restrict_conjugate(f: TreeMap, x: int) -> TreeMap:
    """f_x: restriction of a rigid f: T -> S to T^y, y the f-conjugate of the leaf x.

    The image is exactly S^x, so this truncates along conjugate leaves.
    """
    e = injection_of(f)
    y = conjugate_leaf(e, x)
    prefix = f.values[: y + 1]
    if not _onto_initial(prefix, x):
        raise VerificationFailed(f"restriction of {f} to the conjugate of leaf {x} is not onto")
    return _trusted_map(initial_subtree(f.dom, y), initial_subtree(f.cod, x), prefix)


def check_block_condition(p: Sequence[int], a_size: int, l_size: int, i_size: int) -> bool:
    """Block condition for p: A + (L x I) -> A + L (chains, lexicographic L x I).

    Requires p to be the identity on A and, for each x in L, the block
    {x} x I to hit x and land inside A u {x}.  Every such p is an A-rigid
    surjection (tests/test_maps.py checks this on small chains).
    """
    if len(p) != a_size + l_size * i_size:
        raise DomainMismatch("p has the wrong domain size")
    if any(p[j] != j for j in range(a_size)):
        return False
    for x in range(l_size):
        block = p[a_size + x * i_size : a_size + (x + 1) * i_size]
        target = a_size + x
        if target not in block:
            return False
        if any(not (val < a_size or val == target) for val in block):
            return False
    return True
