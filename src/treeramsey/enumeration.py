"""Deterministic generators for trees, maps of each kind, and colorings.

Enumeration order is part of the contract: trees come lexicographically by
parent array, maps lexicographically by value tuple, colorings in counting
order.  Two runs produce identical sequences; parallel consumers may split by
value-tuple prefix ranges.

Embeddings and rigid surjections each come from one list-building
backtracking over value tuples (_embeddings, _rigid_surjections).  Each new
value is tested in constant time, against its predecessor only, by the
consecutive meet law of maps (see the maps module docstring).

Rigid surjections are kept as plain value tuples in one cached table,
rigid_surjection_values(dom, cod, sealed, /), which range-checks every tuple
once when it fills; its arguments are positional and required, so each
table has exactly one cache key.  The witness builders and the composition
space read it directly.  all_rigid_surjections is the cached TreeMap view
over that table, for callers that want maps; embeddings are TreeMaps from
the start, and all_embeddings caches them.  enum_rigid_surjections and
enum_embeddings stream the cached views.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .maps import TreeMap, _check_values
from .trees import OrderedTree, all_trees, enum_trees  # re-exported tree generators

__all__ = [
    "enum_trees",
    "all_trees",
    "enum_embeddings",
    "all_embeddings",
    "enum_rigid_surjections",
    "all_rigid_surjections",
    "rigid_surjection_values",
    "enum_colorings",
    "count_colorings",
]


def _embeddings(dom: OrderedTree, cod: OrderedTree) -> list[TreeMap]:
    """The embeddings dom -> cod in lexicographic order, built as one list.

    Values are assigned in increasing vertex order; vertex v may take a value
    t of cod when t > e(v-1) and meet(e(v-1), t) = e(parent(v)), the
    consecutive meet law.
    """
    ns, nt = dom.n, cod.n
    if ns > nt:
        return []
    anc = cod.anc_mask
    parent = dom.parent
    vals = [0] * ns  # root goes to root
    out: list[TreeMap] = []

    def extend(v: int) -> None:
        if v == ns:
            out.append(TreeMap(dom, cod, tuple(vals)))
            return
        prev = vals[v - 1]
        prev_anc = anc[prev]
        meet = vals[parent[v]]
        for t in range(prev + 1, nt - (ns - v) + 1):
            if (prev_anc & anc[t]).bit_length() - 1 == meet:
                vals[v] = t
                extend(v + 1)

    extend(1)
    return out


def _rigid_surjections(dom: OrderedTree, cod: OrderedTree, sealed: bool) -> list[tuple[int, ...]]:
    """The value tuples of the rigid surjections dom -> cod in lexicographic order.

    Backtracks over value tuples.  The injection of a rigid surjection is the
    fiberwise meet, which always equals the fiber's first element in canonical
    numbering; monotonicity of the injection then forces new values to appear
    in increasing order, so the candidate values at any position w are the
    already-seen values 0..k-1 plus the fresh value k.  Checks per assignment:

    - a seen value v needs its first occurrence below w;
    - the fresh value k needs meet(first(k-1), w) = first(parent(k)), the
      consecutive meet law for the first occurrences.

    Sealedness pins the top value to the final position.
    """
    n, m = dom.n, cod.n
    if m > n:
        return []
    top = m - 1
    anc = dom.anc_mask
    parent = cod.parent
    values = [0] * n
    first = [0] * m  # first occurrence of each seen value
    out: list[tuple[int, ...]] = []

    def extend(w: int, k: int) -> None:
        if w == n:
            if k == m:
                out.append(tuple(values))
            return
        if m - k > n - w:
            return  # surjectivity budget
        aw = anc[w]
        # the top of a sealed codomain first occurs exactly at the top of the domain
        for v in range(min(k, top) if sealed else k):
            if (aw >> first[v]) & 1:  # injection below identity
                values[w] = v
                extend(w + 1, k)
        if k < m and (not sealed or k < top or w == n - 1):
            if not k or (anc[first[k - 1]] & aw).bit_length() - 1 == first[parent[k]]:
                values[w] = k
                first[k] = w
                extend(w + 1, k + 1)

    extend(0, 0)
    return out


def enum_embeddings(dom: OrderedTree, cod: OrderedTree) -> Iterator[TreeMap]:
    """All embeddings dom -> cod, lexicographically by value tuple.

    Embeddings are strictly increasing in the canonical numbering (monotone +
    injective), fix the root, and preserve meets (see _embeddings).
    """
    yield from all_embeddings(dom, cod)


def enum_rigid_surjections(
    dom: OrderedTree, cod: OrderedTree, sealed: bool = False
) -> Iterator[TreeMap]:
    """All rigid surjections dom -> cod, lexicographically by value tuple.

    With sealed, only the sealed ones (see _rigid_surjections).
    """
    yield from all_rigid_surjections(dom, cod, sealed)


@lru_cache(maxsize=None)
def all_embeddings(dom: OrderedTree, cod: OrderedTree) -> tuple[TreeMap, ...]:
    return tuple(_embeddings(dom, cod))


@lru_cache(maxsize=None)
def rigid_surjection_values(
    dom: OrderedTree, cod: OrderedTree, sealed: bool, /
) -> tuple[tuple[int, ...], ...]:
    """The value tuples of the rigid surjections dom -> cod, each range-checked once here."""
    table = tuple(_rigid_surjections(dom, cod, sealed))
    for values in table:
        _check_values(values, dom.n, cod.n)
    return table


@lru_cache(maxsize=None)
def all_rigid_surjections(
    dom: OrderedTree, cod: OrderedTree, sealed: bool = False
) -> tuple[TreeMap, ...]:
    """The TreeMap view of rigid_surjection_values."""
    return tuple(TreeMap(dom, cod, values) for values in rigid_surjection_values(dom, cod, sealed))


def rigid_surjections_with_injection(e: TreeMap) -> tuple[TreeMap, ...]:
    """All rigid surjections whose injection is the given embedding.

    Many maps can share one injection; no counting formula is asserted, the
    set is simply materialized.
    """
    from .maps import injection_of

    return tuple(
        f for f in enum_rigid_surjections(e.cod, e.dom) if injection_of(f) == e
    )


def enum_colorings(k: int, b: int, pin_first: bool = False) -> Iterator[tuple[int, ...]]:
    """All b^k colorings of k items in counting order (first item most significant).

    With pin_first the first item's color is fixed to 0, quotienting by the
    color-permutation symmetry that all monochromaticity questions enjoy.
    """
    if k < 0 or b < 1:
        raise ValueError("need k >= 0 and b >= 1")
    if k == 0:
        yield ()
        return
    if pin_first:
        for rest in itertools.product(range(b), repeat=k - 1):
            yield (0,) + rest
    else:
        yield from itertools.product(range(b), repeat=k)


def count_colorings(k: int, b: int, pin_first: bool = False) -> int:
    """len(list(enum_colorings(k, b, pin_first))), refusing the same inputs."""
    if k < 0 or b < 1:
        raise ValueError("need k >= 0 and b >= 1")
    if k == 0:
        return 1
    return b ** (k - 1) if pin_first else b**k
