"""Deterministic tables of the maps between ordered trees, and colorings.

Enumeration order is part of the contract: maps come lexicographically by
their values, colorings in counting order.  Two runs produce identical sequences.

Both kinds of map are extended from the prefix of their domain: in
canonical form a tree without its last vertex is its initial subtree, and a
rigid surjection or an embedding restricts to one on that prefix.  So each
table of rigid value rows is its prefix's table extended by one value per
map (_prefix_table, cached by parent arrays, the prefix being the tree a
sweep over trees decides just before; in closed form onto one vertex or onto
a codomain at least as large as the domain), and all_embeddings extends its
value tuples one domain vertex at a time, in one pass with no recursion.
Each new value is tested in constant time, against its predecessor only, by
the consecutive meet law of maps (see the maps module docstring).  The
prefix tables stay cached beside the tables read from them: a sweep over
all trees up to n vertices keeps every table of every smaller tree, which
costs memory and saves rebuilding them.

Rigid surjections are kept as value rows in one cached table,
rigid_surjection_values(dom, cod, sealed, /): a row is a bytes object whose
i-th byte is the value at vertex i, so a codomain may have at most 256
vertices, and a larger one raises ResourceCapExceeded before anything is
built; domains may have any size.  The table range-checks every row once
when it fills; its arguments are positional and required, so each table has
exactly one cache key.  The witness builders and the composition space read
the rows directly.  all_rigid_surjections is the cached TreeMap view of the
unsealed table, its value tuples made from the rows without checking them
again; embeddings are TreeMaps from the start, and all_embeddings caches
them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import ResourceCapExceeded
from .maps import TreeMap, _check_values, _trusted_map
from .trees import OrderedTree

__all__ = [
    "all_embeddings",
    "all_rigid_surjections",
    "rigid_surjection_values",
    "enum_colorings",
]


_BYTE_VALUES = 256  # a value row holds one byte per vertex, so its values lie below 256
_ROW = [bytes((v,)) for v in range(_BYTE_VALUES)]  # the one-byte rows: p + _ROW[v] extends p by v


def _strict_ancestors(dom: tuple) -> tuple[int, list[int]]:
    """The mask and the list of the strict ancestors of the last vertex of the
    parent array dom."""
    mask, path = 0, []
    a = dom[-1]
    while a is not None:
        mask |= 1 << a
        path.append(a)
        a = dom[a]
    return mask, path


def _fresh_extensions(table: Sequence[bytes], cod: tuple, up: int) -> list[bytes]:
    """The maps of table (onto cod minus its top j) extended by the fresh value j
    at a new last vertex w whose strict ancestors make the mask up.

    The test is the consecutive meet law for first occurrences:
    meet(first(j-1), w) = first(parent(j)).  In preorder the meet of a < w
    with w is the largest ancestor of w not above a.
    """
    j = len(cod) - 1
    top, below, parent = _ROW[j], j - 1, cod[j]
    return [
        p + top
        for p in table
        if (up & ((2 << p.index(below)) - 1)).bit_length() - 1 == p.index(parent)
    ]


@lru_cache(maxsize=None)
def _prefix_table(dom: tuple, cod: tuple, /) -> tuple[bytes, ...]:
    """RS(dom, cod) by value row, extended from the tables of dom's prefix.

    dom and cod are parent arrays.  Two cases are closed: onto a codomain at
    least as large as dom the only candidate is the identity, which is rigid
    iff dom = cod (the fresh value k at vertex k needs meet(k-1, k) =
    parent_dom(k) to be parent_cod(k)), and onto one vertex the only map is
    the constant one.  Otherwise let dom' be dom without its last vertex w,
    the initial subtree dom^{w-1}, and j the top of cod.  A rigid
    surjection restricts to one from dom' onto the values it takes there:
    its injection is the first occurrences, and the condition at a position
    (a seen value's first occurrence above it, or the consecutive meet law
    for a fresh value) reads earlier positions only.  So RS(dom, cod) is
    made of:

    - each r in RS(dom', cod) extended by each seen value whose first
      occurrence is a strict ancestor of w: the injection is the fiberwise
      meet, so these are the distinct values of r at the strict ancestors
      of w;
    - each r in RS(dom', cod^{j-1}) extended by the fresh value j when it
      passes the consecutive meet test (_fresh_extensions).

    Both parts list their maps lexicographically, and their prefixes differ
    (j occurs in the first and not in the second), so one merge of the two
    runs gives the table in lexicographic order.
    """
    n, m = len(dom), len(cod)
    if m >= n:
        return (bytes(range(n)),) if dom == cod else ()
    if m == 1:
        return (bytes(n),)
    prefix = dom[:-1]
    up, path = _strict_ancestors(dom)
    same = _prefix_table(prefix, cod)
    if len(path) == 1:  # w hangs from the root, whose value is 0
        seen = [p + _ROW[0] for p in same]
    elif len(path) == len(prefix):  # every earlier vertex is above w: all m values are seen
        tails = _ROW[:m]
        seen = [p + v for p in same for v in tails]
    else:
        on_path = itemgetter(*path)
        seen = [p + _ROW[v] for p in same for v in sorted(set(on_path(p)))]
    fresh = _fresh_extensions(_prefix_table(prefix, cod[:-1]), cod, up)
    return tuple(sorted(seen + fresh) if fresh else seen)


_DEPTH = 200  # prefix levels that one call of _prefix_table may recurse through


def _fill_from_below(dom: tuple, cod: tuple) -> None:
    """Fill the prefix tables that _prefix_table(dom, cod) reads, from below in
    steps of _DEPTH levels, so that no recursion descends further.  Each level
    drops at most one codomain vertex, so the prefix of L vertices needs only
    the codomain prefixes of at least |cod| - (|dom| - L) vertices.
    """
    n, m = len(dom), len(cod)
    for size in range(_DEPTH, n, _DEPTH):
        for j in range(max(1, m - (n - size)), m + 1):
            _prefix_table(dom[:size], cod[:j])


@lru_cache(maxsize=None)
def all_embeddings(dom: OrderedTree, cod: OrderedTree, /) -> tuple[TreeMap, ...]:
    """The embeddings dom -> cod in lexicographic order by value tuple.

    Embeddings are strictly increasing in the canonical numbering (monotone +
    injective), fix the root, and preserve meets.

    The value tuples on the prefix dom^{v-1} are extended one domain vertex
    v at a time: v may take a value t of cod when t > e(v-1) and
    meet(e(v-1), t) = e(parent(v)), the consecutive meet law.
    """
    ns, nt = dom.n, cod.n
    if ns > nt:
        return ()
    anc = cod.anc_mask
    table = [(0,)]  # root goes to root
    for v in range(1, ns):
        par = dom.parent[v]
        table = [
            vals + (t,)
            for vals in table
            for t in range(vals[-1] + 1, nt - (ns - v) + 1)
            if (anc[vals[-1]] & anc[t]).bit_length() - 1 == vals[par]
        ]
    return tuple(TreeMap(dom, cod, vals) for vals in table)


@lru_cache(maxsize=None)
def rigid_surjection_values(dom: OrderedTree, cod: OrderedTree, sealed: bool, /) -> tuple[bytes, ...]:
    """The value rows of the rigid surjections dom -> cod in lexicographic order,
    each range-checked once here.

    A row is bytes, the value at vertex i its i-th byte, so a codomain of more
    than 256 vertices raises ResourceCapExceeded before anything is built.
    With sealed, only the sealed ones.  A sealed map sends the top of dom, its
    last vertex, to the top of cod as a first occurrence, so with |cod| < |dom|
    the sealed maps are the fresh-top extensions of RS(dom', cod minus its
    top), and there are none onto one vertex; otherwise the only candidate, the
    identity, is sealed.
    """
    if cod.n > _BYTE_VALUES:
        raise ResourceCapExceeded(
            f"value rows take codomains of at most {_BYTE_VALUES} vertices, got {cod.n}"
        )
    d, c = dom.parent, cod.parent
    top = sealed and len(c) < len(d)
    if top:
        if len(c) == 1:
            return ()
        d, c = d[:-1], c[:-1]
    if len(d) > _DEPTH:
        _fill_from_below(d, c)
    table = _prefix_table(d, c)
    if top:
        table = tuple(_fresh_extensions(table, cod.parent, _strict_ancestors(dom.parent)[0]))
    n, m = dom.n, cod.n
    for row in table:
        if type(row) is not bytes or len(row) != n or max(row) >= m:
            _check_values(row, n, m)  # raises the exact error for a bad value or length
            raise TypeError(f"value row {row!r} is not bytes")
    return table


@lru_cache(maxsize=None)
def all_rigid_surjections(dom: OrderedTree, cod: OrderedTree, /) -> tuple[TreeMap, ...]:
    """The TreeMap view of the unsealed table, whose rows are range-checked already."""
    return tuple(_trusted_map(dom, cod, tuple(row)) for row in rigid_surjection_values(dom, cod, False))


def rigid_surjections_with_injection(e: TreeMap) -> tuple[TreeMap, ...]:
    """All rigid surjections whose injection is the given embedding.

    Many maps can share one injection; no counting formula is asserted, the
    set is simply materialized.
    """
    from .maps import injection_of

    return tuple(
        f for f in all_rigid_surjections(e.cod, e.dom) if injection_of(f) == e
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
