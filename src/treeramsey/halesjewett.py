"""Finite pigeonhole searchers and the word-to-tree transfer construction.

Everything here is a bounded search for objects the unbounded theory merely
asserts to exist: monochromatic-embedding forests, alphabet sizes for the
left-variable word lemma (single and product form), and the transfer map
pi_p: A + (S x I) -> A + S built from a word map p via leading / good /
very good points, together with the companion maps r with

    r o p^{x_v} = rho o pi_p^v.

Chains are handled positionally: A + (L x I) is the chain of size
a + l*i with the block {x} x I at positions a + x*i .. a + (x+1)*i - 1.
A sealed map onto A + 1 from an initial segment is coded as its word: the
free values (in A) strictly between A and the cut, whose length is the cut
position inside the block part.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from operator import and_, or_
from typing import Iterable, Iterator, Optional, Sequence, Union

from ._record import Frozen, Record
from .colorsearch import find_proper_coloring
from .errors import (
    BlockConditionViolated,
    NotFoundWithinBound,
    NotSealed,
    ResourceCapExceeded,
    VerificationFailed,
    VertexOutOfRange,
)
from .enumeration import all_embeddings, enum_colorings
from .maps import (
    TreeMap,
    _galois_pair,
    check_block_condition,
    classify,
    compose,
    injection_of,
    restrict_initial,
    rigid_from_embedding,
)
from .trees import (
    OrderedForest,
    OrderedTree,
    QPoint,
    TensorIndex,
    TensorPoint,
    all_forests,
    chain,
    drop_root,
    one_plus,
    oplus,
    q_set,
    tensor,
)

__all__ = [
    "monochromatic_host_search",
    "block_condition_maps",
    "hj_search",
    "hj_product_check",
    "hj_product_search",
    "PointFlags",
    "classify_point",
    "very_good_word",
    "build_pi",
    "build_r",
    "build_r_plain",
    "lp_pipeline",
]

DEFAULT_MAX_COLORINGS = 1 << 20


# ---------------------------------------------------------------------------
# vertex pigeonhole: monochromatic embedded copies


def _forest_embeddings(s: OrderedForest, t: OrderedForest) -> list[tuple[int, ...]]:
    """Tree embeddings between forests = embeddings of the rooted versions."""
    out = []
    for e in all_embeddings(one_plus(s), one_plus(t)):
        out.append(tuple(v - 1 for v in e.values[1:]))
    return out


def monochromatic_host_search(
    s: Union[OrderedTree, OrderedForest], b: int, max_size: int, max_nodes: Optional[int] = None
) -> Union[OrderedTree, OrderedForest]:
    """Smallest forest/tree S' such that every b-coloring of its vertices admits an
    embedded copy of S that is monochromatic (off the root, in the tree case).

    Candidates are scanned by vertex count and then enumeration order, each
    decided by the coloring solver with the embedding images as edges; a
    candidate past the solver's node cap (max_nodes, or the RAMSEY_MAX_NODES
    default) raises ResourceCapExceeded.  A tree is decided as its forest
    without the root, which is on no edge.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    tree_mode = isinstance(s, OrderedTree)
    f = drop_root(s) if tree_mode else s
    for n in range(f.n, max_size - tree_mode + 1):
        for cand in all_forests(n):
            # an embedding is strictly increasing, so its images are increasing tuples
            if find_proper_coloring(cand.n, _forest_embeddings(f, cand), b, max_nodes).holds:
                return one_plus(cand) if tree_mode else cand
    raise NotFoundWithinBound(f"no monochromatic-guarantee host within {max_size} vertices")


# ---------------------------------------------------------------------------
# word machinery on chains


def block_condition_maps(a: int, l: int, i: int) -> Iterator[tuple[int, ...]]:
    """All maps A + (L x I) -> A + L with the block condition, as full value tuples."""
    return (p for (p,) in _candidate_tuples([a], [l], i, "direct"))


def _block_choices(a: int, x: int, i: int) -> list[tuple[int, ...]]:
    """Block x of a block-condition map: the i-tuples over A + {a + x} that hit a + x."""
    target = a + x
    return [blk for blk in itertools.product([*range(a), target], repeat=i) if target in blk]


def count_block_maps(a: int, l: int, i: int) -> int:
    return ((a + 1) ** i - a**i) ** l


def _first_hit(p: Sequence[int], a: int, i: int, x: int) -> int:
    """Local position of min p^{-1}(a + x) inside the block part."""
    base = x * i
    for j in range(i):
        if p[a + base + j] == a + x:
            return base + j
    raise BlockConditionViolated(f"block {x} never hits its target")


# ---------------------------------------------------------------------------
# the left-variable word lemma, single and product form


class HJCertificate(Record):
    """Per-coloring witnesses: coloring index -> the word maps making colors depend
    only on the cut block."""

    _fields = ("i_size", "witnesses")

    def __init__(self, i_size: int, witnesses: Optional[list[tuple[tuple[int, ...], ...]]] = None):
        self.i_size = i_size
        self.witnesses = [] if witnesses is None else witnesses


def _sealed_count(a: int, n: int) -> int:
    """The sealed words over A cut below n: the sum of a^c over c < n."""
    return (a**n - 1) // (a - 1) if a > 1 else (n if a == 1 else min(n, 1))


def _object_count(a_sizes: Sequence[int], l_sizes: Sequence[int], i: int) -> int:
    """The colored objects: a sealed word cut below l_0*i in slot 0, and a
    full word of length l_k*i over A_k in each later slot k."""
    count = _sealed_count(a_sizes[0], l_sizes[0] * i)
    for a, l in zip(a_sizes[1:], l_sizes[1:]):
        count *= a ** (l * i)
    return count


def _object_index(words: Sequence[Sequence[int]], a_sizes: Sequence[int]) -> int:
    """The position of the object (w_0, w_1, ..., w_{n-1}) among the colored
    objects, which index the colorings: slot 0's sealed words by cut len(w_0),
    then w_0 read in base a_0; each later slot appends its letters as
    mixed-radix digits, the last slot's last letter fastest."""
    a0, w0 = a_sizes[0], words[0]
    pos = _sealed_count(a0, len(w0)) + sum(d * a0**e for e, d in enumerate(reversed(w0)))
    for a, w in zip(a_sizes[1:], words[1:]):
        for d in w:
            pos = pos * a + d
    return pos


def _renamed_values(word: Sequence[int], a: int, l: int) -> list[int]:
    """word read in base a with each letter a + y renamed r[y], for every r in
    itertools.product(range(a), repeat=l), in that order: the letters in A
    give a constant, and each letter a + y adds r[y] times its place."""
    const, weights = 0, [0] * l
    for e, v in enumerate(reversed(word)):
        if v < a:
            const += v * a**e
        else:
            weights[v - a] += a**e
    values = [const]
    for w in weights:
        values = [v + d * w for v in values for d in range(a)]
    return values


def _refuse_negative_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"coloring cap must be >= 0, got {cap}")


def _check_coloring_cap(
    a_sizes: Sequence[int], l_sizes: Sequence[int], i: int, b: int, cap: int, pin_first: bool
) -> None:
    """Raise ResourceCapExceeded when the b-colorings of the _object_count
    objects (first color pinned or not) exceed cap.  b^count is never built:
    past cap's bit length, b >= 2 colors exceed cap.  A negative cap raises
    ValueError."""
    _refuse_negative_cap(cap)
    count = _object_count(a_sizes, l_sizes, i)
    n = max(0, count - 1) if pin_first else count
    if b ** min(n, cap.bit_length() + 1) > cap:
        shown = f"= {n}" if n.bit_length() <= 64 else f"> 2^{n.bit_length() - 1}"
        raise ResourceCapExceeded(f"{b}^n colorings, n {shown}, exceed the cap of {cap}")


def _check_sizes(a_sizes: Sequence[int], l_sizes: Sequence[int]) -> None:
    """Reject size lists the word lemma is not stated for, before any enumeration."""
    if not a_sizes or len(a_sizes) != len(l_sizes):
        raise ValueError("need non-empty A and L size lists of the same length")
    if any(a < 0 for a in a_sizes) or any(l < 0 for l in l_sizes):
        raise ValueError("A and L sizes must be non-negative")


def _conclusion_classes(
    p_tuple: Sequence[Sequence[int]],
    a_sizes: Sequence[int],
    l_sizes: Sequence[int],
    i: int,
) -> tuple[tuple[int, ...], ...]:
    """One class per cut x of slot 0: the positions (see _object_index) of
    the objects (r1 o p1^x, r2 o p2, ..., rn o pn) over every choice of the r's.

    rk o pk is pk's block part with each letter a_k + y renamed rk[y], and
    r1 o p1^x the same for p1's block part cut at the first hit of block x,
    so each slot gives a digit list by _renamed_values and no composite is
    built.  p_tuple satisfies the lemma's conclusion for a coloring iff
    every class is monochromatic (an empty class trivially is).
    """
    rest, scale = [0], 1  # the later slots' digits, in product order
    for p, a, l in zip(p_tuple[1:], a_sizes[1:], l_sizes[1:]):
        values, span = _renamed_values(p[a:], a, l), a ** (l * i)
        rest, scale = [r * span + v for r in rest for v in values], scale * span
    a0, p0 = a_sizes[0], p_tuple[0]
    classes = []
    for x in range(l_sizes[0]):
        cut = _first_hit(p0, a0, i, x)
        first = _sealed_count(a0, cut)
        classes.append(
            tuple((first + v) * scale + r for v in _renamed_values(p0[a0 : a0 + cut], a0, x) for r in rest)
        )
    return tuple(classes)


# bit r of each byte value, as a bytes.translate table per r: 2^r zeros, 2^r ones, repeated
_BIT_TABLES = tuple((bytes(1 << r) + b"\1" * (1 << r)) * (128 >> r) for r in range(8))


def _color_masks(t: int, k: int, b: int, n: int) -> list[int]:
    """One n-bit set per color c: bit j is set iff coloring j of
    enum_colorings(k, b, pin_first) gives item t color c, for the first n
    colorings (either pinning).

    Item t's color is digit k-1-t of j in base b (pinned: j lists the items
    after the first, so item 0, like any item whose digit stays 0 below n, is
    always color 0), so each set repeats one period of b*s bits,
    s = b^(k-1-t), doubled by shifts.
    """
    full = (1 << n) - 1
    s = b ** (k - 1 - t)
    if s >= n:
        return [full] + [0] * (b - 1)
    masks = []
    for c in range(b):
        mask, width = ((1 << s) - 1) << (c * s), b * s
        while width < n:
            mask |= mask << width
            width <<= 1
        masks.append(mask & full)
    return masks


def _witness_indices(hits: Sequence[tuple[int, int]], n: int) -> Sequence[int]:
    """Per coloring j < n, the index idx of the hit (idx, set) whose
    set holds bit j (the sets partition the n colorings).

    The indices are bit-sliced: slice q is the union of the sets whose idx has
    bit q.  Each slice is spread to one lane of w bytes per coloring (w = 1
    for indices below 256, else 4), bit r of each of its bytes translated
    into the lanes r, r + 8, ..., and shifted to bit q of its lane, so the
    union of the slices holds each coloring's index in its lane.
    """
    bits = max(idx for idx, _ in hits).bit_length()
    width = 1 if bits <= 8 else 4
    nbytes = (n + 7) // 8
    total = 0
    for q in range(bits):
        part = 0
        for idx, hit in hits:
            if idx >> q & 1:
                part |= hit
        packed, spread = part.to_bytes(nbytes, "little"), bytearray(nbytes * 8 * width)
        for r, table in enumerate(_BIT_TABLES):
            spread[r * width :: 8 * width] = packed.translate(table)
        total |= int.from_bytes(spread, "little") << q
    lanes = total.to_bytes(nbytes * 8 * width, "little")
    if width == 1:
        return lanes[:n]
    return struct.unpack_from(f"<{n}I", lanes)


def _sweep(compiled: Iterable[tuple], k: int, b: int, n: int) -> Optional[list]:
    """For the first n b-colorings of k items in enum_colorings order (either
    pinning), the pairs (candidate, set) where set, as bits of one integer,
    holds the colorings whose first holding candidate it is; None if one of
    them defeats every candidate.

    compiled yields each candidate with its (anchor, member) pairs.  A pair's
    "same color" set is the union over colors c of the intersection of both
    items' color-c _color_masks, a candidate's satisfying set is the
    intersection over its pairs, and the candidates in order take the
    colorings still unassigned; none is pulled once all are taken.
    """
    masks: dict[int, list[int]] = {}
    same: dict[tuple[int, int], int] = {}

    def color_masks(t: int) -> list[int]:
        if t not in masks:
            masks[t] = _color_masks(t, k, b, n)
        return masks[t]

    def same_color(pair: tuple[int, int]) -> int:
        if pair not in same:
            mf, mg = map(color_masks, pair)
            same[pair] = functools.reduce(or_, map(and_, mf, mg))
        return same[pair]

    remaining, hits = (1 << n) - 1, []
    for p_tuple, pairs in compiled:
        hit = remaining
        for pair in pairs:
            hit &= same_color(pair)
            if not hit:
                break
        if hit:
            hits.append((p_tuple, hit))
            remaining ^= hit
            if not remaining:
                return hits
    return None


def _word_lemma_witnesses(
    a_sizes: Sequence[int],
    l_sizes: Sequence[int],
    i: int,
    b: int,
    max_colorings: int,
    *,
    pin_first: bool,
    mode: str = "direct",
) -> Optional[tuple[int, list[tuple[tuple[int, ...], ...]]]]:
    """The colored objects' count (_object_count) and, for every b-coloring
    of them in enum_colorings order, the first candidate of the mode whose
    conclusion holds; None once a coloring defeats every candidate.

    A candidate is compiled when a sweep first reaches it: its classes are
    monochromatic iff every object of a class has the color of the class's
    smallest position, a set of (anchor, member) pairs.  _sweep decides the
    colorings all at once, first on prefixes of them and then on all; each
    sweep reaches at least as far as the one before, so tee hands it the
    candidates already compiled.  The witnesses are read off the winners'
    sets of colorings.
    """
    if b < 1:
        raise ValueError("need b >= 1")
    _check_coloring_cap(a_sizes, l_sizes, i, b, max_colorings, pin_first)

    def compile_all() -> Iterator[tuple[tuple, list[tuple[int, int]]]]:
        for p_tuple in _candidate_tuples(a_sizes, l_sizes, i, mode):
            anchored = ((min(c), c) for c in _conclusion_classes(p_tuple, a_sizes, l_sizes, i) if c)
            yield p_tuple, sorted({(m, k) for m, c in anchored for k in c if k != m})

    k = _object_count(a_sizes, l_sizes, i)
    n = b ** (k - 1 if pin_first and k else k)
    # the first 2^10, 2^14, ... colorings are swept before all n, so a defeat
    # among the early colorings costs about as much as those colorings
    widths = [1 << q for q in range(10, n.bit_length(), 4) if 1 << q < n] + [n]
    for width, compiled in zip(widths, itertools.tee(compile_all(), len(widths))):
        hits = _sweep(compiled, k, b, width)
        if hits is None:
            return None
    winners, sets = zip(*hits)
    return k, list(map(winners.__getitem__, _witness_indices(list(enumerate(sets)), n)))


def hj_product_check(
    a_sizes: Sequence[int],
    l_sizes: Sequence[int],
    b: int,
    i: int,
    mode: str = "direct",
    max_colorings: int = DEFAULT_MAX_COLORINGS,
) -> Optional[HJCertificate]:
    """Does alphabet size i satisfy the product word lemma for these parameters?

    direct mode searches over all tuples of block-condition maps; reduction
    mode searches only tuples obtained from a single block-condition map over
    the lexicographic product of the A's and the concatenation of the L's,
    split through coordinate projections.  Returns one witness per coloring
    with the first object's color pinned (every other coloring is a recoloring
    of a pinned one, and the conclusion is color-permutation invariant), or
    None if some coloring defeats every candidate.
    """
    if mode not in ("direct", "reduction"):
        raise ValueError("mode must be 'direct' or 'reduction'")
    _check_sizes(a_sizes, l_sizes)
    found = _word_lemma_witnesses(a_sizes, l_sizes, i, b, max_colorings, pin_first=True, mode=mode)
    return None if found is None else HJCertificate(i, found[1])


def _candidate_tuples(
    a_sizes: Sequence[int], l_sizes: Sequence[int], i: int, mode: str
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The mode's candidates, one block-condition map per slot, in the order of
    one product over the blocks of all slots: direct takes the blocks in slot
    order; reduction those of one map over A_n x ... x A_1 (slot 0's digit
    fastest) and L_n + ... + L_1, each block choice projected to its slot."""
    if mode == "direct":
        slot_blocks = [[_block_choices(a, x, i) for x in range(l)] for a, l in zip(a_sizes, l_sizes)]
    else:
        a_prod = math.prod(a_sizes)
        slot_blocks = [  # block x of slot k is block L_n + ... + L_{k+2} + x of L'
            [[tuple(v // math.prod(a_sizes[:k]) % a if v < a_prod else a + x for v in blk)
              for blk in _block_choices(a_prod, sum(l_sizes[k + 1 :]) + x, i)] for x in range(l)]
            for k, (a, l) in enumerate(zip(a_sizes, l_sizes))
        ]

    def parts(k: int) -> Iterator[tuple[int, ...]]:  # slot k's maps, each built once
        for combo in itertools.product(*slot_blocks[k]):
            part = tuple(itertools.chain(range(a_sizes[k]), *combo))
            if mode == "reduction" and not check_block_condition(part, a_sizes[k], l_sizes[k], i):
                raise VerificationFailed(f"projection {k}, {part}, fails the block condition")
            yield part

    order = range(len(a_sizes)) if mode == "direct" else reversed(range(len(a_sizes)))
    return _lazy_product([itertools.tee(parts(k), 1)[0] for k in order], mode == "reduction")


def _lazy_product(pools: list, reverse: bool) -> Iterator[tuple]:
    """itertools.product(*pools) over tee iterators, which it copies for each
    pass, so a pool is pulled no further than the product reaches and each of
    its items is built once; reverse yields every tuple back to front."""
    *outer, last = pools

    def rows(heads: tuple) -> Iterator[tuple]:
        columns = [*map(itertools.repeat, heads), last.__copy__()]
        return zip(*(columns[::-1] if reverse else columns))

    return itertools.chain.from_iterable(map(rows, _lazy_product(outer, False) if outer else [()]))


def hj_search(
    a: int, l: int, b: int, max_i: int, max_colorings: int = DEFAULT_MAX_COLORINGS
) -> HJCertificate:
    """Smallest alphabet size satisfying the single word lemma, with certificates."""
    return hj_product_search([a], [l], b, max_i, max_colorings=max_colorings)


def hj_product_search(
    a_sizes: Sequence[int],
    l_sizes: Sequence[int],
    b: int,
    max_i: int,
    mode: str = "direct",
    max_colorings: int = DEFAULT_MAX_COLORINGS,
) -> HJCertificate:
    _check_sizes(a_sizes, l_sizes)
    _refuse_negative_cap(max_colorings)
    for i in range(1, max_i + 1):
        cert = hj_product_check(a_sizes, l_sizes, b, i, mode=mode, max_colorings=max_colorings)
        if cert is not None:
            return cert
    raise NotFoundWithinBound(f"no alphabet size up to {max_i} works")


# ---------------------------------------------------------------------------
# leading / good / very good points and the transfer maps


class PointFlags(Frozen):
    _fields = ("leading", "good", "very_good")

    def __init__(self, leading: bool, good: bool, very_good: bool):
        self._set(leading=leading, good=good, very_good=very_good)


TOP = object()  # the value of a symbolic sealed rho at its cut


class TransferCell:
    """Transfer tables for one (forest, alphabet size, A size) cell.

    A word map p is a full value tuple over the chain A + (Q x I) with the
    block condition; Q x I is identified with S x I positionally, block qq at
    positions qq*i .. qq*i + i - 1.  The very good word of v is its parent's
    plus the first hit of v's on-path block x_v = QPoint(v, parent's word),
    and a cut is on a very good path iff it is its vertex's x_v (_words
    builds the words and their cuts in one pass, parents first); a point is
    leading iff its last letter is its block's first hit, and good iff p
    hits its own block and that block is on-path.  check_word_map decides
    the transfer identities symbolically over opaque rho-values, so one pass
    covers every sealed (and plain) rho exactly; companion reads r off rho
    for symbolic and concrete rho alike.

    Locality: check_word_map reads p only through the very good words (one
    letter per vertex; they fix j_p and the cuts x_v) and the single values
    p[w], which alone fix pi_p(w), the Galois-pair conditions at w and both
    identities at w.  An off-path block's minimum only limits its values:
    over all its minima, position 0 takes A or the target, every later one
    A + {target}.
    """

    def __init__(self, s: OrderedForest, i_size: int, a_size: int):
        self.s, self.i, self.a = s, i_size, a_size
        self.tensor = tensor(s, i_size)
        self.q = q_set(s, i_size)
        self.nq = len(self.q.points)
        self.n_block = self.tensor.forest.n
        self.dom_tree = oplus(a_size, self.tensor.forest)
        self.cod_tree = oplus(a_size, s)
        self.dom_anc = self.dom_tree.anc_mask

    def word_count(self) -> int:
        return count_block_maps(self.a, self.nq, self.i)

    def _words(self, letter) -> tuple[list[tuple[int, ...]], list[int]]:
        """Very good words and their cuts x_v, parents first: x_v is v's
        on-path block QPoint(v, parent's word), and letter(x_v, v) the first
        hit in it.  A cut qq lies on a very good path iff x[points[qq].s] == qq."""
        words: list[tuple[int, ...]] = []
        x: list[int] = []
        for v, par in enumerate(self.s.parent):
            u = () if par is None else words[par]
            qq = self.q.position_of[QPoint(v, u)]
            words.append(u + (letter(qq, v),))
            x.append(qq)
        return words, x

    def structure(self, p: Sequence[int]):
        """(min hit per block, very good words, and their cuts x_v per vertex)."""
        minhit = [_first_hit(p, self.a, self.i, qq) - qq * self.i for qq in range(self.nq)]
        return (minhit, *self._words(lambda qq, v: minhit[qq]))

    def transfer_maps(self, p: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
        """(values of pi_p on A + (S x I), values of j_p on A + S, the cuts
        x_v of p's very good words); build_pi says what pi_p and j_p are.
        Block qq of S x I is the interval from qq*i, so j_p(v) = a + x_v*i +
        the last letter of v's word."""
        a, i = self.a, self.i
        _, words, x = self.structure(p)
        points = self.q.points
        pi_vals = list(range(a))
        for pos in range(self.n_block):
            pv = p[a + pos]
            if pv < a:
                pi_vals.append(pv)
                continue
            qq = pv - a
            sv = points[qq].s
            pi_vals.append(a + sv if qq == pos // i and x[sv] == qq else 0)  # else min A
        j_vals = list(range(a)) + [a + x_v * i + word[-1] for x_v, word in zip(x, words)]
        return pi_vals, j_vals, x

    def companion(self, x: Sequence[int], rho: Sequence, length: int) -> list:
        """The values of the companion r on the first length cuts of Q: rho(s)
        on the cut x_s, the very good path of its vertex s, and min A off the
        paths.  rho lists its values on S by vertex, symbolic or concrete."""
        return [rho[pt.s] if x[pt.s] == qq else 0 for qq, pt in enumerate(self.q.points[:length])]

    def check_word_map(self, p: Sequence[int]) -> None:
        """Verify the full executable transfer lemma for one word map.

        Raises VerificationFailed on any violation.  That j witnesses the
        rigidity of pi is decided by the shared Galois-pair check of maps.
        Once it passes, j is also the injection the generic classifier
        (maps.injection_of) would compute for pi: pi o j = id puts j(v) in
        v's fibre, and j o pi below id puts j(v) below every vertex of that
        fibre, so j(v) is the fibre's least vertex, its first occurrence in
        pi.  That first-occurrence candidate is the one injection_of builds,
        and it runs the same Galois-pair check on the same pair.
        """
        a, s = self.a, self.s
        pi_vals, j_vals, x = self.transfer_maps(p)
        if not _galois_pair(self.dom_anc, self.cod_tree.parent, pi_vals, j_vals):
            raise VerificationFailed("pi and j are not a Galois pair")

        # symbolic rho per vertex (A has one value when a = 1), and r per cut
        rho = [("rho", u) if a > 1 else 0 for u in range(s.n)]
        r = self.companion(x, rho, self.nq)

        # transfer identity, sealed variant for every cut vertex
        for v in range(s.n):
            for w in range(a, j_vals[a + v] + 1):
                pv, image = p[w], pi_vals[w]
                lhs = pv if pv < a else TOP if pv - a == x[v] else r[pv - a]
                rhs = image if image < a else TOP if image - a == v else rho[image - a]
                if lhs != rhs:
                    raise VerificationFailed(f"sealed transfer identity fails at v={v}, w={w}")

        # plain variant over the whole domain
        for w in range(a, a + self.n_block):
            pv, image = p[w], pi_vals[w]
            lhs = pv if pv < a else r[pv - a]
            rhs = image if image < a else rho[image - a]
            if lhs != rhs:
                raise VerificationFailed(f"plain transfer identity fails at w={w}")

    def covering_family(self) -> Iterator[tuple[int, ...]]:
        """Block-condition maps that pass check_word_map iff every word map does.

        Per choice of one letter per vertex, the on-path minima are those
        letters and every off-path minimum is 0, or 1 in a second vector when
        some block is off the path: together A + {target} at every off-path
        position.  The maps with minima m are a product (A before a block's
        hit, the target at it, A + {target} after); map k puts
        allowed[w][min(k, len - 1)] at each w, so the max|allowed| maps meet
        every allowed value at every position, which by locality suffices.
        """
        a, i = self.a, self.i
        in_a = list(range(a))
        off_path_minima = (0, 1) if self.nq > self.s.n else (0,)
        for letters in itertools.product(range(i), repeat=self.s.n):
            on_path_minima = dict(zip(self._words(lambda qq, v: letters[v])[1], letters))
            for off in off_path_minima:
                allowed: list[list[int]] = [[v] for v in in_a]
                for qq in range(self.nq):
                    m, target = on_path_minima.get(qq, off), [a + qq]
                    allowed += [in_a] * m + [target] + [in_a + target] * (i - 1 - m)
                for k in range(max(map(len, allowed))):
                    yield tuple(vals[min(k, len(vals) - 1)] for vals in allowed)

    def covering_bound(self) -> int:
        """Maps in covering_family at most: a+1 per vector, 2 vectors need i >= 2."""
        return (2 if self.nq > self.s.n else 1) * self.i**self.s.n * (self.a + 1)


def _checked_cell(s: OrderedForest, i_size: int, a_size: int, p: Sequence[int]) -> TransferCell:
    """The cell of (s, i_size, a_size), after checking p's block condition."""
    cell = TransferCell(s, i_size, a_size)
    if not check_block_condition(p, a_size, cell.nq, i_size):
        raise BlockConditionViolated("p does not satisfy the block condition")
    return cell


def classify_point(
    s: OrderedForest, i_size: int, a_size: int, p: Sequence[int], point: tuple[int, tuple[int, ...]]
) -> PointFlags:
    """The leading / good / very good flags of a point (vertex, word) of S x I under p."""
    cell = _checked_cell(s, i_size, a_size, p)
    minhit, _, x = cell.structure(p)
    sv, word = point[0], tuple(point[1])
    pos = cell.tensor.vertex_of.get(TensorPoint(sv, word))
    if pos is None:
        raise VertexOutOfRange(f"({sv}, {word}) is not a point of S x I")
    qq = pos // i_size
    leading = word[-1] == minhit[qq]
    on_path = x[sv] == qq
    return PointFlags(
        leading=leading,
        good=p[a_size + pos] == a_size + qq and on_path,
        very_good=leading and on_path,
    )


def very_good_word(
    s: OrderedForest, i_size: int, a_size: int, p: Sequence[int], s_vertex: int
) -> tuple[int, ...]:
    """The unique word making (s_vertex, word) very good."""
    _check_vertex(s, s_vertex)
    return _checked_cell(s, i_size, a_size, p).structure(p)[1][s_vertex]


def _check_vertex(s: OrderedForest, v: int) -> None:
    if not 0 <= v < s.n:
        raise VertexOutOfRange(f"vertex {v} not in forest of size {s.n}")


def _pi_and_j(cell: TransferCell, p: Sequence[int]) -> tuple[TreeMap, TreeMap, list[int]]:
    """pi_p and j_p as tree maps, verified to be a rigid surjection with that
    exact injection, and the cuts x_v of p's very good words."""
    pi_vals, j_vals, x = cell.transfer_maps(p)
    pi = TreeMap(cell.dom_tree, cell.cod_tree, tuple(pi_vals))
    j = TreeMap(cell.cod_tree, cell.dom_tree, tuple(j_vals))
    if injection_of(pi) != j:  # raises NotRigid when pi is not rigid
        raise BlockConditionViolated("transfer map's injection differs from the very-good embedding")
    return pi, j, x


def build_pi(
    s: OrderedForest, i_size: int, a_size: int, p: Sequence[int]
) -> tuple[TreeMap, TreeMap]:
    """The transfer surjection pi_p: A + (S x I) -> A + S and its injection j_p.

    pi keeps A fixed, sends a point to its forest vertex when good, to p's
    A-value when p lands in A, and to min A otherwise; j sends each forest
    vertex to its very good point.  The pair is verified to be a rigid
    surjection with that exact injection.
    """
    pi, j, _ = _pi_and_j(_checked_cell(s, i_size, a_size, p), p)
    return pi, j


def build_r(
    s: OrderedForest,
    i_size: int,
    a_size: int,
    p: Sequence[int],
    v: int,
    rho: TreeMap,
) -> TreeMap:
    """The sealed companion r: A + Q^{x_v} -> A + 1 with r o p^{x_v} = rho o pi_p^v.

    rho must be a sealed identity-on-A map from A + S^v onto A + 1; the
    identity is verified pointwise before returning.  A vertex v outside S
    raises VertexOutOfRange before anything else is checked.
    """
    _check_vertex(s, v)
    cell = _checked_cell(s, i_size, a_size, p)
    a = a_size
    exp_dom = oplus(a, _forest_prefix(s, v))
    if rho.dom != exp_dom or rho.cod.n != a + 1 or not classify(rho).sealed:
        raise NotSealed("rho must be a sealed identity-on-A map from A + S^v onto A + 1")
    if any(rho.values[k] != k for k in range(a)):
        raise NotSealed("rho must fix A pointwise")
    pi, _, x = _pi_and_j(cell, p)
    x_v = x[v]
    r_vals = tuple(range(a)) + tuple(cell.companion(x, rho.values[a:], x_v)) + (a,)
    r = TreeMap(chain(a + x_v + 1), rho.cod, r_vals)
    # verify the transfer identity pointwise; p lives on the chain A + (Q x I),
    # pi on the tree A + (S x I), equal as linear orders, so compare values
    left = compose(r, restrict_initial(_p_as_chain_map(cell, p), a + x_v))
    right = compose(rho, restrict_initial(pi, a + v))
    if left.values != right.values:
        raise BlockConditionViolated("transfer identity fails")
    return r


def build_r_plain(
    s: OrderedForest, i_size: int, a_size: int, p: Sequence[int], rho: TreeMap
) -> TreeMap:
    """The companion r: A + Q -> A with r o p = rho o pi_p, for rho: A + S -> A."""
    cell = _checked_cell(s, i_size, a_size, p)
    a = a_size
    if rho.dom != oplus(a, s) or rho.cod.n != a or any(rho.values[k] != k for k in range(a)):
        raise NotSealed("rho must be an identity-on-A map from A + S to A")
    pi, _, x = _pi_and_j(cell, p)
    r_vals = tuple(range(a)) + tuple(cell.companion(x, rho.values[a:], cell.nq))
    r = TreeMap(chain(a + cell.nq), rho.cod, r_vals)
    if compose(r, _p_as_chain_map(cell, p)).values != compose(rho, pi).values:
        raise BlockConditionViolated("plain transfer identity fails")
    return r


def _p_as_chain_map(cell: TransferCell, p: Sequence[int]) -> TreeMap:
    """p as a map of chains A + (Q x I) -> A + Q (the word-side view of p)."""
    return TreeMap(chain(cell.a + cell.nq * cell.i), chain(cell.a + cell.nq), tuple(p))


def _forest_prefix(s: OrderedForest, v: int) -> OrderedForest:
    return OrderedForest(s.parent[: v + 1])


# ---------------------------------------------------------------------------
# end-to-end pigeonhole pipeline


class PipelineCertificate(Record):
    """One coloring's witness bundle: the word maps, the transfer maps t_i (value
    tuples over A_i + V_i), and the single color every admissible tuple gets."""

    _fields = ("coloring", "word_maps", "t_maps", "color")

    def __init__(
        self,
        coloring: tuple[int, ...],
        word_maps: tuple[tuple[int, ...], ...],
        t_maps: tuple[tuple[int, ...], ...],
        color: int,
    ):
        self.coloring = coloring
        self.word_maps = word_maps
        self.t_maps = t_maps
        self.color = color


class PipelineResult(Record):
    _fields = ("i_size", "host", "tensors", "certificates")

    def __init__(
        self,
        i_size: int,
        host: OrderedForest,
        tensors: list[TensorIndex],
        certificates: list[PipelineCertificate],
    ):
        self.i_size = i_size
        self.host = host  # the monochromatic-guarantee replacement of the first forest
        self.tensors = tensors  # V_1 = host x I, V_k = T_k x I
        self.certificates = certificates


def _sealed_word_of_map(u: TreeMap, a: int) -> tuple[int, ...]:
    """Read a sealed identity-on-A map onto A + 1 back into its word, the
    values strictly between A and the cut."""
    vals = u.values[a : u.dom.n - 1]
    if u.values[u.dom.n - 1] != a or any(v >= a for v in vals):
        raise VerificationFailed(f"{u.values} is not a sealed identity-on-A map onto A + 1")
    return tuple(vals)


def _sealed_tree_map(a: int, forest_prefix: OrderedForest, vals: Sequence[int]) -> TreeMap:
    """The sealed identity-on-A map A + F^v -> A + 1 with the given free values."""
    return TreeMap(oplus(a, forest_prefix), chain(a + 1), tuple(range(a)) + tuple(vals) + (a,))


def lp_pipeline(
    a_sizes: Sequence[int],
    forests: Sequence[OrderedForest],
    b: int,
    max_host_size: int = 8,
    max_i: int = 3,
    max_colorings: int = DEFAULT_MAX_COLORINGS,
    max_nodes: Optional[int] = None,
) -> PipelineResult:
    """Produce forests V_i and, per coloring, maps t_i realizing the pigeonhole claim.

    Chain: replace the first forest by its monochromatic-guarantee host, fan
    every forest out along an alphabet found by the product word lemma (with
    the level cuts of the fanned-out forests as the letter blocks), transfer
    the word witnesses to tree maps, and compose the first with a map built
    from a monochromatic embedding.  Every certificate is verified by
    exhausting the admissible tuples.  max_nodes caps each host candidate's
    solver search (see monochromatic_host_search).
    """
    n = len(a_sizes)
    if n != len(forests) or n == 0:
        raise ValueError("need matching non-empty parameter lists")
    if forests[0].n == 0:
        raise ValueError("the first forest must be non-empty")
    _refuse_negative_cap(max_colorings)  # before the host search runs
    host = monochromatic_host_search(forests[0], b, max_host_size, max_nodes)
    bases = [host] + list(forests[1:])
    for i_size in range(1, max_i + 1):
        qs = [q_set(f, i_size) for f in bases]
        l_sizes = [len(q.points) for q in qs]
        found = _word_lemma_witnesses(a_sizes, l_sizes, i_size, b, max_colorings, pin_first=False)
        if found is None:
            continue
        count, witnesses = found
        tensors = [tensor(f, i_size) for f in bases]
        certificates = [
            _assemble_certificate(a_sizes, forests, bases, i_size, coloring, p_tuple)
            for coloring, p_tuple in zip(enum_colorings(count, b), witnesses)
        ]
        return PipelineResult(i_size, host, tensors, certificates)
    raise NotFoundWithinBound(f"no alphabet size up to {max_i} completes the pipeline")


def _cut_colors(
    a_sizes: Sequence[int],
    first_forest: OrderedForest,
    t: TreeMap,
    v: int,
    later: Sequence[list[tuple[int, ...]]],
    coloring: Sequence[int],
) -> set[int]:
    """The colors of every admissible tuple whose first slot is cut at v: a sealed
    map A1 + F^v -> A1 + 1 composed through t, then any choice of later slots."""
    a1 = a_sizes[0]
    colors = set()
    pre = _forest_prefix(first_forest, v)
    t_v = restrict_initial(t, a1 + v)
    for s1_vals in itertools.product(range(a1), repeat=v):
        s1 = _sealed_tree_map(a1, pre, s1_vals)
        first = _sealed_word_of_map(compose(s1, t_v), a1)
        for rest in itertools.product(*later):
            colors.add(coloring[_object_index((first, *rest), a_sizes)])
    return colors


def _assemble_certificate(
    a_sizes: Sequence[int],
    forests: Sequence[OrderedForest],
    bases: Sequence[OrderedForest],
    i_size: int,
    coloring: tuple[int, ...],
    p_tuple: Sequence[tuple[int, ...]],
) -> PipelineCertificate:
    n = len(a_sizes)
    a1 = a_sizes[0]
    host = bases[0]
    pis = [build_pi(bases[k], i_size, a_sizes[k], p_tuple[k])[0] for k in range(n)]

    # the later slots keep their forests and transfer maps, so their composites
    # serve both the host coloring and the final check
    later = [
        [
            tuple(
                compose(
                    TreeMap(oplus(a_sizes[k], bases[k]), chain(a_sizes[k]), tuple(range(a_sizes[k])) + tuple(rv)),
                    pis[k],
                ).values[a_sizes[k] :]
            )
            for rv in itertools.product(range(a_sizes[k]), repeat=bases[k].n)
        ]
        for k in range(1, n)
    ]
    # composing any admissible tuple through the transfer maps colors host vertices
    host_color = {}
    for v in range(host.n):
        colors = _cut_colors(a_sizes, host, pis[0], v, later, coloring)
        if len(colors) != 1:
            raise VerificationFailed("transfer failed to make the color depend on the vertex only")
        host_color[v] = colors.pop()

    embedding = next(
        e
        for e in _forest_embeddings(forests[0], host)
        if len({host_color[x] for x in e}) <= 1
    )
    e_map = TreeMap(
        oplus(a1, forests[0]),
        oplus(a1, host),
        tuple(range(a1)) + tuple(a1 + x for x in embedding),
    )
    t1 = compose(rigid_from_embedding(e_map), pis[0])

    # final verification: one color across every admissible composite tuple
    final_colors = set().union(
        *(_cut_colors(a_sizes, forests[0], t1, w, later, coloring) for w in range(forests[0].n))
    )
    if len(final_colors) != 1:
        raise VerificationFailed("pipeline output is not monochromatic")
    return PipelineCertificate(
        coloring,
        tuple(tuple(p) for p in p_tuple),
        (t1.values, *(pi.values for pi in pis[1:])),
        final_colors.pop(),
    )


# ---------------------------------------------------------------------------
# batched verification of the transfer lemma over whole word-map families


def verify_transfer_cell(
    s: OrderedForest,
    i_size: int,
    a_size: int,
    exhaustive_budget: int = 200_000,
) -> tuple[int, bool]:
    """Verify the transfer lemma on every word map of an (S, I, A) cell.

    A word map passes through its very good words (one letter per vertex)
    and its single values, and an off-path block's minimum only limits its
    values (see TransferCell), so covering_family, at most covering_bound()
    = 2 * i^|S| * (a+1) <= i^|Q| * (a+1) maps, decides every word map
    exactly; a larger bound than exhaustive_budget raises
    ResourceCapExceeded, a negative budget ValueError.  Returns (word maps
    verified, True).
    """
    if exhaustive_budget < 0:
        raise ValueError(f"exhaustive budget must be >= 0, got {exhaustive_budget}")
    cell = TransferCell(s, i_size, a_size)
    bound = cell.covering_bound()
    if bound > exhaustive_budget:
        raise ResourceCapExceeded(f"covering family of up to {bound} maps exceeds budget {exhaustive_budget}")
    for p in cell.covering_family():
        cell.check_word_map(p)
    return cell.word_count(), True
