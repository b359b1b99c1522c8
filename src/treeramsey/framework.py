"""The normed composition space of sealed rigid surjections and its Ramsey domain.

Elements live between initial subtrees of tagged ambient trees, which stand in
for a fixed family of pairwise disjoint host trees: one tagged instance per
isomorphism class, created on demand.  In canonical encoding an initial
subtree is just a prefix, so an element is (ambient_dom, cut_dom, ambient_cod,
cut_cod, values).

The product g * f = f o g^y is defined when the domain of f is an initial
subtree of the codomain of g inside the same ambient tree (y = f's codomain-
side cut); the truncation cuts the codomain below its second largest vertex;
the norm is the domain, ordered by initial-subtree containment.  Exhaustive
checkers verify the composition-space axioms, the Ramsey-domain axioms, and
the pigeonhole/Ramsey conditions on finite universes built from all trees up
to a size bound.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

from . import colorsearch
from ._record import Frozen, Record
from .enumeration import rigid_surjection_values
from .errors import NotComposable, NotSealed, VertexOutOfRange
from .maps import _cached_injection_values, _check_values
from .trees import OrderedTree, all_trees, initial_subtree

__all__ = [
    "Ambient",
    "DomainElement",
    "FamilySet",
    "maximal_elements",
    "space_mul",
    "truncate",
    "extends",
    "fiber",
    "extenders",
    "family_mul",
    "Universe",
    "check_space_axioms",
    "check_domain_axioms",
    "check_R",
    "check_LP",
    "ConditionReport",
    "AxiomReport",
]


class Ambient(Frozen):
    """A tagged host tree; distinct tags emulate pairwise disjoint copies."""

    _fields = ("tag", "tree")

    def __init__(self, tag: str, tree: OrderedTree):
        self._set(tag=tag, tree=tree)

    def __repr__(self) -> str:
        return f"Ambient({self.tag}, n={self.tree.n})"


class DomainElement(Frozen):
    """A sealed rigid surjection between initial subtrees of ambient trees.

    Equality and hashing use the five constructor fields; ``injection`` is
    derived from them."""

    _fields = ("amb_dom", "cut_dom", "amb_cod", "cut_cod", "values")

    def __init__(
        self,
        amb_dom: Ambient,
        cut_dom: int,
        amb_cod: Ambient,
        cut_cod: int,
        values: tuple[int, ...],
    ):
        dom, cod = amb_dom.tree, amb_cod.tree
        if not (0 <= cut_dom < dom.n):
            raise VertexOutOfRange(f"cut_dom {cut_dom} outside ambient domain tree")
        if not (0 <= cut_cod < cod.n):
            raise VertexOutOfRange(f"cut_cod {cut_cod} outside ambient codomain tree")
        if type(values) is not tuple:  # the injection table's key needs a tuple
            values = tuple(values)
        # The initial subtrees are prefixes, so the ambient masks and parents decide rigidity.
        _check_values(values, cut_dom + 1, cut_cod + 1)
        e = _cached_injection_values(dom.anc_mask, cod.parent[: cut_cod + 1], values)
        if e is None or e[-1] != cut_dom:
            raise NotSealed(f"element values {values} are not a sealed rigid surjection")
        self._set(
            amb_dom=amb_dom,
            cut_dom=cut_dom,
            amb_cod=amb_cod,
            cut_cod=cut_cod,
            values=values,
            injection=e,
        )

    @property
    def norm(self) -> tuple[str, int]:
        """|f| = dom(f), identified by (ambient tag, cut); comparable within a tag."""
        return (self.amb_dom.tag, self.cut_dom)

    def __repr__(self) -> str:
        return (
            f"El({self.amb_dom.tag}^{self.cut_dom} -> {self.amb_cod.tag}^{self.cut_cod},"
            f" {list(self.values)})"
        )


def is_composable(g: DomainElement, f: DomainElement) -> bool:
    """g * f defined: dom(f) is an initial subtree of cod(g) in the same ambient."""
    return f.amb_dom.tag == g.amb_cod.tag and f.cut_dom <= g.cut_cod


def space_mul(g: DomainElement, f: DomainElement) -> DomainElement:
    """g * f = f o g^y where y is the top of dom(f) inside cod(g)."""
    if not is_composable(g, f):
        raise NotComposable(f"{g} * {f} undefined")
    y = f.cut_dom
    jy = g.injection[y]  # g^y's domain is the prefix up to the injection of y
    values = tuple(f.values[g.values[w]] for w in range(jy + 1))
    return DomainElement(g.amb_dom, jy, f.amb_cod, f.cut_cod, values)


def truncate(f: DomainElement) -> DomainElement:
    """Cut the codomain below its second largest vertex; fixed point on one-vertex ranges."""
    return f if f.cut_cod == 0 else restrict_element(f, f.cut_cod - 1)


def extends(b: DomainElement, a: DomainElement) -> bool:
    """b extends a: every product a * x equals b * x (and is defined for b).

    Structurally: same codomain ambient, cod(a) an initial subtree of cod(b),
    and b restricted through its injection to cod(a) equals a.  This is
    equivalent to the universal quantifier over all composable elements, which
    the tests check against the literal quantifier on a finite universe.
    """
    if b.amb_cod.tag != a.amb_cod.tag or b.cut_cod < a.cut_cod:
        return False
    iv = b.injection[a.cut_cod]
    return (
        b.amb_dom.tag == a.amb_dom.tag
        and iv == a.cut_dom
        and b.values[: iv + 1] == a.values
    )


class FamilySet(Frozen):
    """A family of elements: kind 'F' needs a full shared codomain, kind 'P' is finite
    with a shared (possibly cut) codomain; all domains live in one ambient tree."""

    _fields = ("elements", "kind")

    def __init__(self, elements: frozenset[DomainElement], kind: str):
        self._set(elements=elements, kind=kind)  # kind: 'F' or 'P'
        if not elements:
            raise ValueError("families are non-empty")
        if kind not in ("F", "P"):
            raise ValueError("kind must be 'F' or 'P'")
        els = list(elements)
        d_tags = {e.amb_dom.tag for e in els}
        cods = {(e.amb_cod.tag, e.cut_cod) for e in els}
        if len(d_tags) != 1 or len(cods) != 1:
            raise ValueError("family members must share the domain ambient and the codomain")
        if kind == "F":
            e = els[0]
            if e.cut_cod != e.amb_cod.tree.n - 1:
                raise ValueError("an F-family's common codomain must be a full ambient tree")

    @cached_property
    def d_ambient(self) -> Ambient:
        return next(iter(self.elements)).amb_dom

    @cached_property
    def r_ambient(self) -> Ambient:
        return next(iter(self.elements)).amb_cod

    @cached_property
    def r_cut(self) -> int:
        return next(iter(self.elements)).cut_cod

    def __len__(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[DomainElement]:
        return sorted(self.elements, key=_by_cut_then_values)

    def fiber_bases(self) -> list[DomainElement]:
        """The bases y of the fibres P^y, the distinct truncations of the members, sorted."""
        return sorted({truncate(x) for x in self.elements}, key=_by_cut_then_values)

    def restriction_candidates(self, y: DomainElement) -> list[DomainElement]:
        """The distinct restrictions of the members to the domain of y, sorted:
        the witnesses a with a * y defined that an (LP) scan tries."""
        restrictions = {restrict_element(x, y.cut_dom) for x in self.elements}
        return sorted(restrictions, key=_by_cut_then_values)


def _by_cut_then_values(e: DomainElement) -> tuple[int, tuple[int, ...]]:
    return (e.cut_dom, e.values)


def maximal_elements(amb_dom: Ambient, amb_cod: Ambient, cut_cod: int) -> list[DomainElement]:
    """The members of a maximal family: every sealed map from an initial
    subtree of amb_dom onto the cut cut_cod of amb_cod, ordered by domain
    cut, then by values."""
    cod = initial_subtree(amb_cod.tree, cut_cod)
    return [
        DomainElement(amb_dom, cut_dom, amb_cod, cut_cod, values)
        for cut_dom in range(amb_dom.tree.n)
        for values in rigid_surjection_values(initial_subtree(amb_dom.tree, cut_dom), cod, True)
    ]


def family_mul(f: FamilySet, g: FamilySet) -> FamilySet:
    """Pointwise product; defined when d of the right factor equals r of the left.

    The left factor must be an F-family (its codomain is then a full ambient
    tree, so every pointwise product is defined).  F * G stays an F-family;
    F * P is a P-family.
    """
    if f.kind != "F":
        raise NotComposable("left factor of a family product must be an F-family")
    if g.d_ambient.tag != f.r_ambient.tag:
        raise NotComposable("family product undefined: d(right) != r(left)")
    elements = frozenset(space_mul(x, y) for x in f.elements for y in g.elements)
    return FamilySet(elements, g.kind)


def fiber(p: FamilySet, y: DomainElement) -> Optional[FamilySet]:
    """P^y: elements of P truncating to y; None when empty."""
    sub = frozenset(x for x in p.elements if truncate(x) == y)
    return FamilySet(sub, "P") if sub else None


def extenders(f: FamilySet, a: DomainElement) -> Optional[FamilySet]:
    """F_a: elements of F extending a; None when empty."""
    sub = frozenset(x for x in f.elements if extends(x, a))
    return FamilySet(sub, f.kind) if sub else None


class Universe(Record):
    """All composition-space elements between initial subtrees of all trees <= bound.

    One tagged ambient per canonical tree; elements are every sealed rigid
    surjection between every pair of initial subtrees (same-ambient pairs
    included), listed maximal family by maximal family.
    """

    _fields = ("bound", "ambients", "elements")

    def __init__(self, bound: int):
        self.bound = bound
        self.elements = []
        trees = [t for n in range(1, bound + 1) for t in all_trees(n)]
        self.ambients = [Ambient(f"T{i}", t) for i, t in enumerate(trees)]
        groups = {}
        for amb_dom in self.ambients:
            for amb_cod in self.ambients:
                for cut_cod in range(amb_cod.tree.n):
                    members = maximal_elements(amb_dom, amb_cod, cut_cod)
                    self.elements += members
                    if members:
                        groups[(amb_dom.tag, amb_cod.tag, cut_cod)] = frozenset(members)
        self._p_families = [FamilySet(v, "P") for _, v in sorted(groups.items())]

    @cached_property
    def by_dom_tag(self) -> dict[str, list[DomainElement]]:
        out: dict[str, list[DomainElement]] = {a.tag: [] for a in self.ambients}
        for e in self.elements:
            out[e.amb_dom.tag].append(e)
        return out

    def maximal_p_families(self) -> list[FamilySet]:
        """For each (codomain prefix, domain ambient): all sealed maps onto it."""
        return list(self._p_families)

    def maximal_f_families(self) -> list[FamilySet]:
        return [
            FamilySet(p.elements, "F") for p in self._p_families if p.r_cut == p.r_ambient.tree.n - 1
        ]


class AxiomReport(Record):
    _fields = ("checked", "violations")

    def __init__(self, checked: int = 0, violations: Optional[list[str]] = None):
        self.checked = checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, msg: str) -> None:
        if len(self.violations) < 50:
            self.violations.append(msg)


Truncation = Callable[[DomainElement], DomainElement]


def check_space_axioms(bound: int, truncation: Truncation = truncate) -> AxiomReport:
    """Exhaustively verify the three composition-space axioms plus associativity.

    (i)  truncation commutes with left multiplication,
    (ii) truncation does not increase the norm,
    (iii) defined products are monotone in the right factor's norm,
    and a(bc) = (ab)c whenever both sides are defined.  The truncation is a
    parameter so tests can confirm the checker catches corrupted operations.
    """
    uni = Universe(bound)
    report = AxiomReport()
    elements = uni.elements
    index = {e: i for i, e in enumerate(elements)}
    partials = {e: truncation(e) for e in elements}

    # (ii)
    for e in elements:
        report.checked += 1
        pe = partials[e]
        if pe.amb_dom.tag != e.amb_dom.tag or pe.cut_dom > e.cut_dom:
            report.record(f"axiom (ii) fails: |d {pe}| > |{e}|")

    # products a*b over composable pairs, memoized; also record that the norm of
    # a*b depends on b only through |b| (axiom (iii) leans on this)
    products: dict[tuple[int, int], DomainElement] = {}
    norm_by_class: dict[tuple[int, int], int] = {}
    lefts_of: dict[int, list[int]] = {}
    for a in elements:
        ia = index[a]
        for b in uni.by_dom_tag.get(a.amb_cod.tag, ()):
            if b.cut_dom <= a.cut_cod:
                ab = space_mul(a, b)
                ib = index[b]
                products[(ia, ib)] = ab
                lefts_of.setdefault(ib, []).append(ia)
                prev = norm_by_class.setdefault((ia, b.cut_dom), ab.cut_dom)
                if prev != ab.cut_dom:
                    report.record(f"norm of a*b not a function of |b| at a={a}")

    # (i): d(a*b) = a*db whenever a*b and a*db are defined
    for (ia, ib), ab in products.items():
        report.checked += 1
        a, b = elements[ia], elements[ib]
        db = partials[b]
        if is_composable(a, db):
            if truncation(ab) != space_mul(a, db):
                report.record(f"axiom (i) fails at a={a}, b={b}")

    # (iii): |b| <= |c| and a*c defined => a*b defined with |a*b| <= |a*c|;
    # checked through one representative per norm class (identity elements),
    # which is exhaustive given the norm-is-a-function-of-|b| consistency above.
    reps: dict[tuple[str, int], DomainElement] = {}
    for amb in uni.ambients:
        for cut in range(amb.tree.n):
            reps[(amb.tag, cut)] = DomainElement(amb, cut, amb, cut, tuple(range(cut + 1)))
    for (ia, ic), ac in products.items():
        a, c = elements[ia], elements[ic]
        for cut_b in range(c.cut_dom + 1):  # every norm class below |c|
            report.checked += 1
            rep = reps[(c.amb_dom.tag, cut_b)]
            if not is_composable(a, rep):
                report.record(
                    f"axiom (iii) definedness fails at a={a}, |b|=({c.amb_dom.tag},{cut_b})"
                )
                continue
            ab = space_mul(a, rep)
            if ab.amb_dom.tag != ac.amb_dom.tag or ab.cut_dom > ac.cut_dom:
                report.record(f"axiom (iii) norm fails at a={a}, c={c}, |b|={rep.norm}")

    # associativity where both sides are defined
    for b in elements:
        ib = index[b]
        rights = [c for c in uni.by_dom_tag.get(b.amb_cod.tag, ()) if c.cut_dom <= b.cut_cod]
        for ia in lefts_of.get(ib, ()):
            a = elements[ia]
            ab = products[(ia, ib)]
            for c in rights:
                report.checked += 1
                bc = products[(ib, index[c])]
                left = space_mul(ab, c) if is_composable(ab, c) else None
                right = space_mul(a, bc) if is_composable(a, bc) else None
                if left != right:  # both sides are always defined here
                    report.record(f"associativity fails at a={a}, b={b}, c={c}")
    return report


def check_domain_axioms(bound: int, truncation: Truncation = truncate) -> AxiomReport:
    """Verify Ramsey-domain axioms (A)-(C) plus linearity and vanishing.

    Families are the maximal ones for each (codomain prefix, domain ambient);
    subset families inherit every checked property, so the maximal check is
    exhaustive for (B), (C), linearity and vanishing, and (A)'s definedness is
    a function of the d/r data only.
    """
    uni = Universe(bound)
    report = AxiomReport()
    ps = uni.maximal_p_families()
    fs = uni.maximal_f_families()

    def defined_fp(f: FamilySet, p: FamilySet) -> bool:
        return p.d_ambient.tag == f.r_ambient.tag and f.r_cut == f.r_ambient.tree.n - 1

    # (A) F*(G*P) defined => (F*G)*P defined (and the sets agree)
    for g in fs:
        for p in ps:
            if not defined_fp(g, p):
                continue
            gp = family_mul(g, p)
            for f in fs:
                report.checked += 1
                if gp.d_ambient.tag != f.r_ambient.tag:
                    continue  # F * (G*P) undefined
                if g.d_ambient.tag != f.r_ambient.tag:
                    report.record(
                        f"(A) fails: F*G undefined for r(F)={f.r_ambient.tag}, d(G)={g.d_ambient.tag}"
                    )
                    continue
                fg = family_mul(f, g)
                if not defined_fp(fg, p):
                    report.record("(A) fails: (F*G)*P undefined")
                    continue
                if family_mul(fg, p).elements != family_mul(f, gp).elements:
                    report.record("(A) product sets disagree")

    # (B) dP is a P-family; (C) checks the P whose dP is one
    dps = []
    for p in ps:
        report.checked += 1
        try:
            dps.append((p, FamilySet(frozenset(truncation(x) for x in p.elements), "P")))
        except ValueError as exc:
            report.record(f"(B) fails for P onto {p.r_ambient.tag}^{p.r_cut}: {exc}")

    # (C) F * dP defined => F * P defined and G = F extends itself pointwise
    for f in fs:
        for p, dp in dps:
            report.checked += 1
            if not defined_fp(f, dp):
                continue
            if not defined_fp(f, p):
                report.record("(C) fails: F*P undefined though F*dP defined")
                continue
            for x in f.elements:
                if not extends(x, x):
                    report.record(f"(C) fails: {x} does not extend itself")

    # linear: norms within each P are totally ordered
    for p in ps:
        report.checked += 1
        norms = {e.norm for e in p.elements}
        tags = {t for t, _ in norms}
        if len(tags) != 1:
            report.record("linearity fails: mixed domain ambients in one P")

    # vanishing: iterating the truncation rng-size - 1 times leaves one element
    for p in ps:
        report.checked += 1
        t = p.r_cut  # codomain has r_cut + 1 vertices
        cur = set(p.elements)
        for _ in range(t):
            cur = {truncation(x) for x in cur}
        if len(cur) != 1:
            report.record(f"vanishing fails for P onto {p.r_ambient.tag}^{p.r_cut}: {len(cur)} left")
    return report


class ConditionReport(Record):
    """Outcome of an (R)- or (LP)-style decision."""

    _fields = ("holds", "counterexample", "items", "edges", "stats")

    def __init__(
        self,
        holds: bool,
        counterexample: Optional[tuple[int, ...]],  # coloring of the listed product items
        items: list[DomainElement],
        edges: list[tuple[int, ...]],
        stats: colorsearch.SearchStats,
    ):
        self.holds = holds
        self.counterexample = counterexample
        self.items = items
        self.edges = edges
        self.stats = stats

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"


def _decide_products(
    lefts: Sequence[DomainElement],
    rights: Sequence[DomainElement],
    b: int,
    max_nodes: Optional[int],
) -> ConditionReport:
    """Shared engine: does every b-coloring of {l*r} make some l's row monochromatic?"""
    items: list[DomainElement] = []
    pos: dict[DomainElement, int] = {}
    edges: list[tuple[int, ...]] = []
    for l in lefts:
        row = []
        for r in rights:
            prod = space_mul(l, r)
            if prod not in pos:
                pos[prod] = len(items)
                items.append(prod)
            row.append(pos[prod])
        edges.append(tuple(sorted(set(row))))
    result = colorsearch.find_proper_coloring(len(items), edges, b, max_nodes=max_nodes)
    return ConditionReport(result.holds, result.proper, items, edges, result.stats)


def check_R(
    f: FamilySet, p: FamilySet, b: int, max_nodes: Optional[int] = None
) -> ConditionReport:
    """Ramsey condition for the pair (F, P): every coloring of F*P has f with f*P monochromatic."""
    if p.d_ambient.tag != f.r_ambient.tag:
        raise NotComposable("F * P undefined")
    return _decide_products(f.sorted_elements(), p.sorted_elements(), b, max_nodes)


def check_LP(
    p: FamilySet,
    y: DomainElement,
    f: FamilySet,
    a: DomainElement,
    b: int,
    max_nodes: Optional[int] = None,
) -> ConditionReport:
    """Pigeonhole condition at (P, y) witnessed by (F, a).

    Requires F*P defined and a*y defined; decides whether every b-coloring of
    F_a * P^y has f in F_a with f * P^y monochromatic.
    """
    if p.d_ambient.tag != f.r_ambient.tag:
        raise NotComposable("F * P undefined")
    if not is_composable(a, y):
        raise NotComposable("a * y undefined")
    py = fiber(p, y)
    fa = extenders(f, a)
    if py is None or fa is None:
        return ConditionReport(False, None, [], [], colorsearch.SearchStats())
    return _decide_products(fa.sorted_elements(), py.sorted_elements(), b, max_nodes)


def restrict_element(f: DomainElement, v: int) -> DomainElement:
    """f^v as a composition-space element (restriction through f's injection)."""
    iv = f.injection[v]
    return DomainElement(f.amb_dom, iv, f.amb_cod, v, f.values[: iv + 1])


def scan_lp_r_consistency(bound: int, b: int, max_nodes: Optional[int] = None) -> list[str]:
    """Empirical cross-check of the abstract implication: flag any maximal (F, P)
    where (R) fails while (LP) holds on every fiber, witnessed by the same F and
    some a among the restrictions of F's members to the fiber base's domain
    (the bounded stand-in for the identity element the unbounded theory uses).
    Purely diagnostic; the implication itself is out of scope."""
    uni = Universe(bound)
    flags: list[str] = []
    fs = uni.maximal_f_families()
    for p in uni.maximal_p_families():
        for f in fs:
            if p.d_ambient.tag != f.r_ambient.tag:
                continue
            r_rep = check_R(f, p, b, max_nodes=max_nodes)
            if r_rep.holds:
                continue
            lp_all = True
            for y in p.fiber_bases():
                if not any(
                    check_LP(p, y, f, a, b, max_nodes=max_nodes).holds
                    for a in f.restriction_candidates(y)
                ):
                    lp_all = False
                    break
            if lp_all:
                flags.append(
                    f"(LP) holds on every fiber but (R) fails: F onto {f.r_ambient.tag}, "
                    f"P onto {p.r_ambient.tag}^{p.r_cut}"
                )
    return flags
