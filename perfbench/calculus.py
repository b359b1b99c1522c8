"""The calculus workload: the lemma-suite laws, the axiom suites and a tree-primitive sweep.

Each unit returns (instances checked, instances violated).  A law instance
compares two sides computed along different routes through the library; the
primitive sweep compares the library against references written here from
the definitions on raw parent arrays.  Library functions are looked up
through their modules at call time, so traced runs see every call.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from treeramsey import enumeration, framework, maps, trees

import specs

Unit = Callable[[], tuple[int, int]]


def _trees_up_to(n: int) -> list:
    return [t for k in range(1, n + 1) for t in trees.all_trees(k)]


# ---------------------------------------------------------------------------
# lemma-suite laws


def law_injection(s, t) -> tuple[int, int]:
    """The injection is the unique witness, and embeddings round-trip."""
    checked = bad = 0
    embs = enumeration.all_embeddings(s, t)
    for e in embs:
        bad += maps.injection_of(maps.rigid_from_embedding(e)) != e
        checked += 1
    for f in enumeration.all_rigid_surjections(t, s):
        witnesses = [
            e
            for e in embs
            if all(f.values[e.values[v]] == v for v in range(s.n))
            and all(t.below(e.values[f.values[w]], w) for w in range(t.n))
        ]
        bad += not (len(witnesses) == 1 and witnesses[0] == maps.injection_of(f))
        checked += 1
    return checked, bad


def law_restrictions(s, t) -> tuple[int, int]:
    """Downward-closed images restrict to rigid maps; initial cuts land sealed."""
    checked = bad = 0
    for f in enumeration.all_rigid_surjections(t, s):
        e = maps.injection_of(f)
        for members_mask in range(1, 1 << t.n):
            members = [v for v in range(t.n) if members_mask >> v & 1]
            if any(p not in members for v in members for p in t.ancestors(v)):
                continue
            image = sorted({f.values[w] for w in members})
            closed = all(p in image for v in image for p in s.ancestors(v))
            sub_dom = trees.OrderedTree(
                tuple(None if t.parent[v] is None else members.index(t.parent[v]) for v in members)
            )
            sub_cod = trees.OrderedTree(
                tuple(None if s.parent[v] is None else image.index(s.parent[v]) for v in image)
            )
            restricted = maps.TreeMap(sub_dom, sub_cod, tuple(image.index(f.values[w]) for w in members))
            bad += not (closed and maps.is_rigid_surjection(restricted))
            checked += 1
        for v in range(s.n):
            r = maps.restrict_initial(f, v)
            bad += not (
                r.dom.n == e.values[v] + 1 and set(r.values) == set(range(v + 1)) and maps.is_sealed(r)
            )
            checked += 1
    return checked, bad


def law_composition(s, t, v_trees) -> tuple[int, int]:
    """Injections compose, restriction to conjugate leaves commutes, images are cuts."""
    checked = bad = 0
    fs = enumeration.all_rigid_surjections(t, s)
    if fs:
        for v_tree in v_trees:
            for g in enumeration.all_rigid_surjections(v_tree, t):
                e_g = maps.injection_of(g)
                for f in fs:
                    fg = maps.compose(f, g)
                    bad += maps.injection_of(fg) != maps.compose(e_g, maps.injection_of(f))
                    checked += 1
                    for x in s.leaves:
                        y = maps.conjugate_leaf(maps.injection_of(f), x)
                        bad += maps.compose(
                            maps.restrict_conjugate(f, x), maps.restrict_conjugate(g, y)
                        ) != maps.restrict_conjugate(fg, x)
                        checked += 1
    for f in fs:
        for x in s.leaves:
            fx = maps.restrict_conjugate(f, x)
            bad += not (set(fx.values) == set(range(x + 1)) and maps.is_rigid_surjection(fx))
            checked += 1
    return checked, bad


def law_truncation(t, s, v_trees) -> tuple[int, int]:
    """The two-sided restriction law over every prefix domain of t."""
    checked = bad = 0
    for w in range(t.n):
        fs = enumeration.all_rigid_surjections(trees.initial_subtree(t, w), s)
        if not fs:
            continue
        for v_tree in v_trees:
            gs = enumeration.all_rigid_surjections(v_tree, t)
            for f in fs:
                i = maps.injection_of(f)
                for g in gs:
                    fgw = maps.compose(f, maps.restrict_initial(g, w))
                    for v in range(s.n):
                        bad += maps.compose(
                            maps.restrict_initial(f, v), maps.restrict_initial(g, i.values[v])
                        ) != maps.restrict_initial(fgw, v)
                        checked += 1
    return checked, bad


def law_conjugates(s, t, v_trees) -> tuple[int, int]:
    """Conjugate leaves compose along embeddings."""
    checked = bad = 0
    embs_st = enumeration.all_embeddings(s, t)
    if not embs_st:
        return 0, 0
    for v_tree in v_trees:
        for j in enumeration.all_embeddings(t, v_tree):
            for i in embs_st:
                ji = maps.compose(j, i)
                for x in s.leaves:
                    bad += maps.conjugate_leaf(j, maps.conjugate_leaf(i, x)) != maps.conjugate_leaf(ji, x)
                    checked += 1
    return checked, bad


def laws(t, s_trees, v_trees) -> tuple[int, int]:
    """The five laws on every s and one t: one unit per t.  Most units of one
    pair of trees check nothing and take microseconds, and the best time of so
    short a unit moves with whatever ran just before it; per t, a unit takes
    up to a few tens of milliseconds."""
    checked = bad = 0
    for s in s_trees:
        for c, b in (
            law_injection(s, t),
            law_restrictions(s, t),
            law_composition(s, t, v_trees),
            law_truncation(t, s, v_trees),
            law_conjugates(s, t, v_trees),
        ):
            checked += c
            bad += b
    return checked, bad


# ---------------------------------------------------------------------------
# axiom suites


def space_axioms() -> tuple[int, int]:
    report = framework.check_space_axioms(specs.SPACE_AXIOM_BOUND)
    return report.checked, len(report.violations)


def domain_axioms() -> tuple[int, int]:
    report = framework.check_domain_axioms(specs.DOMAIN_AXIOM_BOUND)
    return report.checked, len(report.violations)


# ---------------------------------------------------------------------------
# tree primitives against definitional references on parent arrays


def _chain_to_root(parent, v: int) -> list[int]:
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def _ref_meet(parent, v: int, w: int) -> int:
    m = 0
    for x, y in zip(_chain_to_root(parent, v), _chain_to_root(parent, w)):
        if x != y:
            break
        m = x
    return m


def _ref_less(parent, v: int, w: int) -> bool:
    """The two-clause lexicographic order: predecessors first, then sibling order."""
    if v == w:
        return False
    cv, cw = _chain_to_root(parent, v), _chain_to_root(parent, w)
    if v in cw:
        return True
    if w in cv:
        return False
    depth = 0
    while cv[depth] == cw[depth]:
        depth += 1
    return cv[depth] < cw[depth]  # siblings are ordered by id in a parent array


def _ref_initial(parent, v: int) -> tuple[Optional[int], ...]:
    kept = [w for w in range(len(parent)) if w == v or _ref_less(parent, w, v)]
    return tuple(None if parent[w] is None else kept.index(parent[w]) for w in kept)


def primitives_one(t, relabel: list[int]) -> tuple[int, int]:
    """meet, below, lex_compare and initial_subtree on every vertex (pair), and
    canonicalize on a relabelled copy that keeps sibling order."""
    checked = bad = 0
    parent = t.parent
    n = t.n
    for v in range(n):
        for w in range(n):
            bad += t.meet(v, w) != _ref_meet(parent, v, w)
            bad += t.below(v, w) != (v in _chain_to_root(parent, w))
            expected = -1 if _ref_less(parent, v, w) else (1 if _ref_less(parent, w, v) else 0)
            bad += t.lex_compare(v, w) != expected
            checked += 3
        bad += trees.initial_subtree(t, v).parent != _ref_initial(parent, v)
        checked += 1
    # relabel[v] is the new id of v; sibling order survives because relabel is
    # increasing on every sibling set, so canonicalize must undo it exactly
    moved: list[Optional[int]] = [None] * n
    for v in range(1, n):
        moved[relabel[v]] = relabel[parent[v]]
    canon, perm = trees.canonicalize(moved)
    bad += canon != t or any(perm[relabel[v]] != v for v in range(n))
    checked += 1
    return checked, bad


def primitives(pairs: list[tuple]) -> tuple[int, int]:
    """The primitive sweep over (tree, relabelling) pairs, one unit per tree size."""
    checked = bad = 0
    for t, relabel in pairs:
        c, b = primitives_one(t, relabel)
        checked += c
        bad += b
    return checked, bad


def sibling_preserving_relabel(t, rng: random.Random) -> list[int]:
    """A random relabelling of t's vertices that is increasing on every sibling set."""
    n = t.n
    ids = rng.sample(range(n), n)
    relabel = [0] * n
    children: dict[int, list[int]] = {}
    for v in range(1, n):
        children.setdefault(t.parent[v], []).append(v)
    for v in range(n):
        relabel[v] = ids[v]
    for sibs in children.values():
        for v, new in zip(sibs, sorted(relabel[v] for v in sibs)):
            relabel[v] = new
    return relabel


def units(seed: int) -> list[tuple[str, Unit]]:
    """Every calculus unit, in enumeration order; the seed draws the primitive sweep's relabellings."""
    rng = random.Random(seed)
    t5 = _trees_up_to(specs.LAW_TREE_MAX)
    v_trees = _trees_up_to(specs.LAW_THIRD_TREE_MAX)
    out: list[tuple[str, Unit]] = [
        (f"laws t={list(t.parent)}", lambda t=t: laws(t, t5, v_trees)) for t in t5
    ]
    out.append(("space axioms", space_axioms))
    out.append(("domain axioms", domain_axioms))
    for n in range(1, specs.PRIMITIVE_TREE_MAX + 1):
        pairs = [(t, sibling_preserving_relabel(t, rng)) for t in trees.all_trees(n)]
        out.append((f"primitives n={n}", lambda pairs=pairs: primitives(pairs)))
    return out
