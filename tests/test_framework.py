import itertools

import pytest

from treeramsey import framework as fw
from treeramsey import trees
from treeramsey.enumeration import rigid_surjection_values
from treeramsey.errors import DomainMismatch, NotComposable, NotSealed, VertexOutOfRange
from treeramsey.maps import TreeMap, injection_of, is_sealed

from _oracles import extends_by_quantifier

C1, C2, C3, C4 = (trees.chain(n) for n in (1, 2, 3, 4))


def make_element(dom_amb, cut_dom, cod_amb, cut_cod, values):
    return fw.DomainElement(dom_amb, cut_dom, cod_amb, cut_cod, tuple(values))


@pytest.fixture(scope="module")
def ambients():
    return {
        "C2": fw.Ambient("C2", C2),
        "C3": fw.Ambient("C3", C3),
        "C4": fw.Ambient("C4", C4),
    }


def test_elements_must_be_sealed(ambients):
    with pytest.raises(NotSealed):
        make_element(ambients["C3"], 2, ambients["C2"], 1, (0, 1, 0))  # not sealed


@pytest.mark.parametrize("values", [(0, 1.0), (0, True), (False, 1)])
def test_element_values_must_be_ints(ambients, values):
    # a sealed element with int values is in the injection table first
    make_element(ambients["C2"], 1, ambients["C2"], 1, (0, 1))
    with pytest.raises(VertexOutOfRange):
        make_element(ambients["C2"], 1, ambients["C2"], 1, values)


def _element_by_tree_maps(amb_dom, cut_dom, amb_cod, cut_cod, values):
    # the route through a TreeMap on two initial-subtree trees
    m = TreeMap(
        trees.initial_subtree(amb_dom.tree, cut_dom),
        trees.initial_subtree(amb_cod.tree, cut_cod),
        values,
    )
    if not is_sealed(m):
        raise NotSealed(f"{m} is not sealed")
    return injection_of(m).values


def _outcome(build, *args):
    try:
        return build(*args)
    except (DomainMismatch, VertexOutOfRange, NotSealed) as exc:
        return type(exc)


def test_element_validation_matches_tree_map_route():
    # every value tuple between prefixes of trees of at most 4 vertices, plus
    # wrong lengths and values outside the codomain
    uni = fw.Universe(4)
    seen = {}
    for amb_dom, amb_cod in itertools.product(uni.ambients, repeat=2):
        for cut_dom, cut_cod in itertools.product(range(amb_dom.tree.n), range(amb_cod.tree.n)):
            zeros = (0,) * (cut_dom + 1)
            malformed = [zeros[:-1], zeros + (0,), zeros[:-1] + (cut_cod + 1,), (-1,) + zeros[1:]]
            for values in [*itertools.product(range(cut_cod + 1), repeat=cut_dom + 1), *malformed]:
                args = (amb_dom, cut_dom, amb_cod, cut_cod, values)
                want = _outcome(_element_by_tree_maps, *args)
                got = _outcome(lambda *a: fw.DomainElement(*a).injection, *args)
                assert got == want, args
                key = want if isinstance(want, type) else "sealed"
                seen[key] = seen.get(key, 0) + 1
    assert seen["sealed"] == len(uni.elements) == 313
    assert set(seen) == {"sealed", NotSealed, DomainMismatch, VertexOutOfRange}


def test_element_validation_builds_no_tree_and_no_tree_map(monkeypatch):
    uni = fw.Universe(4)
    made = [0]
    original_tree, original_map = trees.OrderedTree.__post_init__, TreeMap.__post_init__

    def counting(original):
        def post_init(self):
            made[0] += 1
            original(self)

        return post_init

    monkeypatch.setattr(trees.OrderedTree, "__post_init__", counting(original_tree))
    monkeypatch.setattr(TreeMap, "__post_init__", counting(original_map))
    rebuilt = [
        fw.DomainElement(e.amb_dom, e.cut_dom, e.amb_cod, e.cut_cod, e.values) for e in uni.elements
    ]
    truncated = [fw.truncate(e) for e in uni.elements]
    products = [
        fw.space_mul(a, b)
        for a in uni.elements
        for b in uni.by_dom_tag[a.amb_cod.tag]
        if b.cut_dom <= a.cut_cod
    ]
    monkeypatch.undo()
    assert made[0] == 0
    assert rebuilt == uni.elements and len(truncated) == len(uni.elements)
    assert [e.injection for e in rebuilt] == [e.injection for e in uni.elements]
    assert len(products) > 1000


def test_space_mul_example(ambients):
    g = make_element(ambients["C4"], 3, ambients["C3"], 2, (0, 0, 1, 2))
    f = make_element(ambients["C3"], 1, ambients["C2"], 1, (0, 1))  # identity on C3^1
    gf = fw.space_mul(g, f)
    assert gf.amb_dom.tag == "C4" and gf.cut_dom == 2
    assert gf.amb_cod.tag == "C2" and gf.cut_cod == 1
    assert gf.values == (0, 0, 1)


def test_space_mul_full_cut_is_plain_composition(ambients):
    g = make_element(ambients["C4"], 3, ambients["C3"], 2, (0, 0, 1, 2))
    f = make_element(ambients["C3"], 2, ambients["C2"], 1, (0, 0, 1))
    gf = fw.space_mul(g, f)
    assert gf.cut_dom == 3
    assert gf.values == tuple(f.values[v] for v in g.values)


def test_space_mul_ambient_mismatch(ambients):
    g = make_element(ambients["C4"], 3, ambients["C3"], 2, (0, 0, 1, 2))
    f = make_element(ambients["C4"], 1, ambients["C2"], 1, (0, 1))
    with pytest.raises(NotComposable):
        fw.space_mul(g, f)


def test_truncate_examples(ambients):
    f = make_element(ambients["C3"], 2, ambients["C2"], 1, (0, 0, 1))
    df = fw.truncate(f)
    assert (df.cut_dom, df.cut_cod, df.values) == (0, 0, (0,))
    assert fw.truncate(df) == df  # one-vertex range is a fixed point
    ddf = fw.truncate(fw.truncate(f))
    assert ddf.cut_cod == 0


def test_extends_matches_quantifier():
    uni = fw.Universe(3)
    for b in uni.elements:
        for a in uni.elements:
            assert fw.extends(b, a) == extends_by_quantifier(b, a, uni.elements)


def test_extends_restriction_example(ambients):
    f = make_element(ambients["C4"], 3, ambients["C3"], 2, (0, 0, 1, 2))
    a = fw.restrict_element(f, 1)
    assert fw.extends(f, a)
    assert fw.extends(f, f)


def test_fiber_and_extenders(ambients):
    amb_t, amb_s = ambients["C3"], ambients["C2"]
    elements = set()
    for cut in range(3):
        for values in rigid_surjection_values(trees.initial_subtree(C3, cut), C2, True):
            elements.add(make_element(amb_t, cut, amb_s, 1, values))
    p = fw.FamilySet(frozenset(elements), "P")
    ys = {fw.truncate(x) for x in p.elements}
    for y in ys:
        fib = fw.fiber(p, y)
        assert fib is not None
        assert all(fw.truncate(x) == y for x in fib.elements)
    stranger = make_element(ambients["C4"], 0, ambients["C4"], 0, (0,))
    assert fw.fiber(p, stranger) is None

    f_elements = set()
    amb_v = ambients["C4"]
    for cut in range(4):
        for values in rigid_surjection_values(trees.initial_subtree(C4, cut), C3, True):
            f_elements.add(make_element(amb_v, cut, amb_t, 2, values))
    fam = fw.FamilySet(frozenset(f_elements), "F")
    root_map = make_element(amb_v, 0, amb_t, 0, (0,))
    assert fw.extenders(fam, root_map).elements == fam.elements


def test_family_product_shapes(ambients):
    uni = fw.Universe(3)
    fs = uni.maximal_f_families()
    ps = uni.maximal_p_families()
    done = 0
    for f in fs:
        for p in ps:
            if p.d_ambient.tag != f.r_ambient.tag:
                continue
            fp = fw.family_mul(f, p)
            assert fp.kind == "P"
            assert fp.d_ambient.tag == f.d_ambient.tag
            assert fp.r_cut == p.r_cut and fp.r_ambient.tag == p.r_ambient.tag
            done += 1
    assert done > 0


def test_space_axioms_hold_bound_3():
    report = fw.check_space_axioms(3)
    assert report.ok, report.violations[:5]
    assert report.checked > 0


def test_domain_axioms_hold_bound_3():
    report = fw.check_domain_axioms(3)
    assert report.ok, report.violations[:5]


def test_space_axiom_checker_catches_corruption():
    def skewed(e):
        return fw.truncate(e) if e.cut_dom % 2 == 0 else e

    report = fw.check_space_axioms(3, truncation=skewed)
    assert not report.ok


def test_domain_axiom_checker_catches_corruption():
    report = fw.check_domain_axioms(3, truncation=lambda e: e)
    assert not report.ok  # vanishing fails when truncation never shrinks


def test_domain_axiom_checker_reports_a_truncation_that_breaks_b():
    # each odd-cut element goes to the one-vertex map of its codomain ambient,
    # so some dP mixes domain ambients: a reported (B) violation, not a crash
    # when (C) multiplies by that dP
    def odd_to_point(e):
        return fw.DomainElement(e.amb_cod, 0, e.amb_cod, 0, (0,)) if e.cut_dom % 2 else fw.truncate(e)

    report = fw.check_domain_axioms(3, truncation=odd_to_point)
    assert any(v.startswith("(B) fails") for v in report.violations)
    assert report.checked < fw.check_domain_axioms(3).checked  # (C) skips those P


def test_check_r_singleton_trivial(ambients):
    amb_t, amb_s, amb_v = ambients["C3"], ambients["C2"], ambients["C4"]
    p = fw.FamilySet(
        frozenset({make_element(amb_t, 2, amb_s, 1, (0, 0, 1))}), "P"
    )
    f_elements = {
        make_element(amb_v, cut, amb_t, 2, values)
        for cut in range(4)
        for values in rigid_surjection_values(trees.initial_subtree(C4, cut), C3, True)
    }
    fam = fw.FamilySet(frozenset(f_elements), "F")
    rep = fw.check_R(fam, p, 3)
    assert rep.holds


def test_check_r_failure_with_coloring(ambients):
    amb_t, amb_s = ambients["C3"], ambients["C2"]
    p_elements = {
        make_element(amb_t, cut, amb_s, 1, values)
        for cut in range(3)
        for values in rigid_surjection_values(trees.initial_subtree(C3, cut), C2, True)
    }
    p = fw.FamilySet(frozenset(p_elements), "P")
    amb_t2 = fw.Ambient("T2", C3)
    ident = make_element(amb_t2, 2, amb_t, 2, (0, 1, 2))
    fam = fw.FamilySet(frozenset({ident}), "F")
    rep = fw.check_R(fam, p, 2)
    assert len(p_elements) >= 2
    assert not rep.holds and rep.counterexample is not None
    # the counterexample makes the single edge polychromatic
    edge_colors = {rep.counterexample[i] for i in rep.edges[0]}
    assert len(edge_colors) > 1


def test_check_lp_singleton_fiber(ambients):
    amb_t, amb_s = ambients["C4"], ambients["C3"]
    amb_v = fw.Ambient("C5", trees.chain(5))
    p_elements = {
        make_element(amb_t, cut, amb_s, 2, values)
        for cut in range(4)
        for values in rigid_surjection_values(trees.initial_subtree(C4, cut), C3, True)
    }
    p = fw.FamilySet(frozenset(p_elements), "P")
    f_elements = {
        make_element(amb_v, cut, amb_t, 3, values)
        for cut in range(5)
        for values in rigid_surjection_values(trees.initial_subtree(trees.chain(5), cut), C4, True)
    }
    fam = fw.FamilySet(frozenset(f_elements), "F")
    ys = sorted({fw.truncate(x) for x in p.elements}, key=lambda e: (e.cut_dom, e.values))
    singletons = 0
    for y in ys:
        fib = fw.fiber(p, y)
        assert fib is not None
        if len(fib) == 1:
            singletons += 1
            a = fw.restrict_element(sorted(f_elements, key=lambda e: (e.cut_dom, e.values))[0], y.cut_dom)
            rep = fw.check_LP(p, y, fam, a, 2)
            assert rep.holds
    assert singletons > 0


def test_lp_r_consistency_scan_clean():
    assert fw.scan_lp_r_consistency(2, 2) == []
    assert fw.scan_lp_r_consistency(3, 2) == []


def test_lp_r_consistency_scan_bound_4():
    # the documented empirical cross-check at the acceptance bound
    assert fw.scan_lp_r_consistency(4, 2) == []


def _by_cut(e):
    return (e.cut_dom, e.values)


def test_maximal_elements_are_every_sealed_map_onto_the_cut(ambients):
    for dom, cod in itertools.product(ambients.values(), repeat=2):
        for cut_cod in range(cod.tree.n):
            onto = trees.initial_subtree(cod.tree, cut_cod)
            literal = {
                make_element(dom, cut, cod, cut_cod, values)
                for cut in range(dom.tree.n)
                for values in rigid_surjection_values(trees.initial_subtree(dom.tree, cut), onto, True)
            }
            assert fw.maximal_elements(dom, cod, cut_cod) == sorted(literal, key=_by_cut)


def test_universe_families_are_its_elements_grouped():
    uni = fw.Universe(3)
    groups = {}
    for e in uni.elements:
        groups.setdefault((e.amb_dom.tag, e.amb_cod.tag, e.cut_cod), set()).add(e)
    ps = [fw.FamilySet(frozenset(v), "P") for _, v in sorted(groups.items())]
    assert uni.maximal_p_families() == ps
    full = [p for p in ps if p.r_cut == p.r_ambient.tree.n - 1]
    assert uni.maximal_f_families() == [fw.FamilySet(p.elements, "F") for p in full]


def test_fiber_bases_and_restriction_candidates():
    # the sorted distinct truncations of P, and for each, the sorted distinct
    # restrictions of F's members that can multiply it
    uni = fw.Universe(3)
    fs = uni.maximal_f_families()
    pairs = 0
    for p in uni.maximal_p_families():
        bases = p.fiber_bases()
        assert bases == sorted({fw.truncate(x) for x in p.elements}, key=_by_cut)
        for f in fs:
            if f.r_ambient.tag != p.d_ambient.tag:
                continue
            for y in bases:
                candidates = f.restriction_candidates(y)
                assert candidates == sorted(
                    {fw.restrict_element(x, y.cut_dom) for x in f.elements}, key=_by_cut
                )
                assert all(fw.is_composable(a, y) for a in candidates)
                pairs += 1
    assert pairs == 53
