import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeramsey import maps, trees
from treeramsey.enumeration import all_embeddings, all_rigid_surjections, rigid_surjection_values
from treeramsey.errors import (
    DomainMismatch,
    NotLeaf,
    NotRigid,
    VerificationFailed,
    VertexOutOfRange,
)
from treeramsey.maps import (
    TreeMap,
    check_block_condition,
    classify,
    compose,
    conjugate_leaf,
    identity,
    injection_of,
    is_morphism,
    is_rigid_surjection,
    is_sealed,
    restrict_conjugate,
    restrict_initial,
    rigid_from_embedding,
    try_injection,
)

from _oracles import is_a_rigid, is_morphism_by_meet_loop, try_injection_by_fiber_meet

C1, C2, C3, C4 = (trees.chain(n) for n in (1, 2, 3, 4))
Y = trees.tree([None, 0, 0])
BROOM3 = trees.tree([None, 0, 0, 0])


def trees_up_to(n):
    for k in range(1, n + 1):
        yield from trees.all_trees(k)


@pytest.fixture()
def cold_injections():
    # the injection table outlives a test; clear it so that a count sees every check
    maps._cached_injection_values.cache_clear()
    yield
    maps._cached_injection_values.cache_clear()


# --- classification ---------------------------------------------------------


def test_classify_embedding_example():
    fl = classify(TreeMap(C2, Y, (0, 1)))
    assert fl.morphism and fl.embedding and not fl.rigid_surjection


def test_classify_non_rigid_example():
    fl = classify(TreeMap(Y, C2, (0, 1, 1)))
    assert not fl.rigid_surjection and fl.injection is None


def test_classify_reads_the_cached_injection(monkeypatch, cold_injections):
    # one injection computation per map, shared by classify and the predicates
    calls = []
    original = maps._injection_values

    def counting(dom_anc, cod_parent, values):
        calls.append(values)
        return original(dom_anc, cod_parent, values)

    monkeypatch.setattr(maps, "_injection_values", counting)
    m = TreeMap(C3, C2, (0, 0, 1))
    fl = classify(m)
    assert len(calls) == 1
    assert fl.rigid_surjection and fl.sealed and fl.injection is m.injection
    assert classify(m) == fl and is_sealed(m) and injection_of(m) is fl.injection
    assert len(calls) == 1


def test_classify_root_swap_has_no_flags():
    fl = classify(TreeMap(C2, C2, (1, 0)))
    assert not (fl.morphism or fl.embedding or fl.rigid_surjection or fl.sealed)


def test_morphism_definition_cross_check():
    # flags recomputed from the three clauses on every small map
    for s in trees_up_to(4):
        for t in trees_up_to(4):
            for vals in itertools.product(range(t.n), repeat=s.n):
                m = TreeMap(s, t, vals)
                expected = (
                    vals[0] == 0
                    and all(
                        vals[s.meet(v, w)] == t.meet(vals[v], vals[w])
                        for v in range(s.n)
                        for w in range(s.n)
                    )
                    and all(vals[v] <= vals[w] for v in range(s.n) for w in range(v, s.n))
                )
                assert is_morphism(m) == expected


def test_shared_check_matches_pairwise_oracles():
    # every map between trees of at most 5 vertices, one side at most 4:
    # first-occurrence try_injection and the consecutive-law is_morphism
    # against the fiberwise meet and the pairwise meet loop
    rigid = morphisms = 0
    for dom in trees_up_to(5):
        for cod in trees_up_to(5):
            if dom.n == cod.n == 5:
                continue
            for vals in itertools.product(range(cod.n), repeat=dom.n):
                m = TreeMap(dom, cod, vals)
                e = try_injection(m)
                assert e == try_injection_by_fiber_meet(m)
                assert is_morphism(m) == is_morphism_by_meet_loop(m)
                rigid += e is not None
                morphisms += is_morphism(m)
    assert rigid > 400 and morphisms > 1000


# --- injections --------------------------------------------------------------


def test_injection_of_examples():
    assert injection_of(TreeMap(C3, C2, (0, 0, 1))).values == (0, 2)
    for t in trees_up_to(5):
        assert injection_of(identity(t)) == identity(t)
    with pytest.raises(NotRigid):
        injection_of(TreeMap(Y, C2, (0, 1, 1)))


def test_injection_unique_witness():
    # exactly one embedding satisfies both Galois identities for each rigid map
    for s in trees_up_to(4):
        for t in trees_up_to(4):
            for f in all_rigid_surjections(t, s):
                witnesses = [
                    e
                    for e in all_embeddings(s, t)
                    if all(f.values[e.values[v]] == v for v in range(s.n))
                    and all(t.below(e.values[f.values[w]], w) for w in range(t.n))
                ]
                assert len(witnesses) == 1
                assert witnesses[0] == injection_of(f)


def test_cached_injection_is_the_recomputed_one():
    for s in trees_up_to(4):
        for t in trees_up_to(4):
            for vals in itertools.product(range(s.n), repeat=t.n):
                f = TreeMap(t, s, vals)
                e = f.injection
                assert e == try_injection(f)
                assert f.injection is e
                assert is_rigid_surjection(f) == (e is not None)


def test_non_rigid_injection_of_raises_on_every_call():
    f = TreeMap(Y, C2, (0, 1, 1))
    for _ in range(2):
        with pytest.raises(NotRigid):
            injection_of(f)


def test_non_rigid_map_raises_on_every_call_from_the_table(cold_injections):
    # a second map with the same values reads the table's None, and still raises
    for _ in range(2):
        f = TreeMap(Y, C2, (0, 1, 1))
        for _ in range(2):
            with pytest.raises(NotRigid):
                injection_of(f)
    assert maps._cached_injection_values.cache_info().misses == 1


def _maps_onto_small_trees():
    for s in trees_up_to(4):
        for t in trees_up_to(5):
            for vals in itertools.product(range(s.n), repeat=t.n):
                yield t, s, vals


@pytest.mark.parametrize("warm", [False, True])
def test_injection_table_agrees_with_the_kernel(cold_injections, warm):
    # every map from a tree of <= 5 vertices onto one of <= 4, in chunks that
    # fit the table: the table answers as the uncached kernel does, whether it
    # starts cold or already holds the chunk, and computes each input once
    table, size = maps._cached_injection_values, maps.INJECTION_TABLE_SIZE
    cases = list(_maps_onto_small_trees())
    rigid = 0
    for start in range(0, len(cases), size):
        chunk = cases[start : start + size]
        table.cache_clear()
        if warm:
            for t, s, vals in chunk:
                table(t.anc_mask, s.parent, vals)
        for t, s, vals in chunk:
            expected = maps._injection_values(t.anc_mask, s.parent, vals)
            assert table(t.anc_mask, s.parent, vals) == expected
            e = try_injection(TreeMap(t, s, vals))
            assert (None if e is None else e.values) == expected
            rigid += expected is not None
        assert table.cache_info().misses == len(chunk)
    assert rigid > 0 and len(cases) > size


@pytest.mark.parametrize("values", [(0.0, 1.0), (False, True), (0, 1.0), (0, None)])
def test_map_values_must_be_ints(values):
    # 0.0 and False would share the table key of 0, so they are refused first
    with pytest.raises(VertexOutOfRange):
        TreeMap(C2, C2, values)


def test_map_values_in_a_list_are_stored_as_a_tuple():
    f = TreeMap(C3, C2, [0, 0, 1])
    assert f.values == (0, 0, 1) and f == TreeMap(C3, C2, (0, 0, 1))
    assert injection_of(f).values == (0, 2)


def _with_injection(f, e_values):
    # plant an injection the way the cached property stores it
    f.__dict__["injection"] = maps._trusted_map(f.cod, f.dom, e_values)
    return f


def test_restrictions_refuse_a_prefix_that_misses_a_value():
    # f = (0, 1, 1) on chain 3 with a planted injection (0, 0): the prefix up
    # to "e(1)" is (0,), which misses 1
    f = _with_injection(TreeMap(C3, C2, (0, 1, 1)), (0, 0))
    with pytest.raises(VerificationFailed, match="not onto"):
        restrict_initial(f, 1)
    # through the planted embedding (0, 2, 3) of Y into the broom, the conjugate
    # of leaf 1 is leaf 2, and the prefix (0, 0, 0) misses 1
    g = _with_injection(TreeMap(BROOM3, Y, (0, 0, 0, 2)), (0, 2, 3))
    with pytest.raises(VerificationFailed, match="not onto"):
        restrict_conjugate(g, 1)


def test_injection_of_raises_under_optimize():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\nfrom treeramsey import trees\nfrom treeramsey.errors import NotRigid\n"
        "from treeramsey.maps import TreeMap, injection_of\n"
        "f = TreeMap(trees.tree([None, 0, 0]), trees.chain(2), (0, 1, 1))\n"
        "for _ in range(2):\n    try:\n        injection_of(f)\n    except NotRigid:\n"
        "        print('raised', sys.flags.optimize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    assert proc.stdout == "raised 1\nraised 1\n", proc.stderr


def test_rigidity_decision_matches_witness_search():
    # try_injection's verdict agrees with brute-force witness existence
    for s in trees_up_to(3):
        for t in trees_up_to(4):
            embs = all_embeddings(s, t)
            for vals in itertools.product(range(s.n), repeat=t.n):
                f = TreeMap(t, s, vals)
                brute = any(
                    all(vals[e.values[v]] == v for v in range(s.n))
                    and all(t.below(e.values[vals[w]], w) for w in range(t.n))
                    for e in embs
                )
                assert (try_injection(f) is not None) == brute


# --- composition --------------------------------------------------------------


def test_compose_example_with_injections():
    f = TreeMap(C3, C2, (0, 1, 1))
    g = TreeMap(C4, C3, (0, 1, 1, 2))
    fg = compose(f, g)
    assert fg.values == (0, 1, 1, 1)
    assert injection_of(fg).values == (0, 1)


def test_compose_identity_laws():
    for s in trees_up_to(4):
        for t in trees_up_to(4):
            for f in all_rigid_surjections(t, s):
                assert compose(f, identity(t)) == f
                assert compose(identity(s), f) == f


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compose(TreeMap(C2, C2, (0, 1)), TreeMap(C3, C3, (0, 1, 2)))


def test_composition_preserves_rigidity_with_composed_injection():
    for s in trees_up_to(3):
        for t in trees_up_to(3):
            fs = all_rigid_surjections(t, s)
            if not fs:
                continue
            for v in trees_up_to(4):
                for g in all_rigid_surjections(v, t):
                    e_g = injection_of(g)
                    for f in fs:
                        fg = compose(f, g)
                        assert injection_of(fg) == compose(e_g, injection_of(f))


# --- from embeddings -----------------------------------------------------------


def test_rigid_from_embedding_examples():
    assert rigid_from_embedding(TreeMap(C2, C3, (0, 2))).values == (0, 0, 1)
    assert rigid_from_embedding(TreeMap(C2, Y, (0, 2))).values == (0, 0, 1)
    for t in trees_up_to(4):
        assert rigid_from_embedding(identity(t)) == identity(t)


def test_rigid_from_embedding_round_trip():
    for s in trees_up_to(5):
        for t in trees_up_to(5):
            for e in all_embeddings(s, t):
                assert injection_of(rigid_from_embedding(e)) == e


# --- subtrees and restrictions ---------------------------------------------------


def _downward_closed_subsets(t):
    # non-empty subsets closed under predecessors, as sorted vertex tuples
    out = []
    for mask in range(1, 1 << t.n):
        members = [v for v in range(t.n) if mask >> v & 1]
        if all(p in members for v in members for p in t.ancestors(v)):
            out.append(members)
    return out


def test_restriction_to_subtrees_stays_rigid():
    for s in trees_up_to(4):
        for t in trees_up_to(4):
            for f in all_rigid_surjections(t, s):
                for members in _downward_closed_subsets(t):
                    image = sorted({f.values[w] for w in members})
                    # image is downward closed in the codomain
                    assert all(p in image for v in image for p in s.ancestors(v))
                    sub_dom, dperm = trees.canonicalize(
                        [None if t.parent[v] is None or t.parent[v] not in members
                         else members.index(t.parent[v]) for v in members]
                    )
                    sub_cod, cperm = trees.canonicalize(
                        [None if s.parent[v] is None or s.parent[v] not in image
                         else image.index(s.parent[v]) for v in image]
                    )
                    vals = [0] * len(members)
                    for idx, w in enumerate(members):
                        vals[dperm[idx]] = cperm[image.index(f.values[w])]
                    assert is_rigid_surjection(TreeMap(sub_dom, sub_cod, tuple(vals)))


def test_restrict_initial_examples():
    f = TreeMap(C3, C2, (0, 0, 1))
    r = restrict_initial(f, 0)
    assert r.dom == C1 and r.cod == C1 and r.values == (0,)
    g = TreeMap(BROOM3, Y, (0, 1, 0, 2))
    r = restrict_initial(g, 1)
    assert r.dom == C2 and r.values == (0, 1)
    for s in trees_up_to(4):
        for t in trees_up_to(4):
            for values in rigid_surjection_values(t, s, True):
                f = TreeMap(t, s, values)
                assert restrict_initial(f, s.n - 1) == f


def test_restrict_initial_domain_image_sealed():
    for s in trees_up_to(4):
        for t in trees_up_to(5):
            for f in all_rigid_surjections(t, s):
                e = injection_of(f)
                for v in range(s.n):
                    r = restrict_initial(f, v)
                    assert r.dom.n == e.values[v] + 1
                    assert set(r.values) == set(range(v + 1))
                    assert is_sealed(r)


def test_restriction_commutes_with_composition():
    # f: T^w -> S, g: V -> T, v in S: restricting then composing equals
    # composing then restricting
    for s in trees_up_to(3):
        for t in trees_up_to(4):
            for v_tree in trees_up_to(4):
                gs = all_rigid_surjections(v_tree, t)
                if not gs:
                    continue
                for w in range(t.n):
                    t_cut = trees.initial_subtree(t, w)
                    for f in all_rigid_surjections(t_cut, s):
                        i = injection_of(f)
                        for g in gs:
                            g_w = restrict_initial(g, w)
                            fg = compose(f, g_w)
                            for v in range(s.n):
                                lhs = compose(restrict_initial(f, v), restrict_initial(g, i.values[v]))
                                rhs = restrict_initial(fg, v)
                                assert lhs == rhs


def test_is_sealed_examples():
    assert is_sealed(TreeMap(C3, C2, (0, 0, 1)))
    assert not is_sealed(TreeMap(C3, C2, (0, 1, 0)))
    for t in trees_up_to(4):
        assert is_sealed(identity(t))


# --- conjugate leaves -------------------------------------------------------------


def test_conjugate_leaf_examples():
    e = TreeMap(Y, BROOM3, (0, 1, 3))
    assert conjugate_leaf(e, 1) == 2
    assert conjugate_leaf(e, 2) == 3  # largest leaf pairs with largest leaf
    for t in trees_up_to(4):
        for leaf in t.leaves:
            assert conjugate_leaf(identity(t), leaf) == leaf
    with pytest.raises(NotLeaf):
        conjugate_leaf(TreeMap(C2, C2, (0, 1)), 0)


def test_conjugate_composes():
    # z j-conjugate to y and y i-conjugate to x => z (j o i)-conjugate to x
    for s in trees_up_to(3):
        for t in trees_up_to(4):
            for v in trees_up_to(5):
                js = all_embeddings(t, v)
                if not js:
                    continue
                for i in all_embeddings(s, t):
                    for j in js:
                        for x in s.leaves:
                            y = conjugate_leaf(i, x)
                            z = conjugate_leaf(j, y)
                            assert z == conjugate_leaf(compose(j, i), x)


def test_restrict_conjugate_examples():
    f = TreeMap(BROOM3, Y, (0, 1, 0, 2))
    fx = restrict_conjugate(f, 1)
    assert fx.dom == trees.initial_subtree(BROOM3, 2) and fx.values == (0, 1, 0)
    assert fx.cod == C2
    for t in trees_up_to(4):
        f = identity(t)
        for x in t.leaves:
            fx = restrict_conjugate(f, x)
            assert fx == identity(trees.initial_subtree(t, x))


def test_restrict_conjugate_image():
    # image of the conjugate restriction is the full initial subtree at x
    for s in trees_up_to(4):
        for t in trees_up_to(5):
            for f in all_rigid_surjections(t, s):
                for x in s.leaves:
                    fx = restrict_conjugate(f, x)
                    assert set(fx.values) == set(range(x + 1))
                    assert is_rigid_surjection(fx)


def test_conjugate_restriction_commutes_with_composition():
    for s in trees_up_to(3):
        for t in trees_up_to(4):
            fs = all_rigid_surjections(t, s)
            if not fs:
                continue
            for v in trees_up_to(5):
                for g in all_rigid_surjections(v, t):
                    for f in fs:
                        for x in s.leaves:
                            y = conjugate_leaf(injection_of(f), x)
                            assert compose(
                                restrict_conjugate(f, x), restrict_conjugate(g, y)
                            ) == restrict_conjugate(compose(f, g), x)


# --- the word block condition -------------------------------------------------------


def test_block_condition_examples():
    assert check_block_condition((0, 1), 1, 1, 1)
    assert not check_block_condition((0, 0), 1, 1, 1)  # block never hits its target
    assert check_block_condition((0, 1, 0), 1, 1, 2)


def test_block_condition_maps_are_a_rigid():
    for a, l, i in [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 1)]:
        dom, cod = trees.chain(a + l * i), trees.chain(a + l)
        for vals in itertools.product(range(a + l), repeat=l * i):
            p = tuple(range(a)) + vals
            if check_block_condition(p, a, l, i):
                assert is_a_rigid(TreeMap(dom, cod, p), a)
