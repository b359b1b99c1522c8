import concurrent.futures
import itertools
import os
from dataclasses import replace

import pytest

from treeramsey import enumeration, serialize, trees, witness as wit
from treeramsey.enumeration import all_embeddings, all_rigid_surjections, rigid_surjection_values
from treeramsey.errors import (
    NotFoundWithinBound,
    NotRigid,
    PrerequisiteFailed,
    ResourceCapExceeded,
    VerificationFailed,
)
from treeramsey.maps import TreeMap, classify, compose, identity, injection_of, is_sealed

from _fixtures import assert_fixture, stored_fixture
from _oracles import (
    find_proper_coloring_enumerate,
    mn_hypergraph_by_compose,
    sealed_hypergraph_by_compose,
)

C1, C2, C3 = trees.chain(1), trees.chain(2), trees.chain(3)
Y = trees.tree([None, 0, 0])


def trees_up_to(n):
    for k in range(1, n + 1):
        yield from trees.all_trees(k)


# --- witness decisions -------------------------------------------------------


def test_identity_instance_holds():
    for t in trees_up_to(4):
        for b in (1, 2, 3):
            rep = wit.check_witness_mn(b, t, t, t)
            assert rep.holds  # RS(T,T) = {id}: a singleton edge


def test_spec_failure_instance():
    rep = wit.check_witness_mn(2, C2, C3, C3)
    assert rep.verdict == "fails"
    assert rep.counterexample is not None
    assert wit.replay_report(rep)


@pytest.mark.parametrize(
    "forge",
    [lambda r: replace(r, b=1), lambda r: replace(r, counterexample=[c + 5 for c in r.counterexample])],
    ids=["b=1", "colors+5"],
)
def test_replay_refuses_colors_outside_b(forge):
    # [0, 0, 1] defeats every edge, but with b = 1 (or shifted colors) it is no
    # b-coloring; one color holds on these trees
    rep = wit.check_witness_mn(2, C2, C3, C3)
    assert rep.verdict == "fails" and wit.replay_report(rep)
    assert not wit.replay_report(forge(rep))
    assert wit.check_witness_mn(1, C2, C3, C3).holds


def test_one_color_holds_when_maps_exist():
    for s in trees_up_to(3):
        for t in trees_up_to(3):
            for u in trees_up_to(4):
                if all_rigid_surjections(u, t) and all_rigid_surjections(t, s):
                    assert wit.check_witness_mn(1, s, t, u).holds


def test_sealed_single_vertex_codomain():
    for t in trees_up_to(3):
        rep = wit.check_witness_sealed(2, C1, t, t)
        assert rep.holds


def test_sealed_small_fixture():
    rep = wit.check_witness_sealed(2, C2, C2, C2)
    assert_fixture("sealed check b=2 s=[2] t=[2] v=[2]", rep.verdict)
    assert rep.verdict in ("holds", "fails")
    assert wit.replay_report(rep)


def test_fails_replay_through_independent_checker():
    # every failing verdict's coloring defeats every edge when replayed
    for u in trees_up_to(4):
        rep = wit.check_witness_mn(2, C2, C3, u)
        if rep.verdict == "fails":
            assert wit.replay_report(rep)


def test_holds_reproduced_by_plain_checker():
    reproduced = 0
    for s in trees_up_to(3):
        for t in trees_up_to(3):
            for u in trees_up_to(4):
                rep = wit.check_witness_mn(2, s, t, u)
                if rep.holds and rep.stats.vertices <= 12:
                    assert wit.replay_report(rep)
                    reproduced += 1
    assert reproduced > 50


def test_search_chain_trivial_cases():
    u, rep = wit.search_witness(2, C2, C2, mode="chain", max_vertices=4)
    assert u.n == 2  # RS([2],[2]) = {id}
    for l in (1, 2, 3):
        u, rep = wit.search_witness(3, C1, trees.chain(l), mode="chain", max_vertices=5)
        assert u.n == l  # single vertex-set collapses everything


def test_search_chain_minimal_m_fixture():
    u, rep = wit.search_witness(2, C2, C3, mode="chain", max_vertices=7)
    assert u.n == 6
    assert wit.replay_report(rep)  # re-verified by the plain checker
    # stability across two independent runs
    u2, rep2 = wit.search_witness(2, C2, C3, mode="chain", max_vertices=7)
    assert u2 == u and serialize.report_to_json(rep2) == serialize.report_to_json(rep)
    # the first entry's node count is the work of the engine that recorded it;
    # every other field is a property of the instance
    stored = stored_fixture("chain minimal m b=2 k=2 l=3")
    computed = {"m": u.n, "report": serialize.report_to_json(rep)}
    del stored["report"]["stats"]["nodes"], computed["report"]["stats"]["nodes"]
    assert computed == stored
    assert_fixture(
        "chain minimal m b=2 k=2 l=3 propagating",
        {"m": u.n, "report": serialize.report_to_json(rep)},
    )


def test_chain_witnesses_beyond_the_minimal_m():
    # a witness stays one on every longer chain, so the fixture's m = 6 decides these
    minimal = stored_fixture("chain minimal m b=2 k=2 l=3")["m"]
    for m in (7, 8, 9):
        rep = wit.check_witness_mn(2, C2, C3, trees.chain(m), max_nodes=10_000)
        assert m >= minimal and rep.verdict == "holds"


def test_cap_hit_keeps_partial_stats():
    # the instance fails, and a proper coloring assigns all 127 vertices, so
    # the cap stops the search whatever it branches on
    rep = wit.check_witness_mn(2, C2, trees.chain(4), trees.chain(8), max_nodes=50)
    assert rep.verdict == "cap_exceeded"
    assert rep.stats.nodes == 50 and rep.stats.vertices == 127


def test_search_jobs_clamped_to_cpu_count(monkeypatch):
    # a stand-in pool records its size and decides in this process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        map = staticmethod(map)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    u1, rep1 = wit.search_witness(2, C2, C3, mode="chain", max_vertices=7)
    u64, rep64 = wit.search_witness(2, C2, C3, mode="chain", max_vertices=7, jobs=64)
    assert sizes == [2]
    assert u64 == u1 and serialize.report_to_json(rep64) == serialize.report_to_json(rep1)


def test_search_not_found():
    with pytest.raises(NotFoundWithinBound):
        wit.search_witness(2, C2, C3, mode="chain", max_vertices=4)


@pytest.mark.parametrize(
    "mode, s, t, max_vertices, holding_prefixes",
    [
        # sealed: U's hypergraph extends its prefix's (the same vertices
        # first, the prefix's edges among them); no prefix holds below 9
        ("sealed", (None, 0), (None, 0, 1, 1), 9, 4),
        # mn: "holds" transports from the prefix up through the collapse map
        ("mn", (None, 0, 0), (None, 0, 0, 0), 8, 2),
    ],
)
def test_a_holding_prefix_makes_the_tree_hold(mode, s, t, max_vertices, holding_prefixes):
    # the prefix of U is U without its last vertex, the tree of one size less
    decide = wit.check_witness_mn if mode == "mn" else wit.check_witness_sealed
    s, t = trees.OrderedTree(s), trees.OrderedTree(t)
    holds = {u.parent: decide(2, s, t, u).holds for u in trees_up_to(max_vertices)}
    extended = [p for p in holds if len(p) > 1 and holds[p[:-1]]]
    assert len(extended) == holding_prefixes
    assert all(holds[p] for p in extended)


# --- bridges ------------------------------------------------------------------


def test_prvo_examples():
    assert wit.bridge_prvo((0, 0, 1), 3, 2) == (True, True)
    assert wit.bridge_prvo((0, 1, 2), 3, 3) == (True, True)
    assert wit.bridge_prvo((0, 0, 2), 3, 3) == (False, False)


def test_prvo_agreement_all_chain_maps():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for vals in itertools.product(range(k), repeat=n):
                growth, tree_verdict = wit.bridge_prvo(vals, n, k)
                assert growth == tree_verdict


def test_leeb_transport_constant():
    embs = all_embeddings(C2, C3)
    transported = wit.leeb_transport(C2, C3, [1] * len(embs))
    assert set(transported) == {1}


def test_leeb_transport_by_injection_parity():
    u = C3
    embs = all_embeddings(C2, u)
    coloring = [e.values[1] % 2 for e in embs]
    transported = wit.leeb_transport(C2, u, coloring)
    for f, c in zip(all_rigid_surjections(u, C2), transported):
        assert c == injection_of(f).values[1] % 2


def test_leeb_contract():
    for u in trees_up_to(4):
        embs = all_embeddings(C2, u)
        if not embs:
            continue
        for g0 in all_rigid_surjections(u, C2):
            coloring = [e.values[-1] % 2 for e in embs]
            assert wit.leeb_contract_check(C2, C2, u, coloring, g0)


def test_gr_compatibility_small():
    for u in trees_up_to(4):
        for l in (1, 2, 3):
            assert wit.gr_compatibility(u, l)


# --- assembly -------------------------------------------------------------------


def test_assemble_plus_example():
    s_plus, s_new = wit.assemble_plus(C2)
    assert s_plus == Y and s_new == 2
    for t in trees_up_to(5):
        t_plus, top = wit.assemble_plus(t)
        assert t_plus.parent[top] == 0 and top == t.n
        assert top in t_plus.leaves and top == t_plus.leaves[-1]


def test_lift_sealed_examples():
    lifted = wit.lift_sealed(identity(C3))
    assert lifted.values == (0, 1, 2, 3)
    f = TreeMap(C3, C2, (0, 0, 1))
    lifted = wit.lift_sealed(f)
    assert lifted.values == (0, 0, 1, 2) and is_sealed(lifted)


def test_lift_sealed_all_small_maps():
    for s in trees_up_to(3):
        for t in trees_up_to(4):
            for f in all_rigid_surjections(t, s):
                wit.lift_sealed(f)  # asserts the conjugacy equations internally


def test_assemble_v_examples():
    asm = wit.assemble_V(C2)
    assert asm.tree == C2 and list(asm.projections) == [1]
    assert asm.projections[1].values == (0, 1)
    asm = wit.assemble_V(Y)
    assert asm.tree.parent == (None, 0, 0, 0)
    assert set(asm.leaves) == {1, 2}


def test_assemble_v_invariants():
    for u in trees_up_to(5):
        asm = wit.assemble_V(u)
        total = 1 + sum(y for y in asm.leaves)
        assert asm.tree.n == total
        for y in asm.leaves:
            pi = asm.projections[y]
            fl = classify(pi)
            assert fl.rigid_surjection
            assert fl.injection == asm.inclusions[y]
            # the projection collapses foreign blocks to the root
            for v in range(asm.tree.n):
                img = pi.values[v]
                assert 0 <= img <= y


def test_transport_constant_coloring_stays_constant():
    u = Y
    asm = wit.assemble_V(u)
    rs = all_rigid_surjections(asm.tree, C2)
    coloring = {m.values: 1 for m in rs}
    leafwise = wit.transport_through_projections(asm, coloring, C2)
    assert set(leafwise.values()) == {1}
    s_plus, _ = wit.assemble_plus(C2)
    sealed_color = wit.transport_through_conjugates(u, s_plus, leafwise)
    for cut in range(u.n):
        for values in rigid_surjection_values(trees.initial_subtree(u, cut), s_plus, True):
            assert sealed_color(cut, values) == 1


def test_projection_transport_identity_pointwise():
    # colors transported through a projection satisfy c'(f o g') = c(f o g' o pi_y)
    u = Y
    asm = wit.assemble_V(u)
    rs_v = all_rigid_surjections(asm.tree, C2)
    coloring = {m.values: i % 2 for i, m in enumerate(rs_v)}
    leafwise = wit.transport_through_projections(asm, coloring, C2)
    for y in asm.leaves:
        pi = asm.projections[y]
        u_y = trees.initial_subtree(u, y)
        for gp in all_rigid_surjections(u_y, u_y):
            for f in all_rigid_surjections(u_y, C2):
                fg = compose(f, gp)
                assert leafwise[(y, fg.values)] == coloring[compose(fg, pi).values]


def test_derive_mn_from_sealed_end_to_end():
    u, _ = wit.search_witness(2, *[wit.assemble_plus(C2)[0]] * 2, mode="sealed", max_vertices=5)
    assembled, report = wit.derive_mn_from_sealed(2, C2, C2, u)
    assert report.holds
    assert_fixture(
        "derived witness b=2 s=[2] t=[2]",
        {"sealed": list(u.parent), "assembled": list(assembled.parent)},
    )


def test_derive_mn_prerequisite_failure():
    with pytest.raises(PrerequisiteFailed):
        wit.derive_mn_from_sealed(2, C2, C2, C1)


def test_derivation_intermediates_produce_monochromatic_edges():
    u, _ = wit.search_witness(2, Y, Y, mode="sealed", max_vertices=5)
    assembled = wit.assemble_V(u).tree
    rs = all_rigid_surjections(assembled, C2)
    for pattern in range(3):
        coloring = {m.values: (i + pattern) % 2 for i, m in enumerate(rs)}
        inter = wit.derivation_intermediates(2, C2, C2, u, coloring)
        if inter["g_final"] is None:
            continue
        g = inter["g_final"]
        edge = {coloring[compose(f, g).values] for f in all_rigid_surjections(C2, C2)}
        assert len(edge) == 1


def test_sealed_edges_match_composition_space_products():
    # the sealed hypergraph's edge elements are exactly the composition-space
    # products g * f, computed through the independent framework module
    from treeramsey import framework as fw

    for s in trees_up_to(3):
        for t in trees_up_to(3):
            for u in trees_up_to(3):
                amb = {
                    "S": fw.Ambient("S", s),
                    "T": fw.Ambient("T", t),
                    "V": fw.Ambient("V", u),
                }
                vertices, edges = wit._sealed_hypergraph(s, t, u)
                vertex_list = list(vertices)
                idx = 0
                for v0 in range(u.n):
                    u_cut = trees.initial_subtree(u, v0)
                    for g in rigid_surjection_values(u_cut, t, True):
                        g_el = fw.DomainElement(amb["V"], v0, amb["T"], t.n - 1, g)
                        expected = set()
                        for tv in range(t.n):
                            for f in rigid_surjection_values(trees.initial_subtree(t, tv), s, True):
                                f_el = fw.DomainElement(amb["T"], tv, amb["S"], s.n - 1, f)
                                prod = fw.space_mul(g_el, f_el)
                                expected.add((prod.cut_dom, prod.values))
                        got = {vertex_list[i] for i in edges[idx]}
                        assert got == expected
                        idx += 1


def test_builders_match_compose_oracles():
    # the byte-string builders give the compose-based hypergraphs, in order,
    # for every U up to 7 vertices in the two benchmark shapes
    cases = [("mn", C2, trees.chain(4), u) for u in trees_up_to(7)]
    cases += [("sealed", C2, trees.tree([None, 0, 1, 1]), u) for u in trees_up_to(7)]
    cases += [
        (mode, s, t, u)
        for mode in ("mn", "sealed")
        for s in trees_up_to(3)
        for t in trees_up_to(3)
        for u in trees_up_to(4)
    ]
    # each edge must also list its vertices in increasing order
    for mode, s, t, u in cases:
        build, oracle = (
            (wit._mn_hypergraph, mn_hypergraph_by_compose)
            if mode == "mn"
            else (wit._sealed_hypergraph, sealed_hypergraph_by_compose)
        )
        oracle_vertices, oracle_edges = oracle(s, t, u)
        assert build(s, t, u) == (oracle_vertices, [tuple(sorted(e)) for e in oracle_edges])


def _clear_enumeration_caches():
    # the prefix tables and the sealed layers too, so that a build redoes its
    # work and reads the patched names
    all_rigid_surjections.cache_clear()
    rigid_surjection_values.cache_clear()
    enumeration._prefix_table.cache_clear()
    wit._sealed_families.cache_clear()
    wit._sealed_layer.cache_clear()


@pytest.fixture()
def cold_caches():
    _clear_enumeration_caches()
    yield
    _clear_enumeration_caches()


def test_derivation_reads_the_sealed_view_under_its_one_call_form(cold_caches):
    # the derivation reads the sealed table, which has one key per pair, so
    # the call rigid_surjection_values(u, t_plus, True) finds it; the search
    # reads that table too, so it is cleared before the derivation
    u, _ = wit.search_witness(2, Y, Y, mode="sealed", max_vertices=5)
    rs = all_rigid_surjections(wit.assemble_V(u).tree, C2)
    rigid_surjection_values.cache_clear()
    wit.derivation_intermediates(2, C2, C2, u, {m.values: 0 for m in rs})
    t_plus, _ = wit.assemble_plus(C2)
    before = rigid_surjection_values.cache_info()
    rigid_surjection_values(u, t_plus, True)
    after = rigid_surjection_values.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_sealed_layers_match_compose_oracle_from_cold_caches(order):
    # every U up to 8 vertices in the two benchmark shapes; in reverse order a
    # tree's layers and tables are built before its prefix asks for them
    cases = [(t, u) for t in (trees.chain(4), trees.tree([None, 0, 1, 1])) for u in trees_up_to(8)]
    expected = {}
    for t, u in cases:
        vertices, edges = sealed_hypergraph_by_compose(C2, t, u)
        expected[t, u] = (vertices, [tuple(sorted(e)) for e in edges])
    if order == "reverse":
        cases.reverse()
    _clear_enumeration_caches()
    try:
        for t, u in cases:
            assert wit._sealed_hypergraph(C2, t, u) == expected[t, u], (t, u)
    finally:
        _clear_enumeration_caches()


def test_sealed_layers_are_shared_with_the_prefix(cold_caches):
    # U's hypergraph is its prefix's with U's top layer added, one layer per cut cached
    u = trees.tree([None, 0, 1, 1, 0, 4])
    t = trees.tree([None, 0, 1, 1])
    prefix_vertices, prefix_edges = wit._sealed_hypergraph(C2, t, trees.initial_subtree(u, u.n - 2))
    top = wit._sealed_layer(C2, t, u)
    vertices, edges = wit._sealed_hypergraph(C2, t, u)
    assert vertices == prefix_vertices + top.vertices and edges == prefix_edges + top.edges
    assert top.end == len(vertices) and len(top.positions) == u.n
    assert wit._sealed_layer.cache_info().currsize == u.n


def test_sealed_build_computes_each_injection_once(monkeypatch, cold_caches):
    # work counts, not time: from cold caches neither build makes a TreeMap,
    # and the sealed build verifies exactly one injection per g
    s, t, u = C2, trees.tree([None, 0, 1, 1]), trees.tree([None, 0, 1, 2, 3, 1, 1])
    injected, made = [], [0]
    original_injection, original_post_init = wit._injection_values, TreeMap.__post_init__

    def counting_injection(dom_anc, cod_parent, values):
        injected.append((dom_anc, values))
        return original_injection(dom_anc, cod_parent, values)

    def counting_post_init(self):
        made[0] += 1
        original_post_init(self)

    monkeypatch.setattr(wit, "_injection_values", counting_injection)
    monkeypatch.setattr(TreeMap, "__post_init__", counting_post_init)
    _clear_enumeration_caches()
    wit._mn_hypergraph(s, trees.chain(4), u)
    assert made[0] == 0 and injected == []
    _clear_enumeration_caches()
    wit._sealed_hypergraph(s, t, u)
    monkeypatch.undo()
    assert made[0] == 0
    gs = [
        (trees.initial_subtree(u, v0).anc_mask, g)
        for v0 in range(u.n)
        for g in rigid_surjection_values(trees.initial_subtree(u, v0), t, True)
    ]
    assert len(gs) == 65
    assert sorted(injected) == sorted(gs)


def test_sealed_build_refuses_a_g_that_is_not_rigid(monkeypatch, cold_caches):
    # a value table that slips in a non-rigid g: the reversed values of a
    # sealed map send the root to the top, so no injection exists
    s, t, u = C2, C3, trees.chain(4)
    original = wit.rigid_surjection_values

    def table_with_a_bad_g(dom, cod, sealed, /):
        out = original(dom, cod, sealed)
        if cod == t and out:
            out += (tuple(reversed(out[0])),)
        return out

    monkeypatch.setattr(wit, "rigid_surjection_values", table_with_a_bad_g)
    with pytest.raises(NotRigid, match="not a rigid surjection"):
        wit._sealed_hypergraph(s, t, u)


def test_sealed_build_refuses_a_restriction_that_is_not_onto(monkeypatch, cold_caches):
    # an injection that cuts g one position early leaves t out of g^t
    original = wit._injection_values

    def early_injection(dom_anc, cod_parent, values):
        return tuple(max(x - 1, 0) for x in original(dom_anc, cod_parent, values))

    monkeypatch.setattr(wit, "_injection_values", early_injection)
    with pytest.raises(VerificationFailed, match="not onto"):
        wit._sealed_hypergraph(C2, C2, C3)


def test_builders_refuse_more_than_256_vertices_before_enumerating(monkeypatch):
    # the composites are bytes, so S and T must have at most 256 vertices
    def refuse(*args):
        raise AssertionError("enumerated before the width check")

    big = trees.chain(257)
    monkeypatch.setattr(wit, "rigid_surjection_values", refuse)
    monkeypatch.setattr(wit, "initial_subtree", refuse)
    for build in (wit._mn_hypergraph, wit._sealed_hypergraph):
        for s, t in [(C2, big), (big, C2)]:
            with pytest.raises(ResourceCapExceeded, match="at most 256 vertices"):
                build(s, t, C3)


def test_builders_take_256_vertices():
    # the widest trees allowed: value 255 is the last entry of a full table
    t = trees.chain(256)  # its only rigid surjection onto itself is the identity
    identity_values = tuple(range(256))
    assert wit._mn_hypergraph(t, t, t) == ([identity_values], [(0,)])
    assert wit._sealed_hypergraph(t, t, t) == ([(255, identity_values)], [(0,)])
    vertices, edges = wit._mn_hypergraph(C1, t, t)
    assert vertices == [(0,) * 256] and edges == [(0,)]


def test_three_engines_agree_on_witness_instances():
    from treeramsey import colorsearch as cs

    for s in trees_up_to(3):
        for t in trees_up_to(3):
            for u in trees_up_to(4):
                vertices, edges = wit._mn_hypergraph(s, t, u)
                if len(vertices) > 11:
                    continue
                pruned = cs.find_proper_coloring(len(vertices), edges, 2)
                plain = cs.find_proper_coloring_plain(len(vertices), edges, 2)
                table = find_proper_coloring_enumerate(len(vertices), edges, 2)
                assert pruned.holds == plain.holds == table.holds
