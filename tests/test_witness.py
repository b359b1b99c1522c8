import concurrent.futures
import hashlib
import itertools
import os
import random
import re
import sys

import pytest

from treeramsey import enumeration, maps, serialize, trees, witness as wit
from treeramsey.enumeration import all_embeddings, all_rigid_surjections, rigid_surjection_values
from treeramsey.errors import (
    NotFoundWithinBound,
    NotRigid,
    PrerequisiteFailed,
    ResourceCapExceeded,
    VerificationFailed,
)
from treeramsey.maps import (
    TreeMap,
    classify,
    compose,
    identity,
    injection_of,
    is_sealed,
    restrict_conjugate,
)

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


def as_tuples(hypergraph):
    # the builders list value rows (bytes), the compose oracles value tuples
    vertices, edges = hypergraph
    return [tuple(v) if type(v) is bytes else (v[0], tuple(v[1])) for v in vertices], edges


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
    [
        lambda r: wit.WitnessReport(r.verdict, 1, r.mode, r.s, r.t, r.u, r.counterexample, r.stats),
        lambda r: wit.WitnessReport(
            r.verdict, r.b, r.mode, r.s, r.t, r.u, [c + 5 for c in r.counterexample], r.stats
        ),
    ],
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


def test_search_cap_hit_carries_the_candidates_stats():
    # chain 5 is the first candidate the cap stops; its report's stats ride on the error
    with pytest.raises(ResourceCapExceeded, match="candidate with 5 vertices hit the node cap") as info:
        wit.search_witness(2, C2, C3, mode="chain", max_vertices=8, max_nodes=10)
    assert info.value.stats == wit.check_witness_mn(2, C2, C3, trees.chain(5), max_nodes=10).stats
    assert info.value.stats.nodes == 10


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


@pytest.mark.parametrize(
    "s, t, failing, prefix_edges_checked",
    [((None, 0), (None, 0, 1, 2), 196, 1631), ((None, 0, 0), (None, 0, 0, 0), 195, 301)],
)
def test_a_failing_tree_transports_its_counterexample_to_its_prefix(
    s, t, failing, prefix_edges_checked
):
    # the collapse map h: U ->> U' sends U's last vertex onto its parent and
    # fixes the rest; a counterexample c on U gives c'(f) = c(f o h) on U'
    s, t = trees.OrderedTree(s), trees.OrderedTree(t)
    seen = edges_checked = 0
    for u in trees_up_to(7):
        if u.n < 2:
            continue
        prefix = trees.initial_subtree(u, u.n - 2)
        h = TreeMap(u, prefix, tuple(range(u.n - 1)) + (u.parent[-1],))
        assert classify(h).rigid_surjection
        rep = wit.check_witness_mn(2, s, t, u)
        if rep.verdict != "fails":
            continue
        seen += 1
        vertices, _ = wit._mn_hypergraph(s, t, u)  # the order the counterexample colours
        c = dict(zip(map(tuple, vertices), rep.counterexample))
        prefix_vertices, prefix_edges = mn_hypergraph_by_compose(s, t, prefix)
        transported = [c[tuple(f[x] for x in h.values)] for f in prefix_vertices]
        assert set(transported) <= {0, 1}
        assert not any(len({transported[v] for v in e}) == 1 for e in prefix_edges), u
        edges_checked += len(prefix_edges)
    assert (seen, edges_checked) == (failing, prefix_edges_checked)


def test_sealed_sweep_to_8_vertices_keeps_every_verdict_and_node_count():
    # every tree with at most 8 vertices decided, as bench/tree_sweep.py does,
    # digesting each tree's verdict and node count
    s, t = C2, trees.tree([None, 0, 1, 1])
    digest, decisions, holds = hashlib.sha256(), 0, 0
    for u in trees_up_to(8):
        report = wit.check_witness_sealed(2, s, t, u)
        decisions += 1
        holds += report.holds
        digest.update(f"{list(u.parent)} {report.verdict} {report.stats.nodes}\n".encode())
    assert (decisions, holds, digest.hexdigest()[:16]) == (626, 1, "8affb05ab5970c56")


def _mirror(t):
    # the tree with every vertex's children in reverse order, renumbered in preorder
    children = [[] for _ in range(t.n)]
    for v in range(1, t.n):
        children[t.parent[v]].append(v)
    order, stack = [], [0]
    while stack:  # the last child is pushed last, so it is visited first
        order.append(stack.pop())
        stack.extend(children[order[-1]])
    number = {v: i for i, v in enumerate(order)}
    return trees.tree([None] + [number[t.parent[v]] for v in order[1:]])


def test_sealed_mode_is_not_mirror_invariant():
    # initial subtrees are preorder prefixes, which the mirror does not keep:
    # U is a sealed witness and its mirror image is not, S being its own
    # mirror; so no sweep may skip a sealed tree whose mirror it decided
    s, t, u = trees.tree([None, 0, 0]), trees.tree([None, 0, 0, 2]), trees.tree([None, 0, 0, 2, 3])
    mt, mu = trees.tree([None, 0, 1, 0]), trees.tree([None, 0, 1, 2, 0])
    assert (_mirror(s), _mirror(t), _mirror(u)) == (s, mt, mu)
    report = wit.check_witness_sealed(2, s, t, u)
    mirrored = wit.check_witness_sealed(2, s, mt, mu)
    assert (report.verdict, report.stats.nodes) == ("holds", 2)
    assert (mirrored.verdict, mirrored.stats.nodes) == ("fails", 7)
    assert wit.replay_report(report) and wit.replay_report(mirrored)


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


def test_derive_mn_cap_hit_on_the_sealed_check_carries_its_stats():
    # the sealed check of (chain 2, chain 3)+ holds on u in 96 nodes: a lower
    # cap leaves it undecided, which is a cap hit and not a failed prerequisite
    u = trees.tree([None, 0, 1, 1, 3, 3, 0])
    for cap in (0, 95):
        with pytest.raises(ResourceCapExceeded, match="hit the node cap") as info:
            wit.derive_mn_from_sealed(2, C2, C3, u, max_nodes=cap)
        assert info.value.stats.nodes == cap
    wit.derive_mn_from_sealed(2, C2, C3, u, max_nodes=96)  # the check passes at 96


def test_derivation_intermediates_produce_monochromatic_edges():
    u, _ = wit.search_witness(2, Y, Y, mode="sealed", max_vertices=5)
    assembled = wit.assemble_V(u).tree
    rs = all_rigid_surjections(assembled, C2)
    for pattern in range(3):
        coloring = {m.values: (i + pattern) % 2 for i, m in enumerate(rs)}
        inter = wit.derivation_intermediates(C2, C2, u, coloring)
        if inter["g_final"] is None:
            continue
        g = inter["g_final"]
        edge = {coloring[compose(f, g).values] for f in all_rigid_surjections(C2, C2)}
        assert len(edge) == 1


def _derivation_by_compose_oracle(s, t, u, coloring):
    # the first top-cut edge of the compose-built sealed hypergraph that is
    # monochromatic under the transported colouring and whose truncation ends
    # at a leaf of U: (g+, g, g o pi_y0), or three Nones
    s_plus, t_plus = wit.assemble_plus(s)[0], wit.assemble_plus(t)[0]
    vertices, edges = sealed_hypergraph_by_compose(s_plus, t_plus, u)
    g_pluses = [TreeMap(u, t_plus, v) for v in rigid_surjection_values(u, t_plus, True)]
    assembly = wit.assemble_V(u)
    leaf_coloring = wit.transport_through_projections(assembly, coloring, s)
    color = wit.transport_through_conjugates(u, s_plus, leaf_coloring)
    for g_plus, edge in zip(g_pluses, edges[len(edges) - len(g_pluses) :]):
        if len({color(*vertices[i]) for i in edge}) <= 1:
            g = restrict_conjugate(g_plus, t_plus.n - 2)
            if g.dom.n - 1 in u.leaves:
                return g_plus, g, compose(g, assembly.projections[g.dom.n - 1])
    return None, None, None


def test_derivation_intermediates_match_the_compose_oracle():
    found = []
    for s, t in [(C2, C2), (Y, Y), (C2, C3)]:
        s_plus, t_plus = wit.assemble_plus(s)[0], wit.assemble_plus(t)[0]
        u, _ = wit.search_witness(2, s_plus, t_plus, mode="sealed", max_vertices=7)
        rs = all_rigid_surjections(wit.assemble_V(u).tree, s)
        rng = random.Random(f"{s.parent}{t.parent}")
        patterns = [[0] * len(rs), [i % 2 for i in range(len(rs))], [i // 2 % 2 for i in range(len(rs))]]
        patterns += [[rng.randrange(2) for _ in rs] for _ in range(5)]
        for pattern in patterns:
            coloring = {m.values: c for m, c in zip(rs, pattern)}
            inter = wit.derivation_intermediates(s, t, u, coloring)
            expected = _derivation_by_compose_oracle(s, t, u, coloring)
            assert (inter["g_plus"], inter["g"], inter["g_final"]) == expected, (s, t, pattern)
            found.append(expected[0] is not None)
    assert any(found)  # the scans find edges, so not only Nones are compared


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
                vertex_list, edges = as_tuples(wit._sealed_hypergraph(s, t, u))
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
        assert as_tuples(build(s, t, u)) == (oracle_vertices, [tuple(sorted(e)) for e in oracle_edges])


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
    wit.derivation_intermediates(C2, C2, u, {m.values: 0 for m in rs})
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
            assert as_tuples(wit._sealed_hypergraph(C2, t, u)) == expected[t, u], (t, u)
    finally:
        _clear_enumeration_caches()


def test_sealed_layers_are_shared_with_the_prefix(cold_caches):
    # U's hypergraph is its prefix's with U's top layer added, one layer per cut cached
    u = trees.tree([None, 0, 1, 1, 0, 4])
    t = trees.tree([None, 0, 1, 1])
    prefix_vertices, prefix_edges = wit._sealed_hypergraph(C2, t, trees.initial_subtree(u, u.n - 2))
    top = wit._sealed_layer(C2, t, u)
    vertices, edges = wit._sealed_hypergraph(C2, t, u)
    top_vertices = [(u.n - 1, values) for values in top.positions[-1]]
    assert vertices == prefix_vertices + top_vertices and edges == prefix_edges + top.edges
    assert sum(map(len, top.positions)) == len(vertices) and len(top.positions) == u.n
    assert wit._sealed_layer.cache_info().currsize == u.n


def test_sealed_build_computes_each_injection_once(monkeypatch, cold_caches):
    # work counts, not time: from cold caches neither build makes a TreeMap,
    # and the sealed build verifies exactly one injection per g
    s, t, u = C2, trees.tree([None, 0, 1, 1]), trees.tree([None, 0, 1, 2, 3, 1, 1])
    injected, made = [], [0]
    original_columns, original_post_init = wit._injection_columns, TreeMap.__post_init__

    def counting_columns(dom_anc, cod_parent, table):
        injected.extend((dom_anc, values) for values in table)
        return original_columns(dom_anc, cod_parent, table)

    def counting_post_init(self):
        made[0] += 1
        original_post_init(self)

    monkeypatch.setattr(wit, "_injection_columns", counting_columns)
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


def test_injection_columns_refuse_exactly_what_the_per_row_kernel_refuses():
    # seeded tables for every U up to 6 vertices onto every T up to 4: rigid
    # rows, rigid rows with the values of T permuted, and random rows with
    # values up to one past T, shuffled; the table pass refuses a table iff a
    # row is not rigid, naming the first such row, and otherwise gives the
    # kernel's injections
    rng = random.Random(29)
    refused = accepted = 0
    for u in trees_up_to(6):
        for t in trees_up_to(4):
            anc, cod, m = u.anc_mask, t.parent, t.n
            rigid = list(rigid_surjection_values(u, t, False))
            for _ in range(4):
                table = rng.sample(rigid, min(len(rigid), rng.randrange(4)))
                for _ in range(rng.randrange(3)):
                    row = [rng.randrange(m + 1) for _ in range(u.n)]
                    table.insert(rng.randrange(len(table) + 1), bytes(row))
                if rigid and rng.randrange(2):
                    relabel = bytes(rng.sample(range(m), m)).ljust(256, b"\0")
                    table.insert(rng.randrange(len(table) + 1), rng.choice(rigid).translate(relabel))
                expected = [maps._injection_values(anc, cod, g) for g in table]
                if None in expected:
                    refused += 1
                    bad = list(table[expected.index(None)])
                    with pytest.raises(NotRigid, match=re.escape(f"{bad} is not a rigid surjection")):
                        wit._injection_columns(anc, cod, table)
                else:
                    accepted += 1
                    columns = wit._injection_columns(anc, cod, table)
                    assert columns == [[e[v] for e in expected] for v in range(m)]
    assert refused > 500 and accepted > 500


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
    original = wit._injection_columns

    def early_injections(dom_anc, cod_parent, table):
        return [[max(x - 1, 0) for x in column] for column in original(dom_anc, cod_parent, table)]

    monkeypatch.setattr(wit, "_injection_columns", early_injections)
    with pytest.raises(VerificationFailed, match="not onto"):
        wit._sealed_hypergraph(C2, C2, C3)
    # cut early from the second g of each table on: the layers are built from
    # the lowest cut up, and the message names the first g cut early
    t, u = trees.tree([None, 0, 1, 1]), trees.tree([None, 0, 1, 2, 3, 1, 1])
    tables = [rigid_surjection_values(trees.initial_subtree(u, c), t, True) for c in range(u.n)]
    first = next(table[1] for table in tables if len(table) > 2)

    def early_after_the_first(dom_anc, cod_parent, table):
        columns = original(dom_anc, cod_parent, table)
        return [column[:1] + [max(x - 1, 0) for x in column[1:]] for column in columns]

    _clear_enumeration_caches()
    monkeypatch.setattr(wit, "_injection_columns", early_after_the_first)
    with pytest.raises(VerificationFailed, match=re.escape(f"restriction of {list(first)} to")):
        wit._sealed_hypergraph(C2, t, u)


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
    assert as_tuples(wit._mn_hypergraph(t, t, t)) == ([identity_values], [(0,)])
    assert as_tuples(wit._sealed_hypergraph(t, t, t)) == ([(255, identity_values)], [(0,)])
    vertices, edges = as_tuples(wit._mn_hypergraph(C1, t, t))
    assert vertices == [(0,) * 256] and edges == [(0,)]


def test_sealed_build_of_a_deep_tree_stays_within_the_recursion_limit(cold_caches):
    # each layer links to the one below it; the build looks up every
    # _DEPTH-th layer first, so a tree deeper than the recursion limit builds
    u = trees.chain(sys.getrecursionlimit() + 200)
    vertices, edges = wit._sealed_hypergraph(C2, C2, u)
    # the one sealed map of each cut U^c onto chain 2, c >= 1, is 0...0 1
    assert vertices == [(c, bytes(c) + b"\1") for c in range(1, u.n)]
    assert edges == [(i,) for i in range(u.n - 1)]


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
