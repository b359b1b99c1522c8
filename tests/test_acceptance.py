"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
Every bound and tolerance is pinned here; nothing is configurable.
"""

import itertools
import subprocess
import sys

from treeramsey import framework as fw
from treeramsey import halesjewett as hj
from treeramsey import serialize, trees
from treeramsey import witness as wit
from treeramsey.enumeration import all_embeddings, all_rigid_surjections
from treeramsey.maps import (
    TreeMap,
    compose,
    conjugate_leaf,
    injection_of,
    is_rigid_surjection,
    is_sealed,
    restrict_conjugate,
    restrict_initial,
    rigid_from_embedding,
)

from _fixtures import assert_fixture, stored_fixture

T5 = [t for n in range(1, 6) for t in trees.all_trees(n)]
T6 = T5 + list(trees.all_trees(6))


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    text = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(text)
    assert ok, text


def test_acceptance_1_lemma_suite():
    checked = 0
    # uniqueness of the injection witness, and the embedding round trip
    for s in T5:
        for t in T5:
            embs = all_embeddings(s, t)
            for e in embs:
                assert injection_of(rigid_from_embedding(e)) == e
                checked += 1
            for f in all_rigid_surjections(t, s):
                witnesses = [
                    e
                    for e in embs
                    if all(f.values[e.values[v]] == v for v in range(s.n))
                    and all(t.below(e.values[f.values[w]], w) for w in range(t.n))
                ]
                assert len(witnesses) == 1 and witnesses[0] == injection_of(f)
                checked += 1

    # restrictions: downward-closed images, the restriction rigid onto its image,
    # initial cuts landing sealed on the cut
    for s in T5:
        for t in T5:
            for f in all_rigid_surjections(t, s):
                e = injection_of(f)
                for members_mask in range(1, 1 << t.n):
                    members = [v for v in range(t.n) if members_mask >> v & 1]
                    if any(
                        p not in members for v in members for p in t.ancestors(v)
                    ):
                        continue
                    image = sorted({f.values[w] for w in members})
                    assert all(p in image for v in image for p in s.ancestors(v))
                    sub_dom = trees.OrderedTree(
                        tuple(
                            None if t.parent[v] is None else members.index(t.parent[v])
                            for v in members
                        )
                    )
                    sub_cod = trees.OrderedTree(
                        tuple(
                            None if s.parent[v] is None else image.index(s.parent[v])
                            for v in image
                        )
                    )
                    restricted = TreeMap(
                        sub_dom,
                        sub_cod,
                        tuple(image.index(f.values[w]) for w in members),
                    )
                    assert is_rigid_surjection(restricted)
                    checked += 1
                for v in range(s.n):
                    r = restrict_initial(f, v)
                    assert r.dom.n == e.values[v] + 1
                    assert set(r.values) == set(range(v + 1))
                    assert is_sealed(r)
                    checked += 1

    # composition of injections, conjugate composition, and both restriction laws
    for s in T5:
        for t in T5:
            fs = all_rigid_surjections(t, s)
            if fs:
                for v_tree in T6:
                    for g in all_rigid_surjections(v_tree, t):
                        e_g = injection_of(g)
                        for f in fs:
                            fg = compose(f, g)
                            assert injection_of(fg) == compose(e_g, injection_of(f))
                            checked += 1
                            for x in s.leaves:
                                y = conjugate_leaf(injection_of(f), x)
                                assert compose(
                                    restrict_conjugate(f, x), restrict_conjugate(g, y)
                                ) == restrict_conjugate(fg, x)
                                checked += 1
            # conjugate-image law for every rigid map and leaf
            for f in fs:
                for x in s.leaves:
                    fx = restrict_conjugate(f, x)
                    assert set(fx.values) == set(range(x + 1))
                    assert is_rigid_surjection(fx)
                    checked += 1

    # truncation compatibility (the two-sided restriction law) over prefix domains
    for t in T5:
        for w in range(t.n):
            t_cut = trees.initial_subtree(t, w)
            for s in T5:
                fs = all_rigid_surjections(t_cut, s)
                if not fs:
                    continue
                for v_tree in T6:
                    gs = all_rigid_surjections(v_tree, t)
                    for f in fs:
                        i = injection_of(f)
                        for g in gs:
                            fgw = compose(f, restrict_initial(g, w))
                            for v in range(s.n):
                                assert compose(
                                    restrict_initial(f, v),
                                    restrict_initial(g, i.values[v]),
                                ) == restrict_initial(fgw, v)
                                checked += 1

    # conjugates compose along embeddings
    for s in T5:
        for t in T5:
            embs_st = all_embeddings(s, t)
            if not embs_st:
                continue
            for v_tree in T6:
                for j in all_embeddings(t, v_tree):
                    for i in embs_st:
                        ji = compose(j, i)
                        for x in s.leaves:
                            assert conjugate_leaf(j, conjugate_leaf(i, x)) == conjugate_leaf(ji, x)
                            checked += 1
    _line(1, "lemma suite |S|,|T|<=5, |V|<=6", True, f"{checked} checks")


def test_acceptance_2_axiom_suite():
    space = fw.check_space_axioms(4)
    domain = fw.check_domain_axioms(4)
    ok = space.ok and domain.ok
    _line(
        2,
        "composition-space + Ramsey-domain axioms, bound 4",
        ok,
        f"{space.checked}+{domain.checked} checks",
    )


def test_acceptance_3_bridge_suite():
    from _oracles import stirling2

    checked = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            rigid_count = 0
            for vals in itertools.product(range(k), repeat=n):
                growth, tree_verdict = wit.bridge_prvo(vals, n, k)
                assert growth == tree_verdict
                rigid_count += tree_verdict
                checked += 1
            assert rigid_count == stirling2(n, k)
    for u in T5:
        for l in (1, 2, 3):
            assert wit.gr_compatibility(u, l)
            checked += 1
    _line(3, "growth-rule bridge n<=6 + flat-order compatibility |U|<=5, l<=3", True, f"{checked} checks")


def test_acceptance_4_transfer_lemma():
    budget = 200_000
    total = 0
    reduced_cells = []
    for n in range(1, 5):
        for f in trees.all_forests(n):
            for a in (1, 2):
                for i_size in (1, 2):
                    count, exhausted = hj.verify_transfer_cell(
                        f, i_size, a, exhaustive_budget=budget
                    )
                    total += count
                    if not exhausted:
                        reduced_cells.append(f"{list(f.parent)}/a{a}/i{i_size}")
    detail = f"{total} word maps; reduced cells: {len(reduced_cells)} ({'; '.join(reduced_cells)})"
    _line(4, "transfer lemma, forests<=4, |I|<=2, |A|<=2", not reduced_cells, detail)


def test_acceptance_5_witness_fixtures():
    # (a) trivial holds: S = T (any b), chain k = 1, b = 1
    for t in [x for n in range(1, 5) for x in trees.all_trees(n)]:
        for b in (1, 2, 3):
            assert wit.check_witness_mn(b, t, t, t).holds
    for b in (2, 3):
        for l in (1, 2, 3):
            u, _ = wit.search_witness(b, trees.chain(1), trees.chain(l), mode="chain", max_vertices=5)
            assert u.n == l
    for s in trees.all_trees(2):
        for t in trees.all_trees(3):
            for u in trees.all_trees(4):
                if all_rigid_surjections(u, t):
                    assert wit.check_witness_mn(1, s, t, u).holds

    # (b) the pinned failing instance, with a replayable counterexample
    rep = wit.check_witness_mn(2, trees.chain(2), trees.chain(3), trees.chain(3))
    assert rep.verdict == "fails" and wit.replay_report(rep)

    # (c) minimal chain witness for b=2, k=2, l=3: bounded search, plain
    # re-verification, stability across two runs, fixture equality
    u1, rep1 = wit.search_witness(2, trees.chain(2), trees.chain(3), mode="chain", max_vertices=7)
    u2, rep2 = wit.search_witness(2, trees.chain(2), trees.chain(3), mode="chain", max_vertices=7)
    assert u1 == u2
    assert serialize.report_to_json(rep1) == serialize.report_to_json(rep2)
    assert wit.replay_report(rep1)
    # the first entry's node count is the work of the engine that recorded it;
    # every other field is a property of the instance
    stored = stored_fixture("chain minimal m b=2 k=2 l=3")
    computed = {"m": u1.n, "report": serialize.report_to_json(rep1)}
    del stored["report"]["stats"]["nodes"], computed["report"]["stats"]["nodes"]
    assert computed == stored
    assert_fixture(
        "chain minimal m b=2 k=2 l=3 propagating",
        {"m": u1.n, "report": serialize.report_to_json(rep1)},
    )
    _line(5, "witness fixtures (trivial holds, pinned fails, minimal chain m)", True, f"minimal m = {u1.n}")


def test_acceptance_6_assembly():
    c2 = trees.chain(2)
    s_plus, _ = wit.assemble_plus(c2)
    sealed_witness, _ = wit.search_witness(2, s_plus, s_plus, mode="sealed", max_vertices=5)
    assembled, report = wit.derive_mn_from_sealed(2, c2, c2, sealed_witness)
    ok = report.holds

    # invariant suite on the assembly operations for every tree up to 5 vertices
    for u in T5:
        t_plus, top = wit.assemble_plus(u)
        assert t_plus.parent[top] == 0 and top == t_plus.leaves[-1]
        asm = wit.assemble_V(u)
        assert asm.tree.n == 1 + sum(asm.leaves)
        for y in asm.leaves:
            from treeramsey.maps import classify

            fl = classify(asm.projections[y])
            assert fl.rigid_surjection and fl.injection == asm.inclusions[y]
    for s in [x for n in range(1, 4) for x in trees.all_trees(n)]:
        for t in [x for n in range(1, 5) for x in trees.all_trees(n)]:
            for f in all_rigid_surjections(t, s):
                wit.lift_sealed(f)
    _line(
        6,
        "sealed-to-plain assembly (b=2, S=T=[2])",
        ok,
        f"sealed witness {list(sealed_witness.parent)} -> {list(assembled.parent)}",
    )


def _cli(*argv: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "treeramsey.cli", *argv],
        capture_output=True,
        check=False,
    )
    return proc.stdout + b"\n---rc=" + str(proc.returncode).encode()


def test_acceptance_7_cli_determinism(tmp_path):
    c2 = tmp_path / "c2.json"
    c3 = tmp_path / "c3.json"
    serialize.save_json(str(c2), serialize.tree_to_json(trees.chain(2)))
    serialize.save_json(str(c3), serialize.tree_to_json(trees.chain(3)))
    commands = [
        ("--version",),
        ("--json", "enum", "trees", "--n", "5"),
        ("--json", "enum", "maps", "--kind", "rigid", "--dom", str(c3), "--cod", str(c2)),
        ("--json", "witness", "check", "--b", "2", "--s", str(c2), "--t", str(c3), "--u", str(c3)),
        ("--json", "hj", "search", "--a", "2", "--l", "1", "--b", "2"),
        ("--json", "framework", "check-axioms", "--bound", "2"),
        ("--json", "bridge", "prvo", "--values", "0,0,1", "--k", "2"),
    ]
    for cmd in commands:
        assert _cli(*cmd) == _cli(*cmd), f"output differs across runs: {cmd}"
    search = ("--json", "witness", "search", "--mode", "chain", "--b", "2", "--k", "2", "--l", "2")
    outputs = {_cli(*search, "--jobs", str(j)) for j in (1, 2, 3)}
    assert len(outputs) == 1, "witness search output varies with --jobs"
    _line(7, "CLI determinism across runs and --jobs", True, f"{len(commands) + 1} commands")
