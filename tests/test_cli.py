import json
import sys

import pytest

from treeramsey import framework as fw
from treeramsey import halesjewett, serialize, trees
from treeramsey.cli import main
from treeramsey.enumeration import rigid_surjection_values
from treeramsey.maps import TreeMap

from _oracles import coloring_to_json


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, t in [
        ("c1", trees.chain(1)),
        ("c2", trees.chain(2)),
        ("c3", trees.chain(3)),
        ("y", trees.tree([None, 0, 0])),
    ]:
        p = tmp_path / f"{name}.json"
        serialize.save_json(str(p), serialize.tree_to_json(t))
        paths[name] = str(p)
    m = tmp_path / "f001.json"
    serialize.save_json(
        str(m), serialize.map_to_json(TreeMap(trees.chain(3), trees.chain(2), (0, 0, 1)))
    )
    paths["f001"] = str(m)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_version_deterministic(capsys):
    code1, out1 = run(capsys, "--version")
    code2, out2 = run(capsys, "--version")
    assert code1 == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["schemas"]["tree"] == 1


def test_enum_trees_count(capsys):
    code, out = run(capsys, "enum", "trees", "--n", "4", "--count-only")
    assert code == 0 and out.strip() == "5"


@pytest.mark.parametrize("n", ["14", "1200", "1000000000"])
def test_enum_trees_refuses_a_count_over_the_cap_before_building(n, capsys, monkeypatch):
    # Catalan(13) = 742,900 trees on 14 vertices is over the cap; 1200 once
    # ended in a RecursionError traceback
    import treeramsey.cli as cli

    def refuse(n):
        raise AssertionError("trees built for an over-cap n")

    monkeypatch.setattr(cli, "all_trees", refuse)
    code = main(["enum", "trees", "--n", n, "--count-only"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ") and f"on {n} vertices" in captured.err


def test_enum_trees_cap_is_the_catalan_count(capsys, monkeypatch):
    # a cap of exactly Catalan(n - 1) passes n, and one less refuses it
    import treeramsey.cli as cli

    for n, count in [(1, 1), (2, 1), (5, 14), (7, 132)]:
        monkeypatch.setattr(cli, "MAX_ENUM_TREES", count)
        assert run(capsys, "enum", "trees", "--n", str(n), "--count-only") == (0, f"{count}\n")
        if count > 1:
            monkeypatch.setattr(cli, "MAX_ENUM_TREES", count - 1)
            assert run(capsys, "enum", "trees", "--n", str(n), "--count-only") == (3, "")


def test_enum_maps(files, capsys):
    code, out = run(
        capsys, "--json", "enum", "maps", "--kind", "sealed",
        "--dom", files["c3"], "--cod", files["c2"],
    )
    assert code == 0
    assert json.loads(out)["maps"] == [[0, 0, 1]]


def test_rs_roundtrip(files, capsys, tmp_path):
    code, out = run(capsys, "--json", "rs", "injection", "--map", files["f001"])
    assert code == 0
    e = serialize.map_from_json(json.loads(out))
    assert e.values == (0, 2)


def test_exit_code_fails(files, capsys):
    code, _ = run(
        capsys, "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 1


def test_exit_code_holds_and_report_roundtrip(files, capsys, tmp_path):
    out_path = str(tmp_path / "rep.json")
    code, _ = run(
        capsys, "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c2"], "--u", files["c2"],
        "--out", out_path,
    )
    assert code == 0
    code, out = run(capsys, "witness", "replay", "--report", out_path)
    assert code == 0 and "reproduced: True" in out


@pytest.mark.parametrize("b", ["0", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["witness", "check", "--s", "c2", "--t", "c2", "--u", "c3"],
        ["--json", "witness", "search", "--mode", "chain", "--k", "2", "--l", "3"],
        ["framework", "check-r", "--s", "c2", "--s-cut", "1", "--t", "c2", "--v", "c3"],
    ],
)
def test_fewer_than_one_color_exit_2(files, capsys, command, b):
    argv = [files[arg] if arg in ("c2", "c3") else arg for arg in command]
    code = main(argv + ["--b", b])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_exit_code_usage_error(files, capsys):
    bad = files["dir"] + "/nonexistent.json"
    code, _ = run(capsys, "trees", "meet", "--in", bad, "--v", "0", "--w", "1")
    assert code == 2


def test_exit_code_malformed_json(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "trees", "meet", "--in", str(bad), "--v", "0", "--w", "1")
    assert code == 2


def _expect_input_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_exit_code_non_object_forest(capsys, tmp_path):
    bad = tmp_path / "bare_list.json"
    bad.write_text("[null]")
    _expect_input_error(capsys, "--json", "hj", "pipeline", "--a", "1", "--b", "2", "--forests", str(bad))


def test_exit_code_report_without_stats(files, capsys, tmp_path):
    rep = tmp_path / "rep.json"
    assert main([
        "witness", "check", "--b", "2", "--s", files["c2"], "--t", files["c2"], "--u", files["c2"],
        "--out", str(rep),
    ]) == 0
    payload = serialize.load_json(str(rep))
    del payload["stats"]
    serialize.save_json(str(rep), payload)
    capsys.readouterr()
    _expect_input_error(capsys, "witness", "replay", "--report", str(rep))


@pytest.mark.parametrize("key, bad", [("verdict", "banana"), ("mode", "xyz")])
def test_exit_code_report_unknown_verdict_or_mode(files, capsys, tmp_path, key, bad):
    rep = tmp_path / "rep.json"
    assert main([
        "witness", "check", "--b", "2", "--s", files["c2"], "--t", files["c2"], "--u", files["c2"],
        "--out", str(rep),
    ]) == 0
    payload = serialize.load_json(str(rep))
    payload[key] = bad
    serialize.save_json(str(rep), payload)
    capsys.readouterr()
    _expect_input_error(capsys, "witness", "replay", "--report", str(rep))


@pytest.mark.parametrize(
    "forge",
    [lambda p: p.update(b=1), lambda p: p.update(counterexample=[c + 5 for c in p["counterexample"]])],
    ids=["b=1", "colors+5"],
)
def test_replay_refuses_colors_outside_b(files, capsys, tmp_path, forge):
    rep = tmp_path / "rep.json"
    assert main([
        "witness", "check", "--b", "2", "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
        "--out", str(rep),
    ]) == 1
    payload = serialize.load_json(str(rep))
    forge(payload)
    serialize.save_json(str(rep), payload)
    capsys.readouterr()
    code, out = run(capsys, "witness", "replay", "--report", str(rep))
    assert code == 1 and out == "fails reproduced: False\n"


def test_exit_code_map_without_dom(files, capsys, tmp_path):
    payload = serialize.load_json(files["f001"])
    del payload["dom"]
    bad = tmp_path / "no_dom.json"
    serialize.save_json(str(bad), payload)
    _expect_input_error(capsys, "rs", "classify", "--map", str(bad))


NON_INTEGERS = [None, 1.5, "1", True, [1]]
NON_INTEGER_IDS = ["null", "float", "string", "bool", "array"]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
def test_exit_code_map_non_integer_value(files, capsys, tmp_path, bad):
    payload = serialize.load_json(files["f001"])
    payload["values"][1] = bad
    p = tmp_path / "m.json"
    serialize.save_json(str(p), payload)
    _expect_input_error(capsys, "rs", "classify", "--map", str(p))


@pytest.mark.parametrize("key", ["colors", "b"])
@pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
def test_exit_code_coloring_non_integer_entry(files, capsys, tmp_path, key, bad):
    payload = coloring_to_json((0, 1), 2)
    if key == "colors":
        payload["colors"][0] = bad
    else:
        payload["b"] = bad
    p = tmp_path / "coloring.json"
    serialize.save_json(str(p), payload)
    _expect_input_error(
        capsys, "bridge", "leeb", "--s", files["c2"], "--u", files["c3"], "--coloring", str(p)
    )


@pytest.mark.parametrize(
    "path",
    [("s", 1), ("u", 2), ("b",), ("stats", "nodes"), ("counterexample", 0)],
    ids=lambda path: ".".join(map(str, path)),
)
@pytest.mark.parametrize("bad", NON_INTEGERS, ids=NON_INTEGER_IDS)
def test_exit_code_report_non_integer_entry(files, capsys, tmp_path, path, bad):
    rep = tmp_path / "rep.json"
    assert main([
        "witness", "check", "--b", "2", "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
        "--out", str(rep),
    ]) == 1
    payload = serialize.load_json(str(rep))
    *outer, last = path
    target = payload
    for key in outer:
        target = target[key]
    target[last] = bad
    serialize.save_json(str(rep), payload)
    capsys.readouterr()
    _expect_input_error(capsys, "witness", "replay", "--report", str(rep))


def test_exit_code_resource_cap(files, capsys):
    code, _ = run(
        capsys, "--max-nodes", "1", "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 3


def test_schema_version_refusal(files, capsys, tmp_path):
    payload = serialize.tree_to_json(trees.chain(2))
    payload["version"] = 99
    p = tmp_path / "v99.json"
    serialize.save_json(str(p), payload)
    code, _ = run(capsys, "trees", "meet", "--in", str(p), "--v", "0", "--w", "1")
    assert code == 2


def test_loader_rejects_non_canonical_without_normalize(files, capsys, tmp_path):
    payload = {"schema": "tree", "version": 1, "kind": "tree", "parent": [None, 0, 0, 1]}
    p = tmp_path / "noncanon.json"
    serialize.save_json(str(p), payload)
    code, _ = run(capsys, "trees", "meet", "--in", str(p), "--v", "1", "--w", "2")
    assert code == 2
    code, out = run(capsys, "--normalize", "trees", "meet", "--in", str(p), "--v", "1", "--w", "2")
    assert code == 0


def test_tree_save_load_identity_roundtrip():
    for t in trees.all_trees(4):
        assert serialize.tree_from_json(serialize.tree_to_json(t)) == t


def test_search_with_fixture_and_jobs(files, capsys, tmp_path):
    fix = str(tmp_path / "fix.json")
    code1, out1 = run(
        capsys, "--json", "witness", "search", "--mode", "chain", "--b", "2",
        "--k", "2", "--l", "2", "--max-vertices", "4", "--fixtures", fix,
    )
    code2, out2 = run(
        capsys, "--json", "--jobs", "2", "witness", "search", "--mode", "chain",
        "--b", "2", "--k", "2", "--l", "2", "--max-vertices", "4", "--fixtures", fix,
    )
    assert code1 == code2 == 0
    assert out1 == out2  # identical bytes for any --jobs value
    fixture = serialize.load_fixtures(fix)
    assert len(fixture["entries"]) == 1


def test_fixture_mismatch_is_refused(tmp_path):
    fix = str(tmp_path / "fix.json")
    serialize.record_fixture(fix, "k", 1)
    assert serialize.record_fixture(fix, "k", 1) is False
    with pytest.raises(Exception):
        serialize.record_fixture(fix, "k", 2)


def test_config_file_defaults(files, capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("max_nodes=1\n")
    code, _ = run(
        capsys, "--config", str(cfg), "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 3  # the configured cap applies


@pytest.mark.parametrize("value, expected", [("false", "2\n"), ("true", '{\n  "count": 2\n}\n')])
def test_config_file_booleans(capsys, tmp_path, value, expected):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"json={value}\n")
    code, out = run(capsys, "--config", str(cfg), "enum", "trees", "--n", "3", "--count-only")
    assert code == 0 and out == expected


def _exit_code(*argv):
    # argparse refuses a bad flag value by raising SystemExit
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_config_equals_form_applies(files, capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("max_nodes=1\n")
    code, _ = run(
        capsys, f"--config={cfg}", "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 3  # the configured cap applies


def test_config_sets_subcommand_flags(capsys, tmp_path):
    # without the key the search finds the minimal witness, m = 6
    cfg = tmp_path / "cfg"
    cfg.write_text("max_vertices=3\n")
    argv = ("witness", "search", "--mode", "chain", "--b", "2", "--k", "2", "--l", "3")
    code, out = run(capsys, "--config", str(cfg), *argv)
    assert code == 1 and out == ""
    code, out = run(capsys, "--config", str(cfg), *argv, "--max-vertices", "6")
    assert code == 0 and out == "witness [None, 0, 1, 2, 3, 4] (holds)\n"


def test_config_key_naming_no_flag_is_an_input_error(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("max_node=1\n")  # misspelt max_nodes
    code = main(["--config", str(cfg), "witness", "search", "--mode", "chain", "--b", "2", "--k", "2", "--l", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "max_node" in captured.err


def test_config_key_of_another_subcommand_is_unused(capsys, tmp_path):
    # max_vertices is a witness search flag, so enum trees leaves it unused
    cfg = tmp_path / "cfg"
    cfg.write_text("max_vertices=3\n")
    code, out = run(capsys, "--config", str(cfg), "enum", "trees", "--n", "2")
    assert code == 0 and out == "[None, 0]\n"


@pytest.mark.parametrize("value", ["--5", "5x", "-5"])
def test_config_bad_int_value_is_an_input_error(files, capsys, tmp_path, value):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"max_nodes={value}\n")
    code = _exit_code(
        "--config", str(cfg), "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 2 and capsys.readouterr().out == ""


def test_enum_maps_lists_the_tables(capsys, tmp_path):
    from treeramsey.enumeration import all_embeddings, all_rigid_surjections

    small = [t for n in range(1, 5) for t in trees.all_trees(n)]
    paths = {}
    for i, t in enumerate(small):
        paths[t] = str(tmp_path / f"t{i}.json")
        serialize.save_json(paths[t], serialize.tree_to_json(t))
    tables = {
        "embedding": lambda dom, cod: [m.values for m in all_embeddings(dom, cod)],
        "rigid": lambda dom, cod: [m.values for m in all_rigid_surjections(dom, cod)],
        "sealed": lambda dom, cod: rigid_surjection_values(dom, cod, True),
    }
    for kind, table in tables.items():
        for dom in small:
            for cod in small:
                code, out = run(
                    capsys, "--json", "enum", "maps", "--kind", kind,
                    "--dom", paths[dom], "--cod", paths[cod],
                )
                maps = [list(values) for values in table(dom, cod)]
                assert code == 0 and json.loads(out) == {"count": len(maps), "maps": maps}


def test_verification_failure_exits_1(capsys, tmp_path, monkeypatch):
    forest = tmp_path / "pt.json"
    serialize.save_json(str(forest), serialize.tree_to_json(trees.point_forest(1)))
    init = halesjewett.TransferCell.__init__

    def corrupted(self, *args):
        init(self, *args)
        self.dom_anc = [0] * len(self.dom_anc)

    monkeypatch.setattr(halesjewett.TransferCell, "__init__", corrupted)
    code = main(["hj", "verify-transfer", "--forest", str(forest), "--alphabet", "2", "--a-size", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("verification failed: ")


def test_verify_transfer_budget_cap_exit_3(capsys, tmp_path):
    forest = tmp_path / "pt.json"
    serialize.save_json(str(forest), serialize.tree_to_json(trees.point_forest(1)))
    code = main(
        ["hj", "verify-transfer", "--forest", str(forest), "--alphabet", "2", "--a-size", "2", "--budget", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ")


def test_witness_check_over_256_vertices_exits_3(files, capsys, tmp_path):
    big = tmp_path / "c257.json"
    serialize.save_json(str(big), serialize.tree_to_json(trees.chain(257)))
    code = main(["witness", "check", "--b", "2", "--s", files["c2"], "--t", str(big), "--u", str(big)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ")


def test_enum_maps_onto_more_than_256_vertices_exits_3(capsys, tmp_path):
    # a value row holds values below 256; the 257-chain onto itself once
    # printed its identity row
    big = tmp_path / "c257.json"
    serialize.save_json(str(big), serialize.tree_to_json(trees.chain(257)))
    code = main(["enum", "maps", "--kind", "rigid", "--dom", str(big), "--cod", str(big)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ")


@pytest.mark.parametrize(
    "mode_args, missing",
    [(["--mode", "chain"], "--k and --l"), (["--mode", "mn"], "--s and --t")],
)
def test_witness_search_missing_tree_flags_exit_2(capsys, mode_args, missing):
    code = main(["witness", "search", *mode_args, "--b", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.rstrip().endswith(missing)


def test_bridge_commands(files, capsys):
    code, out = run(capsys, "bridge", "prvo", "--values", "0,0,1", "--k", "2")
    assert code == 0 and "agree=True" in out
    code, out = run(capsys, "bridge", "gr", "--u", files["y"], "--l", "2")
    assert code == 0


def test_deterministic_output_across_runs(files, capsys):
    args = [
        "--json", "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    ]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2

def test_max_colorings_cap(files, capsys):
    code, _ = run(
        capsys, "--max-colorings", "0", "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 3


def test_env_var_node_cap(files, capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_MAX_NODES", "1")
    code, _ = run(
        capsys, "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 3


@pytest.mark.parametrize("t", ["c2", "c3"])  # the search runs on c3, returns early on c2
@pytest.mark.parametrize("flag", ["--max-nodes", "--max-colorings"])
def test_negative_cap_is_an_input_error(files, capsys, flag, t):
    code, out = run(
        capsys, flag, "-5", "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files[t], "--u", files[t],
    )
    assert code == 2 and out == ""


def test_negative_env_var_node_cap_is_an_input_error(files, capsys, monkeypatch):
    monkeypatch.setenv("RAMSEY_MAX_NODES", "-2")
    code, out = run(
        capsys, "witness", "check", "--b", "2",
        "--s", files["c2"], "--t", files["c3"], "--u", files["c3"],
    )
    assert code == 2 and out == ""


def test_coloring_json_roundtrip():
    payload = coloring_to_json((0, 1, 1), 2)
    colors, b = serialize.coloring_from_json(payload)
    assert colors == (0, 1, 1) and b == 2


def test_config_missing_file(files, capsys):
    code, _ = run(capsys, "--config", "/nonexistent/cfg", "enum", "trees", "--n", "2")
    assert code == 2


def test_verify_transfer_negative_budget_exit_2(capsys, tmp_path):
    forest = tmp_path / "pt.json"
    serialize.save_json(str(forest), serialize.tree_to_json(trees.point_forest(1)))
    code = main(
        ["hj", "verify-transfer", "--forest", str(forest), "--alphabet", "2", "--a-size", "2", "--budget", "-5"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_transfer_five_vertex_chain_three_letters(capsys, tmp_path):
    forest = tmp_path / "c5.json"
    serialize.save_json(str(forest), serialize.tree_to_json(trees.forest([None, 0, 1, 2, 3])))
    code, out = run(capsys, "hj", "verify-transfer", "--forest", str(forest), "--alphabet", "3", "--a-size", "3")
    assert code == 0
    assert out == f"{halesjewett.count_block_maps(3, 121, 3)} word maps verified (exhaustive)\n"


@pytest.mark.parametrize(
    "a, l", [("-1", "1"), ("1", "-2"), ("1", "1,1"), ("1,1", "1"), (",", ",")]
)
def test_hj_search_bad_sizes_exit_2(capsys, a, l):
    code = main(["hj", "search", "--a", a, "--l", l, "--b", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_hj_search_coloring_cap_exit_3(capsys):
    # (2, 3, 2) fails at i = 1, and i = 2 has 2^62 pinned colorings
    code = main(["hj", "search", "--a", "2", "--l", "3", "--b", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ")


def test_hj_pipeline_obeys_max_nodes(capsys, tmp_path):
    # two points need a solver node to find their host, so a cap of 0 is hit
    # (exit 3); one point needs none and completes under the same cap
    two, one = tmp_path / "pt2.json", tmp_path / "pt.json"
    serialize.save_json(str(two), serialize.tree_to_json(trees.point_forest(2)))
    serialize.save_json(str(one), serialize.tree_to_json(trees.point_forest(1)))
    pipeline = ["hj", "pipeline", "--a", "1", "--b", "2", "--forests"]
    code = main(["--max-nodes", "0", *pipeline, str(two)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ")
    assert run(capsys, *pipeline, str(two)) == (0, "i = 1, host [None, None, None], 8 colorings certified\n")
    assert run(capsys, "--max-nodes", "0", *pipeline, str(one)) == run(capsys, *pipeline, str(one))
    code, out = run(capsys, "--max-nodes", "-1", *pipeline, str(two))
    assert code == 2 and out == ""


def test_hj_refuses_max_colorings(capsys, tmp_path):
    # --max-colorings caps the witness decisions; hj keeps DEFAULT_MAX_COLORINGS,
    # refuses the flag, and leaves a --config value unused
    forest = tmp_path / "pt.json"
    serialize.save_json(str(forest), serialize.tree_to_json(trees.point_forest(1)))
    search = ["hj", "search", "--a", "2", "--l", "2", "--b", "2", "--max-i", "3"]
    pipeline = ["hj", "pipeline", "--a", "1", "--b", "2", "--forests", str(forest)]
    for argv in (search, pipeline):
        for cap in ("100", "-5"):
            code = main(["--max-colorings", cap, *argv])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: --max-colorings")
    cfg = tmp_path / "cfg"
    cfg.write_text("max-colorings=100\n")
    code, out = run(capsys, *search)
    assert code == 0 and run(capsys, "--config", str(cfg), *search) == (0, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "trees", "--n", "3", "--count-only"],
        ["trees", "meet", "--in", "c3", "--v", "1", "--w", "2"],
        ["rs", "injection", "--map", "f001"],
        ["framework", "check-axioms", "--bound", "1"],
        ["bridge", "gr", "--u", "y", "--l", "2"],
        ["witness", "replay", "--report", "report"],
    ],
)
def test_commands_that_do_not_read_max_colorings_refuse_it(files, capsys, tmp_path, argv):
    # only witness check and witness search read --max-colorings; every other
    # command refuses it on the command line and leaves a --config value unused
    report = str(tmp_path / "rep.json")
    run(capsys, "witness", "check", "--b", "2", "--s", files["c2"], "--t", files["c2"], "--u", files["c2"], "--out", report)
    argv = [{**files, "report": report}.get(arg, arg) for arg in argv]
    for cap in ("0", "100", "-5"):
        code = main(["--max-colorings", cap, *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: --max-colorings")
    cfg = tmp_path / "cfg"
    cfg.write_text("max-colorings=0\n")
    code, out = run(capsys, *argv)
    assert code in (0, 1) and run(capsys, "--config", str(cfg), *argv) == (code, out)


def test_hj_search_coloring_cap_past_decimal_limit_exit_3(capsys):
    # 2^65534 pinned colorings at i = 1: too many digits for str() of the count
    code = main(["hj", "search", "--a", "2", "--l", "16", "--b", "2", "--max-i", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("resource cap: ")


def _save_tree(tmp_path, name, t):
    path = tmp_path / f"{name}.json"
    serialize.save_json(str(path), serialize.tree_to_json(t))
    return str(path)


def test_deep_inputs_keep_their_exit_codes(tmp_path, capsys):
    # deeper than the interpreter's recursion limit: both tables are one pass
    n = sys.getrecursionlimit() + 100
    c = _save_tree(tmp_path, "chain", trees.chain(n))
    code, out = run(capsys, "enum", "maps", "--kind", "embedding", "--dom", c, "--cod", c)
    assert code == 0 and out == f"{list(range(n))}\n"
    f = _save_tree(tmp_path, "forest", trees.forest([None] + list(range(n - 1))))
    code, out = run(capsys, "trees", "tensor", "--forest", f, "--alphabet", "1")
    assert code == 0 and out == f"{[None] + list(range(n - 1))} ({n} vertices)\n"


LP_INSTANCE = {  # two fibre bases, with 2 and 3 witnesses a, holding and failing
    "s": trees.tree([None, 0, 0]),
    "t": trees.tree([None, 0, 0, 0]),
    "v": trees.tree([None, 0, 0, 0, 0]),
}


def _lp_families(s, s_cut, t, v):
    """P and F of check-lp built from the value tables, as the command describes them."""
    amb_s, amb_t, amb_v = (fw.Ambient(tag, x) for tag, x in (("S", s), ("T", t), ("V", v)))
    p = {
        fw.DomainElement(amb_t, cut, amb_s, s_cut, values)
        for cut in range(t.n)
        for values in rigid_surjection_values(
            trees.initial_subtree(t, cut), trees.initial_subtree(s, s_cut), True
        )
    }
    f = {
        fw.DomainElement(amb_v, cut, amb_t, t.n - 1, values)
        for cut in range(v.n)
        for values in rigid_surjection_values(trees.initial_subtree(v, cut), t, True)
    }
    return fw.FamilySet(frozenset(p), "P"), fw.FamilySet(frozenset(f), "F")


def _by_cut(e):
    return (e.cut_dom, e.values)


def test_check_lp_prints_the_library_decision_at_every_index(tmp_path, capsys):
    paths = {name: _save_tree(tmp_path, name, t) for name, t in LP_INSTANCE.items()}
    argv = ["framework", "check-lp", "--s", paths["s"], "--s-cut", "2",
            "--t", paths["t"], "--v", paths["v"], "--b", "2"]
    p, f = _lp_families(LP_INSTANCE["s"], 2, LP_INSTANCE["t"], LP_INSTANCE["v"])
    ys = sorted({fw.truncate(x) for x in p.elements}, key=_by_cut)
    verdicts = []
    for yi, y in enumerate(ys):
        candidates = sorted({fw.restrict_element(x, y.cut_dom) for x in f.elements}, key=_by_cut)
        for ai, a in enumerate(candidates):
            rep = fw.check_LP(p, y, f, a, 2)
            verdicts.append(rep.holds)
            index = ["--y-index", str(yi), "--a-index", str(ai)]
            code, out = run(capsys, *argv, *index)
            assert (code, out) == (0 if rep.holds else 1, f"{rep.verdict}\n")
            code, out = run(capsys, "--json", *argv, *index)
            counterexample = None if rep.counterexample is None else list(rep.counterexample)
            assert json.loads(out) == {
                "holds": rep.holds, "items": len(rep.items), "edges": len(rep.edges),
                "counterexample": counterexample,
            }
        _expect_input_error(capsys, *argv, "--y-index", str(yi), "--a-index", str(len(candidates)))
    assert len(ys) == 2 and len(verdicts) == 5 and set(verdicts) == {True, False}
    for yi in (len(ys), -1):
        _expect_input_error(capsys, *argv, "--y-index", str(yi))


def test_check_lp_refuses_an_empty_family(files, capsys):
    # no sealed map from an initial subtree of c2 onto c3
    _expect_input_error(
        capsys, "framework", "check-lp", "--s", files["c3"], "--s-cut", "2",
        "--t", files["c2"], "--v", files["c3"], "--b", "2",
    )
