"""Command-line front end.

Exit codes: 0 success / verdict holds, 1 verdict fails, nothing found within
bounds or a computed result failed its verification, 2 usage or input error,
3 resource cap hit.  All output is deterministic: identical invocations print
identical bytes, for any --jobs value.  RAMSEY_MAX_NODES sets the default
search-node cap; --config FILE reads key=value lines used as defaults of the
top-level flags and of the chosen subcommand's flags (true and false read as
booleans, digits as integers).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__, framework, halesjewett, serialize, witness

from .enumeration import all_embeddings, rigid_surjection_values
from .errors import (
    NotFoundWithinBound,
    ResourceCapExceeded,
    SchemaError,
    TreeRamseyError,
    VerificationFailed,
)
from .maps import classify, compose, injection_of, rigid_from_embedding
from .trees import (
    OrderedForest,
    OrderedTree,
    all_trees,
    canonicalize,
    chain,
    initial_subtree,
    oplus,
    q_set,
    raw_lex_compare,
    tensor,
)


def _load_tree(path: str, normalize: bool) -> OrderedTree:
    t = serialize.tree_from_json(serialize.load_json(path), normalize=normalize)
    if not isinstance(t, OrderedTree):
        raise SchemaError(f"{path} holds a forest where a tree is required")
    return t


def _load_forest(path: str) -> OrderedForest:
    f = serialize.tree_from_json(serialize.load_json(path))
    if not isinstance(f, OrderedForest):
        raise SchemaError(f"{path} holds a tree where a forest is required")
    return f


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(serialize.dumps(payload))
    else:
        sys.stdout.write(text + "\n")


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x != ""]


# ---------------------------------------------------------------------------
# trees


def cmd_trees(args) -> int:
    if args.tree_cmd == "canonicalize":
        payload = serialize.load_json(args.infile)
        serialize._check_version(payload, "tree")
        parent = serialize._field(payload, "parent", "tree")
        entries = serialize._ints(parent, "tree parent", nullable=True)
        canon, perm = canonicalize(entries)
        _emit(
            args,
            {"tree": serialize.tree_to_json(canon), "permutation": list(perm)},
            f"tree {list(canon.parent)} permutation {list(perm)}",
        )
        return 0
    t = _load_tree(args.infile, args.normalize)
    if args.tree_cmd == "meet":
        m = t.meet(args.v, args.w)
        _emit(args, {"meet": m}, str(m))
    elif args.tree_cmd == "lex":
        c = raw_lex_compare(t.parent, args.v, args.w)
        name = {-1: "LT", 0: "EQ", 1: "GT"}[c]
        _emit(args, {"compare": name}, name)
    elif args.tree_cmd == "initial":
        sub = initial_subtree(t, args.v)
        _emit(args, serialize.tree_to_json(sub), f"{list(sub.parent)}")
    return 0


def cmd_forest_ops(args) -> int:
    f = _load_forest(args.forest)
    if args.tree_cmd == "oplus":
        out = oplus(args.a, f)
        _emit(args, serialize.tree_to_json(out), f"{list(out.parent)}")
    elif args.tree_cmd == "tensor":
        ti = tensor(f, args.alphabet)
        payload = {
            "forest": serialize.tree_to_json(ti.forest),
            "points": [[p.s, list(p.t)] for p in ti.points],
        }
        _emit(args, payload, f"{list(ti.forest.parent)} ({ti.forest.n} vertices)")
    elif args.tree_cmd == "qset":
        q = q_set(f, args.alphabet)
        payload = {"points": [[p.s, list(p.u)] for p in q.points], "size": len(q.points)}
        _emit(args, payload, f"{len(q.points)} cuts")
    return 0


# ---------------------------------------------------------------------------
# rs


def cmd_rs(args) -> int:
    if args.rs_cmd == "classify":
        m = serialize.map_from_json(serialize.load_json(args.map), normalize=args.normalize)
        fl = classify(m)
        payload = {
            "morphism": fl.morphism,
            "embedding": fl.embedding,
            "rigid_surjection": fl.rigid_surjection,
            "sealed": fl.sealed,
            "injection": None if fl.injection is None else list(fl.injection.values),
        }
        _emit(
            args,
            payload,
            " ".join(k for k in ("morphism", "embedding", "rigid_surjection", "sealed") if payload[k])
            or "none",
        )
        return 0
    if args.rs_cmd == "injection":
        m = serialize.map_from_json(serialize.load_json(args.map), normalize=args.normalize)
        e = injection_of(m)
        _emit(args, serialize.map_to_json(e), f"{list(e.values)}")
        return 0
    if args.rs_cmd == "compose":
        f = serialize.map_from_json(serialize.load_json(args.f), normalize=args.normalize)
        g = serialize.map_from_json(serialize.load_json(args.g), normalize=args.normalize)
        out = compose(f, g)
        _emit(args, serialize.map_to_json(out), f"{list(out.values)}")
        return 0
    if args.rs_cmd == "from-embedding":
        e = serialize.map_from_json(serialize.load_json(args.map), normalize=args.normalize)
        f = rigid_from_embedding(e)
        _emit(args, serialize.map_to_json(f), f"{list(f.values)}")
        return 0
    raise SchemaError(f"unknown rs subcommand {args.rs_cmd!r}")


# ---------------------------------------------------------------------------
# enum

MAX_ENUM_TREES = 250_000  # the 208,012 trees on 13 vertices pass, 14 vertices do not


def _check_tree_count(n: int) -> None:
    """Raise ResourceCapExceeded when the n-vertex trees, Catalan(n - 1) of
    them, exceed MAX_ENUM_TREES; the count is built up one size at a time, so
    a huge n stops as soon as the cap is passed."""
    count = 1  # Catalan(0)
    for m in range(n - 1):
        count = count * 2 * (2 * m + 1) // (m + 2)
        if count > MAX_ENUM_TREES:
            raise ResourceCapExceeded(
                f"Catalan({n - 1}) trees on {n} vertices exceed the cap of {MAX_ENUM_TREES}"
            )


def cmd_enum(args) -> int:
    if args.enum_cmd == "trees":
        _check_tree_count(args.n)
        ts = all_trees(args.n)
        if args.count_only:
            _emit(args, {"count": len(ts)}, str(len(ts)))
        else:
            payload = {"count": len(ts), "trees": [serialize.tree_to_json(t) for t in ts]}
            _emit(args, payload, "\n".join(str(list(t.parent)) for t in ts))
        return 0
    if args.enum_cmd == "maps":
        dom = _load_tree(args.dom, args.normalize)
        cod = _load_tree(args.cod, args.normalize)
        if args.kind == "embedding":
            rows = [m.values for m in all_embeddings(dom, cod)]
        else:
            rows = rigid_surjection_values(dom, cod, args.kind == "sealed")
        if args.count_only:
            _emit(args, {"count": len(rows)}, str(len(rows)))
        else:
            payload = {"count": len(rows), "maps": [list(v) for v in rows]}
            _emit(args, payload, "\n".join(str(list(v)) for v in rows))
        return 0
    raise SchemaError(f"unknown enum subcommand {args.enum_cmd!r}")


# ---------------------------------------------------------------------------
# framework


def cmd_framework(args) -> int:
    if args.fw_cmd == "check-axioms":
        out = {}
        ok = True
        if args.kind in ("space", "both"):
            rep = framework.check_space_axioms(args.bound)
            out["space"] = {"ok": rep.ok, "checked": rep.checked, "violations": rep.violations}
            ok = ok and rep.ok
        if args.kind in ("domain", "both"):
            rep = framework.check_domain_axioms(args.bound)
            out["domain"] = {"ok": rep.ok, "checked": rep.checked, "violations": rep.violations}
            ok = ok and rep.ok
        _emit(args, out, json.dumps(out, sort_keys=True))
        return 0 if ok else 1

    uni_s = _load_tree(args.s, args.normalize)
    uni_t = _load_tree(args.t, args.normalize)
    uni_v = _load_tree(args.v, args.normalize)
    amb_s = framework.Ambient("S", uni_s)
    amb_t = framework.Ambient("T", uni_t)
    amb_v = framework.Ambient("V", uni_v)
    p_elems = framework.maximal_elements(amb_t, amb_s, args.s_cut)
    f_elems = framework.maximal_elements(amb_v, amb_t, uni_t.n - 1)
    if not p_elems or not f_elems:
        raise SchemaError("empty family: no sealed rigid surjections for these parameters")
    fam_p = framework.FamilySet(frozenset(p_elems), "P")
    fam_f = framework.FamilySet(frozenset(f_elems), "F")
    if args.fw_cmd == "check-r":
        rep = framework.check_R(fam_f, fam_p, args.b, max_nodes=args.max_nodes)
    else:
        ys = fam_p.fiber_bases()
        if not (0 <= args.y_index < len(ys)):
            raise SchemaError(f"--y-index out of range (0..{len(ys) - 1})")
        y = ys[args.y_index]
        cands = fam_f.restriction_candidates(y)
        if not (0 <= args.a_index < len(cands)):
            raise SchemaError(f"--a-index out of range (0..{len(cands) - 1})")
        rep = framework.check_LP(fam_p, y, fam_f, cands[args.a_index], args.b, max_nodes=args.max_nodes)
    payload = {
        "holds": rep.holds,
        "items": len(rep.items),
        "edges": len(rep.edges),
        "counterexample": None if rep.counterexample is None else list(rep.counterexample),
    }
    _emit(args, payload, "holds" if rep.holds else "fails")
    return 0 if rep.holds else 1


# ---------------------------------------------------------------------------
# hj


def cmd_hj(args) -> int:
    if args.hj_cmd == "search":
        cert = halesjewett.hj_product_search(
            _int_list(args.a), _int_list(args.l), args.b, args.max_i, mode=args.mode
        )
        payload = {
            "i": cert.i_size,
            "colorings": len(cert.witnesses),
            "witnesses": [[list(p) for p in w] for w in cert.witnesses],
        }
        _emit(args, payload, f"i = {cert.i_size} ({len(cert.witnesses)} colorings certified)")
        return 0
    if args.hj_cmd == "pipeline":
        a_sizes = _int_list(args.a)
        forests = [_load_forest(p) for p in args.forests.split(",")]
        result = halesjewett.lp_pipeline(
            a_sizes, forests, args.b, max_host_size=args.max_host, max_i=args.max_i
        )
        payload = {
            "i": result.i_size,
            "host": serialize.tree_to_json(result.host),
            "fanned_out": [serialize.tree_to_json(t.forest) for t in result.tensors],
            "certificates": [
                {
                    "coloring": list(c.coloring),
                    "color": c.color,
                    "t_maps": [list(t) for t in c.t_maps],
                }
                for c in result.certificates
            ],
        }
        _emit(
            args,
            payload,
            f"i = {result.i_size}, host {list(result.host.parent)}, "
            f"{len(result.certificates)} colorings certified",
        )
        return 0
    if args.hj_cmd == "verify-transfer":
        f = _load_forest(args.forest)
        count, exhausted = halesjewett.verify_transfer_cell(
            f, args.alphabet, args.a_size, exhaustive_budget=args.budget
        )
        payload = {"maps_checked": count, "exhaustive": exhausted}
        _emit(args, payload, f"{count} word maps verified (exhaustive)")
        return 0
    raise SchemaError(f"unknown hj subcommand {args.hj_cmd!r}")


# ---------------------------------------------------------------------------
# witness


def cmd_witness(args) -> int:
    if args.wit_cmd == "check":
        s = _load_tree(args.s, args.normalize)
        t = _load_tree(args.t, args.normalize)
        u = _load_tree(args.u, args.normalize)
        check = witness.check_witness_sealed if args.mode == "sealed" else witness.check_witness_mn
        rep = check(args.b, s, t, u, max_nodes=args.max_nodes, max_colorings=args.max_colorings)
        payload = serialize.report_to_json(rep)
        if args.out:
            serialize.save_json(args.out, payload)
        _emit(args, payload, rep.verdict)
        if rep.verdict == "cap_exceeded":
            return 3
        return 0 if rep.holds else 1
    if args.wit_cmd == "search":
        flags = ("k", "l") if args.mode == "chain" else ("s", "t")
        missing = [f"--{name}" for name in flags if getattr(args, name) is None]
        if missing:
            raise SchemaError(f"witness search --mode {args.mode} needs {' and '.join(missing)}")
        if args.mode == "chain":
            s, t = chain(args.k), chain(args.l)
        else:
            s = _load_tree(args.s, args.normalize)
            t = _load_tree(args.t, args.normalize)
        _, rep = witness.search_witness(
            args.b, s, t, mode=args.mode, max_vertices=args.max_vertices,
            max_nodes=args.max_nodes, max_colorings=args.max_colorings, jobs=args.jobs,
        )
        payload = serialize.report_to_json(rep)
        if args.fixtures:
            key = (
                f"search mode={args.mode} b={args.b} "
                f"s={list(s.parent)} t={list(t.parent)}"
            )
            serialize.record_fixture(args.fixtures, key, payload)
        if args.out:
            serialize.save_json(args.out, payload)
        _emit(args, payload, f"witness {payload['u']} ({payload['verdict']})")
        return 0
    if args.wit_cmd == "replay":
        rep = serialize.report_from_json(serialize.load_json(args.report))
        ok = witness.replay_report(rep)
        _emit(args, {"reproduced": ok, "verdict": rep.verdict}, f"{rep.verdict} reproduced: {ok}")
        return 0 if ok else 1
    raise SchemaError(f"unknown witness subcommand {args.wit_cmd!r}")


# ---------------------------------------------------------------------------
# bridge


def cmd_bridge(args) -> int:
    if args.bridge_cmd == "prvo":
        values = _int_list(args.values)
        growth, tree_v = witness.bridge_prvo(values, len(values), args.k)
        payload = {"growth_rule": growth, "tree_definition": tree_v, "agree": growth == tree_v}
        _emit(args, payload, f"growth={growth} tree={tree_v} agree={growth == tree_v}")
        return 0 if growth == tree_v else 1
    if args.bridge_cmd == "leeb":
        s = _load_tree(args.s, args.normalize)
        u = _load_tree(args.u, args.normalize)
        colors, _b = serialize.coloring_from_json(serialize.load_json(args.coloring))
        transported = witness.leeb_transport(s, u, colors)
        payload = {"transported": list(transported)}
        _emit(args, payload, str(list(transported)))
        return 0
    if args.bridge_cmd == "gr":
        u = _load_tree(args.u, args.normalize)
        ok = witness.gr_compatibility(u, args.l)
        _emit(args, {"compatible": ok}, str(ok))
        return 0 if ok else 1
    raise SchemaError(f"unknown bridge subcommand {args.bridge_cmd!r}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeramsey",
        description="ordered trees, rigid surjections, and exhaustive Ramsey checkers",
    )
    parser.add_argument("--version", action="store_true", help="print versions and exit")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--jobs", type=int, default=1, help="worker count (output is identical for any value)")
    parser.add_argument("--config", help="key=value file with flag defaults")
    parser.add_argument("--max-nodes", type=int, default=None, help="cap on color assignments, branched or forced, per decision (default RAMSEY_MAX_NODES)")
    parser.add_argument("--max-colorings", type=int, default=None, help="cap on complete colorings examined per decision of witness check and witness search, which alone take it")
    parser.add_argument("--normalize", action="store_true", help="canonicalize non-canonical tree inputs on load")
    sub = parser.add_subparsers(dest="command")

    p_trees = sub.add_parser("trees", help="tree constructions")
    st = p_trees.add_subparsers(dest="tree_cmd")
    for name in ("canonicalize", "meet", "lex", "initial"):
        q = st.add_parser(name)
        q.add_argument("--in", dest="infile", required=True)
        if name in ("meet", "lex"):
            q.add_argument("--v", type=int, required=True)
            q.add_argument("--w", type=int, required=True)
        if name == "initial":
            q.add_argument("--v", type=int, required=True)
        q.set_defaults(func=cmd_trees)
    q = st.add_parser("oplus")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--forest", required=True)
    q.set_defaults(func=cmd_forest_ops)
    for name in ("tensor", "qset"):
        q = st.add_parser(name)
        q.add_argument("--forest", required=True)
        q.add_argument("--alphabet", type=int, required=True)
        q.set_defaults(func=cmd_forest_ops)

    p_rs = sub.add_parser("rs", help="rigid-surjection calculus")
    srs = p_rs.add_subparsers(dest="rs_cmd")
    for name in ("classify", "injection", "from-embedding"):
        q = srs.add_parser(name)
        q.add_argument("--map", required=True)
        q.set_defaults(func=cmd_rs)
    q = srs.add_parser("compose")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.set_defaults(func=cmd_rs)

    p_enum = sub.add_parser("enum", help="exhaustive generators")
    se = p_enum.add_subparsers(dest="enum_cmd")
    q = se.add_parser("trees")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--count-only", action="store_true")
    q.set_defaults(func=cmd_enum)
    q = se.add_parser("maps")
    q.add_argument("--kind", choices=["embedding", "rigid", "sealed"], required=True)
    q.add_argument("--dom", required=True)
    q.add_argument("--cod", required=True)
    q.add_argument("--count-only", action="store_true")
    q.set_defaults(func=cmd_enum)

    p_fw = sub.add_parser("framework", help="composition space and Ramsey domain")
    sf = p_fw.add_subparsers(dest="fw_cmd")
    q = sf.add_parser("check-axioms")
    q.add_argument("--bound", type=int, default=3)
    q.add_argument("--kind", choices=["space", "domain", "both"], default="both")
    q.set_defaults(func=cmd_framework)
    for name in ("check-r", "check-lp"):
        q = sf.add_parser(name)
        q.add_argument("--s", required=True, help="codomain ambient tree (JSON)")
        q.add_argument("--s-cut", type=int, required=True)
        q.add_argument("--t", required=True, help="middle ambient tree (JSON)")
        q.add_argument("--v", required=True, help="domain ambient tree (JSON)")
        q.add_argument("--b", type=int, required=True)
        if name == "check-lp":
            q.add_argument("--y-index", type=int, default=0)
            q.add_argument("--a-index", type=int, default=0)
        q.set_defaults(func=cmd_framework)

    p_hj = sub.add_parser("hj", help="pigeonhole searchers")
    sh = p_hj.add_subparsers(dest="hj_cmd")
    q = sh.add_parser("search")
    q.add_argument("--a", required=True, help="comma-separated A sizes")
    q.add_argument("--l", required=True, help="comma-separated L sizes")
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--max-i", type=int, default=3)
    q.add_argument("--mode", choices=["direct", "reduction"], default="direct")
    q.set_defaults(func=cmd_hj)
    q = sh.add_parser("pipeline")
    q.add_argument("--a", required=True, help="comma-separated A sizes")
    q.add_argument("--forests", required=True, help="comma-separated forest JSON paths")
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--max-host", type=int, default=8)
    q.add_argument("--max-i", type=int, default=3)
    q.set_defaults(func=cmd_hj)
    q = sh.add_parser("verify-transfer")
    q.add_argument("--forest", required=True)
    q.add_argument("--alphabet", type=int, required=True)
    q.add_argument("--a-size", type=int, required=True)
    q.add_argument("--budget", type=int, default=200_000)
    q.set_defaults(func=cmd_hj)

    p_wit = sub.add_parser("witness", help="Ramsey witness decisions")
    sw = p_wit.add_subparsers(dest="wit_cmd")
    q = sw.add_parser("check")
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--s", required=True)
    q.add_argument("--t", required=True)
    q.add_argument("--u", required=True)
    q.add_argument("--mode", choices=["mn", "sealed"], default="mn")
    q.add_argument("--out", help="write the report JSON here")
    q.set_defaults(func=cmd_witness, reads_max_colorings=True)
    q = sw.add_parser("search")
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--mode", choices=["mn", "sealed", "chain"], default="mn")
    q.add_argument("--s")
    q.add_argument("--t")
    q.add_argument("--k", type=int, help="chain mode: codomain size")
    q.add_argument("--l", type=int, help="chain mode: middle size")
    q.add_argument("--max-vertices", type=int, default=8)
    q.add_argument("--fixtures", help="append-only fixtures file to record the result")
    q.add_argument("--out")
    q.set_defaults(func=cmd_witness, reads_max_colorings=True)
    q = sw.add_parser("replay")
    q.add_argument("--report", required=True)
    q.set_defaults(func=cmd_witness)

    p_br = sub.add_parser("bridge", help="classical specializations")
    sb = p_br.add_subparsers(dest="bridge_cmd")
    q = sb.add_parser("prvo")
    q.add_argument("--values", required=True, help="comma-separated map values")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cmd_bridge)
    q = sb.add_parser("leeb")
    q.add_argument("--s", required=True)
    q.add_argument("--u", required=True)
    q.add_argument("--coloring", required=True)
    q.set_defaults(func=cmd_bridge)
    q = sb.add_parser("gr")
    q.add_argument("--u", required=True)
    q.add_argument("--l", type=int, required=True)
    q.set_defaults(func=cmd_bridge)
    return parser


def _flag_dests(parser: argparse.ArgumentParser) -> set[str]:
    """The dests of the flags of parser and of every subcommand parser below it."""
    subs = [sub for a in parser._actions if isinstance(a, argparse._SubParsersAction) for sub in a.choices.values()]
    return {a.dest for a in parser._actions if a.option_strings}.union(*map(_flag_dests, subs))


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Set the key=value lines of args.config as defaults of parser and of each
    subcommand parser that args chose, whose own defaults would win otherwise.
    A key naming no flag of any parser raises ValueError; a key naming another
    subcommand's flag is left unused, so one file serves several commands."""
    defaults = {}
    with open(args.config, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            val = val.strip()
            if val.lower() in ("true", "false"):
                defaults[key] = val.lower() == "true"
            elif val.removeprefix("-").isdecimal():
                defaults[key] = int(val)
            else:
                defaults[key] = val  # a flag with a type parses it, or refuses it (exit 2)
    unknown = sorted(defaults.keys() - _flag_dests(parser))
    if unknown:
        raise ValueError(f"--config key {', '.join(unknown)} names no flag")
    while parser is not None:
        dests = {action.dest for action in parser._actions}
        parser.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subs[0].choices.get(getattr(args, subs[0].dest)) if subs else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_colorings is not None and not getattr(args, "reads_max_colorings", False):
        # checked before --config is read, so a --config value is left unused
        sys.stderr.write("error: --max-colorings is a flag of witness check and witness search only\n")
        return 2
    if args.config is not None:
        try:
            _apply_config(parser, args)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        args = parser.parse_args(argv)
    if args.version:
        sys.stdout.write(
            serialize.dumps(
                {"treeramsey": __version__, "schemas": serialize.SCHEMA_VERSIONS}
            )
        )
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except NotFoundWithinBound as exc:
        sys.stderr.write(f"not found: {exc}\n")
        return 1
    except ResourceCapExceeded as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except VerificationFailed as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError, SchemaError, TreeRamseyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
