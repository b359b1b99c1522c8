"""Benchmark for treeramsey: run one workload, check every output, print the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 30 --trace 0

Workloads: calculus, words, witness-chain, witness-trees (see perfbench/README.md).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones from traced passes, plus the tracing
overhead against the untraced passes of the same run.  The line before it
holds the exact work counters, the tail percentile used and the sample counts.

The workload runs in this one process and thread.  Child interpreters, one
at a time and outside any operation's timing, only time interpreter start and
import for setup_s.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures" / "witnesses.json"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3  # set-ups before the timed phase
STARTUP_PROBES = 10  # start-up samples spread over the timed phase, between passes
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import treeramsey.framework, treeramsey.halesjewett, treeramsey.witness"
)
TAIL_BEYOND = 10  # the tail percentile is the highest with this many decisions beyond it


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def load_library():
    """Import treeramsey from this checkout's src/, never from anywhere else."""
    if not (SRC / "treeramsey" / "__init__.py").is_file() or not FIXTURES.is_file():
        sys.exit(f"perfbench: run from the repository root ({SRC}/treeramsey or {FIXTURES} missing)")
    sys.path.insert(0, str(SRC))
    import treeramsey

    if Path(treeramsey.__file__).resolve().parent != (SRC / "treeramsey").resolve():
        sys.exit(f"perfbench: imported treeramsey from {treeramsey.__file__}, not from {SRC}")


def cached_functions() -> list:
    """Every lru_cache table in the library, found once before any tracing wraps names."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("treeramsey"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def time_startup() -> float:
    """Time for a child interpreter to start and import the library."""
    t0 = time.perf_counter()
    # no timeout: Popen.wait with one polls in steps of up to 50 ms, which would show here
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def time_input_generation(make_ops, seed: int, refs: dict, caches: list) -> float:
    """Median time to generate the workload's inputs from cold caches."""
    times = []
    for _ in range(SETUP_REPEATS):
        for fn in caches:
            fn.cache_clear()
        t0 = time.perf_counter()
        make_ops(seed, refs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(make_ops, seed: int, refs: dict, caches: list, tracer=None) -> dict:
    """One cold pass: fresh caches and inputs, then every operation timed."""
    from workloads import Outcome

    for fn in caches:
        fn.cache_clear()
    ops = make_ops(seed, refs)
    # the benchmark's own objects (references, earlier passes) go to the permanent
    # generation, so collections in the pass cost what they would in a fresh process
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.install()
    results = []
    start = time.perf_counter()
    try:
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises counts as failed; the pass goes on
                out = Outcome("error", 0, traceback.format_exc(limit=4))
            results.append((time.perf_counter() - t0, out))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    enum_caches = [fn for fn in caches if fn.__module__ == "treeramsey.enumeration"]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "results": results,
        "wall": wall,
        "cache_hits": sum(fn.cache_info().hits for fn in caches),
        "cache_misses": sum(fn.cache_info().misses for fn in caches),
        "enumeration_hits": sum(fn.cache_info().hits for fn in enum_caches),
        "enumeration_misses": sum(fn.cache_info().misses for fn in enum_caches),
    }


def pass_counters(p: dict) -> dict:
    counters: dict[str, int] = {
        "operations": len(p["ops"]),
        "checks": sum(out.checks for _, out in p["results"]),
        "cache_hits": p["cache_hits"],
        "cache_misses": p["cache_misses"],
    }
    for _, out in p["results"]:
        for key, value in out.counters.items():
            counters[key] = counters.get(key, 0) + value
    return counters


def verify(passes: list[dict]) -> tuple[list[bool], int, list[str]]:
    """Check the first pass against the references; later passes must repeat it exactly,
    work counters included.

    Returns, per operation, whether it reached a verified verdict; the number
    of failed operations per pass (raised, or a wrong output); and the problems.
    A cap hit is neither: it is undecided, and counts against decided_share.
    """
    first = passes[0]
    decided, failed, problems = [], 0, []
    for op, (_, out) in zip(first["ops"], first["results"]):
        try:
            problem = f"raised: {out.output}" if out.status == "error" else op.check(out)
        except Exception:  # a reference that cannot be rebuilt fails the operation
            problem = "check raised: " + traceback.format_exc(limit=4)
        if problem:
            problems.append(f"{op.key}: {problem}")
            failed += 1
        decided.append(out.status == "ok" and not problem)
    for p in passes[1:]:
        for op, (_, out), (_, ref) in zip(p["ops"], p["results"], first["results"]):
            if (out.status, out.output) != (ref.status, ref.output):
                problems.append(f"{op.key}: output differs between passes")
        if pass_counters(p) != pass_counters(first):
            problems.append("work counters differ between passes")
    return decided, failed, problems


def best_times(passes: list[dict]) -> list[float]:
    """Each operation's time, as the best of the run's passes.

    On a shared host other tenants slow a run in bursts of a few seconds; the
    best of a few passes leaves most of them out, as timeit does.
    """
    return [min(p["results"][i][0] for p in passes) for i in range(len(passes[0]["ops"]))]


def latency(passes: list[dict]) -> dict:
    """The median decision time and the highest percentile with TAIL_BEYOND decisions beyond it."""
    per_op = sorted(best_times(passes))
    n = len(per_op)
    pct = max(0, math.floor(100 * (1 - TAIL_BEYOND / n)))
    tail = per_op[max(0, math.ceil(pct / 100 * n) - 1)]
    return {"p50": statistics.median(per_op), "tail": tail, "tail_percentile": pct, "samples": n}


def end_to_end(passes: list[dict], setup_s: float, decided: list[bool], lat: dict) -> dict:
    wall = sum(best_times(passes))
    checks = pass_counters(passes[0])["checks"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "checks_per_s": (checks / wall, "1/s"),
        "decide_p50_s": (lat["p50"], "s"),
        "decide_tail_s": (lat["tail"], "s"),
        "decided_share": (sum(decided) / len(decided), "ratio"),
        # after the first pass: later passes add allocator slack, and how many run depends on speed
        "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB"),
    }


def per_layer(tracer, traced: dict, overhead: float) -> dict:
    calls, self_time, counters = tracer.calls, tracer.self_time, tracer.counters
    trees_calls, trees_self = tracer.layer("trees")
    maps_calls, _ = tracer.layer("maps")
    hits, misses = traced["enumeration_hits"], traced["enumeration_misses"]
    cs_self = self_time.get("colorsearch.find_proper_coloring", 0.0)
    nodes = counters.get("colorsearch.nodes", 0)
    out = {
        "trees.calls": (trees_calls, "count"),
        "trees.self_s": (trees_self, "s"),
        "maps.calls": (maps_calls, "count"),
    }
    for fn in ("TreeMap", "injection_of", "compose", "restrict_initial", "restrict_conjugate",
               "conjugate_leaf", "rigid_from_embedding"):
        out[f"maps.{fn}.self_s"] = (self_time.get(f"maps.{fn}", 0.0), "s")
    out.update({
        "framework.space_axioms.self_s": (self_time.get("framework.space_axioms", 0.0), "s"),
        "framework.domain_axioms.self_s": (self_time.get("framework.domain_axioms", 0.0), "s"),
        "enumeration.all_rigid_surjections.calls": (calls.get("enumeration.all_rigid_surjections", 0), "count"),
        "enumeration.all_rigid_surjections.self_s": (self_time.get("enumeration.all_rigid_surjections", 0.0), "s"),
        "enumeration.all_rigid_surjections.maps_out": (
            counters.get("enumeration.all_rigid_surjections.maps_out", 0), "count"),
        "enumeration.all_embeddings.self_s": (self_time.get("enumeration.all_embeddings", 0.0), "s"),
        "enumeration.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "witness.decisions": (calls.get("witness.decide", 0), "count"),
        "witness.vertices": (counters.get("witness.vertices", 0), "count"),
        "witness.edges": (counters.get("witness.edges", 0), "count"),
        "witness.build_s": (tracer.build_time(), "s"),
        "colorsearch.calls": (calls.get("colorsearch.find_proper_coloring", 0), "count"),
        "colorsearch.self_s": (cs_self, "s"),
        "colorsearch.nodes": (nodes, "count"),
        "colorsearch.nodes_per_s": (nodes / cs_self if cs_self else 0.0, "1/s"),
        "colorsearch.cap_hits": (tracer.cap_hits("colorsearch.find_proper_coloring"), "count"),
        "halesjewett.cells": (calls.get("halesjewett.transfer", 0), "count"),
        "halesjewett.word_maps": (counters.get("halesjewett.word_maps", 0), "count"),
        "halesjewett.transfer.self_s": (self_time.get("halesjewett.transfer", 0.0), "s"),
        "halesjewett.hj.self_s": (self_time.get("halesjewett.hj", 0.0), "s"),
        "halesjewett.hj.colorings": (counters.get("halesjewett.hj.colorings", 0), "count"),
        "halesjewett.cap_hits": (tracer.cap_hits("halesjewett.hj"), "count"),
        "trace_overhead_s": (overhead, "s"),
    })
    return out


def main() -> None:
    args = parse_args()
    load_library()
    import tracing
    import workloads

    make_ops = workloads.WORKLOADS.get(args.workload)
    if make_ops is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    refs = {
        "fixtures": json.loads(FIXTURES.read_text())["entries"],
        "expected": json.loads(EXPECTED.read_text()),
    }
    caches = cached_functions()
    input_s = time_input_generation(make_ops, args.seed, refs, caches)
    # spread over the run: on a shared host other tenants slow a run in bursts of a few seconds
    startups = [time_startup() for _ in range(SETUP_REPEATS)]

    passes: list[dict] = []  # untraced
    traced: list[tuple[object, dict]] = []
    began = time.perf_counter()
    next_probe = began
    while True:
        # a traced run alternates untraced and traced passes, at least one of each
        if args.trace and len(traced) < len(passes):
            tracer = tracing.Tracer()
            traced.append((tracer, run_pass(make_ops, args.seed, refs, caches, tracer)))
            last = traced[-1][1]["wall"]
        else:
            passes.append(run_pass(make_ops, args.seed, refs, caches))
            last = passes[-1]["wall"]
        if time.perf_counter() >= next_probe:
            startups.append(time_startup())
            next_probe += args.seconds / STARTUP_PROBES
        if args.trace and not traced:
            continue
        if time.perf_counter() - began + last > args.seconds:
            break

    decided, failed, problems = verify(passes + [p for _, p in traced])
    lat = latency(passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_s": [p["wall"] for p in passes],
        "counters": pass_counters(passes[0]),
        "tail_percentile": lat["tail_percentile"],
        "decisions_sampled": lat["samples"],
        "setup": {
            "input_generation_s": input_s,
            "interpreter_import_s": statistics.median(startups),
            "startup_samples": len(startups),
        },
        "problems": problems[:20],
    }
    if args.trace:
        overhead = sum(best_times([p for _, p in traced])) - sum(best_times(passes))
        per_pass = [per_layer(tracer, p, overhead) for tracer, p in traced]
        metrics = {
            name: (statistics.median_low(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced[0][0].write(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["spans_dropped"] = traced[0][0].dropped
    else:
        metrics = end_to_end(passes, statistics.median(startups) + input_s, decided, lat)
    runs = len(passes) + len(traced)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(decided) * runs,
        "failed": failed * runs,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
