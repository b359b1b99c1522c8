"""Time process start-up: a fresh interpreter that imports the library, and a short CLI run.

Run from the repository root, with a checkout of another commit to compare:

    python3 bench/startup.py --src ../parent/src --repeat 20

Each side (the --src library as "before", this checkout's src/ as "after")
is copied into a temporary directory twice: once as plain source, once
compiled to bytecode with compileall.  Children run with
PYTHONDONTWRITEBYTECODE=1, so the source copy stays uncached and every
child compiles it again, while the standard library is read from its own
bytecode as usual.  Each round times, in fresh processes and alternating
which side runs first:

- bare: ``python -c pass``, the interpreter alone (no library);
- import_source_s: the benchmark's import probe (treeramsey.framework,
  treeramsey.halesjewett and treeramsey.witness) on the source copy;
- import_bytecode_s: the same probe on the compiled copy;
- enum_source_s: ``python -m treeramsey enum trees --n 3 --count-only`` on
  the source copy.

After the rounds, ``-X importtime`` runs of the source probe give each
module's self time (median over --importtime-repeat runs) for the modules
the probe imports after site.  The script writes medians, quartiles, the
number of rounds each side won, and those self times to --out
(BENCH_startup.json), and prints the same object as one JSON line.  Each
side is named by ``git describe --always --dirty`` of its checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROBE = (
    "import sys; sys.path.insert(0, {path!r}); "
    "import treeramsey.framework, treeramsey.halesjewett, treeramsey.witness"
)
ENUM = ["-m", "treeramsey", "enum", "trees", "--n", "3", "--count-only"]
SIDES = ("before", "after")


def _env(pythonpath: str = "") -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    return env


def _timed(argv: list[str], pythonpath: str = "") -> float:
    env = _env(pythonpath)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _describe(src: Path) -> str:
    """The commit of the checkout that holds src, marked -dirty when it has changes."""
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=src.parent, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def _copies(src: Path, root: Path) -> dict[str, str]:
    """The package under src as an uncached source copy and a compiled copy."""
    out = {}
    for kind in ("source", "bytecode"):
        dest = root / kind
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(src / "treeramsey", dest / "treeramsey", ignore=ignore)
        if kind == "bytecode":
            compileall.compile_dir(str(dest), quiet=1)
        out[kind] = str(dest)
    return out


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5), "samples": len(samples)}


def _importtime(path: str, repeat: int) -> dict[str, int]:
    """Median self time in microseconds of each module the probe imports after site."""
    runs: dict[str, list[int]] = {}
    for _ in range(repeat):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", PROBE.format(path=path)],
            env=_env(), check=True, capture_output=True, text=True,
        ).stderr
        after_site = False
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue  # the header line
            if after_site:
                runs.setdefault(name, []).append(int(self_us))
            after_site = after_site or name == "site"
    return {name: int(statistics.median(times)) for name, times in sorted(runs.items())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"), help="the library measured as before")
    parser.add_argument("--repeat", type=int, default=20, help="rounds of alternated runs")
    parser.add_argument("--importtime-repeat", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH_startup.json"))
    args = parser.parse_args()
    if args.repeat < 1 or args.importtime_repeat < 1:
        parser.error("--repeat and --importtime-repeat must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            "before": _copies(args.src.resolve(), Path(tmp, "before")),
            "after": _copies(Path("src").resolve(), Path(tmp, "after")),
        }
        probes = {
            "import_source_s": lambda side: _timed(["-c", PROBE.format(path=paths[side]["source"])]),
            "import_bytecode_s": lambda side: _timed(["-c", PROBE.format(path=paths[side]["bytecode"])]),
            "enum_source_s": lambda side: _timed(ENUM, paths[side]["source"]),
        }
        bare: list[float] = []
        times: dict[str, dict[str, list[float]]] = {name: {side: [] for side in SIDES} for name in probes}
        for r in range(args.repeat):
            bare.append(_timed(["-c", "pass"]))
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for name, probe in probes.items():
                for side in order:
                    times[name][side].append(probe(side))
        importtime = {side: _importtime(paths[side]["source"], args.importtime_repeat) for side in SIDES}
    report = {
        "command": (
            f"python3 bench/startup.py --src BEFORE/src --repeat {args.repeat} "
            f"--importtime-repeat {args.importtime_repeat}"
        ),
        "machine": (
            f"{os.cpu_count()} cores, Python {platform.python_version()}, "
            f"PYTHONDONTWRITEBYTECODE=1 in every child"
        ),
        "before": _describe(args.src.resolve()),
        "after": _describe(Path("src").resolve()),
        "rounds": args.repeat,
        "order": "before first in even rounds, after first in odd rounds",
        "bare_interpreter_s": _summary(bare),
        "probes": {
            name: {
                **{side: _summary(times[name][side]) for side in SIDES},
                "after_wins": sum(a < b for a, b in zip(times[name]["after"], times[name]["before"])),
            }
            for name in probes
        },
        "importtime_self_us": importtime,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
