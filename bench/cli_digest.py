"""Digest the output bytes of a fixed list of CLI runs.

Run from the repository root, once per checkout to compare:

    python3 bench/cli_digest.py
    python3 bench/cli_digest.py --src ../parent/src

Each command runs as ``python -m treeramsey ...`` in a fresh process, with the
library imported from --src (default: src/ of the working directory), inside
one temporary directory that holds the input files, so every argv is the same
from run to run.  The list covers witness check (mn and sealed, holding and
failing), witness search (mn, sealed and chain, with --jobs 1 and 2, and one
stopped by the node cap), witness replay of both verdicts, enum maps --kind
rigid and sealed, the three bridges and one refused hj search.  The commands
run in list order, so the replays read the reports the checks before them
wrote.

It prints one JSON object: per command its argv, its exit code and the
SHA-256 (first 16 hex digits) of (argv, exit code, stdout, stderr), and one
digest over all of them.  Two checkouts that print every byte alike print
the same digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TREES = {
    "c2": [None, 0],
    "c3": [None, 0, 1],
    "c6": [None, 0, 1, 2, 3, 4],
    "y": [None, 0, 0],
    "c3plus": [None, 0, 1, 0],
    "u7": [None, 0, 1, 1, 3, 3, 0],
}
COLORINGS = {"leeb": {"b": 2, "colors": [0, 1]}}  # the 2 embeddings of chain 2 into Y

WITNESS = ["--json", "witness"]
COMMANDS = [
    [*WITNESS, "check", "--b", "2", "--s", "c2.json", "--t", "c3.json", "--u", "c6.json", "--out", "holds.json"],
    [*WITNESS, "check", "--b", "2", "--s", "c2.json", "--t", "c3.json", "--u", "c3.json", "--out", "fails.json"],
    [*WITNESS, "check", "--mode", "sealed", "--b", "2", "--s", "y.json", "--t", "c3plus.json", "--u", "u7.json"],
    [*WITNESS, "check", "--mode", "sealed", "--b", "2", "--s", "y.json", "--t", "c3plus.json", "--u", "c6.json"],
    *(
        ["--jobs", jobs, *WITNESS, "search", "--b", "2", *flags]
        for jobs in ("1", "2")
        for flags in (
            ["--s", "c2.json", "--t", "c3.json", "--max-vertices", "6"],
            ["--mode", "sealed", "--s", "y.json", "--t", "c3plus.json", "--max-vertices", "7"],
            ["--mode", "chain", "--k", "2", "--l", "3", "--max-vertices", "7"],
        )
    ),
    ["--max-nodes", "10", "witness", "search", "--b", "2", "--mode", "chain", "--k", "2", "--l", "3"],
    ["witness", "replay", "--report", "holds.json"],
    ["witness", "replay", "--report", "fails.json"],
    ["enum", "maps", "--kind", "rigid", "--dom", "u7.json", "--cod", "c3.json"],
    ["enum", "maps", "--kind", "sealed", "--dom", "u7.json", "--cod", "c3.json"],
    ["bridge", "prvo", "--values", "0,1,0,2", "--k", "3"],
    ["bridge", "leeb", "--s", "c2.json", "--u", "y.json", "--coloring", "leeb.json"],
    ["bridge", "gr", "--u", "y.json", "--l", "2"],
    ["hj", "search", "--a", "1", "--l", "1", "--b", "0"],
]


def _write_inputs(root: Path) -> None:
    for name, parent in TREES.items():
        payload = {"schema": "tree", "version": 1, "kind": "tree", "parent": parent}
        (root / f"{name}.json").write_text(json.dumps(payload))
    for name, coloring in COLORINGS.items():
        payload = {"schema": "coloring", "version": 1, **coloring}
        (root / f"{name}.json").write_text(json.dumps(payload))


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    env.pop("RAMSEY_MAX_NODES", None)  # the default node cap, so no setting here changes a verdict
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for argv in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "treeramsey", *argv], cwd=tmp, env=env, capture_output=True
            )
            digest = _digest(json.dumps(argv).encode(), b"%d" % proc.returncode, proc.stdout, proc.stderr)
            runs.append({"argv": " ".join(argv), "exit": proc.returncode, "digest": digest})
    overall = _digest(*(run["digest"].encode() for run in runs))
    print(json.dumps({"commands": runs, "digest": overall}))


if __name__ == "__main__":
    main()
