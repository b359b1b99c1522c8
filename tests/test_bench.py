import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# one small run of each timing script: they call private helpers that no
# other test reaches
BENCH_ARGS = {
    "calculus_counts": ["--seed", "1"],
    "chain_decision": ["--b", "2", "--k", "2", "--l", "3", "--m", "5"],
    "cli_digest": [],
    # compares this checkout with itself; --out keeps BENCH_startup.json as committed
    "startup": ["--repeat", "1", "--importtime-repeat", "1", "--out", os.devnull],
    "transfer_cells": ["--max-vertices", "2"],
    "tree_sweep": ["--mode", "sealed", "--s", "[null,0]", "--t", "[null,0,1,1]", "--max-vertices", "5"],
    "word_lemma": ["--repeat", "1"],
}


def test_every_bench_script_has_a_run():
    assert sorted(p.stem for p in (ROOT / "bench").glob("*.py")) == sorted(BENCH_ARGS)


@pytest.mark.parametrize("name", sorted(BENCH_ARGS))
def test_bench_script_prints_json(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / f"{name}.py"), *BENCH_ARGS[name]],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert isinstance(json.loads(proc.stdout.splitlines()[-1]), dict)
