"""Time the word-lemma decision: every colouring decided, one witness list per instance.

Run from the repository root:

    python3 bench/word_lemma.py --repeat 5

It times these calls, best of --repeat runs each:

- hj_product_check on (a, l, b) = (2, 2, 2) at i = 1 (defeated) and i = 2
  (16,384 pinned colourings);
- the shared word-lemma function on the same two instances unpinned, as
  lp_pipeline calls it (every colouring, the first item's colour free);
- hj_search(2, 2, 2), the minimal-i search of the benchmark's words workload;
- hj_product_check on A = (4, 2), L = (1, 1), b = 2, i = 2, the largest
  non-trivial instance under DEFAULT_MAX_COLORINGS (2^19 pinned colourings);
- three defeated instances, where a search stops at the first colouring
  that defeats every candidate: (4, 3, 2) at i = 1 (2^20 pinned colourings,
  colouring 1 defeats the one candidate), A = (1, 2), L = (2, 1), i = 2
  (2^15, colouring 4,454 defeats all 45) and A = (1, 3), L = (1, 1), i = 2
  (2^17, colouring 43,092 defeats all 21);
- hj_product_check on A = (4, 1, 1), L = (1, 2, 3), b = 2, i = 3 (2^20
  pinned colourings, 1,025,227 candidates), where candidate 0 takes every
  colouring, so only candidate 0 needs compiling.

It prints one JSON object with, per call, the best wall time, the witness
count (null when defeated) and a digest of the witness list.  Two runs that
find the same witnesses print the same digests.  --src imports the library
from another source directory (default: src/ of the working directory), so
a checkout of another commit with the same private helpers is measured by the
same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from treeramsey import halesjewett as hj

    def unpinned(a_sizes, l_sizes, b, i):
        found = hj._word_lemma_witnesses(a_sizes, l_sizes, i, b, hj.DEFAULT_MAX_COLORINGS, pin_first=False)
        return None if found is None else found[1]

    def witnesses(found):
        return found.witnesses if isinstance(found, hj.HJCertificate) else found

    calls = {
        "check (2,2,2) i=1": lambda: hj.hj_product_check([2], [2], 2, 1),
        "check (2,2,2) i=2": lambda: hj.hj_product_check([2], [2], 2, 2),
        "unpinned (2,2,2) i=1": lambda: unpinned([2], [2], 2, 1),
        "unpinned (2,2,2) i=2": lambda: unpinned([2], [2], 2, 2),
        "search (2,2,2)": lambda: hj.hj_search(2, 2, 2, 3),
        "check A=(4,2) L=(1,1) b=2 i=2": lambda: hj.hj_product_check([4, 2], [1, 1], 2, 2),
        "check (4,3,2) i=1": lambda: hj.hj_product_check([4], [3], 2, 1),
        "check A=(1,2) L=(2,1) b=2 i=2": lambda: hj.hj_product_check([1, 2], [2, 1], 2, 2),
        "check A=(1,3) L=(1,1) b=2 i=2": lambda: hj.hj_product_check([1, 3], [1, 1], 2, 2),
        "check A=(4,1,1) L=(1,2,3) b=2 i=3": lambda: hj.hj_product_check([4, 1, 1], [1, 2, 3], 2, 3),
    }
    results = {}
    for name, call in calls.items():
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            found = witnesses(call())
            best = min(best, time.perf_counter() - t0)
        results[name] = {
            "best_s": round(best, 5),
            "witnesses": None if found is None else len(found),
            "digest": hashlib.sha256(repr(found).encode()).hexdigest()[:16],
        }
    print(json.dumps({"repeat": args.repeat, "calls": results}))


if __name__ == "__main__":
    main()
