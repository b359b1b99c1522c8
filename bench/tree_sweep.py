"""Time one tree-mode sweep: every tree with at most --max-vertices vertices decided.

Run from the repository root, one sweep per process, since the peak RSS is
the whole process's:

    python3 bench/tree_sweep.py --mode sealed --s '[null, 0]' --t '[null, 0, 1, 1]' --max-vertices 9

It decides, for every tree U with 1 to max-vertices vertices in enumeration
order, whether U is a witness for (b, S, T) in the given mode (mn or sealed),
as search_witness would without stopping at the first holding tree.  S and T
are parent arrays in JSON.  It prints one JSON object with the decision and
holds counts, a digest of the (verdict, nodes) pair of every tree, wall_s and
peak_rss_mb.  Two runs that decide the same verdicts with the same node
counts print the same digest.  --src imports the library from another source
directory (default: src/ of the working directory), so a checkout of another
commit is measured by the same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("mn", "sealed"), required=True)
    parser.add_argument("--s", type=json.loads, required=True)
    parser.add_argument("--t", type=json.loads, required=True)
    parser.add_argument("--max-vertices", type=int, required=True)
    parser.add_argument("--b", type=int, default=2)
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from treeramsey import witness
    from treeramsey.trees import OrderedTree, all_trees

    s, t = OrderedTree(tuple(args.s)), OrderedTree(tuple(args.t))
    decide = witness.check_witness_mn if args.mode == "mn" else witness.check_witness_sealed
    digest = hashlib.sha256()
    decisions = holds = 0
    t0 = time.perf_counter()
    for n in range(1, args.max_vertices + 1):
        for u in all_trees(n):
            report = decide(args.b, s, t, u)
            decisions += 1
            holds += report.holds
            digest.update(f"{list(u.parent)} {report.verdict} {report.stats.nodes}\n".encode())
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "mode": args.mode, "b": args.b, "s": args.s, "t": args.t,
        "max_vertices": args.max_vertices,
        "decisions": decisions,
        "holds": holds,
        "digest": digest.hexdigest()[:16],
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }))


if __name__ == "__main__":
    main()
