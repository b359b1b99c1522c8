"""Time one chain-mode witness decision: hypergraph build, solve, nodes and peak RSS.

Run from the repository root, one decision per process, since the peak RSS
is the whole process's:

    python3 bench/chain_decision.py --b 2 --k 2 --l 4 --m 11

It decides whether chain(m) is an mn witness for (b, chain(k), chain(l)) and
prints one JSON object with the verdict, the vertex, edge and node counts,
build_s, solve_s and peak_rss_mb.  --src imports the library from another
source directory (default: src/ of the working directory), so a checkout of
another commit is measured by the same script.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("b", "k", "l", "m"):
        parser.add_argument(f"--{name}", type=int, required=True)
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from treeramsey import colorsearch, witness
    from treeramsey.trees import chain

    s, t, u = chain(args.k), chain(args.l), chain(args.m)
    t0 = time.perf_counter()
    vertices, edges = witness._hypergraph("mn", s, t, u)
    t1 = time.perf_counter()
    result = colorsearch.find_proper_coloring(len(vertices), edges, args.b)
    t2 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "b": args.b, "k": args.k, "l": args.l, "m": args.m,
        "verdict": "holds" if result.holds else "fails",
        "vertices": result.stats.vertices,
        "edges": result.stats.edges,
        "nodes": result.stats.nodes,
        "build_s": round(t1 - t0, 3),
        "solve_s": round(t2 - t1, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }))


if __name__ == "__main__":
    main()
