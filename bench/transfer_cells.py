"""Time the transfer check on every cell up to a forest size: each covering-family map checked.

Run from the repository root, one sweep per process, since the peak RSS is
the whole process's:

    python3 bench/transfer_cells.py --max-vertices 5 --a 1,2,3 --i 1,2,3

For every forest S with 1 to max-vertices vertices in enumeration order,
every A size in --a and every alphabet size in --i, it runs check_word_map
on each member of the cell's covering_family, as verify_transfer_cell does
without its budget.  It prints one JSON object with the cell count, the maps
checked, the cells where some map failed its check, a digest of every
member's (pi_p, j_p) values, wall_s and peak_rss_mb.  Two runs that build
the same transfer maps print the same digest.  --src imports the library
from another source directory (default: src/ of the working directory), so
a checkout of another commit is measured by the same script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _sizes(text: str) -> list[int]:
    return [int(k) for k in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-vertices", type=int, required=True)
    parser.add_argument("--a", type=_sizes, default=[1, 2])
    parser.add_argument("--i", type=_sizes, default=[1, 2])
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from treeramsey.errors import VerificationFailed
    from treeramsey.halesjewett import TransferCell
    from treeramsey.trees import all_forests

    digest = hashlib.sha256()
    cells = checked = raised = 0
    t0 = time.perf_counter()
    for n in range(1, args.max_vertices + 1):
        for f in all_forests(n):
            for a in args.a:
                for i in args.i:
                    cell = TransferCell(f, i, a)
                    cells += 1
                    digest.update(f"{list(f.parent)} {a} {i}\n".encode())
                    try:
                        for p in cell.covering_family():
                            pi_vals, j_vals, _ = cell.transfer_maps(p)
                            digest.update(f"{pi_vals} {j_vals}\n".encode())
                            checked += 1
                            cell.check_word_map(p)
                    except VerificationFailed:
                        raised += 1
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "max_vertices": args.max_vertices, "a": args.a, "i": args.i,
        "cells": cells,
        "maps_checked": checked,
        "cells_raised": raised,
        "digest": digest.hexdigest()[:16],
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }))


if __name__ == "__main__":
    main()
