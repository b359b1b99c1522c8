"""Count the checks one cold pass of the calculus workload makes.

Run from the repository root:

    python3 bench/calculus_counts.py --seed 1

It builds the operations of perfbench's calculus workload for the seed,
clears every lru_cache table of the library, runs each operation once and
prints one JSON object:

- injection_checks: runs of the injection kernel maps._injection_values
  (wrapped in every library module that holds it), and injection_inputs,
  the distinct (T masks, S parents, values) among them;
- tree_constructions: OrderedTree constructions, tree_parents the distinct
  parent arrays among them, and tree_validations the runs of the validation
  pass (the misses of trees._tree_masks where the library has that table,
  else one per construction);
- checks: the law instances the pass checked, the same for any two commits.

--src imports the library from another source directory (default: src/ of
the working directory), so a checkout of another commit is counted by the
same script.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=Path("src"))
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(Path("perfbench").resolve()))
    import workloads  # perfbench's, imported after the library path is set

    from treeramsey import maps, trees

    modules = [m for name, m in list(sys.modules.items()) if name.startswith("treeramsey")]
    for module in modules:
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()

    injections: list[tuple] = []
    kernel = maps._injection_values

    def counted_kernel(dom_anc, cod_parent, values):
        injections.append((tuple(dom_anc), tuple(cod_parent), tuple(values)))
        return kernel(dom_anc, cod_parent, values)

    for module in modules:
        if vars(module).get("_injection_values") is kernel:
            module._injection_values = counted_kernel

    parents: list[tuple] = []
    post_init = trees.OrderedTree.__post_init__

    def counted_post_init(self):
        parents.append(self.parent)
        post_init(self)

    trees.OrderedTree.__post_init__ = counted_post_init

    checks = 0
    for op in workloads.calculus_ops(args.seed, {}):
        checks += op.run().checks
    validation_table = getattr(trees, "_tree_masks", None)
    print(json.dumps({
        "seed": args.seed,
        "checks": checks,
        "injection_checks": len(injections),
        "injection_inputs": len(set(injections)),
        "tree_constructions": len(parents),
        "tree_parents": len(set(parents)),
        "tree_validations": (
            len(parents) if validation_table is None else validation_table.cache_info().misses
        ),
    }))


if __name__ == "__main__":
    main()
