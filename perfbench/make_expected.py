"""Build perfbench/expected.json, the reference verdicts the benchmark checks against.

Run once from the repository root:

    python3 perfbench/make_expected.py

Verdicts come from references that do not share the pruned solver:

- chain witnesses: the minimal chain m for (b=2, k=2, l=3) from
  fixtures/witnesses.json, closed upward along chains (a chain witness stays a
  witness when the chain grows), and the plain checker
  ``find_proper_coloring_plain`` for every chain below that minimum and for
  the other chain parameters;
- tree witnesses: the plain checker on every tree with at most 9 vertices, in
  both modes the benchmark uses;
- word lemma: the minimal alphabet size from ``hj_product_search`` in
  reduction mode, a candidate family built apart from ``hj_search``.

The pruned solver must agree with each reference verdict.  Each entry also
stores that solver's hypergraph size and node count; the benchmark uses them
only to stratify its seeded sample of 9-vertex trees by cost.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treeramsey import colorsearch, halesjewett, trees, witness  # noqa: E402
from treeramsey.errors import ResourceCapExceeded  # noqa: E402

import specs  # noqa: E402

PLAIN_CAP = 10**9


def plain_verdict(mode: str, b: int, s, t, u) -> str:
    build = witness._mn_hypergraph if mode == "mn" else witness._sealed_hypergraph
    vertices, edges = build(s, t, u)
    result = colorsearch.find_proper_coloring_plain(len(vertices), edges, b, max_nodes=PLAIN_CAP)
    return "holds" if result.holds else "fails"


def entry(mode: str, b: int, s, t, u, verdict: str | None = None) -> list:
    """[verdict, hypergraph vertices, distinct edges, pruned-solver nodes]."""
    if verdict is None:
        verdict = plain_verdict(mode, b, s, t, u)
    rep = witness._decide(b, mode, s, t, u, max_nodes=PLAIN_CAP)
    if rep.verdict != verdict:
        raise SystemExit(f"pruned solver disagrees with the reference on {mode} {u}")
    return [verdict, rep.stats.vertices, rep.stats.edges, rep.stats.nodes]


def witness_table() -> dict[str, dict[str, list]]:
    fixtures = json.loads((ROOT / "fixtures" / "witnesses.json").read_text())["entries"]
    minimal_223 = fixtures["chain minimal m b=2 k=2 l=3"]["m"]
    out: dict[str, dict[str, list]] = {}
    for b, k, l, ms in specs.CHAIN_GROUPS:
        s, t = trees.chain(k), trees.chain(l)
        group = out.setdefault(specs.group_key("mn", b, s, t), {})
        for m in ms:
            known = "holds" if (b, k, l) == (2, 2, 3) and m >= minimal_223 else None
            group[specs.tree_key(trees.chain(m))] = entry("mn", b, s, t, trees.chain(m), known)
    for mode, b, s, t in specs.tree_groups():
        group = out.setdefault(specs.group_key(mode, b, s, t), {})
        for n in range(1, specs.REFERENCE_TREE_SIZE + 1):
            for u in trees.all_trees(n):
                group[specs.tree_key(u)] = entry(mode, b, s, t, u)
            print(f"{mode} n={n} done", file=sys.stderr, flush=True)
    return out


def hj_table() -> dict[str, int]:
    out = {}
    for a, l, b in specs.HJ_PARAMS:
        try:
            cert = halesjewett.hj_product_search(
                [a], [l], b, specs.HJ_MAX_I, mode="reduction", max_colorings=specs.HJ_MAX_COLORINGS
            )
        except ResourceCapExceeded:
            continue  # no verdict at the cap: the benchmark expects the cap hit
        out[specs.hj_key(a, l, b)] = cert.i_size
    return out


def main() -> None:
    table = {
        "schema": "perfbench-expected",
        "version": 1,
        "hj": hj_table(),
        "witness": witness_table(),
    }
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
