"""The four workloads as lists of operations, built from a seed.

An operation runs one library call (or one calculus unit) and returns an
Outcome; its check, run after the timed phase, compares the outcome with a
reference that does not rely on the code under test alone.  Operations run
in enumeration order; the seed draws the samples and the relabellings of the
calculus primitive sweep.  The library receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from treeramsey import colorsearch, halesjewett, trees, witness
from treeramsey.errors import ResourceCapExceeded

import calculus
import specs


@dataclass
class Outcome:
    status: str  # "ok": a verdict was reached; "cap": a resource cap stopped it
    checks: int  # work units for checks_per_s: law instances, word maps or decisions
    output: Any  # compared across passes and checked against the references
    counters: dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    key: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Optional[str]]  # a problem description, or None


# ---------------------------------------------------------------------------
# calculus


def _law_op(key: str, unit: calculus.Unit) -> Op:
    def run() -> Outcome:
        checked, violated = unit()
        return Outcome("ok", checked, (checked, violated))

    def check(out: Outcome) -> Optional[str]:
        return f"{out.output[1]} violated instances" if out.output[1] else None

    return Op(key, run, check)


def calculus_ops(seed: int, refs: dict) -> list[Op]:
    return [_law_op(key, unit) for key, unit in calculus.units(seed)]


# ---------------------------------------------------------------------------
# words


def _depths(f) -> list[int]:
    out = []
    for p in f.parent:
        out.append(0 if p is None else out[p] + 1)
    return out


def expected_word_count(f, i_size: int, a_size: int) -> int:
    """Block-condition word maps of a cell, counted from the definition.

    The cut points are the pairs (s, u) with u a word over I of length
    depth(s); each block of i letters must hit its target and otherwise stay
    in A, which leaves (a+1)^i - a^i choices per block.
    """
    blocks = sum(i_size**d for d in _depths(f))
    return ((a_size + 1) ** i_size - a_size**i_size) ** blocks


def _cell_op(f, i_size: int, a_size: int) -> Op:
    expected = expected_word_count(f, i_size, a_size)

    def run() -> Outcome:
        count, exhausted = halesjewett.verify_transfer_cell(
            f, i_size, a_size, exhaustive_budget=specs.TRANSFER_BUDGET
        )
        return Outcome("ok", expected, (count, exhausted), {"word_maps": expected})

    def check(out: Outcome) -> Optional[str]:
        count, exhausted = out.output
        listed = halesjewett.TransferCell(f, i_size, a_size).word_count()
        if not exhausted or count != expected or listed != expected:
            return f"covered {count} (exhausted={exhausted}), word_count {listed}, expected {expected}"
        return None

    return Op(f"cell {list(f.parent)} i={i_size} a={a_size}", run, check)


def _hj_op(a: int, l: int, b: int, refs: dict) -> Op:
    key = specs.hj_key(a, l, b)

    def run() -> Outcome:
        try:
            cert = halesjewett.hj_search(
                a, l, b, max_i=specs.HJ_MAX_I, max_colorings=specs.HJ_MAX_COLORINGS
            )
        except ResourceCapExceeded:
            return Outcome("cap", 0, None)
        return Outcome("ok", 0, cert.i_size, {"hj_witnesses": len(cert.witnesses)})

    def check(out: Outcome) -> Optional[str]:
        if out.status == "cap":
            return None
        expected = refs["fixtures"].get(key, refs["expected"]["hj"].get(key))
        if expected is None:
            return f"no reference for the decided minimal i = {out.output}"
        return None if out.output == expected else f"minimal i {out.output}, expected {expected}"

    return Op(key, run, check)


def transfer_cells(seed: int) -> list[tuple]:
    """Every cell of the small forests and every cheap cell of the larger ones, plus
    one cell drawn by the seed from each word-count class of the other larger cells.

    Cells of one class cost about the same, so the sample's cost does not
    depend on the seed; the cheap cells put the median decision inside a
    dense cluster, where the sample cannot move it.
    """
    rng = random.Random(seed)
    cells = []
    for n in range(1, specs.TRANSFER_SAMPLED_SIZE + 1):
        classes: dict[int, list[tuple]] = {}
        for f in trees.all_forests(n):
            for a in specs.TRANSFER_A_SIZES:
                for i in specs.TRANSFER_I_SIZES:
                    count = expected_word_count(f, i, a)
                    if count > specs.TRANSFER_MAX_WORDS:
                        continue
                    if n <= specs.TRANSFER_FULL_MAX or count <= specs.TRANSFER_SAMPLE_MIN_WORDS:
                        cells.append((f, i, a))
                    else:
                        classes.setdefault(count, []).append((f, i, a))
        for count in sorted(classes):
            cells.append(rng.choice(classes[count]))
    return cells


def words_ops(seed: int, refs: dict) -> list[Op]:
    ops = [_cell_op(*cell) for cell in transfer_cells(seed)]
    return ops + [_hj_op(a, l, b, refs) for a, l, b in specs.HJ_PARAMS]


# ---------------------------------------------------------------------------
# witness decisions


def _decision_op(mode: str, b: int, s, t, u, max_nodes: int, refs: dict) -> Op:
    decide = "check_witness_mn" if mode == "mn" else "check_witness_sealed"
    group, ukey = specs.group_key(mode, b, s, t), specs.tree_key(u)

    def run() -> Outcome:
        report = getattr(witness, decide)(b, s, t, u, max_nodes=max_nodes, max_colorings=None)
        status = "cap" if report.verdict == "cap_exceeded" else "ok"
        counters = {
            # a cap hit reports no nodes; the search stopped after max_nodes (at most b - 1 more)
            "nodes": max_nodes if status == "cap" else report.stats.nodes,
            "vertices": report.stats.vertices,
            "edges": report.stats.edges,
        }
        return Outcome(status, 1, (report.verdict, report.counterexample), counters)

    def check(out: Outcome) -> Optional[str]:
        verdict, coloring = out.output
        if verdict == "cap_exceeded":
            return None
        expected = refs["expected"]["witness"].get(group, {}).get(ukey)
        if expected is None:
            return "no reference verdict"
        if verdict != expected[0]:
            return f"verdict {verdict}, expected {expected[0]}"
        if verdict == "fails":
            build = witness._mn_hypergraph if mode == "mn" else witness._sealed_hypergraph
            vertices, edges = build(s, t, u)
            if len(coloring) != len(vertices) or colorsearch.has_monochromatic_edge(coloring, edges):
                return "counterexample does not replay"
        return None

    return Op(f"{group} u={ukey}", run, check)


def chain_ops(seed: int, refs: dict) -> list[Op]:
    return [
        _decision_op("mn", b, trees.chain(k), trees.chain(l), trees.chain(m), specs.CHAIN_MAX_NODES, refs)
        for b, k, l, ms in specs.CHAIN_GROUPS
        for m in ms
    ]


def tree_sample(seed: int, mode: str, b: int, s, t, refs: dict) -> list:
    """TREE_SAMPLE trees of the sampled size, one from each of as many equal strata
    of the population ordered by reference hypergraph size.

    The population leaves out trees whose reference hypergraph has more edges
    than the largest one among the fully decided sizes: in mn mode those are
    11% of the trees but 63% of the build work, and one of them in the sample
    would make the pass time depend on the seed.
    """
    table = refs["expected"]["witness"][specs.group_key(mode, b, s, t)]
    size = {u: table[specs.tree_key(u)][2] for n in range(1, specs.SAMPLED_TREE_SIZE + 1) for u in trees.all_trees(n)}
    largest = max(e for u, e in size.items() if u.n <= specs.FULL_TREE_SIZE)
    population = sorted(
        (u for u in trees.all_trees(specs.SAMPLED_TREE_SIZE) if size[u] <= largest),
        key=lambda u: (size[u], u.parent),
    )
    rng = random.Random(f"{seed} {mode}")
    k = specs.TREE_SAMPLE
    bounds = [len(population) * j // k for j in range(k + 1)]
    return [population[rng.randrange(bounds[j], bounds[j + 1])] for j in range(k)]


def tree_ops(seed: int, refs: dict) -> list[Op]:
    ops = []
    for mode, b, s, t in specs.tree_groups():
        candidates = [u for n in range(1, specs.FULL_TREE_SIZE + 1) for u in trees.all_trees(n)]
        candidates += tree_sample(seed, mode, b, s, t, refs)
        ops += [_decision_op(mode, b, s, t, u, specs.TREE_MAX_NODES, refs) for u in candidates]
    return ops


WORKLOADS: dict[str, Callable[[int, dict], list[Op]]] = {
    "calculus": calculus_ops,
    "words": words_ops,
    "witness-chain": chain_ops,
    "witness-trees": tree_ops,
}
