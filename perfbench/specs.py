"""Fixed parameters of the four workloads, shared by the benchmark and make_expected.py.

Every cap the library accepts is passed explicitly from here, so no
environment variable (such as RAMSEY_MAX_NODES) can change a workload.
"""

from __future__ import annotations

# Sizes.  Operations are timed one by one, and an operation's time is its best
# over the run's passes; on a shared host that best time is steady only for
# operations that take tens of milliseconds and passes short enough that a run
# holds tens of them.  So no pass here takes more than about 1 s, and only the
# decided word-lemma search (2, 2, 2) takes more than 0.2 s.

# calculus: the lemma-suite bounds, the axiom bounds, the primitive sweep bound
LAW_TREE_MAX = 5
LAW_THIRD_TREE_MAX = 4  # at 6 a pass takes 20 s, at 5 about 2 s
SPACE_AXIOM_BOUND = 3  # at 4 the space axioms are one call of 3.6 s
DOMAIN_AXIOM_BOUND = 3  # at 4 one call of 0.4 s
PRIMITIVE_TREE_MAX = 6

# words: transfer cells and word-lemma searches
TRANSFER_FULL_MAX = 3  # every cell with a forest of at most this many vertices
TRANSFER_SAMPLED_SIZE = 4  # cells of these forests: the cheap ones, and a sample of the rest
TRANSFER_SAMPLE_MIN_WORDS = 1_000  # cells up to this many word maps all run
TRANSFER_MAX_WORDS = 2_500  # above it no cell runs; below, one cell per word-count class
TRANSFER_A_SIZES = (1, 2)
TRANSFER_I_SIZES = (1, 2)
TRANSFER_BUDGET = 200_000  # the library checks cells up to this many word maps exhaustively
HJ_PARAMS = ((2, 2, 2), (1, 3, 2), (2, 3, 2), (3, 2, 2))  # (a, l, b)
HJ_MAX_I = 3
HJ_MAX_COLORINGS = 1 << 20

# witness-chain: (b, k, l, chain sizes m).  The holding m = 7 of (2, 2, 3) needs
# 1.3 million nodes; the cap stops it after a fixed number of nodes instead, so
# it counts against decided_share until a change decides it within the cap.
CHAIN_GROUPS = (
    (2, 2, 3, range(1, 8)),
    (2, 2, 4, range(1, 9)),
    (3, 2, 3, range(1, 9)),
)
CHAIN_MAX_NODES = 50_000

# witness-trees: (mode, b, S, T), every tree up to FULL_TREE_SIZE, a sample of the next size
FULL_TREE_SIZE = 7
SAMPLED_TREE_SIZE = 8
TREE_SAMPLE = 64  # per mode
REFERENCE_TREE_SIZE = 9  # expected.json holds the verdict of every tree up to this size
TREE_MAX_NODES = 2_000_000


def _tree(parent):
    from treeramsey.trees import OrderedTree

    return OrderedTree(tuple(parent))


def tree_groups():
    return (
        ("mn", 2, _tree([None, 0]), _tree([None, 0, 1, 2])),
        ("sealed", 2, _tree([None, 0]), _tree([None, 0, 1, 1])),
    )


def group_key(mode: str, b: int, s, t) -> str:
    return f"{mode} b={b} s={list(s.parent)} t={list(t.parent)}"


def tree_key(u) -> str:
    """The parent array without its leading None, as in "0,0,1"; "" for one vertex."""
    return ",".join(str(p) for p in u.parent[1:])


def hj_key(a: int, l: int, b: int) -> str:
    return f"hj a={a} l={l} b={b} minimal i"
