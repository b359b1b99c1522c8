"""Ordered trees, rigid surjections, and exhaustive Ramsey-property checkers.

The package decides Ramsey witness questions for rigid surjections between
finite ordered trees by brute force, verifies the supporting calculus
(injections, restrictions, sealedness, conjugate leaves) exhaustively on
small instances, and implements the composition-space framework and the
word-combinatorics transfer machinery behind the pigeonhole step.
"""

__version__ = "0.1.0"

from .trees import (  # noqa: F401
    OrderedForest,
    OrderedTree,
    all_forests,
    all_trees,
    attach,
    canonicalize,
    chain,
    drop_root,
    forest,
    initial_subtree,
    one_plus,
    oplus,
    point_forest,
    q_set,
    tensor,
    tree,
)
from .maps import (  # noqa: F401
    KindFlags,
    TreeMap,
    check_block_condition,
    classify,
    compose,
    conjugate_leaf,
    identity,
    injection_of,
    is_embedding,
    is_morphism,
    is_rigid_surjection,
    is_sealed,
    restrict_conjugate,
    restrict_initial,
    rigid_from_embedding,
)
from .enumeration import (  # noqa: F401
    all_embeddings,
    all_rigid_surjections,
    enum_colorings,
)
from .witness import (  # noqa: F401
    WitnessReport,
    assemble_V,
    assemble_plus,
    bridge_prvo,
    check_witness_mn,
    check_witness_sealed,
    derive_mn_from_sealed,
    gr_compatibility,
    lift_sealed,
    search_witness,
)
