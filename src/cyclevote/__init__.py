"""cyclevote: exact-arithmetic voting on cyclic orders.

Construct, decompose and audit neutral points-based voting rules whose
outcomes are cyclic orders (seatings around a table), using the symmetric
group's representation theory over exact rationals.
"""
from .analysis import (
    MaskingInfeasibleError,
    Profile,
    SubspaceCatalog,
    act_on_profile,
    decompose_profile,
    effective_basis,
    kernel_basis,
    masking_profile,
    parse_profile,
    profile,
    scaling_report,
    subspace_catalog,
    tally,
)
from .ballots import (
    BallotSpace,
    RoloBallot,
    TradBallot,
    act_on_ballot,
    action_space,
    build_ballot_space,
    favorite_order,
    parse_ballot,
    trad_ballot,
)
from .cyclic_orders import (
    CyclicOrder,
    act_on_order,
    canonicalize,
    classify_pair,
    co_character,
    count_fixed_orders,
    enumerate_orders,
    parse_order,
    reverse_order,
    transposition_distance,
)
from .representation import (
    ActionSpace,
    DecompositionReport,
    character_inner_product,
    decompose_character,
    isotypic_projector,
    project_vector,
    space_character,
)
from .scoring import (
    ScoringMatrix,
    SeedConflictError,
    build_neutral_matrix,
    named_rule,
    rule,
)
from .symmetric_group import (
    ClassFunction,
    Partition,
    Permutation,
    compose,
    cycle_type,
    enumerate_classes,
    identity,
    irreducible_character,
    sign,
)

__version__ = "0.1.0"
