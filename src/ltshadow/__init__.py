"""Locally tomographic shadows of finite-dimensional real quantum theory.

Block decomposition of the operator space of a product system, the shadow
projection on states and processes, membership oracles for the nested
tensor cones, the tiles unextendible product basis, and a fiber sampler for
the apparent non-determinism seen by local agents.
"""

__version__ = "0.1.0"

from .blocks import grading_basis, project_block
from .cones import (
    ConeMembershipResult,
    FeasibilityParams,
    in_boxtimes_cone,
    in_max_cone,
    in_min_cone,
    in_positive_ss_cone,
    replay_boxtimes_member,
    replay_separating_functional,
)
from .errors import (
    DimensionMismatch,
    InfeasibleShadow,
    NotLocallyPositive,
    SupportViolation,
)
from .fiber import FiberSample, SpreadReport, push_and_spread, sample_fiber, sample_fibers
from .linalg import (
    kron,
    rng_from_seed,
    sym_part,
    trace_inner,
)
from .processes import (
    LinearProcess,
    ProcessBlockMatrix,
    block_matrix,
    conjugation_process,
    effect_functional,
    epsilon_functional,
    identity_process,
    is_locally_positive,
    is_positive_map_heuristic,
    preparation_process,
    random_kernel_leaking_process,
    random_locally_positive_process,
    shadow_of_map,
    swap_process,
)
from .shadow import (
    ShadowState,
    local_shadow_matrix,
    lt_state,
    partial_transpose,
)
from .upb import (
    separating_max_cone_form,
    tiles_upb,
    unextendibility_margin,
    upb_state,
)
from .verify import run_verification_report

__all__ = [
    "ConeMembershipResult", "DimensionMismatch", "FeasibilityParams", "FiberSample",
    "InfeasibleShadow", "LinearProcess", "NotLocallyPositive", "ProcessBlockMatrix",
    "ShadowState", "SpreadReport", "SupportViolation", "block_matrix",
    "conjugation_process", "effect_functional", "epsilon_functional", "grading_basis",
    "identity_process", "in_boxtimes_cone", "in_max_cone", "in_min_cone",
    "in_positive_ss_cone", "is_locally_positive", "is_positive_map_heuristic", "kron",
    "local_shadow_matrix", "lt_state", "partial_transpose", "preparation_process",
    "project_block", "push_and_spread", "random_kernel_leaking_process",
    "random_locally_positive_process", "replay_boxtimes_member",
    "replay_separating_functional", "rng_from_seed", "run_verification_report",
    "sample_fiber", "sample_fibers", "separating_max_cone_form", "shadow_of_map",
    "swap_process", "sym_part", "tiles_upb", "trace_inner", "unextendibility_margin",
    "upb_state",
]
