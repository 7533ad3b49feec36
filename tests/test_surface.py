"""The package's public surface, and the names the bench tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import ltshadow
from ltshadow.blocks import GradingBasis
from ltshadow.processes import LinearProcess

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

PUBLIC = [
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

# Helpers that restated the shadow or numpy, or that only the tests call;
# the tests keep their copies in matrix_helpers.
REMOVED = [
    (ltshadow.shadow, "aa_projection"),
    (ltshadow.shadow, "lt_state_oracle"),
    (ltshadow.shadow, "locally_indistinguishable"),
    (ltshadow.shadow, "INDISTINGUISHABILITY_TOL"),
    (ltshadow.cones, "product_quadratic_value"),
    (ltshadow.linalg, "trace_norm"),
    (ltshadow.processes, "process_from_function"),
    (LinearProcess, "norm"),
    (GradingBasis, "sizes"),
]


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_surface_is_pinned():
    assert sorted(ltshadow.__all__) == PUBLIC


def test_star_import_binds_the_public_names_only():
    """Every name of the explicit __all__ resolves, and no submodule is bound."""
    namespace = {}
    exec("from ltshadow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in REMOVED])
def test_test_only_helpers_are_not_in_the_package(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(ltshadow, name)


def test_tracer_names_resolve():
    """Every function the bench tracer spans or counts, and every module it
    patches, exists under the name the tracer looks up."""
    tracing = _tracing()
    for module in tracing.MODULES:
        importlib.import_module(f"ltshadow.{module}")
    for module, attr in tracing.SPANNED + tracing.COUNTED:
        obj = importlib.import_module(f"ltshadow.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)
