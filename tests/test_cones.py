"""Cone oracles: verdicts, certificates, replay, and the inclusion chain."""

import dataclasses
import functools
import json
import math
import subprocess
import sys

import extremum_reference
import numpy as np
import pytest
from boxtimes_reference import line_maximum
from hypothesis import given, settings, strategies as st
from matrix_helpers import antisym_part, product_quadratic_value, random_ss_matrix
from nnls_reference import brute_force_nnls

from ltshadow import cli, cones
from ltshadow.blocks import grading_basis
from ltshadow.cones import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    FeasibilityParams,
    in_boxtimes_cone,
    in_max_cone,
    in_min_cone,
    in_positive_ss_cone,
    nnls,
    product_form_extremum,
    replay_boxtimes_member,
    replay_separating_functional,
    separable_certificate_error,
)
from ltshadow.errors import DimensionMismatch, SupportViolation
from ltshadow.linalg import kron, max_norm, min_eigenvalue, rng_from_seed
from ltshadow.shadow import local_shadow_matrix
from ltshadow.upb import separating_max_cone_form, upb_state
from ltshadow.verify import random_pure_state

PARAMS = FeasibilityParams(seed=101)
J = np.array([[0.0, -1.0], [1.0, 0.0]])


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def epr_shadow():
    return local_shadow_matrix(epr_projector(), (2, 2))


def random_product_projector(dims, seed):
    rng = rng_from_seed(seed)
    u = rng.standard_normal(dims[0]); u /= np.linalg.norm(u)
    v = rng.standard_normal(dims[1]); v /= np.linalg.norm(v)
    return kron(np.outer(u, u), np.outer(v, v)), u, v


# ---------------------------------------------------------------------------
# positive-in-ss cone
# ---------------------------------------------------------------------------


def test_positive_ss_rejects_epr_shadow_with_witness():
    res = in_positive_ss_cone(epr_shadow(), (2, 2))
    assert res.verdict == NON_MEMBER
    assert res.certificate["eigenvalue"] == pytest.approx(-0.25, abs=1e-12)
    v = res.certificate["witness_vector"]
    target = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    assert abs(abs(v @ target) - 1.0) <= 1e-10


def test_positive_ss_accepts_product():
    m, _, _ = random_product_projector((2, 2), 31)
    res = in_positive_ss_cone(m, (2, 2))
    assert res.verdict == MEMBER
    w = res.certificate["eigenvalues"]
    v = res.certificate["eigenvectors"]
    assert max_norm((v * w) @ v.T - m) <= 1e-12


def test_positive_ss_accepts_upb_state():
    res = in_positive_ss_cone(upb_state(), (3, 3))
    assert res.verdict == MEMBER


def test_positive_ss_support_check():
    with pytest.raises(SupportViolation):
        in_positive_ss_cone(epr_projector(), (2, 2))  # aa component present


# ---------------------------------------------------------------------------
# boxtimes cone
# ---------------------------------------------------------------------------


def test_boxtimes_epr_shadow_member_certificate_replays():
    w = epr_shadow()
    res = in_boxtimes_cone(w, (2, 2), PARAMS)
    assert res.verdict == MEMBER
    k = res.certificate["kernel_offset"]
    assert replay_boxtimes_member(w, (2, 2), k)
    # the completion is the EPR projector itself: K = -T x T
    t = antisym_part(np.outer([1.0, 0.0], [0.0, 1.0]))
    np.testing.assert_allclose(k, -kron(t, t), atol=1e-9)
    np.testing.assert_allclose(w + k, epr_projector(), atol=1e-9)


def test_boxtimes_product_member_zero_offset():
    m, _, _ = random_product_projector((2, 2), 32)
    res = in_boxtimes_cone(m, (2, 2), PARAMS)
    assert res.verdict == MEMBER
    assert max_norm(res.certificate["kernel_offset"]) <= 1e-8


def test_boxtimes_negative_trace_non_member():
    res = in_boxtimes_cone(-epr_shadow(), (2, 2), PARAMS)
    assert res.verdict == NON_MEMBER
    f = res.certificate["separating_functional"]
    ok, _, pairing = replay_separating_functional(-epr_shadow(), (2, 2), f)
    assert ok and pairing < 0


@pytest.mark.parametrize("dims,seed", [((2, 2), None), ((2, 3), 1), ((3, 3), 2)])
def test_boxtimes_tolerance_band(dims, seed):
    """A pure state's shadow M is on the boundary of the boxtimes cone
    (t* = 0), so M - tI has t* = -t.  At tol 1e-8 it is a member at t = 0, a
    non-member at t = 2e-8, and at t = 5e-9, inside the band [-tol, -tol/100),
    undecided once roundoff reaches the smallest eigenvalue of S, before the
    Newton-step cap."""
    if seed is None:
        m = epr_shadow()
    else:
        m = local_shadow_matrix(random_pure_state(math.prod(dims), rng_from_seed(seed)), dims)
    eye = np.eye(len(m))
    res = in_boxtimes_cone(m, dims, PARAMS)
    assert res.verdict == MEMBER
    assert replay_boxtimes_member(m, dims, res.certificate["kernel_offset"])
    res = in_boxtimes_cone(m - 5e-9 * eye, dims, PARAMS)
    assert (res.verdict, res.certificate) == (UNDECIDED, None)
    assert res.iterations < cones.BOXTIMES_NEWTON_STEPS
    assert res.residual == pytest.approx(5e-9, rel=1e-6)
    outside = m - 2e-8 * eye
    res = in_boxtimes_cone(outside, dims, PARAMS)
    assert res.verdict == NON_MEMBER
    assert replay_separating_functional(outside, dims,
                                        res.certificate["separating_functional"])[0]


def test_boxtimes_methods_agree_on_random_ss():
    """Barrier verdicts match the exact 1-D search at (2, 2)."""
    n_checked = 0
    for k in range(60):
        rng = rng_from_seed(33, k)
        m = random_ss_matrix(2, 2, rng)
        if rng.random() < 0.5:
            m = m + float(np.abs(rng.standard_normal())) * 1.5 * np.eye(4)
        f_star = line_maximum(m)
        res = in_boxtimes_cone(m, (2, 2), PARAMS)
        if res.verdict == UNDECIDED:
            # only allowed in the tolerance band around the boundary
            assert abs(f_star) <= 2 * PARAMS.tol
            continue
        assert res.verdict == (MEMBER if f_star >= -PARAMS.tol else NON_MEMBER)
        if res.verdict == MEMBER:
            assert replay_boxtimes_member(m, (2, 2), res.certificate["kernel_offset"])
        else:
            ok, _, _ = replay_separating_functional(
                m, (2, 2), res.certificate["separating_functional"]
            )
            assert ok
        n_checked += 1
    assert n_checked >= 55


def test_boxtimes_projection_at_2_3():
    rng = rng_from_seed(34)
    # shadow of a random state is always a member, with the definitional offset
    from ltshadow.linalg import random_density

    w = random_density(6, rng)
    shadow = local_shadow_matrix(w, (2, 3))
    res = in_boxtimes_cone(shadow, (2, 3), PARAMS)
    assert res.verdict == MEMBER
    assert replay_boxtimes_member(shadow, (2, 3), res.certificate["kernel_offset"])
    # a squashed direction: negative-definite ss matrix cannot be completed
    res2 = in_boxtimes_cone(-shadow, (2, 3), PARAMS)
    assert res2.verdict == NON_MEMBER


def test_boxtimes_kernel_free_dims():
    m, _, _ = random_product_projector((1, 3), 35)
    res = in_boxtimes_cone(m, (1, 3), PARAMS)
    assert res.verdict == MEMBER
    assert max_norm(res.certificate["kernel_offset"]) == 0.0


@pytest.mark.parametrize("dims,rank", [((2, 3), r) for r in range(2, 6)]
                         + [((3, 3), r) for r in range(2, 9)])
def test_boxtimes_decides_middle_rank_shadows(dims, rank, eigensolve_log):
    """Shadows of Wishart states of middle rank are members with a replaying
    offset, decided within a fixed eigensolve budget."""
    d = dims[0] * dims[1]
    a = rng_from_seed(36, d, rank).standard_normal((d, rank))
    m = local_shadow_matrix(a @ a.T / np.trace(a @ a.T), dims)
    eigensolve_log.clear()
    res = in_boxtimes_cone(m, dims, PARAMS)
    assert len(eigensolve_log) <= 150
    assert res.verdict == MEMBER
    assert replay_boxtimes_member(m, dims, res.certificate["kernel_offset"])


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2)])
def test_boxtimes_decides_shadows_of_more_factors(dims, eigensolve_log):
    """The barrier takes the kernel rows of the grading basis at any factor
    count: a rank-1 state's shadow is not PSD and is a member with a
    replaying offset; subtracting a product projector F past <F, M> gives a
    non-member whose functional replays."""
    d = math.prod(dims)
    rng = rng_from_seed(37, d)
    a = rng.standard_normal(d)
    m = local_shadow_matrix(np.outer(a, a) / (a @ a), dims)
    assert min_eigenvalue(m) < -1e-3
    eigensolve_log.clear()
    res = in_boxtimes_cone(m, dims, PARAMS)
    assert len(eigensolve_log) <= 150
    assert res.verdict == MEMBER
    assert replay_boxtimes_member(m, dims, res.certificate["kernel_offset"])
    x = functools.reduce(np.kron, [rng.standard_normal(n) for n in dims])
    f = np.outer(x, x) / (x @ x)  # a unit product projector: <F, F> = 1
    outside = m - (float(np.sum(f * m)) + 1e-3) * f  # <F, outside> = -1e-3
    res = in_boxtimes_cone(outside, dims, PARAMS)
    assert res.verdict == NON_MEMBER
    assert replay_separating_functional(outside, dims,
                                        res.certificate["separating_functional"])[0]


@pytest.mark.parametrize("c", [1e-2, 1e-3, 1e-4, 1e-5])
def test_boxtimes_separating_functional_scales_linearly(c):
    """The separating functional has unit trace, so its pairing with c*M is
    c times the pairing with M and replays far below c = sqrt(tol)."""
    r = random_ss_matrix(2, 2, rng_from_seed(0))
    m = r + (-0.05 - min_eigenvalue(r)) * np.eye(4)
    res = in_boxtimes_cone(c * m, (2, 2), FeasibilityParams(seed=0))
    assert res.verdict == NON_MEMBER
    f = res.certificate["separating_functional"]
    assert abs(np.trace(f) - 1.0) <= 1e-12
    # the best kernel offset of m has lambda_min -9.44e-3
    assert res.certificate["pairing"] == pytest.approx(-9.44e-3 * c, rel=1e-3)
    ok, _, _ = replay_separating_functional(c * m, (2, 2), f)
    assert ok


def member_certificate(dims, seed):
    """A rank-1 state's shadow and its boxtimes kernel offset."""
    if dims == (2, 2):
        m = epr_shadow()
    else:
        a = rng_from_seed(seed, math.prod(dims)).standard_normal(math.prod(dims))
        m = local_shadow_matrix(np.outer(a, a) / (a @ a), dims)
    res = in_boxtimes_cone(m, dims, PARAMS)
    assert res.verdict == MEMBER
    return m, res.certificate["kernel_offset"]


@pytest.mark.parametrize("dims,odd", [((2, 2), "sa"), ((2, 3), "sa"), ((2, 2, 2), "ssa")])
@pytest.mark.parametrize("direction", ["identity", "odd"])
def test_replay_refuses_offset_off_the_kernel(dims, odd, direction):
    """An offset pushed 1e-6 along the identity (shadow) or an antisymmetric
    basis element leaves the kernel.  M + K stays PSD, so only the kernel test
    can refuse it."""
    m, k = member_certificate(dims, 38)
    assert replay_boxtimes_member(m, dims, k)
    d = math.prod(dims)
    step = np.eye(d) if direction == "identity" else grading_basis(dims).block(odd)[0]
    moved = k + 1e-6 * step
    assert min_eigenvalue(m + moved) >= -1e-8
    assert not replay_boxtimes_member(m, dims, moved)


def test_replay_projects_functional_onto_the_shadow():
    """A PSD f pairing to -1/4 with the EPR shadow does not separate it: the
    shadow is a member, and the projected fh has lambda_min = -1/4."""
    v = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    f = np.outer(v, v)
    assert min_eigenvalue(f) >= -1e-15
    assert np.sum(f * epr_shadow()) == pytest.approx(-0.25)
    ok, fh, pairing = replay_separating_functional(epr_shadow(), (2, 2), f)
    assert not ok
    assert pairing == pytest.approx(-0.25) and min_eigenvalue(fh) == pytest.approx(-0.25)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_replays_do_not_use_the_grading_basis(dims, monkeypatch):
    """Both replays keep their verdicts, on certificates of a member and of a
    non-member, when the solver's basis is out of reach."""
    m, k = member_certificate(dims, 39)
    x = functools.reduce(np.kron, [rng_from_seed(39, n).standard_normal(n) for n in dims])
    p = np.outer(x, x) / (x @ x)  # a unit product projector, orthogonal to K
    outside = m - (float(np.sum(p * m)) + 1e-3) * p
    res = in_boxtimes_cone(outside, dims, PARAMS)
    assert res.verdict == NON_MEMBER
    f = res.certificate["separating_functional"]

    def verdicts():
        return [replay_boxtimes_member(m, dims, k), replay_boxtimes_member(outside, dims, k),
                replay_separating_functional(outside, dims, f)[0],
                replay_separating_functional(m, dims, f)[0]]

    assert verdicts() == [True, False, True, False]
    monkeypatch.setattr(cones, "grading_basis", lambda *args: pytest.fail("basis built"))
    assert verdicts() == [True, False, True, False]


def test_replays_at_9_9_stay_small():
    """A cold member replay and functional replay at (9, 9) allocate under 5 MB
    (the dense 6561 x 6561 grading basis alone is 344 MB)."""
    code = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "from ltshadow.cones import replay_boxtimes_member, replay_separating_functional\n"
        "from ltshadow.linalg import rng_from_seed\n"
        "from ltshadow.shadow import local_shadow_matrix\n"
        "a = rng_from_seed(40).standard_normal(81)\n"
        "w = np.outer(a, a) / (a @ a)\n"
        "m = local_shadow_matrix(w, (9, 9))\n"
        "tracemalloc.start()\n"
        "member = replay_boxtimes_member(m, (9, 9), w - m)\n"
        "outside = replay_separating_functional(-m, (9, 9), np.eye(81))[0]\n"
        "print(member, outside, tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    member, outside, peak = proc.stdout.split()
    assert (member, outside) == ("True", "True")
    assert int(peak) < 5 * 2**20


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0, True])
def test_feasibility_params_refuse_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        FeasibilityParams(seed=0, tol=tol)


def test_feasibility_params_are_the_seed_and_the_tolerance():
    """The restart counts are the engine's constants, not fields; the seed
    and the tolerance are stored as their rules return them."""
    assert [f.name for f in dataclasses.fields(FeasibilityParams)] == ["seed", "tol"]
    with pytest.raises(TypeError):
        FeasibilityParams(seed=0, restarts=8)
    params = FeasibilityParams(seed=np.int64(7), tol=np.float64(1e-6))
    assert type(params.seed) is int and params.seed == 7
    assert type(params.tol) is float and params.tol == 1e-6


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0, True])
def test_psd_ss_refuses_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        in_positive_ss_cone(-np.eye(4), (2, 2), tol=tol)


# ---------------------------------------------------------------------------
# product-form search
# ---------------------------------------------------------------------------


def assert_same_extremum(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def random_symmetric_form(dims, seed):
    d = dims[0] * dims[1]
    a = rng_from_seed(seed, *dims).standard_normal((d, d))
    return a + a.T


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (6, 6), (9, 9)])
def test_product_form_extremum_matches_serial_reference(dims):
    """Stepping the restarts together changes no bit of the result, also at
    the factor sizes of the map-positivity search on Choi matrices."""
    d = dims[0] * dims[1]
    rng = rng_from_seed(38, *dims)
    for trial in range(4 if d <= 16 else 2):
        a = rng.standard_normal((d, d))
        m = a + a.T
        for minimize in (True, False):
            for restarts in (1, 4, 32):
                assert_same_extremum(
                    product_form_extremum(m, dims, trial, restarts, minimize=minimize),
                    extremum_reference.product_form_extremum(m, dims, trial, restarts,
                                                             minimize=minimize))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4), (9, 9)])
def test_product_form_half_step_stop_keeps_the_full_sweep_value(dims):
    """Retiring a restart at its first stalled half-step gives the value
    of the earlier rule, which waited for a full sweep that did not move it,
    to within 1e-12 (1 + |v|)."""
    d = dims[0] * dims[1]
    for seed in range(4 if d <= 16 else 2):
        m = random_symmetric_form(dims, 100 + seed)
        for minimize in (True, False):
            v = product_form_extremum(m, dims, seed, minimize=minimize)[0]
            old = extremum_reference.product_form_extremum(
                m, dims, seed, cones.PRODUCT_FORM_RESTARTS, minimize=minimize,
                full_sweeps=True)[0]
            assert abs(v - old) <= 1e-12 * (1 + abs(old))


@pytest.mark.parametrize("dims", [(2, 3), (4, 4), (9, 9)])
def test_product_form_extremum_starts_are_prefix_stable(dims):
    """Restart k's start does not depend on the number of restarts: with 4
    restarts the engine runs the first 4 starts of 32."""
    m = random_symmetric_form(dims, 39)
    for minimize in (True, False):
        restarts = extremum_reference.restart_results(m, dims, 3, 32, minimize)[:4]
        values = [r[0] for r in restarts]
        best = int(np.argmin(values) if minimize else np.argmax(values))
        got = product_form_extremum(m, dims, 3, 4, minimize=minimize)
        assert_same_extremum(got, restarts[best])


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (9, 9)])
def test_product_form_extremum_value_is_q_of_its_pair(dims):
    """The returned value is q(x, y) of the returned pair, as a replay of the
    max-cone certificate's min_quadratic recomputes it."""
    m = random_symmetric_form(dims, 40)
    for minimize in (True, False):
        v, x, y = product_form_extremum(m, dims, PARAMS.seed, minimize=minimize)
        assert abs(v - product_quadratic_value(m, dims, x, y)) <= 1e-12 * (1 + abs(v))


def test_product_form_extremum_ties_go_to_restart_zero():
    """Equal values go to the lowest restart index.  On M = I every restart
    ends on the same pair; on diag(1, 2, 2, 1) the restarts split between
    two pairs of equal value, 1 for the minimum and 2 for the maximum."""
    for m, dims in ((np.eye(6), (2, 3)), (np.diag([1.0, 2.0, 2.0, 1.0]), (2, 2))):
        for minimize in (True, False):
            restarts = extremum_reference.restart_results(m, dims, 5, 8, minimize)
            assert len({r[0] for r in restarts}) == 1
            got = product_form_extremum(m, dims, 5, 8, minimize=minimize)
            assert_same_extremum(got, restarts[0])
            if m.shape == (4, 4):
                assert any(not np.array_equal(r[1], got[1]) for r in restarts[1:])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_bounded_product_form_extremum_crosses_its_bound_with_the_full_search(dims):
    """A bounded search returns a value past its bound exactly when the full
    search's value is past it; a value not past it is the full search's,
    bit for bit, and a value past it is q of the returned pair."""
    for seed in range(4):
        m = random_symmetric_form(dims, 200 + seed)
        for minimize in (True, False):
            full = product_form_extremum(m, dims, seed, minimize=minimize)
            v = full[0]
            gap = 1e-9 * (1 + abs(v))
            for bound in (v - 1.0, v - 0.1, v - gap, v + gap, v + 0.1, v + 1.0):
                got = product_form_extremum(m, dims, seed, minimize=minimize, bound=bound)
                past = got[0] < bound if minimize else got[0] >= bound
                assert past == (v < bound if minimize else v >= bound)
                if past:
                    q = product_quadratic_value(m, dims, got[1], got[2])
                    assert abs(got[0] - q) <= 1e-12 * (1 + abs(q))
                else:
                    assert_same_extremum(got, full)


def test_bounded_product_form_extremum_stops_at_the_first_half_step_past_it(eigensolve_log):
    """With a bound that the first half-step already crosses, the search
    makes one stacked eigensolve; without it, it runs to its stall."""
    m = random_symmetric_form((3, 3), 210)
    v = product_form_extremum(m, (3, 3), PARAMS.seed)[0]
    eigensolve_log.clear()
    product_form_extremum(m, (3, 3), PARAMS.seed, bound=v + 1e3)
    assert eigensolve_log == [("eigh", cones.PRODUCT_FORM_RESTARTS)]
    eigensolve_log.clear()
    product_form_extremum(m, (3, 3), PARAMS.seed)
    assert len(eigensolve_log) > 2


def test_only_verdict_searches_bound_the_product_form_search(monkeypatch):
    """The UPB margin and the pursuit atoms report the search's best value,
    so they pass no bound; the max cone, the positivity check and the range
    criterion pass the bound their verdict compares with."""
    from ltshadow import processes, upb

    calls = []

    def recorded(*args, bound=None, stream=cones._STREAM_MAX_CONE, **kwargs):
        calls.append((stream, bound))
        return product_form_extremum(*args, stream=stream, bound=bound, **kwargs)

    for module in (cones, processes, upb):
        monkeypatch.setattr(module, "product_form_extremum", recorded)

    in_max_cone(epr_shadow(), (2, 2), PARAMS)
    assert calls == [(cones._STREAM_MAX_CONE, -PARAMS.tol)]
    calls.clear()
    upb.unextendibility_margin(seed=0)
    assert calls == [(upb._STREAM_MARGIN, None)]
    calls.clear()
    m, _, _ = random_product_projector((2, 3), 43)
    assert in_min_cone(m, (2, 3), PARAMS).verdict == MEMBER
    range_calls = [b for s, b in calls if s == cones._STREAM_MIN_RANGE]
    assert range_calls == [1.0 - cones.RANGE_CRITERION_DELTA]
    atoms = [b for s, b in calls if s != cones._STREAM_MIN_RANGE]
    assert atoms and all(b is None for b in atoms)
    calls.clear()
    processes.is_positive_map_heuristic(processes.identity_process((2, 2)), PARAMS)
    assert calls == [(processes._STREAM_POSITIVITY, -PARAMS.tol)]


# ---------------------------------------------------------------------------
# max cone
# ---------------------------------------------------------------------------


def test_max_cone_accepts_epr_shadow():
    res = in_max_cone(epr_shadow(), (2, 2), PARAMS)
    assert res.verdict == MEMBER
    assert res.certificate["heuristic"] is True
    assert res.certificate["min_quadratic"] >= -PARAMS.tol


def test_max_cone_rejects_negative_product(eigensolve_log):
    """-F for a unit product projector F = uu^T o vv^T: the full search finds
    the pair (u, v) itself; the oracle stops at its first half-step, whose
    best pair already certifies q < -tol."""
    m, u, v = random_product_projector((2, 2), 36)
    _, x, y = product_form_extremum(-m, (2, 2), PARAMS.seed)
    assert abs(abs(x @ u) - 1.0) <= 1e-6 and abs(abs(y @ v) - 1.0) <= 1e-6
    eigensolve_log.clear()
    res = in_max_cone(-m, (2, 2), PARAMS)
    assert eigensolve_log == [("eigh", cones.PRODUCT_FORM_RESTARTS)]
    assert res.verdict == NON_MEMBER
    x, y = res.certificate["witness_x"], res.certificate["witness_y"]
    q = product_quadratic_value(-m, (2, 2), x, y)
    assert q < -PARAMS.tol
    assert abs(q - res.certificate["quadratic_value"]) <= 1e-12 * (1 + abs(q))


def test_max_cone_heuristic_matches_grid():
    """Dense product-grid minimum vs the full alternating search at (2, 2);
    the oracle's verdict is the grid's, and a member's min_quadratic is the
    grid minimum."""
    thetas = np.linspace(0.0, np.pi, 181)
    cs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for k in range(5):
        rng = rng_from_seed(37, k)
        m = random_ss_matrix(2, 2, rng)
        m4 = m.reshape(2, 2, 2, 2)
        t1 = np.einsum("ijkl,ai,ak->ajl", m4, cs, cs)
        grid = np.einsum("ajl,bj,bl->ab", t1, cs, cs)
        grid_min = float(grid.min())
        found = product_form_extremum(m, (2, 2), PARAMS.seed)[0]
        assert found <= grid_min + 1e-3
        assert abs(found - grid_min) <= 1e-3
        res = in_max_cone(m, (2, 2), PARAMS)
        assert (res.verdict == NON_MEMBER) == (grid_min < -PARAMS.tol)
        if res.verdict == MEMBER:
            assert abs(res.certificate["min_quadratic"] - grid_min) <= 1e-3


def max_cone_inputs():
    """Shadows of rank-1 and of full-rank states, each shadow s less
    (<F, s> + delta) F for a unit product projector F (so q = -delta at F's
    pair), and the tiles form in the maximal cone, with their dims."""
    inputs = []
    for k, dims in enumerate(((2, 2), (2, 3), (3, 3))):
        rng = rng_from_seed(47, k)
        d = dims[0] * dims[1]
        for rank in (1, d):
            a = rng.standard_normal((d, rank))
            s = local_shadow_matrix(a @ a.T / np.trace(a @ a.T), dims)
            inputs.append((s, dims))
            for delta in (1e-6, 1e-3, 0.05):
                f = random_product_projector(dims, int(rng.integers(2**31)))[0]
                inputs.append((s - (float(np.sum(f * s)) + delta) * f, dims))
    inputs.append((separating_max_cone_form(seed=0)[0], (3, 3)))
    return inputs


def test_max_cone_is_the_same_with_and_without_the_bound(monkeypatch):
    """A member's search never crosses -tol, so all its outputs keep their
    bits; a non-member keeps its verdict, and its first certified witness
    replays and is no deeper than the full search's."""
    search = cones.product_form_extremum
    for m, dims in max_cone_inputs():
        monkeypatch.setattr(cones, "product_form_extremum", search)
        got = in_max_cone(m, dims, PARAMS)
        monkeypatch.setattr(cones, "product_form_extremum",
                            extremum_reference.unbounded(search))
        want = in_max_cone(m, dims, PARAMS)
        assert got.verdict == want.verdict
        if got.verdict == MEMBER:
            assert (got.iterations, got.residual) == (want.iterations, want.residual)
            assert_same_certificate(got.certificate, want.certificate)
            continue
        x, y = got.certificate["witness_x"], got.certificate["witness_y"]
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12 and abs(np.linalg.norm(y) - 1.0) <= 1e-12
        q = product_quadratic_value(m, dims, x, y)
        assert q < -PARAMS.tol
        assert abs(q - got.certificate["quadratic_value"]) <= 1e-12 * (1 + abs(q))
        assert got.residual <= want.residual


# ---------------------------------------------------------------------------
# min cone
# ---------------------------------------------------------------------------


def test_min_cone_product_one_term():
    m, u, v = random_product_projector((2, 2), 38)
    res = in_min_cone(m, (2, 2), PARAMS)
    assert res.verdict == MEMBER
    cert = res.certificate
    assert len(cert["weights"]) >= 1
    err = separable_certificate_error(m, (2, 2), cert["weights"],
                                      cert["vectors_a"], cert["vectors_b"])
    assert err <= PARAMS.tol
    assert all(w >= 0 for w in cert["weights"])


def test_min_cone_two_term_mixture():
    px, py = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    m = 0.5 * (kron(px, py) + kron(py, px))
    res = in_min_cone(m, (2, 2), PARAMS)
    assert res.verdict == MEMBER
    cert = res.certificate
    err = separable_certificate_error(m, (2, 2), cert["weights"],
                                      cert["vectors_a"], cert["vectors_b"])
    assert err <= PARAMS.tol


def test_min_cone_rejects_non_psd():
    res = in_min_cone(epr_shadow(), (2, 2), PARAMS)
    assert res.verdict == NON_MEMBER
    assert res.certificate["criterion"] == "not_psd"


def test_min_cone_upb_state_range_criterion():
    res = in_min_cone(upb_state(), (3, 3), PARAMS)
    assert res.verdict == NON_MEMBER
    cert = res.certificate
    assert cert["criterion"] == "range"
    assert cert["max_product_overlap"] < 0.99


def test_min_cone_entangled_pure_state():
    res = in_min_cone(local_shadow_matrix(epr_projector(), (2, 2)), (2, 2), PARAMS)
    assert res.verdict == NON_MEMBER  # not PSD


def test_min_cone_maximally_mixed_is_separable():
    res = in_min_cone(np.eye(4) / 4, (2, 2), PARAMS)
    assert res.verdict == MEMBER


def nnls_stall_mixture():
    """Three-atom separable (2,2) mixture on which the NNLS refit of the
    matching pursuit reaches its iteration cap (at 36 atoms with seed 0)."""
    rng = np.random.default_rng(5)
    m = np.zeros((4, 4))
    for _ in range(3):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(2)
        y /= np.linalg.norm(y)
        m += rng.uniform(0.2, 1) * np.kron(np.outer(x, x), np.outer(y, y))
    return m / np.trace(m)


def test_min_cone_nnls_failure_is_undecided(tmp_path, capsys):
    m = nnls_stall_mixture()
    res = in_min_cone(m, (2, 2), FeasibilityParams(seed=0))
    assert res.verdict == UNDECIDED
    assert np.isfinite(res.residual) and res.iterations >= 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dims": [2, 2], "rows": m.tolist()}))
    code = cli.main(["cone", "--cone", "min", "--seed", "0", "-i", str(path)])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["verdict"] == UNDECIDED


def test_min_cone_decomposes_m_once(eigensolve_log, monkeypatch):
    """One eigensolve of M serves the positivity test and the range
    criterion; every other eigensolve belongs to the product-form search."""
    searched = {"n": 0}
    search = cones.product_form_extremum

    def counted_search(*args, **kwargs):
        before = len(eigensolve_log)
        out = search(*args, **kwargs)
        searched["n"] += len(eigensolve_log) - before
        return out

    monkeypatch.setattr(cones, "product_form_extremum", counted_search)
    for m, dims, criterion in ((epr_shadow(), (2, 2), "not_psd"),
                               (upb_state(), (3, 3), "range")):
        eigensolve_log.clear()
        searched["n"] = 0
        res = in_min_cone(m, dims, PARAMS)
        assert res.verdict == NON_MEMBER
        assert res.certificate["criterion"] == criterion
        assert len(eigensolve_log) - searched["n"] == 1


def min_cone_inputs():
    """Product projectors, 2-atom mixtures, rank-deficient mixtures of 3 and
    of D - 1 product projectors, and the tiles UPB state, with their dims."""
    inputs = []
    for k, dims in enumerate(((2, 2), (2, 3), (3, 3))):
        rng = rng_from_seed(44, k)
        d = dims[0] * dims[1]
        for atoms in sorted({1, 2, 3, d - 1}):
            m = sum(rng.uniform(0.2, 1.0) * random_product_projector(dims, seed)[0]
                    for seed in rng.integers(2**31, size=atoms))
            inputs.append((m / np.trace(m), dims))
    inputs.append((upb_state(), (3, 3)))
    return inputs


def assert_same_certificate(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key], want[key]), key


def test_min_cone_is_the_same_with_and_without_the_range_bound(monkeypatch):
    """The range criterion's bound only stops a search that cannot fire, so
    every output of the min oracle keeps its bits."""
    search = cones.product_form_extremum
    for m, dims in min_cone_inputs():
        monkeypatch.setattr(cones, "product_form_extremum", search)
        got = in_min_cone(m, dims, PARAMS)
        monkeypatch.setattr(cones, "product_form_extremum",
                            extremum_reference.unbounded(search))
        want = in_min_cone(m, dims, PARAMS)
        assert (got.verdict, got.iterations, got.residual) == \
            (want.verdict, want.iterations, want.residual)
        assert_same_certificate(got.certificate, want.certificate)


@pytest.mark.parametrize("dims, calls, matrices", [((2, 2), 5, 57), ((2, 3), 6, 89),
                                                   ((3, 3), 6, 89)])
def test_min_cone_eigensolves_on_a_product_projector(dims, calls, matrices, eigensolve_log):
    """One eigh of M; the range search stops once a product vector reaches
    the bound, one half-step at (2,2) and two above (32 matrices each); then
    one atom of PURSUIT_RESTARTS = 8, stalled at its third half-step."""
    m, _, _ = random_product_projector(dims, 45)
    eigensolve_log.clear()
    assert in_min_cone(m, dims, PARAMS).verdict == MEMBER
    assert {name for name, _ in eigensolve_log} == {"eigh"}
    assert (len(eigensolve_log), sum(n for _, n in eigensolve_log)) == (calls, matrices)


def test_min_cone_refit_at_its_cap_is_undecided(monkeypatch):
    monkeypatch.setattr(cones, "NNLS_SOLVES_PER_COLUMN", 0)
    m, _, _ = random_product_projector((2, 3), 42)
    res = in_min_cone(m, (2, 3), PARAMS)
    assert res.verdict == UNDECIDED and res.certificate is None
    assert res.iterations == 1
    assert res.residual == pytest.approx(np.linalg.norm(m), abs=1e-15)


# ---------------------------------------------------------------------------
# nonnegative least squares (the min-cone refit)
# ---------------------------------------------------------------------------

NNLS_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def product_columns(dims, n, rng):
    """n unit product projectors kron(xx^T, yy^T), flattened as columns."""
    cols = []
    for _ in range(n):
        x = rng.standard_normal(dims[0]); x /= np.linalg.norm(x)
        y = rng.standard_normal(dims[1]); y /= np.linalg.norm(y)
        cols.append(kron(np.outer(x, x), np.outer(y, y)).ravel())
    return np.stack(cols, axis=1)


@NNLS_PROPERTY
@given(kind=st.sampled_from(["gaussian", "product"]), rows=st.integers(1, 81),
       dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), n=st.integers(1, 50),
       seed=st.integers(0, 2**32 - 1), sparse=st.booleans())
def test_nnls_meets_kkt_conditions(kind, rows, dims, n, seed, sparse):
    """Up to the pursuit's size (81 x 50): w >= 0, the gradient
    a^T (b - a w) is <= tol where w = 0 and ~ 0 where w > 0."""
    rng = rng_from_seed(seed)
    if kind == "gaussian":
        a = rng.standard_normal((rows, n))
    else:
        a = product_columns(dims, n, rng)
    if sparse:  # a few atoms plus noise, as in a pursuit's refit
        weights = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.3)
        b = a @ weights + 1e-3 * rng.standard_normal(a.shape[0])
    else:
        b = rng.standard_normal(a.shape[0])
    w, residual, ok = nnls(a, b)
    assert ok
    assert np.all(w >= 0)
    assert residual == pytest.approx(np.linalg.norm(a @ w - b), rel=1e-12, abs=1e-14)
    grad = a.T @ (b - a @ w)
    tol = 1e-11 * np.linalg.norm(a, 2) * np.linalg.norm(b)
    assert np.all(grad[w == 0] <= tol)
    assert np.all(np.abs(grad[w > 0]) <= tol)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_nnls_recovers_a_nonnegative_product_combination(dims):
    rng = rng_from_seed(43, *dims)
    a = product_columns(dims, 5, rng)
    weights = rng.uniform(0.2, 1.0, 5)
    weights[1] = 0.0
    w, residual, ok = nnls(a, a @ weights)
    assert ok
    np.testing.assert_allclose(w, weights, rtol=0, atol=1e-10)
    assert w[1] == 0.0
    assert residual <= 1e-12


def test_nnls_gives_zero_weights_without_a_positive_component():
    rng = rng_from_seed(44)
    a = product_columns((3, 3), 6, rng)
    for b in (np.zeros(81), -(a @ rng.uniform(0.2, 1.0, 6))):
        # Product projectors have a nonnegative Gram matrix, so a^T b <= 0.
        assert np.all(a.T @ b <= 0)
        w, residual, ok = nnls(a, b)
        assert ok
        assert np.array_equal(w, np.zeros(6))
        assert residual == pytest.approx(np.linalg.norm(b), rel=1e-15)


def test_nnls_reports_its_cap(monkeypatch):
    rng = rng_from_seed(45)
    a = rng.standard_normal((20, 8))
    b = rng.standard_normal(20)
    assert nnls(a, b)[2]
    monkeypatch.setattr(cones, "NNLS_SOLVES_PER_COLUMN", 0)
    w, residual, ok = nnls(a, b)
    assert not ok
    assert np.array_equal(w, np.zeros(8))
    assert residual == pytest.approx(np.linalg.norm(b), rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_nnls_matches_brute_force_over_every_active_set(n):
    for k in range(20):
        rng = rng_from_seed(46, n, k)
        a = rng.standard_normal((n + 4, n)) if k % 2 else product_columns((2, 3), n, rng)
        b = rng.standard_normal(a.shape[0])
        ref_w, ref_r = brute_force_nnls(a, b)
        w, residual, ok = nnls(a, b)
        assert ok
        np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-10)
        assert abs(residual - ref_r) <= 1e-10


# ---------------------------------------------------------------------------
# effect cone
# ---------------------------------------------------------------------------


def test_effect_cone_unit_effect():
    assert in_positive_ss_cone(np.eye(4), (2, 2)).verdict == MEMBER


def test_effect_cone_upb_state_is_entangled_effect():
    res = in_positive_ss_cone(upb_state(), (3, 3))
    assert res.verdict == MEMBER


def test_effect_cone_rejects_epr_shadow():
    res = in_positive_ss_cone(epr_shadow(), (2, 2))
    assert res.verdict == NON_MEMBER
    v = res.certificate["witness_vector"]
    assert v @ epr_shadow() @ v < 0


# ---------------------------------------------------------------------------
# chain audit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_inclusion_chain(dims):
    """min members are positive_ss members are boxtimes members are max members."""
    d = dims[0] * dims[1]
    for k in range(8):
        rng = rng_from_seed(39, d, k)
        # separable mixture: inside every cone
        m = np.zeros((d, d))
        for _ in range(3):
            u = rng.standard_normal(dims[0]); u /= np.linalg.norm(u)
            v = rng.standard_normal(dims[1]); v /= np.linalg.norm(v)
            m += rng.uniform(0.2, 1.0) * kron(np.outer(u, u), np.outer(v, v))
        m /= np.trace(m)
        assert in_positive_ss_cone(m, dims).verdict == MEMBER
        box = in_boxtimes_cone(m, dims, PARAMS)
        assert box.verdict == MEMBER
        assert in_max_cone(m, dims, PARAMS).verdict == MEMBER


def test_psd_members_are_boxtimes_members_with_zero_offset():
    for k in range(10):
        rng = rng_from_seed(40, k)
        m = random_ss_matrix(2, 2, rng)
        m = m + (abs(min_eigenvalue(m)) + 0.1) * np.eye(4)  # force PSD
        res = in_boxtimes_cone(m, (2, 2), PARAMS)
        assert res.verdict == MEMBER
        assert max_norm(res.certificate["kernel_offset"]) <= 1e-7


def test_boxtimes_members_pass_max_heuristic():
    for k in range(10):
        rng = rng_from_seed(41, k)
        m = random_ss_matrix(2, 2, rng) + 0.5 * np.eye(4)
        box = in_boxtimes_cone(m, (2, 2), PARAMS)
        if box.verdict == MEMBER:
            assert in_max_cone(m, (2, 2), PARAMS).verdict == MEMBER


@pytest.mark.parametrize("call", [
    lambda m: product_quadratic_value(m, (2, 2), np.ones(2), np.ones(2)),
    lambda m: product_form_extremum(m, (2, 2), 0),
    lambda m: separable_certificate_error(m, (2, 2), [1.0], [np.ones(2)], [np.ones(2)]),
])
@pytest.mark.parametrize("m", [np.eye(6), np.eye(4)[:, :2], np.zeros((2, 4, 4))])
def test_product_form_helpers_take_the_shape_rule(call, m):
    with pytest.raises(DimensionMismatch):
        call(m)
