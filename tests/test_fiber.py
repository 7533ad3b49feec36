"""Fiber sampling and the apparent non-determinism of non-local maps."""

import math
import tracemalloc

import fiber_reference
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matrix_helpers import aa_projection, process_from_function, trace_norm

from ltshadow import fiber
from ltshadow.blocks import grading_basis
from ltshadow.cones import FeasibilityParams
from ltshadow.errors import DimensionMismatch, InfeasibleShadow
from ltshadow.fiber import (
    EIG_FLOOR,
    SPREAD_ZERO_TOL,
    VALIDATION_BLOCK,
    FiberSample,
    _chord_step,
    _congruence_factor,
    _valid_representatives,
    push_and_spread,
    sample_fiber,
    sample_fibers,
)
from ltshadow.linalg import (
    eigh,
    eigvalsh,
    kron,
    max_norm,
    min_eigenvalue,
    random_density,
    rng_from_seed,
    trace_inner,
)
from ltshadow.processes import (
    LinearProcess,
    identity_process,
    random_kernel_leaking_process,
    random_locally_positive_process,
    is_locally_positive,
)
from ltshadow.shadow import ShadowState, local_shadow_matrix, lt_state

PARAMS = FeasibilityParams(seed=401)


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def demo_state():
    """Interior mixture of the real EPR state: its fiber is a 1-D segment."""
    return 0.5 * epr_projector() + 0.5 * np.eye(4) / 4


def non_positive_kernel_map():
    """X -> X + <K, X> I / 2: not positive, so some images of the (2, 2)
    demo fiber are excluded and the rest spread."""
    kernel = grading_basis((2, 2)).block("aa")[0]
    return process_from_function(lambda e: e + 0.5 * trace_inner(kernel, e) * np.eye(4),
                                 (2, 2), (2, 2))


def bare_shadow(w, dims):
    """Shadow without a kernel part (forces the oracle start)."""
    return ShadowState(op=local_shadow_matrix(w, dims), dims=dims)


def test_sample_fiber_mixed_state_moves_in_kernel():
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=50, seed=5)
    assert sample.kernel_dim == 1
    assert sample.n_accepted >= 40
    coeffs = [float(np.sum(rep * aa_projection(rep, (2, 2))))
              for rep in sample.representatives]
    # representatives genuinely differ in the kernel direction
    assert np.ptp([np.sign(c) * np.sqrt(abs(c)) for c in coeffs]) > 0.05
    shadow = lt_state(demo_state(), (2, 2)).op
    for rep in sample.representatives:
        assert min_eigenvalue(rep) >= -1e-9
        assert abs(np.trace(rep) - 1.0) <= 1e-9
        assert max_norm(local_shadow_matrix(rep, (2, 2)) - shadow) <= 1e-8


def test_sample_fiber_pure_product_state_is_rigid():
    rng = rng_from_seed(70)
    u = rng.standard_normal(2); u /= np.linalg.norm(u)
    v = rng.standard_normal(2); v /= np.linalg.norm(v)
    pure = kron(np.outer(u, u), np.outer(v, v))
    sample = sample_fiber(bare_shadow(pure, (2, 2)), n=20, seed=6)
    for rep in sample.representatives:
        assert trace_norm(rep - pure) <= 1e-7


def test_sample_fiber_kernel_free_dims_single_point():
    rng = rng_from_seed(71)
    v = rng.standard_normal(3); v /= np.linalg.norm(v)
    state = kron(np.eye(1), np.outer(v, v))
    sample = sample_fiber(bare_shadow(state, (1, 3)), n=10, seed=7)
    assert sample.kernel_dim == 0
    assert sample.n_accepted == 1
    np.testing.assert_allclose(sample.representatives[0], state, atol=1e-12)


def test_sample_fiber_infeasible_shadow():
    shadow = ShadowState(op=-lt_state(demo_state(), (2, 2)).op, dims=(2, 2))
    with pytest.raises(InfeasibleShadow):
        sample_fiber(shadow, n=5, seed=8)


def test_sampler_never_leaves_the_fiber():
    for dims, seed in (((2, 2), 9), ((2, 3), 10)):
        d = dims[0] * dims[1]
        rng = rng_from_seed(72, d)
        w = random_density(d, rng)
        state = lt_state(w, dims)
        sample = sample_fiber(state, n=30, seed=seed)
        for rep in sample.representatives:
            assert max_norm(local_shadow_matrix(rep, dims) - state.op) <= 1e-8


def test_push_and_spread_locally_positive_is_deterministic():
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=40, seed=11)
    proc = random_locally_positive_process((2, 2), seed=12)
    report = push_and_spread(sample, proc)
    assert report.deterministic
    assert report.diameter <= 1e-8


def test_push_and_spread_kernel_leak_spreads():
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=40, seed=13)
    proc = random_kernel_leaking_process((2, 2), seed=14)
    report = push_and_spread(sample, proc)
    assert not report.deterministic
    assert report.diameter > 0.01
    assert report.mean_pairwise <= report.diameter
    assert report.excluded == 0  # orthogonal conjugation preserves positivity


def test_push_and_spread_empty_kernel_zero_diameter():
    rng = rng_from_seed(73)
    v = rng.standard_normal(3); v /= np.linalg.norm(v)
    state = kron(np.eye(1), np.outer(v, v))
    sample = sample_fiber(bare_shadow(state, (1, 3)), n=5, seed=15)
    report = push_and_spread(sample, identity_process((1, 3)))
    assert report.diameter == 0.0 and report.deterministic


def test_determinism_equivalence_with_local_positivity():
    """deterministic <=> locally positive, over both generators at (2, 2)."""
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=25, seed=16)
    for k in range(4):
        good = random_locally_positive_process((2, 2), seed=700 + k)
        bad = random_kernel_leaking_process((2, 2), seed=720 + k)
        assert is_locally_positive(good).locally_positive
        assert push_and_spread(sample, good).deterministic
        assert not is_locally_positive(bad).locally_positive
        assert not push_and_spread(sample, bad).deterministic


# ---------------------------------------------------------------------------
# exact hit-and-run endpoints
# ---------------------------------------------------------------------------


def kernel_direction(dims, rng):
    """Random unit combination of the kernel basis, as the sampler draws it."""
    kernel = grading_basis(dims).block("aa")
    c = rng.standard_normal(len(kernel))
    return np.tensordot(c / np.linalg.norm(c), kernel, axes=1)


def state_of_rank(d, rank, rng):
    a = rng.standard_normal((d, rank))
    x = a @ a.T
    return x / np.trace(x)


def chord_ends(factor, direction):
    """The ends of the chord through x along the direction, as the draws 0
    and 1 pick them: -a_minus exactly, and a_plus up to rounding."""
    (_, _, [[low]]), (_, _, [[high]]) = (_chord_step(factor[None], direction[None], [draw])
                                         for draw in (0.0, 1.0))
    return low, high


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_interval_ends_are_on_the_cone_boundary(seed, dims):
    rng = rng_from_seed(seed)
    d = dims[0] * dims[1]
    x = state_of_rank(d, 2 * d, rng)  # positive definite
    direction = kernel_direction(dims, rng)
    scale = 1.0 + max_norm(x)
    low, high = chord_ends(_congruence_factor(*eigh(x), EIG_FLOOR * scale), direction)
    assert low < 0 < high
    for end in (high, low):
        assert abs(min_eigenvalue(x + end * direction)) <= 1e-10 * scale
        assert min_eigenvalue(x + (1 + 1e-6) * end * direction) < 0


@pytest.mark.parametrize("dims,rank", [((2, 2), 1), ((2, 3), 1), ((3, 3), 1),
                                       ((2, 3), 2), ((3, 3), 2)])
def test_interval_is_a_point_at_low_rank_states(dims, rank):
    """At these ranks every kernel direction is indefinite on the null space
    of x, so the fiber through x is x alone.  (A rank-2 state at (2, 2) can
    lie on a genuine segment: its 2-dimensional null space may see the one
    kernel direction as definite.)"""
    d = dims[0] * dims[1]
    for k in range(20):
        rng = rng_from_seed(74, d, rank, k)
        x = state_of_rank(d, rank, rng)
        factor = _congruence_factor(*eigh(x), EIG_FLOOR * (1.0 + max_norm(x)))
        low, high = chord_ends(factor, kernel_direction(dims, rng))
        assert 0 <= high - low <= 1e-9


def test_push_and_spread_matches_pairwise_loop(eigensolve_log):
    # A kernel-leaking map spreads the fiber: every distance is eigensolved.
    state = lt_state(random_density(6, rng_from_seed(75)), (2, 3))
    sample = sample_fiber(state, n=30, seed=17)
    proc = random_kernel_leaking_process((2, 3), seed=18)
    report = push_and_spread(sample, proc)
    n, excluded, diameter, mean = fiber_reference.push_and_spread(sample.representatives, proc)
    assert report.n == n == 30 and report.excluded == excluded == 0
    assert abs(report.diameter - diameter) <= 1e-12
    assert abs(report.mean_pairwise - mean) <= 1e-12

    # A locally positive map collapses the pushed fiber: the Frobenius bound
    # reports the spread without pairwise eigensolves.
    state = lt_state(random_density(9, rng_from_seed(77)), (3, 3))
    sample = sample_fiber(state, n=30, seed=20)
    proc = random_locally_positive_process((3, 3), seed=21)
    eigensolve_log.clear()
    report = push_and_spread(sample, proc)
    assert len(eigensolve_log) == 1  # the stacked positivity test of the images
    n, excluded, diameter, mean = fiber_reference.push_and_spread(sample.representatives, proc)
    assert report.n == n == 30 and report.excluded == excluded == 0
    assert report.diameter == report.mean_pairwise == 0.0 and report.deterministic
    assert diameter <= SPREAD_ZERO_TOL and mean <= SPREAD_ZERO_TOL

    # A map that is not positive: some images fail positivity, the rest spread.
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=30, seed=11)
    proc = non_positive_kernel_map()
    report = push_and_spread(sample, proc)
    n, excluded, diameter, mean = fiber_reference.push_and_spread(sample.representatives, proc)
    assert (report.n, report.excluded) == (n, excluded)
    assert n > 1 and excluded > 0
    assert abs(report.diameter - diameter) <= 1e-12
    assert abs(report.mean_pairwise - mean) <= 1e-12


def test_sample_fiber_eigensolves_per_step(eigensolve_log):
    state = lt_state(random_density(9, rng_from_seed(76)), (3, 3))
    eigensolve_log.clear()
    sample = sample_fiber(state, n=50, seed=19, burn_in=100)
    assert sample.n_accepted == 50
    # one per step, one for the start point, one stacked validation pass
    assert len(eigensolve_log) == 150 + 1 + math.ceil(50 / VALIDATION_BLOCK)

    # Three chains: one stacked call of three matrices per step, and per
    # chain one for the start point and one per validation pass.
    states = [lt_state(random_density(9, rng_from_seed(76, k)), (3, 3)) for k in range(3)]
    eigensolve_log.clear()
    samples = sample_fibers(states, 300, [19, 20, 21], burn_in=100)
    assert [s.n_accepted for s in samples] == [300] * 3
    passes = math.ceil(300 / VALIDATION_BLOCK)
    assert len(eigensolve_log) == (100 + 300) + 3 + 3 * passes
    assert sum(m for _, m in eigensolve_log) == 3 * (100 + 300) + 3 + 3 * 300


def test_stacked_validation_matches_serial_reference():
    """The sampler's stacked checks give the verdicts of one-at-a-time checks,
    on walk points and on points that fail (or just pass) each check."""
    cases = ((lt_state(demo_state(), (2, 2)), 12),
             (lt_state(random_density(9, rng_from_seed(78)), (3, 3)), 13))
    for state, seed in cases:
        d = state.op.shape[0]
        reps = sample_fiber(state, n=20, seed=seed).representatives
        kernel = grading_basis(state.dims).block("aa")[0]
        ss_traceless = np.diag([1.0, -1.0] + [0.0] * (d - 2))
        bad = [
            reps[0] + 10.0 * kernel,                 # not positive, same shadow and trace
            reps[1] + 2e-9 * np.eye(d),              # trace off by 2e-9 d
            reps[2] + 0.5e-9 / d * np.eye(d),        # trace off by 0.5e-9: passes
            reps[3] + 1e-7 * ss_traceless,           # shadow off by 1e-7
            reps[4] + 0.5e-8 * ss_traceless,         # shadow off by 0.5e-8: passes
        ]
        xs = np.concatenate([reps, np.stack(bad)])
        verdicts = _valid_representatives(xs, state)
        expected = [fiber_reference.valid_representative(x, state) for x in xs]
        np.testing.assert_array_equal(verdicts, expected)
        assert verdicts[:len(reps)].all()
        assert list(verdicts[len(reps):]) == [False, False, True, False, True]


def test_sample_fiber_keeps_the_walk_points_that_validate(monkeypatch):
    state = lt_state(demo_state(), (2, 2))
    full = sample_fiber(state, n=2 * VALIDATION_BLOCK + 3, seed=14)
    validate = fiber._valid_representatives

    def every_other(xs, shadow):
        verdicts = validate(xs, shadow)
        verdicts[1::2] = False
        return verdicts

    monkeypatch.setattr(fiber, "_valid_representatives", every_other)
    half = sample_fiber(state, n=2 * VALIDATION_BLOCK + 3, seed=14)
    assert half.n_accepted + half.rejected == full.n_accepted
    np.testing.assert_array_equal(half.representatives, full.representatives[::2])

    monkeypatch.setattr(fiber, "_valid_representatives",
                        lambda xs, shadow: np.zeros(len(xs), dtype=bool))
    none = sample_fiber(state, n=5, seed=14)
    assert (none.n_accepted, none.rejected) == (1, 5)
    np.testing.assert_array_equal(none.representatives[0],
                                  state.op + state.kernel_part)


def test_non_positive_kernel_part_falls_back_to_the_oracle_start():
    """W = rho + tK is symmetric but not positive: its kernel part is kept,
    and the walk starts where a shadow without one starts."""
    dims = (3, 3)
    w = random_density(9, rng_from_seed(79)) + grading_basis(dims).block("aa")[0]
    assert min_eigenvalue(w) < -1e-6
    state = lt_state(w, dims)
    assert state.kernel_part is not None
    walked = sample_fiber(state, n=20, seed=22).representatives
    bare = sample_fiber(ShadowState(op=state.op, dims=dims), n=20, seed=22).representatives
    np.testing.assert_array_equal(walked, bare)


def test_push_holds_one_pass_when_the_shadows_coincide():
    """Under a locally positive map no shadow outlives its pass: the push's
    peak allocation is a fraction of the pushed sample's size."""
    state = lt_state(random_density(9, rng_from_seed(77)), (3, 3))
    reps = np.repeat(sample_fiber(state, n=30, seed=20).representatives, 200, axis=0)
    sample = FiberSample(shadow=state, representatives=reps, seed=20,
                         n_requested=len(reps), n_accepted=len(reps))
    proc = random_locally_positive_process((3, 3), seed=21)
    tracemalloc.start()
    try:
        report = push_and_spread(sample, proc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n == len(reps) and report.diameter == 0.0 and report.deterministic
    assert peak < reps.nbytes / 4


@pytest.mark.parametrize("make", [random_locally_positive_process,
                                  random_kernel_leaking_process])
def test_push_applies_the_map_once_per_pass(monkeypatch, make):
    """300 representatives are pushed in three passes of VALIDATION_BLOCK,
    with one apply call each."""
    state = lt_state(random_density(4, rng_from_seed(78)), (2, 2))
    sample = sample_fiber(state, n=300, seed=23)
    proc = make((2, 2), seed=24)
    calls = []
    apply = LinearProcess.apply
    monkeypatch.setattr(LinearProcess, "apply",
                        lambda self, x: calls.append(len(x)) or apply(self, x))
    report = push_and_spread(sample, proc)
    assert report.n + report.excluded == sample.n_accepted == 300
    assert calls == [VALIDATION_BLOCK, VALIDATION_BLOCK, 300 - 2 * VALIDATION_BLOCK]


def test_push_takes_the_passes_again_when_a_later_pass_spreads():
    """The images of the first pass coincide and those of the next do not:
    the dropped shadows are taken again, and the spread is the pairwise one."""
    dims = (2, 2)
    a, b = (random_density(4, rng_from_seed(80, k)) for k in range(2))
    reps = np.stack([a] * VALIDATION_BLOCK + [b] * 3)
    sample = FiberSample(shadow=lt_state(a, dims), representatives=reps, seed=0,
                         n_requested=len(reps), n_accepted=len(reps))
    proc = identity_process(dims)
    report = push_and_spread(sample, proc)
    n, excluded, diameter, mean = fiber_reference.push_and_spread(reps, proc)
    assert (report.n, report.excluded) == (n, excluded) == (len(reps), 0)
    assert not report.deterministic
    assert abs(report.diameter - diameter) <= 1e-12
    assert abs(report.mean_pairwise - mean) <= 1e-12


# ---------------------------------------------------------------------------
# the factor-updating walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(3, 3), (3, 4)])
@pytest.mark.parametrize("rank", [1, 2, None])
def test_long_walks_stay_in_the_fiber(dims, rank):
    """3,000 steps on one congruence factor: no point is rejected, none is
    more negative than the floor allows, and pure states stay put."""
    d = dims[0] * dims[1]
    rho = state_of_rank(d, rank or d, rng_from_seed(81, d, rank or d))
    sample = sample_fiber(lt_state(rho, dims), n=3000, seed=23)
    assert sample.rejected == 0 and sample.n_accepted == 3000
    assert eigvalsh(sample.representatives)[:, 0].min() >= -1e-11
    if rank == 1:
        spread = np.abs(eigvalsh(sample.representatives - rho)).sum(axis=1).max()
        assert spread <= 1e-9


@pytest.mark.parametrize("rank", [1, 2, None])
def test_three_qubit_walks_stay_in_the_fiber(rank):
    """At (2,2,2) the kernel has 9 directions (the three blocks with two
    antisymmetric factors): every walk point validates, from the state's own
    start and from the oracle's, and a pure state's fiber is the state."""
    dims = (2, 2, 2)
    rho = state_of_rank(8, rank or 8, rng_from_seed(82, rank or 8))
    for state in (lt_state(rho, dims), bare_shadow(rho, dims)):
        sample = sample_fiber(state, n=500, seed=26)
        assert sample.kernel_dim == 9
        assert sample.rejected == 0 and sample.n_accepted == 500
        reps = sample.representatives
        assert eigvalsh(reps)[:, 0].min() >= -1e-11
        assert np.abs(np.trace(reps, axis1=1, axis2=2) - 1.0).max() <= 1e-9
        assert np.abs(local_shadow_matrix(reps, dims) - state.op).max() <= 1e-8
        spread = np.abs(eigvalsh(reps - rho)).sum(axis=1).max()
        if rank == 1:
            assert spread <= 1e-9
        elif rank is None:
            assert spread > 1e-3


def test_segment_fiber_draws_are_uniform():
    """The (2, 2) fiber of a mixed state is a segment, and every hit-and-run
    chord is the whole segment, so the walk points are i.i.d. uniform on it.
    Its ends are found independently, by bisection on lambda_min; the
    Kolmogorov-Smirnov distance is within its 1% critical value."""
    state = demo_state()
    kernel = grading_basis((2, 2)).block("aa")[0]

    def end(sign):
        lo, hi = 0.0, 1.0
        while min_eigenvalue(state + sign * hi * kernel) >= 0:
            lo, hi = hi, 2 * hi
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if min_eigenvalue(state + sign * mid * kernel) >= 0 else (lo, mid)
        return sign * lo

    t_minus, t_plus = end(-1.0), end(1.0)
    n = 2000
    reps = sample_fiber(lt_state(state, (2, 2)), n=n, seed=24).representatives
    t = np.tensordot(reps - state, kernel, axes=2) / np.sum(kernel * kernel)
    u = np.sort((t - t_minus) / (t_plus - t_minus))
    assert u[0] >= -1e-9 and u[-1] <= 1 + 1e-9
    ks = max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())
    assert ks <= 1.63 / np.sqrt(n)


def test_kernel_part_off_the_slice_falls_back_to_the_oracle_start():
    """A kernel part that is positive but not in the kernel would start the
    walk off the shadow's slice; the start is checked like every walk point,
    so the oracle start is used and every representative has the shadow."""
    op = lt_state(random_density(4, rng_from_seed(1)), (2, 2)).op
    state = ShadowState(op=op, dims=(2, 2), kernel_part=0.01 * np.eye(4))
    sample = sample_fiber(state, n=20, seed=25)
    assert sample.rejected == 0 and sample.n_accepted == 20
    shadows = local_shadow_matrix(sample.representatives, (2, 2))
    assert np.abs(shadows - op).max() <= 1e-8


# ---------------------------------------------------------------------------
# chains walked together
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_stacked_chains_match_the_serial_walk(dims):
    """Every chain of a stack equals the one-chain walk bit for bit: rank 1
    and full rank, a start from the state and from the oracle, chains
    sharing a seed (one of them twice over).  At burn-in 100, n of 10, 40
    and 200 walk 110, 140 and 300 steps (the blocks end at 128 and 256),
    and n of 28 and 156 walk exactly 128 and 256; at burn-in 200 and n of
    200 the first block keeps no point, and the end of its slice of the walk
    would be negative."""
    d = math.prod(dims)
    full = state_of_rank(d, 2 * d, rng_from_seed(83, d))
    pure = state_of_rank(d, 1, rng_from_seed(84, d))
    chains = [(lt_state(full, dims), 5), (lt_state(pure, dims), 6),
              (bare_shadow(full, dims), 5), (lt_state(full, dims), 7),
              (lt_state(full, dims), 5), (lt_state(pure, dims), 5)]
    shadows, seeds = zip(*chains)
    for n, burn_in in ((10, 100), (40, 100), (200, 100), (28, 100), (156, 100), (200, 200)):
        samples = sample_fibers(shadows, n, seeds, burn_in)
        for (shadow, seed), sample in zip(chains, samples):
            alone = fiber_reference.walk(shadow, n, seed, burn_in)
            assert np.array_equal(sample.representatives, alone.representatives)
            assert (sample.n_accepted, sample.rejected) == (alone.n_accepted, alone.rejected)
            assert (sample.n_requested, sample.seed, sample.kernel_dim) == (n, seed,
                                                                             alone.kernel_dim)
            assert sample.shadow is shadow
        np.testing.assert_array_equal(samples[0].representatives, samples[4].representatives)
        # The stack of one is the same walk.
        alone = fiber_reference.walk(shadows[1], n, 6, burn_in).representatives
        assert np.array_equal(sample_fiber(shadows[1], n, 6, burn_in).representatives, alone)


@pytest.mark.parametrize("burn_in", [-5, -200])
def test_negative_burn_in_is_refused(burn_in):
    """A negative burn-in would read walk rows that were never written (or
    none at all); it is refused like n < 1."""
    shadow = lt_state(demo_state(), (2, 2))
    with pytest.raises(ValueError, match="burn_in"):
        sample_fiber(shadow, n=10, seed=1, burn_in=burn_in)
    with pytest.raises(ValueError, match="burn_in"):
        sample_fibers([shadow, shadow], 10, [1, 2], burn_in=burn_in)
    assert sample_fiber(shadow, n=10, seed=1, burn_in=0).n_accepted == 10


def test_sample_fibers_refuses_mismatched_stacks():
    two = lt_state(demo_state(), (2, 2))
    three = lt_state(random_density(6, rng_from_seed(85)), (2, 3))
    with pytest.raises(DimensionMismatch):
        sample_fibers([two, three], 10, [1, 2])
    with pytest.raises(ValueError, match="one seed per shadow"):
        sample_fibers([two, two], 10, [1])
    with pytest.raises(ValueError, match="n must be"):
        sample_fibers([two, two], 0, [1, 2])
    assert sample_fibers([], 10, []) == []


# ---------------------------------------------------------------------------
# one kernel direction: the fiber is a segment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [lambda: random_kernel_leaking_process((2, 2), seed=14),
                                  lambda: random_locally_positive_process((2, 2), seed=12),
                                  non_positive_kernel_map],
                         ids=["leaking", "locally-positive", "not-positive"])
def test_segment_push_matches_the_pairwise_loop(make):
    """At n = 300 the spread read off the segment equals every pairwise
    trace-norm distance eigensolved, and a locally positive map gives 0."""
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=300, seed=11)
    assert sample.kernel_dim == 1 and sample.n_accepted == 300
    proc = make()
    report = push_and_spread(sample, proc)
    n, excluded, diameter, mean = fiber_reference.push_and_spread(sample.representatives, proc)
    assert (report.n, report.excluded) == (n, excluded)
    assert abs(report.diameter - diameter) <= 1e-12
    assert abs(report.mean_pairwise - mean) <= 1e-12
    if is_locally_positive(proc).locally_positive:
        assert report.diameter == report.mean_pairwise == 0.0 and report.deterministic
    else:
        assert report.diameter > 0.01 and not report.deterministic
    if make is non_positive_kernel_map:
        assert n > 1 and excluded > 0


@pytest.mark.parametrize("n,burn_in", [(50, 100), (2000, 0)])
def test_segment_sample_makes_one_eigensolve_for_its_ends(n, burn_in, eigensolve_log, monkeypatch):
    """The start point's eigendecomposition, one eigensolve for both ends of
    the segment and one per validation pass, whatever the burn-in; the start
    is the state's own, so the oracle is not called."""
    state = lt_state(demo_state(), (2, 2))

    def no_oracle(*args, **kwargs):
        raise AssertionError("the boxtimes oracle was called")

    monkeypatch.setattr(fiber, "in_boxtimes_cone", no_oracle)
    eigensolve_log.clear()
    sample = sample_fiber(state, n=n, seed=27, burn_in=burn_in)
    assert sample.n_accepted == n and sample.rejected == 0
    assert len(eigensolve_log) == 2 + math.ceil(n / VALIDATION_BLOCK)


@pytest.mark.parametrize("n", [50, 300, 2000])
def test_segment_push_makes_one_eigensolve_per_pass_and_one_for_the_spread(n, eigensolve_log):
    sample = sample_fiber(lt_state(demo_state(), (2, 2)), n=n, seed=28)
    proc = random_kernel_leaking_process((2, 2), seed=29)
    eigensolve_log.clear()
    report = push_and_spread(sample, proc)
    assert report.n == n and not report.deterministic
    assert len(eigensolve_log) == math.ceil(n / VALIDATION_BLOCK) + 1


@pytest.mark.parametrize("offset,pairwise", [(2e-8, True), (0.5e-8, False)])
def test_points_off_the_segment_get_the_pairwise_spread(offset, pairwise, eigensolve_log):
    """A hand-built sample with kernel_dim 1 whose points are off the line
    through its first point by more than REP_SHADOW_TOL takes the pairwise
    route, with the eigensolved spread; within it, the segment's, which
    misses the eigensolved spread by about the offset."""
    reps = sample_fiber(lt_state(demo_state(), (2, 2)), n=40, seed=30).representatives.copy()
    reps[7] += offset * np.diag([1.0, -1.0, 0.0, 0.0])
    sample = FiberSample(shadow=lt_state(demo_state(), (2, 2)), representatives=reps, seed=30,
                         n_requested=len(reps), n_accepted=len(reps), kernel_dim=1)
    proc = random_kernel_leaking_process((2, 2), seed=31)
    eigensolve_log.clear()
    report = push_and_spread(sample, proc)
    assert len(eigensolve_log) == 1 + (len(reps) - 1 if pairwise else 1)
    n, excluded, diameter, mean = fiber_reference.push_and_spread(reps, proc)
    assert (report.n, report.excluded) == (n, excluded) == (40, 0)
    tol = 1e-12 if pairwise else offset
    assert abs(report.diameter - diameter) <= tol
    assert abs(report.mean_pairwise - mean) <= tol


@pytest.mark.parametrize("kernel_dim", [0, 1])
def test_an_empty_sample_has_no_spread(kernel_dim):
    sample = FiberSample(shadow=lt_state(demo_state(), (2, 2)), representatives=np.zeros((0, 4, 4)),
                         seed=0, n_requested=0, n_accepted=0, kernel_dim=kernel_dim)
    report = push_and_spread(sample, random_kernel_leaking_process((2, 2), seed=31))
    assert (report.n, report.excluded, report.diameter, report.mean_pairwise) == (0, 0, 0.0, 0.0)
