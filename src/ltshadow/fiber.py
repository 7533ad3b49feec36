"""Sampling the global states behind one local shadow.

Local agents agreeing on a shadow s cannot distinguish the states in its
fiber: the affine slice s + span(kernel) intersected with the positive cone.
Pushing the whole fiber through a global process and projecting back to
shadows measures how non-deterministic that process looks locally;
locally positive maps collapse the pushed set to a point, anything else
spreads it.

The walk starts at the state the shadow was taken from (op plus its kernel
part), if that passes the checks every walk point must pass, or else at the
completion M + K returned by the boxtimes oracle, which decides every
shadow of a positive state (its optimum is >= 0, outside the tolerance
band).  The sampler is hit-and-run inside the fiber: a random kernel
direction D, the exact feasible segment through the current point x, and a
uniform draw on it.  Eigenvalues of the start point below a floor
(EIG_FLOOR times its scale) are raised to it by a fixed offset F0 >= 0,
which stands in for a null-space test on rank-deficient points: a direction
that leaves a face of the cone gets a step of order the floor, so pure
states stay rigid.  The walk keeps a congruence factor R with
R^T (x + F0) R = I, taken from the start point's eigendecomposition.  Then
x + aD + F0 is positive exactly when I + a R^T D R is, so the extreme
eigenvalues mu_min < 0 < mu_max of R^T D R = U diag(mu) U^T give both ends
at once, a in [-1/mu_max, -1/mu_min], and R U diag(1 + a mu)^{-1/2} is the
factor at the next point: one eigensolve per step.  Every walk point keeps
x + F0 >= 0, so lambda_min(x) >= -(floor + max(0, -lambda_min(start)))
over the whole walk, in exact arithmetic.  Each chain is sequential, but
chains of one length requested together (:func:`sample_fibers`, shadows of
one dims) share each step's eigensolve: one stacked eigensolve of
R_k^T D_k R_k over all the chains.  Each chain keeps its own random stream,
and float64 arithmetic on arrays rounds each element as it rounds a lone
number, so every chain is the one it would be alone, bit for bit.  The work
per representative is stacked too: a block's walk points are summed in one
pass, the post-burn-in points of the chains go into one (chains, n, D, D)
array, each chain is validated in stacked passes of VALIDATION_BLOCK points
(positive within REP_PSD_TOL, the shadow's trace within REP_TRACE_TOL, its
shadow within REP_SHADOW_TOL), and the push maps, tests and projects the
representatives in passes of the same size.

With one kernel direction K (two rebits, where K = J o J / 2) the fiber is
the segment start + aK, a in [-1/mu_max, -1/mu_min] for the extreme
eigenvalues mu of R^T K R, and every chord of the walk is the whole segment,
so the walk's points are i.i.d. uniform on it (Smith, Oper. Res. 32, 1984).
The sampler draws them so: one eigensolve for both ends, n uniforms from the
chain's stream and no burn-in.  The push reads the spread off the segment:
representatives x_0 + t_i K have pushed shadows S_0 + (t_i - t_0) B, with B
the shadow of Phi(K), so the diameter is (t_max - t_min) ||B||_tr and the
mean pairwise distance follows from the sorted t, with one eigensolve for
||B||_tr; representatives off that line (a hand-built sample) take the
pairwise route.

Coverage, not a certified uniform law, is the goal; the spread summaries
(trace-norm diameter and mean pairwise distance) are pragmatic choices, not
canonical ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import grading_basis
from .cones import MEMBER, UNDECIDED, FeasibilityParams, in_boxtimes_cone
from .errors import DimensionMismatch, InfeasibleShadow
from .linalg import eigh, eigvalsh, max_norm, min_eigenvalue, rng_from_seed
from .processes import LinearProcess, from_coords, to_coords
from .shadow import ShadowState, local_shadow_matrix

DET_TOL = 1e-7
REP_PSD_TOL = 1e-9
REP_TRACE_TOL = 1e-9
REP_SHADOW_TOL = 1e-8
# Tolerance of the boxtimes oracle that finds the start point: its offset
# makes the start positive within START_TOL / 100.
START_TOL = 1e-10
# Eigenvalue floor of the hit-and-run endpoint formula, relative to the scale
# of the start point: it bounds both the step a direction leaving a face of
# the cone can take and how far the whole walk can push an eigenvalue below
# zero.
EIG_FLOOR = 1e-12
# Bound on the trace-norm spread of the pushed shadows below which the spread
# is reported as 0 without pairwise eigensolves.
SPREAD_ZERO_TOL = 1e-12
# Walk points validated per stacked pass, and walk steps per block of
# random draws: keeps the temporaries small.
VALIDATION_BLOCK = 128
# Least value of 1 + alpha*mu in the factor update: the resolution of 1.
_FACTOR_GUARD = float(np.finfo(float).eps)

_STREAM_HIT_AND_RUN = 31


@dataclass
class FiberSample:
    """Representatives of one shadow's fiber, plus bookkeeping."""

    shadow: ShadowState
    representatives: np.ndarray  # (n_accepted, D, D)
    seed: int
    n_requested: int
    n_accepted: int
    kernel_dim: int = 0
    rejected: int = 0


@dataclass
class SpreadReport:
    """Trace-norm spread of the shadows of pushed fiber representatives."""

    n: int
    diameter: float
    mean_pairwise: float
    deterministic: bool
    excluded: int = 0

    def __post_init__(self):
        if self.diameter + 1e-15 < self.mean_pairwise:
            raise ValueError("diameter cannot be smaller than the mean pairwise distance")


def _feasible_start(shadow: ShadowState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A positive point on the affine slice and its eigendecomposition (w, V):
    op + kernel_part if that passes the walk-point checks (positive within
    REP_PSD_TOL, the shadow's trace and shadow), or else op plus the kernel
    offset of the boxtimes oracle at tol START_TOL."""
    if shadow.kernel_part is not None:
        start = shadow.op + shadow.kernel_part
        w, v = eigh(start)
        if w[0] >= -REP_PSD_TOL and _on_slice(start[None], shadow)[0]:
            return start, w, v
    # The boxtimes oracle draws no random numbers, so any seed will do.
    result = in_boxtimes_cone(shadow.op, shadow.dims, FeasibilityParams(seed=0, tol=START_TOL))
    if result.verdict != MEMBER:
        claim = "undecided whether a" if result.verdict == UNDECIDED else "no"
        raise InfeasibleShadow(
            f"{claim} positive state projects to this shadow (oracle verdict: {result.verdict})"
        )
    start = shadow.op + result.certificate["kernel_offset"]
    return (start, *eigh(start))


def _congruence_factor(w: np.ndarray, v: np.ndarray, floor: float) -> np.ndarray:
    """R = V diag(max(w, floor))^{-1/2} for x = V diag(w) V^T: R^T (x + F0) R
    = I, with the floor offset F0 = V diag(max(w, floor) - w) V^T >= 0."""
    return v / np.sqrt(np.maximum(w, floor))


def _chord_step(factor: np.ndarray, direction: np.ndarray, draws: np.ndarray) -> tuple:
    """(mu, U, alpha) for (L, D, D) stacks of factors R of x + F0 and of
    directions D, and L draws in [0, 1]: R^T D R = U diag(mu) U^T per matrix,
    and alpha[i] = [(a_minus + a_plus) * draws[i] - a_minus] is the draw's
    point on the chord -a_minus <= alpha <= a_plus, a_minus = 1/mu_max,
    a_plus = -1/mu_min, where x + alpha*D + F0 is positive because it is
    congruent to I + alpha*R^T D R (Smith's hit-and-run)."""
    mu, u = eigh(factor.swapaxes(-1, -2) @ direction @ factor)
    # D is a nonzero traceless kernel element; R^T D R is congruent to it, so
    # (Sylvester's law of inertia) mu has both signs.
    bottom, top = mu[:, :1], mu[:, -1:]
    return mu, u, (1.0 / top - 1.0 / bottom) * np.asarray(draws)[:, None] - 1.0 / top


def sample_fiber(shadow: ShadowState, n: int, seed: int,
                 burn_in: int = 100) -> FiberSample:
    """Hit-and-run sample of the fiber of a shadow: :func:`sample_fibers`
    on a stack of one chain.

    Requires the shadow to admit a positive completion (boxtimes member);
    raises InfeasibleShadow otherwise, also when the oracle is undecided.
    With an empty kernel the fiber is a single point.  Every returned
    representative passes the checks of the module docstring.  Defined at
    any number of factors: the directions are combinations of the
    ``kernel_index`` rows of the grading basis.  The directions and uniform
    draws are taken in blocks of VALIDATION_BLOCK steps.  With one kernel
    direction, from the state's own start, the n points cost 2 + ceil(n /
    VALIDATION_BLOCK) eigensolves (the start, both ends of the segment, the
    validation passes), whatever the burn-in.  Raises ValueError for n < 1
    or burn_in < 0.
    """
    return sample_fibers([shadow], n, [seed], burn_in)[0]


def sample_fibers(shadows, n: int, seeds, burn_in: int = 100) -> list[FiberSample]:
    """Independent hit-and-run chains of one length on shadows of one dims,
    walked together.

    Chain i samples the fiber of ``shadows[i]`` with ``n`` points and
    ``seed = seeds[i]``, and returns what ``sample_fiber(shadows[i], n,
    seeds[i], burn_in)`` would return alone, bit for bit: each chain keeps
    its own random stream, drawn in the same blocks, and each of the
    burn_in + n steps takes one stacked eigensolve for all the chains.
    Start points and validation passes are per chain.  With one kernel
    direction each chain draws its n points on its segment with one
    eigensolve for the ends, and there is no step to share.
    """
    shadows, seeds = list(shadows), list(seeds)
    if len(shadows) != len(seeds):
        raise ValueError("sample_fibers needs one seed per shadow")
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if any(s.dims != shadows[0].dims for s in shadows):
        raise DimensionMismatch("sample_fibers walks shadows of one dims")
    if not shadows:
        return []
    g = grading_basis(shadows[0].dims)
    kernel = g.stacked[g.kernel_index]
    k = kernel.shape[0]
    if k == 0:
        return [_single_point(s, n, seed) for s, seed in zip(shadows, seeds)]
    if k == 1:
        direction = kernel[0].reshape(shadows[0].op.shape)
        return [_segment(s, n, seed, direction) for s, seed in zip(shadows, seeds)]

    starts = [_feasible_start(s) for s in shadows]
    rngs = [rng_from_seed(seed, _STREAM_HIT_AND_RUN) for seed in seeds]
    chains, steps = len(shadows), burn_in + n
    walks = np.empty((chains, n) + shadows[0].op.shape)
    x = np.array([start for start, _, _ in starts])
    factor = np.array([_congruence_factor(w, v, EIG_FLOOR * (1.0 + max_norm(start)))
                       for start, w, v in starts])
    for first in range(0, steps, VALIDATION_BLOCK):
        size = min(VALIDATION_BLOCK, steps - first)
        # Each chain draws its own block, as a chain walked alone does;
        # isotropic directions, since the chord is scale-free.
        coefficients = np.empty((size, chains, 1, k))
        draws = np.empty((size, chains))
        for i, rng in enumerate(rngs):
            coefficients[:, i, 0] = rng.standard_normal((size, k))
            draws[:, i] = rng.random(size)
        # Row 0 of the block's terms is its start points, row 1 + j the
        # directions of step j, and then the steps alpha*D.  The directions
        # are a stacked gemv per chain and step, as for one chain: a gemm
        # over the rows would round differently.
        terms = np.empty((size + 1,) + x.shape)
        terms[0] = x
        directions = terms[1:]
        np.matmul(coefficients, kernel, out=directions.reshape(size, chains, 1, -1))
        alphas = np.empty((size, chains, 1))
        for d, draw, alpha in zip(directions, draws, alphas):
            mu, u, alpha[...] = _chord_step(factor, d, draw)
            # A draw of exactly 0 lands on the boundary, where 1 + alpha mu
            # is 0 up to rounding.
            scale = np.sqrt(np.maximum(1.0 + alpha * mu, _FACTOR_GUARD))
            factor = (factor @ u) / scale[:, None, :]
        # The walk points of the block, summed in step order as one chain
        # sums them.
        directions *= alphas[..., None]
        xs = np.add.accumulate(terms, out=terms)
        x = xs[-1]
        lo = max(first, burn_in)
        if lo < first + size:
            walks[:, lo - burn_in:first + size - burn_in] = xs[1 + lo - first:].swapaxes(0, 1)
    return [_validated(s, walk, start, seed, k)
            for s, walk, (start, _, _), seed in zip(shadows, walks, starts, seeds)]


def _single_point(shadow: ShadowState, n: int, seed: int) -> FiberSample:
    """The fiber of a shadow with an empty kernel: its own operator."""
    start = shadow.op.copy()
    if min_eigenvalue(start) < -REP_PSD_TOL:
        raise InfeasibleShadow("shadow with empty kernel is not positive")
    return FiberSample(shadow=shadow, representatives=start[None], seed=seed,
                       n_requested=n, n_accepted=1, kernel_dim=0)


def _segment(shadow: ShadowState, n: int, seed: int, kernel: np.ndarray) -> FiberSample:
    """n points on the fiber of a shadow with one kernel direction K: the
    segment start + alpha*K, alpha in [-1/mu_max, -1/mu_min] for the extreme
    eigenvalues mu of R^T K R (R the walk's floored congruence factor).  Every
    hit-and-run chord is the whole segment, so the walk's points are i.i.d.
    uniform on it: n draws from the chain's stream, one eigensolve."""
    start, w, v = _feasible_start(shadow)
    factor = _congruence_factor(w, v, EIG_FLOOR * (1.0 + max_norm(start)))
    mu = eigvalsh(factor.T @ kernel @ factor)
    bottom, top = float(mu[0]), float(mu[-1])
    draws = rng_from_seed(seed, _STREAM_HIT_AND_RUN).random(n)
    alphas = (1.0 / top - 1.0 / bottom) * draws - 1.0 / top
    return _validated(shadow, start + alphas[:, None, None] * kernel, start, seed, 1)


def _validated(shadow: ShadowState, walk: np.ndarray, start: np.ndarray, seed: int,
               k: int) -> FiberSample:
    """The walk points that pass the representative checks, in stacked passes
    of VALIDATION_BLOCK; the start point always validates, so it stands in
    when none does."""
    n = len(walk)
    valid = np.concatenate([_valid_representatives(walk[i:i + VALIDATION_BLOCK], shadow)
                            for i in range(0, n, VALIDATION_BLOCK)])
    accepted = int(valid.sum())
    reps = walk if accepted == n else walk[valid] if accepted else start[None]
    return FiberSample(shadow=shadow, representatives=reps, seed=seed,
                       n_requested=n, n_accepted=len(reps), kernel_dim=k,
                       rejected=n - accepted)


def _on_slice(xs: np.ndarray, shadow: ShadowState) -> np.ndarray:
    """Which matrices of the (R, D, D) stack have the shadow's trace within
    REP_TRACE_TOL and its shadow within REP_SHADOW_TOL (max-norm)."""
    trace = np.abs(np.trace(xs, axis1=1, axis2=2) - shadow.trace) <= REP_TRACE_TOL
    defect = np.abs(local_shadow_matrix(xs, shadow.dims) - shadow.op).max(axis=(1, 2))
    return trace & (defect <= REP_SHADOW_TOL)


def _valid_representatives(xs: np.ndarray, shadow: ShadowState) -> np.ndarray:
    """Which matrices of the (R, D, D) stack are positive within REP_PSD_TOL
    and on the shadow's slice (:func:`_on_slice`)."""
    return (eigvalsh(xs)[:, 0] >= -REP_PSD_TOL) & _on_slice(xs, shadow)


def _pushed(reps: np.ndarray, proc: LinearProcess):
    """Per pass of VALIDATION_BLOCK representatives, their images and which
    of those are positive within REP_PSD_TOL (one stacked apply and one
    stacked eigensolve per pass)."""
    for i in range(0, len(reps), VALIDATION_BLOCK):
        images = proc.apply(reps[i:i + VALIDATION_BLOCK])
        yield images, eigvalsh(images)[:, 0] >= -REP_PSD_TOL


def _pushed_shadows(reps: np.ndarray, proc: LinearProcess):
    """Per pass, the shadows of the images that are positive (:func:`_pushed`)."""
    for images, positive in _pushed(reps, proc):
        yield local_shadow_matrix(images[positive], proc.out_dims)


def _line_coordinates(sample: FiberSample) -> tuple[np.ndarray, np.ndarray] | None:
    """(K, t) with t_i = <x_i - x_0, K> for the representatives x_i and the
    first kernel direction K of the sample's dims, or None when some x_i is
    off the line x_0 + t K by more than REP_SHADOW_TOL (max-norm)."""
    g = grading_basis(sample.shadow.dims)
    reps = sample.representatives
    kernel = g.stacked[g.kernel_index[0]].reshape(reps.shape[1:])
    offsets = reps - reps[:1]
    t = np.tensordot(offsets, kernel, axes=2)
    return None if max_norm(offsets - t[:, None, None] * kernel) > REP_SHADOW_TOL else (kernel, t)


def _segment_spread(reps: np.ndarray, proc: LinearProcess, kernel: np.ndarray,
                    t: np.ndarray) -> tuple[int, float, float]:
    """(n, diameter, mean) of representatives x_0 + t_i K: their pushed
    shadows are S_0 + (t_i - t_0) B with B the shadow of Phi(K), so every
    pairwise distance is |t_i - t_j| ||B||_tr."""
    t = t[np.concatenate([np.zeros(0, bool), *(positive for _, positive in _pushed(reps, proc))])]
    n = len(t)
    image = from_coords(proc.matrix @ to_coords(kernel, proc.in_dims), proc.out_dims)
    b = local_shadow_matrix(image, proc.out_dims)
    # The bound of the pairwise case: ||S_i - S_0||_F = |t_i - t_0| ||B||_F.
    bound = 2 * np.sqrt(b.shape[-1]) * np.linalg.norm(b) * np.abs(t - t[:1]).max(initial=0.0)
    if bound <= SPREAD_ZERO_TOL:
        return n, 0.0, 0.0
    b_trace_norm = float(np.abs(eigvalsh(b)).sum())
    # Sorted, gap k separates k points from n - k: it is in k(n - k) pairs.
    gaps = np.diff(np.sort(t))
    below = np.arange(1, n)
    diameter = float(t.max() - t.min()) * b_trace_norm
    return n, diameter, float(gaps @ (below * (n - below))) * b_trace_norm / (n * (n - 1) // 2)


def _pairwise_spread(reps: np.ndarray, proc: LinearProcess) -> tuple[int, float, float]:
    """(n, diameter, mean) of the pushed shadows, with one stacked eigensolve
    per row of pairwise distances once the bound of :func:`push_and_spread`
    breaks."""
    kept, n, bound = [], 0, 0.0
    for shadows in _pushed_shadows(reps, proc):
        first = shadows[:1] if n == 0 else first
        n += len(shadows)
        offsets = np.linalg.norm(shadows - first, axis=(1, 2))
        bound = max(bound, 2 * np.sqrt(shadows.shape[-1]) * offsets.max(initial=0.0))
        if bound > SPREAD_ZERO_TOL:
            kept.append(shadows)
    if bound <= SPREAD_ZERO_TOL:
        return n, 0.0, 0.0
    stack = np.concatenate(kept)
    if len(stack) < n:  # a pass was dropped before the bound broke
        stack = np.concatenate(list(_pushed_shadows(reps, proc)))
    diameter = total = 0.0
    for i in range(1, n):
        # One stacked solve per row keeps memory at n matrices, not n^2.
        norms = np.abs(eigvalsh(stack[i] - stack[:i])).sum(axis=-1)
        diameter = max(diameter, float(norms.max()))
        total += float(norms.sum())
    return n, diameter, total / (n * (n - 1) // 2)


def push_and_spread(sample: FiberSample, proc: LinearProcess) -> SpreadReport:
    """Push every representative through the process and measure shadow spread.

    Representatives whose image fails positivity (lambda_min below
    -REP_PSD_TOL) are excluded and counted; when the sample has
    representatives and every image is excluded, there is no spread to
    report and InfeasibleShadow is raised.  ``deterministic`` is True when
    the trace-norm diameter of the output shadows is at most DET_TOL, the
    locally positive case.  For D x D shadows S_i, ||S_i - S_j||_tr <=
    sqrt(D) ||S_i - S_j||_F <= 2 sqrt(D) max_i ||S_i - S_0||_F; when that
    bound is at most SPREAD_ZERO_TOL, diameter and mean pairwise distance
    are reported as 0, within SPREAD_ZERO_TOL of their eigensolved values,
    and no shadow outlives its pass.  Otherwise the shadows are kept (taken
    again if a pass was dropped before the bound broke) and each row of
    pairwise distances is one stacked eigensolve.

    With one kernel direction (``kernel_dim == 1``) the spread is read off
    the segment (see the module docstring), in O(n log n) and ceil(n /
    VALIDATION_BLOCK) + 1 eigensolves (the positivity passes and ||B||_tr),
    under the same bound.  Representatives off the line through the first
    one by more than REP_SHADOW_TOL take the pairwise route.
    """
    reps = sample.representatives
    line = _line_coordinates(sample) if sample.kernel_dim == 1 else None
    n, diameter, mean = (_pairwise_spread(reps, proc) if line is None
                         else _segment_spread(reps, proc, *line))
    if n == 0 < len(reps):
        raise InfeasibleShadow(
            f"no pushed representative is positive: all {len(reps)} images are excluded")
    return SpreadReport(n=n, diameter=diameter, mean_pairwise=mean,
                        deterministic=diameter <= DET_TOL, excluded=len(reps) - n)
