"""Serial reference for the walk and the per-representative work of
``ltshadow.fiber``.

:func:`walk` is one chain of hit-and-run on 2-D arrays: one eigensolve of
R^T D R per step, with Python-float chord ends; with one kernel direction K,
one eigensolve of R^T K R gives the fiber's segment and each point is one
uniform draw on it.  The sampler walks a stack of chains with one stacked
eigensolve per step, so tests require every chain to equal this walk bit for
bit.

One matrix at a time: each walk point is validated on its own (positive
within REP_PSD_TOL, trace within REP_TRACE_TOL of the shadow's, shadow
within REP_SHADOW_TOL in max-norm), and each representative is pushed,
tested for positivity and projected alone, with every pairwise trace-norm
distance eigensolved.  The sampler and the push run the same checks on
stacks, so tests require the same verdicts, the same counts and spreads
within 1e-12.
"""

import numpy as np
from matrix_helpers import trace_norm

from ltshadow.blocks import grading_basis
from ltshadow.fiber import (
    _FACTOR_GUARD,
    _STREAM_HIT_AND_RUN,
    EIG_FLOOR,
    REP_PSD_TOL,
    REP_SHADOW_TOL,
    REP_TRACE_TOL,
    VALIDATION_BLOCK,
    FiberSample,
    _congruence_factor,
    _feasible_start,
    _valid_representatives,
)
from ltshadow.linalg import eigh, eigvalsh, max_norm, min_eigenvalue, rng_from_seed
from ltshadow.shadow import local_shadow_matrix


def _chord(factor, direction):
    mu, u = eigh(factor.T @ direction @ factor)
    return mu, u, 1.0 / float(mu[-1]), -1.0 / float(mu[0])


def _walk_steps(kernel, factor, rng, x, points, burn_in):
    """Hit-and-run from x: the points after the burn-in go into ``points``."""
    k = kernel.shape[0]
    steps = burn_in + len(points)
    for first in range(0, steps, VALIDATION_BLOCK):
        size = min(VALIDATION_BLOCK, steps - first)
        coefficients = rng.standard_normal((size, k))
        draws = rng.random(size)
        for step, c, draw in zip(range(first, first + size), coefficients, draws):
            d_mat = (c @ kernel).reshape(x.shape)
            mu, u, a_minus, a_plus = _chord(factor, d_mat)
            alpha = (a_minus + a_plus) * draw - a_minus
            x = x + alpha * d_mat
            factor = (factor @ u) / np.sqrt(np.maximum(1.0 + alpha * mu, _FACTOR_GUARD))
            if step >= burn_in:
                points[step - burn_in] = x


def walk(shadow, n, seed, burn_in=100):
    """One hit-and-run chain of ``burn_in + n`` steps (n draws on the segment
    at one kernel direction), validated as the sampler validates: a
    FiberSample of the walk points that pass, or of the start point if none
    does."""
    g = grading_basis(shadow.dims)
    kernel = g.stacked[g.kernel_index]
    k = kernel.shape[0]
    start, w, v = _feasible_start(shadow)
    factor = _congruence_factor(w, v, EIG_FLOOR * (1.0 + max_norm(start)))
    rng = rng_from_seed(seed, _STREAM_HIT_AND_RUN)
    points = np.empty((n,) + start.shape)
    if k == 1:
        # The fiber is a segment and every chord is all of it: each point is
        # one uniform draw on the segment, and there is nothing to burn in.
        kernel_matrix = kernel[0].reshape(start.shape)
        mu = eigvalsh(factor.T @ kernel_matrix @ factor)
        a_minus, a_plus = 1.0 / float(mu[-1]), -1.0 / float(mu[0])
        for i, draw in enumerate(rng.random(n)):
            points[i] = start + ((a_minus + a_plus) * draw - a_minus) * kernel_matrix
    else:
        _walk_steps(kernel, factor, rng, start, points, burn_in)
    valid = np.concatenate([_valid_representatives(points[i:i + VALIDATION_BLOCK], shadow)
                            for i in range(0, n, VALIDATION_BLOCK)])
    accepted = int(valid.sum())
    reps = points if accepted == n else points[valid] if accepted else start[None]
    return FiberSample(shadow=shadow, representatives=reps, seed=seed,
                       n_requested=n, n_accepted=len(reps), kernel_dim=k,
                       rejected=n - accepted)


def valid_representative(x, shadow):
    if min_eigenvalue(x) < -REP_PSD_TOL:
        return False
    if abs(float(np.trace(x)) - shadow.trace) > REP_TRACE_TOL:
        return False
    return max_norm(local_shadow_matrix(x, shadow.dims) - shadow.op) <= REP_SHADOW_TOL


def push_and_spread(representatives, proc):
    """(n, excluded, diameter, mean_pairwise): images that fail positivity
    are excluded, the rest are compared pairwise in trace norm."""
    shadows = []
    excluded = 0
    for rep in representatives:
        image = proc.apply(rep)
        if min_eigenvalue(image) < -REP_PSD_TOL:
            excluded += 1
            continue
        shadows.append(local_shadow_matrix(image, proc.out_dims))
    dists = [trace_norm(shadows[i] - shadows[j])
             for i in range(len(shadows)) for j in range(i)]
    mean = sum(dists) / len(dists) if dists else 0.0
    return len(shadows), excluded, max(dists, default=0.0), mean
