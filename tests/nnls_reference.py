"""Brute-force reference for ``ltshadow.cones.nnls``.

The nonnegative least-squares optimum is the unconstrained least-squares
solution on some set of columns whose weights are all nonnegative.  Trying
every set of columns with ``np.linalg.lstsq`` and keeping the feasible one
of least residual finds it; the cost is 2^n solves, so n stays small.
"""

import itertools

import numpy as np


def brute_force_nnls(a, b):
    """(weights, residual) of min ||a w - b|| over w >= 0, for a of full
    column rank, by enumeration of every set of passive columns."""
    n = a.shape[1]
    best_w, best_r = np.zeros(n), float(np.linalg.norm(b))
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            z = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if np.any(z < 0):
                continue
            w = np.zeros(n)
            w[list(cols)] = z
            r = float(np.linalg.norm(a @ w - b))
            if r < best_r:
                best_w, best_r = w, r
    return best_w, best_r
