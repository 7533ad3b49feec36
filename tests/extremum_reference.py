"""Serial reference for ``ltshadow.cones.product_form_extremum``.

One restart at a time: alternating exact eigenvector half-steps (x given y,
then y given x) until the first half-step that moves the extreme eigenvalue
by at most 1e-14 (1 + |value|), or 2 * SWEEPS half-steps; then the value
recomputed from the returned pair, best value first and lowest restart index
on ties.

The per-restart arithmetic is the engine's, so tests require bitwise-equal
(value, x, y).  The starts are the rows of one standard-normal draw of shape
(restarts, db) from ``rng_from_seed(seed, stream)``, each divided by its
norm.  Each contraction with M is the flattened outer product v v^T, as a
stack of one row vector, times M laid out as M[(j,l),(i,k)] (to contract y)
or M[(i,k),(j,l)] (to contract x).  A row's product is the same whether it is
computed alone or inside a larger stack; a plain 2-D product of the whole
stack is not, and would differ in the last bits.

``full_sweeps=True`` runs the earlier stop rule instead: a restart stops
only after a full sweep (both half-steps) that does not move the value of
its y half-step, or after SWEEPS sweeps.  Tests use it as an accuracy guard
for the half-step rule.
"""

import numpy as np

from ltshadow.linalg import rng_from_seed

SWEEPS = 120
STALL = 1e-14


def _row_times(v, mat):
    """(v v^T flattened) @ mat, as a stack of one row vector."""
    return (np.outer(v, v).reshape(1, 1, -1) @ mat)[0, 0]


def _solve(v, mat, d, idx):
    """Extreme eigenpair of the d x d contraction of mat with v."""
    a = _row_times(v, mat).reshape(d, d)
    w, u = np.linalg.eigh((a + a.T) / 2)
    return float(w[idx]), u[:, idx]


def _stalled(val, prev):
    return prev is not None and abs(val - prev) <= STALL * (1 + abs(val))


def _half_steps(m_y, m_x, da, db, y, idx):
    x = None
    prev = None
    for step in range(2 * SWEEPS):
        if step % 2 == 0:
            val, x = _solve(y, m_y, da, idx)
        else:
            val, y = _solve(x, m_x, db, idx)
        if _stalled(val, prev):
            break
        prev = val
    return x, y


def _full_sweeps(m_y, m_x, da, db, y, idx):
    x = None
    prev = None
    for _ in range(SWEEPS):
        _, x = _solve(y, m_y, da, idx)
        val, y = _solve(x, m_x, db, idx)
        if _stalled(val, prev):
            break
        prev = val
    return x, y


def restart_results(m, dims, seed, restarts, minimize=True, stream=1, full_sweeps=False):
    """(value, x, y) of every restart, in restart order."""
    da, db = (int(d) for d in dims)
    m4 = np.asarray(m, dtype=float).reshape(da, db, da, db)
    m_y = m4.transpose(1, 3, 0, 2).reshape(db * db, da * da)
    m_x = m4.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    search = _full_sweeps if full_sweeps else _half_steps
    idx = 0 if minimize else -1
    starts = rng_from_seed(seed, stream).standard_normal((restarts, db))
    results = []
    for k in range(restarts):
        y0 = starts[k] / np.sqrt(np.sum(starts[k] * starts[k]))
        x, y = search(m_y, m_x, da, db, y0, idx)
        val = float((np.outer(x, x).reshape(1, 1, -1) @ m_x
                     @ np.outer(y, y).reshape(1, -1, 1))[0, 0, 0])
        results.append((val, x, y))
    return results


def product_form_extremum(m, dims, seed, restarts, minimize=True, stream=1,
                          full_sweeps=False):
    """(value, x, y) of the best restart, as the engine must return it."""
    results = restart_results(m, dims, seed, restarts, minimize, stream, full_sweeps)
    if minimize:
        best = min(range(len(results)), key=lambda k: (results[k][0], k))
    else:
        best = max(range(len(results)), key=lambda k: (results[k][0], -k))
    return results[best]


def unbounded(search):
    """The engine with any ``bound`` its caller passes dropped: the full
    search, to compare a bounded caller's output with."""
    def run(*args, bound=None, **kwargs):
        return search(*args, **kwargs)
    return run
