"""Serial reference for ``ltshadow.cones.product_form_extremum``.

One restart at a time: alternating exact eigenvector steps (fix y, optimize
x; fix x, optimize y) until the extreme eigenvalue stops moving, then the
value recomputed from the returned pair, best value first and lowest restart
index on ties.

The per-restart arithmetic is the engine's, so tests require bitwise-equal
(value, x, y).  The starts are the rows of one standard-normal draw of shape
(restarts, db) from ``params.rng(stream)``, each divided by its norm.  Each
contraction with M is the flattened outer product v v^T, as a stack of one
row vector, times M laid out as M[(j,l),(i,k)] (to contract y) or
M[(i,k),(j,l)] (to contract x).  A row's product is the same whether it is
computed alone or inside a larger stack; a plain 2-D product of the whole
stack is not, and would differ in the last bits.
"""

import numpy as np

ITERS = 120


def _row_times(v, mat):
    """(v v^T flattened) @ mat, as a stack of one row vector."""
    return (np.outer(v, v).reshape(1, 1, -1) @ mat)[0, 0]


def _alternating_extremum(m_y, m_x, da, db, y0, minimize, iters):
    idx = 0 if minimize else -1
    y = y0
    x = None
    prev = None
    for _ in range(iters):
        ay = _row_times(y, m_y).reshape(da, da)
        w, u = np.linalg.eigh((ay + ay.T) / 2)
        x = u[:, idx]
        bx = _row_times(x, m_x).reshape(db, db)
        w2, u2 = np.linalg.eigh((bx + bx.T) / 2)
        y = u2[:, idx]
        val = float(w2[idx])
        if prev is not None and abs(val - prev) <= 1e-14 * (1 + abs(val)):
            break
        prev = val
    val = float((np.outer(x, x).reshape(1, 1, -1) @ m_x
                 @ np.outer(y, y).reshape(1, -1, 1))[0, 0, 0])
    return val, x, y


def restart_results(m, dims, params, minimize=True, stream=1, iters=ITERS):
    """(value, x, y) of every restart, in restart order."""
    da, db = (int(d) for d in dims)
    m4 = np.asarray(m, dtype=float).reshape(da, db, da, db)
    m_y = m4.transpose(1, 3, 0, 2).reshape(db * db, da * da)
    m_x = m4.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    starts = params.rng(stream).standard_normal((params.restarts, db))
    results = []
    for k in range(params.restarts):
        y0 = starts[k] / np.sqrt(np.sum(starts[k] * starts[k]))
        results.append(_alternating_extremum(m_y, m_x, da, db, y0, minimize, iters))
    return results


def product_form_extremum(m, dims, params, minimize=True, stream=1, iters=ITERS):
    """(value, x, y) of the best restart, as the engine must return it."""
    results = restart_results(m, dims, params, minimize, stream, iters)
    if minimize:
        best = min(range(len(results)), key=lambda k: (results[k][0], k))
    else:
        best = max(range(len(results)), key=lambda k: (results[k][0], -k))
    return results[best]
