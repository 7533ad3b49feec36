"""Serial reference for ``ltshadow.cones.product_form_extremum``.

One restart at a time: alternating exact eigenvector steps (fix y, optimize
x; fix x, optimize y) until the extreme eigenvalue stops moving, then the
value recomputed from the returned pair, best value first and lowest restart
index on ties.  The stacked engine steps every restart at once with the same
arithmetic on each, so tests require bitwise-equal (value, x, y).
"""

import numpy as np

ITERS = 120


def _alternating_extremum(m4, da, db, y0, minimize, iters):
    idx = 0 if minimize else -1
    y = y0
    x = None
    prev = None
    for _ in range(iters):
        ay = np.einsum("ijkl,j,l->ik", m4, y, y)
        w, u = np.linalg.eigh((ay + ay.T) / 2)
        x = u[:, idx]
        bx = np.einsum("ijkl,i,k->jl", m4, x, x)
        w2, u2 = np.linalg.eigh((bx + bx.T) / 2)
        y = u2[:, idx]
        val = float(w2[idx])
        if prev is not None and abs(val - prev) <= 1e-14 * (1 + abs(val)):
            break
        prev = val
    val = float(np.einsum("ijkl,i,j,k,l->", m4, x, y, x, y))
    return val, x, y


def restart_results(m, dims, params, minimize=True, stream=1, iters=ITERS):
    """(value, x, y) of every restart, in restart order."""
    da, db = (int(d) for d in dims)
    m4 = np.asarray(m, dtype=float).reshape(da, db, da, db)

    def one_restart(k: int):
        rng = params.rng(stream, k)
        y0 = rng.standard_normal(db)
        y0 /= np.linalg.norm(y0)
        return _alternating_extremum(m4, da, db, y0, minimize, iters)

    return [one_restart(k) for k in range(params.restarts)]


def product_form_extremum(m, dims, params, minimize=True, stream=1, iters=ITERS):
    """(value, x, y) of the best restart, as the engine must return it."""
    results = restart_results(m, dims, params, minimize, stream, iters)
    if minimize:
        best = min(range(len(results)), key=lambda k: (results[k][0], k))
    else:
        best = max(range(len(results)), key=lambda k: (results[k][0], -k))
    return results[best]
