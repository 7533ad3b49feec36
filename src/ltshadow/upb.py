"""The real 3x3 tiles construction and its bound entangled state.

Five mutually orthogonal unit product vectors whose orthocomplement contains
no product vector.  ``tiles_upb`` returns them as two read-only (5, 3)
arrays xs, ys whose rows are the pairs, and ``product_vectors`` stacks the
products x_i o y_i as the rows of Z, so Z.T @ Z projects onto their span.
The complement state rho = (I - Z.T @ Z)/4 is then positive, supported on
the ss block, and entangled — the witness separating the middle cones of
the inclusion chain.  Read as an effect, the same matrix is an entangled
shadow effect, and dualizing it produces a form lying in the maximal cone
but outside the boxtimes cone.
"""

from __future__ import annotations

import numpy as np

from .cones import product_form_extremum
from .linalg import product_vectors

_STREAM_MARGIN = 21
# Restarts of the product-form search behind the unextendibility margin.
MARGIN_RESTARTS = 40
# Share of the margin that the separating form keeps on every product effect.
SEPARATION_SAFETY = 0.1


def tiles_upb() -> tuple[np.ndarray, np.ndarray]:
    """The five tiles vectors on R^3 x R^3 (all real), as read-only rows xs, ys."""
    e = np.eye(3)
    s2 = np.sqrt(2.0)
    u = (e[0] + e[1] + e[2]) / np.sqrt(3.0)
    xs = np.array([e[0], (e[0] - e[1]) / s2, e[2], (e[1] - e[2]) / s2, u])
    ys = np.array([(e[0] - e[1]) / s2, e[2], (e[1] - e[2]) / s2, e[0], u])
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys


def _span_projector() -> np.ndarray:
    z = product_vectors(*tiles_upb())
    return z.T @ z


def upb_state() -> np.ndarray:
    """Normalized projector onto the orthocomplement of the tiles span.

    Eigenvalues {0 x5, 1/4 x4}, trace one, supported on the ss block (every
    P_i is a product of symmetric operators), and entangled because no
    product vector lies in its range.
    """
    return (np.eye(9) - _span_projector()) / 4


def unextendibility_margin(seed: int) -> float:
    """min over unit product vectors of sum_i <x o y, v_i>^2 for the tiles.

    Strictly positive iff no product vector is orthogonal to the whole
    family, i.e. iff the family is unextendible.  Computed by the shared
    alternating product-form optimizer on the span projector, from
    MARGIN_RESTARTS starts drawn from the seed.
    """
    val, _, _ = product_form_extremum(_span_projector(), (3, 3), seed, MARGIN_RESTARTS,
                                      minimize=True, stream=_STREAM_MARGIN)
    return float(val)


def separating_max_cone_form(seed: int = 0):
    """A form in the maximal cone that the complement state separates from boxtimes.

    With c the unextendibility margin and s = SEPARATION_SAFETY,
    X = sum_i P_i - (1 - s) c I is nonnegative on every product effect
    (q(x, y) >= s c > 0) yet pairs negatively with the complement state
    rho: <rho, X> = -(1 - s) c.  Since rho is a shadow effect (positive and
    ss-supported), no positive global state can have X as its shadow.
    Returns (X, rho, margin).
    """
    margin = unextendibility_margin(seed=seed)
    if margin <= 0:
        raise ValueError("family is extendible; no separation available")
    x = _span_projector() - (1 - SEPARATION_SAFETY) * margin * np.eye(9)
    return x, upb_state(), margin
