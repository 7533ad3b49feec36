"""The real 3x3 tiles construction and its bound entangled state.

Five mutually orthogonal unit product vectors whose orthocomplement contains
no product vector.  The complement state rho = (I - sum_i P_i)/4 is then
positive, supported on the ss block, and entangled — the witness separating
the middle cones of the inclusion chain.  Read as an effect, the same matrix
is an entangled shadow effect, and dualizing it produces a form lying in the
maximal cone but outside the boxtimes cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import FeasibilityParams, product_form_extremum
from .errors import DimensionMismatch

_STREAM_MARGIN = 21
# Restarts of the product-form search behind the unextendibility margin.
MARGIN_RESTARTS = 40
# Share of the margin that the separating form keeps on every product effect.
SEPARATION_SAFETY = 0.1


@dataclass(frozen=True)
class ProductVectorFamily:
    """A family of product unit vectors (x_i, y_i) on a bipartite system."""

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for x, y in self.pairs:
            x = np.asarray(x, dtype=float).copy()
            y = np.asarray(y, dtype=float).copy()
            x.flags.writeable = False
            y.flags.writeable = False
            frozen.append((x, y))
        object.__setattr__(self, "pairs", tuple(frozen))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def dims(self) -> tuple[int, int]:
        x, y = self.pairs[0]
        return (x.size, y.size)

    def product_vectors(self) -> list[np.ndarray]:
        return [np.kron(x, y) for x, y in self.pairs]

    def gram(self) -> np.ndarray:
        vs = self.product_vectors()
        return np.array([[float(u @ v) for v in vs] for u in vs])

    def span_projector(self) -> np.ndarray:
        vs = self.product_vectors()
        return sum(np.outer(v, v) for v in vs)


def tiles_upb() -> ProductVectorFamily:
    """The five tiles vectors on R^3 x R^3 (all real)."""
    e = np.eye(3)
    s2 = np.sqrt(2.0)
    u = (e[0] + e[1] + e[2]) / np.sqrt(3.0)
    return ProductVectorFamily(pairs=(
        (e[0], (e[0] - e[1]) / s2),
        ((e[0] - e[1]) / s2, e[2]),
        (e[2], (e[1] - e[2]) / s2),
        ((e[1] - e[2]) / s2, e[0]),
        (u, u),
    ))


def upb_state(family: ProductVectorFamily | None = None) -> np.ndarray:
    """Normalized projector onto the orthocomplement of the family's span.

    For the tiles family: eigenvalues {0 x5, 1/4 x4}, trace one, supported on
    the ss block (every P_i is a product of symmetric operators), and
    entangled because no product vector lies in its range.
    """
    family = family if family is not None else tiles_upb()
    da, db = family.dims
    d = da * db
    comp = np.eye(d) - family.span_projector()
    rank = d - len(family)
    if rank <= 0:
        raise DimensionMismatch("family spans the whole space; no complement state")
    return comp / rank


def unextendibility_margin(family: ProductVectorFamily, seed: int) -> float:
    """min over unit product vectors of sum_i <x o y, v_i>^2.

    Strictly positive iff no product vector is orthogonal to the whole
    family, i.e. iff the family is unextendible.  Computed by the shared
    alternating product-form optimizer on the span projector, with
    MARGIN_RESTARTS restarts.
    """
    params = FeasibilityParams(seed=seed, restarts=MARGIN_RESTARTS)
    val, _, _ = product_form_extremum(family.span_projector(), family.dims, params,
                                      minimize=True, stream=_STREAM_MARGIN)
    return float(val)


def separating_max_cone_form(family: ProductVectorFamily | None = None, seed: int = 0):
    """A form in the maximal cone that the complement state separates from boxtimes.

    With c the unextendibility margin and s = SEPARATION_SAFETY,
    X = sum_i P_i - (1 - s) c I is nonnegative on every product effect
    (q(x, y) >= s c > 0) yet pairs negatively with the complement state
    rho: <rho, X> = -(1 - s) c.  Since rho is a shadow effect (positive and
    ss-supported), no positive global state can have X as its shadow.
    Returns (X, rho, margin).
    """
    family = family if family is not None else tiles_upb()
    margin = unextendibility_margin(family, seed=seed)
    if margin <= 0:
        raise ValueError("family is extendible; no separation available")
    da, db = family.dims
    x = family.span_projector() - (1 - SEPARATION_SAFETY) * margin * np.eye(da * db)
    rho = upb_state(family)
    return x, rho, margin
