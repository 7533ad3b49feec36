"""The shadow projection on states.

A local agent pair only ever sees the pairing of a global state with product
effects, so the observable content of a state W is its shadow: the component
of W in the product of the one-factor symmetric operator spaces.  For real
matrices this projection is the factor-wise symmetrizer (partial-transpose
averaging applied to every factor); its kernel on symmetric operators is
spanned by the ``kernel_index`` rows of the grading basis (for two factors
the aa block), and states differing by a kernel element are locally
indistinguishable.

Shadows are kept in ambient coordinates (D x D matrices supported on the
shadow) rather than as abstract tensors, so positivity tests and cone oracles
reuse the same matrix type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import grading_basis, operand
from .errors import SupportViolation
from .linalg import max_norm

SHADOW_SUPPORT_TOL = 1e-9


def _partial_transpose(w: np.ndarray, dims: tuple[int, ...], factor: int) -> np.ndarray:
    """:func:`partial_transpose` for a float matrix or stack whose dims are
    checked."""
    lead = w.ndim - 2
    t = np.swapaxes(w.reshape(w.shape[:lead] + dims + dims),
                    lead + factor, lead + len(dims) + factor)
    return t.reshape(w.shape)


def partial_transpose(w: np.ndarray, dims, factor: int) -> np.ndarray:
    """Transpose of one tensor factor of an operator on a product space."""
    return _partial_transpose(*operand(w, dims), factor)


def local_shadow_matrix(w: np.ndarray, dims) -> np.ndarray:
    """Factor-wise symmetrization of W: average W with each partial transpose.

    This is the orthogonal projection onto the product of the one-factor
    symmetric subspaces, computed without materializing any block basis.
    W may be one (D, D) matrix or an (R, D, D) stack; each matrix of a stack
    gets the same bits as it would alone.
    """
    return _symmetrize(*operand(w, dims, stack=True))


def _symmetrize(w: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """:func:`local_shadow_matrix` of a float array whose dims are checked."""
    for k in range(len(dims)):
        w = (w + _partial_transpose(w, dims, k)) / 2
    return w


def require_shadow_support(m: np.ndarray, dims,
                           parties: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """(M as a float array, dims as ints): the package's one gate for
    shadow-space operands.

    Raises DimensionMismatch unless M and dims pass
    :func:`~ltshadow.blocks.operand` (with ``parties`` factors, when given).
    Raises SupportViolation unless the max-norm of the component of M
    outside the shadow (all-symmetric) subspace is at most
    SHADOW_SUPPORT_TOL * (1 + ||M||_max).
    """
    m, dims = operand(m, dims, parties=parties)
    defect = max_norm(m - _symmetrize(m, dims))
    if defect > SHADOW_SUPPORT_TOL * (1 + max_norm(m)):
        raise SupportViolation(
            f"matrix is not supported on the shadow subspace (defect {defect:.3e})"
        )
    return m, dims


@dataclass(frozen=True)
class ShadowState:
    """A state as local agents see it: a shadow-supported matrix plus metadata.

    ``kernel_part``, when known, is W - op for a symmetric matrix W whose
    shadow this is: the part of W that local agents cannot see.  op +
    kernel_part = W, so when W is a state it is a positive point of the
    fiber, where :func:`~ltshadow.fiber.sample_fiber` starts its walk.
    """

    op: np.ndarray
    dims: tuple[int, ...]
    kernel_part: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        op, dims = require_shadow_support(self.op, self.dims)
        op.flags.writeable = False
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "dims", dims)

    @property
    def trace(self) -> float:
        return float(np.trace(self.op))


def lt_state(w: np.ndarray, dims) -> ShadowState:
    """Shadow of a state W on any number of factors (the identity for one).

    For symmetric W it keeps W - shadow, which lies in the span of the
    ``kernel_index`` rows, as ``kernel_part``, unchecked.  A projection is
    shadow-supported, so the support test of ``ShadowState(...)`` is skipped.
    """
    w, dims = operand(w, dims)
    op = _symmetrize(w, dims)
    symmetric = max_norm(w - w.T) <= 1e-12 * (1 + max_norm(w))
    state = object.__new__(ShadowState)
    op.flags.writeable = False
    for name, value in (("op", op), ("dims", dims),
                        ("kernel_part", w - op if symmetric else None)):
        object.__setattr__(state, name, value)
    return state


def defining_system_shadow(w: np.ndarray, dims) -> np.ndarray:
    """The shadow of W, or of each matrix of an (R, D, D) stack, from the
    defining linear system.

    Solves for the matrix M in the span of the products a_1 x ... x a_n of
    one-factor symmetric basis elements (the all-s rows of the grading
    basis) whose pairings with every such product match those of W:
    trace_inner(M, a_1 x ... x a_n) = trace_inner(W, a_1 x ... x a_n).
    Deliberately ignorant of the symmetrizer implementation.  A stack is
    solved with all right-hand sides together; each matrix of it gets the
    same bits as it would alone (matrix-vector products per matrix, and one
    LU factorization of the Gram matrix).
    """
    w, dims = operand(w, dims, stack=True)
    flat = w.reshape(-1, w.shape[-1] ** 2)
    products = grading_basis(dims).rows("s" * len(dims))
    gram = products @ products.T
    rhs = (products @ flat[:, :, None])[:, :, 0]
    coeff = np.linalg.solve(gram, rhs.T).T
    return (coeff[:, None, :] @ products).reshape(w.shape)
