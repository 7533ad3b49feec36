"""Dense real operator algebra.

Everything else in the package is built on the operations here: the trace
inner product Tr(a b^T), the symmetric part of a real matrix, Kronecker
products (of matrices, and row by row of vector stacks), the package's only
symmetric eigensolver, and seeded random matrices.  Operators are plain
float64 numpy arrays.

:func:`eigh` and :func:`eigvalsh` decompose the symmetric part of a matrix,
or of every matrix of an (R, d, d) stack, so callers never symmetrize by
hand.  They look numpy's solver up at call time and let
``numpy.linalg.LinAlgError`` propagate (the CLI maps it to exit 5).

All randomness flows through :func:`rng_from_seed`, which builds a Philox
(counter-based) generator from an explicit 64-bit seed, so every stochastic
result in the package is reproducible from the seeds recorded in its output.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-abs norm; 0.0 for empty input."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product Tr(a b^T) = sum_ij a_ij b_ij.

    Symmetric and bilinear; the symmetric and antisymmetric subspaces are
    orthogonal under it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"trace_inner: shapes {a.shape} and {b.shape} differ")
    return float(np.sum(a * b))


def sym_part(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto symmetric matrices: (a + a^T)/2, per matrix
    of a stack."""
    a = np.asarray(a, dtype=float)
    return (a + a.swapaxes(-1, -2)) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product.  Tr((a@b)(c@d)^T) = Tr(a c^T) Tr(b d^T)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def product_vectors(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The rows x_i o y_i (Kronecker products) of the pairs (xs[i], ys[i])."""
    return (xs[:, :, None] * ys[:, None, :]).reshape(len(xs), -1)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of the symmetric
    part of a matrix, or of each matrix of an (R, d, d) stack."""
    return np.linalg.eigh(sym_part(m))


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part, as :func:`eigh`."""
    return np.linalg.eigvalsh(sym_part(m))


def min_eigenvalue(m: np.ndarray) -> float:
    return float(eigvalsh(m)[0])


# ---------------------------------------------------------------------------
# Seeded randomness (Philox: counter-based, stable across platforms)
# ---------------------------------------------------------------------------


def check_seed(seed) -> int:
    """The seed as a Python int; ValueError unless a non-negative integer."""
    if not isinstance(seed, bool):
        try:
            value = operator.index(seed)
        except TypeError:
            pass
        else:
            if value >= 0:
                return value
    raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def check_tol(tol) -> float:
    """The tolerance as a float; ValueError for a bool or a tol not finite and positive."""
    if isinstance(tol, bool) or not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return float(tol)


def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Generator for an explicit 64-bit seed plus an optional stream path.

    Derived streams (a sub-search's tag, a generator attempt, a report
    case, ...) come from SeedSequence spawn keys, so each stochastic
    sub-search is reproducible from (seed, stream) alone; the restarts of
    one product-form search draw their starts in order from one stream.
    The seed must be a non-negative integer (a numpy integer will do); a
    float, a bool or a negative number raises ValueError rather than
    running as some other seed.
    """
    ss = np.random.SeedSequence(entropy=check_seed(seed),
                                spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart, trace-normalized)."""
    a = rng.standard_normal((dim, dim))
    m = a @ a.T + 1e-6 * np.eye(dim)
    return m / np.trace(m)


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))
