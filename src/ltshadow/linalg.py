"""Dense real operator algebra.

Everything else in the package is built on the operations here: the trace
inner product Tr(a b^T), the symmetric/antisymmetric splitting of a real
matrix, Kronecker products, a symmetric eigensolver, and seeded random
matrices.  Operators are plain float64 numpy arrays.

All randomness flows through :func:`rng_from_seed`, which builds a Philox
(counter-based) generator from an explicit 64-bit seed, so every stochastic
result in the package is reproducible from the seeds recorded in its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigenConvergenceError

# Relative symmetry tolerance: a matrix M counts as symmetric when
# ||M - M^T||_max <= SYMMETRY_RTOL * (1 + ||M||_max).
SYMMETRY_RTOL = 1e-10


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
    """Orthogonal projection onto symmetric matrices: (a + a^T)/2."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2


def antisym_part(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto antisymmetric matrices: (a - a^T)/2."""
    a = np.asarray(a, dtype=float)
    return (a - a.T) / 2


def symmetry_defect(a: np.ndarray) -> float:
    return max_norm(a - a.T)


def is_symmetric(a: np.ndarray, rtol: float = SYMMETRY_RTOL) -> bool:
    return symmetry_defect(a) <= rtol * (1 + max_norm(a))


def require_symmetric(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not is_symmetric(a):
        raise ValueError(f"{what} is not symmetric (defect {symmetry_defect(a):.3e})")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product.  Tr((a@b)(c@d)^T) = Tr(a c^T) Tr(b d^T)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition M = V diag(w) V^T with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T

    def reconstruction_error(self, m: np.ndarray) -> float:
        return max_norm(np.asarray(m, dtype=float) - self.reconstruct())

    def orthonormality_defect(self) -> float:
        v = self.eigenvectors
        return max_norm(v.T @ v - np.eye(v.shape[1]))


def eig_sym(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The input is symmetrized (within the symmetry tolerance) before the
    solve so that the decomposition invariants hold exactly as stated.
    """
    m = require_symmetric(np.asarray(m, dtype=float), "eig_sym input")
    try:
        w, v = np.linalg.eigh(sym_part(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise EigenConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def min_eigenvalue(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    try:
        return float(np.linalg.eigvalsh(sym_part(m))[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenConvergenceError(f"symmetric eigensolver failed: {exc}") from exc


def is_psd(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the minimum eigenvalue of the (symmetric) input is >= -tol."""
    return min_eigenvalue(m) >= -tol


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    return float(np.sum(np.abs(np.linalg.eigvalsh(sym_part(m)))))


# ---------------------------------------------------------------------------
# Seeded randomness (Philox: counter-based, stable across platforms)
# ---------------------------------------------------------------------------


def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Generator for an explicit 64-bit seed plus an optional stream path.

    Derived streams (restart index, chain index, ...) are produced with
    SeedSequence spawn keys, so parallel sub-searches are reproducible from
    (seed, stream) alone.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def random_symmetric(dim: int, rng: np.random.Generator) -> np.ndarray:
    return sym_part(rng.standard_normal((dim, dim)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart, trace-normalized)."""
    a = rng.standard_normal((dim, dim))
    m = a @ a.T + 1e-6 * np.eye(dim)
    return m / np.trace(m)


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))
