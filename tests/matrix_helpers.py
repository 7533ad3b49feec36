"""Matrices and closed forms that only the tests use."""

import numpy as np

from ltshadow.blocks import grading_basis, operand
from ltshadow.linalg import eigvalsh, max_norm, sym_part
from ltshadow.processes import LinearProcess, to_coords
from ltshadow.shadow import local_shadow_matrix

INDISTINGUISHABILITY_TOL = 1e-9


def antisym_part(a):
    """Orthogonal projection onto antisymmetric matrices: (a - a^T)/2."""
    a = np.asarray(a, dtype=float)
    return (a - a.T) / 2


def random_symmetric(dim, rng):
    return sym_part(rng.standard_normal((dim, dim)))


def expected_sizes(dim_a, dim_b):
    """Closed-form block dimensions."""
    ts_a, ta_a = dim_a * (dim_a + 1) // 2, dim_a * (dim_a - 1) // 2
    ts_b, ta_b = dim_b * (dim_b + 1) // 2, dim_b * (dim_b - 1) // 2
    return {
        "ss": ts_a * ts_b,
        "sa": ts_a * ta_b,
        "as": ta_a * ts_b,
        "aa": ta_a * ta_b,
    }


def random_shadow_matrix(dims, rng):
    """Random symmetric matrix on the shadow rows of the grading basis (iid
    normal coefficients), for any number of factors."""
    basis = grading_basis(dims)
    rows = basis.stacked[basis.shadow_index]
    c = rng.standard_normal(len(rows))
    d = basis.dim
    return (c @ rows).reshape(d, d)


def random_ss_matrix(dim_a, dim_b, rng):
    """Random symmetric matrix supported on the ss block (iid normal coefficients)."""
    return random_shadow_matrix((dim_a, dim_b), rng)


def parity_breaking_map():
    """phi at (2,2): the identity plus 0.5 from the first sa column to the
    first shadow row, so it acts as the identity on symmetric operators."""
    from ltshadow.processes import LinearProcess

    g = grading_basis((2, 2))
    m = np.eye(g.size)
    m[g.shadow_index[0], g.slices["sa"].start] = 0.5
    return LinearProcess((2, 2), (2, 2), m)


def block_sizes(basis):
    """Number of rows of each block of a grading basis."""
    return {p: s.stop - s.start for p, s in basis.slices.items()}


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of the symmetric part."""
    return float(np.sum(np.abs(eigvalsh(m))))


def product_quadratic_value(m: np.ndarray, dims, x: np.ndarray, y: np.ndarray) -> float:
    """q(x, y) = <x o y, M (x o y)> for unit vectors on the two factors."""
    m, (da, db) = operand(m, dims, parties=2)
    m4 = m.reshape(da, db, da, db)
    return float(np.einsum("ijkl,i,j,k,l->", m4, x, y, x, y))


def locally_indistinguishable(w1: np.ndarray, w2: np.ndarray, dims,
                              tol: float = INDISTINGUISHABILITY_TOL) -> bool:
    """True iff the two states have the same shadow within tol.

    The tolerance is relative to the larger input (max-norm), so the answer
    does not change when both states are scaled by the same factor.
    """
    s1 = local_shadow_matrix(w1, dims)
    s2 = local_shadow_matrix(w2, dims)
    return max_norm(s1 - s2) <= tol * max(max_norm(w1), max_norm(w2))


def aa_projection(w: np.ndarray, dims) -> np.ndarray:
    """Component of W in the shadow kernel (the ``kernel_index`` rows of the
    grading basis): its symmetric part minus its shadow."""
    return sym_part(w) - local_shadow_matrix(w, dims)


def process_from_function(fn, in_dims, out_dims) -> LinearProcess:
    """Materialize a matrix from the action of fn on every input basis element."""
    gin = grading_basis(in_dims)
    gout = grading_basis(out_dims)
    images = np.stack([fn(e) for e in gin.stacked.reshape(-1, gin.dim, gin.dim)])
    return LinearProcess(gin.dims, gout.dims, to_coords(images, gout.dims).T)
