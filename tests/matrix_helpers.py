"""Matrices and closed forms that only the tests use."""

import numpy as np

from ltshadow.blocks import grading_basis
from ltshadow.linalg import sym_part


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


def random_ss_matrix(dim_a, dim_b, rng):
    """Random symmetric matrix supported on the ss block (iid normal coefficients)."""
    basis = grading_basis((dim_a, dim_b))
    c = rng.standard_normal(basis.sizes["ss"])
    d = basis.dim
    return (c @ basis.rows("ss")).reshape(d, d)
