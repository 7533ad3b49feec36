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
