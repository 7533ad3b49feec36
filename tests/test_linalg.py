"""Operator-core contracts: trace pairing, splitting, kron, eigensolver."""

from pathlib import Path

import numpy as np
import pytest
from matrix_helpers import antisym_part, random_symmetric

import ltshadow
from ltshadow.errors import DimensionMismatch
from ltshadow.linalg import (
    eigh,
    eigvalsh,
    kron,
    max_norm,
    min_eigenvalue,
    rng_from_seed,
    sym_part,
    trace_inner,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])  # J(x, y) = (-y, x)
X = np.array([1.0, 0.0])
Y = np.array([0.0, 1.0])
XY = np.outer(X, Y)  # x (.) y


def test_trace_inner_identity():
    assert trace_inner(np.eye(2), np.eye(2)) == 2.0


def test_trace_inner_antisym_generator():
    # Tr(J J^t) = -Tr(J^2) = Tr(1) = 2
    assert trace_inner(J, J) == pytest.approx(2.0, abs=1e-15)


def test_trace_inner_sym_antisym_orthogonal():
    s = sym_part(XY)
    t = antisym_part(XY)
    assert trace_inner(s, t) == pytest.approx(0.0, abs=1e-15)


def test_trace_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_inner(np.eye(2), np.eye(3))


def test_sym_part_of_rank_one():
    # S x = y/2 and S y = x/2
    s = sym_part(XY)
    np.testing.assert_allclose(s @ X, Y / 2, atol=1e-15)
    np.testing.assert_allclose(s @ Y, X / 2, atol=1e-15)


def test_sym_part_fixed_point_and_kills_antisym():
    m = random_symmetric(4, rng_from_seed(1))
    np.testing.assert_array_equal(sym_part(m), m)
    np.testing.assert_array_equal(sym_part(J), np.zeros((2, 2)))


def test_antisym_part_of_rank_one():
    # T x = -y/2 and T y = x/2
    t = antisym_part(XY)
    np.testing.assert_allclose(t @ X, -Y / 2, atol=1e-15)
    np.testing.assert_allclose(t @ Y, X / 2, atol=1e-15)


def test_antisym_part_trivial_cases():
    m = random_symmetric(3, rng_from_seed(2))
    assert max_norm(antisym_part(m)) == 0.0
    np.testing.assert_array_equal(antisym_part(J), J)


@pytest.mark.parametrize("dim", range(2, 10))
def test_split_reconstructs_exactly(dim):
    rng = rng_from_seed(3, dim)
    for _ in range(20):
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        assert max_norm(a - (sym_part(a) + antisym_part(a))) <= 1e-15 * (1 + max_norm(a))
        assert abs(trace_inner(sym_part(a), antisym_part(b))) <= 1e-12 * dim


def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_projector_eigenvector():
    v = np.kron(X, Y)
    p = kron(np.outer(X, X), np.outer(Y, Y))
    np.testing.assert_allclose(p @ v, v, atol=1e-15)


def test_kron_associative():
    # same layout either way; entries agree up to one rounding of the product
    rng = rng_from_seed(6)
    a, b, c = (rng.standard_normal((d, d)) for d in (2, 3, 2))
    lhs, rhs = kron(kron(a, b), c), kron(a, kron(b, c))
    assert max_norm(lhs - rhs) <= 1e-15 * (1 + max_norm(lhs))


def test_kron_trace_multiplicative():
    jj = kron(J, J)
    assert trace_inner(jj, jj) == pytest.approx(4.0, abs=1e-14)
    rng = rng_from_seed(4)
    for _ in range(10):
        a, b = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 2, 2))
        lhs = trace_inner(kron(a[0], b[0]), kron(a[1], b[1]))
        rhs = trace_inner(a[0], a[1]) * trace_inner(b[0], b[1])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_eigh_trivial():
    np.testing.assert_allclose(eigh(np.eye(2))[0], [1.0, 1.0])
    np.testing.assert_allclose(eigh(np.diag([-1.0, 3.0]))[0], [-1.0, 3.0])


def test_eigh_decomposes_symmetric_part():
    # XY = x (.) y is not symmetric; its symmetric part has eigenvalues -1/2, 1/2.
    w, v = eigh(XY)
    np.testing.assert_array_equal(w, np.linalg.eigh(sym_part(XY))[0])
    np.testing.assert_allclose(w, [-0.5, 0.5], atol=1e-15)
    np.testing.assert_array_equal(eigvalsh(XY), w)
    rng = rng_from_seed(7)
    a = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(eigvalsh(a), eigvalsh(sym_part(a)))
    np.testing.assert_array_equal(eigvalsh(J), [0.0, 0.0])


def test_eigh_contract_on_random_matrices():
    """Reconstruction and orthonormality over 1000 random symmetric matrices."""
    count = 0
    for dim in range(2, 10):
        rng = rng_from_seed(5, dim)
        for _ in range(125):
            m = random_symmetric(dim, rng)
            w, v = eigh(m)
            assert np.all(np.diff(w) >= 0)
            assert max_norm(m - (v * w) @ v.T) <= 1e-10 * dim
            assert max_norm(v.T @ v - np.eye(dim)) <= 1e-10
            count += 1
    assert count == 1000


def test_eigh_stack_matches_single_solves():
    rng = rng_from_seed(8)
    for dim in (2, 4, 9):
        stack = rng.standard_normal((6, dim, dim))
        w, v = eigh(stack)
        ws = eigvalsh(stack)
        for r in range(6):
            wr, vr = eigh(stack[r])
            np.testing.assert_array_equal(w[r], wr)
            np.testing.assert_array_equal(v[r], vr)
            np.testing.assert_array_equal(ws[r], eigvalsh(stack[r]))


def test_eigh_epr_shadow():
    """The shadow of the real EPR state has the -1/4 eigenpair."""
    from ltshadow.shadow import local_shadow_matrix

    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    w = local_shadow_matrix(np.outer(z, z), (2, 2))
    vals, vecs = eigh(w)
    assert vals[0] == pytest.approx(-0.25, abs=1e-12)
    target = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    assert abs(abs(vecs[:, 0] @ target) - 1.0) <= 1e-10


def test_is_psd():
    assert min_eigenvalue(np.eye(4)) >= -1e-9
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    assert min_eigenvalue(np.outer(z, z)) >= -1e-9
    assert not min_eigenvalue(np.diag([1.0, -1e-3])) >= -1e-9
    from ltshadow.shadow import local_shadow_matrix

    assert not min_eigenvalue(local_shadow_matrix(np.outer(z, z), (2, 2))) >= -1e-9


def test_linalg_is_the_only_eigensolver_caller():
    package = Path(ltshadow.__file__).parent
    callers = sorted(path.name for path in package.glob("*.py")
                     if "np.linalg.eig" in path.read_text(encoding="utf-8"))
    assert callers == ["linalg.py"]


@pytest.mark.parametrize("seed", [1.5, 1.0, -1, True, False, "3", None])
def test_seeds_that_are_not_non_negative_integers_are_refused(seed):
    """A float, a negative number, a bool, a string or None would otherwise
    run as some other seed, or fail only at an oracle's first draw."""
    from ltshadow.cones import FeasibilityParams

    with pytest.raises(ValueError, match="seed"):
        rng_from_seed(seed)
    with pytest.raises(ValueError, match="seed"):
        FeasibilityParams(seed=seed)


def test_numpy_integer_seeds_give_the_int_seeds_bits():
    want = rng_from_seed(7, 2).standard_normal(4)
    for seed in (np.int64(7), np.uint32(7)):
        assert np.array_equal(rng_from_seed(seed, 2).standard_normal(4), want)
