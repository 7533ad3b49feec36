"""Grading basis construction, block coordinates, and projections."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from basis_reference import reference_basis
from matrix_helpers import (
    antisym_part,
    block_sizes,
    expected_sizes,
    random_ss_matrix,
    random_symmetric,
)

import ltshadow
from ltshadow.blocks import factor_dims, grading_basis, operand, project_block
from ltshadow.errors import DimensionMismatch
from ltshadow.linalg import kron, max_norm, rng_from_seed, sym_part, trace_inner
from ltshadow.processes import from_coords, to_coords
from ltshadow.shadow import local_shadow_matrix

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def test_sizes_2_2():
    basis = grading_basis((2, 2))
    assert block_sizes(basis) == {"ss": 9, "sa": 3, "as": 3, "aa": 1}
    # the unique aa element is (J x J)/2 up to sign
    el = basis.block("aa")[0]
    target = kron(J, J) / 2
    assert min(max_norm(el - target), max_norm(el + target)) <= 1e-15


def test_sizes_2_3():
    assert block_sizes(grading_basis((2, 3))) == {"ss": 18, "sa": 9, "as": 6, "aa": 3}


def test_sizes_1_1():
    assert block_sizes(grading_basis((1, 1))) == {"ss": 1, "sa": 0, "as": 0, "aa": 0}


@pytest.mark.parametrize("da", [1, 2, 3, 4])
@pytest.mark.parametrize("db", [1, 2, 3, 4])
def test_dimension_audit(da, db):
    basis = grading_basis((da, db))
    sizes = block_sizes(basis)
    assert sizes == expected_sizes(da, db)
    d = da * db
    assert sum(sizes.values()) == d * d
    assert sizes["ss"] + sizes["aa"] == d * (d + 1) // 2


@pytest.mark.parametrize("da,db", [(1, 2), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_gram_matrix_is_identity(da, db):
    basis = grading_basis((da, db))
    g = basis.stacked @ basis.stacked.T
    assert max_norm(g - np.eye(g.shape[0])) <= 1e-10


def test_cross_block_orthogonality():
    basis = grading_basis((2, 3))
    for a in basis.patterns:
        for b in basis.patterns:
            if a == b:
                continue
            for x in basis.block(a):
                for y in basis.block(b):
                    assert abs(trace_inner(x, y)) <= 1e-12


def test_decompose_epr_projector():
    """z (.) z = shadow part - T x T, with T the antisymmetrized x (.) y."""
    basis = grading_basis((2, 2))
    assert np.linalg.norm(basis.rows("aa") @ epr_projector().ravel()) > 0.4
    t = antisym_part(np.outer([1.0, 0.0], [0.0, 1.0]))
    np.testing.assert_allclose(
        project_block(epr_projector(), basis, "aa"), -kron(t, t), atol=1e-14
    )


def test_decompose_product_state_has_no_kernel_part():
    rng = rng_from_seed(11)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(2)
    v /= np.linalg.norm(v)
    m = kron(np.outer(u, u), np.outer(v, v))
    basis = grading_basis((2, 2))
    for name in ("sa", "as", "aa"):
        assert np.linalg.norm(basis.rows(name) @ m.ravel()) <= 1e-12


def test_decompose_identity_pure_ss():
    basis = grading_basis((2, 2))
    for name in ("sa", "as", "aa"):
        assert np.linalg.norm(basis.rows(name) @ np.eye(4).ravel()) == 0.0


def test_decompose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        to_coords(np.eye(5), (2, 2))
    with pytest.raises(DimensionMismatch):
        from_coords(np.zeros(15), (2, 2))


def test_parseval():
    rng = rng_from_seed(12)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        coords = to_coords(m, (2, 3))
        assert float(coords @ coords) == pytest.approx(trace_inner(m, m), rel=1e-12)


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
def test_recompose_round_trip_symmetric(da, db):
    rng = rng_from_seed(13, da, db)
    for _ in range(100):
        m = random_symmetric(da * db, rng)
        back = from_coords(to_coords(m, (da, db)), (da, db))
        assert max_norm(back - m) <= 1e-10


def test_recompose_zero_and_unit_aa():
    basis = grading_basis((2, 2))
    zero = to_coords(np.zeros((4, 4)), (2, 2))
    assert max_norm(from_coords(zero, (2, 2))) == 0.0
    coords = to_coords(np.zeros((4, 4)), (2, 2))
    coords[basis.slices["aa"].start] = 1.0
    el = from_coords(coords, (2, 2))
    target = kron(J, J) / 2
    assert min(max_norm(el - target), max_norm(el + target)) <= 1e-15


def test_project_block_epr():
    basis = grading_basis((2, 2))
    w = project_block(epr_projector(), basis, "ss")
    # closed form: (P_x x P_y + P_y x P_x)/2 + S x S
    s = sym_part(np.outer([1.0, 0.0], [0.0, 1.0]))
    closed = 0.5 * (kron(np.diag([1.0, 0]), np.diag([0, 1.0]))
                    + kron(np.diag([0, 1.0]), np.diag([1.0, 0]))) + kron(s, s)
    np.testing.assert_allclose(w, closed, atol=1e-14)


def test_project_block_symmetric_has_no_mixed_parts():
    basis = grading_basis((2, 3))
    m = random_symmetric(6, rng_from_seed(14))
    assert max_norm(project_block(m, basis, "sa")) <= 1e-12
    assert max_norm(project_block(m, basis, "as")) <= 1e-12


def test_projections_sum_to_identity_and_idempotent():
    basis = grading_basis((2, 3))
    rng = rng_from_seed(15)
    m = rng.standard_normal((6, 6))
    total = sum(project_block(m, basis, name) for name in basis.patterns)
    assert max_norm(total - m) <= 1e-12
    for name in basis.patterns:
        p = project_block(m, basis, name)
        assert max_norm(project_block(p, basis, name) - p) <= 1e-12


@pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
def test_ss_projection_matches_factor_symmetrizer(da, db):
    """Cross-module check: the ss projector equals the factor-wise symmetrizer."""
    basis = grading_basis((da, db))
    rng = rng_from_seed(16, da, db)
    for _ in range(25):
        m = rng.standard_normal((da * db, da * db))
        np.testing.assert_allclose(
            project_block(m, basis, "ss"),
            local_shadow_matrix(m, (da, db)),
            atol=1e-12,
        )


def test_random_ss_matrix_is_ss_supported():
    basis = grading_basis((3, 3))
    m = random_ss_matrix(3, 3, rng_from_seed(17))
    assert max_norm(m - project_block(m, basis, "ss")) <= 1e-13
    assert max_norm(m - m.T) <= 1e-13


def test_blocks_is_the_only_module_that_builds_basis_elements():
    package = Path(ltshadow.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if "_factor_rows" in path.read_text(encoding="utf-8"))
    assert users == ["blocks.py"]


@pytest.mark.parametrize("dims", [(1,), (2, 2), (2, 3), (3, 2), (1, 4), (4, 1, 2), (2, 2, 2),
                                  (3, 2, 2), (2, 3, 4), (3, 3, 3)])
def test_grading_basis_matches_the_element_by_element_reference(dims):
    """Every array of the basis, its patterns and its slices are those of the
    kron-chain reference, bit for bit."""
    g, ref = grading_basis(dims), reference_basis(dims)
    assert (g.dims, g.patterns, g.slices) == (ref.dims, ref.patterns, ref.slices)
    for name in ("stacked", "shadow_index", "kernel_index", "odd"):
        a, b = getattr(g, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert a.flags.c_contiguous and not a.flags.writeable


def test_a_cold_build_peaks_near_the_size_of_stacked(monkeypatch):
    """Blocks are written straight into one preallocated array: a cold (3, 3, 3)
    build holds at most half of stacked again in temporaries."""
    monkeypatch.setattr(ltshadow.blocks, "_BASES", {})
    tracemalloc.start()
    try:
        g = grading_basis((3, 3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * g.stacked.nbytes


@pytest.mark.parametrize("dims", [(1,), (2, 2), (2, 3), (2, 2, 2), (3, 2, 2)])
def test_part_indices_follow_the_patterns(dims):
    """The shadow and kernel row indices and the odd flags mark the rows of
    the patterns with no, an even nonzero and an odd number of a's, and are
    read-only."""
    g = grading_basis(dims)

    def rows(keep):
        return [r for p in g.patterns if keep(p.count("a"))
                for r in range(g.slices[p].start, g.slices[p].stop)]

    for index, keep in ((g.shadow_index, lambda a: a == 0),
                        (g.kernel_index, lambda a: a > 0 and a % 2 == 0),
                        (np.flatnonzero(g.odd), lambda a: a % 2 == 1)):
        assert index.tolist() == rows(keep)
    for part in (g.shadow_index, g.kernel_index, g.odd):
        with pytest.raises(ValueError):
            part[:1] = 0


@pytest.mark.parametrize("dims, parties, expected", [
    ((2, 3), None, (2, 3)), ([2, 2.0], 2, (2, 2)), (np.array([3, 3]), 2, (3, 3)), ((1,), 1, (1,)),
])
def test_factor_dims_accepts_integral_values(dims, parties, expected):
    out = factor_dims(dims, parties)
    assert out == expected and all(type(d) is int for d in out)


@pytest.mark.parametrize("dims, parties", [
    ((), None), ((0, 2), None), ((2.5, 2), None), ((True, 4), None), (("2", 2), None),
    ((float("nan"),), None), ((float("inf"), 2), None), (2, None), (None, None),
    ((2, 2, 2), 2), ((4,), 2),
])
def test_factor_dims_rejects(dims, parties):
    with pytest.raises(DimensionMismatch):
        factor_dims(dims, parties)


def test_grading_basis_takes_lists_and_refuses_fractional_dims():
    assert grading_basis([2, 3]) is grading_basis((2, 3))
    with pytest.raises(DimensionMismatch):
        grading_basis((2.5, 2))


@pytest.mark.parametrize("true", [True, np.bool_(True)])
def test_bool_dims_are_refused_warm_and_cold(true):
    """True equals 1 and hashes like it: a cached (1, 4) basis must not
    answer for (True, 4), before or after the cache holds it."""
    ltshadow.blocks._BASES.pop((1, 4), None)
    with pytest.raises(DimensionMismatch):
        grading_basis((true, 4))
    assert grading_basis((1, 4)).dims == (1, 4)
    with pytest.raises(DimensionMismatch):
        grading_basis((true, 4))
    with pytest.raises(DimensionMismatch):
        to_coords(np.eye(4), (true, 4))


def test_grading_basis_is_one_object_per_factor_dims():
    g = grading_basis((2, 2))
    for dims in ([2, 2], (2.0, 2), (np.int64(2), 2), np.array([2, 2])):
        assert grading_basis(dims) is g


@pytest.mark.parametrize("dims", [(2, 2), [3], (2.0, 3), (1, 2, 2)])
def test_operand_takes_a_matrix_and_a_stack_only_when_asked(dims):
    d = math.prod(int(k) for k in dims)
    rows = np.eye(d, dtype=int).tolist()
    x, out = operand(rows, dims)
    assert x.dtype == np.float64 and x.shape == (d, d)
    assert out == tuple(map(int, dims)) and all(type(k) is int for k in out)
    stack = np.zeros((3, d, d), dtype=np.float32)
    x, _ = operand(stack, dims, stack=True)
    assert x.dtype == np.float64 and x.shape == (3, d, d)
    with pytest.raises(DimensionMismatch):
        operand(stack, dims)


@pytest.mark.parametrize("x, dims, stack, parties", [
    (np.ones(4), (2, 2), True, None),              # 1-D
    (np.zeros((1, 2, 4, 4)), (2, 2), True, None),  # 4-D
    (np.zeros((4, 2)), (2, 2), False, None),       # not square
    (np.zeros((3, 4, 2)), (2, 2), True, None),     # a stack of non-square matrices
    (np.eye(6), (2, 2), False, None),              # wrong D
    (np.eye(4), (2, 2), False, 3),                 # wrong number of factors
    (np.eye(8), (2, 2, 2), False, 2),
    (np.eye(4), (2.5, 2), False, None),            # the dims rule runs first
])
def test_operand_refuses(x, dims, stack, parties):
    with pytest.raises(DimensionMismatch):
        operand(x, dims, stack=stack, parties=parties)


@pytest.mark.parametrize("w", [np.eye(4), np.zeros((2, 6, 6))])
def test_project_block_refuses_other_shapes(w):
    with pytest.raises(DimensionMismatch):
        project_block(w, grading_basis((2, 3)), "ss")
