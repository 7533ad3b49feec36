"""Shadow projection: closed form, defining-system oracle, kernel, fibers."""

import math

import numpy as np
import pytest
from matrix_helpers import aa_projection, locally_indistinguishable

from ltshadow import blocks, shadow
from ltshadow.blocks import grading_basis
from ltshadow.errors import DimensionMismatch, SupportViolation
from ltshadow.linalg import kron, max_norm, random_density, rng_from_seed, sym_part
from ltshadow.shadow import (
    ShadowState,
    defining_system_shadow,
    local_shadow_matrix,
    lt_state,
    partial_transpose,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def epr_shadow_closed_form():
    s = sym_part(np.outer([1.0, 0.0], [0.0, 1.0]))
    px, py = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return 0.5 * (kron(px, py) + kron(py, px)) + kron(s, s)


def test_partial_transpose_roundtrip():
    rng = rng_from_seed(20)
    m = rng.standard_normal((6, 6))
    for k in (0, 1):
        again = partial_transpose(partial_transpose(m, (2, 3), k), (2, 3), k)
        np.testing.assert_array_equal(again, m)
    both = partial_transpose(partial_transpose(m, (2, 3), 0), (2, 3), 1)
    np.testing.assert_array_equal(both, m.T)


def test_dims_are_checked_once_per_shadow(monkeypatch):
    """local_shadow_matrix checks the dims once, not again per factor;
    partial_transpose still checks them for its own callers."""
    checks = []
    check = shadow.operand
    monkeypatch.setattr(shadow, "operand",
                        lambda w, dims, **kw: checks.append(dims) or check(w, dims, **kw))
    m = rng_from_seed(24).standard_normal((12, 12))
    out = local_shadow_matrix(m, (2, 3, 2))
    assert len(checks) == 1
    for k in range(3):
        np.testing.assert_array_equal(partial_transpose(out, (2, 3, 2), k), out)
    with pytest.raises(DimensionMismatch):
        partial_transpose(np.eye(6), (2, 2), 0)
    with pytest.raises(DimensionMismatch):
        local_shadow_matrix(np.eye(6), (2, 2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 3, 2)])
def test_local_shadow_matrix_of_a_stack_is_per_matrix(dims):
    d = int(np.prod(dims))
    ms = rng_from_seed(25, d).standard_normal((7, d, d))
    expected = np.stack([local_shadow_matrix(m, dims) for m in ms])
    np.testing.assert_array_equal(local_shadow_matrix(ms, dims), expected)
    with pytest.raises(DimensionMismatch):
        local_shadow_matrix(ms[:, 1:, 1:], dims)
    with pytest.raises(DimensionMismatch):
        local_shadow_matrix(ms[None], dims)


def test_lt_state_epr():
    state = lt_state(epr_projector(), (2, 2))
    np.testing.assert_allclose(state.op, epr_shadow_closed_form(), atol=1e-14)


def test_lt_state_fixes_product_states():
    rng = rng_from_seed(21)
    u = rng.standard_normal(2); u /= np.linalg.norm(u)
    v = rng.standard_normal(3); v /= np.linalg.norm(v)
    m = kron(np.outer(u, u), np.outer(v, v))
    np.testing.assert_allclose(lt_state(m, (2, 3)).op, m, atol=1e-14)


def test_lt_state_kernel_invariance():
    """Adding any kernel element leaves the shadow unchanged."""
    rng = rng_from_seed(22)
    w = random_density(4, rng)
    k = kron(J, J) / 2
    t = 0.4 * float(np.linalg.eigvalsh(w)[0])
    shifted = w + t * k
    assert np.linalg.eigvalsh(shifted)[0] >= -1e-12  # still a state
    assert max_norm(lt_state(shifted, (2, 2)).op - lt_state(w, (2, 2)).op) <= 1e-14


def test_lt_state_idempotent_and_trace_preserving():
    rng = rng_from_seed(23)
    for dims in ((2, 2), (2, 3), (3, 3)):
        w = random_density(dims[0] * dims[1], rng)
        s = lt_state(w, dims)
        again = lt_state(s.op, dims)
        assert max_norm(again.op - s.op) <= 1e-10
        assert abs(s.trace - np.trace(w)) <= 1e-12


def test_lt_state_checks_the_shape():
    with pytest.raises(DimensionMismatch):
        lt_state(np.eye(4), (2, 3))


def test_shadow_state_rejects_off_support():
    with pytest.raises(SupportViolation):
        ShadowState(op=epr_projector(), dims=(2, 2))  # has an aa component


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_oracle_agrees_on_random_densities(dims):
    d = dims[0] * dims[1]
    for k in range(30):
        rng = rng_from_seed(24, d, k)
        w = random_density(d, rng)
        direct = lt_state(w, dims).op
        oracle = defining_system_shadow(w, dims)
        assert max_norm(direct - oracle) <= 1e-9


def test_oracle_epr_and_maximally_mixed():
    np.testing.assert_allclose(
        defining_system_shadow(epr_projector(), (2, 2)), epr_shadow_closed_form(), atol=1e-12
    )
    eye = np.eye(6) / 6
    np.testing.assert_allclose(defining_system_shadow(eye, (2, 3)), eye, atol=1e-14)


def test_multipartite_single_factor_is_identity():
    rng = rng_from_seed(25)
    w = random_density(3, rng)
    np.testing.assert_array_equal(lt_state(w, (3,)).op, w)


def test_multipartite_product_unchanged():
    rng = rng_from_seed(26)
    ps = [np.outer(v, v) / (v @ v) for v in rng.standard_normal((3, 2))]
    m = kron(kron(ps[0], ps[1]), ps[2])
    np.testing.assert_allclose(lt_state(m, (2, 2, 2)).op, m, atol=1e-14)


def test_multipartite_matches_oracle_three_factors():
    for k in range(5):
        rng = rng_from_seed(27, k)
        w = random_density(8, rng)
        direct = lt_state(w, (2, 2, 2)).op
        oracle = defining_system_shadow(w, (2, 2, 2))
        assert max_norm(direct - oracle) <= 1e-9


def test_locally_indistinguishable():
    rng = rng_from_seed(28)
    w = random_density(4, rng)
    assert locally_indistinguishable(w, w, (2, 2))
    k = kron(J, J) / 2
    t = 0.3 * float(np.linalg.eigvalsh(w)[0])
    assert locally_indistinguishable(w, w + t * k, (2, 2))
    px, py = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert not locally_indistinguishable(kron(px, py), kron(py, px), (2, 2))


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e10])
def test_locally_indistinguishable_is_scale_invariant(scale):
    rng = rng_from_seed(29)
    rho = random_density(9, rng)
    kernel = grading_basis((3, 3)).block("aa")
    k = sum(float(c) * kb for c, kb in zip(rng.standard_normal(4), kernel))
    t = 0.5 * float(np.linalg.eigvalsh(rho)[0]) / max_norm(k)
    assert locally_indistinguishable(scale * rho, scale * (rho + t * k), (3, 3))
    assert not locally_indistinguishable(scale * rho, 2 * scale * rho, (3, 3))


def test_fiber_basis_dimensions():
    (el,) = grading_basis((2, 2)).block("aa")
    target = kron(J, J) / 2
    assert min(max_norm(el - target), max_norm(el + target)) <= 1e-15
    assert len(grading_basis((2, 3)).block("aa")) == 3
    assert len(grading_basis((1, 5)).block("aa")) == 0


def test_fiber_basis_spans_kernel():
    basis = grading_basis((2, 3))
    for k in basis.block("aa"):
        assert max_norm(local_shadow_matrix(k, (2, 3))) <= 1e-15
        assert np.linalg.norm(basis.rows("aa") @ k.ravel()) == pytest.approx(1.0, abs=1e-12)


def test_lt_state_projects_once(monkeypatch):
    """lt_state takes one projection; a ShadowState built by a caller still
    tests its support, with a projection of its own."""
    calls = []
    project = shadow._symmetrize
    monkeypatch.setattr(shadow, "_symmetrize",
                        lambda w, dims: calls.append(dims) or project(w, dims))
    w = random_density(9, rng_from_seed(32))
    s = lt_state(w, (3, 3))
    assert len(calls) == 1
    assert s.dims == (3, 3) and not s.op.flags.writeable
    np.testing.assert_array_equal(s.op, project(w, (3, 3)))
    assert ShadowState(op=s.op, dims=[3, 3]) == s
    assert len(calls) == 2
    with pytest.raises(SupportViolation):
        ShadowState(op=w, dims=(3, 3))


@pytest.mark.parametrize("dims, parties", [((3, 3), None), ([2, 3], 2), ((2, 2, 2), None)])
def test_support_gate_runs_the_dims_rule_once(monkeypatch, dims, parties):
    """require_shadow_support (and so ShadowState) turns the dims into ints
    once per call, and still refuses off-support operands."""
    calls = []
    rule = blocks.factor_dims
    monkeypatch.setattr(blocks, "factor_dims",
                        lambda dims, parties=None: calls.append(dims) or rule(dims, parties))
    d = math.prod(dims)
    w = random_density(d, rng_from_seed(34, d))
    m = local_shadow_matrix(w, dims)
    calls.clear()
    assert shadow.require_shadow_support(m, dims, parties)[1] == tuple(dims)
    assert len(calls) == 1
    ShadowState(op=m, dims=dims)
    assert len(calls) == 2
    with pytest.raises(SupportViolation):
        shadow.require_shadow_support(w, dims, parties)
    assert len(calls) == 3


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_defining_system_of_a_stack_is_per_matrix(dims):
    d = math.prod(dims)
    ws = np.stack([random_density(d, rng_from_seed(33, d, k)) for k in range(7)])
    expected = np.stack([defining_system_shadow(w, dims) for w in ws])
    np.testing.assert_array_equal(defining_system_shadow(ws, dims), expected)


def test_shadow_carries_definitional_certificate():
    w = random_density(4, rng_from_seed(29))
    s = lt_state(w, (2, 2))
    k = s.kernel_part
    np.testing.assert_allclose(s.op + k, w, atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
def test_shadows_of_states_make_no_eigensolves(dims, eigensolve_log):
    """The kernel part of a symmetric W is kept without testing positivity;
    a non-symmetric W keeps none."""
    d = math.prod(dims)
    w = random_density(d, rng_from_seed(31, d))
    eigensolve_log.clear()
    s = lt_state(w, dims)
    assert len(eigensolve_log) == 0
    np.testing.assert_allclose(s.op + s.kernel_part, w, atol=1e-14)
    assert lt_state(w + 1e-3 * np.triu(np.ones((d, d)), 1), dims).kernel_part is None


def test_state_shadows_are_definitionally_boxtimes_members():
    """The kernel component of the state itself replays as a certificate."""
    from ltshadow.cones import replay_boxtimes_member

    for dims in ((2, 2), (2, 3), (3, 3)):
        d = dims[0] * dims[1]
        for k in range(5):
            w = random_density(d, rng_from_seed(30, d, k))
            shadow = lt_state(w, dims).op
            assert replay_boxtimes_member(shadow, dims, aa_projection(w, dims))


def test_a_singular_defining_system_reaches_the_caller(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        defining_system_shadow(np.eye(4) / 4, (2, 2))
