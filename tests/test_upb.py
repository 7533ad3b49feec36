"""The tiles construction and the properness witnesses it provides."""

import numpy as np
import pytest

from ltshadow.blocks import grading_basis
from ltshadow.cones import (
    MEMBER,
    NON_MEMBER,
    FeasibilityParams,
    in_max_cone,
    in_min_cone,
    in_positive_ss_cone,
)
from ltshadow.linalg import max_norm, trace_inner
from ltshadow.upb import (
    SEPARATION_SAFETY,
    product_vectors,
    separating_max_cone_form,
    tiles_upb,
    unextendibility_margin,
    upb_state,
)

PARAMS = FeasibilityParams(seed=301)

# Frozen from the alternating optimizer, cross-checked against an
# independent dense spherical grid (value 0.02842 at grid pitch ~0.015 rad).
TILES_MARGIN = 0.0284162133


def _reference_span_projector():
    """sum_i P_i as a sum of outer products of Kronecker products."""
    return sum(np.outer(np.kron(x, y), np.kron(x, y)) for x, y in zip(*tiles_upb()))


def test_family_size_and_unit_norms():
    xs, ys = tiles_upb()
    assert len(xs) == len(ys) == 5
    for x, y in zip(xs, ys):
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-15)


def test_tiles_arrays_refuse_writes():
    for a in tiles_upb():
        assert a.shape == (5, 3)
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_product_vectors_are_kronecker_products():
    rng = np.random.default_rng(5)
    for na, nb in ((3, 3), (2, 4), (4, 2)):
        xs, ys = rng.standard_normal((6, na)), rng.standard_normal((6, nb))
        expected = np.stack([np.kron(x, y) for x, y in zip(xs, ys)])
        assert np.array_equal(product_vectors(xs, ys), expected)


def test_gram_is_identity():
    z = product_vectors(*tiles_upb())
    assert max_norm(z @ z.T - np.eye(5)) <= 1e-12


def test_state_and_form_match_the_outer_product_sum_bitwise():
    """Z.T @ Z gives the same bits as summing outer products, so the
    --upb report does not change with the way the projector is formed."""
    span = _reference_span_projector()
    assert np.array_equal(upb_state(), (np.eye(9) - span) / 4)
    x, rho, margin = separating_max_cone_form(seed=0)
    assert np.array_equal(x, span - (1 - SEPARATION_SAFETY) * margin * np.eye(9))
    assert np.array_equal(rho, upb_state())


def test_unextendibility_margin_value():
    margin = unextendibility_margin(seed=0)
    assert margin == pytest.approx(TILES_MARGIN, abs=1e-6)
    assert margin > 0.02


def test_state_eigenvalues_and_trace():
    rho = upb_state()
    w = np.linalg.eigvalsh(rho)
    np.testing.assert_allclose(w[:5], np.zeros(5), atol=1e-12)
    np.testing.assert_allclose(w[5:], np.full(4, 0.25), atol=1e-12)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_state_is_shadow_supported():
    rho = upb_state()
    basis = grading_basis((3, 3))
    for name in ("sa", "as", "aa"):
        assert np.linalg.norm(basis.rows(name) @ rho.ravel()) <= 1e-12


def test_state_cone_placement():
    """Positive and ss-supported but not separable: the inner properness witness."""
    rho = upb_state()
    assert in_positive_ss_cone(rho, (3, 3)).verdict == MEMBER
    res = in_min_cone(rho, (3, 3), PARAMS)
    assert res.verdict == NON_MEMBER
    assert res.certificate["criterion"] == "range"
    assert res.certificate["max_product_overlap"] < 0.99


def test_state_as_effect_is_entangled_shadow_effect():
    assert in_positive_ss_cone(upb_state(), (3, 3)).verdict == MEMBER


def test_separating_form_is_in_max_but_not_boxtimes():
    """The outer properness witness: X accepted by the max-cone heuristic,
    separated from the boxtimes cone by the complement state."""
    x, rho, margin = separating_max_cone_form(seed=0)
    assert margin > 0.02
    res = in_max_cone(x, (3, 3), PARAMS)
    assert res.verdict == MEMBER
    pairing = trace_inner(rho, x)
    assert pairing < -1e-8
    # rho itself is the separating functional: PSD, ss-supported, pairs negative
    from ltshadow.cones import replay_separating_functional

    ok, _, measured = replay_separating_functional(x, (3, 3), rho, tol=1e-8)
    assert ok and measured == pytest.approx(pairing, rel=1e-10)


def test_verification_report_searches_the_margin_once(monkeypatch):
    """The report takes the tiles margin from the separating form's search
    instead of repeating it with the same seed."""
    from ltshadow import upb, verify

    searches = []
    engine = upb.product_form_extremum

    def counted(m, dims, seed, restarts, **kw):
        searches.append(restarts)
        return engine(m, dims, seed, restarts, **kw)

    monkeypatch.setattr(upb, "product_form_extremum", counted)
    report = verify.run_verification_report(7)
    assert searches == [upb.MARGIN_RESTARTS]
    chain = next(c for c in report["checks"] if c["name"] == "upb_witness_chain")
    assert chain["pass"]
    assert chain["unextendibility_margin"] == pytest.approx(TILES_MARGIN, abs=1e-9)
