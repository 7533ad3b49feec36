"""Metamorphic properties: merged code paths agree, oracle verdicts
respect the symmetries of the cones (positive scaling, local orthogonal
conjugation O_1 x ... x O_n, factor permutation), at two and three factors
(the max and min cones at two), and the push of a fiber through a map keeps
its verdict under a local relabelling.

The oracles' tol is absolute, so inputs are built with a margin m to the
cone boundary and scaled by c in [1e-3, 1e3] (boxtimes: [1e-6, 1e3] with
c * |m| >= 10 tol) with c * m above tol: the properties test the symmetries,
not the tolerance band.
"""

import functools
import itertools
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from matrix_helpers import (
    aa_projection,
    product_quadratic_value,
    random_shadow_matrix,
    random_ss_matrix,
    random_symmetric,
)

from ltshadow.blocks import grading_basis, project_block
from ltshadow.cones import (
    MEMBER,
    NON_MEMBER,
    RANGE_CRITERION_DELTA,
    FeasibilityParams,
    in_boxtimes_cone,
    in_max_cone,
    in_min_cone,
    in_positive_ss_cone,
    replay_boxtimes_member,
    replay_separating_functional,
    separable_certificate_error,
)
from ltshadow.errors import SupportViolation
from ltshadow.fiber import push_and_spread, sample_fiber
from ltshadow.linalg import (
    kron,
    max_norm,
    min_eigenvalue,
    random_density,
    random_orthogonal,
    rng_from_seed,
    trace_inner,
)
from ltshadow.processes import (
    conjugation_process,
    random_kernel_leaking_process,
    random_locally_positive_process,
)
from ltshadow.shadow import (
    SHADOW_SUPPORT_TOL,
    ShadowState,
    local_shadow_matrix,
    lt_state,
    require_shadow_support,
)
from ltshadow.upb import upb_state

DIMS = [(2, 2), (2, 3), (3, 3)]
# The psd-ss and boxtimes oracles take any number of factors.
CONE_DIMS = DIMS + [(2, 2, 2), (2, 2, 3)]
TOL = 1e-8

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
dims_st = st.sampled_from(DIMS)
cone_dims_st = st.sampled_from(CONE_DIMS)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
boxtimes_scales = st.floats(-6.0, 3.0).map(lambda e: 10.0**e)
margins = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.05, 1.0)).map(lambda p: p[0] * p[1])
symmetries = st.sampled_from(["scale", "local", "permute"])
min_cone_cases = st.sampled_from(["product", "not_psd", "tiles"])


def permute(m, dims, perm):
    """Conjugation by a permutation of the tensor factors; the result lives
    on the permuted dims."""
    n = len(dims)
    t = m.reshape(dims + dims).transpose(list(perm) + [n + p for p in perm])
    return t.reshape(m.shape), tuple(dims[p] for p in perm)


def transform(m, dims, symmetry, c, rng):
    """Apply one cone symmetry (always with the scaling by c).  A permutation
    is never the identity; at two factors it is the swap."""
    m = c * m
    if symmetry == "local":
        o = functools.reduce(kron, [random_orthogonal(d, rng) for d in dims])
        return o @ m @ o.T, dims
    if symmetry == "permute":
        perms = list(itertools.permutations(range(len(dims))))[1:]
        return permute(m, dims, perms[int(rng.integers(len(perms)))])
    return m, dims


def assert_psd_ss_certificate_replays(m, res):
    cert = res.certificate
    if res.verdict == MEMBER:
        w, v = cert["eigenvalues"], cert["eigenvectors"]
        assert w[0] >= -TOL
        assert max_norm((v * w) @ v.T - m) <= 1e-12 * (1 + max_norm(m))
    else:
        v = cert["witness_vector"]
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
        assert v @ m @ v < -TOL


def assert_boxtimes_certificate_replays(m, dims, res):
    if res.verdict == MEMBER:
        assert replay_boxtimes_member(m, dims, res.certificate["kernel_offset"], psd_tol=TOL)
    else:
        ok, _, _ = replay_separating_functional(m, dims, res.certificate["separating_functional"], TOL)
        assert ok


def assert_max_cone_certificate_replays(m, dims, res):
    cert = res.certificate
    if res.verdict == MEMBER:
        assert cert["heuristic"] is True
        x, y, val = cert["argmin_x"], cert["argmin_y"], cert["min_quadratic"]
    else:
        x, y, val = cert["witness_x"], cert["witness_y"], cert["quadratic_value"]
        assert val < -TOL
    for v in (x, y):
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
    assert abs(product_quadratic_value(m, dims, x, y) - val) <= 1e-12 * (1 + max_norm(m))


def assert_min_cone_certificate_replays(m, dims, res):
    cert = res.certificate
    if res.verdict == MEMBER:
        assert np.all(np.asarray(cert["weights"]) >= 0)
        err = separable_certificate_error(m, dims, cert["weights"], cert["vectors_a"],
                                          cert["vectors_b"])
        assert err <= TOL
    elif cert["criterion"] == "not_psd":
        v = cert["witness_vector"]
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
        assert v @ m @ v < -TOL
    else:
        assert cert["criterion"] == "range"
        assert cert["max_product_overlap"] < 1 - RANGE_CRITERION_DELTA


def product_projector(dims, rng):
    """x_1 x_1^T o ... o x_n x_n^T for random unit vectors x_k."""
    units = [v / np.linalg.norm(v) for v in (rng.standard_normal(d) for d in dims)]
    return functools.reduce(np.kron, [np.outer(v, v) for v in units])


def max_cone_matrix(dims, margin, rng):
    """A shadow M with min q(x, y) over unit product vectors >= margin when
    margin > 0, and <= margin when margin < 0.

    S is the shadow of a state rho with lambda_min(rho) = |margin|.  The
    shadow fixes every product projector F, so q(x, y) = <F, S> = <F, rho>
    >= |margin|: for margin > 0, M = S.  For margin < 0, M = S - (<F, S> -
    margin) F for one F, which stays shadow-supported and has <F, M> =
    margin since <F, F> = 1.
    """
    d = math.prod(dims)
    r = random_symmetric(d, rng)
    s = local_shadow_matrix(r + (abs(margin) - min_eigenvalue(r)) * np.eye(d), dims)
    if margin > 0:
        return s
    f = product_projector(dims, rng)
    return s - (trace_inner(f, s) - margin) * f


def boxtimes_boundary_matrix(dims, rng):
    """An ss matrix M with lambda_min(M) < 0 and max_K lambda_min(M + K) = 0 exactly.

    X is PSD with range orthogonal to p random product vectors z_j, so
    F = sum_j z_j z_j^T is PSD, ss-supported (orthogonal to every kernel
    offset) and <F, X> = 0.  M = shadow(X) has the completion X, so the
    optimum is >= 0, and <F, M> = <F, X> = 0 bounds it by 0 from above.
    Returns None when lambda_min(M) is too close to 0 to rescale.
    """
    d = math.prod(dims)
    p = int(rng.integers(1, 3))
    z = np.stack([functools.reduce(np.kron, [rng.standard_normal(n) for n in dims])
                  for _ in range(p)], axis=1)
    complement = np.linalg.qr(z, mode="complete")[0][:, p:]
    b = complement @ rng.standard_normal((d - p, d - p))
    m = local_shadow_matrix(b @ b.T, dims)
    lam = min_eigenvalue(m)
    if lam >= -1e-3 * max_norm(m):
        return None
    return m / -lam


# ---------------------------------------------------------------------------
# merged paths
# ---------------------------------------------------------------------------


@PROPERTY
@given(seed=seeds, dims=dims_st)
def test_aa_projection_matches_basis_projection(seed, dims):
    d = dims[0] * dims[1]
    w = rng_from_seed(seed).standard_normal((d, d))
    expected = project_block(w, grading_basis(dims), "aa")
    assert max_norm(aa_projection(w, dims) - expected) <= 1e-13


@PROPERTY
@given(seed=seeds, dims=dims_st, exponent=st.floats(-14.0, -4.0))
def test_support_checks_agree(seed, dims, exponent):
    """require_shadow_support and ShadowState accept and reject the same inputs,
    and agree with the basis projection away from the threshold."""
    rng = rng_from_seed(seed)
    d = dims[0] * dims[1]
    off = rng.standard_normal((d, d))
    off -= project_block(off, grading_basis(dims), "ss")
    m = random_ss_matrix(*dims, rng) + 10.0**exponent * off / max_norm(off)

    def accepts(check):
        try:
            check()
        except SupportViolation:
            return False
        return True

    by_cones = accepts(lambda: require_shadow_support(m, dims, 2))
    by_state = accepts(lambda: ShadowState(op=m, dims=dims))
    assert by_cones == by_state
    defect = max_norm(m - project_block(m, grading_basis(dims), "ss"))
    threshold = SHADOW_SUPPORT_TOL * (1 + max_norm(m))
    if defect < threshold / 2:
        assert by_cones
    if defect > 2 * threshold:
        assert not by_cones


@PROPERTY
@given(seed=seeds, dims=dims_st)
def test_shadow_is_idempotent_and_kernel_invariant(seed, dims):
    rng = rng_from_seed(seed)
    d = dims[0] * dims[1]
    w = rng.standard_normal((d, d))
    s = local_shadow_matrix(w, dims)
    assert max_norm(local_shadow_matrix(s, dims) - s) <= 1e-15 * (1 + max_norm(s))
    kernel = grading_basis(dims).block("aa")
    k = sum(float(c) * kb for c, kb in zip(rng.standard_normal(d * d), kernel))
    assert max_norm(local_shadow_matrix(w + k, dims) - s) <= 1e-13 * (1 + max_norm(k))


# ---------------------------------------------------------------------------
# oracle symmetries and certificate replay
# ---------------------------------------------------------------------------


@PROPERTY
@given(seed=seeds, dims=cone_dims_st, margin=margins, c=scales, symmetry=symmetries)
def test_positive_ss_verdict_respects_symmetries(seed, dims, margin, c, symmetry):
    rng = rng_from_seed(seed)
    r = random_shadow_matrix(dims, rng)
    m = r + (margin - min_eigenvalue(r)) * np.eye(r.shape[0])  # lambda_min(m) = margin
    expected = MEMBER if margin > 0 else NON_MEMBER
    res = in_positive_ss_cone(m, dims, tol=TOL)
    assert res.verdict == expected
    assert_psd_ss_certificate_replays(m, res)
    mt, dims_t = transform(m, dims, symmetry, c, rng)
    res_t = in_positive_ss_cone(mt, dims_t, tol=TOL)
    assert res_t.verdict == expected
    assert_psd_ss_certificate_replays(mt, res_t)


@settings(PROPERTY, max_examples=60)
@given(seed=seeds, dims=cone_dims_st, margin=margins, c=boxtimes_scales, symmetry=symmetries)
def test_boxtimes_verdict_respects_symmetries(seed, dims, margin, c, symmetry):
    # A non-member's separating functional has unit trace, so its pairing
    # with M is about c * margin; below tol the absolute tolerance band, not
    # the symmetry, decides the verdict.
    assume(c * abs(margin) >= 10 * TOL)
    rng = rng_from_seed(seed)
    r = boxtimes_boundary_matrix(dims, rng)
    assume(r is not None)
    m = r + margin * np.eye(r.shape[0])  # best offset has lambda_min = margin
    expected = MEMBER if margin > 0 else NON_MEMBER
    params = FeasibilityParams(seed=seed, tol=TOL)
    res = in_boxtimes_cone(m, dims, params)
    assert res.verdict == expected
    assert_boxtimes_certificate_replays(m, dims, res)
    mt, dims_t = transform(m, dims, symmetry, c, rng)
    res_t = in_boxtimes_cone(mt, dims_t, params)
    assert res_t.verdict == expected
    assert_boxtimes_certificate_replays(mt, dims_t, res_t)


@PROPERTY
@given(seed=seeds, dims=dims_st, margin=margins, c=scales, symmetry=symmetries)
def test_max_cone_verdict_respects_symmetries(seed, dims, margin, c, symmetry):
    rng = rng_from_seed(seed)
    m = max_cone_matrix(dims, margin, rng)
    expected = MEMBER if margin > 0 else NON_MEMBER
    params = FeasibilityParams(seed=seed, tol=TOL)
    res = in_max_cone(m, dims, params)
    assert res.verdict == expected
    assert_max_cone_certificate_replays(m, dims, res)
    mt, dims_t = transform(m, dims, symmetry, c, rng)
    res_t = in_max_cone(mt, dims_t, params)
    assert res_t.verdict == expected
    assert_max_cone_certificate_replays(mt, dims_t, res_t)


@PROPERTY
@given(seed=seeds, dims=dims_st, case=min_cone_cases, margin=st.floats(0.05, 1.0),
       c=scales, symmetry=symmetries)
def test_min_cone_verdict_respects_symmetries(seed, dims, case, margin, c, symmetry):
    """Product projectors are members; a shadow with lambda_min = -margin
    and the tiles state are not.  The tiles state's best product overlap
    with its range, about 0.972, is below the range criterion's bound
    1 - RANGE_CRITERION_DELTA = 0.99; the criterion reads the projector on
    the range, which scaling leaves as it is, and the overlap's maximum,
    which local conjugation and the swap leave as it is."""
    rng = rng_from_seed(seed)
    if case == "product":
        m = product_projector(dims, rng)
    elif case == "not_psd":
        r = random_shadow_matrix(dims, rng)
        m = r - (margin + min_eigenvalue(r)) * np.eye(r.shape[0])  # lambda_min(m) = -margin
    else:
        m, dims = upb_state(), (3, 3)
    expected = MEMBER if case == "product" else NON_MEMBER
    params = FeasibilityParams(seed=seed, tol=TOL)
    res = in_min_cone(m, dims, params)
    assert res.verdict == expected
    assert_min_cone_certificate_replays(m, dims, res)
    mt, dims_t = transform(m, dims, symmetry, c, rng)
    res_t = in_min_cone(mt, dims_t, params)
    assert res_t.verdict == expected
    assert_min_cone_certificate_replays(mt, dims_t, res_t)
    if expected == NON_MEMBER:
        assert res_t.certificate["criterion"] == res.certificate["criterion"]


@settings(PROPERTY, max_examples=20)
@given(seed=seeds, dims=st.sampled_from([(2, 3), (3, 3)]))
def test_push_verdict_respects_local_relabelling(seed, dims):
    """Relabel both systems by Q = O_A o O_B: the shadow s becomes Q s Q^T
    and the map Phi becomes conj(Q) o Phi o conj(Q^T).  The fiber of the
    relabelled shadow is the relabelled fiber and the relabelled map is
    locally positive exactly when Phi is, so the push keeps its verdict and
    its exclusions, and a locally positive map has no spread on either side."""
    rng = rng_from_seed(seed)
    rho = random_density(math.prod(dims), rng)
    q = functools.reduce(kron, [random_orthogonal(d, rng) for d in dims])
    shadow, relabelled = lt_state(rho, dims), lt_state(q @ rho @ q.T, dims)
    assert max_norm(relabelled.op - q @ shadow.op @ q.T) <= 1e-15
    conj, conj_back = conjugation_process(q, dims), conjugation_process(q.T, dims)
    sample = sample_fiber(shadow, n=30, seed=seed)
    sample_t = sample_fiber(relabelled, n=30, seed=seed)
    for local, proc in ((True, random_locally_positive_process(dims, seed)),
                        (False, random_kernel_leaking_process(dims, seed))):
        report = push_and_spread(sample, proc)
        report_t = push_and_spread(sample_t, conj.compose(proc.compose(conj_back)))
        assert report.deterministic is report_t.deterministic is local
        assert report.excluded == report_t.excluded
        if local:
            assert report.diameter == report_t.diameter == 0.0
