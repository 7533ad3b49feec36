"""Process block matrices, local positivity, shadows of maps."""

import numpy as np
import pytest
from extremum_reference import unbounded
from matrix_helpers import (
    aa_projection,
    locally_indistinguishable,
    parity_breaking_map,
    process_from_function,
    product_quadratic_value,
)

from ltshadow import processes
from ltshadow.cones import (
    MEMBER,
    FeasibilityParams,
    in_boxtimes_cone,
    replay_boxtimes_member,
)
from ltshadow.errors import NotLocallyPositive
from ltshadow.linalg import (
    kron,
    max_norm,
    random_density,
    random_orthogonal,
    rng_from_seed,
)
from ltshadow.processes import (
    LinearProcess,
    block_matrix,
    choi_matrix,
    conjugation_process,
    effect_functional,
    epsilon_functional,
    from_coords,
    grading_basis,
    identity_process,
    is_locally_positive,
    is_positive_map_heuristic,
    preparation_process,
    random_kernel_leaking_process,
    random_locally_positive_process,
    shadow_block_process,
    shadow_of_map,
    swap_process,
    to_coords,
    trace_unit_process,
)
from ltshadow.shadow import local_shadow_matrix

PARAMS = FeasibilityParams(seed=201)
J = np.array([[0.0, -1.0], [1.0, 0.0]])


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def kernel_rows(proc, source):
    """Rows of proc.matrix into the output kernel, columns from the input's
    shadow (source "shadow") or kernel (source "kernel") block."""
    gin, gout = grading_basis(proc.in_dims), grading_basis(proc.out_dims)
    cols = gin.shadow_index if source == "shadow" else gin.kernel_index
    return proc.matrix[np.ix_(gout.kernel_index, cols)]


def test_coords_round_trip():
    rng = rng_from_seed(50)
    for dims in ((2, 2), (2, 3), (3,), (1,)):
        d = int(np.prod(dims))
        m = rng.standard_normal((d, d))
        np.testing.assert_allclose(from_coords(to_coords(m, dims), dims), m, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_stacks_get_the_bits_of_each_matrix_alone(dims):
    """to_coords, from_coords and apply take an (R, D, D) stack (or an
    (R, D^2) array of coordinates) and give each matrix the bits it gets alone."""
    g = grading_basis(dims)
    rng = rng_from_seed(51, *dims)
    xs = rng.standard_normal((7, g.dim, g.dim))
    cs = rng.standard_normal((7, g.size))
    proc = random_locally_positive_process(dims, seed=3)
    np.testing.assert_array_equal(to_coords(xs, dims), [to_coords(x, dims) for x in xs])
    np.testing.assert_array_equal(from_coords(cs, dims), [from_coords(c, dims) for c in cs])
    np.testing.assert_array_equal(proc.apply(xs), [proc.apply(x) for x in xs])


def test_apply_bits_do_not_depend_on_the_matrix_layout():
    """A process built from an F-ordered copy of a matrix applies with the
    bits of one built from a C-ordered copy."""
    proc = random_kernel_leaking_process((2, 2), seed=7)
    fortran = LinearProcess((2, 2), (2, 2), np.asfortranarray(proc.matrix))
    xs = rng_from_seed(52).standard_normal((40, 4, 4))
    np.testing.assert_array_equal(fortran.apply(xs), proc.apply(xs))
    for x in xs:
        np.testing.assert_array_equal(fortran.apply(x), proc.apply(x))


def test_grading_sizes():
    g = grading_basis((2, 2))
    assert [g.slices[p].stop - g.slices[p].start for p in g.patterns] == [9, 3, 3, 1]
    assert list(g.kernel_index) == list(range(g.slices["aa"].start, g.slices["aa"].stop))
    assert grading_basis((1,)).kernel_index.size == 0


def test_identity_block_matrix():
    proc = identity_process((2, 2))
    blocks = block_matrix(proc)
    np.testing.assert_array_equal(blocks.phi_ss, np.eye(9))
    np.testing.assert_array_equal(kernel_rows(proc, "kernel"), np.eye(1))
    assert max_norm(blocks.phi_sa) == 0.0
    assert max_norm(kernel_rows(proc, "shadow")) == 0.0


def test_apply_matches_function():
    rng = rng_from_seed(51)
    q = random_orthogonal(4, rng)
    proc = conjugation_process(q, (2, 2))
    for _ in range(5):
        x = rng.standard_normal((4, 4))
        np.testing.assert_allclose(proc.apply(x), q @ x @ q.T, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_conjugation_process_matches_its_function(dims):
    """The stacked conjugation has the bits of materializing X -> Q X Q^T
    one basis element at a time."""
    d = grading_basis(dims).dim
    for seed in range(3):
        q = random_orthogonal(d, rng_from_seed(seed, 65, *dims))
        got = conjugation_process(q, dims)
        want = process_from_function(lambda x: q @ x @ q.T, dims, dims)
        assert (got.in_dims, got.out_dims) == (want.in_dims, want.out_dims)
        assert np.array_equal(got.matrix, want.matrix)


def test_swap_matches_its_function():
    swap = swap_process((2, 3))
    sigma = np.zeros((6, 6))
    for i in range(2):
        for j in range(3):
            sigma[j * 2 + i, i * 3 + j] = 1.0
    want = process_from_function(lambda x: sigma @ x @ sigma.T, (2, 3), (3, 2))
    assert swap.out_dims == (3, 2)
    assert np.array_equal(swap.matrix, want.matrix)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_positivity_search_on_a_conjugation_stalls_at_its_second_half_step(dims, eigensolve_log):
    """On the Choi matrix of X -> Q X Q^T every restart's value is 0 after
    one half-step and stays there: 2 stacked eigh calls, then the eigvalsh
    of the reported value."""
    q = random_orthogonal(grading_basis(dims).dim, rng_from_seed(66, *dims))
    proc = conjugation_process(q, dims)
    eigensolve_log.clear()
    verdict = is_positive_map_heuristic(proc, FeasibilityParams(seed=3))
    assert verdict.verdict == "positive"
    assert len(eigensolve_log) == 2 + 1


def test_swap_is_locally_positive():
    swap = swap_process((2, 2))
    blocks = block_matrix(swap)
    assert max_norm(blocks.phi_sa) <= 1e-12
    assert is_locally_positive(swap).locally_positive
    # sanity: it actually swaps
    a = np.diag([1.0, 0.0])
    b = np.array([[0.3, 0.1], [0.1, 0.7]])
    np.testing.assert_allclose(swap.apply(kron(a, b)), kron(b, a), atol=1e-12)


def test_rank_one_preparation_leaks_into_kernel():
    # X -> Tr(X) zz has an ss -> aa block because zz has an aa component
    zz = epr_projector()
    proc = LinearProcess(
        (2, 2), (2, 2),
        np.outer(to_coords(zz, (2, 2)), to_coords(np.eye(4), (2, 2))),
    )
    assert max_norm(kernel_rows(proc, "shadow")) > 0.1
    assert is_locally_positive(proc).locally_positive  # phi_sa still vanishes


def test_local_conjugation_is_locally_positive():
    rng = rng_from_seed(52)
    qa = random_orthogonal(2, rng)
    qb = random_orthogonal(3, rng)
    proc = conjugation_process(kron(qa, qb), (2, 3))
    assert is_locally_positive(proc).locally_positive


def test_nonlocal_conjugation_leaks():
    proc = random_kernel_leaking_process((2, 2), seed=53)
    check = is_locally_positive(proc)
    assert not check.locally_positive
    k = check.witness_kernel_element
    # witness: a kernel direction whose image has a visible shadow
    assert max_norm(local_shadow_matrix(k, (2, 2))) <= 1e-12
    assert max_norm(check.witness_shadow_image) > 1e-6


def test_epsilon_functional_values():
    eps = epsilon_functional((2, 2))
    assert float(eps.apply(kron(J, J))[0, 0]) == pytest.approx(2.0, abs=1e-12)
    # bilinear-extension oracle for the identity: expand I x I over pure
    # tensors E_ii x E_kk and sum Tr(E_ii E_kk^T) = sum_ik delta_ik = 2
    expected = sum(
        float(i == k) for i in range(2) for k in range(2)
    )
    assert float(eps.apply(np.eye(4))[0, 0]) == pytest.approx(expected, abs=1e-12)
    assert not is_locally_positive(eps).locally_positive


def test_effect_functional_pairing():
    rng = rng_from_seed(54)
    f = rng.standard_normal((4, 4))
    proc = effect_functional(f, (2, 2))
    x = rng.standard_normal((4, 4))
    assert float(proc.apply(x)[0, 0]) == pytest.approx(float(np.sum(f * x)), rel=1e-12)


def test_preparations_are_structurally_locally_positive():
    rng = rng_from_seed(55)
    prep = preparation_process(random_density(4, rng), (2, 2))
    check = is_locally_positive(prep)
    assert check.locally_positive and check.defect == 0.0
    blocks = block_matrix(prep)
    assert blocks.phi_sa.shape[1] == 0  # input kernel is empty


def test_shadow_of_identity_and_swap_commuting_square():
    rng = rng_from_seed(56)
    ident = identity_process((2, 2))
    np.testing.assert_allclose(block_matrix(shadow_of_map(ident)).phi_ss, np.eye(9),
                               atol=1e-12)
    swap = swap_process((2, 2))
    phi = shadow_of_map(swap)
    for _ in range(20):
        w = random_density(4, rng)
        lhs = local_shadow_matrix(swap.apply(w), (2, 2))
        rhs = phi.apply(local_shadow_matrix(w, (2, 2)))
        assert max_norm(lhs - rhs) <= 1e-9


def test_shadow_refuses_kernel_leaky_maps():
    with pytest.raises(NotLocallyPositive):
        shadow_of_map(epsilon_functional((2, 2)))
    with pytest.raises(NotLocallyPositive):
        shadow_of_map(random_kernel_leaking_process((2, 2), seed=57))


def test_shadow_functoriality():
    for k in range(10):
        phi = random_locally_positive_process((2, 2), seed=580 + k)
        psi = random_locally_positive_process((2, 2), seed=590 + k)
        comp = psi.compose(phi)
        assert is_locally_positive(comp).locally_positive
        direct = shadow_of_map(comp)
        chained = shadow_of_map(psi).compose(shadow_of_map(phi))
        assert max_norm(direct.matrix - chained.matrix) <= 1e-9 * (1 + max_norm(direct.matrix))


def test_local_positivity_behavioral_equivalence():
    """Kernel preservation, indistinguishability preservation, and the
    commuting square hold or fail together with the block criterion."""
    rng = rng_from_seed(59)
    kernel = grading_basis((2, 2)).block("aa")

    def conditions(proc):
        blocks_ok = is_locally_positive(proc).locally_positive
        # (a) kernel maps into kernel
        kernel_ok = all(
            max_norm(local_shadow_matrix(proc.apply(k), (2, 2))) <= 1e-9 * (1 + max_norm(proc.matrix))
            for k in kernel
        )
        # (b) locally indistinguishable pairs stay indistinguishable
        pairs_ok = True
        for _ in range(10):
            w = random_density(4, rng)
            t = 0.4 * float(np.linalg.eigvalsh(w)[0])
            w2 = w + t * kernel[0]
            tol = 1e-9 * (1 + max_norm(proc.matrix))
            pairs_ok &= locally_indistinguishable(proc.apply(w), proc.apply(w2),
                                                  (2, 2), tol=tol)
        # (c) the commuting square with the shadow-block candidate
        candidate = shadow_block_process(proc)
        square_ok = True
        for _ in range(10):
            w = random_density(4, rng)
            lhs = local_shadow_matrix(proc.apply(w), (2, 2))
            rhs = candidate.apply(local_shadow_matrix(w, (2, 2)))
            square_ok &= max_norm(lhs - rhs) <= 1e-9 * (1 + max_norm(proc.matrix))
        return blocks_ok, kernel_ok, pairs_ok, square_ok

    for k in range(6):
        good = conditions(random_locally_positive_process((2, 2), seed=600 + k))
        assert good == (True, True, True, True)
        bad = conditions(random_kernel_leaking_process((2, 2), seed=620 + k))
        assert bad == (False, False, False, False)


def test_positive_map_heuristic_identity_and_negation():
    ident = identity_process((2, 2))
    assert is_positive_map_heuristic(ident, PARAMS).verdict == "positive"
    neg = LinearProcess((2, 2), (2, 2), -np.eye(16))
    verdict = is_positive_map_heuristic(neg, PARAMS)
    assert verdict.verdict == "not_positive"
    x = verdict.witness
    assert np.linalg.eigvalsh(neg.apply(np.outer(x, x)))[0] < -PARAMS.tol


def unit(rng, d):
    x = rng.standard_normal(d)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("in_dims, out_dims", [((2, 2), (2, 2)), ((2, 3), (3, 2)),
                                                ((2, 2), (1,)), ((1,), (2, 3))])
def test_choi_product_form_is_v_phi_v(in_dims, out_dims):
    """v^T Phi(x x^T) v is the product form of the Choi matrix on (v, x)."""
    rng = rng_from_seed(61, len(in_dims), len(out_dims))
    gin, gout = grading_basis(in_dims), grading_basis(out_dims)
    proc = LinearProcess(in_dims, out_dims, rng.standard_normal((gout.size, gin.size)))
    c = choi_matrix(proc)
    for _ in range(10):
        x, v = unit(rng, gin.dim), unit(rng, gout.dim)
        direct = v @ proc.apply(np.outer(x, x)) @ v
        form = product_quadratic_value(c, (gout.dim, gin.dim), v, x)
        assert abs(direct - form) <= 1e-12 * (1 + max_norm(proc.matrix))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_generated_maps_are_positive_without_a_search(dims, eigensolve_log):
    rng = rng_from_seed(62, *dims)
    for seed in range(3):
        eigensolve_log.clear()
        proc = random_locally_positive_process(dims, seed=seed)
        assert len(eigensolve_log) == 0
        assert is_locally_positive(proc).locally_positive
        d = grading_basis(dims).dim
        for _ in range(200):
            x = unit(rng, d)
            lam = np.linalg.eigvalsh(proc.apply(np.outer(x, x)))[0]
            assert lam >= -1e-12 * (1 + max_norm(proc.matrix))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_not_positive_witness_replays(dims):
    """Partial transposition, conjugated by an orthogonal Q, sends an
    entangled x x^T to a matrix with a negative eigenvalue."""
    da, db = dims
    q = random_orthogonal(da * db, rng_from_seed(64, *dims))

    def twisted_partial_transpose(x):
        xt = x.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
        return q @ xt @ q.T

    proc = process_from_function(twisted_partial_transpose, dims, dims)
    verdict = is_positive_map_heuristic(proc, PARAMS)
    assert verdict.verdict == "not_positive" and verdict.heuristic is False
    x = verdict.witness
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    lam = np.linalg.eigvalsh(proc.apply(np.outer(x, x)))[0]
    assert lam < -PARAMS.tol
    assert abs(lam - verdict.value) <= 1e-12


def partial_transpose_conjugation(dims, q):
    """X -> Q PT_B(X) Q^T, not positive: an entangled x x^T goes negative."""
    da, db = dims

    def fn(x):
        return q @ x.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, -1) @ q.T

    return process_from_function(fn, dims, dims)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_positivity_verdict_is_the_same_with_and_without_the_bound(dims, monkeypatch):
    """Stopping at the first certified witness changes no verdict, and every
    witness still replays: lambda_min(Phi(x x^T)) < -tol, the reported value."""
    d = grading_basis(dims).dim
    rng = rng_from_seed(67, *dims)
    maps = [identity_process(dims),
            process_from_function(lambda x: x.T, dims, dims),
            random_locally_positive_process(dims, seed=1),
            random_kernel_leaking_process(dims, seed=1)]
    for _ in range(3):
        maps.append(conjugation_process(random_orthogonal(d, rng), dims))
        maps.append(partial_transpose_conjugation(dims, random_orthogonal(d, rng)))
    search = processes.product_form_extremum
    for k, proc in enumerate(maps):
        params = FeasibilityParams(seed=k)
        monkeypatch.setattr(processes, "product_form_extremum", search)
        got = is_positive_map_heuristic(proc, params)
        monkeypatch.setattr(processes, "product_form_extremum", unbounded(search))
        want = is_positive_map_heuristic(proc, params)
        assert got.verdict == want.verdict
        assert (got.verdict == "not_positive") == (k >= 4 and k % 2 == 1)
        if got.verdict == "not_positive":
            assert got.heuristic is False
            lam = np.linalg.eigvalsh(proc.apply(np.outer(got.witness, got.witness)))[0]
            assert lam < -params.tol and abs(lam - got.value) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_positivity_search_on_a_non_positive_map_stops_at_its_first_half_step(
        dims, eigensolve_log):
    """The first half-step already finds a pair below -tol: one stacked eigh
    over the PRODUCT_FORM_RESTARTS = 32 restarts, then the eigvalsh of the
    reported value."""
    q = random_orthogonal(grading_basis(dims).dim, rng_from_seed(68, *dims))
    proc = partial_transpose_conjugation(dims, q)
    eigensolve_log.clear()
    verdict = is_positive_map_heuristic(proc, FeasibilityParams(seed=3))
    assert verdict.verdict == "not_positive"
    assert eigensolve_log == [("eigh", 32), ("eigvalsh", 1)]


def test_transpose_map_is_positive():
    transpose = LinearProcess(
        (2, 2), (2, 2),
        np.diag([1.0] * 9 + [-1.0] * 3 + [-1.0] * 3 + [1.0]),
    )
    # sanity: this coordinate matrix really is global transposition
    rng = rng_from_seed(60)
    x = rng.standard_normal((4, 4))
    np.testing.assert_allclose(transpose.apply(x), x.T, atol=1e-12)
    assert is_positive_map_heuristic(transpose, PARAMS).verdict == "positive"


def test_trace_unit_process_blocks():
    proc = trace_unit_process((2, 2))
    blocks = block_matrix(proc)
    assert max_norm(blocks.phi_sa) == 0.0
    assert max_norm(kernel_rows(proc, "kernel")) == 0.0
    np.testing.assert_allclose(proc.apply(np.eye(4)), np.eye(4), atol=1e-12)


def test_unit_effect_is_locally_positive():
    check = is_locally_positive(effect_functional(np.eye(4), (2, 2)))
    assert check.locally_positive


def test_pushed_shadows_stay_in_boxtimes():
    """Shadows of outputs of positive locally positive maps are boxtimes
    members, certified by the kernel part of the actual output."""
    rng = rng_from_seed(63)
    for k in range(5):
        proc = random_locally_positive_process((2, 2), seed=640 + k)
        w = random_density(4, rng)
        out = proc.apply(w)
        shadow_out = local_shadow_matrix(out, (2, 2))
        cert = aa_projection(out, (2, 2))
        assert replay_boxtimes_member(shadow_out, (2, 2), cert)
        res = in_boxtimes_cone(shadow_out, (2, 2), PARAMS)
        assert res.verdict == MEMBER


def test_maps_take_their_blocks_once(monkeypatch):
    """shadow_of_map extracts the blocks once for its check and its result;
    the leaking generator reads the defect from one check per attempt."""
    calls = {"block_matrix": 0, "conjugation_process": 0}
    for name in calls:
        original = getattr(processes, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(processes, name, counted)
    phi = random_locally_positive_process((3, 3), seed=5)
    shadow_of_map(phi)
    assert calls["block_matrix"] == 1
    for seed in range(3):
        calls.update(block_matrix=0, conjugation_process=0)
        random_kernel_leaking_process((2, 3), seed=seed)
        assert calls["block_matrix"] == calls["conjugation_process"] >= 1


def test_odd_to_even_leakage_is_refused():
    """phi leaves every symmetric input alone, but its tensor square leaks
    the shadow kernel into the shadow: the parity gate refuses it, as it
    refuses leakage the other way."""
    phi = parity_breaking_map()
    x = rng_from_seed(61).standard_normal((4, 4))
    np.testing.assert_allclose(phi.apply(x + x.T), x + x.T, atol=1e-14)
    for check in (block_matrix, is_locally_positive, shadow_of_map):
        with pytest.raises(ValueError, match="parity grading"):
            check(phi)
    with pytest.raises(ValueError, match="parity grading"):
        block_matrix(LinearProcess((2, 2), (2, 2), phi.matrix.T))
