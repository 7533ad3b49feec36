"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line
(visible with `pytest -s`), then asserts.  Run:

    pytest -v -s tests/test_acceptance.py
"""

import subprocess
import sys
import time

import numpy as np
from boxtimes_reference import line_maximum
from matrix_helpers import (
    block_sizes,
    expected_sizes,
    locally_indistinguishable,
    random_ss_matrix,
    trace_norm,
)

from ltshadow.blocks import grading_basis
from ltshadow.cones import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    FeasibilityParams,
    in_boxtimes_cone,
    in_min_cone,
    in_positive_ss_cone,
    replay_boxtimes_member,
)
from ltshadow.fiber import push_and_spread, sample_fiber
from ltshadow.linalg import (
    kron,
    max_norm,
    min_eigenvalue,
    random_density,
    rng_from_seed,
)
from ltshadow.processes import (
    epsilon_functional,
    is_locally_positive,
    random_kernel_leaking_process,
    random_locally_positive_process,
    shadow_block_process,
    shadow_of_map,
)
from ltshadow.shadow import (
    ShadowState,
    defining_system_shadow,
    local_shadow_matrix,
    lt_state,
)
from ltshadow.upb import upb_state

SEED = 2024
PARAMS = FeasibilityParams(seed=SEED)
J = np.array([[0.0, -1.0], [1.0, 0.0]])


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def epr_projector():
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    return np.outer(z, z)


def epr_shadow():
    return local_shadow_matrix(epr_projector(), (2, 2))


def demo_state():
    """Interior EPR mixture whose fiber is a segment (the pure EPR fiber is
    a single point, so the spread demo runs on this state)."""
    return 0.5 * epr_projector() + 0.5 * np.eye(4) / 4


def test_criterion_1_example1_eigenvalue():
    start = time.perf_counter()
    w = lt_state(epr_projector(), (2, 2)).op
    vals, vecs = np.linalg.eigh(w)
    lam = float(vals[0])
    target = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    overlap = abs(float(vecs[:, 0] @ target))
    elapsed = time.perf_counter() - start
    ok = abs(lam + 0.25) <= 1e-10 and overlap >= 1 - 1e-8 and elapsed < 1.0
    report(1, ok, f"shadow eigenvalue {lam:.12f}, eigenvector overlap "
                  f"{overlap:.12f}, {elapsed:.3f}s")
    assert ok


def test_criterion_2_example2_functional():
    start = time.perf_counter()
    eps = epsilon_functional((2, 2))
    value = float(eps.apply(kron(J, J))[0, 0])
    check = is_locally_positive(eps)
    elapsed = time.perf_counter() - start
    ok = abs(value - 2.0) <= 1e-12 and not check.locally_positive and elapsed < 1.0
    report(2, ok, f"pairing on JxJ = {value:.15f}, locally_positive = "
                  f"{check.locally_positive}, {elapsed:.3f}s")
    assert ok


def test_criterion_3_oracle_equivalence_200_states():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for idx, dims in enumerate(((2, 2), (2, 3), (3, 3))):
        d = dims[0] * dims[1]
        n = 67 if idx < 2 else 66
        for k in range(n):
            rng = rng_from_seed(SEED, 10 + idx, k)
            w = random_density(d, rng)
            dev = max_norm(lt_state(w, dims).op - defining_system_shadow(w, dims))
            worst = max(worst, dev)
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and count == 200 and elapsed < 30.0
    report(3, ok, f"{count} states, worst deviation {worst:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_block_structure():
    ok = True
    detail = []
    for da in range(1, 5):
        for db in range(1, 5):
            basis = grading_basis((da, db))
            sizes = block_sizes(basis)
            d = da * db
            sizes_ok = sizes == expected_sizes(da, db)
            sum_ok = sum(sizes.values()) == d * d
            sym_ok = sizes["ss"] + sizes["aa"] == d * (d + 1) // 2
            gram_ok = max_norm(basis.stacked @ basis.stacked.T - np.eye(d * d)) <= 1e-10
            ok = ok and sizes_ok and sum_ok and sym_ok and gram_ok
            if not (sizes_ok and sum_ok and sym_ok and gram_ok):
                detail.append(f"({da},{db})")
    report(4, ok, "all dims in {1..4}^2" + ("" if ok else f", failures: {detail}"))
    assert ok


def test_criterion_5_kernel_invariance_100_pairs():
    worst = 0.0
    count = 0
    for idx, dims in enumerate(((2, 2), (2, 3))):
        d = dims[0] * dims[1]
        basis = grading_basis(dims)
        kernel = basis.block("aa")
        for k in range(50):
            rng = rng_from_seed(SEED, 20 + idx, k)
            w = random_density(d, rng)
            kmat = sum(float(c) * kb for c, kb in
                       zip(rng.standard_normal(len(kernel)), kernel))
            t = 0.5 * min_eigenvalue(w) / max(max_norm(kmat), 1e-12)
            assert min_eigenvalue(w + t * kmat) >= -1e-12  # stays a state
            lhs = basis.rows("ss") @ lt_state(w + t * kmat, dims).op.ravel()
            rhs = basis.rows("ss") @ lt_state(w, dims).op.ravel()
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            count += 1
    # machine exactness: ulp-scale agreement of the shadow coordinates
    ok = worst <= 1e-13 and count == 100
    report(5, ok, f"{count} pairs, worst coordinate deviation {worst:.3e}")
    assert ok


def _behavioral_conditions(proc, seed):
    """(kernel preservation, indistinguishability preservation, commuting square)."""
    dims = (2, 2)
    kernel = grading_basis(dims).block("aa")
    scale_tol = 1e-9 * (1 + max_norm(proc.matrix))
    kernel_ok = all(
        max_norm(local_shadow_matrix(proc.apply(k), dims)) <= scale_tol for k in kernel
    )
    rng = rng_from_seed(seed, 777)
    pairs_ok = True
    square_ok = True
    candidate = shadow_block_process(proc)
    for _ in range(20):
        w = random_density(4, rng)
        t = 0.4 * float(np.linalg.eigvalsh(w)[0])
        pairs_ok &= locally_indistinguishable(
            proc.apply(w), proc.apply(w + t * kernel[0]), dims, tol=scale_tol
        )
        lhs = local_shadow_matrix(proc.apply(w), dims)
        rhs = candidate.apply(local_shadow_matrix(w, dims))
        square_ok &= max_norm(lhs - rhs) <= scale_tol
    return kernel_ok, pairs_ok, square_ok


def test_criterion_6_local_positivity_equivalence_100_maps():
    start = time.perf_counter()
    mismatches = 0
    for k in range(50):
        proc = random_locally_positive_process((2, 2), seed=SEED + 100 + k)
        assert is_locally_positive(proc).locally_positive
        if _behavioral_conditions(proc, SEED + k) != (True, True, True):
            mismatches += 1
    for k in range(50):
        proc = random_kernel_leaking_process((2, 2), seed=SEED + 200 + k)
        assert not is_locally_positive(proc).locally_positive
        if _behavioral_conditions(proc, SEED + k) != (False, False, False):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    report(6, ok, f"100 maps, {mismatches} condition mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_7_shadow_functoriality_50_pairs():
    worst = 0.0
    for k in range(50):
        phi = random_locally_positive_process((2, 2), seed=SEED + 300 + k)
        psi = random_locally_positive_process((2, 2), seed=SEED + 400 + k)
        comp = psi.compose(phi)
        direct = shadow_of_map(comp).matrix
        chained = (shadow_of_map(psi).compose(shadow_of_map(phi))).matrix
        worst = max(worst, max_norm(direct - chained) / (1 + max_norm(direct)))
    ok = worst <= 1e-9
    report(7, ok, f"50 pairs, worst relative deviation {worst:.3e}")
    assert ok


def test_criterion_8_cone_chain_and_properness():
    start = time.perf_counter()
    # (a) the EPR shadow: boxtimes member with replaying certificate, yet not
    # positive as an operator
    w = epr_shadow()
    box = in_boxtimes_cone(w, (2, 2), PARAMS)
    a_ok = (
        box.verdict == MEMBER
        and replay_boxtimes_member(w, (2, 2), box.certificate["kernel_offset"])
        and in_positive_ss_cone(w, (2, 2)).verdict == NON_MEMBER
    )

    # (b) the UPB state: positive and ss-supported but not separable
    rho = upb_state()
    min_res = in_min_cone(rho, (3, 3), PARAMS)
    b_ok = (
        in_positive_ss_cone(rho, (3, 3)).verdict == MEMBER
        and min_res.verdict == NON_MEMBER
        and min_res.certificate["criterion"] == "range"
        and min_res.certificate["max_product_overlap"] < 0.99
    )

    # (c) oracle verdicts match the exact 1-D search on 200 random ss
    # matrices; the tolerance band may be undecided
    agree = 0
    undecided = 0
    for k in range(200):
        rng = rng_from_seed(SEED, 30, k)
        m = random_ss_matrix(2, 2, rng)
        if rng.random() < 0.5:
            m = m + float(np.abs(rng.standard_normal())) * 1.5 * np.eye(4)
        f_star = line_maximum(m)
        res = in_boxtimes_cone(m, (2, 2), PARAMS)
        if res.verdict == UNDECIDED:
            if abs(f_star) <= 2 * PARAMS.tol:
                undecided += 1
                agree += 1
            continue
        if res.verdict == (MEMBER if f_star >= -PARAMS.tol else NON_MEMBER):
            agree += 1
    elapsed = time.perf_counter() - start
    c_ok = agree == 200
    ok = a_ok and b_ok and c_ok and elapsed < 120.0
    report(8, ok, f"(a) {a_ok}, (b) {b_ok} (overlap "
                  f"{min_res.certificate.get('max_product_overlap', 1.0):.4f}), "
                  f"(c) {agree}/200 agree ({undecided} boundary undecided), "
                  f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_pure_state_fiber_rigidity():
    worst = 0.0
    count = 0
    for idx, dims in enumerate(((2, 2), (2, 3))):
        d = dims[0] * dims[1]
        for k in range(10):
            rng = rng_from_seed(SEED, 40 + idx, k)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            pure = np.outer(v, v)
            # certificate-free shadow: the sampler must recover feasibility itself
            shadow = ShadowState(op=local_shadow_matrix(pure, dims), dims=dims)
            sample = sample_fiber(shadow, n=10, seed=SEED + k)
            for rep in sample.representatives:
                worst = max(worst, trace_norm(rep - pure))
            count += 1
    ok = worst <= 1e-7 and count == 20
    report(9, ok, f"{count} pure states, worst trace-norm deviation {worst:.3e}")
    assert ok


def test_criterion_10_nondeterministic_shadow_demo():
    shadow = lt_state(demo_state(), (2, 2))
    sample = sample_fiber(shadow, n=40, seed=SEED)
    leaky = random_kernel_leaking_process((2, 2), seed=SEED)
    assert not is_locally_positive(leaky).locally_positive
    leaky_spread = push_and_spread(sample, leaky)
    local_diams = []
    for k in range(5):
        proc = random_locally_positive_process((2, 2), seed=SEED + 500 + k)
        local_diams.append(push_and_spread(sample, proc).diameter)
    ok = leaky_spread.diameter > 0.01 and max(local_diams) <= 1e-7
    report(10, ok, f"leaky diameter {leaky_spread.diameter:.4f}, "
                   f"max locally-positive diameter {max(local_diams):.3e}")
    assert ok


def test_criterion_11_cli_determinism():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ltshadow", "examples", "--seed", "7"],
            capture_output=True, text=True, timeout=600,
        )
        for _ in range(2)
    ]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and len(runs[0].stdout) > 0
    )
    report(11, ok, f"exit codes {[r.returncode for r in runs]}, "
                   f"byte-identical: {runs[0].stdout == runs[1].stdout}")
    assert ok
