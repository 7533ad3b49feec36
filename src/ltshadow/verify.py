"""The built-in verification report: every named reproduction in one run.

Each check recomputes a known quantity from scratch and records the measured
value next to its pass criterion, so the report doubles as a regression
gate: the shadow of the real EPR state and its -1/4 eigenvalue, the pairing
functional on the product of antisymmetric generators, the equivalence of
the shadow projection with its defining linear system, the block criterion
for local positivity, the unextendible-product-basis witness chain,
pure-state fiber rigidity, kernel invariance, and the non-deterministic
shadow demonstration.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .blocks import grading_basis
from .cones import (
    FeasibilityParams,
    MEMBER,
    NON_MEMBER,
    in_boxtimes_cone,
    in_max_cone,
    in_min_cone,
    in_positive_ss_cone,
    replay_boxtimes_member,
)
from .fiber import FiberSample, push_and_spread, sample_fiber, sample_fibers
from .linalg import (
    eigh,
    eigvalsh,
    kron,
    max_norm,
    product_vectors,
    random_density,
    rng_from_seed,
)
from .processes import (
    epsilon_functional,
    is_locally_positive,
    random_kernel_leaking_process,
    random_locally_positive_process,
    swap_process,
)
from .serialize import matrix_to_json
from .shadow import defining_system_shadow, local_shadow_matrix, lt_state
from .upb import separating_max_cone_form, tiles_upb


def real_epr_state() -> np.ndarray:
    """z (.) z for z = (x o y + y o x)/sqrt(2) on a pair of real qubits."""
    z = np.zeros(4)
    z[1] = z[2] = 1.0 / np.sqrt(2.0)
    return np.outer(z, z)


def epr_shadow_closed_form() -> np.ndarray:
    """(P_x o P_y + P_y o P_x)/2 + S o S with S the symmetrized x (.) y."""
    px = np.diag([1.0, 0.0])
    py = np.diag([0.0, 1.0])
    s = np.array([[0.0, 0.5], [0.5, 0.0]])
    return 0.5 * (kron(px, py) + kron(py, px)) + kron(s, s)


def antisym_generator() -> np.ndarray:
    """J with J(x, y) = (-y, x); squares to minus the identity."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def nondeterminism_demo_state() -> np.ndarray:
    """Interior mixture of the real EPR state; its fiber is a 1-D segment.

    The pure EPR state itself is rigid (its fiber is a single point), so the
    apparent-nondeterminism demonstration runs on this mixed state instead.
    """
    return 0.5 * real_epr_state() + 0.5 * np.eye(4) / 4


def shadow_vs_defining_system(seed: int) -> float:
    """Largest max-norm gap between the closed-form shadow and the defining
    linear system's, over 20 random states each at (2, 2), (2, 3) and
    (3, 3), drawn in turn from one generator per dims: one stacked
    projection and one solve per dims."""
    worst = 0.0
    for idx, dims in enumerate(((2, 2), (2, 3), (3, 3))):
        d = dims[0] * dims[1]
        rng = rng_from_seed(seed, 100 + idx)
        rhos = np.stack([random_density(d, rng) for _ in range(20)])
        gap = local_shadow_matrix(rhos, dims) - defining_system_shadow(rhos, dims)
        worst = max(worst, float(np.abs(gap).max()))
    return worst


def kernel_invariance_deviation(seed: int) -> float:
    """Largest change of an ss coordinate of the shadow when a kernel element
    is added to a random state (kept positive), over 10 states each at
    (2, 2) and (2, 3), each state and then its kernel coefficients drawn in
    turn from one generator per dims: one stacked lambda_min and one stacked
    projection per dims."""
    worst = 0.0
    for idx, dims in enumerate(((2, 2), (2, 3))):
        d = dims[0] * dims[1]
        g = grading_basis(dims)
        kernel = g.block("aa")
        rng = rng_from_seed(seed, 300 + idx)
        rhos, kmats = [], []
        for _ in range(10):
            rhos.append(random_density(d, rng))
            kmats.append(sum(float(c) * kb for c, kb in
                             zip(rng.standard_normal(len(kernel)), kernel)))
        rhos, kmats = np.stack(rhos), np.stack(kmats)
        t = 0.5 * eigvalsh(rhos)[:, 0] / np.maximum(np.abs(kmats).max(axis=(1, 2)), 1e-12)
        shadows = local_shadow_matrix(np.concatenate([rhos + t[:, None, None] * kmats, rhos]),
                                      dims)
        coords = (g.rows("ss") @ shadows.reshape(len(shadows), -1, 1))[:, :, 0]
        worst = max(worst, float(np.abs(coords[:10] - coords[10:]).max()))
    return worst


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """v (.) v for a Gaussian unit vector v in R^d."""
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v)


def report_fiber_walks(seed: int) -> tuple[float, FiberSample]:
    """The report's five fiber samples, in three calls.

    Two random pure states at each of (2, 2) and (2, 3) are sampled with
    seeds seed and seed + 1 at n = 10, as one stack of chains of one length
    per dims; the first value is the largest trace-norm distance of a
    representative from its state.  The demo state
    (:func:`nondeterminism_demo_state`) is sampled alone with seed and
    n = 40, and its sample is the second value.  At (2, 2) the fiber is a
    segment, so each of those three chains costs one eigensolve for the
    segment's ends and its n uniform draws (no walk steps); the (2, 3) pair
    walks 110 stacked steps."""
    pure22, pure23 = ([random_pure_state(dims[0] * dims[1], rng_from_seed(seed, 200 + idx, k))
                       for k in range(2)]
                      for idx, dims in enumerate(((2, 2), (2, 3))))
    walked22, walked23 = (sample_fibers([lt_state(p, dims) for p in pure], 10, [seed, seed + 1])
                          for pure, dims in ((pure22, (2, 2)), (pure23, (2, 3))))
    demo_sample = sample_fiber(lt_state(nondeterminism_demo_state(), (2, 2)), 40, seed)
    worst = max(float(np.abs(eigvalsh(sample.representatives - pure)).sum(axis=-1).max())
                for pure, sample in zip(pure22 + pure23, walked22 + walked23))
    return worst, demo_sample


def run_verification_report(seed: int = 7, include_upb: bool = False) -> dict:
    checks: list[dict] = []

    def add(name: str, passed: bool, **values):
        checks.append({"name": name, "pass": bool(passed), **values})

    # --- The real EPR state's shadow and its negative eigenvalue ---------
    zz = real_epr_state()
    w_state = lt_state(zz, (2, 2))
    w = w_state.op
    closed = epr_shadow_closed_form()
    eigvals, eigvecs = eigh(w)
    lam_min = float(eigvals[0])
    target = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
    overlap = abs(float(eigvecs[:, 0] @ target))
    add(
        "example1_epr_shadow",
        abs(lam_min + 0.25) <= 1e-10 and overlap >= 1 - 1e-8
        and max_norm(w - closed) <= 1e-12,
        example1_eigenvalue=lam_min,
        eigenvector_overlap=overlap,
        closed_form_deviation=max_norm(w - closed),
    )

    # --- Cone placements of that shadow ----------------------------------
    params = FeasibilityParams(seed=seed)
    box = in_boxtimes_cone(w, (2, 2), params)
    box_replay = (
        box.verdict == MEMBER
        and replay_boxtimes_member(w, (2, 2), box.certificate["kernel_offset"])
    )
    pss = in_positive_ss_cone(w, (2, 2))
    add(
        "example1_cone_placement",
        box_replay and pss.verdict == NON_MEMBER,
        boxtimes_verdict=box.verdict,
        certificate_replays=box_replay,
        positive_ss_verdict=pss.verdict,
    )

    # --- The pairing functional on the antisymmetric generators -----------
    eps = epsilon_functional((2, 2))
    j = antisym_generator()
    jj = kron(j, j)
    eps_on_jj = float(eps.apply(jj)[0, 0])
    eps_check = is_locally_positive(eps)
    add(
        "example2_pairing_functional",
        abs(eps_on_jj - 2.0) <= 1e-12 and not eps_check.locally_positive,
        epsilon_on_JJ=eps_on_jj,
        epsilon_locally_positive=eps_check.locally_positive,
    )

    # --- Shadow projection vs its defining linear system ------------------
    worst = shadow_vs_defining_system(seed)
    add("shadow_equals_defining_system", worst <= 1e-9, max_deviation=worst, samples=60)

    # --- Block criterion for local positivity ----------------------------
    swap = swap_process((2, 2))
    swap_lp = is_locally_positive(swap)
    leaky = random_kernel_leaking_process((2, 2), seed=seed)
    leak_lp = is_locally_positive(leaky)
    add(
        "local_positivity_block_criterion",
        swap_lp.locally_positive and not eps_check.locally_positive
        and not leak_lp.locally_positive,
        swap_locally_positive=swap_lp.locally_positive,
        epsilon_locally_positive=eps_check.locally_positive,
        orthogonal_conjugation_defect=leak_lp.defect,
    )

    # --- Unextendible product basis witness chain -------------------------
    xs, ys = tiles_upb()
    z = product_vectors(xs, ys)
    gram_dev = max_norm(z @ z.T - np.eye(len(z)))
    x_form, rho, margin = separating_max_cone_form(seed=seed)
    aa_norm = float(np.linalg.norm(grading_basis((3, 3)).rows("aa") @ rho.ravel()))
    # A shadow effect is a psd-ss operator: one verdict fills both fields.
    pss_rho = in_positive_ss_cone(rho, (3, 3))
    min_rho = in_min_cone(rho, (3, 3), params)
    x_max = in_max_cone(x_form, (3, 3), params)
    pairing = float(np.sum(rho * x_form))
    overlap_val = (
        min_rho.certificate.get("max_product_overlap") if min_rho.certificate else None
    )
    add(
        "upb_witness_chain",
        len(z) == 5 and gram_dev <= 1e-12 and aa_norm <= 1e-12
        and margin > 0.02
        and pss_rho.verdict == MEMBER
        and min_rho.verdict == NON_MEMBER
        and x_max.verdict == MEMBER and pairing < -1e-8,
        family_size=len(z),
        gram_deviation=gram_dev,
        state_kernel_norm=aa_norm,
        unextendibility_margin=margin,
        upb_in_positive_ss=pss_rho.verdict,
        upb_in_min_cone=min_rho.verdict,
        max_product_overlap_with_range=overlap_val,
        upb_as_effect=pss_rho.verdict,
        separated_form_in_max_cone=x_max.verdict,
        separation_pairing=pairing,
    )

    # --- Pure-state fiber rigidity ----------------------------------------
    worst_rigidity, demo_sample = report_fiber_walks(seed)
    add("pure_state_fiber_rigidity", worst_rigidity <= 1e-7,
        max_trace_norm_deviation=worst_rigidity)

    # --- Kernel invariance -------------------------------------------------
    worst_kernel = kernel_invariance_deviation(seed)
    add("kernel_invariance", worst_kernel <= 1e-13, max_coordinate_deviation=worst_kernel)

    # --- Non-deterministic shadows -----------------------------------------
    local = random_locally_positive_process((2, 2), seed=seed)
    spread_leaky = push_and_spread(demo_sample, leaky)
    spread_local = push_and_spread(demo_sample, local)
    add(
        "nondeterministic_shadow_demo",
        spread_leaky.diameter > 0.01 and spread_local.diameter <= 1e-7,
        fiber_points=demo_sample.n_accepted,
        leaky_diameter=spread_leaky.diameter,
        local_diameter=spread_local.diameter,
    )

    report = {
        "version": __version__,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    if include_upb:
        report["upb_state"] = matrix_to_json(rho, dims=(3, 3))
        report["upb_vectors"] = [{"x": x.tolist(), "y": y.tolist()} for x, y in zip(xs, ys)]
    return report
