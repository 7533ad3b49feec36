"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a fixed list of operations built from the workload seed.
An operation is one call into the program (a CLI invocation, one cone
query, or one process case); its check compares the output with the
input's known truth and replays every certificate with the independent
computations in ``reference``.  A check returns ``(failed, errors)``:
``failed`` marks an honest ``undecided``, ``errors`` lists incorrect outputs.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ltshadow.cli as cli
from ltshadow import cones, processes

import reference as ref

DIMS = ((2, 2), (2, 3), (3, 3))

# Seed of the inputs that do not depend on --seed (middle-rank boxtimes
# members, whose verdict is the same on every run).
FIXED_SEED = 20230831


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, list[str]]]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.choice(2**31 - 1, size=n, replace=False)]


@functools.lru_cache(maxsize=None)
def grading(dims: tuple[int, int]) -> ref.Grading:
    return ref.Grading(dims)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    return {"cli": cli_ops, "oracles": oracle_ops, "processes": process_ops}[name](seed, workdir)


# ---------------------------------------------------------------------------
# cli: `examples` reports and `fiber --map` runs, in-process
# ---------------------------------------------------------------------------

N_EXAMPLES = 7
FIBER_N = 100


def _closed_forms() -> tuple[float, float]:
    """EPR shadow's lowest eigenvalue and epsilon(J o J), computed here."""
    z = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    epr_shadow = ref.symmetrize(np.outer(z, z), (2, 2))
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    # epsilon has kernel matrix sum_ik E_ik o E_ik.
    pairing = sum(np.kron(e, e) for e in (np.outer(a, b) for a in np.eye(2) for b in np.eye(2)))
    return ref.lambda_min(epr_shadow), float(np.sum(pairing * np.kron(j, j)))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def cli_ops(seed: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, 1)
    epr_eigenvalue, epsilon_jj = _closed_forms()
    example_seeds = _seeds(rng, N_EXAMPLES)
    reference_bytes: dict[int, bytes] = {}

    def examples_op(s: int, out: Path) -> Op:
        def check(code):
            errors = []
            data = out.read_bytes()
            first = reference_bytes.setdefault(s, data)
            if data != first:
                errors.append(f"examples --seed {s}: output differs between runs")
            report = json.loads(data)
            if code != 0:
                errors.append(f"examples --seed {s}: exit code {code}")
            if report.get("seed") != s or not report.get("all_pass"):
                errors.append(f"examples --seed {s}: all_pass is not true")
            checks = {c["name"]: c for c in report.get("checks", [])}
            errors += [f"examples --seed {s}: check {n} failed"
                       for n, c in checks.items() if not c["pass"]]
            lam = checks.get("example1_epr_shadow", {}).get("example1_eigenvalue")
            if lam is None or abs(lam - epr_eigenvalue) > 1e-10:
                errors.append(f"examples --seed {s}: EPR shadow eigenvalue {lam} != -1/4")
            eps = checks.get("example2_pairing_functional", {}).get("epsilon_on_JJ")
            if eps is None or abs(eps - epsilon_jj) > 1e-12:
                errors.append(f"examples --seed {s}: epsilon(J o J) = {eps} != 2")
            return False, errors

        argv = ["examples", "--seed", str(s), "--output", str(out)]
        return Op("examples", lambda: cli.main(argv), check)

    def fiber_op(dims, shadow_file: Path, map_file: Path, local: bool, s: int,
                 out: Path) -> Op:
        kernel_dim = len(grading(dims).index["aa"])

        def check(code):
            errors = []
            what = f"fiber {dims} {'local' if local else 'leaking'} map"
            if code != 0:
                return False, [f"{what}: exit code {code}"]
            r = json.loads(out.read_text(encoding="utf-8"))
            spread = r["spread"]
            if (r["seed"] != s or r["n_requested"] != FIBER_N
                    or r["n_accepted"] + r["rejected"] != FIBER_N or r["n_accepted"] < 2
                    or r["kernel_dim"] != kernel_dim):
                errors.append(f"{what}: inconsistent sample bookkeeping {r}")
            if spread["n"] + spread["excluded"] != r["n_accepted"] or spread["n"] < 2:
                errors.append(f"{what}: inconsistent spread bookkeeping {spread}")
            if spread["mean_pairwise"] > spread["diameter"] + 1e-15:
                errors.append(f"{what}: mean pairwise distance exceeds the diameter")
            if local and (spread["diameter"] > 1e-7 or not spread["deterministic"]):
                errors.append(f"{what}: locally positive map spreads the fiber "
                              f"(diameter {spread['diameter']:.3e})")
            if not local and (spread["deterministic"] or spread["diameter"] <= 1e-6):
                errors.append(f"{what}: kernel-leaking map does not spread a full-rank fiber")
            return False, errors

        argv = ["fiber", "--shadow", str(shadow_file), "--n", str(FIBER_N),
                "--seed", str(s), "--map", str(map_file), "--output", str(out)]
        return Op("fiber", lambda: cli.main(argv), check)

    fibers = []
    for dims in ((2, 3), (3, 3)):
        g = grading(dims)
        d = g.d
        # Full-rank and well conditioned: the feasibility start always succeeds.
        shadow = ref.symmetrize(ref.random_state(d, 2 * d, rng), dims)
        shadow_file = workdir / f"shadow-{dims[0]}{dims[1]}.json"
        _write_json(shadow_file, {"dim": d, "dims": list(dims), "rows": shadow.tolist()})
        # Local Kraus map sum_k (A_k o B_k) X (A_k o B_k)^T: keeps every block.
        local = sum(ref.conjugation_superop(np.kron(rng.standard_normal(dims[:1] * 2),
                                                    rng.standard_normal(dims[1:] * 2)))
                    for _ in range(2)) / d
        leaking = ref.conjugation_superop(ref.orthogonal(d, rng))
        for is_local, sup in ((True, local), (False, leaking)):
            map_file = workdir / f"map-{dims[0]}{dims[1]}-{'local' if is_local else 'leaking'}.json"
            _write_json(map_file, {"in_dims": list(dims), "out_dims": list(dims),
                                   "matrix": g.superop_matrix(sup).tolist()})
            fibers.append((dims, shadow_file, map_file, is_local))

    fiber_seeds = iter(_seeds(rng, len(fibers)))
    fiber_args = iter(fibers)
    # The repeated seed comes last; fiber runs are spread between examples.
    examples = iter(example_seeds + example_seeds[:1])
    ops = []
    for slot, c in enumerate("efeefeefeefe"):
        out = workdir / f"out-{slot}.json"
        if c == "f":
            ops.append(fiber_op(*next(fiber_args), next(fiber_seeds), out))
        else:
            ops.append(examples_op(next(examples), out))
    return ops


# ---------------------------------------------------------------------------
# oracles: cone-membership queries with known truth
# ---------------------------------------------------------------------------

DELTA = 0.05  # depth of the constructed boxtimes/max-cone non-members
# Half the tiles unextendibility margin (the minimum of q over unit product
# vectors for sum_i P_i, 0.0284162 by alternating search from hundreds of
# restarts), rounded down: X below stays in the maximal cone by a wide margin.
TILES_MARGIN_HALF = 0.0142


def tiles_vectors() -> list[tuple[np.ndarray, np.ndarray]]:
    e = np.eye(3)
    h = 1.0 / np.sqrt(2.0)
    u = np.ones(3) / np.sqrt(3.0)
    return [(e[0], (e[0] - e[1]) * h), ((e[0] - e[1]) * h, e[2]),
            (e[2], (e[1] - e[2]) * h), ((e[1] - e[2]) * h, e[0]), (u, u)]


def _cone_check(what: str, member: bool, replay):
    """Check a cone verdict against the known truth; replay its certificate.

    ``replay(verdict, certificate)`` returns the certificate's errors.
    """
    def check(result):
        if result.verdict == cones.UNDECIDED:
            return True, []
        errors = replay(result.verdict, result.certificate or {})
        if result.verdict != (cones.MEMBER if member else cones.NON_MEMBER):
            errors.append(f"{what}: verdict {result.verdict} contradicts known truth")
        return False, errors

    return check


def _boxtimes_check(dims, m, member: bool):
    g = grading(dims)

    def replay(verdict, cert):
        if verdict == cones.MEMBER:
            return ref.replay_kernel_offset(g, m, cert.get("kernel_offset"))
        return ref.replay_functional(g, m, cert.get("separating_functional"))

    return _cone_check(f"boxtimes {dims}", member, replay)


def _max_check(dims, m, member: bool):
    def replay(verdict, cert):
        if verdict == cones.NON_MEMBER:
            return ref.replay_product_witness(m, dims, cert["witness_x"], cert["witness_y"],
                                              cert["quadratic_value"])
        value = ref.q_form(m, dims, cert["argmin_x"], cert["argmin_y"])
        if not cert.get("heuristic") or abs(value - cert["min_quadratic"]) > 1e-9 * (1 + abs(value)):
            return ["max-cone member certificate does not replay"]
        return []

    return _cone_check(f"max cone {dims}", member, replay)


def _min_check(dims, m, member: bool):
    def replay(verdict, cert):
        if verdict == cones.MEMBER:
            return ref.replay_decomposition(m, cert["weights"], cert["vectors_a"],
                                            cert["vectors_b"])
        if cert.get("criterion") == "not_psd":
            return ref.replay_negative_direction(m, cert["witness_vector"])
        if cert.get("criterion") == "range":
            return ref.replay_range_overlap(m, cert["best_x"], cert["best_y"],
                                            cert["max_product_overlap"])
        return [f"min cone: unknown non-member certificate {sorted(cert)}"]

    return _cone_check(f"min cone {dims}", member, replay)


def _psd_check(dims, m):
    def replay(verdict, cert):
        if verdict == cones.NON_MEMBER:
            return ref.replay_negative_direction(m, cert["witness_vector"])
        w, v = np.asarray(cert["eigenvalues"]), np.asarray(cert["eigenvectors"])
        if float(np.max(np.abs((v * w) @ v.T - m))) > 1e-9 or w[0] < -ref.PSD_TOL:
            return ["psd-ss member eigendecomposition does not replay"]
        return []

    # The truth here is this module's own eigvalsh, at the program's tolerance.
    return _cone_check(f"psd-ss {dims}", ref.lambda_min(m) >= -ref.PSD_TOL, replay)


def oracle_ops(seed: int, workdir: Path) -> list[Op]:
    ops: list[Op] = []

    def query(kind, fn, m, dims, check, params=None):
        args = (m, dims) if params is None else (m, dims, params)
        ops.append(Op(kind, lambda: getattr(cones, fn)(*args), check))

    for i, dims in enumerate(DIMS):
        rng = _rng(seed, 2, i)
        d = dims[0] * dims[1]
        params = cones.FeasibilityParams(seed=_seeds(rng, 1)[0])
        ranks = [1, 1, 1, 2, 3] if dims == (2, 2) else [1, 1, 1]
        members = [ref.symmetrize(ref.random_state(d, r, rng), dims) for r in ranks]
        # Well-conditioned full rank (2d Wishart columns).
        members.append(ref.symmetrize(ref.random_state(d, 2 * d, rng), dims))
        non_members = []
        for s in members[:3]:
            f = ref.product_projector(ref.unit(dims[0], rng), ref.unit(dims[1], rng))
            # <F, M> = -DELTA for the ss-supported product effect F.
            non_members.append(s - (float(np.sum(f * s)) + DELTA) * f)
        product = ref.product_projector(ref.unit(dims[0], rng), ref.unit(dims[1], rng))

        for m in members:
            query("boxtimes/member", "in_boxtimes_cone", m, dims,
                  _boxtimes_check(dims, m, True), params)
        for m in non_members:
            query("boxtimes/non_member", "in_boxtimes_cone", m, dims,
                  _boxtimes_check(dims, m, False), params)
        for m, member in ((members[0], True), (members[-1], True), (non_members[0], False)):
            query("max", "in_max_cone", m, dims, _max_check(dims, m, member), params)
        for m in members + non_members[:1]:
            query("psd-ss", "in_positive_ss_cone", m, dims, _psd_check(dims, m))
        query("min/product", "in_min_cone", product, dims, _min_check(dims, product, True),
              params)
        query("min/not_psd", "in_min_cone", non_members[1], dims,
              _min_check(dims, non_members[1], False), params)

    # Seed-independent inputs.  Shadows of positive states of middle rank:
    # alternating projections stall on most of them, so their verdict is an
    # honest "undecided" (a failed operation), identical on every run.
    fixed = _rng(FIXED_SEED)
    params = cones.FeasibilityParams(seed=_seeds(_rng(seed, 3), 1)[0])
    for dims, ranks in (((2, 3), range(2, 6)), ((3, 3), range(2, 9))):
        for r in ranks:
            m = ref.symmetrize(ref.random_state(dims[0] * dims[1], r, fixed), dims)
            query("boxtimes/middle_rank", "in_boxtimes_cone", m, dims,
                  _boxtimes_check(dims, m, True), params)

    # The tiles UPB state (entangled, positive, ss-supported) and the form
    # X = sum_i P_i - t I: X is in the maximal cone (t below the margin) but
    # <rho, X> = -t < 0 keeps it out of the boxtimes cone.
    pairs = tiles_vectors()
    span = sum(ref.product_projector(x, y) for x, y in pairs)
    rho = (np.eye(9) - span) / 4.0
    x_form = span - TILES_MARGIN_HALF * np.eye(9)
    query("min/upb", "in_min_cone", rho, (3, 3), _min_check((3, 3), rho, False), params)
    query("max", "in_max_cone", x_form, (3, 3), _max_check((3, 3), x_form, True), params)
    query("boxtimes/non_member", "in_boxtimes_cone", x_form, (3, 3),
          _boxtimes_check((3, 3), x_form, False), params)
    return ops


# ---------------------------------------------------------------------------
# processes: generators, local positivity, shadows of maps, positivity
# ---------------------------------------------------------------------------

SEEDS_PER_DIMS = 10
N_PROBES = 3


def _maps_positive_on(g, dims, named_maps, probes) -> list[str]:
    errors = []
    for name, proc in named_maps:
        scale = 1.0 + float(np.max(np.abs(proc.matrix)))
        for p in probes:
            lam = ref.lambda_min(g.apply(proc.matrix, p))
            if lam < -ref.PSD_TOL * scale:
                errors.append(f"{dims}: {name} map sends a product state to lambda_min {lam:.3e}")
    return errors


def _process_case(dims, gen_seed: int, neg_matrix, probes, params) -> list[Op]:
    """Four operations on one generator seed; later ones use earlier maps."""
    g = grading(dims)
    ss, aa = g.index["ss"], g.index["aa"]
    neg = processes.LinearProcess(dims, dims, neg_matrix)
    maps = {}

    def generate():
        maps["phi"] = processes.random_locally_positive_process(dims, gen_seed)
        return maps["phi"]

    def check_generate(phi):
        scale = 1.0 + float(np.max(np.abs(phi.matrix)))
        leak = float(np.max(np.abs(phi.matrix[np.ix_(ss, aa)])))
        errors = _maps_positive_on(g, dims, [("generated", phi)], probes)
        if leak > 1e-9 * scale:
            errors.append(f"{dims}: generated map has kernel->shadow block {leak:.3e}")
        return False, errors

    def local():
        phi = maps["phi"]
        maps["psi"] = psi = processes.random_kernel_leaking_process(dims, gen_seed)
        return (psi, processes.is_locally_positive(phi), processes.is_locally_positive(psi),
                processes.shadow_of_map(phi), processes.shadow_of_map(phi.compose(phi)))

    def check_local(out):
        psi, lp_phi, lp_psi, s1, s2 = out
        a = maps["phi"].matrix
        scale = 1.0 + float(np.max(np.abs(a)))
        errors = _maps_positive_on(g, dims, [("kernel-leaking", psi)], probes)
        if not lp_phi.locally_positive:
            errors.append(f"{dims}: generated map judged not locally positive")
        psi_leak = float(np.max(np.abs(psi.matrix[np.ix_(ss, aa)])))
        if psi_leak < 1e-4 or lp_psi.locally_positive:
            errors.append(f"{dims}: kernel-leaking map has kernel->shadow block {psi_leak:.3e}")
        else:
            k = np.asarray(lp_psi.witness_kernel_element)
            image = ref.symmetrize(g.apply(psi.matrix, k), dims)
            if (g.off_block(k, "aa") > ref.SUPPORT_TOL
                    or float(np.max(np.abs(image - lp_psi.witness_shadow_image))) > 1e-9
                    or float(np.max(np.abs(image))) <= 1e-9):
                errors.append(f"{dims}: local-positivity witness does not replay")
        b1 = s1.matrix[np.ix_(ss, ss)]
        rest = s1.matrix.copy()
        rest[np.ix_(ss, ss)] = 0.0
        if max(float(np.max(np.abs(b1 - a[np.ix_(ss, ss)]))),
               float(np.max(np.abs(rest)))) > 1e-12 * scale:
            errors.append(f"{dims}: shadow of map is not the shadow block")
        b2 = s2.matrix[np.ix_(ss, ss)]
        if float(np.max(np.abs(b2 - b1 @ b1))) > 1e-9 * (1.0 + float(np.max(np.abs(b1)))) ** 2:
            errors.append(f"{dims}: shadow of the composite is not the composite of shadows")
        return False, errors

    def check_positive(v):
        if v.verdict == processes.UNDECIDED:
            return True, []
        if v.verdict != processes.POSITIVE:
            return False, [f"{dims}: orthogonal conjugation judged {v.verdict}"]
        return False, []

    def check_not_positive(v):
        if v.verdict == processes.UNDECIDED:
            return True, []
        if v.verdict != processes.NOT_POSITIVE or v.witness is None:
            return False, [f"{dims}: non-positive map judged {v.verdict}"]
        x = np.asarray(v.witness)
        lam = ref.lambda_min(g.apply(neg_matrix, np.outer(x, x)))
        if not lam < -ref.PSD_TOL or abs(lam - v.value) > 1e-9:
            return False, [f"{dims}: not-positive witness does not replay ({lam:.3e})"]
        return False, []

    return [
        Op("generate", generate, check_generate),
        Op("local", local, check_local),
        Op("positive", lambda: processes.is_positive_map_heuristic(maps["psi"], params),
           check_positive),
        Op("not_positive", lambda: processes.is_positive_map_heuristic(neg, params),
           check_not_positive),
    ]


def process_ops(seed: int, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    for i, dims in enumerate(DIMS):
        rng = _rng(seed, 4, i)
        d = dims[0] * dims[1]
        for gen_seed, h_seed in zip(_seeds(rng, SEEDS_PER_DIMS), _seeds(rng, SEEDS_PER_DIMS)):
            # Q PT_B(X) Q^T: not positive (an entangled x x^T goes negative).
            neg_matrix = grading(dims).superop_matrix(
                ref.conjugation_superop(ref.orthogonal(d, rng)) @ ref.partial_transpose_superop(dims))
            probes = [ref.product_projector(ref.unit(dims[0], rng), ref.unit(dims[1], rng))
                      for _ in range(N_PROBES)]
            ops += _process_case(dims, gen_seed, neg_matrix, probes,
                                 cones.FeasibilityParams(seed=h_seed))
    return ops
