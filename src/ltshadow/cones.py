"""Membership oracles, with certificates, for the four nested tensor cones.

For a bipartite system the shadow-visible matrices carry four cones, nested
as

    minimal (separable)  <=  positive-in-ss  <=  boxtimes  <=  maximal,

where the boxtimes cone is the set of shadows of positive global states,
i.e. the ss-supported matrices M admitting a kernel offset K (aa-supported)
with M + K positive semidefinite.  The maximal cone consists of forms
nonnegative on all product effects; the dual of the boxtimes cone is the set
of positive operators inside the ss block (see
:func:`effect_in_shadow_cone`).

Every ``member`` verdict carries a certificate that replays independently of
the search that produced it; ``non_member`` verdicts carry a witness (a
violating eigenvector, a product-effect pair, or a separating functional).
Heuristic verdicts are flagged as such in the certificate.  ``undecided`` is
an honest outcome for the incomplete oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import build_block_basis, project_block
from .errors import DimensionMismatch
from .linalg import (
    max_norm,
    min_eigenvalue,
    rng_from_seed,
    sym_part,
    trace_inner,
)
from .shadow import require_shadow_support

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided"

# Range-criterion guard band: the best product overlap with range(M) must
# fall below 1 - RANGE_CRITERION_DELTA before entanglement is declared, so
# optimizer noise cannot trip the criterion.
RANGE_CRITERION_DELTA = 0.01

# Internal stream tags so each stochastic sub-search draws an independent,
# reproducible stream from the caller's seed.
_STREAM_MAX_CONE = 1
_STREAM_MIN_RANGE = 2
_STREAM_MIN_ATOMS = 3


@dataclass(frozen=True)
class FeasibilityParams:
    """Shared knobs for the iterative oracles.  The seed is mandatory."""

    seed: int
    tol: float = 1e-8
    max_iter: int = 5000
    restarts: int = 32

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    def rng(self, *stream: int) -> np.random.Generator:
        return rng_from_seed(self.seed, *stream)


@dataclass
class ConeMembershipResult:
    verdict: str
    certificate: dict | None
    iterations: int
    residual: float

    @property
    def is_member(self) -> bool:
        return self.verdict == MEMBER


def _as_bipartite(dims) -> tuple[int, int]:
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2 or any(d < 1 for d in dims):
        raise DimensionMismatch(f"cone oracles are bipartite; got dims {dims}")
    return dims


def require_ss_support(m: np.ndarray, dims) -> np.ndarray:
    """Validate that M is symmetric and supported on the ss block."""
    dims = _as_bipartite(dims)
    m = np.asarray(m, dtype=float)
    d = dims[0] * dims[1]
    if m.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match dims {dims}")
    return require_shadow_support(m, dims)


# ---------------------------------------------------------------------------
# Product-form quadratic optimization (shared by max cone / range criterion)
# ---------------------------------------------------------------------------


def product_quadratic_value(m: np.ndarray, dims, x: np.ndarray, y: np.ndarray) -> float:
    """q(x, y) = <x o y, M (x o y)> for unit vectors on the two factors."""
    da, db = _as_bipartite(dims)
    m4 = np.asarray(m, dtype=float).reshape(da, db, da, db)
    return float(np.einsum("ijkl,i,j,k,l->", m4, x, y, x, y))


def _alternating_extremum(m4, da, db, y0, minimize, iters):
    idx = 0 if minimize else -1
    y = y0
    x = None
    prev = None
    for _ in range(iters):
        ay = np.einsum("ijkl,j,l->ik", m4, y, y)
        w, u = np.linalg.eigh((ay + ay.T) / 2)
        x = u[:, idx]
        bx = np.einsum("ijkl,i,k->jl", m4, x, x)
        w2, u2 = np.linalg.eigh((bx + bx.T) / 2)
        y = u2[:, idx]
        val = float(w2[idx])
        if prev is not None and abs(val - prev) <= 1e-14 * (1 + abs(val)):
            break
        prev = val
    val = float(np.einsum("ijkl,i,j,k,l->", m4, x, y, x, y))
    return val, x, y


def product_form_extremum(m: np.ndarray, dims, params: FeasibilityParams,
                          minimize: bool = True, stream: int = _STREAM_MAX_CONE,
                          iters: int = 120):
    """Heuristic extremum of q(x, y) over unit product vectors.

    Alternating exact eigenvector steps (fix y, optimize x; fix x, optimize
    y), multi-restart with per-restart derived seeds.  Returns
    (value, x, y); the value is recomputed from the returned pair.
    """
    da, db = _as_bipartite(dims)
    m4 = np.asarray(m, dtype=float).reshape(da, db, da, db)

    def one_restart(k: int):
        rng = params.rng(stream, k)
        y0 = rng.standard_normal(db)
        y0 /= np.linalg.norm(y0)
        return _alternating_extremum(m4, da, db, y0, minimize, iters)

    results = [one_restart(k) for k in range(params.restarts)]
    if minimize:
        best = min(range(len(results)), key=lambda k: (results[k][0], k))
    else:
        best = max(range(len(results)), key=lambda k: (results[k][0], -k))
    return results[best]


# ---------------------------------------------------------------------------
# Positive-in-ss cone
# ---------------------------------------------------------------------------


def in_positive_ss_cone(m: np.ndarray, dims, tol: float = 1e-8) -> ConeMembershipResult:
    """Membership in the cone of positive operators supported on the ss block."""
    m = require_ss_support(m, dims)
    w, v = np.linalg.eigh(sym_part(m))
    lam = float(w[0])
    if lam >= -tol:
        cert = {"eigenvalues": w, "eigenvectors": v}
        return ConeMembershipResult(MEMBER, cert, 1, max(0.0, -lam))
    cert = {"witness_vector": v[:, 0], "eigenvalue": lam}
    return ConeMembershipResult(NON_MEMBER, cert, 1, -lam)


# ---------------------------------------------------------------------------
# Boxtimes cone (shadows of positive global states)
# ---------------------------------------------------------------------------


def replay_boxtimes_member(m: np.ndarray, dims, k: np.ndarray,
                           psd_tol: float = 1e-8, span_tol: float = 1e-9) -> bool:
    """Check a member certificate: K lies in the aa span and M + K is PSD."""
    dims = _as_bipartite(dims)
    basis = build_block_basis(*dims)
    k = np.asarray(k, dtype=float)
    off_span = max_norm(k - project_block(k, basis, "aa"))
    if off_span > span_tol * (1 + max_norm(k)):
        return False
    return min_eigenvalue(np.asarray(m, dtype=float) + k) >= -psd_tol


def replay_separating_functional(m: np.ndarray, dims, f: np.ndarray,
                                 tol: float = 1e-8):
    """Check a non-member certificate for the boxtimes cone.

    The functional is projected onto the ss block (so it annihilates every
    kernel offset exactly) and then must satisfy the sound inequality
        <f, M> + max(0, -lambda_min(f)) * max(Tr M, 0) < -tol,
    which rules out any PSD completion of M.  Returns (ok, f_projected,
    pairing).
    """
    dims = _as_bipartite(dims)
    basis = build_block_basis(*dims)
    fh = project_block(sym_part(np.asarray(f, dtype=float)), basis, "ss")
    lam = min_eigenvalue(fh)
    pairing = trace_inner(fh, np.asarray(m, dtype=float))
    slack = max(0.0, -lam) * max(float(np.trace(m)), 0.0)
    return pairing + slack < -tol, fh, pairing


def _boxtimes_line_search(m: np.ndarray, dims, tol: float):
    """Exact 1-D oracle for a one-dimensional kernel (dims (2, 2)).

    lambda_min(M + t K) is a minimum of linear functions of t, hence concave;
    golden-section maximization over a bracket that provably contains the
    optimum decides membership exactly (up to tol).
    """
    basis = build_block_basis(*dims)
    k = basis.basis_aa[0]

    def f(t: float) -> float:
        return min_eigenvalue(m + t * k)

    d = m.shape[0]
    span = 8.0 * d * (max_norm(m) + 1.0)
    a, b = -span, span
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    e = a + gr * (b - a)
    fc, fe = f(c), f(e)
    evals = 2
    while b - a > 1e-13 * span and evals < 400:
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + gr * (b - a)
            fe = f(e)
        evals += 1
    t_star = (a + b) / 2
    return f(t_star), t_star, evals


def in_boxtimes_cone(m: np.ndarray, dims, params: FeasibilityParams,
                     method: str = "auto") -> ConeMembershipResult:
    """Does some kernel offset K (aa-supported) make M + K positive?

    Methods:
      * ``line`` - exact concave 1-D search, available when the kernel is
        one-dimensional (both factors of dimension 2);
      * ``projection`` - alternating projections between the PSD cone and
        the affine slice M + span(aa).  A feasible affine iterate yields the
        member certificate K; if the iteration stalls at a positive gap, the
        gap vector (negative part of the affine iterate, PSD by
        construction and ss-supported in the limit) is replayed as a
        separating functional.  Verdicts never claim non-membership from a
        failed projection run alone: either the separation replays or the
        result is ``undecided``.
      * ``auto`` - ``line`` when available, else ``projection``.
    """
    dims = _as_bipartite(dims)
    m = require_ss_support(m, dims)
    tol = params.tol
    basis = build_block_basis(*dims)
    kernel_dim = len(basis.basis_aa)

    if method == "auto":
        method = "line" if kernel_dim == 1 else "projection"
    if method == "line" and kernel_dim != 1:
        raise ValueError("line method requires a one-dimensional kernel (dims (2, 2))")
    if method not in ("line", "projection"):
        raise ValueError(f"unknown method {method!r}")

    # Negative trace rules out any PSD completion outright: Tr K = 0 for all
    # kernel offsets, so the identity is already a separating functional.
    tr = float(np.trace(m))
    if tr < -tol:
        eye = np.eye(m.shape[0])
        return ConeMembershipResult(
            NON_MEMBER,
            {"separating_functional": eye, "pairing": tr},
            0,
            -tr,
        )

    # M itself positive: the zero offset is already the cheapest certificate
    # (this is also the projection method's first iterate).
    lam0 = min_eigenvalue(m)
    if lam0 >= -tol:
        return ConeMembershipResult(MEMBER, {"kernel_offset": np.zeros_like(m)}, 1,
                                    max(0.0, -lam0))

    if kernel_dim == 0:
        w, v = np.linalg.eigh(sym_part(m))
        return ConeMembershipResult(
            NON_MEMBER,
            {"separating_functional": np.outer(v[:, 0], v[:, 0]), "pairing": float(w[0])},
            1,
            -lam0,
        )

    if method == "line":
        f_star, t_star, evals = _boxtimes_line_search(m, dims, tol)
        k = t_star * basis.basis_aa[0]
        if f_star >= -tol:
            return ConeMembershipResult(MEMBER, {"kernel_offset": k}, evals,
                                        max(0.0, -f_star))
        # The concave maximum is negative: certify with a separating
        # functional (sound replay), falling back to the projection method's
        # gap vector to construct it.
        result = _boxtimes_projection(m, dims, params)
        if result.verdict == NON_MEMBER:
            result.iterations += evals
            return result
        cert = {"line_maximum": f_star, "argmax_offset": k}
        return ConeMembershipResult(UNDECIDED, cert, evals + result.iterations, -f_star)

    return _boxtimes_projection(m, dims, params)


def _boxtimes_projection(m: np.ndarray, dims, params: FeasibilityParams) -> ConeMembershipResult:
    basis = build_block_basis(*dims)
    q = basis.rows("aa")
    tol = params.tol
    stall = 1e-13 * (1 + max_norm(m))
    a = m.copy()
    gap = None
    it = 0
    for it in range(1, params.max_iter + 1):
        w, v = np.linalg.eigh(sym_part(a))
        if w[0] >= -tol:
            k = a - m
            return ConeMembershipResult(MEMBER, {"kernel_offset": k}, it,
                                        max(0.0, -float(w[0])))
        p = (v * np.clip(w, 0.0, None)) @ v.T
        gap = p - a
        a_next = m + (q.T @ (q @ p.ravel())).reshape(m.shape)
        if max_norm(a_next - a) <= stall:
            a = a_next
            break
        a = a_next
    if gap is not None:
        # Unit trace makes the pairing scale like M rather than like M^2, so
        # the replay's absolute tol does not reject certificates at small scale.
        ok, fh, pairing = replay_separating_functional(m, dims, gap / np.trace(gap), tol)
        if ok:
            return ConeMembershipResult(
                NON_MEMBER, {"separating_functional": fh, "pairing": pairing}, it, -pairing
            )
    residual = float(np.linalg.norm(gap)) if gap is not None else float("nan")
    return ConeMembershipResult(UNDECIDED, None, it, residual)


# ---------------------------------------------------------------------------
# Maximal tensor cone (forms nonnegative on product effects)
# ---------------------------------------------------------------------------


def in_max_cone(m: np.ndarray, dims, params: FeasibilityParams) -> ConeMembershipResult:
    """Heuristic test that q(x, y) >= -tol for all unit product vectors.

    A negative value is an exact non-membership witness; a nonnegative
    minimum over all restarts is only as strong as the search, so member
    verdicts are flagged heuristic.
    """
    m = require_ss_support(m, dims)
    val, x, y = product_form_extremum(m, dims, params, minimize=True,
                                      stream=_STREAM_MAX_CONE)
    if val < -params.tol:
        cert = {"witness_x": x, "witness_y": y, "quadratic_value": val}
        return ConeMembershipResult(NON_MEMBER, cert, params.restarts, -val)
    cert = {"heuristic": True, "min_quadratic": val, "argmin_x": x, "argmin_y": y}
    return ConeMembershipResult(MEMBER, cert, params.restarts, max(0.0, -val))


# ---------------------------------------------------------------------------
# Minimal tensor cone (separable states)
# ---------------------------------------------------------------------------


def separable_certificate_error(m: np.ndarray, dims, weights, xs, ys) -> float:
    """Frobenius reconstruction error of a separable decomposition."""
    da, db = _as_bipartite(dims)
    acc = np.zeros((da * db, da * db))
    for w, x, y in zip(weights, xs, ys):
        acc += w * np.kron(np.outer(x, x), np.outer(y, y))
    return float(np.linalg.norm(np.asarray(m, dtype=float) - acc))


def _range_criterion(m, dims, params):
    """Best product overlap with range(M); fires when provably < 1.

    If no unit product vector lies in the range of a PSD matrix M != 0, then
    M cannot be a mixture of product states.  The overlap maximization is
    heuristic, so the criterion only fires below 1 - RANGE_CRITERION_DELTA.
    Returns (fired, info).
    """
    w, v = np.linalg.eigh(sym_part(m))
    lam_max = float(w[-1])
    rank_tol = 1e-10 * max(1.0, lam_max)
    support = w > rank_tol
    rank = int(np.count_nonzero(support))
    d = m.shape[0]
    if rank == 0 or rank == d:
        return False, {"range_rank": rank, "max_product_overlap": 1.0}
    proj = v[:, support] @ v[:, support].T
    val, x, y = product_form_extremum(proj, dims, params, minimize=False,
                                      stream=_STREAM_MIN_RANGE)
    info = {
        "criterion": "range",
        "range_rank": rank,
        "max_product_overlap": val,
        "best_x": x,
        "best_y": y,
    }
    return val < 1.0 - RANGE_CRITERION_DELTA, info


def _best_atom(residual, dims, params, atom_index):
    """Product projector most aligned with the residual (matching pursuit step)."""
    sub = FeasibilityParams(seed=params.seed, tol=params.tol,
                            max_iter=params.max_iter, restarts=max(4, params.restarts // 4))
    return product_form_extremum(residual, dims, sub, minimize=False,
                                 stream=_STREAM_MIN_ATOMS * 1000 + atom_index)


def in_min_cone(m: np.ndarray, dims, params: FeasibilityParams,
                max_atoms: int = 50) -> ConeMembershipResult:
    """Separability oracle: sound but incomplete in both directions.

    member     - a nonnegative product-state decomposition reconstructs M to
                 Frobenius residual <= tol (fully corrective matching
                 pursuit: best-aligned product atoms + NNLS refit);
    non_member - M is not PSD (trivially outside), or the range criterion
                 fires (no product vector in range(M));
    undecided  - neither search concluded, or the NNLS refit failed.
    """
    # Imported here: loading scipy.optimize takes longer than the rest of
    # `import ltshadow.cli`, and only this oracle uses it.
    from scipy.optimize import nnls

    m = require_ss_support(m, dims)
    dims = _as_bipartite(dims)

    lam = min_eigenvalue(m)
    if lam < -params.tol:
        w, v = np.linalg.eigh(sym_part(m))
        cert = {"criterion": "not_psd", "witness_vector": v[:, 0], "eigenvalue": lam}
        return ConeMembershipResult(NON_MEMBER, cert, 0, -lam)

    fired, info = _range_criterion(m, dims, params)
    if fired:
        return ConeMembershipResult(NON_MEMBER, info, params.restarts,
                                    1.0 - info["max_product_overlap"])

    # Fully corrective matching pursuit over product projectors.
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    weights = np.zeros(0)
    residual_mat = np.asarray(m, dtype=float).copy()
    residual = float(np.linalg.norm(residual_mat))
    for atom in range(max_atoms):
        _, x, y = _best_atom(residual_mat, dims, params, atom)
        xs.append(x)
        ys.append(y)
        cols.append(np.kron(np.outer(x, x), np.outer(y, y)).ravel())
        dictionary = np.stack(cols, axis=1)
        try:
            weights, residual = nnls(dictionary, np.asarray(m, dtype=float).ravel())
        except RuntimeError:
            # scipy's NNLS stops at its iteration cap on some dictionaries;
            # report the last finite residual and the atoms tried so far.
            return ConeMembershipResult(UNDECIDED, None, atom + 1, float(residual))
        if residual <= params.tol:
            cert = {
                "weights": weights,
                "vectors_a": xs,
                "vectors_b": ys,
                "residual_frobenius": float(residual),
            }
            return ConeMembershipResult(MEMBER, cert, atom + 1, float(residual))
        residual_mat = np.asarray(m, dtype=float) - (dictionary @ weights).reshape(m.shape)
    return ConeMembershipResult(UNDECIDED, None, max_atoms, float(residual))


# ---------------------------------------------------------------------------
# Effect cone of the shadow composite
# ---------------------------------------------------------------------------


# Shadow effects are exactly the positive operators inside the ss block.
# Entangled such operators exist (see the unextendible-product-basis state),
# which is how the boxtimes cone is separated from the maximal cone.
effect_in_shadow_cone = in_positive_ss_cone
