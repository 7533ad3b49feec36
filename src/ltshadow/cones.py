"""Membership oracles, with certificates, for the four nested tensor cones.

For a product system the shadow-visible matrices carry four cones, nested
as

    minimal (separable)  <=  positive-in-ss  <=  boxtimes  <=  maximal,

where the boxtimes cone is the set of shadows of positive global states,
i.e. the shadow-supported matrices M admitting a kernel offset K
(``kernel_index`` rows) with M + K positive semidefinite.  Its oracle is
exact up to a band of width tol at the boundary: a small semidefinite
program, solved by a log-barrier Newton method, returns the offset K or a
separating functional.
The maximal cone consists of forms nonnegative on all product effects; the
dual of the boxtimes cone is the set of positive operators inside the
shadow, the shadow effects (see :func:`in_positive_ss_cone`).  The minimal
cone is searched by a matching pursuit over product projectors whose
weights are refit by :func:`nnls`, the package's own active-set nonnegative
least squares, and bounded from outside by positivity and the range
criterion.

Every ``member`` verdict carries a certificate that replays independently of
the search that produced it; ``non_member`` verdicts carry a witness (a
violating eigenvector, a product-effect pair, or a separating functional).
Heuristic verdicts are flagged as such in the certificate.  ``undecided`` is
an honest outcome for the incomplete oracles (min, and boxtimes inside its
tolerance band).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import grading_basis, operand
from .linalg import (
    check_seed,
    check_tol,
    eigh,
    eigvalsh,
    max_norm,
    min_eigenvalue,
    product_vectors,
    rng_from_seed,
    trace_inner,
)
from .shadow import SHADOW_SUPPORT_TOL, local_shadow_matrix, require_shadow_support

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided"

# Range-criterion guard band: the best product overlap with range(M) must
# fall below 1 - RANGE_CRITERION_DELTA before entanglement is declared, so
# optimizer noise cannot trip the criterion.
RANGE_CRITERION_DELTA = 0.01

# Newton-step cap of the boxtimes barrier solver, and the factor by which its
# barrier weight grows after each re-centring step.
BOXTIMES_NEWTON_STEPS = 100
BARRIER_GROWTH = 50.0

# Sweep cap of each restart of the alternating product-form search: at most
# 2 * PRODUCT_FORM_SWEEPS half-steps.
PRODUCT_FORM_SWEEPS = 120

# A restart of the product-form search retires after the first half-step
# that moves its extreme value v by at most PRODUCT_FORM_STALL (1 + |v|).
PRODUCT_FORM_STALL = 1e-14

# Restarts of the product-form search: for the max cone, the range criterion
# and map positivity, and for each atom of the matching pursuit.
PRODUCT_FORM_RESTARTS = 32
PURSUIT_RESTARTS = 8

# Atom cap of the matching pursuit in the minimal cone.
MIN_CONE_ATOMS = 50

# Cap on the passive least-squares solves of one NNLS refit, per dictionary
# column (the 3n of Lawson & Hanson).
NNLS_SOLVES_PER_COLUMN = 3

# Internal stream tags so each stochastic sub-search draws an independent,
# reproducible stream from the caller's seed.
_STREAM_MAX_CONE = 1
_STREAM_MIN_RANGE = 2
_STREAM_MIN_ATOMS = 3


@dataclass(frozen=True)
class FeasibilityParams:
    """The seed (mandatory) and the tolerance of the oracles, stored as
    check_seed and check_tol return them: a Python int and a finite positive
    float.  The product-form search's restart counts are constants above."""

    seed: int
    tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "tol", check_tol(self.tol))


@dataclass
class ConeMembershipResult:
    """A verdict, its certificate (None when undecided) and two numbers.

    ``iterations`` counts psd-ss's one eigensolve, the boxtimes barrier's
    Newton steps (0 for a negative trace, 1 for a positive M), max's
    PRODUCT_FORM_RESTARTS, and min's pursuit atoms (PRODUCT_FORM_RESTARTS
    when the range criterion fires, 0 for an M that is not positive).
    ``residual`` is -lambda_min of M (psd-ss, min) or of M + K (boxtimes),
    -Tr M or minus the separating pairing (boxtimes non-members), -q_min
    (max members) or -q of the first certified witness (max non-members, a
    lower bound on the depth -q_min), 1 minus the best product overlap
    (range criterion) or the refit's Frobenius residual (pursuit); member
    verdicts clip it at 0.
    """

    verdict: str
    certificate: dict | None
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# Product-form quadratic optimization (max cone, range criterion, pursuit
# atoms, unextendibility margin, map positivity)
# ---------------------------------------------------------------------------


def product_form_extremum(m: np.ndarray, dims, seed: int,
                          restarts: int = PRODUCT_FORM_RESTARTS, minimize: bool = True,
                          stream: int = _STREAM_MAX_CONE, bound: float | None = None):
    """Heuristic extremum of q(x, y) over unit product vectors.

    Alternating exact eigenvector half-steps (x given y, then y given x)
    from ``restarts`` random starts y, drawn row by row from one
    rng_from_seed(seed, stream) call, so restart k's start depends on k but
    not on the number of restarts.  Each half-step is one stacked eigh over
    the restarts still live.  A restart retires after the first half-step that
    moves its extreme eigenvalue by at most PRODUCT_FORM_STALL (1 + |value|),
    or after 2 * PRODUCT_FORM_SWEEPS half-steps.  Each half-step is an exact
    block minimization (maximization), and the other block was optimized
    exactly one half-step earlier, so a stalled pair is block-wise optimal
    to the same tolerance.  Each contraction with M is a stack of row vectors
    (flattened outer products) times one matrix, so every restart's
    arithmetic is the same whichever other restarts share the stack.
    Returns (value, x, y) of the best restart, the lowest index on ties; the
    value is recomputed from the returned pair.

    With a bound, the search stops once its comparison with the bound is
    decided: after a half-step at which some live restart's extreme
    eigenvalue has crossed it (below it when minimizing, at or above it when
    maximizing), q is recomputed for every restart's current pair, and if
    the best of those has crossed too it is returned as above.  Each
    half-step is an exact block minimization (maximization), so every
    restart's value only moves towards the extremum: the full search would
    have crossed the bound as well, and a verdict read from the comparison
    is the same.  The value is then not the best the search could reach.
    Without a bound the result is the full search's, bit for bit.
    """
    m, (da, db) = operand(m, dims, parties=2)
    m4 = m.reshape(da, db, da, db)
    m_y = m4.transpose(1, 3, 0, 2).reshape(db * db, da * da)  # M[(j,l),(i,k)]
    m_x = m4.transpose(0, 2, 1, 3).reshape(da * da, db * db)  # M[(i,k),(j,l)]
    idx = 0 if minimize else -1
    y = rng_from_seed(seed, stream).standard_normal((restarts, db))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    x = np.empty((restarts, da))
    prev = np.full(restarts, np.nan)
    live = np.arange(restarts)
    for step in range(2 * PRODUCT_FORM_SWEEPS):
        # Even steps contract y and solve for x; odd steps the other way.
        given, solved, layout, d = (y, x, m_y, da) if step % 2 == 0 else (x, y, m_x, db)
        v = given[live]
        w, u = eigh((product_vectors(v, v)[:, None, :] @ layout).reshape(-1, d, d))
        solved[live] = u[:, :, idx]
        val = w[:, idx]
        done = np.abs(val - prev[live]) <= PRODUCT_FORM_STALL * (1 + np.abs(val))
        prev[live] = val
        if bound is not None and np.any(val < bound if minimize else val >= bound):
            best = _best_pair(x, y, m_x, minimize)
            if best[0] < bound if minimize else best[0] >= bound:
                return best
        live = live[~done]
        if not live.size:
            break
    return _best_pair(x, y, m_x, minimize)


def _best_pair(x, y, m_x, minimize):
    """(q, x, y) of the restart with the best q(x_r, y_r), lowest index on ties."""
    q = (product_vectors(x, x)[:, None, :] @ m_x @ product_vectors(y, y)[:, :, None]).ravel()
    best = int(np.argmin(q) if minimize else np.argmax(q))
    return float(q[best]), x[best], y[best]


# ---------------------------------------------------------------------------
# Positive-in-ss cone
# ---------------------------------------------------------------------------


def in_positive_ss_cone(m: np.ndarray, dims, tol: float = 1e-8) -> ConeMembershipResult:
    """Membership in the cone of positive operators supported on the shadow.

    These are exactly the shadow effects (``lt-shadow cone --cone effect``).
    Entangled ones exist (see the unextendible-product-basis state), which
    is how the boxtimes cone is separated from the maximal cone.
    """
    m, dims = require_shadow_support(m, dims)
    tol = check_tol(tol)
    w, v = eigh(m)
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
                           psd_tol: float = 1e-8) -> bool:
    """Check a member certificate: K lies in the shadow kernel (symmetric,
    with no shadow: its off-kernel part (K - K^T)/2 + local_shadow_matrix(K)
    is at most the SHADOW_SUPPORT_TOL * (1 + ||K||_max) of the support
    gate), and M + K is PSD."""
    k = np.asarray(k, dtype=float)
    off_kernel = max_norm((k - k.T) / 2 + local_shadow_matrix(k, dims))
    if off_kernel > SHADOW_SUPPORT_TOL * (1 + max_norm(k)):
        return False
    return min_eigenvalue(np.asarray(m, dtype=float) + k) >= -psd_tol


def replay_separating_functional(m: np.ndarray, dims, f: np.ndarray,
                                 tol: float = 1e-8):
    """Check a non-member certificate for the boxtimes cone.

    The functional is projected onto the shadow, fh = local_shadow_matrix(f),
    which is symmetric and annihilates every kernel offset exactly, and then
    must satisfy the sound inequality
        <fh, M> + max(0, -lambda_min(fh)) * max(Tr M, 0) < -tol,
    which rules out any PSD completion of M.  Returns (ok, fh, pairing).
    """
    fh = local_shadow_matrix(f, dims)
    lam = min_eigenvalue(fh)
    pairing = trace_inner(fh, np.asarray(m, dtype=float))
    slack = max(0.0, -lam) * max(float(np.trace(m)), 0.0)
    return pairing + slack < -tol, fh, pairing


def in_boxtimes_cone(m: np.ndarray, dims, params: FeasibilityParams) -> ConeMembershipResult:
    """Does some kernel offset K make M + K positive?

    Decides the sign of the optimum of the small semidefinite program

        t* = max t  subject to  M + sum_i c_i K_i - t I >= 0

    over the orthonormal kernel_index rows K_i of the grading basis, at any
    number of factors (Vandenberghe & Boyd, SIAM Rev. 1996),
    solved by :func:`_boxtimes_barrier`.  One solve yields either
    certificate: the offset K = sum_i c_i K_i with lambda_min(M + K) >=
    -tol/100 (``member``), or a unit-trace dual point, PSD and orthogonal to
    every K_i, as the separating functional (``non_member``, replayed by
    :func:`replay_separating_functional`).  ``undecided`` remains only for
    t* in the band [-tol, -tol/100), or when roundoff stops the solver first.
    Negative trace and lambda_min(M) >= -tol are decided before the solver.
    """
    m, dims = require_shadow_support(m, dims)
    tol = params.tol

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

    # M itself positive: the zero offset is already the cheapest certificate.
    lam0 = min_eigenvalue(m)
    if lam0 >= -tol:
        return ConeMembershipResult(MEMBER, {"kernel_offset": np.zeros_like(m)}, 1,
                                    max(0.0, -lam0))
    return _boxtimes_barrier(m, dims, lam0, tol)


def _boxtimes_barrier(m: np.ndarray, dims, lam0: float, tol: float) -> ConeMembershipResult:
    """Log-barrier path following for max t s.t. S = M + sum_i c_i K_i - t I >= 0.

    Minimizes -tau t - log det S over x = (c, t) for growing tau.  Write
    S = M + sum_a x_a A_a with A_a = K_a and A_k = -I.  With S = V diag(w) V^T
    and R = V diag(w)^-1/2, the gradient of -log det S is -Tr(R^T A_a R) and
    its Hessian is <R^T A_a R, R^T A_b R>, so each Newton step costs one eigh.
    A step with Newton decrement below 1 stays inside S > 0 and is taken in
    full, after which tau grows by BARRIER_GROWTH.  A longer step is cut back
    along the line, where log det S is known from the eigenvalues mu of
    R^T dS R (one eigvalsh).  At the full steps Z = R (I - R^T dS R) R^T / tau
    is PSD, has unit trace and is orthogonal to every K_i, so <Z, M> >= t*,
    with a gap of about D / tau (Boyd & Vandenberghe, Convex Optimization,
    ch. 11).
    """
    d = m.shape[0]
    g = grading_basis(dims)
    kernel = g.stacked[g.kernel_index]
    k = len(kernel)
    a_flat = np.concatenate([kernel, -np.eye(d).reshape(1, -1)])
    a = a_flat.reshape(k + 1, d, d)
    scale = max_norm(m)
    x = np.zeros(k + 1)
    x[k] = lam0 - scale  # S = M - t I >= ||M||_max I at the start
    tau = 1.0 / scale
    for step in range(1, BOXTIMES_NEWTON_STEPS + 1):
        w, v = eigh(m + (x @ a_flat).reshape(d, d))
        lower = x[k] + float(w[0])  # lambda_min(M + K) <= t*
        # The margin tol/100 also pins down K when M + K must be singular.
        if lower >= -0.01 * tol:
            offset = (x[:k] @ kernel).reshape(d, d)
            return ConeMembershipResult(MEMBER, {"kernel_offset": offset}, step,
                                        max(0.0, -lower))
        if w[0] <= 0.0:
            break  # roundoff has reached the smallest eigenvalue of S
        r = v / np.sqrt(w)
        b = r.T @ a @ r
        grad = -np.trace(b, axis1=1, axis2=2)
        grad[k] -= tau
        flat = b.reshape(k + 1, -1)
        dx = -np.linalg.solve(flat @ flat.T, grad)
        slope = float(grad @ dx)  # minus the squared Newton decrement
        step_b = (dx @ flat).reshape(d, d)  # R^T dS R
        if slope > -1.0:
            z = r @ (np.eye(d) - step_b) @ r.T / tau
            pairing = trace_inner(z, m)
            # Wait for a small gap so that the reported pairing is close to t*.
            if pairing < -tol and d / tau <= 1e-4 * -pairing:
                ok, fh, pairing = replay_separating_functional(m, dims, z, tol)
                if ok:
                    return ConeMembershipResult(
                        NON_MEMBER, {"separating_functional": fh, "pairing": pairing}, step,
                        -pairing,
                    )
            x += dx
            tau *= BARRIER_GROWTH
            continue
        mu = eigvalsh(step_b)
        alpha = 1.0 if mu[0] >= -1.0 else -0.9 / float(mu[0])
        while -tau * alpha * dx[k] - np.sum(np.log1p(alpha * mu)) > 0.25 * alpha * slope:
            alpha *= 0.5
        x += alpha * dx
    return ConeMembershipResult(UNDECIDED, None, step, -lower)


# ---------------------------------------------------------------------------
# Maximal tensor cone (forms nonnegative on product effects)
# ---------------------------------------------------------------------------


def in_max_cone(m: np.ndarray, dims, params: FeasibilityParams) -> ConeMembershipResult:
    """Heuristic test that q(x, y) >= -tol for all unit product vectors.

    One unit product pair with q(x, y) < -tol is an exact non-membership
    witness on its own, so the product-form search is bounded at -tol: it
    stops after the first half-step at which its best current pair has
    crossed the bound, and the witness is that first certified pair.  Its
    ``quadratic_value`` is exact, and the residual, its negation, is a lower
    bound on the depth -q_min, not the deepest value the full search would
    reach; the verdict is the full search's.  A member never crosses the
    bound, so its search runs to the end, and a nonnegative minimum over
    all restarts is only as strong as that search: member verdicts are
    flagged heuristic.
    """
    m, dims = require_shadow_support(m, dims, 2)
    val, x, y = product_form_extremum(m, dims, params.seed, minimize=True,
                                      stream=_STREAM_MAX_CONE, bound=-params.tol)
    if val < -params.tol:
        cert = {"witness_x": x, "witness_y": y, "quadratic_value": val}
        return ConeMembershipResult(NON_MEMBER, cert, PRODUCT_FORM_RESTARTS, -val)
    cert = {"heuristic": True, "min_quadratic": val, "argmin_x": x, "argmin_y": y}
    return ConeMembershipResult(MEMBER, cert, PRODUCT_FORM_RESTARTS, max(0.0, -val))


# ---------------------------------------------------------------------------
# Minimal tensor cone (separable states)
# ---------------------------------------------------------------------------


def separable_certificate_error(m: np.ndarray, dims, weights, xs, ys) -> float:
    """Frobenius reconstruction error of a separable decomposition."""
    m, _ = operand(m, dims, parties=2)
    acc = np.zeros(m.shape)
    for w, x, y in zip(weights, xs, ys):
        acc += w * np.kron(np.outer(x, x), np.outer(y, y))
    return float(np.linalg.norm(m - acc))


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Nonnegative least squares: min ||a w - b|| over w >= 0.

    The active-set method of Lawson & Hanson (Solving Least Squares Problems,
    1974, ch. 23).  The column with the largest gradient a^T (b - a w) enters
    the passive set, and the least-squares weights z of the passive columns
    are solved from their Gram matrix.  While some z_j <= 0, w moves towards
    z up to the first weight that reaches 0, whose column leaves the passive
    set.  Stops when no gradient outside the passive set exceeds the bound
    10 max(m, n) eps max_j ||a_j|| (||b|| + sum_j ||a_j|| w_j) on its
    roundoff.  Returns (weights, residual, ok), the residual taken from a
    directly; ok is False when NNLS_SOLVES_PER_COLUMN * n passive solves did
    not reach the optimum, and the weights are then the last feasible
    iterate.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    gram = a.T @ a
    atb = a.T @ b
    norms = np.sqrt(gram.diagonal())
    b_norm = np.linalg.norm(b)
    roundoff = 10 * max(m, n) * np.finfo(float).eps * norms.max()
    w = np.zeros(n)
    passive = np.zeros(0, dtype=int)  # in order of entry
    solves = 0
    while True:
        grad = atb - gram @ w
        grad[passive] = -np.inf
        t = grad.argmax()
        if not grad[t] > roundoff * (b_norm + norms @ w):
            return w, float(np.linalg.norm(a @ w - b)), True
        passive = np.concatenate([passive, [t]])
        while True:
            if solves == NNLS_SOLVES_PER_COLUMN * n:
                return w, float(np.linalg.norm(a @ w - b)), False
            solves += 1
            z = np.linalg.solve(gram[passive[:, None], passive], atb[passive])
            blocked = z <= 0
            if not blocked.any():
                break
            wp = w[passive]
            ratio = wp[blocked] / (wp[blocked] - z[blocked])
            wp += ratio.min() * (z - wp)
            wp[np.flatnonzero(blocked)[ratio == ratio.min()]] = 0.0
            w[passive] = np.maximum(wp, 0.0)
            passive = passive[wp > 0]
        w[passive] = z


def _range_criterion(w, v, dims, seed):
    """Best product overlap with range(M); fires when provably < 1.

    If no unit product vector lies in the range of a PSD matrix M != 0, then
    M cannot be a mixture of product states.  The overlap maximization is
    heuristic, so the criterion only fires below 1 - RANGE_CRITERION_DELTA.
    The search stops once some product vector reaches that bound, when the
    criterion can no longer fire; the overlap it then reports is at least
    the bound but not necessarily the search's best.
    Takes the eigendecomposition (w, v) of M; returns (fired, info).
    """
    lam_max = float(w[-1])
    rank_tol = 1e-10 * max(1.0, lam_max)
    support = w > rank_tol
    rank = int(np.count_nonzero(support))
    d = len(w)
    if rank == 0 or rank == d:
        return False, {"range_rank": rank, "max_product_overlap": 1.0}
    proj = v[:, support] @ v[:, support].T
    val, x, y = product_form_extremum(proj, dims, seed, minimize=False,
                                      stream=_STREAM_MIN_RANGE,
                                      bound=1.0 - RANGE_CRITERION_DELTA)
    info = {
        "criterion": "range",
        "range_rank": rank,
        "max_product_overlap": val,
        "best_x": x,
        "best_y": y,
    }
    return val < 1.0 - RANGE_CRITERION_DELTA, info


def in_min_cone(m: np.ndarray, dims, params: FeasibilityParams) -> ConeMembershipResult:
    """Separability oracle: sound but incomplete in both directions.

    member     - a nonnegative product-state decomposition reconstructs M to
                 Frobenius residual <= tol (fully corrective matching
                 pursuit: best-aligned product atoms, then a refit of all
                 weights by :func:`nnls`);
    non_member - M is not PSD (trivially outside), or the range criterion
                 fires (no product vector in range(M));
    undecided  - neither search concluded within MIN_CONE_ATOMS atoms, or
                 the refit reached its iteration cap.
    One eigendecomposition of M serves both non-member tests.
    """
    m, dims = require_shadow_support(m, dims, 2)
    w, v = eigh(m)
    lam = float(w[0])
    if lam < -params.tol:
        cert = {"criterion": "not_psd", "witness_vector": v[:, 0], "eigenvalue": lam}
        return ConeMembershipResult(NON_MEMBER, cert, 0, -lam)

    fired, info = _range_criterion(w, v, dims, params.seed)
    if fired:
        return ConeMembershipResult(NON_MEMBER, info, PRODUCT_FORM_RESTARTS,
                                    1.0 - info["max_product_overlap"])

    # Fully corrective matching pursuit over product projectors.
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    target = m.ravel()
    residual_mat = m
    residual = float(np.linalg.norm(m))
    for atom in range(MIN_CONE_ATOMS):
        # The product projector most aligned with the residual.
        _, x, y = product_form_extremum(residual_mat, dims, params.seed, PURSUIT_RESTARTS,
                                        minimize=False, stream=_STREAM_MIN_ATOMS * 1000 + atom)
        xs.append(x)
        ys.append(y)
        cols.append(np.kron(np.outer(x, x), np.outer(y, y)).ravel())
        dictionary = np.stack(cols, axis=1)
        weights, refit, ok = nnls(dictionary, target)
        if not ok:
            # Report the last finite residual and the atoms tried so far.
            return ConeMembershipResult(UNDECIDED, None, atom + 1, residual)
        residual = refit
        if residual <= params.tol:
            cert = {
                "weights": weights,
                "vectors_a": xs,
                "vectors_b": ys,
                "residual_frobenius": residual,
            }
            return ConeMembershipResult(MEMBER, cert, atom + 1, residual)
        residual_mat = m - (dictionary @ weights).reshape(m.shape)
    return ConeMembershipResult(UNDECIDED, None, MIN_CONE_ATOMS, residual)
