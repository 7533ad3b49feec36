"""Linear processes on operator space and their shadows.

A process is stored as a real matrix over the grading coordinates of its
input and output operator spaces (the grading basis of
:mod:`ltshadow.blocks`; for two factors the ss, sa, as, aa ordering).  The
coordinates are orthonormal, so matrix transpose is the trace-inner-product
adjoint.

A real completely positive map preserves the parity grading (symmetric
and antisymmetric operators) of the global space, so restricted to
symmetric operators it has a 2 x 2 operator matrix over (shadow block) +
(kernel blocks).  A grading-preserving map descends to shadow space iff the
kernel-to-shadow block vanishes; the induced shadow map is then the
shadow-to-shadow block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import factor_dims, grading_basis, operand
from .cones import UNDECIDED, FeasibilityParams, product_form_extremum
from .errors import DimensionMismatch, NotLocallyPositive
from .linalg import (
    max_norm,
    min_eigenvalue,
    random_orthogonal,
    rng_from_seed,
)
from .shadow import local_shadow_matrix

_STREAM_POSITIVITY = 11
_STREAM_GENERATOR = 13


def to_coords(x: np.ndarray, dims) -> np.ndarray:
    """Grading coordinates of a (D, D) matrix or of each of an (R, D, D) stack."""
    x, dims = operand(x, dims, stack=True)
    g = grading_basis(dims)
    return (g.stacked @ x.reshape(x.shape[:-2] + (g.size, 1)))[..., 0]


def from_coords(c: np.ndarray, dims) -> np.ndarray:
    """The operator of a coordinate vector or of each row of an (R, D^2) array."""
    g = grading_basis(dims)
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != g.size:
        raise DimensionMismatch(f"coordinate length {c.shape} does not match dims {g.dims}")
    return (c[..., None, :] @ g.stacked).reshape(c.shape[:-1] + (g.dim, g.dim))


@dataclass(frozen=True)
class LinearProcess:
    """A linear map between operator spaces, in grading coordinates."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        in_dims = factor_dims(self.in_dims)
        out_dims = factor_dims(self.out_dims)
        n_in = math.prod(in_dims) ** 2  # D^2 grading coordinates, basis not built
        n_out = math.prod(out_dims) ** 2
        # C order: the bits of apply depend on the matrix's memory layout.
        m = np.array(self.matrix, dtype=float, order="C")
        if m.shape != (n_out, n_in):
            raise DimensionMismatch(
                f"process matrix shape {m.shape} does not match coordinate sizes "
                f"({n_out}, {n_in}) for dims {out_dims} <- {in_dims}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "in_dims", in_dims)
        object.__setattr__(self, "out_dims", out_dims)
        object.__setattr__(self, "matrix", m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The image of a (D, D) matrix, or of each matrix of an (R, D, D)
        stack with the bits it would get alone (so do the coordinate maps)."""
        c = to_coords(x, self.in_dims)
        return from_coords((self.matrix @ c[..., None])[..., 0], self.out_dims)

    def compose(self, inner: "LinearProcess") -> "LinearProcess":
        """self after inner."""
        if inner.out_dims != self.in_dims:
            raise DimensionMismatch(
                f"cannot compose: inner output dims {inner.out_dims} != "
                f"outer input dims {self.in_dims}"
            )
        return LinearProcess(inner.in_dims, self.out_dims, self.matrix @ inner.matrix)


def identity_process(dims) -> LinearProcess:
    g = grading_basis(dims)
    return LinearProcess(g.dims, g.dims, np.eye(g.size))


def conjugation_process(q: np.ndarray, in_dims, out_dims=None) -> LinearProcess:
    """X -> Q X Q^T.  Positive for any real Q; preserves the grading iff Q is local."""
    q = np.asarray(q, dtype=float)
    gin = grading_basis(in_dims)
    out_dims = gin.dims if out_dims is None else out_dims
    images = q @ gin.stacked.reshape(-1, gin.dim, gin.dim) @ q.T
    return LinearProcess(gin.dims, out_dims, to_coords(images, out_dims).T)


def swap_process(dims) -> LinearProcess:
    """Conjugation by the tensor-swap permutation; output factors reversed."""
    da, db = factor_dims(dims, 2)
    sigma = np.eye(da * db).reshape(da, db, -1).transpose(1, 0, 2).reshape(da * db, -1)
    return conjugation_process(sigma, (da, db), (db, da))


def preparation_process(state: np.ndarray, dims) -> LinearProcess:
    """The map t -> t * state from the trivial system; always locally positive."""
    col = to_coords(state, dims)
    return LinearProcess((1,), dims, col.reshape(-1, 1))


def effect_functional(f: np.ndarray, dims) -> LinearProcess:
    """The functional X -> trace_inner(f, X) as a process to the trivial system."""
    row = to_coords(f, dims)
    return LinearProcess(dims, (1,), row.reshape(1, -1))


def epsilon_functional(dims=(2, 2)) -> LinearProcess:
    """The pairing functional defined on pure tensors by a o b -> Tr(a b^T).

    Its kernel matrix is sum_ij E_ij o E_ij = |Omega><Omega|, Omega = vec(I);
    on the product of the two antisymmetric generators of a pair of qubits
    it evaluates to 2, so it does not vanish on the shadow kernel and is not
    locally positive.
    """
    da, db = factor_dims(dims, 2)
    if da != db:
        raise DimensionMismatch("the pairing functional needs equal factor dimensions")
    omega = np.eye(da).ravel()
    return effect_functional(np.outer(omega, omega), (da, db))


def trace_unit_process(dims) -> LinearProcess:
    """X -> Tr(X) I / D: the depolarizing sink used to boost maps to positivity."""
    g = grading_basis(dims)
    c = to_coords(np.eye(g.dim), g.dims)
    return LinearProcess(g.dims, g.dims, np.outer(c / g.dim, c))


# ---------------------------------------------------------------------------
# Operator block matrix and local positivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessBlockMatrix:
    """Shadow-valued blocks of a grading-preserving map.

    phi_ss: shadow -> shadow,  phi_sa: kernel -> shadow.
    """

    phi_ss: np.ndarray
    phi_sa: np.ndarray


def block_matrix(proc: LinearProcess) -> ProcessBlockMatrix:
    """Extract the operator blocks of the restriction to symmetric operators.

    Raises ValueError when the map does not preserve the parity grading: an
    entry between an even (symmetric) and an odd (antisymmetric) row of the
    grading basis, either way, exceeds 1e-10 (1 + ||matrix||_max).  Odd ->
    even entries act on no symmetric input, but a tensor square of such a
    map leaks the shadow kernel into the shadow.
    """
    gin = grading_basis(proc.in_dims)
    gout = grading_basis(proc.out_dims)
    m = proc.matrix
    leak = max_norm(m[gout.odd[:, None] != gin.odd])
    if leak > 1e-10 * (1 + max_norm(m)):
        raise ValueError(f"process does not preserve the parity grading (leakage {leak:.3e})")
    return ProcessBlockMatrix(
        phi_ss=m[np.ix_(gout.shadow_index, gin.shadow_index)],
        phi_sa=m[np.ix_(gout.shadow_index, gin.kernel_index)],
    )


@dataclass(frozen=True)
class LocalPositivityCheck:
    locally_positive: bool
    defect: float
    tol: float
    witness_kernel_element: np.ndarray | None = None
    witness_shadow_image: np.ndarray | None = None


def is_locally_positive(proc: LinearProcess) -> LocalPositivityCheck:
    """A map descends to shadow spaces iff its kernel-to-shadow block vanishes.

    It counts as locally positive only if it also preserves the parity
    grading (else :func:`block_matrix` raises ValueError), which keeps the
    property under tensor products of such maps.

    The block counts as zero up to tol = 1e-9 (1 + ||matrix||_max), which
    the returned check reports.  On failure the returned witness is a kernel
    element K (locally invisible input direction) whose image has a nonzero
    shadow, i.e. a pair of locally indistinguishable inputs with locally
    distinguishable outputs.
    """
    blocks = block_matrix(proc)
    tol = 1e-9 * (1 + max_norm(proc.matrix))
    defect = max_norm(blocks.phi_sa)
    if defect <= tol:
        return LocalPositivityCheck(True, defect, tol)
    gin = grading_basis(proc.in_dims)
    col = int(np.argmax(np.max(np.abs(blocks.phi_sa), axis=0)))
    witness = gin.stacked[gin.kernel_index[col]].reshape(gin.dim, gin.dim)
    image = local_shadow_matrix(proc.apply(witness), proc.out_dims)
    return LocalPositivityCheck(False, defect, tol, witness, image)


def shadow_block_process(proc: LinearProcess) -> LinearProcess:
    """The shadow-to-shadow block embedded back into grading coordinates.

    This is the unique candidate for a shadow of the map; it genuinely is
    one only when the map is locally positive (see :func:`shadow_of_map`,
    which also checks that the map preserves the parity grading).
    """
    gin = grading_basis(proc.in_dims)
    gout = grading_basis(proc.out_dims)
    ss = np.ix_(gout.shadow_index, gin.shadow_index)
    m = np.zeros_like(proc.matrix)
    m[ss] = proc.matrix[ss]
    return LinearProcess(proc.in_dims, proc.out_dims, m)


def shadow_of_map(proc: LinearProcess) -> LinearProcess:
    """Shadow of a locally positive map: the induced map on shadow states.

    Refuses non-locally-positive input, for which no shadow exists (the
    commuting square has no solution).
    """
    check = is_locally_positive(proc)
    if not check.locally_positive:
        raise NotLocallyPositive(
            f"map has kernel-to-shadow defect {check.defect:.3e} (tol {check.tol:.3e}); "
            "its action is not determined by local data"
        )
    return shadow_block_process(proc)


# ---------------------------------------------------------------------------
# Positivity of maps (heuristic)
# ---------------------------------------------------------------------------

POSITIVE = "positive"
NOT_POSITIVE = "not_positive"


@dataclass(frozen=True)
class PositiveMapVerdict:
    verdict: str
    value: float
    witness: np.ndarray | None = None
    heuristic: bool = True


def choi_matrix(proc: LinearProcess) -> np.ndarray:
    """C = sum_ik Phi(E_ik) o E_ik on the factors (output, input).

    v^T Phi(x x^T) v = (v o x)^T C (v o x) (Jamiolkowski, Rep. Math. Phys. 3,
    1972), so Phi is positive iff this product form is nonnegative.
    """
    gin = grading_basis(proc.in_dims)
    gout = grading_basis(proc.out_dims)
    dout, din = gout.dim, gin.dim
    phi = gout.stacked.T @ proc.matrix @ gin.stacked  # vec Phi(X) = phi @ vec X
    return phi.reshape(dout, dout, din, din).transpose(0, 2, 1, 3).reshape(
        dout * din, dout * din)


def is_positive_map_heuristic(proc: LinearProcess,
                              params: FeasibilityParams) -> PositiveMapVerdict:
    """Search for a unit vector x with Phi(x x^T) not positive.

    Minimizes v^T Phi(x x^T) v, the product form of the Choi matrix, with
    :func:`~ltshadow.cones.product_form_extremum` from random starts x.  The
    reported value is lambda_min(Phi(x x^T)) for the x it returns.  A value
    below -tol is a certified non-positivity witness; within the band
    [-tol, -tol/2] the verdict is undecided; otherwise positive (heuristic:
    no witness found).  The search is bounded by -tol: it stops after the
    half-step that first finds a pair (v, x) with v^T Phi(x x^T) v < -tol,
    so a witness's value is lambda_min(Phi(x x^T)) at that first certified
    x, not the most negative value the search could reach.
    """
    dims = (grading_basis(proc.out_dims).dim, grading_basis(proc.in_dims).dim)
    _, _, x = product_form_extremum(choi_matrix(proc), dims, params.seed,
                                    stream=_STREAM_POSITIVITY, bound=-params.tol)
    value = min_eigenvalue(proc.apply(np.outer(x, x)))
    if value < -params.tol:
        return PositiveMapVerdict(NOT_POSITIVE, value, x, heuristic=False)
    if value < -params.tol / 2:
        return PositiveMapVerdict(UNDECIDED, value, x)
    return PositiveMapVerdict(POSITIVE, value)


# ---------------------------------------------------------------------------
# Seeded generators of test processes
# ---------------------------------------------------------------------------


def random_locally_positive_process(dims, seed: int) -> LinearProcess:
    """Random positive map with vanishing kernel-to-shadow block.

    Draws random shadow->shadow, kernel->kernel, and shadow->kernel blocks
    m, zeroes the kernel->shadow block, then adds D ||m||_2 of the
    depolarizing sink X -> Tr(X) I / D.  For unit x and v the grading
    coordinates of x x^T and v v^T are unit vectors, so m contributes at
    least -||m||_2 to v^T Phi(x x^T) v while the sink adds exactly ||m||_2:
    the map is positive by construction.  A generator, not a
    characterization of the locally positive maps.
    """
    g = grading_basis(dims)
    rng = rng_from_seed(seed, _STREAM_GENERATOR)
    shadow, kernel = g.shadow_index, g.kernel_index
    m = np.zeros((g.size, g.size))
    m[np.ix_(shadow, shadow)] = rng.standard_normal((shadow.size, shadow.size))
    m[np.ix_(kernel, kernel)] = rng.standard_normal((kernel.size, kernel.size))
    m[np.ix_(kernel, shadow)] = rng.standard_normal((kernel.size, shadow.size))
    lam = g.dim * float(np.linalg.norm(m, 2))
    return LinearProcess(g.dims, g.dims, m + lam * trace_unit_process(g.dims).matrix)


def random_kernel_leaking_process(dims, seed: int) -> LinearProcess:
    """Random positive map whose kernel-to-shadow block does not vanish.

    Conjugation by a Haar-random (non-local) orthogonal: positive — even
    completely positive — but generically mixes the grading.  Draws until
    the kernel-to-shadow defect is at least 1e-4.
    """
    d = grading_basis(dims).dim
    for attempt in range(32):
        rng = rng_from_seed(seed, _STREAM_GENERATOR, attempt)
        q = random_orthogonal(d, rng)
        proc = conjugation_process(q, dims)
        if max_norm(block_matrix(proc).phi_sa) >= 1e-4:
            return proc
    raise RuntimeError("could not generate a kernel-leaking orthogonal conjugation")
