"""Independent reference computations for checking the program's outputs.

Nothing here imports ltshadow.  The grading basis is rebuilt from the
coordinate ordering documented in the top-level README (per factor the
symmetric one-factor basis, E_ii first and then (E_ij + E_ji)/sqrt(2) for
i < j, precedes the antisymmetric one, (E_ij - E_ji)/sqrt(2); blocks in the
order ss, sa, as, aa, lexicographic in (factor-A index, factor-B index)
within each block).  The shadow projection is recomputed as the average of
an operator with its partial transposes.  Every replay uses numpy's own
eigvalsh.
"""

from __future__ import annotations

import numpy as np

BLOCKS = ("ss", "sa", "as", "aa")

# Tolerances for replaying certificates.  They match the tolerances the
# program documents for its own verdicts (1e-8 on eigenvalues, 1e-9 on block
# support), so a certificate the program could honestly issue always replays.
PSD_TOL = 1e-8
SUPPORT_TOL = 1e-9


def one_factor_basis(d: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    sym, anti = [], []
    for i in range(d):
        e = np.zeros((d, d))
        e[i, i] = 1.0
        sym.append(e)
    h = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = h
            sym.append(e)
            a = np.zeros((d, d))
            a[i, j], a[j, i] = h, -h
            anti.append(a)
    return sym, anti


class Grading:
    """Orthonormal grading basis of a bipartite operator space."""

    def __init__(self, dims):
        da, db = (int(d) for d in dims)
        self.dims = (da, db)
        self.d = da * db
        sa_, aa_ = one_factor_basis(da)
        sb_, ab_ = one_factor_basis(db)
        factor = {"s": (sa_, sb_), "a": (aa_, ab_)}
        rows, self.index = [], {}
        for name in BLOCKS:
            start = len(rows)
            for x in factor[name[0]][0]:
                for y in factor[name[1]][1]:
                    rows.append(np.kron(x, y).ravel())
            self.index[name] = np.arange(start, len(rows))
        self.g = np.stack(rows)

    def coords(self, x: np.ndarray) -> np.ndarray:
        return self.g @ np.asarray(x, dtype=float).ravel()

    def operator(self, c: np.ndarray) -> np.ndarray:
        return (np.asarray(c, dtype=float) @ self.g).reshape(self.d, self.d)

    def project(self, x: np.ndarray, block: str) -> np.ndarray:
        rows = self.g[self.index[block]]
        return (rows.T @ (rows @ np.asarray(x, dtype=float).ravel())).reshape(self.d, self.d)

    def off_block(self, x: np.ndarray, block: str) -> float:
        """Max-norm of the part of x outside the block, relative to 1 + max|x|."""
        x = np.asarray(x, dtype=float)
        return float(np.max(np.abs(x - self.project(x, block)))) / (1.0 + float(np.max(np.abs(x))))

    def superop_matrix(self, s: np.ndarray) -> np.ndarray:
        """Grading-coordinate matrix of the map vec(X) -> s @ vec(X)."""
        return self.g @ s @ self.g.T

    def apply(self, matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply a process given by its grading-coordinate matrix."""
        return self.operator(np.asarray(matrix, dtype=float) @ self.coords(x))


def partial_transpose(w: np.ndarray, dims, factor: int) -> np.ndarray:
    da, db = dims
    t = np.asarray(w, dtype=float).reshape(da, db, da, db)
    t = t.transpose(2, 1, 0, 3) if factor == 0 else t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db)


def symmetrize(w: np.ndarray, dims) -> np.ndarray:
    """The shadow: average of W, both partial transposes and the full transpose."""
    w = np.asarray(w, dtype=float)
    ta = partial_transpose(w, dims, 0)
    tb = partial_transpose(w, dims, 1)
    return (w + ta + tb + partial_transpose(ta, dims, 1)) / 4.0


def partial_transpose_superop(dims) -> np.ndarray:
    """vec(PT_B(X)) = P vec(X) for row-major vec."""
    d = dims[0] * dims[1]
    p = np.zeros((d * d, d * d))
    for k in range(d * d):
        e = np.zeros(d * d)
        e[k] = 1.0
        p[:, k] = partial_transpose(e.reshape(d, d), dims, 1).ravel()
    return p


def conjugation_superop(t: np.ndarray) -> np.ndarray:
    """vec(T X T^T) = (T kron T) vec(X) for row-major vec."""
    return np.kron(t, t)


def lambda_min(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=float)
    return float(np.linalg.eigvalsh((m + m.T) / 2)[0])


def random_state(d: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-one Wishart state; rank min(d, cols) with probability one."""
    a = rng.standard_normal((d, cols))
    m = a @ a.T
    return m / np.trace(m)


def unit(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def product_projector(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.kron(np.outer(x, x), np.outer(y, y))


def q_form(m: np.ndarray, dims, x, y) -> float:
    """q(x, y) = <x o y, M (x o y)>, evaluated directly."""
    v = np.kron(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return float(v @ np.asarray(m, dtype=float) @ v)


def is_unit(v, tol: float = 1e-9) -> bool:
    return abs(float(np.linalg.norm(np.asarray(v, dtype=float))) - 1.0) <= tol


# ---------------------------------------------------------------------------
# Certificate replays.  Each returns a list of error strings (empty = ok).
# ---------------------------------------------------------------------------


def replay_kernel_offset(grading: Grading, m: np.ndarray, k) -> list[str]:
    """K must lie in the aa block and M + K must be positive semidefinite."""
    if k is None:
        return ["member verdict without a kernel offset"]
    k = np.asarray(k, dtype=float)
    errors = []
    off = grading.off_block(k, "aa")
    if off > SUPPORT_TOL:
        errors.append(f"kernel offset leaves the aa block (defect {off:.3e})")
    lam = lambda_min(m + k)
    if lam < -PSD_TOL:
        errors.append(f"M + K is not positive (lambda_min {lam:.3e})")
    return errors


def replay_functional(grading: Grading, m: np.ndarray, f) -> list[str]:
    """F must lie in the ss block and <F,M> + max(0,-lambda_min F) Tr M < 0."""
    if f is None:
        return ["non-member verdict without a separating functional"]
    f = np.asarray(f, dtype=float)
    errors = []
    off = grading.off_block(f, "ss")
    if off > SUPPORT_TOL:
        errors.append(f"separating functional leaves the ss block (defect {off:.3e})")
    value = float(np.sum(f * m)) + max(0.0, -lambda_min(f)) * max(float(np.trace(m)), 0.0)
    if not value < 0.0:
        errors.append(f"separating functional does not separate (bound {value:.3e})")
    return errors


def replay_negative_direction(m: np.ndarray, v) -> list[str]:
    v = np.asarray(v, dtype=float)
    value = float(v @ m @ v) / float(v @ v)
    return [] if value < 0.0 else [f"witness vector gives v^T M v = {value:.3e} >= 0"]


def replay_product_witness(m: np.ndarray, dims, x, y, reported: float) -> list[str]:
    if not (is_unit(x) and is_unit(y)):
        return ["product witness vectors are not unit vectors"]
    value = q_form(m, dims, x, y)
    errors = []
    if not value < 0.0:
        errors.append(f"product witness gives q(x, y) = {value:.3e} >= 0")
    if abs(value - float(reported)) > 1e-9 * (1.0 + abs(value)):
        errors.append(f"reported q(x, y) {reported!r} differs from direct value {value!r}")
    return errors


def replay_decomposition(m: np.ndarray, weights, xs, ys, tol: float = 1e-7) -> list[str]:
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0 or weights.size != len(xs) or len(xs) != len(ys):
        return ["malformed separable decomposition"]
    if np.any(weights < 0.0):
        return ["separable decomposition has a negative weight"]
    if not all(is_unit(x) and is_unit(y) for x, y in zip(xs, ys)):
        return ["separable decomposition has non-unit vectors"]
    acc = sum(w * product_projector(np.asarray(x), np.asarray(y))
              for w, x, y in zip(weights, xs, ys))
    err = float(np.linalg.norm(m - acc))
    return [] if err <= tol else [f"separable decomposition misses M by {err:.3e}"]


def replay_range_overlap(m: np.ndarray, x, y, reported: float) -> list[str]:
    """The reported best product overlap with range(M), recomputed directly."""
    w, v = np.linalg.eigh((m + m.T) / 2)
    support = w > 1e-10 * max(1.0, float(w[-1]))
    u = v[:, support]
    p = np.kron(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    value = float(np.sum((u.T @ p) ** 2))
    errors = []
    if abs(value - float(reported)) > 1e-8:
        errors.append(f"range overlap {reported!r} does not replay ({value!r})")
    if not value < 0.99:
        errors.append(f"range criterion fired at overlap {value:.6f}")
    return errors
