"""The grading basis of operator space: the one basis the package uses.

The operator space of a product system splits, under the trace inner
product, into orthogonal blocks built from symmetric (s) and antisymmetric
(a) one-factor operators.  For two factors:

    ss = sym(A) x sym(B),   sa = sym(A) x anti(B),
    as = anti(A) x sym(B),  aa = anti(A) x anti(B).

The ss and aa blocks together span the symmetric matrices on the composite;
sa and as span the antisymmetric ones.  The grading basis of a factor list
(d_1, ..., d_n) concatenates, in binary pattern order (s < a per factor),
the Kronecker products of one-factor basis elements, lexicographic within
each block (see :func:`symmetric_basis` / :func:`antisymmetric_basis`), so
coordinates are reproducible across runs and platforms.

Every other module reaches the basis through :func:`grading_basis`: the
coefficients of an operator X in block p are ``g.rows(p) @ X.ravel()``, and
process matrices in :mod:`ltshadow.processes` are written in this basis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import kron

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def symmetric_basis(dim: int) -> list[np.ndarray]:
    """Trace-orthonormal basis of symmetric dim x dim matrices.

    Ordering: E_ii for i = 0..dim-1, then (E_ij + E_ji)/sqrt(2) for i < j in
    lexicographic (i, j) order.
    """
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim))
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim))
            e[i, j] = e[j, i] = _SQRT_HALF
            out.append(e)
    return out


def antisymmetric_basis(dim: int) -> list[np.ndarray]:
    """Trace-orthonormal basis (E_ij - E_ji)/sqrt(2), i < j lexicographic."""
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim))
            e[i, j] = _SQRT_HALF
            e[j, i] = -_SQRT_HALF
            out.append(e)
    return out


def grading_patterns(n_factors: int) -> tuple[str, ...]:
    """Pattern strings over {s, a} in binary order, e.g. (ss, sa, as, aa)."""
    return tuple(
        "".join(bits) for bits in itertools.product("sa", repeat=n_factors)
    )


@dataclass(frozen=True)
class GradingBasis:
    """The orthonormal grading basis of a product operator space.

    ``stacked`` holds one vectorized basis element per row, blocks in
    pattern order; ``slices`` maps each pattern to its rows.  Every per-block
    view (:meth:`rows`, :meth:`block`) is a read-only slice of that one
    array; for two factors the shadow kernel is ``block("aa")``.
    """

    dims: tuple[int, ...]
    patterns: tuple[str, ...]
    slices: dict
    stacked: np.ndarray  # (n_elements, D^2) vectorized orthonormal basis

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def size(self) -> int:
        return self.stacked.shape[0]

    @property
    def sizes(self) -> dict[str, int]:
        return {p: s.stop - s.start for p, s in self.slices.items()}

    def rows(self, pattern: str) -> np.ndarray:
        """(n_elements, D^2) rows of the named block."""
        if pattern not in self.slices:
            raise ValueError(f"unknown block {pattern!r}; expected one of {self.patterns}")
        return self.stacked[self.slices[pattern]]

    def block(self, pattern: str) -> np.ndarray:
        """(n_elements, D, D) basis elements of the named block."""
        return self.rows(pattern).reshape(-1, self.dim, self.dim)

    @property
    def shadow_pattern(self) -> str:
        return "s" * len(self.dims)

    @property
    def kernel_patterns(self) -> tuple[str, ...]:
        """Even-antisymmetric patterns other than all-s: the shadow kernel."""
        return tuple(
            p for p in self.patterns
            if p.count("a") >= 2 and p.count("a") % 2 == 0
        )

    @property
    def odd_patterns(self) -> tuple[str, ...]:
        """Patterns spanning the antisymmetric part of the global space."""
        return tuple(p for p in self.patterns if p.count("a") % 2 == 1)

    def indices(self, patterns) -> np.ndarray:
        idx: list[int] = []
        for p in patterns:
            s = self.slices[p]
            idx.extend(range(s.start, s.stop))
        return np.asarray(idx, dtype=int)


@functools.lru_cache(maxsize=None)
def grading_basis(dims: tuple[int, ...]) -> GradingBasis:
    """Construct (and cache) the grading basis for factor dimensions dims."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be >= 1, got {dims}")
    patterns = grading_patterns(len(dims))
    elements: list[np.ndarray] = []
    slices: dict[str, slice] = {}
    for pattern in patterns:
        start = len(elements)
        factor_bases = [
            symmetric_basis(d) if c == "s" else antisymmetric_basis(d)
            for d, c in zip(dims, pattern)
        ]
        for combo in itertools.product(*factor_bases):
            acc = combo[0]
            for f in combo[1:]:
                acc = kron(acc, f)
            elements.append(acc)
        slices[pattern] = slice(start, len(elements))
    d = math.prod(dims)
    stacked = (
        np.stack([e.ravel() for e in elements]) if elements else np.zeros((0, d * d))
    )
    stacked.flags.writeable = False
    return GradingBasis(dims=dims, patterns=patterns, slices=slices, stacked=stacked)


def project_block(w: np.ndarray, basis: GradingBasis, block: str) -> np.ndarray:
    """Orthogonal projection of W onto the named block."""
    w = np.asarray(w, dtype=float)
    if w.shape != (basis.dim, basis.dim):
        raise DimensionMismatch(
            f"operator shape {w.shape} does not match basis dimension "
            f"{basis.dim}x{basis.dim} for factors {basis.dims}"
        )
    stacked = basis.rows(block)
    return (stacked.T @ (stacked @ w.ravel())).reshape(w.shape)
