"""The grading basis of operator space: the one basis the package uses.

The operator space of a product system splits, under the trace inner
product, into orthogonal blocks built from symmetric (s) and antisymmetric
(a) one-factor operators.  For two factors:

    ss = sym(A) x sym(B),   sa = sym(A) x anti(B),
    as = anti(A) x sym(B),  aa = anti(A) x anti(B).

The ss and aa blocks together span the symmetric matrices on the composite;
sa and as span the antisymmetric ones.  The grading basis of a factor list
(d_1, ..., d_n) follows one per-factor rule.  Each factor d contributes its
symmetric rows (E_ii for i = 0..d-1, then (E_ij + E_ji)/sqrt(2) for i < j)
or its antisymmetric rows ((E_ij - E_ji)/sqrt(2) for i < j), (i, j)
lexicographic; the block of a pattern such as "sa" holds the Kronecker
products of its factors' rows, first factor slowest, multiplied left to
right; and the blocks follow in binary pattern order (s < a per factor).
So coordinates are reproducible across runs and platforms.

Every other module reaches the basis through :func:`grading_basis`, turns
caller factor dimensions into ints through :func:`factor_dims`, and checks a
(matrix, dims) operand through :func:`operand`: the coefficients of an
operator X in block p are ``g.rows(p) @ X.ravel()``, and process matrices in
:mod:`ltshadow.processes` are written in this basis, whose cached row
indices split it into the shadow (all s) and the shadow kernel (an even,
nonzero number of a), and whose ``odd`` flags mark the antisymmetric rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_BOOLS = frozenset({bool, np.bool_})


@dataclass(frozen=True)
class GradingBasis:
    """The orthonormal grading basis of a product operator space.

    ``stacked`` holds one vectorized basis element per row, blocks in
    pattern order, each block the Kronecker products of its factors' s or a
    rows (the module's per-factor rule); ``slices`` maps each pattern to its
    rows.  Every per-block view (:meth:`rows`, :meth:`block`) is a
    read-only slice of that one array.  The read-only ``*_index`` arrays hold the rows of each part, in
    order; ``stacked[kernel_index]`` is the shadow kernel at any number of
    factors (for two, the aa rows).  The read-only bool ``odd`` flags the
    rows with an odd number of a (the antisymmetric operators).
    """

    dims: tuple[int, ...]
    patterns: tuple[str, ...]
    slices: dict
    stacked: np.ndarray  # (n_elements, D^2) vectorized orthonormal basis
    shadow_index: np.ndarray
    kernel_index: np.ndarray
    odd: np.ndarray

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def size(self) -> int:
        return self.stacked.shape[0]

    def rows(self, pattern: str) -> np.ndarray:
        """(n_elements, D^2) rows of the named block."""
        if pattern not in self.slices:
            raise ValueError(f"unknown block {pattern!r}; expected one of {self.patterns}")
        return self.stacked[self.slices[pattern]]

    def block(self, pattern: str) -> np.ndarray:
        """(n_elements, D, D) basis elements of the named block."""
        return self.rows(pattern).reshape(-1, self.dim, self.dim)


def factor_dims(dims, parties: int | None = None) -> tuple[int, ...]:
    """The package's one rule for factor dimensions: caller dims as ints.

    Raises DimensionMismatch unless dims is a nonempty sequence of integral
    values >= 1 (2.0 passes; 2.5, True and "2" do not), ``parties`` of them
    when that is given.
    """
    try:
        raw = tuple(dims)
        out = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        raw = out = ()
    if (not out or raw != out or min(out) < 1 or len(out) != (parties or len(out))
            or not _BOOLS.isdisjoint(map(type, raw))):
        raise DimensionMismatch(
            f"factor dimensions must be {parties or 'one or more'} integers >= 1, got {dims!r}")
    return out


def operand(x, dims, stack: bool = False,
            parties: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """The package's one shape rule: (X as a float array, dims as ints).

    Raises DimensionMismatch unless dims pass :func:`factor_dims` (with
    ``parties`` factors, when given) and X is one (D, D) matrix, or with
    ``stack`` an (R, D, D) stack, for D the product of the dims.
    """
    dims = factor_dims(dims, parties)
    x = np.asarray(x, dtype=float)
    total = math.prod(dims)
    if x.ndim not in ((2, 3) if stack else (2,)) or x.shape[-2:] != (total, total):
        raise DimensionMismatch(
            f"operator shape {x.shape} does not match factor dimensions {dims} "
            f"(product {total})")
    return x, dims


_BASES: dict[tuple[int, ...], GradingBasis] = {}


def _factor_rows(d: int, part: str) -> np.ndarray:
    """(n, d, d) one-factor basis of part "s" (E_ii for i = 0..d-1, then
    (E_ij + E_ji)/sqrt(2)) or "a" ((E_ij - E_ji)/sqrt(2)), i < j lexicographic."""
    i, j = np.triu_indices(d, 1)
    diag = np.arange(d if part == "s" else 0)
    out = np.zeros((len(diag) + len(i), d, d))
    out[diag, diag, diag] = 1.0
    k = np.arange(len(diag), len(out))
    out[k, i, j] = _SQRT_HALF
    out[k, j, i] = _SQRT_HALF if part == "s" else -_SQRT_HALF
    return out


def grading_basis(dims) -> GradingBasis:
    """The grading basis for factor dimensions dims (by :func:`factor_dims`)."""
    dims = factor_dims(dims)
    if dims in _BASES:
        return _BASES[dims]
    # Pattern strings over {s, a} in binary order, e.g. (ss, sa, as, aa).
    patterns = tuple("".join(p) for p in itertools.product("sa", repeat=len(dims)))
    factor = {(d, c): _factor_rows(d, c) for d in set(dims) for c in "sa"}
    sizes = [math.prod(len(factor[d, c]) for d, c in zip(dims, p)) for p in patterns]
    stops = list(itertools.accumulate(sizes))
    slices = {p: slice(stop - n, stop) for p, n, stop in zip(patterns, sizes, stops)}
    stacked = np.empty((math.prod(dims) ** 2,) * 2)  # D^2 elements of D^2 entries
    for pattern, rows in slices.items():
        # Row (i, j) of acc x f is kron(acc[i], f[j]), entry by entry the one
        # product kron takes; left to right from the empty product 1.0.
        acc = np.ones((1, 1, 1))
        for d, c in zip(dims, pattern):
            f, m = factor[d, c], acc.shape[1] * d
            acc = (acc[:, None, :, None, :, None] * f[None, :, None, :, None, :]).reshape(-1, m, m)
        stacked[rows] = acc.reshape(-1, stacked.shape[1])
    n_anti = np.repeat([p.count("a") for p in patterns], sizes)  # a factors of each row
    parts = [np.flatnonzero(n_anti == 0),
             np.flatnonzero((n_anti > 0) & (n_anti % 2 == 0)),
             n_anti % 2 == 1]
    for a in [stacked, *parts]:
        a.flags.writeable = False
    basis = _BASES[dims] = GradingBasis(dims, patterns, slices, stacked, *parts)
    return basis


def project_block(w: np.ndarray, basis: GradingBasis, block: str) -> np.ndarray:
    """Orthogonal projection of W onto the named block."""
    w, _ = operand(w, basis.dims)
    stacked = basis.rows(block)
    return (stacked.T @ (stacked @ w.ravel())).reshape(w.shape)
