"""Element-by-element reference for ``ltshadow.blocks.grading_basis``.

One dense matrix per one-factor basis element, one ``kron`` chain per
grading basis element, and one ``np.stack`` of them all.  The package builds
each block by broadcasting the one-factor rows in the same order, so tests
require the same arrays bit for bit.
"""

import itertools

import numpy as np

from ltshadow.blocks import GradingBasis, factor_dims
from ltshadow.linalg import kron

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


def reference_basis(dims) -> GradingBasis:
    """The grading basis for dims, built element by element and not cached."""
    dims = factor_dims(dims)
    # Pattern strings over {s, a} in binary order, e.g. (ss, sa, as, aa).
    patterns = tuple("".join(p) for p in itertools.product("sa", repeat=len(dims)))
    elements: list[np.ndarray] = []
    slices: dict[str, slice] = {}
    n_anti: list[int] = []  # antisymmetric factors of each row
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
        n_anti += [pattern.count("a")] * (len(elements) - start)
    # The all-s block is never empty, so neither is the basis.
    stacked = np.stack([e.ravel() for e in elements])
    n_anti = np.asarray(n_anti)
    parts = [np.flatnonzero(n_anti == 0),
             np.flatnonzero((n_anti > 0) & (n_anti % 2 == 0)),
             n_anti % 2 == 1]
    for a in [stacked, *parts]:
        a.flags.writeable = False
    return GradingBasis(dims, patterns, slices, stacked, *parts)
