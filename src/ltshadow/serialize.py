"""Deterministic JSON I/O for matrices, processes, and results.

Wire formats:
  matrix   {"dim": n, "rows": [[...], ...]}            (+ "dims": [dA, dB] for
           bipartite/multipartite operators)
  process  {"in_dims": [...], "out_dims": [...], "matrix": [[...], ...]}
           over the documented grading-coordinate ordering.

Readers accept integer entries, hold dims to the rule of
:func:`~ltshadow.blocks.factor_dims` (2.0 passes, 2.5 and true do not), and
reject entries that are not JSON numbers (a string such as "1" or a
boolean, both of which numpy would convert) and entries above MAX_ENTRY in
magnitude (and non-finite ones), so squares and sums over the entries of
the largest supported operators stay finite.  Floats are emitted in
Python's shortest round-trip form (their ``repr``), which parses back to the
same IEEE double; emission is a pure function of the value, so identical
inputs produce byte-identical output.
:func:`dumps` is the one converter of numpy values: it writes arrays, numpy
scalars and tuples directly, so payloads keep them as they are.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .blocks import factor_dims, operand
from .errors import DimensionMismatch

MAX_ENTRY = 1e150


def _plain(obj):
    """The Python value of a numpy array or scalar, for the encoder."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def dumps(obj) -> str:
    """Compact JSON in the payload's key order; NaN and +-inf are refused."""
    try:
        return json.dumps(obj, allow_nan=False, separators=(",", ":"), default=_plain)
    except ValueError as exc:
        raise ValueError(f"cannot serialize non-finite float ({exc})") from exc


def _require_numbers(rows, what: str) -> None:
    """Refuse rows (a list of lists) holding an entry that is not a JSON number."""
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise ValueError(f"{what} entries must be JSON numbers, not strings or booleans")


def matrix_to_json(m: np.ndarray, dims=None) -> dict:
    m = np.asarray(m, dtype=float)
    out = {"dim": int(m.shape[0]), "rows": m.tolist()}
    if dims is not None:
        out["dims"] = list(factor_dims(dims))
    return out


def matrix_from_json(obj) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Parse the matrix wire format; integer entries are accepted."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    if "rows" not in obj:
        raise ValueError('matrix JSON must contain "rows"')
    rows = obj["rows"]
    m = np.asarray(rows, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix rows have shape {m.shape}; expected square")
    _require_numbers(rows, "matrix")
    if not np.all(np.abs(m) <= MAX_ENTRY):
        raise ValueError(f"matrix entries must be finite and at most {MAX_ENTRY:g} in magnitude")
    declared = obj.get("dim")
    if declared is not None and (isinstance(declared, bool) or declared != m.shape[0]):
        raise DimensionMismatch(
            f'declared "dim" {declared} does not match rows of size {m.shape[0]}'
        )
    dims = obj.get("dims")
    if dims is not None:
        m, dims = operand(m, dims)
    return m, dims


def process_to_json(proc) -> dict:
    return {
        "in_dims": list(proc.in_dims),
        "out_dims": list(proc.out_dims),
        "matrix": np.asarray(proc.matrix).tolist(),
    }


def process_from_json(obj):
    from .processes import LinearProcess

    if not isinstance(obj, dict):
        raise ValueError("process JSON must be an object")
    for key in ("in_dims", "out_dims", "matrix"):
        if key not in obj:
            raise ValueError(f'process JSON must contain "{key}"')
    matrix = np.asarray(obj["matrix"], dtype=float)
    if matrix.ndim != 2 or not np.all(np.abs(matrix) <= MAX_ENTRY):
        raise ValueError(f"process matrix must be 2-D, entries at most {MAX_ENTRY:g} in magnitude")
    _require_numbers(obj["matrix"], "process matrix")
    return LinearProcess(obj["in_dims"], obj["out_dims"], matrix)


def cone_result_to_json(result) -> dict:
    return {
        "verdict": result.verdict,
        "iterations": int(result.iterations),
        "residual": float(result.residual),
        "certificate": result.certificate,
    }
