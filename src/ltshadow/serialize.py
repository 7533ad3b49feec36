"""Deterministic JSON I/O for matrices, processes, and results.

Wire formats:
  matrix   {"dim": n, "rows": [[...], ...]}            (+ "dims": [dA, dB] for
           bipartite/multipartite operators)
  process  {"in_dims": [...], "out_dims": [...], "matrix": [[...], ...]}
           over the documented grading-coordinate ordering.

Readers accept integer entries, hold dims to the rule of
:func:`~ltshadow.blocks.factor_dims` (2.0 passes, 2.5 and true do not), and
reject entries above MAX_ENTRY in magnitude (and non-finite ones), so
squares and sums over the entries of the largest supported operators stay
finite.  Floats are emitted with 17 significant digits, which
round-trips IEEE doubles exactly; emission is a pure function of the value,
so identical inputs produce byte-identical output.  :func:`dumps` is the one
converter of numpy values: it writes arrays, numpy scalars and tuples
directly, so payloads keep them as they are.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .blocks import factor_dims, operand
from .errors import DimensionMismatch

MAX_ENTRY = 1e150


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize to JSON with deterministic float formatting."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj)!r}")


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
    if not np.all(np.abs(m) <= MAX_ENTRY):
        raise ValueError(f"matrix entries must be finite and at most {MAX_ENTRY:g} in magnitude")
    declared = obj.get("dim")
    if declared is not None and declared != m.shape[0]:
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
    return LinearProcess(obj["in_dims"], obj["out_dims"], matrix)


def cone_result_to_json(result) -> dict:
    return {
        "verdict": result.verdict,
        "iterations": int(result.iterations),
        "residual": float(result.residual),
        "certificate": result.certificate,
    }
