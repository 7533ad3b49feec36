"""Command-line front end.

Subcommands:
  decompose  block-coordinate split of an operator (any number of factors)
  shadow     shadow projection of an operator (any number of factors)
  cone       membership oracle for one of the nested cones
  map        local positivity / positivity / shadow of a process
  fiber      sample the fiber of a shadow; optionally push through a map
  examples   one-shot verification report of the built-in reproductions

All input and output is JSON (see serialize).  Stochastic subcommands
require an explicit seed and echo it in the output.  Exit codes: 0 success,
1 a check of ``examples`` failed, 2 malformed input (entries that are not
JSON numbers, such as ``"1"`` or ``true``, entries above 1e150 in magnitude
or too large for a float, ``--dims`` text that does not split into integers,
a ``fiber --n`` below 1 or above MAX_FIBER_N or a ``--seed`` that is not an
integer >= 0, both refused before any work), a ``fiber --map`` that cannot
be read (refused before the walk) or an output file that cannot be written,
3 dimension mismatch (a ``fiber --map`` whose input dims are not
the shadow's is refused before the walk), a factor above 9 or a product of
factors above 81 (of a matrix or a process), or dims that are not integers
>= 1 (``--dims 0,4``, ``"dims": [2.5, 2]`` or ``[true, 4]``, a process's
``"in_dims": [2.5, 2]``, a ``"dim"`` of ``true``; 2.0 counts as 2), 4
infeasible or undecided where a decision was required (also a ``fiber
--map`` push in which no image is positive), 5 internal numeric
failure (``LinAlgError``, or a non-finite number in the output).  Output is
byte-identical across runs for identical (input, flags, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .blocks import factor_dims, grading_basis, operand
from .cones import (
    DEFAULT_TOL,
    FeasibilityParams,
    UNDECIDED,
    in_boxtimes_cone,
    in_max_cone,
    in_min_cone,
    in_positive_ss_cone,
)
from .errors import (
    DimensionMismatch,
    InfeasibleShadow,
    NotLocallyPositive,
    SupportViolation,
)
from .fiber import push_and_spread, sample_fiber
from .linalg import check_seed, check_tol
from .processes import (
    block_matrix,
    is_locally_positive,
    is_positive_map_heuristic,
    shadow_of_map,
)
from .serialize import (
    cone_result_to_json,
    dumps,
    matrix_from_json,
    matrix_to_json,
    process_from_json,
)
from .shadow import ShadowState, lt_state
from .verify import run_verification_report

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3
EXIT_UNDECIDED = 4
EXIT_NUMERIC = 5

# Largest supported factor dimension, and MAX_FACTOR_DIM ** 2 the largest D.
MAX_FACTOR_DIM = 9
# Largest fiber sample: sampling is linear in n; push_and_spread through a map
# that spreads the fiber is quadratic in n, except with one kernel direction
# (two rebits), where it reads the spread off the segment in O(n log n).
MAX_FIBER_N = 10_000


def _parse_dims(text: str) -> tuple[int, ...]:
    # Only the text -> ints split: the dims rule itself is factor_dims's.
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse dims {text!r}; expected e.g. 2,2") from exc


def _parse_seed(text: str) -> int:
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}") from None


def _parse_tol(text: str) -> float:
    try:
        return check_tol(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"tol must be finite and positive, got {text!r}") from None


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _BadInput(f"malformed JSON: {exc}") from exc
    except OSError as exc:
        raise _BadInput(f"cannot read {path}: {exc}") from exc


class _BadInput(ValueError):
    pass


def _write(payload: dict, path: str) -> None:
    text = dumps(payload) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_matrix(path: str, arg_dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """The matrix at path and its factor dims: --dims, else the file's
    "dims", checked against the matrix's dimension and the factor limits."""
    m, file_dims = matrix_from_json(_read_json(path))
    dims = arg_dims if arg_dims is not None else file_dims
    if dims is None:
        raise DimensionMismatch(
            "factor dimensions required: pass --dims or include \"dims\" in the input"
        )
    m, dims = operand(m, dims)
    _check_factor_limit(dims)
    return m, dims


def _check_factor_limit(dims) -> None:
    dims = factor_dims(dims)
    if max(dims) > MAX_FACTOR_DIM or math.prod(dims) > MAX_FACTOR_DIM ** 2:
        raise DimensionMismatch(
            f"dims {list(dims)}: factors above {MAX_FACTOR_DIM} and products above "
            f"{MAX_FACTOR_DIM ** 2} are not supported")


def _read_process(path: str):
    # The factor limits are checked first, so that input beyond them gets
    # the limit error, not the shape error of process_from_json.
    obj = _read_json(path)
    if isinstance(obj, dict):
        for key in ("in_dims", "out_dims"):
            if key in obj:
                _check_factor_limit(obj[key])
    return process_from_json(obj)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> tuple[dict, int]:
    m, dims = _read_matrix(args.input, args.dims)
    g = grading_basis(dims)
    coords = {p: g.rows(p) @ m.ravel() for p in g.patterns}
    payload = {"dims": list(dims)}
    payload.update({f"{p}_norm": float(np.linalg.norm(c)) for p, c in coords.items()})
    payload["coords"] = coords
    return payload, EXIT_OK


def cmd_shadow(args) -> tuple[dict, int]:
    m, dims = _read_matrix(args.input, args.dims)
    state = lt_state(m, dims)
    payload = matrix_to_json(state.op, dims)
    payload["kernel_component_norm"] = np.linalg.norm(m - state.op)
    return payload, EXIT_OK


_CONE_NEEDS_SEED = {"min", "max"}


def cmd_cone(args) -> tuple[dict, int]:
    m, dims = _read_matrix(args.input, args.dims)
    if args.cone in _CONE_NEEDS_SEED and args.seed is None:
        raise _BadInput(f"--seed is required for cone {args.cone!r}")
    if args.cone in ("psd-ss", "effect"):  # shadow effects are the psd-ss operators
        result = in_positive_ss_cone(m, dims, tol=args.tol)
    else:
        # The boxtimes oracle draws no random numbers, so any seed will do.
        seed = 0 if args.seed is None else args.seed
        params = FeasibilityParams(seed=seed, tol=args.tol)
        if args.cone == "boxtimes":
            result = in_boxtimes_cone(m, dims, params)
        elif args.cone == "max":
            result = in_max_cone(m, dims, params)
        else:
            result = in_min_cone(m, dims, params)
    payload = {"cone": args.cone, "dims": list(dims), "tol": args.tol}
    if args.seed is not None:
        payload["seed"] = args.seed
    payload.update(cone_result_to_json(result))
    code = EXIT_UNDECIDED if result.verdict == UNDECIDED else EXIT_OK
    return payload, code


def cmd_map(args) -> tuple[dict, int]:
    proc = _read_process(args.input)
    payload = {
        "in_dims": list(proc.in_dims),
        "out_dims": list(proc.out_dims),
        "check": args.check,
    }
    code = EXIT_OK
    if args.check == "local-positive":
        check = is_locally_positive(proc)
        payload["locally_positive"] = check.locally_positive
        payload["defect"] = check.defect
        payload["tolerance"] = check.tol
        if check.witness_kernel_element is not None:
            payload["witness_kernel_element"] = check.witness_kernel_element
            payload["witness_shadow_image"] = check.witness_shadow_image
    elif args.check == "positive":
        if args.seed is None:
            raise _BadInput("--seed is required for --check positive")
        params = FeasibilityParams(seed=args.seed, tol=args.tol)
        verdict = is_positive_map_heuristic(proc, params)
        payload["seed"] = args.seed
        payload["verdict"] = verdict.verdict
        payload["min_value"] = verdict.value
        payload["heuristic"] = verdict.heuristic
        if verdict.witness is not None:
            payload["witness_vector"] = verdict.witness
        if verdict.verdict == UNDECIDED:
            code = EXIT_UNDECIDED
    else:  # shadow
        payload["shadow_matrix"] = block_matrix(shadow_of_map(proc)).phi_ss
    return payload, code


def cmd_fiber(args) -> tuple[dict, int]:
    if args.n < 1:
        raise _BadInput(f"--n must be an integer >= 1, got {args.n}")
    if args.n > MAX_FIBER_N:
        raise _BadInput(f"--n {args.n} is above the limit of {MAX_FIBER_N}")
    m, dims = _read_matrix(args.shadow, args.dims)
    shadow = ShadowState(op=m, dims=dims)
    proc = None if args.map is None else _read_process(args.map)
    if proc is not None and proc.in_dims != dims:
        raise DimensionMismatch(
            f"--map input dims {list(proc.in_dims)} do not match the shadow's dims {list(dims)}")
    sample = sample_fiber(shadow, n=args.n, seed=args.seed)
    payload = {
        "seed": args.seed,
        "dims": list(dims),
        "n_requested": sample.n_requested,
        "n_accepted": sample.n_accepted,
        "kernel_dim": sample.kernel_dim,
        "rejected": sample.rejected,
    }
    if proc is not None:
        payload["spread"] = dataclasses.asdict(push_and_spread(sample, proc))
    return payload, EXIT_OK


def cmd_examples(args) -> tuple[dict, int]:
    report = run_verification_report(seed=args.seed, include_upb=args.upb)
    return report, EXIT_OK if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; the cmd_* functions it dispatches to look
    # their helpers up when called.
    parser = argparse.ArgumentParser(
        prog="lt-shadow",
        description="Shadows of real quantum states: block decomposition, "
                    "cone oracles, process shadows, fiber sampling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", "-i", default="-", help="input JSON file (default stdin)")
        p.add_argument("--output", "-o", default="-", help="output JSON file (default stdout)")
        p.add_argument("--dims", type=_parse_dims, default=None, help="factor dimensions, e.g. 2,2")

    p = sub.add_parser("decompose", help="block-coordinate split of an operator")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("shadow", help="shadow projection of an operator")
    add_common(p)
    p.set_defaults(func=cmd_shadow)

    p = sub.add_parser("cone", help="cone membership oracle")
    add_common(p)
    p.add_argument("--cone", required=True,
                   choices=("min", "psd-ss", "boxtimes", "max", "effect"))
    p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    p.add_argument("--seed", type=_parse_seed, default=None,
                   help="required for min/max")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("map", help="checks on a linear process")
    p.add_argument("--input", "-i", default="-", help="process JSON (default stdin)")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--check", required=True,
                   choices=("local-positive", "positive", "shadow"))
    p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    p.add_argument("--seed", type=_parse_seed, default=None)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("fiber", help="sample the fiber of a shadow")
    p.add_argument("--shadow", required=True, help="shadow matrix JSON file")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--n", type=int, default=100, help=f"sample size, at most {MAX_FIBER_N}"
                   "; a spreading --map costs time quadratic in n (minutes at the cap)"
                   " beyond one kernel direction")
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--map", default=None, help="optional process JSON to push through")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("examples", help="run the built-in verification report")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--seed", type=_parse_seed, default=7)
    p.add_argument("--upb", action="store_true",
                   help="include the unextendible-product-basis state in the output")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (DimensionMismatch, SupportViolation)):
            return EXIT_DIMENSION
        if isinstance(exc, (InfeasibleShadow, NotLocallyPositive)):
            return EXIT_UNDECIDED
        return EXIT_BAD_INPUT
    path = getattr(args, "output", "-")
    try:
        _write(payload, path)
    except ValueError as exc:  # dumps refuses a non-finite number
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
