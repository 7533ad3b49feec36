"""The CLI's corpus: one table of commands, the inputs they read and one runner.

Without an argument, runs each command twice in fresh `python -W error` processes and checks
both runs: the same bytes and counts, the expected exit code, no traceback on stderr and the
entry's check.  With a git revision, classifies each command's result against its src/.  Each
run also counts the eigensolver calls and matrices the command makes, and both modes print them.
"""

import collections
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # this tree's ltshadow, ahead of an installed one
import ltshadow  # noqa: E402
from ltshadow.processes import to_coords  # noqa: E402
from ltshadow.serialize import process_to_json  # noqa: E402
from matrix_helpers import parity_breaking_map  # noqa: E402

# name, exit code, argv.  Every file an argv names is an input, except missing.json.
TABLE = """
examples-7                     0 examples --seed 7 --upb
examples-11                    0 examples --seed 11 --upb
examples-3                     0 examples --seed 3 --upb
decompose-rank4                0 decompose -i rank4.json
decompose-9-9                  0 decompose -i sym81.json
decompose-3-3-3-3              0 decompose --dims 3,3,3,3 -i sym81.json
shadow-rank9                   0 shadow -i rank9.json
cone-boxtimes-rank4            0 cone --cone boxtimes -i rank4.json
cone-psd-ss-rank4              0 cone --cone psd-ss -i rank4.json
cone-effect-rank4              0 cone --cone effect -i rank4.json
cone-max-rank4                 0 cone --cone max --seed 3 -i rank4.json
cone-min-rank4                 0 cone --cone min --seed 3 -i rank4.json
cone-psd-ss-rank9              0 cone --cone psd-ss -i rank9.json
cone-boxtimes-three            0 cone --cone boxtimes -i three.json
cone-max-tiles                 0 cone --cone max --seed 3 -i tiles-form.json
cone-min-tiles                 0 cone --cone min --seed 3 -i tiles-state.json
cone-max-outside               0 cone --cone max --seed 3 -i outside.json
cone-boxtimes-outside          0 cone --cone boxtimes -i outside.json
cone-boxtimes-band             4 cone --cone boxtimes -i band.json
map-local-local-positive       0 map --check local-positive -i local.json
map-local-shadow               0 map --check shadow -i local.json
map-local-positive             0 map --check positive --seed 3 -i local.json
map-leaking-local-positive     0 map --check local-positive -i leaking.json
map-leaking-shadow             4 map --check shadow -i leaking.json
map-leaking-positive           0 map --check positive --seed 3 -i leaking.json
map-twisted-local-positive     0 map --check local-positive -i twisted-pt.json
map-twisted-shadow             4 map --check shadow -i twisted-pt.json
map-twisted-positive           0 map --check positive --seed 3 -i twisted-pt.json
fiber-rank9-local              0 fiber --shadow rank9.json --n 100 --seed 1 --map local.json
fiber-rank9-leaking            0 fiber --shadow rank9.json --n 100 --seed 1 --map leaking.json
fiber-rank9-push300            0 fiber --shadow rank9.json --n 300 --seed 1 --map leaking.json
fiber-rank9-2000               0 fiber --shadow rank9.json --n 2000 --seed 1
fiber-rank4-500                0 fiber --shadow rank4.json --n 500 --seed 1
fiber-three                    0 fiber --shadow three.json --n 100 --seed 1
fiber-rebit-local              0 fiber --shadow rebit.json --n 100 --seed 1 --map rebit-local.json
fiber-rebit-leaking            0 fiber --shadow rebit.json --n 10000 --seed 1 --map rebit-leaking.json
fiber-rank9-negated            4 fiber --shadow rank9.json --n 50 --seed 1 --map negated.json
fiber-rebit-negated            4 fiber --shadow rebit.json --n 50 --seed 1 --map rebit-negated.json
map-parity-local-positive      2 map --check local-positive -i parity.json
map-parity-shadow              2 map --check shadow -i parity.json
map-huge                       3 map --check local-positive -i huge.json
cone-min-three                 3 cone --cone min --seed 1 -i three.json
cone-negative-seed             2 cone --cone boxtimes --seed -1 -i rank4.json
shadow-fractional              3 shadow -i fractional.json
shadow-big                     2 shadow -i big.json
shadow-strings                 2 shadow -i strings.json
shadow-dims-0                  3 shadow --dims 0,4 -i rank4.json
shadow-dims-x                  2 shadow --dims 2,x -i rank4.json
fiber-n-0                      2 fiber --shadow rank4.json --n 0 --seed 1
fiber-n-10001                  2 fiber --shadow rank4.json --n 10001 --seed 1
fiber-missing-map              2 fiber --shadow rank9.json --n 10000 --seed 1 --map missing.json
fiber-map-22                   3 fiber --shadow rank9.json --n 10000 --seed 1 --map map-22.json
"""
CORPUS = [(n, a, int(c)) for n, c, a in (e.split(None, 2) for e in TABLE.strip().splitlines())]
CLASSES = ("values-equal", "verdicts-only", "differs")  # what classify returns, best first

# `python -W error -c COUNTED counts argv...` runs `lt-shadow argv...` as `python -m ltshadow`
# would, and writes "calls matrices" of its numpy eigh and eigvalsh calls to the file counts;
# a stacked call on an (R, d, d) array counts R matrices.
COUNTED = """
import sys
import numpy as np
counts = [0, 0]
def counted(solve):
    def run(a, *args, **kwargs):
        a = np.asarray(a)
        counts[0] += 1
        counts[1] += int(np.prod(a.shape[:-2]))
        return solve(a, *args, **kwargs)
    return run
np.linalg.eigh, np.linalg.eigvalsh = counted(np.linalg.eigh), counted(np.linalg.eigvalsh)
try:
    from ltshadow.cli import main
    sys.exit(main(sys.argv[2:]))
finally:
    with open(sys.argv[1], "w") as f:
        f.write(f"{counts[0]} {counts[1]}")
"""


def _symmetric_split(d, o) -> bool:
    """Parseval for the symmetric sym81 input, with no weight on the
    antisymmetric blocks (an odd number of a)."""
    norms = {key[:-5]: v for key, v in d.items() if key.endswith("_norm")}
    total = float(np.linalg.norm(o["sym81.json"]["rows"]))
    return (abs(math.hypot(*norms.values()) - total) <= 1e-12 * total
            and all(v <= 1e-12 * total for p, v in norms.items() if p.count("a") % 2))


def _max_witness_replays(d, o) -> bool:
    """A max-cone non-member's witness pair has the reported q < -tol, recomputed
    from the input."""
    c = d["certificate"]
    xy = np.kron(c["witness_x"], c["witness_y"])
    q = float(xy @ np.array(o["outside.json"]["rows"]) @ xy)
    return (d["verdict"] == "non_member" and c["quadratic_value"] < -1e-8
            and abs(q - c["quadratic_value"]) <= 1e-12)


def _offset_replays(d, o) -> bool:
    """A boxtimes member's kernel offset replays against the rank4 input."""
    m = o["rank4.json"]
    return d["verdict"] == "member" and ltshadow.replay_boxtimes_member(
        np.array(m["rows"]), tuple(m["dims"]), np.array(d["certificate"]["kernel_offset"]))


def _functional_replays(d, o) -> bool:
    """A boxtimes non-member's separating functional replays against the outside input."""
    m, c = o["outside.json"], d["certificate"]
    return d["verdict"] == "non_member" and c["pairing"] < -1e-8 and (
        ltshadow.replay_separating_functional(
            np.array(m["rows"]), tuple(m["dims"]), np.array(c["separating_functional"]))[0])


# Checks on an entry's parsed stdout d, given every input and earlier output by name in o.
CHECKS = {
    **dict.fromkeys(("decompose-9-9", "decompose-3-3-3-3"), _symmetric_split),
    **dict.fromkeys(("examples-7", "examples-11", "examples-3"), lambda d, o: d["all_pass"]
                    is True and all(c["pass"] is True for c in d["checks"])),
    "cone-effect-rank4": lambda d, o: d["cone"] == "effect"
    and {**d, "cone": "psd-ss"} == o["cone-psd-ss-rank4"],
    "cone-boxtimes-rank4": _offset_replays,
    "cone-boxtimes-three": lambda d, o: d["verdict"] == "member",
    "cone-max-tiles": lambda d, o: d["verdict"] == "member"
    and d["certificate"]["heuristic"] is True,
    "cone-min-tiles": lambda d, o: d["verdict"] == "non_member"
    and d["certificate"]["criterion"] == "range",
    "cone-max-outside": _max_witness_replays,
    "cone-boxtimes-outside": _functional_replays,
    "cone-boxtimes-band": lambda d, o: d["verdict"] == "undecided" and d["certificate"] is None,
    "map-local-local-positive": lambda d, o: d["locally_positive"] is True,
    "map-leaking-local-positive": lambda d, o: d["locally_positive"] is False,
    "fiber-rank9-local": lambda d, o: d["spread"]["deterministic"] is True
    and d["spread"]["diameter"] == 0,
    "fiber-rank9-leaking": lambda d, o: d["spread"]["deterministic"] is False,
    "fiber-rebit-local": lambda d, o: d["spread"]["deterministic"] is True
    and d["spread"]["diameter"] == 0,
    "fiber-rebit-leaking": lambda d, o: d["spread"]["deterministic"] is False
    and (d["kernel_dim"], d["n_accepted"]) == (1, 10000),
    **{name: lambda d, o, n=n: (d["rejected"], d["n_accepted"]) == (0, n)
       for name, n in (("fiber-rank9-2000", 2000), ("fiber-rank4-500", 500), ("fiber-three", 100))},
}


def negated_identity(dims):
    """-identity: no positive input has a positive image."""
    return ltshadow.LinearProcess(dims, dims, -ltshadow.identity_process(dims).matrix)


def write_inputs(tmp) -> dict:
    """Write every input file of the corpus into tmp; return them by file name."""
    form, state, _ = ltshadow.separating_max_cone_form(seed=0)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    n81 = np.random.default_rng(81).standard_normal((81, 81))
    pt = [q @ e.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4) @ q.T  # Q PT_B Q^T
          for e in ltshadow.grading_basis((2, 2)).stacked.reshape(-1, 4, 4)]
    inputs = {f"{name}.json": process_to_json(proc) for name, proc in {
        "local": ltshadow.random_locally_positive_process((3, 3), seed=1),
        "leaking": ltshadow.random_kernel_leaking_process((3, 3), seed=1),
        "rebit-local": ltshadow.random_locally_positive_process((2, 2), seed=1),
        "rebit-leaking": ltshadow.random_kernel_leaking_process((2, 2), seed=1),
        "twisted-pt": ltshadow.LinearProcess((2, 2), (2, 2), to_coords(np.stack(pt), (2, 2)).T),
        "negated": negated_identity((3, 3)), "rebit-negated": negated_identity((2, 2)),
        "parity": parity_breaking_map(), "map-22": ltshadow.identity_process((2, 2))}.items()} | {
        "tiles-form.json": {"dims": [3, 3], "rows": form.tolist()},
        "tiles-state.json": {"dims": [3, 3], "rows": state.tolist()},
        "fractional.json": {"dims": [2.5, 2], "rows": np.eye(4).tolist()},
        "big.json": {"dims": [2, 2], "rows": [[1e308] * 4] * 4},
        "huge.json": {"in_dims": [9, 9, 2], "out_dims": [1], "matrix": [[1.0]]},
        "strings.json": {"dims": [2], "rows": [["1", 0], [0, True]]},
        "sym81.json": {"dims": [9, 9], "rows": ((n81 + n81.T) / 2).tolist()}}
    for name, dims, cols in (("rank4", (3, 3), 4), ("rank9", (3, 3), 18), ("three", (2, 2, 2), 16),
                             ("rebit", (2, 2), 8)):
        a = np.random.default_rng(0).standard_normal((int(np.prod(dims)), cols))
        shadow = ltshadow.lt_state(a @ a.T / np.trace(a @ a.T), dims).op
        inputs[f"{name}.json"] = {"dims": list(dims), "rows": shadow.tolist()}
    # The rank4 shadow s less (<F, s> + 0.05) F for a unit product projector F,
    # so <F, outside> = -0.05: outside the boxtimes and the maximal cone.
    s = np.array(inputs["rank4.json"]["rows"])
    x, y = (v / np.linalg.norm(v) for v in np.random.default_rng(3).standard_normal((2, 3)))
    f = np.kron(np.outer(x, x), np.outer(y, y))
    inputs["outside.json"] = {"dims": [3, 3], "rows": (s - (np.sum(f * s) + 0.05) * f).tolist()}
    # The EPR shadow, on the boundary of the boxtimes cone, less 5e-9 I: inside the oracle's
    # tolerance band at tol 1e-8.
    epr = np.outer(*[np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)] * 2)
    band = ltshadow.local_shadow_matrix(epr, (2, 2)) - 5e-9 * np.eye(4)
    inputs["band.json"] = {"dims": [2, 2], "rows": band.tolist()}
    for name, payload in inputs.items():
        (Path(tmp) / name).write_text(json.dumps(payload))
    return inputs


def classify(a, b) -> str:
    """The class of two parsed results; numbers compare as IEEE doubles, bit for bit."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        a, b = [a[k] for k in a], [b[k] for k in a]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(map(classify, a, b), key=CLASSES.index, default=CLASSES[0])
    if {type(a), type(b)} <= {int, float}:
        same = float(a).hex() == float(b).hex()
        return CLASSES[0 if same else 1 if type(a) is type(b) is float else 2]
    return CLASSES[0 if type(a) is type(b) and a == b else 2]


def run(src, argv: str, cwd):
    """[exit code, stdout, stderr] of `lt-shadow argv` run on the ltshadow in src, from cwd,
    and its eigensolver (calls, matrices), or None when the run wrote no count."""
    count_file = Path(cwd) / "eigensolves.txt"
    cmd = [sys.executable, "-W", "error", "-c", COUNTED, count_file, *argv.split()]
    proc = subprocess.run(cmd, cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=1800)
    made = tuple(map(int, count_file.read_text().split())) if count_file.exists() else None
    count_file.unlink(missing_ok=True)
    return [proc.returncode, proc.stdout, proc.stderr], made


def _counts_text(made) -> str:
    return "no count" if made is None else "%d/%d" % made


def main(rev=None) -> int:
    counts = collections.Counter()
    totals = np.zeros((2, 2), dtype=int)  # calls and matrices at REV, then here
    with tempfile.TemporaryDirectory() as tmp:
        o = write_inputs(tmp)
        if rev:  # REV's src/ lands in tmp/src
            archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        print(f"{'class':<13} {'entry':<30} eigensolver calls/matrices"
              + (f" at {rev} -> here" if rev else ""))
        for name, argv, code in CORPUS:
            (first, made), (second, made_second) = (
                run(ROOT / "src", argv, tmp), run(Path(tmp if rev else ROOT) / "src", argv, tmp))
            o[name] = json.loads(first[1] or "null")
            eig = _counts_text(made)
            if rev:
                eig = f"{_counts_text(made_second)} -> {eig}"
                totals += [made_second or (0, 0), made or (0, 0)]
                result = "bytes-equal" if first == second else classify(
                    *([r[0], json.loads(r[1] or "null"), r[2]] for r in (first, second)))
            elif first != second:
                result = "FAIL: the two runs differ"
            elif made is None or made != made_second:
                result = "FAIL: the two runs' eigensolver counts differ or are missing"
            elif "Traceback" in first[2]:
                result = "FAIL: a traceback on stderr"
            elif first[0] != code:
                result = f"FAIL: exit {first[0]}, expected {code}: {first[2].strip()}"
            elif "NaN" in first[1] or "Infinity" in first[1]:
                result = "FAIL: NaN or Infinity in stdout"
            else:
                result = "ok" if CHECKS.get(name, lambda d, o: True)(o[name], o) else "FAIL: check"
            counts[result.split(":")[0]] += 1
            print(f"{result:<13} {name:<30} {eig}", flush=True)
    print(f"{len(CORPUS)} entries:", ", ".join(f"{n} {r}" for r, n in counts.items()))
    if rev:
        print(f"total eigensolver calls/matrices at {rev} -> here: "
              f"{_counts_text(tuple(totals[0]))} -> {_counts_text(tuple(totals[1]))}")
    return 1 if counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
