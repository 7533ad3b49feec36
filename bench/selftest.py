"""Self-test: corrupted certificates and flipped verdicts must fail a run.

    python3 bench/selftest.py

Runs one round of each workload's operations unchanged (every output must
check), then once per injected fault with one program function replaced by
a version that corrupts its result.  Each faulty round must report an
incorrect output.  Exits non-zero if the clean round is not correct or a
fault goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ltshadow.cli  # noqa: E402
from ltshadow import cones, processes  # noqa: E402

import workloads  # noqa: E402


def corrupt(owner, name, change):
    original = getattr(owner, name)

    def faulty(*args, **kwargs):
        return change(original(*args, **kwargs))

    return owner, name, faulty


def shift_offset(r):
    if r.verdict == cones.MEMBER and "kernel_offset" in r.certificate:
        k = r.certificate["kernel_offset"]
        r.certificate = {"kernel_offset": k - 0.1 * np.eye(k.shape[0])}
    return r


def flip_member(r):
    if r.verdict == cones.MEMBER:
        d = r.certificate["kernel_offset"].shape[0]
        return dataclasses.replace(r, verdict=cones.NON_MEMBER,
                                   certificate={"separating_functional": np.eye(d)})
    return r


def flip_max(r):
    if r.verdict == cones.NON_MEMBER:
        x, y = r.certificate["witness_x"], r.certificate["witness_y"]
        return dataclasses.replace(r, verdict=cones.MEMBER, certificate={
            "heuristic": True, "min_quadratic": r.certificate["quadratic_value"],
            "argmin_x": x, "argmin_y": y})
    return r


def scale_weights(r):
    if r.verdict == cones.MEMBER:
        r.certificate = dict(r.certificate, weights=1.01 * np.asarray(r.certificate["weights"]))
    return r


def flip_positive(v):
    if v.verdict == processes.NOT_POSITIVE:
        return processes.PositiveMapVerdict(processes.POSITIVE, 0.0)
    return v


def leak_shadow(s):
    m = np.array(s.matrix)
    m[0, -1] += 1e-3
    return processes.LinearProcess(s.in_dims, s.out_dims, m)


def fail_report(report):
    return dict(report, all_pass=False)


def spread_local(report):
    return dataclasses.replace(report, diameter=max(report.diameter, 1e-3), deterministic=False)


FAULTS = {
    "oracles": [
        ("boxtimes kernel offset shifted off PSD", corrupt(cones, "in_boxtimes_cone", shift_offset)),
        ("boxtimes member flipped to non-member", corrupt(cones, "in_boxtimes_cone", flip_member)),
        ("max-cone non-member flipped to member", corrupt(cones, "in_max_cone", flip_max)),
        ("min-cone decomposition weights scaled", corrupt(cones, "in_min_cone", scale_weights)),
    ],
    "processes": [
        ("not-positive verdict flipped", corrupt(processes, "is_positive_map_heuristic",
                                                 flip_positive)),
        ("shadow of map given a stray entry", corrupt(processes, "shadow_of_map", leak_shadow)),
    ],
    "cli": [
        ("examples report all_pass false", corrupt(ltshadow.cli, "run_verification_report",
                                                   fail_report)),
        ("fiber spread widened", corrupt(ltshadow.cli, "push_and_spread", spread_local)),
    ],
}


def one_round(ops) -> list[str]:
    errors = []
    for op in ops:
        errors += op.check(op.run())[1]
    return errors


def main() -> int:
    workdir = ROOT / "bench" / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, faults in FAULTS.items():
            ops = workloads.build(name, 0, workdir)
            if name == "cli":  # one examples call and one run through each map kind
                ops = [ops[0], ops[1], ops[4]]
            errors = one_round(ops)
            print(f"{name}: clean round {'correct' if not errors else 'INCORRECT'}")
            ok &= not errors
            for label, (owner, attr, faulty) in faults:
                original = getattr(owner, attr)
                setattr(owner, attr, faulty)
                try:
                    caught = bool(one_round(ops))
                finally:
                    setattr(owner, attr, original)
                print(f"{name}: {label}: {'caught' if caught else 'NOT CAUGHT'}")
                ok &= caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
