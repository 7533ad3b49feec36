"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py.  Imports the program from the checkout's ``src``, builds
the workload's inputs from the seed, runs one warm-up operation of each
kind, then writes ``ready`` on stdout.  Unless ``--setup-only`` is given it
then runs whole rounds of the workload's operations, one after another,
until ``--seconds`` have passed, and writes one JSON line with its
counts and measurements.  The program's own output goes to stderr so that
stdout carries only these two lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
MAX_ERRORS = 20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("cli", "oracles", "processes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    protocol, sys.stdout = sys.stdout, sys.stderr
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import ltshadow.cli  # noqa: F401  (numpy and scipy come with it)
    except ImportError as exc:
        print(f"bench: cannot import ltshadow from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if src not in Path(sys.modules["ltshadow"].__file__).resolve().parents:
        print("bench: ltshadow was not imported from the checkout's src", file=sys.stderr)
        return 2

    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workloads, workdir, protocol, import_s, t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is not None:
        protocol.write(json.dumps(result) + "\n")
        protocol.flush()
    return 0


def run(args, workloads, workdir, protocol, import_s, t0):
    ops = workloads.build(args.workload, args.seed, workdir)
    errors: list[str] = []
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            errors += op.check(op.run())[1]
    setup = {"import_s": import_s, "warmup_s": time.perf_counter() - t0 - import_s}
    protocol.write("ready\n")
    protocol.flush()
    if args.setup_only:
        return None

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    # latencies[i]: op i's latency in every round, in seconds.
    latencies: list[list[float]] = [[] for _ in ops]
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for op, samples in zip(ops, latencies):
            t = time.perf_counter()
            out = op.run()
            samples.append(time.perf_counter() - t)
            op_failed, op_errors = op.check(out)
            attempted += 1
            failed += op_failed
            errors += op_errors
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    for e in errors[:MAX_ERRORS]:
        print(f"bench: incorrect output: {e}", file=sys.stderr)
    # Both timings are taken over every timed call.  Each op's best round
    # would be less steady: the minimum falls with the number of rounds, and
    # on a shared machine a run's speed decides how many rounds it completes.
    timed = [t for samples in latencies for t in samples]
    by_kind: dict[str, list[float]] = {}
    for op, samples in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).extend(samples)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(latencies[0]),
        "setup": setup,
        "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
    }
    ops_per_s = {"value": attempted / sum(timed), "unit": "ops/s"}
    if tracer is None:
        result["metrics"] = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": {"value": 1e3 * statistics.median(timed), "unit": "ms"},
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
        }
    else:
        result["metrics"] = tracing.per_layer_metrics(tracer, attempted, setup)
        result["traced_ops_per_s"] = ops_per_s["value"]
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "ops": attempted})
    return result


if __name__ == "__main__":
    sys.exit(main())
