"""Benchmark of ltshadow: end-to-end and per-layer metrics on seeded workloads.

    python3 bench/run.py --workload oracles --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1              # every workload, one after another

Each run starts fresh interpreters (bench/worker.py) from this process.
Untraced (``--trace 0``), the workload is set up SETUP_RUNS times and the
median time from launching the interpreter to ``ready`` is ``setup_s``; the
last of those interpreters goes on to the timed phase.  Traced
(``--trace 1``), one interpreter runs the timed phase with the tracer
installed and reports the per-layer metrics.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  The exit code is
non-zero if any output was incorrect or a worker failed.

Only the standard library is used here; numpy and the program are loaded
by the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "oracles", "processes")
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    remaining = deadline - time.perf_counter()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise WorkerError("worker timed out")
    return proc.stdout.readline()


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from launch to ready, result line)."""
    env = {k: v for k, v in os.environ.items() if k != "LT_SHADOW_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if _read_line(proc, deadline).strip() != "ready":
            raise WorkerError(f"{workload} worker failed during setup")
        ready_s = time.perf_counter() - t0
        line = _read_line(proc, deadline) if not setup_only else ""
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (WorkerError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"{workload} worker exited with code {code}")
    if setup_only:
        return ready_s, None
    if not line:
        raise WorkerError(f"{workload} worker printed no result")
    return ready_s, json.loads(line)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    if trace:
        _, result = run_worker(workload, seed, seconds, 1, False, deadline)
        return result
    setups = [run_worker(workload, seed, seconds, 0, True, deadline)[0]
              for _ in range(SETUP_RUNS - 1)]
    ready_s, result = run_worker(workload, seed, seconds, 0, False, deadline)
    setups.append(ready_s)
    result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                         **result["metrics"]}
    return result


def summary(workload: str, result: dict) -> str:
    lines = [f"workload {workload}: attempted {result['attempted']}, failed {result['failed']}, "
             f"correct {str(result['correct']).lower()}, rounds {result['rounds']}"]
    if "traced_ops_per_s" in result:
        lines.append(f"  (traced ops_per_s {result['traced_ops_per_s']:.6g})")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    lines.append("  median latency by kind (ms): " + ", ".join(
        f"{k} {v:.4g}" for k, v in result["kind_p50_ms"].items()))
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(summary(name, results[name]), flush=True)

    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        final = {k: results[names[0]][k] for k in keys}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
