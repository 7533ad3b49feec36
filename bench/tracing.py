"""Spans and counters recorded from outside the program.

The tracer wraps public ltshadow functions at each module boundary: every
namespace that binds a traced function (the defining module, the modules
that import it, and the package itself) gets the wrapper, so calls are seen
wherever they come from.  Each call of a spanned function records a span
(name, start, end, parent); counted functions only bump a counter.  The
numpy eigensolvers are wrapped too, counting each matrix handed to them (a
stacked batch counts once per matrix) and the time spent inside them.

Spans are kept in memory and written out when the run ends.  Restart
searches in the program may run on a thread pool while the calling thread
waits, so the eigensolve counter is guarded by a lock and a span's
eigensolves are the counter's growth between the span's start and end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

import numpy as np

# Spanned functions: (module, attribute).  Methods are given as Class.method.
SPANNED = (
    ("fiber", "sample_fiber"),
    ("fiber", "push_and_spread"),
    ("cones", "in_boxtimes_cone"),
    ("cones", "in_max_cone"),
    ("cones", "in_min_cone"),
    ("cones", "in_positive_ss_cone"),
    ("cones", "product_form_extremum"),
    ("upb", "unextendibility_margin"),
    ("processes", "random_locally_positive_process"),
    ("processes", "is_positive_map_heuristic"),
    ("processes", "is_locally_positive"),
    ("processes", "shadow_of_map"),
    ("verify", "run_verification_report"),
    ("cli", "main"),
    ("serialize", "dumps"),
)

COUNTED = (
    ("shadow", "local_shadow_matrix"),
    ("blocks", "project_block"),
    ("processes", "LinearProcess.apply"),
)

EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")

MODULES = ("linalg", "blocks", "shadow", "cones", "processes", "fiber", "upb",
           "verify", "serialize", "cli")


def _sample_fiber_stats(arguments, result):
    steps = arguments["burn_in"] + arguments["n"] if result.kernel_dim > 0 else 0
    return {"steps": steps, "n_requested": result.n_requested,
            "n_accepted": result.n_accepted}


def _boxtimes_stats(arguments, result):
    return {"iterations": result.iterations,
            "undecided": int(result.verdict == "undecided")}


# Extra per-call figures read from the bound arguments and the result.
STATS = {
    "fiber.sample_fiber": _sample_fiber_stats,
    "cones.in_boxtimes_cone": _boxtimes_stats,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, eigensolves, eig_s]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.stats: dict[str, dict[str, int]] = {}
        self.eigensolves = 0
        self.eigensolve_s = 0.0
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("ltshadow")
        namespaces = [pkg] + [importlib.import_module(f"ltshadow.{m}") for m in MODULES]
        for module, attr in SPANNED:
            self._wrap_everywhere(namespaces, module, attr, self._spanning)
        for module, attr in COUNTED:
            self._wrap_everywhere(namespaces, module, attr, self._counting)
        for name in EIGENSOLVERS:
            self._patch(np.linalg, name, self._eigensolver(getattr(np.linalg, name)))
        scipy_linalg = sys.modules.get("scipy.linalg")  # never imported here
        if scipy_linalg is not None:
            for name in EIGENSOLVERS:
                self._patch(scipy_linalg, name, self._eigensolver(getattr(scipy_linalg, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, namespaces, module, attr, make) -> None:
        name = f"{module}.{attr.split('.')[-1]}"
        home = importlib.import_module(f"ltshadow.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            self._patch(cls, meth, make(name, getattr(cls, meth)))
            return
        original = getattr(home, attr)
        wrapper = make(name, original)
        for ns in namespaces:
            if getattr(ns, attr, None) is original:
                self._patch(ns, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _spanning(self, name, fn):
        stats = STATS.get(name)
        signature = inspect.signature(fn) if stats is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.eigensolves, self.eigensolve_s]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                span[4] = self.eigensolves - span[4]
                span[5] = self.eigensolve_s - span[5]
            if stats is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                acc = self.stats.setdefault(name, {})
                for key, value in stats(bound.arguments, result).items():
                    acc[key] = acc.get(key, 0) + int(value)
            return result

        return wrapper

    def _counting(self, name, fn):
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _eigensolver(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            n = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            t0 = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.eigensolves += n
                    self.eigensolve_s += dt

        return wrapper

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time, self time, eigensolves."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, eig, eig_s) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "eigensolves": 0, "eigensolve_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["eigensolves"] += eig
            t["eigensolve_s"] += eig_s
        return out

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "eigensolves"]
        payload["spans"] = [[n, s, e, p, k] for n, s, e, p, k, _ in self.spans]
        payload["by_name"] = self.totals()
        payload["counts"] = dict(self.counts)
        payload["stats"] = self.stats
        payload["eigensolves"] = self.eigensolves
        payload["eigensolve_s"] = self.eigensolve_s
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# name, unit, better, source.  Sources: ("time"|"calls"|"eig", span name),
# ("count", counted name), ("stat", span name, key), or a special key.
PER_LAYER = (
    ("linalg.eigensolves", "count/op", "lower", ("all_eig",)),
    ("linalg.eigensolve_s", "s/op", "lower", ("all_eig_s",)),
    ("fiber.sample_fiber_s", "s/op", "lower", ("time", "fiber.sample_fiber")),
    ("fiber.sample_fiber_eigensolves", "count/op", "lower", ("eig", "fiber.sample_fiber")),
    ("fiber.steps", "count/op", "higher", ("stat", "fiber.sample_fiber", "steps")),
    ("fiber.eigensolves_per_step", "count/step", "lower", ("eig_per_step",)),
    ("fiber.accepted_ratio", "ratio", "higher", ("accepted_ratio",)),
    ("fiber.push_and_spread_s", "s/op", "lower", ("time", "fiber.push_and_spread")),
    ("cones.boxtimes_s", "s/op", "lower", ("time", "cones.in_boxtimes_cone")),
    ("cones.boxtimes_iterations", "count/op", "lower",
     ("stat", "cones.in_boxtimes_cone", "iterations")),
    ("cones.boxtimes_eigensolves", "count/op", "lower", ("eig", "cones.in_boxtimes_cone")),
    ("cones.boxtimes_undecided", "count/op", "lower",
     ("stat", "cones.in_boxtimes_cone", "undecided")),
    ("cones.max_s", "s/op", "lower", ("time", "cones.in_max_cone")),
    ("cones.min_s", "s/op", "lower", ("time", "cones.in_min_cone")),
    ("cones.psd_ss_s", "s/op", "lower", ("time", "cones.in_positive_ss_cone")),
    ("cones.product_form_extremum_s", "s/op", "lower", ("time", "cones.product_form_extremum")),
    ("cones.product_form_extremum_calls", "count/op", "lower",
     ("calls", "cones.product_form_extremum")),
    ("cones.product_form_extremum_eigensolves", "count/op", "lower",
     ("eig", "cones.product_form_extremum")),
    ("upb.unextendibility_margin_s", "s/op", "lower", ("time", "upb.unextendibility_margin")),
    ("processes.generate_locally_positive_s", "s/op", "lower",
     ("time", "processes.random_locally_positive_process")),
    ("processes.positive_heuristic_calls", "count/op", "lower",
     ("calls", "processes.is_positive_map_heuristic")),
    ("processes.positive_heuristic_s", "s/op", "lower",
     ("time", "processes.is_positive_map_heuristic")),
    ("processes.positive_heuristic_eigensolves", "count/op", "lower",
     ("eig", "processes.is_positive_map_heuristic")),
    ("processes.is_locally_positive_s", "s/op", "lower", ("time", "processes.is_locally_positive")),
    ("processes.shadow_of_map_s", "s/op", "lower", ("time", "processes.shadow_of_map")),
    ("processes.apply_calls", "count/op", "lower", ("count", "processes.apply")),
    ("shadow.local_shadow_matrix_calls", "count/op", "lower",
     ("count", "shadow.local_shadow_matrix")),
    ("blocks.project_block_calls", "count/op", "lower", ("count", "blocks.project_block")),
    ("verify.report_s", "s/op", "lower", ("time", "verify.run_verification_report")),
    ("cli.main_s", "s/op", "lower", ("time", "cli.main")),
    ("serialize.dumps_s", "s/op", "lower", ("time", "serialize.dumps")),
    ("setup.import_s", "s", "lower", ("setup", "import_s")),
    ("setup.warmup_s", "s", "lower", ("setup", "warmup_s")),
)


def per_layer_metrics(tracer: Tracer, ops: int, setup: dict) -> dict:
    """Every per-layer metric, per operation of the timed phase."""
    totals = tracer.totals()

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    def stat(name, key):
        return tracer.stats.get(name, {}).get(key, 0)

    out = {}
    for metric, unit, _, source in PER_LAYER:
        kind = source[0]
        if kind == "time":
            value = total(source[1], "total_s") / ops
        elif kind == "calls":
            value = total(source[1], "calls") / ops
        elif kind == "eig":
            value = total(source[1], "eigensolves") / ops
        elif kind == "stat":
            value = stat(source[1], source[2]) / ops
        elif kind == "count":
            value = tracer.counts.get(source[1], 0) / ops
        elif kind == "all_eig":
            value = tracer.eigensolves / ops
        elif kind == "all_eig_s":
            value = tracer.eigensolve_s / ops
        elif kind == "eig_per_step":
            steps = stat("fiber.sample_fiber", "steps")
            value = total("fiber.sample_fiber", "eigensolves") / steps if steps else 0.0
        elif kind == "accepted_ratio":
            requested = stat("fiber.sample_fiber", "n_requested")
            value = stat("fiber.sample_fiber", "n_accepted") / requested if requested else 0.0
        else:  # setup
            value = setup[source[1]]
        out[metric] = {"value": value, "unit": unit}
    return out
