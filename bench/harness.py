"""Benchmark driver: set-up, the closed loop, checks, and the result line.

One process, one thread, one client: each op starts when the previous one
returns (a closed loop).  End-to-end numbers always come from an untraced
pass; the traced pass replays a fixed op list under ``tracing.Tracer``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, Outcome

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 9
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MODULES = ("core", "numerics", "norms", "extremal", "compop", "cli", "descriptors")


def load_library():
    """Import a fresh copy of the package: module code, caches and classes."""
    for name in [m for m in sys.modules if m == "blochdisk" or m.startswith("blochdisk.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module("blochdisk"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"blochdisk.{name}"))
    return lib


def execute(workload, lib, spec) -> Outcome:
    try:
        return Outcome(value=workload.run(lib, spec))
    except Exception as exc:  # a raising op is a failed op, recorded not fatal
        return Outcome(error=exc)


def setup(workload, seed):
    """Import, input generation and one warm-up op, repeated; returns the last
    library, the op stream and the median set-up seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = load_library()
        stream = workload.stream(seed)
        first = next(stream)
        warm = execute(workload, lib, workload.warmup_spec())
        times.append(time.perf_counter() - start)
        if warm.error is not None or workload.check(workload.warmup_spec(), warm):
            raise RuntimeError(f"warm-up op failed: {warm.key()}")
    return lib, itertools.chain([first], stream), statistics.median(times)


class Tally:
    """Failed ops by reason, split into known seed defects and the rest."""

    def __init__(self):
        self.attempted = 0
        self.known = {}
        self.unexplained = []   # first few unexplained failures, for the report
        self.unexplained_count = 0

    def record(self, workload, spec, outcome, reason, explainable=True):
        """Count one op; ``reason`` is None when it passed its check.

        Only a failed check can be a known seed defect: differing repeats or
        traced results are never explained away.
        """
        self.attempted += 1
        if reason is None:
            return True
        defect = workload.known_defect(spec, outcome) if explainable else None
        if defect is None:
            if len(self.unexplained) < 20:
                self.unexplained.append({"spec": _plain(spec), "reason": reason})
            self.unexplained_count += 1
        else:
            self.known[defect] = self.known.get(defect, 0) + 1
        return False

    @property
    def failed(self):
        """Every failed op, the known seed defects included (``error_rate``)."""
        return sum(self.known.values()) + self.unexplained_count


def _plain(spec):
    return {k: (repr(v) if isinstance(v, complex) else v) for k, v in spec.items()
            if k != "ref"}


def tail(latencies, percentile):
    """(percentile, value) at the workload's tail percentile, or at the highest
    lower one that still has ten samples beyond it."""
    n = len(latencies)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if pct <= percentile and n * (1.0 - pct / 100.0) >= 10.0:
            chosen = pct
    return chosen, float(np.percentile(latencies, chosen))


def timed_phase(workload, lib, stream, seconds):
    """Closed loop for ``seconds`` of op time; checks run between ops, off the clock."""
    tally = Tally()
    latencies = []
    passed = 0
    op_time = 0.0
    phase_start = time.perf_counter()
    check_time = 0.0
    while op_time < seconds:
        spec = next(stream)
        start = time.perf_counter()
        outcome = execute(workload, lib, spec)
        latency = time.perf_counter() - start
        latencies.append(latency)
        check_start = time.perf_counter()
        reason = workload.check(spec, outcome)
        explainable = True
        if reason is None and spec.get("repeat"):
            again = execute(workload, lib, spec)
            if again.key() != outcome.key():
                reason, explainable = "repeated report bytes differ", False
        passed += tally.record(workload, spec, outcome, reason, explainable)
        check_time += time.perf_counter() - check_start
        op_time = time.perf_counter() - phase_start - check_time
    return tally, latencies, passed, op_time


def trace_phase(workload, lib, stream, seconds):
    """Untraced then traced pass over the same fixed op list."""
    specs = [next(stream) for _ in range(workload.trace_ops)]
    plain = []
    start = time.perf_counter()
    for spec in specs:
        plain.append(execute(workload, lib, spec))
        if time.perf_counter() - start > seconds:
            break
    untraced = time.perf_counter() - start
    specs = specs[:len(plain)]
    tracer = Tracer()
    with tracer:
        tracer.install(lib)
        start = time.perf_counter()
        traced = [execute(workload, lib, spec) for spec in specs]
        traced_wall = time.perf_counter() - start
    tally = Tally()
    for spec, a, b in zip(specs, plain, traced):
        if a.key() != b.key():
            tally.record(workload, spec, b, "traced result differs from untraced", False)
        else:
            tally.record(workload, spec, b, workload.check(spec, b))
    maps = len(specs) * workload.maps_per_op
    return tally, tracer.metrics(maps, traced_wall / untraced), len(specs)


def environment():
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name, seed, seconds, trace, out=sys.stdout):
    workload = WORKLOADS[workload_name]
    lib, stream, setup_s = setup(workload, seed)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": environment()}
    if trace:
        tally, metrics, ops = trace_phase(workload, lib, stream, seconds)
        detail["traced_ops"] = ops
        units = {name: unit for name, unit, _ in PER_LAYER}
        report = {name: {"value": metrics[name], "unit": units[name]}
                  for name, _, _ in PER_LAYER}
    else:
        tally, latencies, passed, op_time = timed_phase(workload, lib, stream, seconds)
        pct, tail_s = tail(latencies, workload.tail_percentile)
        values = {
            "ops_per_s": passed / op_time,
            "op_p50_ms": 1e3 * float(np.median(latencies)),
            "op_tail_ms": 1e3 * tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        report = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        beyond = sum(1 for x in latencies if x > tail_s)
        detail["op_tail"] = {"percentile": pct, "samples": len(latencies),
                             "beyond": beyond}
        detail["error_rate"] = tally.failed / tally.attempted
        for name, unit in END_TO_END:
            print(f"{name:<12} {report[name]['value']:>14.6g} {unit}", file=out)
        print(f"{'error_rate':<12} {detail['error_rate']:>14.6g} ratio "
              f"({tally.failed} of {tally.attempted} ops, "
              f"{tally.unexplained_count} unexplained)", file=out)
        print(f"op_tail_ms is p{pct:g} of {len(latencies)} ops, {beyond} beyond it",
              file=out)
    detail["failed_by_known_defect"] = tally.known
    detail["unexplained_failures"] = tally.unexplained
    print(json.dumps(detail, sort_keys=True), file=out)
    # ``failed`` counts the ops no known seed defect explains: a regression.
    # Ops that reproduce a documented seed defect are in ``error_rate`` and
    # ``failed_by_known_defect`` above, on every run.
    result = {
        "correct": tally.unexplained_count == 0,
        "attempted": tally.attempted,
        "failed": tally.unexplained_count,
        "metrics": report,
    }
    print(json.dumps(result), file=out)
    return result


def locate_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "blochdisk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no blochdisk sources under {src}")
    return src
