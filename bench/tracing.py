"""Per-layer tracing by wrapping the library from outside.

``Tracer.install(lib)`` replaces every binding of the traced functions (the
defining module's and every from-import in the package, e.g.
``norms.sup_search`` and ``compop.sup_search``) and the ``eval``/``deriv``
methods of every ``AnalyticMap`` subclass with span-recording wrappers;
``uninstall`` puts the original objects back.  Spans are aggregated as they
close (call count, self time, and counts taken at the boundary) rather than
stored one by one: a lipschitz-sweep op opens thousands of spans.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

KINDS = ("polynomial", "mobius", "blaschke", "scaled-identity", "power-kernel",
         "composed", "quadratic-extremal", "antiderivative-extremal")

# (module, function) pairs wrapped wherever they are bound.
FUNCTIONS = (
    ("core", "lambda_f"),
    ("numerics", "sup_search"), ("numerics", "golden_max"),
    ("numerics", "gl_panel"), ("numerics", "gl_panel_columns"),
    ("norms", "hardy_mean"), ("norms", "hardy_norm"), ("norms", "bloch_seminorm"),
    ("norms", "g_function"), ("norms", "g_norm_check"),
    ("extremal", "random_normalized_corpus"), ("extremal", "lipschitz_scan"),
    ("compop", "bloch_to_hardy_criterion"), ("compop", "hardy_to_bloch_verdict"),
    ("compop", "bounded_below_probe"), ("compop", "is_admissible_symbol"),
    ("cli", "parse_config"), ("cli", "resolve_function"), ("cli", "run"),
)

# Per-layer metrics, in report order: (name, unit, better).
PER_LAYER = (
    [(f"numerics.golden_max.{m}", u, "lower") for m, u in
     (("calls", "count"), ("objective_calls", "count"), ("self_s", "s"))]
    + [(f"numerics.sup_search.{m}", u, "lower") for m, u in
       (("calls", "count"), ("objective_points", "count"), ("self_s", "s"))]
    + [(f"numerics.{fn}.{m}", u, "lower") for fn in ("gl_panel", "gl_panel_columns")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("extremal.seminorms_per_map", "count", "lower")]
    + [(f"extremal.lipschitz_scan.{m}", u, "lower") for m, u in
       (("calls", "count"), ("pairs", "count"), ("self_s", "s"))]
    + [("extremal.random_normalized_corpus.self_s", "s", "lower")]
    + [(f"core.{method}.{m}", u, "lower") for method in ("eval", "deriv")
       for m, u in (("calls", "count"), ("points", "count"), ("self_s", "s"))]
    + [("core.points_per_call", "count", "higher"),
       ("core.scalar_calls", "count", "lower")]
    + [(f"core.{kind}.{m}", u, "lower") for kind in KINDS
       for m, u in (("points", "count"), ("self_s", "s"))]
    + [(f"core.lambda_f.{m}", u, "lower") for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"norms.hardy_mean.{m}", u, "lower") for m, u in
       (("calls", "count"), ("nodes", "count"), ("nodes_per_call", "count"), ("self_s", "s"))]
    + [(f"norms.hardy_norm.{m}", u, "lower") for m, u in
       (("calls", "count"), ("rungs", "count"), ("self_s", "s"))]
    + [(f"norms.bloch_seminorm.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"))]
    + [(f"norms.g_function.{m}", u, "lower") for m, u in
       (("calls", "count"), ("panels", "count"), ("self_s", "s"))]
    + [(f"norms.g_norm_check.{m}", u, "lower") for m, u in
       (("calls", "count"), ("self_s", "s"))]
    + [(f"compop.bounded_below_probe.{m}", u, "lower") for m, u in
       (("calls", "count"), ("targets", "count"), ("self_s", "s"))]
    + [(f"compop.{fn}.{m}", u, "lower")
       for fn in ("bloch_to_hardy_criterion", "hardy_to_bloch_verdict", "is_admissible_symbol")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"cli.{fn}.self_s", "s", "lower")
       for fn in ("parse_config", "resolve_function", "run", "report_json")]
    + [("trace_overhead", "ratio", "lower")]
)


def _points(z):
    return z.size if isinstance(z, np.ndarray) else 1


class Tracer:
    """Span aggregation for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.child_calls = Counter()     # (parent span, child span) -> calls
        self.points = Counter()          # span name -> points evaluated
        self.counts = Counter()          # named boundary counts
        self._stack = []                 # open spans: [name, child seconds]
        self._restore = []               # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stack, calls, self_s, child_calls = (self._stack, self.calls, self.self_s,
                                             self.child_calls)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if before is not None:
                args = before(self, parent, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                child_calls[(parent, name)] += 1
            if after is not None:
                after(self, result)
            return result

        return wrapper

    # -- boundary counts ---------------------------------------------------

    @staticmethod
    def _count_objective(counter, args):
        objective = args[0]

        def counted(z):
            counter(z)
            return objective(z)

        return (counted,) + tuple(args[1:])

    def _golden_before(self, parent, args):
        def count(_z):
            self.counts["golden_objective_calls"] += 1
        return self._count_objective(count, args)

    def _sup_before(self, parent, args):
        def count(z):
            self.counts["sup_objective_points"] += int(np.size(z))
        return self._count_objective(count, args)

    def _method_before(self, method, kind):
        key = f"{method}:{kind}"

        def before(tracer, parent, args):
            z = args[1]
            n = _points(z)
            tracer.points[key] += n
            if not (isinstance(z, np.ndarray) and z.ndim > 0):
                tracer.counts["scalar_calls"] += 1
            if parent == "norms.hardy_mean":
                tracer.counts["hardy_nodes"] += n
            return args

        return before

    def _scan_after(self, report):
        self.counts["scan_pairs"] += report.pairs_evaluated

    def _probe_after(self, report):
        self.counts["probe_targets"] += report.samples

    # -- install / uninstall -----------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, lib):
        """Wrap every binding of the traced functions in the loaded package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {
            "numerics.golden_max": (Tracer._golden_before, None),
            "numerics.sup_search": (Tracer._sup_before, None),
            "extremal.lipschitz_scan": (None, Tracer._scan_after),
            "compop.bounded_below_probe": (None, Tracer._probe_after),
        }
        modules = list(vars(lib).values())
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(getattr(lib, mod_name), fn_name)
            name = f"{mod_name}.{fn_name}"
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        self._replace(lib.cli.Report, "to_json",
                      self._wrap("cli.report_json", lib.cli.Report.to_json))
        for cls in _subclasses(lib.core.AnalyticMap):
            for method in ("eval", "deriv"):
                if method in vars(cls):
                    self._replace(cls, method, self._wrap(
                        f"core.{method}:{cls.kind}", vars(cls)[method],
                        self._method_before(method, cls.kind)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- metrics -----------------------------------------------------------

    def metrics(self, maps: int, trace_overhead: float) -> dict:
        """Per-layer metrics; ``maps`` is the number of lipschitz-sweep maps."""
        c, s = self.calls, self.self_s
        out = {
            "numerics.golden_max.calls": c["numerics.golden_max"],
            "numerics.golden_max.objective_calls": self.counts["golden_objective_calls"],
            "numerics.golden_max.self_s": s["numerics.golden_max"],
            "numerics.sup_search.calls": c["numerics.sup_search"],
            "numerics.sup_search.objective_points": self.counts["sup_objective_points"],
            "numerics.sup_search.self_s": s["numerics.sup_search"],
        }
        for fn in ("gl_panel", "gl_panel_columns"):
            out[f"numerics.{fn}.calls"] = c[f"numerics.{fn}"]
            out[f"numerics.{fn}.self_s"] = s[f"numerics.{fn}"]
        out["extremal.seminorms_per_map"] = c["norms.bloch_seminorm"] / maps if maps else 0.0
        out["extremal.lipschitz_scan.calls"] = c["extremal.lipschitz_scan"]
        out["extremal.lipschitz_scan.pairs"] = self.counts["scan_pairs"]
        out["extremal.lipschitz_scan.self_s"] = s["extremal.lipschitz_scan"]
        out["extremal.random_normalized_corpus.self_s"] = s["extremal.random_normalized_corpus"]
        total_calls = total_points = 0
        for method in ("eval", "deriv"):
            names = [f"core.{method}:{kind}" for kind in KINDS]
            calls = sum(c[n] for n in names)
            points = sum(self.points[f"{method}:{kind}"] for kind in KINDS)
            out[f"core.{method}.calls"] = calls
            out[f"core.{method}.points"] = points
            out[f"core.{method}.self_s"] = sum(s[n] for n in names)
            total_calls += calls
            total_points += points
        out["core.points_per_call"] = total_points / total_calls if total_calls else 0.0
        out["core.scalar_calls"] = self.counts["scalar_calls"]
        for kind in KINDS:
            out[f"core.{kind}.points"] = (self.points[f"eval:{kind}"]
                                          + self.points[f"deriv:{kind}"])
            out[f"core.{kind}.self_s"] = s[f"core.eval:{kind}"] + s[f"core.deriv:{kind}"]
        out["core.lambda_f.calls"] = c["core.lambda_f"]
        out["core.lambda_f.self_s"] = s["core.lambda_f"]
        hm_calls = c["norms.hardy_mean"]
        out["norms.hardy_mean.calls"] = hm_calls
        out["norms.hardy_mean.nodes"] = self.counts["hardy_nodes"]
        out["norms.hardy_mean.nodes_per_call"] = (self.counts["hardy_nodes"] / hm_calls
                                                  if hm_calls else 0.0)
        out["norms.hardy_mean.self_s"] = s["norms.hardy_mean"]
        out["norms.hardy_norm.calls"] = c["norms.hardy_norm"]
        out["norms.hardy_norm.rungs"] = self.child_calls[("norms.hardy_norm", "norms.hardy_mean")]
        out["norms.hardy_norm.self_s"] = s["norms.hardy_norm"]
        out["norms.bloch_seminorm.calls"] = c["norms.bloch_seminorm"]
        out["norms.bloch_seminorm.self_s"] = s["norms.bloch_seminorm"]
        out["norms.g_function.calls"] = c["norms.g_function"]
        out["norms.g_function.panels"] = self.child_calls[("norms.g_function", "numerics.gl_panel")]
        out["norms.g_function.self_s"] = s["norms.g_function"]
        out["norms.g_norm_check.calls"] = c["norms.g_norm_check"]
        out["norms.g_norm_check.self_s"] = s["norms.g_norm_check"]
        out["compop.bounded_below_probe.calls"] = c["compop.bounded_below_probe"]
        out["compop.bounded_below_probe.targets"] = self.counts["probe_targets"]
        out["compop.bounded_below_probe.self_s"] = s["compop.bounded_below_probe"]
        for fn in ("bloch_to_hardy_criterion", "hardy_to_bloch_verdict", "is_admissible_symbol"):
            out[f"compop.{fn}.calls"] = c[f"compop.{fn}"]
            out[f"compop.{fn}.self_s"] = s[f"compop.{fn}"]
        for fn in ("parse_config", "resolve_function", "run", "report_json"):
            out[f"cli.{fn}.self_s"] = s[f"cli.{fn}"]
        out["trace_overhead"] = trace_overhead
        return out


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
