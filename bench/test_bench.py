"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace=False, seconds=0.3, seed=5):
    out = io.StringIO()
    result = harness.run(name, seed, seconds, trace, out=out)
    text = out.getvalue()
    assert json.loads(text.strip().splitlines()[-1]) == result
    return result, text


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_prints_every_metric_with_its_unit(name):
    result, text = _run(name)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m for m, _ in harness.END_TO_END}
    for metric, unit in harness.END_TO_END:
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
        assert any(line.split()[:1] == [metric] and unit in line.split()
                   for line in text.splitlines())
    assert "error_rate" in text


def test_wrong_reference_raises_error_rate(monkeypatch):
    _, clean = _run("pointwise-loops")
    assert '"error_rate": 0.0' in clean
    monkeypatch.setattr(references, "probe_implied_constant", lambda r, eps: -1.0)
    result, _ = _run("pointwise-loops")
    assert result["failed"] > 0
    assert not result["correct"]


def test_known_defect_counts_in_error_rate_not_in_failed(monkeypatch):
    monkeypatch.setattr(references, "probe_implied_constant", lambda r, eps: -1.0)
    monkeypatch.setattr(workloads.PointwiseLoops, "known_defect",
                        lambda self, spec, outcome: "stub defect")
    result, text = _run("pointwise-loops")
    detail = json.loads(text.strip().splitlines()[-2])
    assert result["correct"] and result["failed"] == 0
    assert detail["error_rate"] > 0
    assert detail["failed_by_known_defect"]["stub defect"] > 0


def test_differing_repeat_counts_as_failed(monkeypatch):
    calls = iter(range(10 ** 9))
    original = workloads.VerdictMix.run

    def drifting(self, lib, spec):  # same JSON, different bytes on every call
        return original(self, lib, spec) + " " * (next(calls) % 2)

    monkeypatch.setattr(workloads.VerdictMix, "run", drifting)
    result, text = _run("verdict-mix", seconds=1.0)
    assert "repeated report bytes differ" in text
    assert not result["correct"]


def _report(verdict, value):
    return workloads.Outcome(value=json.dumps({"result": {"verdict": verdict, "value": value}}))


_HARDY = {"cmd": "hardy-norm", "func": "monomial:5", "p": 2.0, "ref": {"norm": 1.0}}
_MOBIUS = {"cmd": "bloch-seminorm", "func": "mobius:0.899000,0.000000",
           "ref": {"seminorm": 1.0, "abs": 1e-5}}


@pytest.mark.parametrize("spec, outcome, explained", [
    (dict(_HARDY, plan_j=1), workloads.Outcome(error=IndexError("list index")), True),
    (dict(_HARDY, plan_j=1), workloads.Outcome(error=ValueError("bad")), False),
    (dict(_HARDY, plan_j=3), _report("finite", -0.579), True),
    (dict(_HARDY, plan_j=3), _report("finite", float("nan")), False),
    (dict(_HARDY, plan_j=12), _report("finite", 1.0002), True),
    (dict(_HARDY, plan_j=12), _report("finite", 1.01), False),
    (dict(_HARDY, plan_j=12), _report("finite", 0.99), False),
    (dict(_HARDY, plan_j=12), _report("infinite", None), True),
    (_MOBIUS, _report("finite", 0.99998), True),
    (_MOBIUS, _report("finite", 0.999), False),
    (_MOBIUS, _report("infinite", None), False),
])
def test_known_defects_match_only_their_signature(spec, outcome, explained):
    defect = workloads.WORKLOADS["verdict-mix"].known_defect(spec, outcome)
    assert (defect is not None) == explained


def _bindings(lib):
    snapshot = {}
    for module in vars(lib).values():
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
    for cls in [lib.core.AnalyticMap] + tracing._subclasses(lib.core.AnalyticMap):
        for attr in ("eval", "deriv"):
            snapshot[(cls.__qualname__, attr)] = vars(cls).get(attr)
    snapshot[("Report", "to_json")] = vars(lib.cli.Report)["to_json"]
    return snapshot


def test_tracer_wraps_every_binding_and_restores_them():
    lib = harness.load_library()
    before = _bindings(lib)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(lib)
        assert lib.norms.sup_search is lib.compop.sup_search is lib.numerics.sup_search
        assert lib.numerics.sup_search.__wrapped__ is before[("blochdisk.numerics", "sup_search")]
        assert hasattr(lib.extremal.bloch_seminorm, "__wrapped__")
        assert hasattr(vars(lib.extremal.QuadraticExtremal)["deriv"], "__wrapped__")
    after = _bindings(lib)
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_results_equal_untraced_results(name):
    result, text = _run(name, trace=True, seconds=0.5)
    assert result["correct"], text
    metrics = result["metrics"]
    assert [m for m in metrics] == [m for m, _, _ in tracing.PER_LAYER]
    assert metrics["trace_overhead"]["value"] > 0
    if name == "lipschitz-sweep":
        assert metrics["extremal.seminorms_per_map"]["value"] == 2.0
        assert metrics["numerics.golden_max.calls"]["value"] > 0
    if name == "pointwise-loops":
        assert metrics["norms.g_function.panels"]["value"] > 0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
