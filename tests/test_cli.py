"""Descriptors, catalog, CLI parsing/dispatch, and report determinism."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochdisk
import blochdisk.descriptors
from blochdisk import (AnalyticMap, AntiderivativeExtremal, Blaschke, BlochDiskError,
                       DescriptorError, Mobius, ParameterRangeError, Polynomial,
                       PowerKernel, QuadraticExtremal, SamplingPlan, ScaledIdentity,
                       analytic_from_descriptor, compose, descriptor_of,
                       descriptor_of_harmonic, harmonic_from_descriptor)
from blochdisk.cli import (_COMMANDS, _PLAN_SETTINGS, _UNREAD, CatalogError, RunConfig,
                           _build_parser, _write_json, catalog, catalog_note, main,
                           parse_complex, parse_config, resolve_function, run)
from blochdisk.core import Composed

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
_KINDS = ("polynomial", "mobius", "blaschke", "scaled-identity", "power-kernel",
          "antiderivative-extremal", "quadratic-extremal", "entire")
_FIELDS = ("coefficients", "a", "factors", "rotation", "c", "b", "p", "beta")
_ANALYTIC_DOCS = st.builds(
    lambda kind, fields: {"kind": kind, **fields}, st.sampled_from(_KINDS),
    st.dictionaries(st.sampled_from(_FIELDS),
                    _JSON | st.lists(st.floats(-2, 2), max_size=3)
                    | st.lists(st.lists(st.floats(-2, 2), max_size=3), max_size=3),
                    max_size=3))
_DOCS = _ANALYTIC_DOCS | _JSON.filter(lambda v: isinstance(v, dict)) | st.builds(
    lambda h, g: {"h": h, "g": g}, _ANALYTIC_DOCS | _JSON, _ANALYTIC_DOCS | _JSON)


class TestDescriptors:
    @pytest.mark.parametrize("doc", [
        {"kind": "polynomial", "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
        {"kind": "mobius", "a": [0.3, -0.2]},
        {"kind": "blaschke", "factors": [[0.3, 0.0], [0.0, 0.5]],
         "rotation": [0.0, 1.0]},
        {"kind": "scaled-identity", "c": [0.5, 0.0]},
        {"kind": "power-kernel", "b": [0.9, 0.0], "p": 2.0},
        {"kind": "antiderivative-extremal", "beta": 0.49012},
        {"kind": "quadratic-extremal"},
    ])
    def test_round_trip(self, doc):
        assert descriptor_of(analytic_from_descriptor(doc)) == doc

    def test_harmonic_round_trip(self):
        doc = {"h": {"kind": "polynomial", "coefficients": [[1.0, 0.0], [0.0, 1.0]]},
               "g": {"kind": "polynomial", "coefficients": [[0.0, 0.0], [0.5, 0.0]]}}
        assert descriptor_of_harmonic(harmonic_from_descriptor(doc)) == doc

    def test_rejects_nonvanishing_g(self):
        doc = {"h": {"kind": "polynomial", "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
               "g": {"kind": "polynomial", "coefficients": [[0.5, 0.0]]}}
        with pytest.raises(ValueError):
            harmonic_from_descriptor(doc)

    def test_every_kind_has_a_row_and_round_trips(self):
        modules = [importlib.import_module(f"blochdisk.{m.name}")
                   for m in pkgutil.iter_modules(blochdisk.__path__)]
        kinds = {cls for module in modules for cls in vars(module).values()
                 if isinstance(cls, type) and issubclass(cls, AnalyticMap)
                 and cls.__module__ == module.__name__} - {AnalyticMap, Composed}
        maps = [Polynomial((1, 2j, -0.5)), Mobius(0.3 - 0.2j), Blaschke((0.3, 0.5j), 1j),
                ScaledIdentity(0.5j), PowerKernel(-0.4j, 3.0), AntiderivativeExtremal(0.3),
                QuadraticExtremal()]
        assert kinds == set(blochdisk.descriptors._KINDS) == {type(f) for f in maps}
        for f in maps:
            assert analytic_from_descriptor(descriptor_of(f)) == f

    def test_composed_map_has_no_descriptor_form(self):
        f = harmonic_from_descriptor(
            {"h": {"kind": "polynomial", "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
             "g": {"kind": "polynomial", "coefficients": [[0.0, 0.0], [0.5, 0.0]]}})
        pair = compose(f, Mobius(0.3))
        for part in (pair.h, pair.g):
            with pytest.raises(DescriptorError, match="Composed has no descriptor form"):
                descriptor_of(part)
        with pytest.raises(DescriptorError, match="Composed has no descriptor form"):
            descriptor_of_harmonic(pair)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            analytic_from_descriptor({"kind": "entire"})

    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    def test_fuzzed_documents_raise_only_toolkit_errors(self, doc):
        try:
            resolve_function(json.dumps(doc))
        except BlochDiskError:
            pass


class TestCatalog:
    def test_eta(self):
        assert catalog("eta") == {"kind": "quadratic-extremal"}
        assert "1/sqrt(3)" in catalog_note("eta")

    def test_identity(self):
        doc = catalog("identity")
        f = analytic_from_descriptor(doc)
        assert isinstance(f, Polynomial)
        assert f.eval(0.25j) == 0.25j

    def test_parametrized_entries(self):
        assert catalog("f-beta:0.49012")["beta"] == 0.49012
        assert catalog("kernel:0.9:2") == \
            {"kind": "power-kernel", "b": [0.9, 0.0], "p": 2.0}
        assert isinstance(analytic_from_descriptor(catalog("mobius:0.3")), Mobius)
        mono = analytic_from_descriptor(catalog("monomial:3"))
        assert mono.eval(0.5) == pytest.approx(0.125)

    def test_unknown_name_lists_entries(self, capsys):
        with pytest.raises(CatalogError) as err:
            catalog("does-not-exist")
        assert "eta" in str(err.value)
        assert str(err.value).startswith("unknown catalog name 'does-not-exist'; available: ")
        assert main(["catalog", "does-not-exist"]) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_round_trip_catalog_entries(self):
        for name in ("eta", "identity", "half-identity", "f-beta:0.3",
                     "mobius:0.25,0.1", "kernel:0.5:2", "monomial:4"):
            doc = catalog(name)
            assert descriptor_of(analytic_from_descriptor(doc)) == doc


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("0.5,0") == 0.5
        assert parse_complex("-0.5,0.25") == complex(-0.5, 0.25)
        assert parse_complex("0.3") == 0.3
        with pytest.raises(ParameterRangeError, match="cannot parse complex value"):
            parse_complex("1,2,3")
        with pytest.raises(ParameterRangeError, match="could not convert string to float"):
            parse_complex("abc,0")

    def test_metric_config(self):
        config = parse_config(["metric", "--z", "0.5,0", "--w", "-0.5,0"])
        assert config.command == "metric"
        assert config.params["z"] == "0.5,0"

    def test_range_error_probe_radius(self):
        with pytest.raises(ParameterRangeError):
            parse_config(["bounded-below-probe", "--phi", "identity",
                          "--r", "0.5", "--epsilon", "0.5"])

    def test_range_error_alpha(self):
        with pytest.raises(ParameterRangeError):
            parse_config(["bloch-seminorm", "--func", "eta", "--alpha", "0"])

    def test_unknown_flag(self):
        with pytest.raises(ParameterRangeError):
            parse_config(["metric", "--z", "0,0", "--w", "0.1,0", "--bogus", "1"])


_EMPTY_BLASCHKE = '{"kind": "blaschke", "factors": []}'

# All eleven subcommands, twice each: first with flags that set the seed, the
# plan, the outputs, timing or the command's own options (one as --flag=value,
# one abbreviated), then without them, so a value leaking from one call into
# the next shows in the second.
_MIXED = [
    ["metric", "--z", "0.5,0", "--w", "0,0", "--timing"],
    ["metric", "--z", "0.5,0", "--w", "0,0"],
    ["hardy-norm", "--func", "monomial:3", "--p", "2", "--plan-j", "8", "--tol", "1e-8"],
    ["bloch-seminorm", "--func", "eta", "--alpha=2", "--omega", "pow:0.5"],
    ["hardy-norm", "--func", "monomial:3", "--p", "2"],
    ["bloch-seminorm", "--func", "eta"],
    ["gfunction", "--func", "identity", "--angle", "0.5", "--angular", "64", "--timing"],
    ["gfunction", "--func", "identity", "--angle", "0.5"],
    ["lipschitz-scan", "--func", "eta", "--pairs", "300", "--seed", "12", "--timing"],
    ["lipschitz-scan", "--func", "eta", "--pairs", "300"],
    ["sharpness-witness", "--epsilon", "0.1", "--out", "report.json"],
    ["sharpness-witness", "--epsilon", "0.1"],
    ["extremal-root", "--r0", "0.5", "--alpha", "3"],
    ["extremal-root", "--r0", "0.5"],
    ["compop-criterion", "--phi", "half-identity", "--p", "3", "--beta", "0.5"],
    ["compop-verdict", "--phi", "identity", "--plan-j", "4", "--angular", "32"],
    ["compop-criterion", "--phi", "half-identity"],
    ["compop-verdict", "--phi", "identity"],
    ["bounded-below-probe", "--phi", "mobius:0.2", "--r", "0.2", "--epsilon", "0.5",
     "--sam", "30", "--csv", "rows.csv"],
    ["bounded-below-probe", "--phi", "mobius:0.2", "--r", "0.2", "--epsilon", "0.5"],
    ["catalog", "eta", "--out", "a.json", "--csv", "rows.csv"],
    ["catalog", "eta"],
]


class TestParserReuse:
    def test_mixed_sequence_matches_fresh_parsers(self):
        assert len({argv[0] for argv in _MIXED}) == 11
        _build_parser.cache_clear()
        reused = [parse_config(list(argv)) for argv in _MIXED]
        fresh = []
        for argv in _MIXED:
            _build_parser.cache_clear()
            fresh.append(parse_config(list(argv)))
        assert reused == fresh
        # nothing a flag set survives into the next call
        assert [c.timing for c in reused[:2]] == [True, False]
        assert reused[2].plan == SamplingPlan(refinement_tol=1e-8)
        assert reused[4].plan == SamplingPlan() and "unread" not in reused[2].params
        assert reused[3].params == {"func": "eta", "alpha": 2.0, "beta": 0.0, "omega": "pow:0.5"}
        assert reused[5].params == {"func": "eta", "alpha": 1.0, "beta": 0.0, "omega": "id"}
        assert not reused[7].timing and reused[7].plan == SamplingPlan()
        assert reused[9].params["seed"] == 0 and not reused[9].timing
        assert reused[10].out == "report.json" and reused[11].out is None
        assert reused[13].params["alpha"] == 1.0
        assert reused[16].params["p"] == 2.0 and reused[16].params["beta"] == 0.0
        assert reused[17].plan == SamplingPlan()
        assert reused[18].params["samples"] == 30 and reused[18].csv_path == "rows.csv"
        assert reused[19].params["samples"] == 100 and reused[19].csv_path is None
        assert reused[21].out is None and reused[21].csv_path is None

    def test_parser_is_built_once(self):
        _build_parser.cache_clear()
        for i in range(50):
            parse_config(list(_MIXED[i % len(_MIXED)]))
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    @pytest.mark.parametrize("argv,message", [
        (["bloch-seminorm", "--func", "eta", "--alpha", "0"], "--alpha must be positive, got 0.0"),
        (["hardy-norm", "--func", "eta", "--p", "-1"], "--p must be positive, got -1.0"),
        (["compop-criterion", "--phi", "identity", "--alpha", "-1", "--p", "0"],
         "--alpha must be positive, got -1.0"),
        (["compop-verdict", "--phi", "identity", "--p", "1"], "--p must exceed 1, got 1.0"),
        (["bounded-below-probe", "--phi", "identity", "--r", "0.5", "--epsilon", "0.5"],
         "--r must lie in (0, 0.3849001795), got 0.5"),
        (["bounded-below-probe", "--phi", "identity", "--r", "0.1", "--epsilon", "0"],
         "--epsilon must be positive, got 0.0"),
        (["bounded-below-probe", "--phi", "identity", "--r", "0.1", "--epsilon", "1",
          "--samples", "0"], "--samples must be >= 1"),
        (["sharpness-witness", "--epsilon", "3"], "--epsilon must lie in (0, 2.598076211], got 3.0"),
        (["extremal-root", "--r0", "0.5", "--alpha", "0"], "--alpha must be positive, got 0.0"),
        (["extremal-root", "--r0", "1.5"], "--r0 must lie in (0, 1], got 1.5"),
        (["lipschitz-scan", "--func", "eta", "--pairs", "0"], "--pairs must be >= 1"),
    ])
    def test_range_messages(self, argv, message):
        with pytest.raises(ParameterRangeError) as err:
            parse_config(argv)
        assert str(err.value) == message


def _top_level_config(argv) -> RunConfig:
    """The config the top-level parser gives ``argv``: the route every argv
    took before a command's argv went straight to its own subparser."""
    params = vars(_build_parser().parse_args(argv))
    command, out, csv_path, timing = (params.pop(k) for k in
                                      ("command", "out", "csv_path", "timing"))
    params.pop("unread", None)
    plan = SamplingPlan(**{_PLAN_SETTINGS[name][0]: params.pop(name)
                           for name in _PLAN_SETTINGS if name in params})
    return RunConfig(command, params, plan, out, csv_path, timing)


class TestParseDispatch:
    @pytest.mark.parametrize("argv", _MIXED, ids=lambda argv: " ".join(argv))
    def test_same_config_as_the_top_level_parser(self, argv):
        given_argv = list(argv)
        assert parse_config(given_argv) == _top_level_config(list(argv))
        assert given_argv == argv

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["metric", "--z", "0.5,0", "--w", "0,0", "extra"], "unrecognized arguments: extra"),
        (["metric", "--z", "0.5,0"], "the following arguments are required: --w"),
        (["bloch-seminorm", "--func", "eta", "--alpha", "abc"],
         "argument --alpha: invalid float value: 'abc'"),
        (["hardy-norm", "--func", "eta", "--p", "2", "--sam", "30"],
         "unrecognized arguments: --sam 30"),
        (["bounded-below-probe", "--phi", "identity", "--r", "0.1", "--epsilon", "1",
          "--s", "30"], "ambiguous option: --s could match --samples, --seed"),
        (["--timing", "metric", "--z", "0,0", "--w", "0,0"],
         "unrecognized arguments: --timing"),
    ], ids=["no-command", "unknown-command", "extra-argument", "missing-flag", "bad-type",
            "abbreviated-unknown-flag", "ambiguous-abbreviation", "option-before-command"])
    def test_same_error_as_the_top_level_parser(self, argv, message):
        with pytest.raises(ParameterRangeError) as top:
            _build_parser().parse_args(list(argv))
        with pytest.raises(ParameterRangeError) as ours:
            parse_config(list(argv))
        assert str(ours.value) == str(top.value)
        assert str(ours.value).startswith(message)

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[c, "-h"] for c in _COMMANDS],
                             ids=" ".join)
    def test_same_help_as_the_top_level_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as top:
            _build_parser().parse_args(list(argv))
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as ours:
            parse_config(list(argv))
        assert top.value.code == ours.value.code == 0
        assert capsys.readouterr() == expected
        assert expected.out.startswith(f"usage: {' '.join(['blochdisk', *argv[:-1]])} [-h]")


class _RecordingPlan(SamplingPlan):
    """A plan that records which of its fields are read between the end of
    its construction and ``describe``, which ``run`` calls after the library
    call."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "read", set())

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "__dict__").get("read")
        if isinstance(read, set) and name in SamplingPlan.__dataclass_fields__:
            read.add(name)
        return object.__getattribute__(self, name)

    def describe(self):
        object.__setattr__(self, "read", frozenset(self.read))
        return super().describe()


# One representative invocation per command, at its default plan.
_PLAN_AUDIT = {
    "metric": ["metric", "--z", "0.5,0", "--w", "0,0"],
    "hardy-norm": ["hardy-norm", "--func", "kernel:0.6:2", "--p", "2"],
    "bloch-seminorm": ["bloch-seminorm", "--func", "eta"],
    "gfunction": ["gfunction", "--func", "identity", "--angle", "0.5"],
    "lipschitz-scan": ["lipschitz-scan", "--func", "eta", "--pairs", "300"],
    "sharpness-witness": ["sharpness-witness", "--epsilon", "0.1"],
    "extremal-root": ["extremal-root", "--r0", "0.5"],
    "compop-criterion": ["compop-criterion", "--phi", "mobius:0.5", "--alpha", "0.95"],
    "compop-verdict": ["compop-verdict", "--phi", "identity", "--alpha", "1.55"],
    "bounded-below-probe": ["bounded-below-probe", "--phi", "mobius:0.2", "--r", "0.2",
                            "--epsilon", "0.5", "--samples", "20"],
    "catalog": ["catalog", "eta"],
}


class TestPlanSettings:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_each_setting_a_command_takes_is_read_unless_listed_unread(
            self, monkeypatch, command):
        monkeypatch.setattr("blochdisk.cli.SamplingPlan", _RecordingPlan)
        config = parse_config(_PLAN_AUDIT[command])
        run(config)
        setting_of = {plan_field: name for name, (plan_field, _, _) in _PLAN_SETTINGS.items()}
        read = {setting_of[plan_field] for plan_field in config.plan.read}
        takes = set(vars(_build_parser().parse_args(_PLAN_AUDIT[command])))
        takes &= set(_PLAN_SETTINGS)
        assert takes == set(_COMMANDS[command].plan) <= read
        # an unread flag is no plan setting of its command, and never reaches
        # the plan or the parameters
        unread = _UNREAD.get(command, ())
        assert not set(unread) & {_PLAN_SETTINGS[name][1] for name in takes}
        flagged = parse_config(_PLAN_AUDIT[command] + [x for f in unread for x in (f, "16")])
        assert flagged.plan.describe() == blochdisk.DEFAULT_PLAN.describe()
        assert flagged.params == config.params

    def test_seed_only_where_a_call_draws(self):
        assert set(_PLAN_AUDIT) == set(_COMMANDS)
        assert {c for c, argv in _PLAN_AUDIT.items()
                if "seed" in vars(_build_parser().parse_args(argv))} == \
            {"lipschitz-scan", "bounded-below-probe"}


class TestRun:
    def test_metric_values(self):
        report = run(parse_config(["metric", "--z", "0.5,0", "--w", "-0.5,0"]))
        assert report.result["rho"] == pytest.approx(0.8)
        assert report.result["sigma"] == pytest.approx(math.atanh(0.8), abs=1e-12)
        assert report.exit_status == 0

    def test_seminorm_eta(self):
        report = run(parse_config(["bloch-seminorm", "--func", "eta"]))
        assert report.result["value"] == pytest.approx(1.0, abs=1e-6)
        assert report.result["verdict"] == "finite"

    def test_witness(self):
        report = run(parse_config(["sharpness-witness", "--epsilon", "0.1"]))
        assert report.result["achieved_ratio"] == \
            pytest.approx(1.5 * math.sqrt(3) - 0.1, abs=1e-9)

    def test_criterion_identity_divergent(self):
        report = run(parse_config(["compop-criterion", "--phi", "identity",
                                   "--p", "2"]))
        assert report.result["verdict"] == "divergent"
        assert report.exit_status == 0
        assert len(report.evidence) == 21

    def test_verdict_half(self):
        report = run(parse_config(["compop-verdict", "--phi", "half-identity",
                                   "--p", "2"]))
        assert report.result["verdict"] == "vacuously-compact"

    def test_probe(self):
        report = run(parse_config(["bounded-below-probe", "--phi", "mobius:0.3",
                                   "--r", "0.2", "--epsilon", "0.5",
                                   "--samples", "25", "--seed", "3"]))
        assert report.result["fraction"] == 1.0

    def test_hardy_norm_kernel(self):
        report = run(parse_config(["hardy-norm", "--func", "kernel:0.6:2",
                                   "--p", "2"]))
        assert report.result["value"] == pytest.approx(1.0, abs=1e-5)

    def test_gfunction(self):
        report = run(parse_config(["gfunction", "--func", "identity",
                                   "--angle", "0.0"]))
        assert report.result["value"] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_extremal_root(self):
        report = run(parse_config(["extremal-root", "--r0", "1", "--alpha", "1"]))
        assert report.result["m"] == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_lipschitz_scan_inline_json(self):
        doc = json.dumps({"kind": "polynomial",
                          "coefficients": [[0.0, 0.0], [1.0, 0.0]]})
        report = run(parse_config(["lipschitz-scan", "--func", doc,
                                   "--pairs", "500", "--seed", "9"]))
        assert report.result["cap_ok"] is True

    def test_catalog_command(self):
        report = run(parse_config(["catalog", "eta"]))
        assert report.result["descriptor"] == {"kind": "quadratic-extremal"}
        assert report.result["note"]

    def test_harmonic_descriptor_file(self, tmp_path):
        doc = {"h": {"kind": "polynomial", "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
               "g": {"kind": "polynomial", "coefficients": [[0.0, 0.0], [0.5, 0.0]]}}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        report = run(parse_config(["bloch-seminorm", "--func", str(path)]))
        # Lambda = 1.5 everywhere, so the supremum of 1.5(1-|z|^2) is 1.5
        assert report.result["value"] == pytest.approx(1.5, abs=1e-9)


class TestDeterminism:
    def test_byte_identical_reports(self):
        argv = ["lipschitz-scan", "--func", "eta", "--pairs", "1000",
                "--seed", "11"]
        first = run(parse_config(argv)).to_json()
        second = run(parse_config(argv)).to_json()
        assert first == second

    def test_timing_is_opt_in(self):
        report = run(parse_config(["metric", "--z", "0,0", "--w", "0.1,0"]))
        assert "wall_clock_seconds" not in json.loads(report.to_json())
        report = run(parse_config(["metric", "--z", "0,0", "--w", "0.1,0",
                                   "--timing"]))
        assert "wall_clock_seconds" in json.loads(report.to_json())


def _report_text(obj) -> str:
    out = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _round15(obj):
    """The report writer's reference: round every float to 15 significant
    digits, recursively, for ``json.dumps(..., indent=2)`` to write."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "infinite" if obj > 0 else "-infinite"
        rounded = float(f"{obj:.15g}")
        # past 1.797693134862315e308 the rounding overflows: written unrounded
        return rounded if math.isfinite(rounded) else obj
    if isinstance(obj, complex):
        return [_round15(obj.real), _round15(obj.imag)]
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


_SPECIAL_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
    1e16, 1e15, 1e-5, 1e-4, 0.1, 1 / 3, 123456789012345678.0, 1.7976931348623157e308])
_FLOATS = st.floats() | _SPECIAL_FLOATS
_TEXT = st.text(st.sampled_from('"\\/\x00\x07\x1f\x7f\b\f\n\r\t aZé€\u2028😀')
                | st.characters(), max_size=8)
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
    | st.builds(complex, _FLOATS, _FLOATS),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


class TestReportWriter:
    """The one-pass writer against the rounding walk plus json.dumps(indent=2)."""

    @settings(max_examples=500, deadline=None)
    @given(_REPORT_VALUES)
    def test_same_text_as_round_then_dumps(self, doc):
        assert _report_text(doc) == json.dumps(_round15(doc), indent=2)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.none() | st.booleans() | st.integers() | _FLOATS,
                           _REPORT_VALUES, max_size=4))
    def test_keys_that_are_not_strings(self, doc):
        # json writes them unrounded: NaN, Infinity, 1.0, true, null
        assert _report_text(doc) == json.dumps(_round15(doc), indent=2)

    @pytest.mark.parametrize("doc", [
        {"x": np.int64(3)}, [1, {"y": {2, 3}}], object(), {(1, 2): 0}, {"z": [np.arange(2)]}])
    def test_type_error_as_json(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(_round15(doc), indent=2)
        with pytest.raises(TypeError) as got:
            _report_text(doc)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("argv", _MIXED, ids=lambda argv: " ".join(argv))
    def test_reports_of_every_command(self, argv):
        report = run(parse_config(list(argv)))
        doc = {"command": report.command, "parameters": _round15(report.parameters),
               "result": _round15(report.result), "evidence": _round15(report.evidence),
               "plan": _round15(report.plan), "version": report.version}
        if report.wall_clock is not None:
            doc["wall_clock_seconds"] = round(report.wall_clock, 3)
        assert report.to_json() == json.dumps(doc, indent=2)


class TestMain:
    def test_exit_zero_and_stdout(self, capsys):
        code = main(["metric", "--z", "0.5,0", "--w", "-0.5,0"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["rho"] == 0.8

    def test_exit_one_on_range_error(self, capsys):
        code = main(["bounded-below-probe", "--phi", "identity",
                     "--r", "0.5", "--epsilon", "0.5"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_exit_one_on_unknown_catalog(self, capsys):
        code = main(["bloch-seminorm", "--func", "nope"])
        assert code == 1

    @pytest.mark.parametrize("doc,field", [
        ('{"kind": "mobius"}', "'a'"),
        ('{"kind": "mobius", "a": 5}', "'a'"),
        ('{"kind": "polynomial", "coefficients": [[1.0]]}', "'coefficients'"),
    ])
    def test_exit_one_on_malformed_descriptor(self, capsys, doc, field):
        code = main(["bloch-seminorm", "--func", doc])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err

    def test_exit_one_on_broken_pipe(self, tmp_path, monkeypatch):
        target = open(tmp_path / "stdout", "w")

        class ClosedPipe:  # a reader that left, as in `catalog eta | head -c 10`
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        out = tmp_path / "report.json"
        try:
            code = main(["catalog", "eta", "--out", str(out)])
            assert code == 1
            # the file descriptor now points at devnull; the report is still written
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
            assert json.loads(out.read_text())["result"]["descriptor"] == \
                {"kind": "quadratic-extremal"}
        finally:
            target.close()

    @pytest.mark.parametrize("argv,message", [
        (["metric", "--z", "2,0", "--w", "0"], "point (2+0j) lies outside the open unit disk"),
        (["metric", "--z", "abc,0", "--w", "0"], "could not convert string to float: 'abc'"),
        (["bloch-seminorm", "--func", "eta", "--omega", "bogus"],
         "unknown majorant descriptor 'bogus'"),
        (["bloch-seminorm", "--func", "eta", "--omega", "pow:abc"],
         "could not convert string to float: 'abc'"),
        # omega(t)/t = t^(-2^-52) has no finite limit at 0
        (["compop-verdict", "--phi", "half-identity", "--omega", "pow:0.9999999999999998"],
         "majorant must have a finite limit of omega(t)/t at 0"),
        # a setting the command does not take
        (["metric", "--z", "0.5,0", "--w", "0,0", "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        (["catalog", "eta", "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        (["gfunction", "--func", "identity", "--angle", "0.5", "--plan-j", "3"],
         "unrecognized arguments: --plan-j 3"),
        (["bounded-below-probe", "--phi", "identity", "--r", "0.2", "--epsilon", "0.5",
          "--angular", "64"], "unrecognized arguments: --angular 64"),
        (["lipschitz-scan", "--func", "eta", "--plan-j", "3"],
         "unrecognized arguments: --plan-j 3"),
    ])
    def test_bad_points_and_names_are_typed(self, capsys, argv, message):
        with pytest.raises(ParameterRangeError) as err:
            run(parse_config(argv))
        assert str(err.value) == message
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name,message", [
        ("f-beta:2", "beta must lie in (0, 1], got 2.0"),
        ("mobius:2", "bad field 'a' in 'mobius' descriptor: "
                     "point (2+0j) lies outside the open unit disk"),
        ("kernel:0.5:-1", "power-kernel exponent requires p > 0"),
    ])
    def test_catalog_names_the_kind_refuses(self, capsys, name, message):
        assert catalog(name)  # the name parses; the kind refuses its argument
        with pytest.raises(CatalogError):
            run(parse_config(["catalog", name]))
        assert main(["catalog", name]) == 1
        assert capsys.readouterr().err == \
            f"error: bad catalog arguments in {name!r}: {message}\n"
        # a --func of the same name fails as before, with the kind's own error
        assert main(["hardy-norm", "--func", name, "--p", "2"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _report_with_unread(capsys, argv, flag, values):
        """The report of argv, which must have the same bytes with ``flag``
        at each of ``values``; returned parsed."""
        assert main(argv) == 0
        text = capsys.readouterr().out
        for value in values:
            assert main([*argv, flag, str(value)]) == 0
            assert capsys.readouterr().out == text, value
        return json.loads(text)

    # Every unread (command, flag) pair, each sent by the verdict-mix
    # benchmark deck, with the deck's values (--plan-j 1..24 but 20, --angular
    # 8..1024) and values past the bounds the flags once had.
    _UNREAD_CASES = [
        (["metric", "--z", "0.5,0", "--w", "0,0.3"], "--plan-j"),
        (["hardy-norm", "--func", "kernel:0.6:2", "--p", "2"], "--plan-j"),
        (["bloch-seminorm", "--func", "eta"], "--plan-j"),
        (["compop-criterion", "--phi", "identity"], "--plan-j"),
        (["compop-verdict", "--phi", "mobius:0.5", "--alpha", "1.5"], "--plan-j"),
        (["bloch-seminorm", "--func", "f-beta:0.5"], "--angular"),
        (["gfunction", "--func", "monomial:3", "--angle", "0.5"], "--angular"),
        (["compop-verdict", "--phi", "half-identity"], "--angular"),
    ]

    @pytest.mark.parametrize("argv,flag", _UNREAD_CASES,
                             ids=[f"{argv[0]}{flag[1:]}" for argv, flag in _UNREAD_CASES])
    def test_unread_flag_leaves_the_report_unchanged(self, capsys, argv, flag):
        assert {(a[0], f) for a, f in self._UNREAD_CASES} == \
            {(command, f) for command, flags in _UNREAD.items() for f in flags}
        values = (1, 3, 19, 21, 24, 54) if flag == "--plan-j" else (8, 1024, 100, 2 ** 21)
        self._report_with_unread(capsys, argv, flag, values)

    @pytest.mark.parametrize("func,p", [("monomial:5", "3"), ("kernel:0.3,0.6:1.5", "1.5"),
                                        ("eta", "0.5"), ("monomial:5", "inf")])
    def test_hardy_norm_does_not_depend_on_plan_j(self, capsys, func, p):
        doc = self._report_with_unread(capsys, ["hardy-norm", "--func", func, "--p", p],
                                       "--plan-j", (1, 24))
        # --p inf is the maximum of |z^5| on the unit circle
        value = doc["result"]["value"]
        if p == "inf":
            assert doc["evidence"] == [] and value == pytest.approx(1.0, rel=1e-15)
        else:
            assert doc["evidence"] == [[1.0, value]]

    @pytest.mark.parametrize("func,seminorm", [
        (["eta"], 1.0), (["f-beta:0.5", "--alpha", "2", "--beta", "1"], None),
        (["mobius:0.3,0.4"], 1.0), (["monomial:7"], 7 * 0.75 ** 3 * 0.25)],
        ids=["eta", "f-beta-alpha2-beta1", "mobius", "monomial7"])
    def test_bloch_seminorm_does_not_depend_on_plan_j(self, capsys, func, seminorm):
        doc = self._report_with_unread(capsys, ["bloch-seminorm", "--func", *func],
                                       "--plan-j", (1, 24))
        # the ridge rows are the 20 dyadic radii, written to 15 digits
        assert [r for r, _ in doc["evidence"]] == \
            [float(f"{1.0 - 2.0 ** -j:.15g}") for j in range(1, 21)]
        if seminorm is not None:
            assert doc["result"]["value"] == pytest.approx(seminorm, abs=1e-9)

    def test_automorphism_beyond_the_grid_exits_one(self, capsys):
        # |A| = 1 - 5e-7 lies past the outermost grid ring, 1 - 2^-20
        assert main(["bloch-seminorm", "--func", "mobius:0.9999995,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Bloch-type functional peaks on the outermost grid ring")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_exit_two_on_inconclusive(self, capsys, monkeypatch):
        import blochdisk.cli as cli_mod
        from blochdisk import CriterionReport

        def stub(phi, params, p, plan=None):
            return CriterionReport("inconclusive", None, ((4, 0.1), (5, 0.2)),
                                   {"contact": "undecided"})

        monkeypatch.setattr(cli_mod, "hardy_to_bloch_verdict", stub)
        code = main(["compop-verdict", "--phi", "half-identity", "--p", "2"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["verdict"] == "inconclusive"

    def test_overflowing_convergent_criterion_exits_two(self, capsys):
        # the contact rule says convergent, but 1/chi^2 overflows at alpha = 2000
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compop-criterion", "--phi", "half-identity", "--alpha", "2000"])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        result = json.loads(out)["result"]
        assert result["verdict"] == "inconclusive" and result["estimate"] is None
        assert json.loads(out)["evidence"][-1] == [24, "infinite"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_symbol_with_underflowing_weight_is_convergent(self, capsys):
        # phi' = 0 and omega(chi(0.9))^2 = 0.19^4000 underflows to 0: the
        # integrand is 0 there, not 0/0
        assert main(["compop-criterion", "--phi",
                     '{"kind":"polynomial","coefficients":[[0.9,0]]}', "--alpha", "2000"]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert err == "" and doc["result"]["verdict"] == "convergent"
        assert doc["result"]["estimate"] == 0.0
        assert [value for _, value in doc["evidence"]] == [0.0] * 21

    # Verdicts read from the contact and the exponents, each one that the
    # truncation-ladder heuristics got wrong or left inconclusive: argv,
    # verdict, exit status.
    _B2 = '{"kind": "blaschke", "factors": [[0.3, 0.1], [-0.5, 0.2]]}'
    _HALF_PLUS = '{"kind": "polynomial", "coefficients": [[0.5, 0], [0.5, 0]]}'

    @pytest.mark.parametrize("argv,verdict,status", [
        (["compop-criterion", "--phi", "identity", "--alpha", "0.95", "--p", "2"],
         "convergent", 0),
        (["compop-criterion", "--phi", "mobius:0.5", "--alpha", "0.95", "--p", "2"],
         "convergent", 0),
        (["compop-criterion", "--phi", _B2, "--alpha", "0.95", "--p", "2"], "convergent", 0),
        (["compop-criterion", "--phi", "identity", "--alpha", "0.99", "--p", "2"],
         "convergent", 0),
        (["compop-criterion", "--phi", "identity", "--p", "2", "--beta", "0.5"],
         "divergent", 0),
        (["compop-criterion", "--phi", "identity", "--p", "2", "--beta", "0.6"],
         "convergent", 0),
        (["compop-criterion", "--phi", "identity", "--p", "2", "--beta", "1"],
         "convergent", 0),
        (["compop-criterion", "--phi", "identity", "--alpha", "1.5", "--omega", "pow:0.5"],
         "convergent", 0),
        (["compop-criterion", "--phi", _HALF_PLUS, "--alpha", "1.2", "--p", "2"],
         "inconclusive", 2),
        (["compop-verdict", "--phi", "identity", "--alpha", "1.55", "--p", "2"], "compact", 0),
        (["compop-verdict", "--phi", "identity", "--alpha", "1.3", "--p", "4"], "compact", 0),
        (["compop-verdict", "--phi", "mobius:0.5", "--alpha", "1.3", "--p", "4"], "compact", 0),
        (["compop-verdict", "--phi", "identity", "--plan-j", "1"], "unbounded", 0),
    ])
    def test_verdict_from_contact(self, capsys, argv, verdict, status):
        assert main(argv) == status
        assert json.loads(capsys.readouterr().out)["result"]["verdict"] == verdict

    def test_unchanged_non_compact_estimate(self, capsys):
        assert main(["compop-verdict", "--phi", self._HALF_PLUS, "--alpha", "1.5",
                     "--p", "2"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "non-compact"
        assert result["estimate"] == 1.41421305669874
        assert result["diagnostics"]["contact"] == "isolated"

    def test_harmonic_hardy_norm_below_one_exits_one(self, capsys):
        # 1 + 0.9 Re z: its boundary mean at p = 0.5 is 0.87, below M_p(0, f) = 1
        doc = '{"h": {"kind": "polynomial", "coefficients": [[1, 0], [0.45, 0]]}, ' \
              '"g": {"kind": "polynomial", "coefficients": [[0, 0], [0.45, 0]]}}'
        assert main(["hardy-norm", "--func", doc, "--p", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["hardy-norm", "--func", doc, "--p", "1"]) == 0

    @pytest.mark.parametrize("phi", [
        "monomial:2", '{"kind": "blaschke", "factors": [[0.2, 0.1], [0.5, 0], [-0.3, 0.4]]}'])
    def test_boundary_touching_symbol_is_not_vacuously_compact(self, capsys, phi):
        # |phi| reaches 1 on the unit circle, beyond the grid's last ring
        main(["compop-verdict", "--phi", phi, "--alpha", "2", "--p", "2"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] != "vacuously-compact"
        assert result["diagnostics"]["sup_phi"] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("scale,p", [("0.9999995", "2"), ("0.9999999", "2"),
                                         ("0.9999999", "3")])
    def test_strict_contraction_is_never_unbounded(self, capsys, scale, p):
        # Q is bounded when sup |phi| < 1, though each ladder still rises
        # fast enough at its last rung, 1 - 2^-20, to read as growth
        phi = f'{{"kind": "polynomial", "coefficients": [[0, 0], [{scale}, 0]]}}'
        assert main(["compop-verdict", "--phi", phi, "--p", p]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "inconclusive"
        assert result["diagnostics"]["sup_phi"] == pytest.approx(float(scale), rel=1e-15)

    def test_exit_one_on_quadrature_error(self, capsys, monkeypatch):
        import blochdisk.cli as cli_mod

        class Chaotic:  # circle samples too rough for the trapezoid rule
            def eval(self, z):
                theta = np.angle(np.asarray(z, dtype=complex))
                return 2.0 + np.sin(1e8 * theta + 1e7 * theta ** 2)

        monkeypatch.setattr(cli_mod, "resolve_function", lambda spec: Chaotic())
        code = main(["hardy-norm", "--func", "chaotic", "--p", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: circle mean did not stabilize")

    def test_overflowing_circle_mean_exits_one(self, capsys):
        # |f|^200 overflows on the circle; no RuntimeWarning escapes, as the
        # suite would raise it, and one error line is printed
        assert main(["hardy-norm", "--func", "kernel:0.95,0:0.5", "--p", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: circle mean did not stabilize within 512 nodes\n"

    def test_largest_angular_start_takes_its_doubling(self, capsys):
        # the first mean is at 2^19 angles, the two agreements at 2^20 and
        # 2^21: the node cap must leave room for the last; 3 sqrt(3)/4
        assert main(["hardy-norm", "--func", "eta", "--p", "2", "--angular", "1048576"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["value"] == 1.29903810567666

    def test_value_that_rounds_past_the_largest_float_is_strict_json(self, capsys):
        # 1.7976931348623157e308 rounds to 15 digits past the largest float;
        # it is written unrounded, not as json's bare Infinity
        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        func = '{"kind":"polynomial","coefficients":[[0,0],[1.7976931348623157e308,0]]}'
        assert main(["bloch-seminorm", "--func", func]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["result"]["value"] == 1.7976931348623157e308

    def test_overflowing_weight_exits_one(self, capsys):
        # the log factor of the weight overflows at beta = 1000; as above, no
        # RuntimeWarning escapes and one error line is printed
        assert main(["bloch-seminorm", "--func", "eta", "--beta", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Bloch-type functional is not finite on the grid: inf\n"

    def test_out_and_csv_files(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        evidence = tmp_path / "evidence.csv"
        code = main(["compop-criterion", "--phi", "half-identity", "--p", "2",
                     "--out", str(out), "--csv", str(evidence)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["verdict"] == "convergent"
        rows = evidence.read_text().strip().splitlines()
        assert rows[0] == "truncation,value"
        assert len(rows) == 22

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_exit_one_on_unwritable_output(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "report"
        assert main(["metric", "--z", "0.1", "--w", "0", flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err

    @pytest.mark.parametrize("argv,setting", [
        (["--angular", str(2 ** 21)], "angular_resolution"),
        (["--angular", str(2 ** 30)], "angular_resolution")])
    def test_exit_one_on_plan_past_its_bounds(self, capsys, monkeypatch, argv, setting):
        # rejected while the plan is built, before any evaluation
        monkeypatch.setattr("blochdisk.cli.hardy_norm", None)
        assert main(["hardy-norm", "--func", "eta", "--p", "2"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {setting} must be <= ")

    @pytest.mark.parametrize("command", ["compop-criterion", "compop-verdict",
                                         "bounded-below-probe"])
    def test_exit_one_on_empty_blaschke_product(self, capsys, command):
        argv = [command, "--phi", _EMPTY_BLASCHKE]
        if command == "bounded-below-probe":
            argv += ["--r", "0.2", "--epsilon", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: blaschke is not a self-map of the disk\n"

    @pytest.mark.parametrize("scale", ["1.0000001", "1.0000005"])
    @pytest.mark.parametrize("command", ["compop-criterion", "compop-verdict",
                                         "bounded-below-probe"])
    def test_exit_one_on_a_symbol_just_past_the_circle(self, capsys, command, scale):
        # (1 + 1e-7) z leaves the disk only within 1e-7 of its boundary
        argv = [command, "--phi",
                f'{{"kind": "polynomial", "coefficients": [[0, 0], [{scale}, 0]]}}']
        if command == "bounded-below-probe":
            argv += ["--r", "0.2", "--epsilon", "0.5"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: polynomial is not a self-map of the disk\n")

    @pytest.mark.parametrize("command", ["gfunction", "compop-criterion", "compop-verdict",
                                         "bounded-below-probe"])
    def test_exit_one_on_harmonic_pair(self, capsys, command):
        pair = '{"h": {"kind": "polynomial", "coefficients": [[0, 0], [0.5, 0]]}, ' \
               '"g": {"kind": "polynomial", "coefficients": [[0, 0], [0.1, 0]]}}'
        argv = {"gfunction": ["--func", pair, "--angle", "0"],
                "bounded-below-probe": ["--phi", pair, "--r", "0.2", "--epsilon", "0.5"]
                }.get(command, ["--phi", pair])
        assert main([command, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "harmonic pair" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv,error", [
        (["bloch-seminorm", "--func", "eta", "--beta", "nan"], ParameterRangeError),
        (["bloch-seminorm", "--func", "eta", "--beta", "inf"], ParameterRangeError),
        (["bloch-seminorm", "--func", "eta", "--alpha", "inf"], ParameterRangeError),
        (["compop-criterion", "--phi", "half-identity", "--beta", "nan"], ParameterRangeError),
        (["extremal-root", "--r0", "0.5", "--alpha", "inf"], ParameterRangeError),
        (["gfunction", "--func", "eta", "--angle", "nan"], ParameterRangeError),
        (["gfunction", "--func", "eta", "--angle", "inf"], ParameterRangeError),
        (["bloch-seminorm", "--func",
          '{"kind": "polynomial", "coefficients": [[0, 0], [1e400, 0]]}'], DescriptorError),
        (["hardy-norm", "--p", "2", "--func",
          '{"kind": "polynomial", "coefficients": [[0, 0], [1e400, 0]]}'], DescriptorError),
        (["hardy-norm", "--p", "2", "--func",
          '{"kind": "blaschke", "factors": [[0.5, 0]], "rotation": [NaN, 0]}'], DescriptorError),
        (["hardy-norm", "--p", "2", "--func", "f-beta:nan"], DescriptorError),
        (["hardy-norm", "--p", "2", "--func", "kernel:0.5:inf"], DescriptorError),
        (["hardy-norm", "--p", "2", "--func", "kernel:0.99,0:2", "--tol", "inf"],
         ParameterRangeError),
        (["compop-criterion", "--phi", "half-identity", "--p", "inf"], ParameterRangeError),
        (["compop-criterion", "--phi", "identity", "--p", "inf"], ParameterRangeError),
    ], ids=["beta-nan", "beta-inf", "alpha-inf", "criterion-beta-nan", "root-alpha-inf",
            "angle-nan", "angle-inf", "seminorm-coefficient-inf", "hardy-coefficient-inf",
            "rotation-nan", "f-beta-nan", "kernel-p-inf", "tol-inf",
            "criterion-p-inf-half-identity", "criterion-p-inf-identity"])
    def test_exit_one_on_non_finite_numbers(self, capsys, argv, error):
        with pytest.raises(error, match="finite"):
            run(parse_config(argv))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    _OVERFLOWING = ('{"kind": "polynomial", "coefficients": '
                    '[[1e308, 1e308], [1e308, -1e308], [-1e308, 1e308]]}')
    _OVERFLOWING_DERIVATIVE = \
        '{"kind": "polynomial", "coefficients": [[0, 0], [1e308, 0], [1e308, 0]]}'

    @pytest.mark.parametrize("argv,error", [
        (["hardy-norm", "--func", _OVERFLOWING, "--p", "inf"],
         "max |f| on the unit circle is not finite: inf"),
        (["bloch-seminorm", "--func", _OVERFLOWING_DERIVATIVE],
         "Bloch-type functional is not finite on the grid: nan"),
        (["lipschitz-scan", "--func", _OVERFLOWING_DERIVATIVE],
         "Bloch-type functional is not finite on the grid: nan"),
    ], ids=["hardy-norm-inf", "bloch-seminorm", "lipschitz-scan"])
    def test_overflowing_sup_norm_exits_one_without_report(self, argv, error):
        # in a subprocess, numpy's overflow warnings stay out of this suite's
        # RuntimeWarning-as-error filter
        src = os.path.dirname(os.path.dirname(blochdisk.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "blochdisk.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {error}"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("func,angle,value", [
        ("mobius:0.999,0", "0", "0.816904013333189"),
        ("monomial:20000", "0.3", "0.500006250116703")], ids=["mobius", "monomial"])
    def test_readme_gfunction_values(self, capsys, func, angle, value):
        # the README quotes these two reports; the panel blocks move no digit
        assert main(["gfunction", "--func", func, "--angle", angle]) == 0
        assert f'"value": {value}\n' in capsys.readouterr().out

    def test_gfunction_near_boundary_mobius(self, capsys):
        # the panels past 1 - 2^-10 carry most of the integral
        assert main(["gfunction", "--func", "mobius:0.999,0", "--angle", "0"]) == 0
        value = json.loads(capsys.readouterr().out)["result"]["value"]
        assert value == pytest.approx(0.816904013333, rel=1e-11)

    @pytest.mark.parametrize("value,token", [
        (math.nan, "nan"), (math.inf, "infinite"), (-math.inf, "-infinite")])
    def test_non_finite_tokens(self, value, token):
        assert json.loads(_report_text(value)) == token
        assert json.loads(_report_text({"x": [complex(value, 0.5)]})) == {"x": [[token, 0.5]]}

    def test_fifteen_digit_output(self, capsys):
        main(["metric", "--z", "0.1,0.2", "--w", "-0.3,0.05"])
        doc = json.loads(capsys.readouterr().out)
        text = json.dumps(doc["result"])
        for token in ("rho", "sigma"):
            assert token in doc["result"]
        # round-trip through 15 significant digits is stable
        assert doc["result"]["rho"] == float(f"{doc['result']['rho']:.15g}")
