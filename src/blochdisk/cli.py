"""Command-line front end: function catalog, config parsing, report persistence.

Subcommands cover the metric pair, Hardy and Bloch norms, the square
function, the Lipschitz scanner and witness, the profile root, and the three
composition-operator engines.  Reports are JSON with a stable field order and
15-significant-digit values; identical config and seed reproduce identical
bytes (wall-clock timing is opt-in for that reason).  Exit status: 0 for
definitive results, 2 for inconclusive verdicts, 1 for usage or range errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import __version__
from .core import (BlochDiskError, BlochParams, ParameterRangeError,
                   validate_majorant)
from .compop import (PROBE_RADIUS_SUP, bloch_to_hardy_criterion,
                     bounded_below_probe, hardy_to_bloch_verdict)
from .descriptors import (DescriptorError, analytic_from_descriptor,
                          harmonic_from_descriptor)
from .extremal import (LIP_CONSTANT, lipschitz_scan, m_root,
                       sharpness_witness)
from .metrics import rho, sigma
from .norms import SamplingPlan, bloch_seminorm, g_function, hardy_norm


class CatalogError(BlochDiskError, KeyError):
    """Unknown catalog name; the message lists the available entries."""


_CATALOG_NOTES = {
    "eta": "quadratic map whose classical Bloch functional peaks at |z| = 1/sqrt(3) with value 1",
    "f-beta:B": "extremal antiderivative with initial slope B in (0, 1]; unit Bloch seminorm",
    "identity": "identity of the disk; divergence/unboundedness calibration symbol",
    "half-identity": "contraction z/2; strict self-map calibration symbol",
    "mobius:A": "disk automorphism exchanging 0 and A",
    "kernel:B:P": "Hardy-normalized power kernel centered at B with exponent 1/P",
    "monomial:N": "z^N",
}


def catalog(name: str) -> dict:
    """Resolve a built-in function name to its descriptor document."""
    parts = name.split(":")
    head = parts[0]
    try:
        if head == "eta" and len(parts) == 1:
            return {"kind": "quadratic-extremal"}
        if head == "identity" and len(parts) == 1:
            return {"kind": "polynomial", "coefficients": [[0.0, 0.0], [1.0, 0.0]]}
        if head == "half-identity" and len(parts) == 1:
            return {"kind": "scaled-identity", "c": [0.5, 0.0]}
        if head == "f-beta" and len(parts) == 2:
            return {"kind": "antiderivative-extremal", "beta": float(parts[1])}
        if head == "mobius" and len(parts) == 2:
            a = parse_complex(parts[1])
            return {"kind": "mobius", "a": [a.real, a.imag]}
        if head == "kernel" and len(parts) == 3:
            b = parse_complex(parts[1])
            return {"kind": "power-kernel", "b": [b.real, b.imag],
                    "p": float(parts[2])}
        if head == "monomial" and len(parts) == 2:
            n = int(parts[1])
            if n < 0:
                raise ValueError("monomial degree must be >= 0")
            coeffs = [[0.0, 0.0]] * n + [[1.0, 0.0]]
            return {"kind": "polynomial", "coefficients": coeffs}
    except (ValueError, IndexError) as exc:
        raise CatalogError(f"bad catalog arguments in {name!r}: {exc}") from exc
    raise CatalogError(
        f"unknown catalog name {name!r}; available: {', '.join(sorted(_CATALOG_NOTES))}")


def catalog_note(name: str) -> str:
    head = name.split(":")[0]
    for pattern, note in _CATALOG_NOTES.items():
        if pattern.split(":")[0] == head:
            return note
    return ""


def parse_complex(text: str) -> complex:
    """Parse 'RE,IM' (or bare 'RE') into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex value from {text!r}")


def resolve_function(source: str):
    """Turn a --func/--phi value into a map.

    Accepts a path to a descriptor JSON, inline JSON, or a catalog name.
    Harmonic documents ({"h": ..., "g": ...}) yield a HarmonicMap.
    """
    try:
        if source.strip().startswith("{"):
            doc = json.loads(source)
        elif os.path.exists(source):
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = catalog(source)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "h" in doc and "g" in doc:
        return harmonic_from_descriptor(doc)
    return analytic_from_descriptor(doc)


# --------------------------------------------------------------------------
# Config and report
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    plan: SamplingPlan = field(default_factory=SamplingPlan)
    out: str | None = None
    csv_path: str | None = None
    seed: int = 0
    timing: bool = False


@dataclass
class Report:
    command: str
    parameters: dict
    result: dict
    evidence: list
    plan: dict
    version: str = __version__
    wall_clock: float | None = None
    exit_status: int = 0

    def to_document(self) -> dict:
        doc = {
            "command": self.command,
            "parameters": _round15(self.parameters),
            "result": _round15(self.result),
            "evidence": _round15(self.evidence),
            "plan": _round15(self.plan),
            "version": self.version,
        }
        if self.wall_clock is not None:
            doc["wall_clock_seconds"] = round(self.wall_clock, 3)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2)


def _round15(obj):
    """Round every float to 15 significant digits, recursively."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "infinite" if obj > 0 else "-infinite"
        return float(f"{obj:.15g}")
    if isinstance(obj, complex):
        return [_round15(obj.real), _round15(obj.imag)]
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.actions = {}  # by destination, the Action add_argument returned
        super().__init__(*args, **kwargs)
        # let values like -0.5,0 pass as arguments rather than flags
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions[action.dest] = action
        return action

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ParameterRangeError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """Built on first use and reused: parsing leaves the parser unchanged,
    and config documents are applied to the parsed values, not to it."""
    parser = _Parser(prog="blochdisk",
                     description="Bloch/Hardy space numerics on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("metric", help="pseudo-hyperbolic and hyperbolic distance")
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)

    p = sub.add_parser("hardy-norm", help="sup of circle means")
    p.add_argument("--func", required=True)
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("bloch-seminorm", help="disk supremum of the weighted derivative")
    p.add_argument("--func", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--omega", default="id", help="id or pow:S")

    p = sub.add_parser("gfunction", help="Littlewood-Paley square function")
    p.add_argument("--func", required=True)
    p.add_argument("--angle", type=float, required=True)

    p = sub.add_parser("lipschitz-scan", help="empirical Lipschitz ratio scan")
    p.add_argument("--func", required=True)
    p.add_argument("--pairs", type=int, default=10_000)

    p = sub.add_parser("sharpness-witness", help="pair achieving the sharp constant up to epsilon")
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("extremal-root", help="profile root m for psi(m) = r0")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)

    for name, text in (("compop-criterion", "Bloch-to-Hardy criterion integral"),
                       ("compop-verdict", "Hardy-to-Bloch boundedness/compactness")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--phi", required=True)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=0.0)
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--omega", default="id")

    p = sub.add_parser("bounded-below-probe", help="bounded-below hypothesis probe")
    p.add_argument("--phi", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("catalog", help="look up a built-in function descriptor")
    p.add_argument("name")

    for p in sub.choices.values():  # options every command takes
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--csv", dest="csv_path",
                       help="write evidence rows (truncation, value) as CSV")
        p.add_argument("--plan-j", type=int, default=20,
                       help="radial ladder depth (default 20)")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="refinement tolerance (default 1e-6)")
        p.add_argument("--angular", type=int, default=256,
                       help="starting angular resolution, power of two")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock in the report (breaks byte-reproducibility)")
    return parser


# What a config-document value must be, by its flag's argparse type; only a
# switch (an action of no arguments) takes a bool.
_DOCUMENT_TYPES = {int: (numbers.Integral, "an integer"), None: (str, "a string"),
                   float: (numbers.Real, "a real number"), "switch": (bool, "a bool")}


def parse_config(argv, config_doc: dict | None = None) -> RunConfig:
    """Parse argv (plus an optional config document) into a validated RunConfig.

    Document keys are parsed names (``csv_path`` for ``--csv``), values must
    have their flag's type, and unknown keys are rejected; what argv gives (a
    positional, or an option by any prefix argparse takes) wins.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    params = vars(parser.parse_args(argv))
    command = params.pop("command")

    if config_doc:
        unknown = set(config_doc) - set(params)
        if unknown:
            raise ParameterRangeError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        actions = parser.commands[command].actions
        owner = {s: a.dest for a in actions.values() for s in a.option_strings}
        given = set()
        for flag in (arg.partition("=")[0] for arg in argv if arg.startswith("--")):
            # an option string itself, or the one option it abbreviates
            names = [flag] if flag in owner else [s for s in owner if s.startswith(flag)]
            if len(names) == 1:
                given.add(owner[names[0]])
        for key, value in config_doc.items():
            action = actions[key]
            kind, what = _DOCUMENT_TYPES["switch" if action.nargs == 0 else action.type]
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ParameterRangeError(f"config key {key!r} must be {what}, got {value!r}")
            if action.option_strings and key not in given:
                params[key] = value if action.type is None else action.type(value)

    out = params.pop("out")
    csv_path = params.pop("csv_path")
    seed = params.pop("seed")
    timing = params.pop("timing")
    plan = SamplingPlan(angular_resolution=params.pop("angular"),
                        radial_j=params.pop("plan_j"),
                        refinement_tol=params.pop("tol"))
    for name, ok, requirement in _COMMANDS[command].bounds:
        if not ok(params[name]):
            raise ParameterRangeError(f"--{name} {requirement.format(params[name])}")
    return RunConfig(command=command, params=params, plan=plan, out=out,
                     csv_path=csv_path, seed=seed, timing=timing)


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------

def _params_of(p: dict) -> BlochParams:
    return BlochParams(p["alpha"], p.get("beta", 0.0),
                       validate_majorant(p.get("omega", "id")))


def _evidence(out) -> list:
    return [list(pair) for pair in out.evidence]


def _norm_payload(est):
    result = {"verdict": est.verdict, "resolution": est.resolution}
    if est.finite:
        result["value"] = est.value
    return result, _evidence(est)


def _criterion_payload(report):
    return ({"verdict": report.verdict, "estimate": report.estimate,
             "diagnostics": report.diagnostics}, _evidence(report))


def _fields(*names):
    """Payload builder: the named fields of the library's record."""
    return lambda out: ({name: getattr(out, name) for name in names}, [])


def _verdict_status(result) -> int:
    return 2 if result["verdict"] == "inconclusive" else 0


def _positive(name):
    return (name, lambda v: v > 0, "must be positive, got {}")


class _Command(NamedTuple):
    """One row of the command table.

    shown: the parameters the report echoes, in order.
    call(params, plan): the library call; params include ``seed``, and the
        parameters named in complex_params arrive parsed from RE,IM text.
    payload(out): the report's (result, evidence) from the call's result.
    status(result): the exit status.
    bounds: (parameter, predicate, requirement) range checks, made by
        ``parse_config`` before any computation starts.

    Calls name library functions by their module globals when they run, so a
    rebinding (a test double, a tracer's wrapper) takes effect.
    """

    shown: tuple
    call: Callable
    payload: Callable = lambda result: (result, [])
    status: Callable = lambda result: 0
    bounds: tuple = ()
    complex_params: tuple = ()


_COMMANDS = {
    "metric": _Command(
        ("z", "w"), complex_params=("z", "w"),
        call=lambda p, plan: {"rho": rho(p["z"], p["w"]),
                              "sigma": sigma(p["z"], p["w"])}),
    "hardy-norm": _Command(
        ("func", "p"), bounds=(_positive("p"),), payload=_norm_payload,
        call=lambda p, plan: hardy_norm(resolve_function(p["func"]), p["p"], plan)),
    "bloch-seminorm": _Command(
        ("func", "alpha", "beta", "omega"), bounds=(_positive("alpha"),),
        payload=_norm_payload,
        call=lambda p, plan: bloch_seminorm(resolve_function(p["func"]),
                                            _params_of(p), plan)),
    "gfunction": _Command(
        ("func", "angle"),
        call=lambda p, plan: {"value": g_function(resolve_function(p["func"]),
                                                  p["angle"])}),
    "lipschitz-scan": _Command(
        ("func", "pairs", "seed"),
        call=lambda p, plan: lipschitz_scan(resolve_function(p["func"]), p["pairs"],
                                            p["seed"], plan),
        bounds=(("pairs", lambda v: v >= 1, "must be >= 1"),),
        payload=_fields("max_ratio", "argmax_pair", "seminorm", "cap", "cap_ok",
                        "pairs_evaluated")),
    "sharpness-witness": _Command(
        ("epsilon",), call=lambda p, plan: sharpness_witness(p["epsilon"]),
        bounds=(("epsilon", lambda v: 0 < v <= LIP_CONSTANT,
                 f"must lie in (0, {LIP_CONSTANT:.9f}], got {{}}"),),
        payload=_fields("m_star", "beta", "z1", "z2", "achieved_ratio", "floor")),
    "extremal-root": _Command(
        ("r0", "alpha"), call=lambda p, plan: m_root(p["r0"], p["alpha"]),
        bounds=(_positive("alpha"),
                ("r0", lambda v: 0 < v <= 1, "must lie in (0, 1], got {}")),
        payload=_fields("m", "a0", "residual")),
    "compop-criterion": _Command(
        ("phi", "alpha", "beta", "p", "omega"),
        bounds=(_positive("alpha"), _positive("p")),
        payload=_criterion_payload, status=_verdict_status,
        call=lambda p, plan: bloch_to_hardy_criterion(
            resolve_function(p["phi"]), _params_of(p), p["p"], plan)),
    "compop-verdict": _Command(
        ("phi", "alpha", "beta", "p", "omega"),
        bounds=(_positive("alpha"), ("p", lambda v: v > 1, "must exceed 1, got {}")),
        payload=_criterion_payload, status=_verdict_status,
        call=lambda p, plan: hardy_to_bloch_verdict(
            resolve_function(p["phi"]), _params_of(p), p["p"], plan)),
    "bounded-below-probe": _Command(
        ("phi", "r", "epsilon", "samples", "seed"),
        bounds=(("r", lambda v: 0 < v < PROBE_RADIUS_SUP,
                 f"must lie in (0, {PROBE_RADIUS_SUP:.10f}), got {{}}"),
                _positive("epsilon"), ("samples", lambda v: v >= 1, "must be >= 1")),
        payload=_fields("fraction", "implied_constant", "samples", "grid_points",
                        "unmatched"),
        call=lambda p, plan: bounded_below_probe(
            resolve_function(p["phi"]), p["r"], p["epsilon"], p["samples"], plan,
            p["seed"])),
    "catalog": _Command(
        ("name",),
        call=lambda p, plan: {"descriptor": catalog(p["name"]),
                              "note": catalog_note(p["name"])}),
}


def run(config: RunConfig) -> Report:
    """Execute one command and assemble its report."""
    start = time.perf_counter()
    command = _COMMANDS.get(config.command)
    if command is None:
        raise ParameterRangeError(f"unknown command {config.command!r}")
    p = {**config.params, "seed": config.seed}
    for name in command.complex_params:
        p[name] = parse_complex(p[name])
    result, evidence = command.payload(command.call(p, config.plan))
    elapsed = time.perf_counter() - start
    return Report(command=config.command,
                  parameters={name: p[name] for name in command.shown},
                  result=result, evidence=evidence, plan=config.plan.describe(),
                  wall_clock=elapsed if config.timing else None,
                  exit_status=command.status(result))


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
        report = run(config)
        text = report.to_json()
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        if config.csv_path:
            with open(config.csv_path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([("truncation", "value"), *report.evidence])
    except (BlochDiskError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    status = report.exit_status
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (e.g. `| head`): send the rest of stdout, including
        # the interpreter's flush at exit, to devnull instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
