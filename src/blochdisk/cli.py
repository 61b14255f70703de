"""Command-line front end: function catalog, argument parsing, report persistence.

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
import os
import re
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import __version__
from .core import (BlochDiskError, BlochParams, Mobius, ParameterRangeError,
                   Polynomial, PowerKernel, ScaledIdentity, validate_majorant)
from .compop import (PROBE_RADIUS_SUP, bloch_to_hardy_criterion,
                     bounded_below_probe, hardy_to_bloch_verdict)
from .descriptors import (DescriptorError, analytic_from_descriptor, document,
                          harmonic_from_descriptor)
from .extremal import (LIP_CONSTANT, AntiderivativeExtremal, QuadraticExtremal,
                       lipschitz_scan, m_root, sharpness_witness)
from .metrics import rho, sigma
from .norms import (DEFAULT_PLAN, SamplingPlan, bloch_seminorm, g_function,
                    hardy_norm)


class CatalogError(BlochDiskError, LookupError):
    """Unknown catalog name; the message lists the available entries."""


def _monomial(n: int) -> tuple:
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    return (0j,) * n + (1 + 0j,)


# Name pattern (a head and one letter per ':'-separated argument) -> note, and
# the builder of the descriptor from the arguments' text.  ``_PATTERNS`` finds
# a name's pattern by its head and number of arguments.
_CATALOG = {
    "eta": ("quadratic map whose classical Bloch functional peaks at |z| = 1/sqrt(3) with value 1",
            lambda: document(QuadraticExtremal)),
    "f-beta:B": ("extremal antiderivative with initial slope B in (0, 1]; unit Bloch seminorm",
                 lambda b: document(AntiderivativeExtremal, float(b))),
    "identity": ("identity of the disk; divergence/unboundedness calibration symbol",
                 lambda: document(Polynomial, (0j, 1 + 0j))),
    "half-identity": ("contraction z/2; strict self-map calibration symbol",
                      lambda: document(ScaledIdentity, 0.5 + 0j)),
    "mobius:A": ("disk automorphism exchanging 0 and A",
                 lambda a: document(Mobius, parse_complex(a))),
    "kernel:B:P": ("Hardy-normalized power kernel centered at B with exponent 1/P",
                   lambda b, p: document(PowerKernel, parse_complex(b), float(p))),
    "monomial:N": ("z^N", lambda n: document(Polynomial, _monomial(int(n)))),
}
_PATTERNS = {(pattern.split(":")[0], pattern.count(":")): pattern for pattern in _CATALOG}


def _catalog_row(name: str):
    """(note, build, arguments) of the pattern with the head and arity of ``name``, or None."""
    head, *args = name.split(":")
    pattern = _PATTERNS.get((head, len(args)))
    return None if pattern is None else (*_CATALOG[pattern], args)


def catalog(name: str) -> dict:
    """Resolve a built-in function name to its descriptor document."""
    row = _catalog_row(name)
    if row is None:
        raise CatalogError(
            f"unknown catalog name {name!r}; available: {', '.join(sorted(_CATALOG))}")
    _, build, args = row
    try:
        return build(*args)
    except ValueError as exc:
        raise CatalogError(f"bad catalog arguments in {name!r}: {exc}") from exc


def _catalog_entry(name: str) -> dict:
    """The catalog command's result: the descriptor and its note.  The
    descriptor must build its map; one its kind refuses raises CatalogError."""
    doc = catalog(name)
    try:
        analytic_from_descriptor(doc)
    except BlochDiskError as exc:
        raise CatalogError(f"bad catalog arguments in {name!r}: {exc}") from exc
    return {"descriptor": doc, "note": catalog_note(name)}


def catalog_note(name: str) -> str:
    row = _catalog_row(name)
    return row[0] if row else ""


def parse_complex(text: str) -> complex:
    """Parse 'RE,IM' (or bare 'RE') into a complex number; malformed text
    raises ParameterRangeError."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ParameterRangeError(f"cannot parse complex value from {text!r}")
    try:
        return complex(*map(float, parts))
    except ValueError as exc:
        raise ParameterRangeError(str(exc)) from exc


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

    def to_json(self) -> str:
        doc = {"command": self.command, "parameters": self.parameters,
               "result": self.result, "evidence": self.evidence, "plan": self.plan,
               "version": self.version}
        if self.wall_clock is not None:
            doc["wall_clock_seconds"] = round(self.wall_clock, 3)
        out = []
        _write_json(doc, "\n", out)
        return "".join(out)


def _write_json(obj, newline: str, out: list) -> None:
    """Append the report text of ``obj`` to ``out`` in one walk.

    The text is ``json.dumps(doc, indent=2)`` of the document with every float
    rounded to 15 significant digits (unless the rounding overflows, as past
    1.797693134862315e308), each complex value written as the list
    [re, im] and non-finite floats as the strings "nan", "infinite" and
    "-infinite".  ``newline`` is the line break and indent of the current
    level.  A value json cannot encode raises TypeError, as json does.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            rounded = float(f"{obj:.15g}")
            # a value that rounds past the largest float is written unrounded
            out.append(float.__repr__(rounded if math.isfinite(rounded) else obj))
        elif math.isnan(obj):
            out.append('"nan"')
        else:
            out.append('"infinite"' if obj > 0 else '"-infinite"')
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, complex):
        _write_json([obj.real, obj.imag], newline, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                key = _key_text(key)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key that is not a string, as json writes it: floats unrounded,
    non-finite ones as NaN, Infinity and -Infinity."""
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -0.5,0 pass as arguments rather than flags
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ParameterRangeError(message)


class _Option(NamedTuple):
    """A command's ``--flag`` or bare positional: argparse's type (None keeps
    the text), its default (``...``: a required flag), and a range check
    (predicate, requirement) that ``parse_config`` makes before any run."""

    flag: str
    type: Callable | None = None
    default: object = ...
    check: tuple = ()
    help: str | None = None

    @property
    def name(self):
        return self.flag.lstrip("-")


# Plan settings by parsed name: the SamplingPlan field each sets (left at its
# default where a command does not take the setting), flag and help.
_PLAN_SETTINGS = {"tol": ("refinement_tol", "--tol", "refinement tolerance"),
                  "angular": ("angular_resolution", "--angular",
                              "starting angular resolution, power of two")}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """One subparser per row of ``_COMMANDS``, built on first use and reused:
    parsing leaves the parser unchanged.  ``parser.commands`` maps each
    command to its subparser."""
    parser = _Parser(prog="blochdisk",
                     description="Bloch/Hardy space numerics on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for command, row in _COMMANDS.items():
        p = sub.add_parser(command, help=row.help)
        p.set_defaults(command=command)
        for o in row.options:
            required = {"required": o.default is ...} if o.flag[0] == "-" else {}
            p.add_argument(o.flag, type=o.type, default=o.default, help=o.help, **required)
        for setting in row.plan:
            plan_field, flag, text = _PLAN_SETTINGS[setting]
            default = getattr(DEFAULT_PLAN, plan_field)
            p.add_argument(flag, type=type(default), default=default,
                           help=f"{text} (default {default})")
        for flag in _UNREAD.get(command, ()):
            p.add_argument(flag, type=int, dest="unread", metavar="INT",
                           help="accepted and not read")
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--csv", dest="csv_path",
                       help="write evidence rows (truncation, value) as CSV")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock in the report (breaks byte-reproducibility)")
    return parser


def parse_config(argv=None) -> RunConfig:
    """Parse argv (default ``sys.argv[1:]``) into a range-checked RunConfig.

    An argv whose first word names a command goes straight to that command's
    subparser, which is where the top-level parser would hand it; any other
    argv (help, a missing or unknown command, an option before the command)
    goes to the top-level parser, which ends it with help or an error."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.commands.get(argv[0]) if argv else None
    params = vars(sub.parse_args(argv[1:]) if sub else parser.parse_args(argv))
    command = params.pop("command")
    out = params.pop("out")
    csv_path = params.pop("csv_path")
    timing = params.pop("timing")
    params.pop("unread", None)
    plan = SamplingPlan(**{_PLAN_SETTINGS[name][0]: params.pop(name)
                           for name in _PLAN_SETTINGS if name in params})
    for o in _COMMANDS[command].options:
        if o.check and not o.check[0](params[o.name]):
            raise ParameterRangeError(f"--{o.name} {o.check[1].format(params[o.name])}")
    return RunConfig(command=command, params=params, plan=plan, out=out,
                     csv_path=csv_path, timing=timing)


# --------------------------------------------------------------------------
# Dispatch
# --------------------------------------------------------------------------

def _params_of(p: dict) -> BlochParams:
    return BlochParams(p["alpha"], p.get("beta", 0.0),
                       validate_majorant(p.get("omega", "id")))


def _evidence(out) -> list:
    return [list(pair) for pair in out.evidence]


def _norm_payload(est):
    # every estimate is finite; the verdict key keeps the report's layout
    return ({"verdict": "finite", "resolution": est.resolution, "value": est.value},
            _evidence(est))


def _criterion_payload(report):
    return ({"verdict": report.verdict, "estimate": report.estimate,
             "diagnostics": report.diagnostics}, _evidence(report))


def _fields(*names):
    """Payload builder: the named fields of the library's record."""
    return lambda out: ({name: getattr(out, name) for name in names}, [])


def _verdict_status(result) -> int:
    return 2 if result["verdict"] == "inconclusive" else 0


_POSITIVE = (lambda v: v > 0, "must be positive, got {}")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_FUNC, _PHI = _Option("--func"), _Option("--phi")
_ALPHA = _Option("--alpha", float, 1.0, _POSITIVE)
_BETA = _Option("--beta", float, 0.0)
_OMEGA = _Option("--omega", default="id", help="id or pow:S")
_SEED = _Option("--seed", int, 0)


class _Command(NamedTuple):
    """One row of the command table, the only place a command is declared.

    options: its own options (``_Option``), in the order the report echoes
        their parsed values.
    call(params, plan): the library call; the parameters named in
        complex_params arrive parsed from RE,IM text.
    plan: the plan settings the call reads (keys of ``_PLAN_SETTINGS``);
        the others keep ``SamplingPlan``'s defaults.
    payload(out): the report's (result, evidence) from the call's result.
    status(result): the exit status.

    Calls name library functions by their module globals when they run, so a
    rebinding (a test double, a tracer's wrapper) takes effect.
    """

    help: str
    options: tuple
    call: Callable
    plan: tuple = ()
    payload: Callable = lambda result: (result, [])
    status: Callable = lambda result: 0
    complex_params: tuple = ()


_COMMANDS = {
    "metric": _Command(
        "pseudo-hyperbolic and hyperbolic distance",
        (_Option("--z"), _Option("--w")), complex_params=("z", "w"),
        call=lambda p, plan: {"rho": rho(p["z"], p["w"]),
                              "sigma": sigma(p["z"], p["w"])}),
    "hardy-norm": _Command(
        "sup of circle means", (_FUNC, _Option("--p", float, check=_POSITIVE)),
        plan=("tol", "angular"), payload=_norm_payload,
        call=lambda p, plan: hardy_norm(resolve_function(p["func"]), p["p"], plan)),
    "bloch-seminorm": _Command(
        "disk supremum of the weighted derivative", (_FUNC, _ALPHA, _BETA, _OMEGA),
        payload=_norm_payload,
        call=lambda p, plan: bloch_seminorm(resolve_function(p["func"]),
                                            _params_of(p))),
    "gfunction": _Command(
        "Littlewood-Paley square function", (_FUNC, _Option("--angle", float)),
        call=lambda p, plan: {"value": g_function(resolve_function(p["func"]),
                                                  p["angle"])}),
    "lipschitz-scan": _Command(
        "empirical Lipschitz ratio scan",
        (_FUNC, _Option("--pairs", int, 10_000, _AT_LEAST_ONE), _SEED),
        call=lambda p, plan: lipschitz_scan(resolve_function(p["func"]), p["pairs"],
                                            p["seed"]),
        payload=_fields("max_ratio", "argmax_pair", "seminorm", "cap", "cap_ok",
                        "pairs_evaluated")),
    "sharpness-witness": _Command(
        "pair achieving the sharp constant up to epsilon",
        (_Option("--epsilon", float, check=(lambda v: 0 < v <= LIP_CONSTANT,
                                            f"must lie in (0, {LIP_CONSTANT:.9f}], got {{}}")),),
        call=lambda p, plan: sharpness_witness(p["epsilon"]),
        payload=_fields("m_star", "beta", "z1", "z2", "achieved_ratio", "floor")),
    "extremal-root": _Command(
        "profile root m for psi(m) = r0",
        (_Option("--r0", float, check=(lambda v: 0 < v <= 1, "must lie in (0, 1], got {}")),
         _ALPHA),
        call=lambda p, plan: m_root(p["r0"], p["alpha"]),
        payload=_fields("m", "a0", "residual")),
    "compop-criterion": _Command(
        "Bloch-to-Hardy criterion integral",
        (_PHI, _ALPHA, _BETA, _Option("--p", float, 2.0, _POSITIVE), _OMEGA),
        plan=("tol", "angular"), payload=_criterion_payload, status=_verdict_status,
        call=lambda p, plan: bloch_to_hardy_criterion(
            resolve_function(p["phi"]), _params_of(p), p["p"], plan)),
    "compop-verdict": _Command(
        "Hardy-to-Bloch boundedness/compactness",
        (_PHI, _ALPHA, _BETA,
         _Option("--p", float, 2.0, (lambda v: v > 1, "must exceed 1, got {}")), _OMEGA),
        payload=_criterion_payload, status=_verdict_status,
        call=lambda p, plan: hardy_to_bloch_verdict(
            resolve_function(p["phi"]), _params_of(p), p["p"])),
    "bounded-below-probe": _Command(
        "bounded-below hypothesis probe",
        (_PHI, _Option("--r", float, check=(
            lambda v: 0 < v < PROBE_RADIUS_SUP,
            f"must lie in (0, {PROBE_RADIUS_SUP:.10f}), got {{}}")),
         _Option("--epsilon", float, check=_POSITIVE),
         _Option("--samples", int, 100, _AT_LEAST_ONE), _SEED),
        payload=_fields("fraction", "implied_constant", "samples", "grid_points",
                        "unmatched"),
        call=lambda p, plan: bounded_below_probe(
            resolve_function(p["phi"]), p["r"], p["epsilon"], p["samples"],
            p["seed"])),
    "catalog": _Command("look up a built-in function descriptor", (_Option("name"),),
                        call=lambda p, plan: _catalog_entry(p["name"])),
}

# Flags a command accepts and does not read: each takes an integer, which
# parse_config drops before the plan is built, so no report echoes it.  They
# stay only because the verdict-mix benchmark deck passes them (ROADMAP item 1).
_UNREAD = {"metric": ("--plan-j",), "hardy-norm": ("--plan-j",),
           "bloch-seminorm": ("--plan-j", "--angular"), "gfunction": ("--angular",),
           "compop-criterion": ("--plan-j",), "compop-verdict": ("--plan-j", "--angular")}


def run(config: RunConfig) -> Report:
    """Execute one command and assemble its report."""
    start = time.perf_counter()
    command = _COMMANDS.get(config.command)
    if command is None:
        raise ParameterRangeError(f"unknown command {config.command!r}")
    p = dict(config.params)
    for name in command.complex_params:
        p[name] = parse_complex(p[name])
    result, evidence = command.payload(command.call(p, config.plan))
    elapsed = time.perf_counter() - start
    return Report(command=config.command,
                  parameters={o.name: p[o.name] for o in command.options},
                  result=result, evidence=evidence, plan=config.plan.describe(),
                  wall_clock=elapsed if config.timing else None,
                  exit_status=command.status(result))


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
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
