"""JSON descriptors for the closed taxonomy of disk functions.

One document per function: a ``kind`` field plus kind-specific parameters;
complex numbers are [re, im] pairs.  A harmonic descriptor is
``{"h": <descriptor>, "g": <descriptor>}`` and parsing rejects any g with
g(0) != 0.
"""

from __future__ import annotations

import math

from .core import (AnalyticMap, Blaschke, BlochDiskError, HarmonicMap, Mobius,
                   Polynomial, PowerKernel, ScaledIdentity, disk_point)
from .extremal import AntiderivativeExtremal, QuadraticExtremal

__all__ = ["DescriptorError", "analytic_from_descriptor", "descriptor_of",
           "harmonic_from_descriptor", "descriptor_of_harmonic"]


class DescriptorError(BlochDiskError, ValueError):
    """A descriptor document is malformed; the message names the bad field."""


def _real(value) -> float:
    if not math.isfinite(x := float(value)):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def _pair(value) -> complex:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected an [re, im] pair, got {value!r}")
    re, im = value
    return complex(_real(re), _real(im))


def _point(value) -> complex:
    return disk_point(_pair(value))


def _unpair(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def _field(doc, name, convert, default=None):
    """``convert(doc[name])``, or ``default`` when the field is absent; a
    missing field without a default or a value ``convert`` rejects raises
    DescriptorError naming the field."""
    if name not in doc:
        if default is None:
            raise DescriptorError(
                f"{doc['kind']!r} descriptor is missing the field {name!r}")
        return default
    try:
        return convert(doc[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(
            f"bad field {name!r} in {doc['kind']!r} descriptor: {exc}") from exc


def _build(doc):
    kind = doc["kind"]
    if kind == "polynomial":
        return Polynomial(_field(doc, "coefficients", lambda v: tuple(map(_pair, v))))
    if kind == "mobius":
        return Mobius(_field(doc, "a", _point))
    if kind == "blaschke":
        return Blaschke(_field(doc, "factors", lambda v: tuple(map(_point, v))),
                        _field(doc, "rotation", _pair, 1.0 + 0j))
    if kind == "scaled-identity":
        return ScaledIdentity(_field(doc, "c", _pair))
    if kind == "power-kernel":
        return PowerKernel(_field(doc, "b", _point), _field(doc, "p", _real))
    if kind == "antiderivative-extremal":
        return AntiderivativeExtremal(_field(doc, "beta", _real))
    if kind == "quadratic-extremal":
        return QuadraticExtremal()
    raise DescriptorError(f"unknown function kind {kind!r}")


def analytic_from_descriptor(doc: dict) -> AnalyticMap:
    """Build an analytic map from its descriptor document.

    Malformed documents raise DescriptorError (a ValueError); parameters
    outside a kind's range raise that kind's own BlochDiskError.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DescriptorError("descriptor must be a mapping with a 'kind' field")
    try:
        return _build(doc)
    except BlochDiskError:
        raise
    except ValueError as exc:  # a constructor's range check (rotation, scale)
        raise DescriptorError(f"bad {doc['kind']!r} descriptor: {exc}") from exc


def descriptor_of(f: AnalyticMap) -> dict:
    """Serialize an analytic map back to its descriptor document."""
    if isinstance(f, Polynomial):
        return {"kind": "polynomial",
                "coefficients": [_unpair(c) for c in f.coefficients]}
    if isinstance(f, Mobius):
        return {"kind": "mobius", "a": _unpair(f.a)}
    if isinstance(f, Blaschke):
        return {"kind": "blaschke",
                "factors": [_unpair(a) for a in f.factors],
                "rotation": _unpair(f.rotation)}
    if isinstance(f, ScaledIdentity):
        return {"kind": "scaled-identity", "c": _unpair(f.c)}
    if isinstance(f, PowerKernel):
        return {"kind": "power-kernel", "b": _unpair(f.b), "p": f.p}
    if isinstance(f, AntiderivativeExtremal):
        return {"kind": "antiderivative-extremal", "beta": f.beta}
    if isinstance(f, QuadraticExtremal):
        return {"kind": "quadratic-extremal"}
    raise ValueError(f"{type(f).__name__} has no descriptor form")


def harmonic_from_descriptor(doc: dict) -> HarmonicMap:
    """Build a harmonic map {"h": ..., "g": ...}; g(0) must vanish."""
    if not isinstance(doc, dict) or "h" not in doc or "g" not in doc:
        raise DescriptorError("harmonic descriptor needs 'h' and 'g' fields")
    h = analytic_from_descriptor(doc["h"])
    g = analytic_from_descriptor(doc["g"])
    try:
        return HarmonicMap(h, g)
    except ValueError as exc:  # g(0) != 0
        raise DescriptorError(f"bad field 'g' in harmonic descriptor: {exc}") from exc


def descriptor_of_harmonic(f: HarmonicMap) -> dict:
    return {"h": descriptor_of(f.h), "g": descriptor_of(f.g)}
