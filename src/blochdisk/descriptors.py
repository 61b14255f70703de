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

__all__ = ["DescriptorError", "analytic_from_descriptor", "descriptor_of", "document",
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


# The descriptor format, written only here and read by parsing, ``document``
# and ``descriptor_of``: each kind's fields as (name, convert, default) in
# constructor order, named as the map's attributes; the kind name is the
# class's ``kind``.
_KINDS = {
    Polynomial: (("coefficients", lambda v: tuple(map(_pair, v))),),
    Mobius: (("a", _point),),
    Blaschke: (("factors", lambda v: tuple(map(_point, v))), ("rotation", _pair, 1.0 + 0j)),
    ScaledIdentity: (("c", _pair),),
    PowerKernel: (("b", _point), ("p", _real)),
    AntiderivativeExtremal: (("beta", _real),),
    QuadraticExtremal: (),
}


def _build(doc):
    for cls, fields in _KINDS.items():
        if cls.kind == doc["kind"]:  # by equality: a JSON kind may be unhashable
            return cls(*[_field(doc, *spec) for spec in fields])
    raise DescriptorError(f"unknown function kind {doc['kind']!r}")


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


def _json(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return list(map(_json, value)) if isinstance(value, tuple) else value


def document(cls, *values) -> dict:
    """The descriptor of ``cls(*values)``, written without building the map:
    a complex value becomes an [re, im] pair and a tuple a list."""
    doc = {"kind": cls.kind}
    for spec, value in zip(_KINDS[cls], values, strict=True):
        doc[spec[0]] = _json(value)
    return doc


def descriptor_of(f: AnalyticMap) -> dict:
    """Serialize an analytic map back to its descriptor document."""
    if type(f) not in _KINDS:
        raise DescriptorError(f"{type(f).__name__} has no descriptor form")
    return document(type(f), *(getattr(f, spec[0]) for spec in _KINDS[type(f)]))


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
