"""Domain models for the open unit disk.

Analytic functions are a closed taxonomy of kinds, each with exact closed-form
evaluation and first derivative; harmonic maps are canonical pairs h + conj(g)
with g(0) = 0.  Majorant weights and Bloch-type weight parameters live here
as well.  All values are immutable after construction and evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlochDiskError", "MajorantValidationError", "ParameterRangeError",
    "InadmissibleSymbolError", "DegeneratePairError", "ZeroSeminormError",
    "DivergentIntegralError",
    "in_unit_disk", "disk_point",
    "AnalyticMap", "Polynomial", "Mobius", "Blaschke", "ScaledIdentity",
    "PowerKernel", "Composed", "HarmonicMap", "as_harmonic", "lambda_f",
    "Majorant", "IdentityMajorant", "PowerMajorant", "TabulatedMajorant",
    "validate_majorant", "BlochParams", "classical_params",
]


class BlochDiskError(Exception):
    """Base class for all toolkit errors."""


class MajorantValidationError(BlochDiskError, ValueError):
    """A candidate weight violates a majorant property.

    ``reason`` is one of ``nonzero-at-origin``, ``not-increasing``,
    ``ratio-increasing``; ``witness`` is the grid point exhibiting it.
    """

    def __init__(self, reason, witness=None):
        super().__init__(f"majorant rejected ({reason}, t*={witness})")
        self.reason = reason
        self.witness = witness


class ParameterRangeError(BlochDiskError, ValueError):
    """A numeric parameter lies outside the range an operation supports."""


class InadmissibleSymbolError(BlochDiskError, ValueError):
    """A composition symbol fails to map the disk into itself."""


class DegeneratePairError(BlochDiskError, ValueError):
    """Two points are too close for a difference quotient to be meaningful."""


class ZeroSeminormError(BlochDiskError, ValueError):
    """An operation requires a nonzero Bloch seminorm."""


class DivergentIntegralError(BlochDiskError, ArithmeticError):
    """Partial integrals grow without stabilizing; carries the partial sums."""

    def __init__(self, message, partials=None):
        super().__init__(message)
        self.partials = partials


def in_unit_disk(z) -> bool:
    """True when |z| < 1 strictly."""
    return abs(complex(z)) < 1.0


def disk_point(z) -> complex:
    """Validate and return a point of the open unit disk as a complex number.

    Boundary and exterior points raise ParameterRangeError.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise ParameterRangeError(f"point {z} lies outside the open unit disk")
    return z


# --------------------------------------------------------------------------
# Analytic function kinds
# --------------------------------------------------------------------------

class AnalyticMap:
    """An analytic function on the unit disk with exact value and derivative.

    Evaluation contract, shared by every kind, by the majorants' ``__call__``,
    by ``bloch_weight``/``weight_from_gap``/``extremal.psi`` and by the
    functionals defined once on them (``norms.bloch_values``, compop's Q and
    Schwarz-Pick ratio): one code path for every input.  An array argument
    gives an array of its shape; a scalar argument gives a scalar (Python or
    numpy, so an instance of ``complex`` or ``float``, never a 0-d array)
    that matches the array evaluation to rounding: numpy's vectorized loops
    may round differently from its scalar arithmetic.  Scalar entry points
    such as ``norms.bloch_functional`` convert to Python numbers once, where
    they validate their point.  ``jet(z)`` returns ``(f(z), f'(z))`` under the
    same contract, and each component is bitwise ``eval(z)`` and
    ``deriv(z)``; kinds that share work between the two override it.
    Subclasses are immutable.
    """

    kind = "abstract"

    def eval(self, z):
        raise NotImplementedError

    def deriv(self, z):
        raise NotImplementedError

    def jet(self, z):
        return self.eval(z), self.deriv(z)

    def __call__(self, z):
        return self.eval(z)


@dataclass(frozen=True)
class Polynomial(AnalyticMap):
    """f(z) = sum a_n z^n, evaluated by Horner's scheme."""

    coefficients: tuple = ()
    kind = "polynomial"

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(complex(c) for c in self.coefficients))

    @cached_property
    def _deriv_coefficients(self):
        return tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)

    @staticmethod
    def _horner(coeffs, z):
        # in place: one result buffer instead of two temporaries per term
        acc = np.asarray(0j * z + (coeffs[-1] if coeffs else 0j))
        for c in reversed(coeffs[:-1]):
            acc *= z
            acc += c
        return acc[()]

    def eval(self, z):
        return self._horner(self.coefficients, z)

    def deriv(self, z):
        return self._horner(self._deriv_coefficients, z)

    @property
    def degree(self):
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class Mobius(AnalyticMap):
    """Disk automorphism phi_a(z) = (a - z) / (1 - conj(a) z); an involution."""

    a: complex = 0j
    kind = "mobius"

    def __post_init__(self):
        object.__setattr__(self, "a", disk_point(self.a))

    def eval(self, z):
        ac = self.a.conjugate()
        return (self.a - z) / (1.0 - ac * z)

    def deriv(self, z):
        ac = self.a.conjugate()
        return -(1.0 - abs(self.a) ** 2) / (1.0 - ac * z) ** 2

    def jet(self, z):
        # no reciprocal of d: (a - z) * (1 / d) moves |phi| by an ulp
        d = 1.0 - self.a.conjugate() * z
        return (self.a - z) / d, -(1.0 - abs(self.a) ** 2) / d ** 2


@dataclass(frozen=True)
class Blaschke(AnalyticMap):
    """Finite Blaschke product: unimodular rotation times automorphism factors."""

    factors: tuple = ()
    rotation: complex = 1.0 + 0j
    kind = "blaschke"

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           tuple(disk_point(a) for a in self.factors))
        rot = complex(self.rotation)
        if abs(abs(rot) - 1.0) > 1e-12:
            raise ValueError(f"rotation {rot} is not unimodular")
        object.__setattr__(self, "rotation", rot)

    @cached_property
    def _parts(self):
        return tuple(Mobius(a) for a in self.factors)

    def eval(self, z):
        out = self.rotation * np.ones(np.shape(z), dtype=complex)
        for part in self._parts:
            out = out * part.eval(z)
        return out

    def deriv(self, z):
        return self.jet(z)[1]

    def jet(self, z):
        # product rule on the running product, whose value is eval's
        val = self.rotation * np.ones(np.shape(z), dtype=complex)
        der = np.zeros(np.shape(z), dtype=complex)
        for part in self._parts:
            v, dv = part.jet(z)
            der *= v
            der += val * dv
            val *= v
        return val, der[()]


@dataclass(frozen=True)
class ScaledIdentity(AnalyticMap):
    """f(z) = c z with |c| <= 1."""

    c: complex = 1.0 + 0j
    kind = "scaled-identity"

    def __post_init__(self):
        c = complex(self.c)
        if abs(c) > 1.0 + 1e-15:
            raise ValueError(f"scale {c} exceeds modulus 1")
        object.__setattr__(self, "c", c)

    def eval(self, z):
        return self.c * z

    def deriv(self, z):
        return self.c * np.ones(np.shape(z), dtype=complex)


@dataclass(frozen=True)
class PowerKernel(AnalyticMap):
    """f(z) = ((1 - |b|^2) / (1 - conj(b) z)^2)^(1/p), principal branch.

    Re(1 - conj(b) z) > 0 on the disk, so the branch is single-valued.
    """

    b: complex = 0j
    p: float = 2.0
    kind = "power-kernel"

    def __post_init__(self):
        object.__setattr__(self, "b", disk_point(self.b))
        p = float(self.p)
        if not p > 0.0:
            raise ParameterRangeError("power-kernel exponent requires p > 0")
        object.__setattr__(self, "p", p)

    @property
    def exponent(self):
        return 1.0 / self.p

    def eval(self, z):
        bc = self.b.conjugate()
        base = 1.0 - bc * np.asarray(z, dtype=complex)
        scale = (1.0 - abs(self.b) ** 2) ** self.exponent
        return scale * np.exp(-2.0 * self.exponent * np.log(base))

    def deriv(self, z):
        bc = self.b.conjugate()
        base = 1.0 - bc * np.asarray(z, dtype=complex)
        return self.eval(z) * (2.0 * self.exponent * bc) / base


@dataclass(frozen=True)
class Composed(AnalyticMap):
    """outer(inner(z)) + offset; derivative by the chain rule.

    Internal combinator used to build composition operators; not part of the
    descriptor taxonomy.
    """

    outer: AnalyticMap
    inner: AnalyticMap
    offset: complex = 0j
    kind = "composed"

    def eval(self, z):
        return self.outer.eval(self.inner.eval(z)) + self.offset

    def deriv(self, z):
        w, dw = self.inner.jet(z)
        return self.outer.deriv(w) * dw


# --------------------------------------------------------------------------
# Harmonic maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicMap:
    """Canonical pair f = h + conj(g) with analytic h, g and g(0) = 0.

    f_z = h' and f_zbar = conj(g'), so the maximal directional derivative is
    |h'| + |g'|.
    """

    h: AnalyticMap
    g: AnalyticMap

    def __post_init__(self):
        g0 = complex(self.g.eval(0j))
        if abs(g0) > 1e-12:
            raise ValueError(f"canonical decomposition requires g(0) = 0, got {g0}")

    def eval(self, z):
        return self.h.eval(z) + np.conjugate(self.g.eval(z))

    def __call__(self, z):
        return self.eval(z)


def as_harmonic(f: AnalyticMap) -> HarmonicMap:
    """Wrap an analytic map as a harmonic map with vanishing conjugate part."""
    return HarmonicMap(f, Polynomial(()))


def lambda_f(f, z):
    """Maximal directional derivative |f_z| + |f_zbar| at z.

    Accepts a HarmonicMap or a bare AnalyticMap (for which this is |f'|).
    Vectorized over complex ndarrays.
    """
    if isinstance(f, HarmonicMap):
        return np.abs(f.h.deriv(z)) + np.abs(f.g.deriv(z))
    return np.abs(f.deriv(z))


# --------------------------------------------------------------------------
# Majorants
# --------------------------------------------------------------------------

_VALIDATION_GRID = np.geomspace(2.0 ** -20, 4.0, 64)


class Majorant:
    """Weight omega: [0, inf) -> [0, inf) with omega(0) = 0, omega increasing,
    and omega(t)/t non-increasing.

    The three properties are checked at construction on a logarithmic grid of
    64 points in (0, 4]; violations raise MajorantValidationError naming the
    property and the witnessing grid point.
    """

    kind = "abstract"

    def __call__(self, t):
        raise NotImplementedError

    def ratio_limit_at_zero(self):
        """The limit of omega(t)/t as t -> 0+, in closed form for each kind, or
        None when it is infinite (it exists, as omega(t)/t is non-increasing)."""
        raise NotImplementedError

    def _validate(self):
        origin = float(self(0.0))
        if abs(origin) > 1e-15:
            raise MajorantValidationError("nonzero-at-origin", 0.0)
        grid = _VALIDATION_GRID
        vals = np.asarray(self(grid), dtype=float)
        diffs = np.diff(vals)
        bad = np.nonzero(diffs <= 0.0)[0]
        if bad.size:
            raise MajorantValidationError("not-increasing", float(grid[bad[0] + 1]))
        ratios = vals / grid
        rdiffs = np.diff(ratios)
        bad = np.nonzero(rdiffs > 1e-12 * np.abs(ratios[:-1]))[0]
        if bad.size:
            raise MajorantValidationError("ratio-increasing", float(grid[bad[0] + 1]))


@dataclass(frozen=True)
class IdentityMajorant(Majorant):
    """omega(t) = t."""

    kind = "identity"

    def __post_init__(self):
        self._validate()

    def __call__(self, t):
        return np.asarray(t, dtype=float)[()]

    def ratio_limit_at_zero(self):
        return 1.0


@dataclass(frozen=True)
class PowerMajorant(Majorant):
    """omega(t) = t^s for s in (0, 1]."""

    s: float
    kind = "power"

    def __post_init__(self):
        s = float(self.s)
        if not 0.0 < s <= 1.0:
            raise ParameterRangeError(f"power majorant requires s in (0, 1], got {s}")
        object.__setattr__(self, "s", s)
        self._validate()

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.s

    def ratio_limit_at_zero(self):
        return 1.0 if self.s == 1.0 else None


class TabulatedMajorant(Majorant):
    """Piecewise-linear weight through sampled points, anchored at (0, 0).

    Samples must be finite and abscissae positive and increasing, or
    ParameterRangeError is raised.  Beyond the last sample the weight
    continues with its final value, which preserves the non-increasing ratio
    property; omega(t)/t tends to the first segment's slope at 0.
    """

    kind = "custom"

    def __init__(self, ts, values):
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
            raise ParameterRangeError("tabulation needs matching 1-d arrays of >= 2 points")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(values))):
            raise ParameterRangeError("tabulation abscissae and values must be finite")
        if np.any(np.diff(ts) <= 0) or ts[0] <= 0:
            raise ParameterRangeError("tabulation abscissae must be positive and increasing")
        self._ts = np.concatenate(([0.0], ts))
        self._vals = np.concatenate(([0.0], values))
        self._validate()

    def __call__(self, t):
        return np.interp(t, self._ts, self._vals)

    def ratio_limit_at_zero(self):
        return float(self._vals[1] / self._ts[1])


def validate_majorant(candidate) -> Majorant:
    """Validate a weight descriptor or instance as a majorant.

    Accepts a Majorant (revalidated), the strings ``"id"``/``"identity"``,
    ``"pow:S"``, or a pair ``(ts, values)`` of tabulated samples.  Returns the
    validated majorant or raises MajorantValidationError, or
    ParameterRangeError for an unknown or malformed name.
    """
    if isinstance(candidate, Majorant):
        candidate._validate()
        return candidate
    if isinstance(candidate, str):
        if candidate in ("id", "identity"):
            return IdentityMajorant()
        if candidate.startswith("pow:"):
            try:
                exponent = float(candidate.split(":", 1)[1])
            except ValueError as exc:
                raise ParameterRangeError(str(exc)) from exc
            return PowerMajorant(exponent)
        raise ParameterRangeError(f"unknown majorant descriptor {candidate!r}")
    ts, values = candidate
    return TabulatedMajorant(ts, values)


# --------------------------------------------------------------------------
# Bloch weight parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BlochParams:
    """Parameters (alpha, beta, omega) of the Bloch-type weight.

    The radial weight is chi(t) = (1 - t^2)^alpha * (log(e/(1 - t^2)))^beta,
    so chi(0) = 1; the functional weights the maximal directional derivative
    by omega(chi(|z|)).  alpha > 0 and beta must be finite numbers.
    """

    alpha: float = 1.0
    beta: float = 0.0
    omega: Majorant = None

    def __post_init__(self):
        if not (0.0 < float(self.alpha) < np.inf and np.isfinite(float(self.beta))):
            raise ParameterRangeError("alpha must be positive and finite and beta finite, "
                                      f"got alpha = {self.alpha}, beta = {self.beta}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if self.omega is None:
            object.__setattr__(self, "omega", IdentityMajorant())


def classical_params() -> BlochParams:
    """alpha = 1, beta = 0, omega(t) = t: the classical Bloch functional."""
    return BlochParams(1.0, 0.0, IdentityMajorant())
