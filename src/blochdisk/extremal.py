"""Sharp-bound machinery for normalized Bloch functions: the profile root,
two-sided derivative bounds, the extremal antiderivative family, and the
Lipschitz-constant scanner with its sharpness witness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (AnalyticMap, DegeneratePairError, HarmonicMap,
                   ParameterRangeError, Polynomial, ZeroSeminormError,
                   as_harmonic, classical_params, disk_point)
from .metrics import rho, rho_array
from .norms import bloch_functional, bloch_seminorm, bloch_values
from .numerics import LADDER, TWO_PI, area_uniform_points

__all__ = [
    "LIP_CONSTANT", "a0", "psi", "ExtremalSolution", "m_root",
    "deriv_lower_bound", "deriv_upper_bound",
    "QuadraticExtremal", "AntiderivativeExtremal", "f_beta",
    "lipschitz_ratio", "lipschitz_scan", "ScanReport",
    "sharpness_witness", "WitnessReport", "random_normalized_corpus",
]

# Sharp Lipschitz constant of the classical Bloch functional with respect to
# the pseudo-hyperbolic metric: 3*sqrt(3)/2.
LIP_CONSTANT = 1.5 * math.sqrt(3.0)


def a0(alpha: float) -> float:
    """Peak location 1/sqrt(1 + 2 alpha) of the profile x (1 - x^2)^alpha."""
    if not 0 < alpha < math.inf:
        raise ParameterRangeError(f"alpha must be positive and finite, got {alpha}")
    return 1.0 / math.sqrt(1.0 + 2.0 * alpha)


def psi(x, alpha: float):
    """Normalized profile sqrt(1+2a) ((1+2a)/(2a))^a x (1 - x^2)^a on [0, 1].

    Increasing on [0, a0(alpha)], decreasing on [a0(alpha), 1], with value 1
    at the peak.  Vectorized over x.
    """
    if not 0 < alpha < math.inf:
        raise ParameterRangeError(f"alpha must be positive and finite, got {alpha}")
    scale = math.sqrt(1.0 + 2.0 * alpha) * ((1.0 + 2.0 * alpha) / (2.0 * alpha)) ** alpha
    return scale * x * (1.0 - x * x) ** alpha


@dataclass(frozen=True)
class ExtremalSolution:
    """Root data for psi(x) = r0 on [0, a0(alpha)].

    m solves the equation to the recorded residual; 0 <= m <= a0.
    """

    alpha: float
    r0: float
    a0: float
    m: float
    residual: float


def m_root(r0: float, alpha: float) -> ExtremalSolution:
    """Unique root of psi(x; alpha) = r0 in [0, a0(alpha)], by bisection.

    psi is strictly increasing on the bracket, so bisection is guaranteed;
    m_root(1) = a0 exactly.  A residual |psi(m) - r0| above 1e-12 or not
    finite (psi loses precision past alpha ~3e10) raises ParameterRangeError.
    """
    r0 = float(r0)
    if not 0.0 < r0 <= 1.0:
        raise ParameterRangeError(f"r0 must lie in (0, 1], got {r0}")
    peak = a0(alpha)
    lo, hi = (peak if r0 == 1.0 else 0.0), peak  # r0 = 1 is psi's peak, at a0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if psi(mid, alpha) < r0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17:
            break
    m = 0.5 * (lo + hi)
    if not (residual := abs(psi(m, alpha) - r0)) <= 1e-12:
        raise ParameterRangeError(
            f"no root of psi(x; alpha) = r0 within 1e-12 at alpha = {alpha}: residual {residual}")
    return ExtremalSolution(alpha, r0, peak, m, residual)


def deriv_lower_bound(r0: float, alpha: float, z):
    """Pointwise lower bound on Re(f') for a normalized function with
    f'(0) = r0: r0 (m - |z|) / (m (1 - m |z|)^(1 + 2 alpha)).

    Valid for |z| <= (a0 + m)/(1 + a0 m); returns None outside that radius.
    """
    z = disk_point(z)
    sol = m_root(r0, alpha)
    radius = (sol.a0 + sol.m) / (1.0 + sol.a0 * sol.m)
    s = abs(z)
    if s > radius:
        return None
    return r0 * (sol.m - s) / (sol.m * (1.0 - sol.m * s) ** (1.0 + 2.0 * alpha))


def deriv_upper_bound(r0: float, alpha: float, z):
    """Pointwise upper bound on |f'|: r0 (m + |z|) / (m (1 + m |z|)^(1 + 2 alpha)).

    Valid for |z| <= (a0 - m)/(1 - a0 m); returns None outside that radius.
    """
    z = disk_point(z)
    sol = m_root(r0, alpha)
    radius = (sol.a0 - sol.m) / (1.0 - sol.a0 * sol.m)
    s = abs(z)
    if s > radius + 1e-15:
        return None
    return r0 * (sol.m + s) / (sol.m * (1.0 + sol.m * s) ** (1.0 + 2.0 * alpha))


# --------------------------------------------------------------------------
# Extremal analytic maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticExtremal(AnalyticMap):
    """f(z) = -(3 sqrt(3) / 4) z^2; its classical Bloch seminorm equals 1,
    attained at |z| = 1/sqrt(3)."""

    kind = "quadratic-extremal"

    def eval(self, z):
        return (-0.5 * LIP_CONSTANT) * np.asarray(z) ** 2

    def deriv(self, z):
        return -LIP_CONSTANT * z


@dataclass(frozen=True)
class AntiderivativeExtremal(AnalyticMap):
    """Antiderivative of beta (m - z) / (m (1 - m z)^3) with value 0 at 0,
    where m is the profile root for r0 = beta at alpha = 1.

    Unit classical Bloch seminorm; the functional at z equals the functional
    of the quadratic extremal at (m - z)/(1 - m z).
    """

    beta: float
    kind = "antiderivative-extremal"

    def __post_init__(self):
        beta = float(self.beta)
        if not 0.0 < beta <= 1.0:
            raise ParameterRangeError(f"beta must lie in (0, 1], got {beta}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_m", m_root(beta, 1.0).m)

    @property
    def m(self) -> float:
        return self._m

    def eval(self, z):
        # Partial fractions in u = 1 - m z give (beta/m^3) [(m^2 - 1)/(2 u^2) +
        # 1/u - (m^2 + 1)/2], whose O(1) terms cancel to O(m^2) for small beta:
        # the bracket is summed exactly as m^2 z (m (2 - m z) - z) / (2 u^2).
        m, beta = self._m, self.beta
        z = np.asarray(z, dtype=complex)
        return beta * z * (m * (2.0 - m * z) - z) / (2.0 * m * (1.0 - m * z) ** 2)

    def deriv(self, z):
        m, beta = self._m, self.beta
        z = np.asarray(z, dtype=complex)
        return beta * (m - z) / (m * (1.0 - m * z) ** 3)


def f_beta(beta: float, z) -> complex:
    """Value at z of the extremal antiderivative with initial slope beta."""
    return complex(AntiderivativeExtremal(beta).eval(disk_point(z)))


# --------------------------------------------------------------------------
# Lipschitz scanner
# --------------------------------------------------------------------------

def lipschitz_ratio(f: HarmonicMap, z1, z2) -> float:
    """|B(z1) - B(z2)| / rho(z1, z2) for the classical Bloch functional B.

    Raises DegeneratePairError when the points are pseudo-hyperbolically
    closer than 1e-14.
    """
    params = classical_params()
    z1 = disk_point(z1)
    z2 = disk_point(z2)
    dist = rho(z1, z2)
    if dist < 1e-14:
        raise DegeneratePairError(f"pair ({z1}, {z2}) has rho < 1e-14")
    b1 = bloch_functional(f, params, z1)
    b2 = bloch_functional(f, params, z2)
    return abs(b1 - b2) / dist


@dataclass(frozen=True)
class ScanReport:
    """Empirical Lipschitz scan summary for one map."""

    max_ratio: float
    argmax_pair: tuple
    seminorm: float
    cap: float
    cap_ok: bool
    pairs_evaluated: int


def _structured_pairs():
    """Radial and near-boundary pairs where the difference quotient peaks: on
    each of four rays, (0, r_j) and (r_j, r_j+1) up ``LADDER``, and a short
    arc at its top; 160 pairs, read-only."""
    firsts, seconds = [], []
    for phase in np.exp(1j * np.arange(4) * (TWO_PI / 4)):
        for j, r in enumerate(LADDER):
            firsts.append(0j)
            seconds.append(r * phase)
            if j + 1 < len(LADDER):
                firsts.append(r * phase)
                seconds.append(LADDER[j + 1] * phase)
        top = LADDER[-1]
        firsts.append(top * phase)
        seconds.append(top * phase * np.exp(0.01j))
    pairs = np.array(firsts), np.array(seconds)
    for array in pairs:
        array.flags.writeable = False
    return pairs


_STRUCTURED_PAIRS = _structured_pairs()


def lipschitz_scan(f: HarmonicMap | AnalyticMap, pairs: int, seed: int) -> ScanReport:
    """Max of the classical functional's difference quotient over sampled
    point pairs.

    ``f`` may be a bare AnalyticMap, whose ``lambda_f`` is |f'|.  ``pairs``
    (at least 1) are area-uniform (uniform in radius squared and angle),
    augmented with the 160 structured radial and near-boundary pairs of
    ``_structured_pairs``, so ``pairs + 160`` are evaluated.  The empirical
    maximum is verified against the cap (3 sqrt(3)/2) * seminorm with
    relative tolerance 1e-4, which absorbs the supremum-estimation resolution.
    """
    if pairs < 1:
        raise ParameterRangeError("pairs must be >= 1")
    params = classical_params()
    seminorm = bloch_seminorm(f, params).value
    if seminorm <= 1e-12:
        raise ZeroSeminormError("lipschitz scan needs a nonzero seminorm")

    z = area_uniform_points(np.random.default_rng(seed), 2 * pairs)
    z1, z2 = z[:pairs], z[pairs:]
    s1, s2 = _STRUCTURED_PAIRS
    z1 = np.concatenate([z1, s1])
    z2 = np.concatenate([z2, s2])

    bvals1 = bloch_values(f, params, z1)
    bvals2 = bloch_values(f, params, z2)
    dist = rho_array(z1, z2)
    ok = dist >= 1e-14
    ratios = np.where(ok, np.abs(bvals1 - bvals2) / np.where(ok, dist, 1.0), 0.0)
    idx = int(np.argmax(ratios))
    max_ratio = float(ratios[idx])
    cap = LIP_CONSTANT * seminorm
    return ScanReport(
        max_ratio=max_ratio,
        argmax_pair=(complex(z1[idx]), complex(z2[idx])),
        seminorm=seminorm,
        cap=cap,
        cap_ok=bool(max_ratio <= cap * (1.0 + 1e-4) + 1e-12),
        pairs_evaluated=int(len(ratios)),
    )


@dataclass(frozen=True)
class WitnessReport:
    """A constructed pair achieving the sharp Lipschitz constant up to eps."""

    epsilon: float
    m_star: float
    beta: float
    z1: complex
    z2: complex
    achieved_ratio: float
    floor: float


def sharpness_witness(epsilon: float) -> WitnessReport:
    """Construct an extremal map and pair with ratio >= 3 sqrt(3)/2 - epsilon.

    m* = min(a0(1), sqrt(2 sqrt(3) eps)/3) and beta = (3 sqrt(3)/2) m* (1-m*^2);
    the pair is (m*, 0).  Below the branch point eps = sqrt(3)/2 the achieved
    ratio equals 3 sqrt(3)/2 - eps identically.  A ratio more than 1e-9 below
    it, as ``m_root`` gives for eps near 1e-16, raises ParameterRangeError.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= LIP_CONSTANT + 1e-15:
        raise ParameterRangeError(
            f"epsilon must lie in (0, {LIP_CONSTANT:.9f}], got {epsilon}")
    m_star = min(a0(1.0), math.sqrt(2.0 * math.sqrt(3.0) * epsilon) / 3.0)
    if m_star == a0(1.0):
        beta = 1.0  # the profile peak: exact by construction
    else:
        beta = LIP_CONSTANT * m_star * (1.0 - m_star * m_star)
    fmap = as_harmonic(AntiderivativeExtremal(beta))
    z1, z2 = complex(m_star), 0j
    achieved = lipschitz_ratio(fmap, z1, z2)
    floor = LIP_CONSTANT - epsilon
    if achieved < floor - 1e-9:
        raise ParameterRangeError(f"witness ratio {achieved} fell below {floor}")
    return WitnessReport(epsilon, m_star, beta, z1, z2, achieved, floor)


def random_normalized_corpus(count: int, seed: int, degree: int = 12):
    """Random harmonic maps with unit classical Bloch seminorm.

    Each map has analytic parts of the given degree with coefficients drawn
    uniformly from the complex unit box; the conjugate part has no constant
    term.  Both parts are rescaled by the map's seminorm.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        hc = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        gc = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        gc[0] = 0.0
        f = HarmonicMap(Polynomial(tuple(hc)), Polynomial(tuple(gc)))
        scale = bloch_seminorm(f, classical_params()).value
        corpus.append(HarmonicMap(Polynomial(tuple(hc / scale)),
                                  Polynomial(tuple(gc / scale))))
    return corpus
