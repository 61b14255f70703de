"""Composition operators f -> f o phi and their verdict engines:
the Bloch-to-Hardy criterion integral, the Hardy-to-Bloch supremum and
boundary-limit functionals, and the bounded-below hypothesis probe."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (AnalyticMap, Blaschke, BlochParams, Composed, HarmonicMap,
                   InadmissibleSymbolError, Mobius, ParameterRangeError,
                   Polynomial, PowerKernel, ScaledIdentity, disk_point,
                   lambda_f)
from .extremal import LIP_CONSTANT
from .metrics import rho_array
from .norms import (DEFAULT_PLAN, SamplingPlan, bloch_weight, hardy_norm,
                    sup_grid, weight_from_gap)
from .numerics import (GL_NODES, TWO_PI, QuadratureError, area_uniform_points,
                       dyadic_radius, extrapolate_to_zero, fit_slope,
                       gl_panel_columns, sup_search)

__all__ = [
    "CriterionReport", "is_admissible_symbol", "compose",
    "bloch_to_hardy_criterion", "hardy_to_bloch_q", "hardy_to_bloch_verdict",
    "test_function", "growth_bound_check", "bounded_below_probe", "ProbeReport",
    "schwarz_pick_ratio", "doubling_ratio", "chi_ratio", "doubling_limits",
    "STABILIZATION_TOL", "SLOPE_THRESHOLD",
]

# Two-sided verdict heuristic: stabilization of the truncation ladder versus
# log-linear growth of partial values in -log(1 - R).  Calibrated so the
# closed-form symbols (constant, half-identity, automorphism, identity)
# classify with wide margin.
STABILIZATION_TOL = 1e-4
SLOPE_THRESHOLD = 0.05
_TRUNCATION_LO = 4
_TRUNCATION_HI = 24
_STABLE_RUNGS = 3
# Rounding slack of sup |phi| read on the unit circle: up to 1 + slack is a
# self-map, below 1 - slack a strict contraction.
_ROUNDING_SLACK = 1e-12


@dataclass(frozen=True)
class CriterionReport:
    """Verdict record with numeric evidence and quadrature diagnostics.

    evidence holds (truncation parameter, partial value) pairs, monotone in
    the truncation parameter; estimate is present and finite for affirmative
    verdicts.
    """

    verdict: str
    estimate: float | None
    evidence: tuple
    diagnostics: dict = field(default_factory=dict)

    _AFFIRMATIVE = ("convergent", "compact", "vacuously-compact")
    _ALLOWED = _AFFIRMATIVE + ("divergent", "bounded", "unbounded",
                               "non-compact", "inconclusive")

    def __post_init__(self):
        if self.verdict not in self._ALLOWED:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict in self._AFFIRMATIVE:
            if self.estimate is None or not math.isfinite(self.estimate):
                raise ValueError(
                    f"verdict {self.verdict!r} requires a finite estimate")


# --------------------------------------------------------------------------
# Symbols and composition
# --------------------------------------------------------------------------

def is_admissible_symbol(phi: AnalyticMap) -> bool:
    """Whether phi is an analytic self-map of the open disk; a harmonic pair
    never is.

    Automorphism-type kinds are admissible structurally, except the Blaschke
    product of no factors: a unimodular constant, mapping the disk onto one
    boundary point.  Every other kind is continuous on the closed disk, so by
    the maximum principle phi is a self-map exactly when |phi(0)| < 1 (which
    refuses unimodular constants) and sup |phi| <= 1.  A polynomial whose
    coefficient moduli sum to at most 1 has that bound outright; for the rest
    sup |phi| is its maximum on the unit circle (``hardy_norm`` at p = inf),
    allowed ``_ROUNDING_SLACK`` above 1.
    """
    if isinstance(phi, HarmonicMap):
        return False
    if isinstance(phi, Mobius):
        return True
    if isinstance(phi, Blaschke):
        return len(phi.factors) > 0
    if isinstance(phi, ScaledIdentity):
        return abs(phi.c) <= 1.0
    if isinstance(phi, Polynomial) and sum(map(abs, phi.coefficients)) <= 1.0:
        return abs(complex(phi.eval(0j))) < 1.0
    if not abs(complex(phi.eval(0j))) < 1.0:
        return False
    try:
        return hardy_norm(phi, math.inf).value <= 1.0 + _ROUNDING_SLACK
    except QuadratureError:  # |phi| overflows on the circle
        return False


def _require_symbol(phi):
    if isinstance(phi, HarmonicMap):
        raise InadmissibleSymbolError("a harmonic pair is not an analytic self-map of the disk")
    if not is_admissible_symbol(phi):
        raise InadmissibleSymbolError(
            f"{getattr(phi, 'kind', type(phi).__name__)} is not a self-map of the disk")


def compose(f: HarmonicMap, phi: AnalyticMap) -> HarmonicMap:
    """The composition f o phi as a canonical harmonic pair.

    The conjugate part of f o phi is re-anchored so it vanishes at 0, moving
    the constant conj(g(phi(0))) into the analytic part; pointwise values and
    the maximal directional derivative are unchanged.
    """
    _require_symbol(phi)
    anchor = complex(f.g.eval(complex(phi.eval(0j))))
    h = Composed(f.h, phi, offset=anchor.conjugate())
    g = Composed(f.g, phi, offset=-anchor)
    return HarmonicMap(h, g)


def test_function(b, p: float) -> PowerKernel:
    """Hardy-normalized kernel ((1 - |b|^2)/(1 - conj(b) z)^2)^(1/p).

    Its Hardy p-norm equals 1 for every b in the disk.
    """
    return PowerKernel(disk_point(b), float(p))


def _schwarz_pick(phi, z, w):
    """The Schwarz-Pick ratio at z given w = phi(z), elementwise."""
    return (1.0 - np.abs(z) ** 2) * np.abs(phi.deriv(z)) / (1.0 - np.abs(w) ** 2)


def schwarz_pick_ratio(phi: AnalyticMap, z):
    """(1 - |z|^2) |phi'(z)| / (1 - |phi(z)|^2); at most 1 for self-maps,
    identically 1 for automorphisms.  Follows the AnalyticMap array contract."""
    return _schwarz_pick(phi, z, phi.eval(z))


def _stabilized(rel_changes) -> bool:
    """Whether the last three relative changes of a ladder all lie below the
    stabilization tolerance; a ladder with fewer changes has not shown it."""
    tail = rel_changes[-_STABLE_RUNGS:]
    return len(tail) == _STABLE_RUNGS and all(c < STABILIZATION_TOL for c in tail)


def _ladder_trend(ks, values):
    """The two-sided trend of a truncation ladder, shared by both engines.

    Returns the relative changes between successive rungs (taken against the
    last value), whether they have stabilized, whether the ladder grows, and
    the least-squares slope of the last eight values against k log 2, i.e.
    against -log(1 - R_k).  Growth needs a slope above ``SLOPE_THRESHOLD``
    over at least ``_STABLE_RUNGS + 1`` rungs, the evidence stabilization
    needs: a fit through fewer points claims more than they show.  It also
    needs the top rung to rise by at least ``STABILIZATION_TOL``: the slope of
    a ladder that has levelled off still carries its earlier rise.
    """
    scale = max(abs(values[-1]), 1e-300)
    rel_changes = [abs(values[i] - values[i - 1]) / scale
                   for i in range(1, len(values))]
    xs = [k * math.log(2.0) for k in ks[-8:]]
    slope = fit_slope(xs, values[-8:])
    stabilized = _stabilized(rel_changes)
    growing = (not stabilized and len(values) > _STABLE_RUNGS
               and slope > SLOPE_THRESHOLD and rel_changes[-1] >= STABILIZATION_TOL)
    return rel_changes, stabilized, growing, slope


# --------------------------------------------------------------------------
# Bloch -> Hardy criterion integral
# --------------------------------------------------------------------------

def bloch_to_hardy_criterion(phi: AnalyticMap, params: BlochParams, p: float,
                             plan: SamplingPlan | None = None) -> CriterionReport:
    """Truncation ladder for the criterion integral

        (1/2pi) int_0^2pi ( int_0^1 |phi'|^2 (1-r) / omega(chi(|phi|))^2 dr )^(p/2) dtheta.

    The inner integral is accumulated over dyadic panels toward r = 1 and the
    angular mean is reported at truncations R_k = 1 - 2^-k for k = 4..24.
    Stabilization of the last rungs gives ``convergent`` (for this criterion,
    bounded and compact coincide); a positive log-linear growth fit gives
    ``divergent``; otherwise ``inconclusive``.

    Each panel takes phi and phi' from one ``phi.jet`` call, so phi must be
    an ``AnalyticMap``; any other symbol raises TypeError.
    """
    _require_symbol(phi)
    if not isinstance(phi, AnalyticMap):
        raise TypeError(f"criterion requires an AnalyticMap symbol, got {type(phi).__name__}")
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ParameterRangeError(f"criterion requires finite p > 0, got {p}")
    plan = plan or DEFAULT_PLAN

    n_angles = plan.angular_resolution
    thetas = np.arange(n_angles) * (TWO_PI / n_angles)
    phases = np.exp(1j * thetas)
    omega = params.omega

    def panel_columns(r):
        w, dw = phi.jet(r[:, None] * phases[None, :])
        gap_weight = omega(bloch_weight(params, np.abs(w)))
        return np.abs(dw) ** 2 * (1.0 - r)[:, None] / gap_weight ** 2

    inner = np.zeros(n_angles)
    evidence = []
    for k in range(_TRUNCATION_HI):
        inner = inner + gl_panel_columns(panel_columns,
                                         dyadic_radius(k), dyadic_radius(k + 1))
        if k + 1 >= _TRUNCATION_LO:
            evidence.append((k + 1, float(np.mean(inner ** (p / 2.0)))))

    ks = [k for k, _ in evidence]
    vals = [v for _, v in evidence]
    rel_changes, stabilized, growing, slope = _ladder_trend(ks, vals)

    diagnostics = {
        "angular_nodes": n_angles,
        "radial_nodes_per_panel": GL_NODES,
        "growth_fit_slope": slope,
        "last_rel_changes": rel_changes[-3:],
        "stabilization_tol": STABILIZATION_TOL,
        "slope_threshold": SLOPE_THRESHOLD,
        "note": "finite criterion integral: operator bounded, equivalently compact",
    }
    if stabilized:
        verdict, estimate = "convergent", float(vals[-1])
    elif growing:
        verdict, estimate = "divergent", None
    else:
        verdict, estimate = "inconclusive", None
    return CriterionReport(verdict, estimate, tuple(evidence), diagnostics)


# --------------------------------------------------------------------------
# Hardy -> Bloch functionals
# --------------------------------------------------------------------------

def _check_hardy_to_bloch_params(params: BlochParams, p: float):
    """ParameterRangeError outside the paper's range: p > 1, alpha = 1 with beta <= 0
    or alpha > 1, and a finite ``omega.ratio_limit_at_zero()`` (exact, per kind)."""
    if not p > 1.0:
        raise ParameterRangeError(f"requires p > 1, got {p}")
    ok = (params.alpha == 1.0 and params.beta <= 0.0) or params.alpha > 1.0
    if not ok:
        raise ParameterRangeError(
            f"(alpha, beta) = ({params.alpha}, {params.beta}) outside the "
            "supported range: alpha = 1 with beta <= 0, or alpha > 1")
    if params.omega.ratio_limit_at_zero() is None:
        raise ParameterRangeError(
            "majorant must have a finite limit of omega(t)/t at 0")


def _q(phi, params, p, z, w):
    """Q at z given w = phi(z), elementwise; builtin ``abs`` as in bloch_values."""
    weight = params.omega(bloch_weight(params, abs(z)))
    return abs(phi.deriv(z)) * weight / (1.0 - abs(w) ** 2) ** (1.0 + 1.0 / p)


def hardy_to_bloch_q(phi: AnalyticMap, params: BlochParams, p: float, z) -> float:
    """Boundedness functional Q(z) = |phi'(z)| omega(chi(|z|)) / (1-|phi(z)|^2)^(1+1/p)."""
    _check_hardy_to_bloch_params(params, float(p))
    _require_symbol(phi)
    z = disk_point(z)
    return float(_q(phi, params, p, z, complex(phi.eval(z))))


def hardy_to_bloch_verdict(phi: AnalyticMap, params: BlochParams, p: float,
                           plan: SamplingPlan | None = None) -> CriterionReport:
    """Boundedness and compactness verdicts from the functional Q.

    Boundedness: the running supremum of Q on the rings r = 0 and r_j up
    the plan's radial ladder, at the angles of ``sup_grid``, either
    stabilizes (bounded, with a supremum estimate refined on ``sup_grid``) or
    grows under the log-linear fit (unbounded); a ladder of fewer than four
    rungs shows neither and is inconclusive.  Growth is unbounded only when
    phi touches the circle: every library map has phi' bounded on the closed
    disk and the weight is bounded, so Q is bounded when sup |phi| < 1, and
    a growing ladder of such a strict contraction is inconclusive.
    Compactness: when sup |phi| stays below 1 - 1e-6 the boundary-limit
    condition holds vacuously; otherwise band maxima of Q over
    {|phi(z)| > 1 - 2^-k} must decay to zero.  sup |phi| (``sup_phi``) is
    its maximum on the unit circle, ``hardy_norm`` at p = inf.  phi is
    evaluated once on the ladder rings and, on the bounded path, once on the
    grid, whose moduli make the bands.
    """
    p = float(p)
    _check_hardy_to_bloch_params(params, p)
    _require_symbol(phi)
    plan = plan or DEFAULT_PLAN

    grid = sup_grid()
    _, angles, zgrid = grid
    ladder = plan.ladder
    # The ladder rings alone first: most verdicts end there (unbounded or
    # inconclusive), and the default ladder's rings are 1/4 of the grid.
    rings = np.array([0.0] + ladder)[:, None] * np.exp(1j * angles)[None, :]
    ring_max = np.max(_q(phi, params, p, rings, phi.eval(rings)), axis=1).tolist()
    # Python's max, as a per-ring loop takes it: a later NaN ring is skipped
    running = list(itertools.accumulate(ring_max, max))[1:]
    evidence = tuple(zip(ladder, running))

    rel_changes, stabilized, growing, slope = _ladder_trend(range(1, len(ladder) + 1), running)

    diagnostics = {
        "growth_fit_slope": slope,
        "last_rel_changes": rel_changes[-3:],
        "bounded": None,
    }
    if growing:
        diagnostics["sup_phi"] = sup_phi = hardy_norm(phi, math.inf).value
        if sup_phi < 1.0 - _ROUNDING_SLACK:
            return CriterionReport("inconclusive", None, evidence, diagnostics)
        diagnostics["bounded"] = False
        return CriterionReport("unbounded", None, evidence, diagnostics)
    if not stabilized:
        return CriterionReport("inconclusive", None, evidence, diagnostics)

    wgrid = phi.eval(zgrid)
    qgrid = _q(phi, params, p, zgrid, wgrid)
    sup_q, _, res = sup_search(lambda z: _q(phi, params, p, z, phi.eval(z)), grid,
                               values=qgrid)
    diagnostics["bounded"] = True
    diagnostics["sup_resolution"] = float(res[0])

    diagnostics["sup_phi"] = sup_phi = hardy_norm(phi, math.inf).value
    if sup_phi <= 1.0 - 1e-6:
        return CriterionReport("vacuously-compact", float(sup_q), evidence,
                               diagnostics)

    band_maxima = []  # bands k = 1, 2, ... up to the first empty one
    phi_mod = np.abs(wgrid)
    for k in range(1, 19):
        mask = phi_mod > dyadic_radius(k)
        if not np.any(mask):
            break
        band_maxima.append(float(np.max(qgrid[mask])))
    diagnostics["band_maxima"] = band_maxima
    # decay of band maxima toward the boundary bands: geometric decay (or
    # absolute smallness against the supremum) reads as a vanishing limit
    if len(band_maxima) >= 3:
        floor = 1e-300
        decay_slope = fit_slope(range(1, len(band_maxima) + 1),
                                [math.log(max(b, floor)) for b in band_maxima])
        diagnostics["band_decay_slope"] = decay_slope
        tiny = band_maxima[-1] <= 1e-3 * max(sup_q, floor)
        if tiny or decay_slope < -0.05:
            return CriterionReport("compact", float(sup_q), evidence, diagnostics)
        if decay_slope > -0.005:
            return CriterionReport("non-compact", float(sup_q), evidence,
                                   diagnostics)
    return CriterionReport("inconclusive", float(sup_q), evidence, diagnostics)


# --------------------------------------------------------------------------
# Growth bound and bounded-below probe
# --------------------------------------------------------------------------

def growth_bound_check(f: HarmonicMap, p: float, z,
                       plan: SamplingPlan | None = None) -> dict:
    """Pointwise growth bound for Hardy-class harmonic maps:

        Lambda_f(z) <= 4^(1/p) (||h||_p + ||g||_p) / (1 - |z|^2)^(1 + 1/p).

    Returns {"lhs", "rhs", "ok"}; a Hardy norm whose circle mean does not
    stabilize raises QuadratureError.
    """
    p = float(p)
    if not p > 1.0:
        raise ParameterRangeError(f"growth bound requires p > 1, got {p}")
    z = disk_point(z)
    plan = plan or DEFAULT_PLAN
    h_norm = hardy_norm(f.h, p, plan).value
    g_norm = hardy_norm(f.g, p, plan).value
    lhs = float(lambda_f(f, z))
    gap = 1.0 - abs(z) ** 2
    rhs = 4.0 ** (1.0 / p) * (h_norm + g_norm) / gap ** (1.0 + 1.0 / p)
    return {"lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs * (1.0 + 1e-10))}


@dataclass(frozen=True)
class ProbeReport:
    """Bounded-below hypothesis probe summary."""

    fraction: float
    implied_constant: float | None
    samples: int
    grid_points: int
    unmatched: tuple = ()


# Upper end of the admissible radius for the bounded-below hypothesis.
PROBE_RADIUS_SUP = 2.0 * math.sqrt(3.0) / 9.0


# Largest targets x candidates distance block the probe's grid scan holds
# at once (complex128: 4 MB); wider blocks raise peak memory and gain nothing.
_PROBE_CHUNK_ELEMENTS = 2 ** 18


def _local_hits(phi, targets, r, epsilon):
    """Which targets w are matched by their own candidates w and phi(w).

    A candidate z counts when it lies in the disk and its Schwarz-Pick ratio
    exceeds ``epsilon``; w is matched when rho(phi(z), w) < r for one of them.
    """
    local = np.stack([targets, phi.eval(targets)], axis=-1)
    inside = np.abs(local) < 1.0
    z = local[inside]
    w = np.broadcast_to(targets[:, None], local.shape)[inside]
    img = phi.eval(z)
    matched = np.zeros(local.shape, dtype=bool)
    matched[inside] = (_schwarz_pick(phi, z, img) > epsilon) & (rho_array(img, w) < r)
    return np.any(matched, axis=-1)


def bounded_below_probe(phi: AnalyticMap, r: float, epsilon: float,
                        samples: int, seed: int = 0) -> ProbeReport:
    """Grid search for the bounded-below hypothesis of composition symbols.

    For each of ``samples`` area-uniform targets w, look for a point z with
    rho(phi(z), w) < r and (1-|z|^2)|phi'(z)|/(1-|phi(z)|^2) > epsilon.
    Candidates are the points of ``sup_grid`` plus, per target, w itself and
    phi(w) (exact pre-images for the identity and for involutive
    automorphisms).
    The local candidates of all targets are tried first, in one array call;
    the grid candidates are built only when targets are left unmatched, and
    only those targets are measured against them, in blocks of at most
    ``_PROBE_CHUNK_ELEMENTS`` distances.
    When every target is matched the implied lower-bound constant
    (1 - (3 sqrt(3)/2) r) * epsilon is reported.  Failure to match at this
    resolution is reported as unmatched, not as a refutation.
    """
    r = float(r)
    epsilon = float(epsilon)
    if not 0.0 < r < PROBE_RADIUS_SUP:
        raise ParameterRangeError(
            f"r must lie in (0, {PROBE_RADIUS_SUP:.10f}), got {r}")
    if not epsilon > 0.0:
        raise ParameterRangeError(f"epsilon must be positive, got {epsilon}")
    if samples < 1:
        raise ParameterRangeError("samples must be >= 1")
    _require_symbol(phi)

    points = sup_grid()[2]
    targets = area_uniform_points(np.random.default_rng(seed), samples)
    hit = _local_hits(phi, targets, r, epsilon)
    miss = np.flatnonzero(~hit)
    if miss.size:
        z = points.ravel()
        img = phi.eval(z)
        candidates = img[_schwarz_pick(phi, z, img) > epsilon]
        chunk = max(1, _PROBE_CHUNK_ELEMENTS // max(1, candidates.size))
        for start in range(0, miss.size, chunk):
            rows = miss[start:start + chunk]
            dist = rho_array(candidates, targets[rows, None])
            # with no grid candidates the minimum is inf: nothing matches
            hit[rows] = np.min(dist, axis=-1, initial=np.inf) < r
    hits = int(np.count_nonzero(hit))
    unmatched = [complex(w) for w in targets[~hit][:8]]
    fraction = hits / samples
    implied = (1.0 - LIP_CONSTANT * r) * epsilon if fraction == 1.0 else None
    return ProbeReport(fraction, implied, samples, points.size, tuple(unmatched))


# --------------------------------------------------------------------------
# Doubling behaviour of the reciprocal weight
# --------------------------------------------------------------------------

def _doubling_chis(alpha, beta, s):
    """chi(1-s) and chi(1-s/2) for s in (0, 1], through the gaps u = s(2-s)."""
    if not 0.0 < s <= 1.0:
        raise ParameterRangeError(f"s must lie in (0, 1], got {s}")
    return (weight_from_gap(alpha, beta, s * (2.0 - s)),
            weight_from_gap(alpha, beta, (0.5 * s) * (2.0 - 0.5 * s)))


def chi_ratio(alpha: float, beta: float, s: float) -> float:
    """chi(1-s) / chi(1-s/2) computed through the gap u = s(2-s).

    Stays bounded over s in (0, 1]; tends to 2^alpha as s -> 0 and to
    (4/3)^alpha / (1 + log(4/3))^beta at s = 1.
    """
    chi1, chi2 = _doubling_chis(alpha, beta, s)
    return float(chi1 / chi2)


def doubling_ratio(params: BlochParams, s: float) -> float:
    """Reciprocal-weight ratio omega(chi(1-s)) / omega(chi(1-s/2)).

    By the non-increasing ratio property of majorants this never exceeds
    chi_ratio(alpha, beta, s); they coincide for the identity majorant.
    """
    chi1, chi2 = _doubling_chis(params.alpha, params.beta, s)
    return float(params.omega(chi1) / params.omega(chi2))


def doubling_limits(alpha: float, beta: float) -> tuple:
    """Endpoint limits of chi(1-s)/chi(1-s/2).

    The s -> 0 limit is recovered by Neville extrapolation in 1/(1 - log s)
    (the log factors converge at that rate); the s -> 1 limit is the direct
    endpoint value.  Expected values: 2^alpha and (4/3)^alpha/(1+log(4/3))^beta.
    """
    js = [28.0, 31.0, 34.0, 37.0, 40.0, 43.0]
    us = [1.0 / (1.0 + j * math.log(2.0)) for j in js]
    vals = [chi_ratio(alpha, beta, 2.0 ** -j) for j in js]
    limit0 = extrapolate_to_zero(us, vals)
    limit1 = chi_ratio(alpha, beta, 1.0)
    return float(limit0), float(limit1)
