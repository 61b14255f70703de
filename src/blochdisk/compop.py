"""Composition operators f -> f o phi and their verdict engines:
the Bloch-to-Hardy criterion integral, the Hardy-to-Bloch supremum and
boundary-limit functionals, and the bounded-below hypothesis probe."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (AnalyticMap, Blaschke, BlochParams, Composed, HarmonicMap,
                   InadmissibleSymbolError, Mobius, ParameterRangeError,
                   Polynomial, PowerKernel, ScaledIdentity, disk_point,
                   lambda_f)
from .extremal import LIP_CONSTANT
from .metrics import rho_array
from .norms import DEFAULT_PLAN, SamplingPlan, bloch_weight, hardy_norm, weight_from_gap
from .numerics import (BLOCK_POINTS, GL_NODES, LADDER, QuadratureError, area_uniform_points,
                       circle_means, dyadic_radius, extrapolate_to_zero,
                       gl_panel_columns, sup_grid, sup_search)

__all__ = [
    "CriterionReport", "is_admissible_symbol", "compose",
    "bloch_to_hardy_criterion", "hardy_to_bloch_q", "hardy_to_bloch_verdict",
    "test_function", "growth_bound_check", "bounded_below_probe", "ProbeReport",
    "schwarz_pick_ratio", "doubling_ratio", "chi_ratio", "doubling_limits",
]

_TRUNCATION_LO = 4
_TRUNCATION_HI = 24
# Rounding slack of sup |phi| read on the unit circle: up to 1 + slack is a
# self-map, from 1 - slack on a symbol that touches the circle.
_ROUNDING_SLACK = 1e-12
# sup |phi| at most 1 - _CONTACT_GAP is no contact with the circle.
_CONTACT_GAP = 1e-6
# The criterion's angular mean starts at no more than _ANGLES_START angles
# and doubles up to _ANGLES_CAP; each phi.jet call holds at most BLOCK_POINTS
# points.
_ANGLES_START = 16
_ANGLES_CAP = 2 ** 12


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
    _ALLOWED = _AFFIRMATIVE + ("divergent", "unbounded", "non-compact", "inconclusive")

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
    """Whether phi is an analytic self-map of the open disk (``_symbol``); a
    harmonic pair never is."""
    try:
        _symbol(phi)
    except InadmissibleSymbolError:
        return False
    return True


def _symbol(phi):
    """``(contact, sup_phi)`` for an analytic self-map phi of the disk;
    InadmissibleSymbolError for anything else.

    Harmonic pairs are refused.  Automorphisms and Blaschke products of at
    least one factor are ``("whole", 1.0)`` by kind: |phi| = 1 on the
    circle.  ``c z`` and one-term polynomials ``c z^n`` take sup |phi| = |c|;
    any other map reads it once on the unit circle, as ``hardy_norm`` at
    p = inf, an overflow there being refused.  Every kind is continuous on
    the closed disk, so by the maximum principle phi is a self-map exactly
    when |phi(0)| < 1 (which refuses unimodular constants, the Blaschke
    product of no factors among them, without sampling) and sup |phi| <= 1,
    allowing ``_ROUNDING_SLACK`` above 1.

    The contact is how phi meets the unit circle: ``"none"`` when
    sup |phi| <= 1 - ``_CONTACT_GAP``; ``"whole"`` for the kinds above that
    touch it; ``"isolated"`` for any other touching polynomial, as only
    c z^n is unimodular on an arc; ``"undecided"`` when sup |phi| lies in
    (1 - ``_CONTACT_GAP``, 1 - ``_ROUNDING_SLACK``), or for a touching map of
    any other kind.  Touching is sup |phi| >= 1 - ``_ROUNDING_SLACK``.
    """
    if isinstance(phi, HarmonicMap):
        raise InadmissibleSymbolError("a harmonic pair is not an analytic self-map of the disk")
    if isinstance(phi, Mobius) or (isinstance(phi, Blaschke) and phi.factors):
        return "whole", 1.0
    if isinstance(phi, ScaledIdentity):
        shape, at_zero, sup_phi = "whole", 0.0, abs(phi.c)
    elif isinstance(phi, Blaschke):  # no factors: the constant phi(0), unimodular
        shape, at_zero, sup_phi = "whole", 1.0, 1.0
    else:
        at_zero = abs(complex(phi.eval(0j)))
        if isinstance(phi, Polynomial) and sum(map(bool, phi.coefficients)) <= 1:
            shape, sup_phi = "whole", max(map(abs, phi.coefficients), default=0.0)
        else:
            shape = "isolated" if isinstance(phi, Polynomial) else "undecided"
            try:  # sup |phi| >= |phi(0)|, which refuses phi without the circle
                sup_phi = hardy_norm(phi, math.inf).value if at_zero < 1.0 else at_zero
            except QuadratureError:  # |phi| overflows on the circle
                sup_phi = math.inf
    if not (at_zero < 1.0 and sup_phi <= 1.0 + _ROUNDING_SLACK):
        raise InadmissibleSymbolError(
            f"{getattr(phi, 'kind', type(phi).__name__)} is not a self-map of the disk")
    if sup_phi <= 1.0 - _CONTACT_GAP:
        return "none", sup_phi
    if sup_phi < 1.0 - _ROUNDING_SLACK:
        return "undecided", sup_phi
    return shape, sup_phi


def compose(f: HarmonicMap, phi: AnalyticMap) -> HarmonicMap:
    """The composition f o phi as a canonical harmonic pair.

    The conjugate part of f o phi is re-anchored so it vanishes at 0, moving
    the constant conj(g(phi(0))) into the analytic part; pointwise values and
    the maximal directional derivative are unchanged.
    """
    _symbol(phi)
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


# --------------------------------------------------------------------------
# Bloch -> Hardy criterion integral
# --------------------------------------------------------------------------

def bloch_to_hardy_criterion(phi: AnalyticMap, params: BlochParams, p: float,
                             plan: SamplingPlan | None = None) -> CriterionReport:
    """Truncation ladder for the criterion integral

        (1/2pi) int_0^2pi ( int_0^1 |phi'|^2 (1-r) / omega(chi(|phi|))^2 dr )^(p/2) dtheta.

    The inner integral is accumulated over dyadic panels toward r = 1; the
    evidence is the angular mean at R_k = 1 - 2^-k for k = 4..24, and its top
    rung is the estimate of a convergent integral.

    The angular mean is ``numerics.circle_means`` of the rungs: it starts at
    min(``plan.angular_resolution``, 16) angles and doubles, reusing the
    earlier angles, until every rung has changed by at most
    ``plan.refinement_tol * max(1, |mean|)`` at two consecutive doublings,
    or until 4096 angles.  The diagnostics report the final count
    (``angular_nodes``), whether the rungs settled (``angular_settled``) and
    their largest relative change at the last doubling (``angular_change``).
    A mean that has not settled, as at the isolated contact of (1 + z)/2,
    leaves the verdict as it is: it never reads the ladder.

    The verdict (bounded and compact coincide here) is read from the contact
    (``_symbol``) and a = alpha s, b = beta s, s = ``omega.order_at_zero()``,
    so omega(chi) ~ u^a log^b(1/u) in u = 1 - |phi|^2, which near a contact
    is comparable to 1 - |z|^2 (Julia-Caratheodory).  On the whole circle
    the inner integral behaves as int u^(1 - 2a) log^(-2b)(1/u) du; at an
    isolated contact of order 2m, as |theta - theta_0|^(2m(2 - 2a)) for
    a > 1.  ``convergent``: no contact, or a < 1, or a = 1 at an isolated
    contact, or a = 1 < 2b on the whole circle.  ``divergent``: any other
    whole-circle case, or an isolated contact with 2p(a - 1) > 1, whatever
    m.  ``inconclusive``: isolated contacts with 1 < a <= 1 + 1/(2p),
    undecided contacts with a >= 1, and a convergent case whose top rung is
    not finite in floating point (an extreme weight: 1/omega^2 overflows).

    Each round sweeps its new angles over all 24 panels by
    ``gl_panel_columns`` in rings of at most 256 angles, so each block takes
    phi and phi' from one ``phi.jet`` call of at most ``BLOCK_POINTS`` (2^12)
    points; phi must be an ``AnalyticMap``, and any other raises TypeError.
    """
    contact, sup_phi = _symbol(phi)
    if not isinstance(phi, AnalyticMap):
        raise TypeError(f"criterion requires an AnalyticMap symbol, got {type(phi).__name__}")
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ParameterRangeError(f"criterion requires finite p > 0, got {p}")
    plan = plan or DEFAULT_PLAN

    edges = dyadic_radius(np.arange(_TRUNCATION_HI + 1))
    omega = params.omega

    def integrand(ring, r, cols):
        w, dw = phi.jet(r * ring[cols])
        slope = np.abs(dw) ** 2
        weight_sq = omega(bloch_weight(params, np.abs(w))) ** 2
        if not weight_sq.all():  # 0 where phi' = 0, not 0/0
            weight_sq[slope == 0.0] = 1.0
        return slope * (1.0 - r) / weight_sq

    def rungs(thetas):
        """inner^(p/2) at rungs 4..24 (rows) and the angles ``thetas``."""
        phases = np.exp(1j * thetas)
        # rings of 256 angles keep each jet call within BLOCK_POINTS; an extreme
        # weight makes the integrand divide by 0 or overflow: the rungs read inf
        step = BLOCK_POINTS // GL_NODES
        with np.errstate(divide="ignore", over="ignore"):
            inner = np.hstack([
                gl_panel_columns(partial(integrand, phases[j:j + step]), edges,
                                 min(step, thetas.size - j))[0]
                for j in range(0, thetas.size, step)])
            return inner[_TRUNCATION_LO - 1:] ** (p / 2.0)

    means, n_angles, settled, change, _ = circle_means(
        rungs, min(plan.angular_resolution, _ANGLES_START), _ANGLES_CAP,
        plan.refinement_tol)
    evidence = list(zip(range(_TRUNCATION_LO, _TRUNCATION_HI + 1), means))

    s = omega.order_at_zero()
    a, b = params.alpha * s, params.beta * s
    diagnostics = {
        "angular_nodes": n_angles,
        "angular_settled": settled,
        "angular_change": change,
        "radial_nodes_per_panel": GL_NODES,
        "contact": contact,
        "sup_phi": sup_phi,
        "exponent": a,
        "log_exponent": b,
        "note": "finite criterion integral: operator bounded, equivalently compact",
    }
    if contact == "none" or a < 1.0 or (a == 1.0 and (
            contact == "isolated" or (contact == "whole" and b > 0.5))):
        estimate = evidence[-1][1]
        if not math.isfinite(estimate):
            return CriterionReport("inconclusive", None, tuple(evidence), diagnostics)
        return CriterionReport("convergent", estimate, tuple(evidence), diagnostics)
    if contact == "whole" or (contact == "isolated" and 2.0 * p * (a - 1.0) > 1.0):
        return CriterionReport("divergent", None, tuple(evidence), diagnostics)
    return CriterionReport("inconclusive", None, tuple(evidence), diagnostics)


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
    _symbol(phi)
    z = disk_point(z)
    return float(_q(phi, params, p, z, complex(phi.eval(z))))


def _q_exponent(alpha, p):
    """e = alpha - 1 - 1/p, so that Q ~ (1 - |z|^2)^e toward a contact.

    e = 0 is decided by one exact comparison, alpha == 1 at p = inf and
    alpha * p == p + 1 otherwise: alpha - 1 - 1/p can round away from 0, as
    it does to -5.6e-17 at alpha = 4/3, p = 3.
    """
    if p == math.inf:
        return alpha - 1.0
    return 0.0 if alpha * p == p + 1.0 else alpha - 1.0 - 1.0 / p


def hardy_to_bloch_verdict(phi: AnalyticMap, params: BlochParams, p: float) -> CriterionReport:
    """Boundedness and compactness verdicts from the functional Q.

    The verdict is read from the contact (``_symbol``) and the exponent
    e = alpha - 1 - 1/p (``_q_exponent``).  The range check makes omega(t)
    comparable to t at 0, and toward a contact 1 - |phi|^2 is comparable to
    1 - |z|^2 while phi' tends to the angular derivative (Julia-Caratheodory),
    so Q behaves as (1 - |z|^2)^e log^beta(1/(1 - |z|^2)) there (Madigan &
    Matheson, Trans. AMS 347, 1995).  No contact is ``vacuously-compact``; on
    the whole circle or at isolated contacts, ``unbounded`` if e < 0 or
    e = 0 < beta, ``non-compact`` if e = 0 = beta, and ``compact`` if e > 0 or
    e = 0 > beta; an undecided contact is ``inconclusive``.  The other three
    verdicts carry sup Q, searched on ``sup_grid`` (phi evaluated once on
    it); a sup Q that is not finite makes them ``inconclusive``.  The evidence
    is the running supremum of Q up the grid's rows r = 0 and r_j of
    ``LADDER``, evaluated on those 21 rows alone, so an ``unbounded`` verdict
    never evaluates the whole grid.
    """
    p = float(p)
    _check_hardy_to_bloch_params(params, p)
    contact, sup_phi = _symbol(phi)

    def q(z):
        return _q(phi, params, p, z, phi.eval(z))

    radii, _, points = sup_grid()
    row_max = np.max(q(points[np.searchsorted(radii, (0.0,) + LADDER)]), axis=1).tolist()
    # Python's max, as a per-row loop takes it: a later NaN row is skipped
    running = list(itertools.accumulate(row_max, max))[1:]
    evidence = tuple(zip(LADDER, running))

    e, beta = _q_exponent(params.alpha, p), params.beta
    diagnostics = {"contact": contact, "sup_phi": sup_phi, "exponent": e, "bounded": None}
    if contact == "undecided":
        return CriterionReport("inconclusive", None, evidence, diagnostics)
    if contact == "none":
        verdict = "vacuously-compact"
    elif e < 0.0 or (e == 0.0 and beta > 0.0):
        diagnostics["bounded"] = False
        return CriterionReport("unbounded", None, evidence, diagnostics)
    else:
        verdict = "non-compact" if e == 0.0 and beta == 0.0 else "compact"

    sup_q, _, res = sup_search(q)
    if not math.isfinite(sup_q):
        return CriterionReport("inconclusive", None, evidence, diagnostics)
    diagnostics["bounded"] = True
    diagnostics["sup_resolution"] = float(res[0])
    return CriterionReport(verdict, float(sup_q), evidence, diagnostics)


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
    the targets left go to the grid, in blocks of 16 whole rows: each block's
    candidates meet the targets still missed in blocks of at most
    ``BLOCK_POINTS`` distances, and the scan stops once none is left.
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
    _symbol(phi)

    points = sup_grid()[2]
    targets = area_uniform_points(np.random.default_rng(seed), samples)
    hit = _local_hits(phi, targets, r, epsilon)
    miss = np.flatnonzero(~hit)
    step = BLOCK_POINTS // points.shape[1]
    for start in range(0, points.shape[0], step):
        if not miss.size:
            break
        z = points[start:start + step].ravel()
        img = phi.eval(z)
        candidates = img[_schwarz_pick(phi, z, img) > epsilon]
        if candidates.size:
            chunk = max(1, BLOCK_POINTS // candidates.size)
            for i in range(0, miss.size, chunk):
                rows = miss[i:i + chunk]
                hit[rows] = np.any(rho_array(candidates, targets[rows, None]) < r, axis=-1)
            miss = miss[~hit[miss]]
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
