"""Hardy means and norms, Bloch-type functionals, disk suprema, and the
Littlewood-Paley square function."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import (BlochParams, Composed, DivergentIntegralError, HarmonicMap,
                   ParameterRangeError, Polynomial, classical_params, disk_point,
                   lambda_f)
from .numerics import (BLOCK_POINTS, GL_NODES, TWO_PI, QuadratureError,
                       circle_max, circle_means, dyadic_radius, gl_nodes, sup_search)

__all__ = [
    "SamplingPlan", "DEFAULT_PLAN", "NormEstimate", "sup_grid",
    "hardy_mean", "hardy_norm", "bloch_weight", "weight_from_gap",
    "bloch_functional", "bloch_seminorm", "bloch_norm",
    "g_function", "g_norm_check", "power_mean_inequality_check",
]

_GFUNC_TOL = 1e-12
# Panel 47 of the square function is the last with 16 distinct nodes below 1.
G_PANELS = 48

# The radial ladder r_j = 1 - 2^-j, j = 1..20: rows of the supremum grid, the
# seminorm's ridge, the verdict's evidence rows and the scan's structured pairs.
LADDER = tuple(dyadic_radius(j) for j in range(1, 21))
# Size of the supremum grid (see sup_grid).
SUP_RADII = 64
SUP_ANGLES = 256
# The largest angular_resolution of a plan, and hardy_mean's node cap for smaller ones.
MAX_CIRCLE_NODES = 2 ** 20


@dataclass(frozen=True)
class SamplingPlan:
    """Resolution knobs for circle averages.

    angular_resolution: starting count of roots of unity (power of two, >= 8);
    refinement_tol: relative stabilization target for self-refining averages,
    finite and positive.
    Suprema do not depend on the plan: those of |f| lie on the unit circle
    (``numerics.circle_max``), the others are searched on the one
    ``sup_grid``.  ``describe`` reports the two fields.
    """

    angular_resolution: int = 256
    refinement_tol: float = 1e-6

    def __post_init__(self):
        n = int(self.angular_resolution)
        if n < 8 or (n & (n - 1)) != 0:
            raise ParameterRangeError(
                f"angular_resolution must be a power of two >= 8, got {n}")
        if n > MAX_CIRCLE_NODES:
            raise ParameterRangeError(f"angular_resolution must be <= {MAX_CIRCLE_NODES}, got {n}")
        if not 0.0 < float(self.refinement_tol) < math.inf:
            raise ParameterRangeError(
                f"refinement_tol must be positive and finite, got {self.refinement_tol}")

    def describe(self):
        return {"angular_resolution": self.angular_resolution,
                "refinement_tol": self.refinement_tol}


DEFAULT_PLAN = SamplingPlan()


@cache
def sup_grid():
    """``(radii, angles, points)`` of the suprema searched inside the disk
    (the Bloch-type functional and Q) and of the probe's candidates:
    SUP_RADII tanh-spaced radii up to 1 - 2^-20 joined with the 20 dyadic
    radii of ``LADDER``, SUP_ANGLES equally spaced angles, and their outer
    product, the points.  Suprema of |f| lie on the unit circle and are
    ``numerics.circle_max``'s instead.  Built on first use and shared, so
    the arrays are read-only."""
    tanh = np.tanh(np.linspace(0.0, math.atanh(LADDER[-1]), SUP_RADII))
    radii = np.union1d(tanh, LADDER)
    angles = np.arange(SUP_ANGLES) * (TWO_PI / SUP_ANGLES)
    grid = radii, angles, radii[:, None] * np.exp(1j * angles)[None, :]
    for array in grid:
        array.flags.writeable = False
    return grid


@dataclass(frozen=True)
class NormEstimate:
    """A norm-type value with its evidence.

    evidence holds (radius, value) pairs: the boundary mean (1.0, value) of
    a Hardy norm, or the Bloch seminorm's ridge maxima on the dyadic rows of
    the supremum grid; resolution tags the accuracy actually achieved (the
    stopping bound of the circle mean, or the final refinement box of the
    supremum search).
    """

    value: float
    evidence: tuple = ()
    resolution: float = 0.0

    def __float__(self):
        return self.value

    def require_finite(self):
        """The value, which is always finite; kept for existing callers."""
        return self.value


# --------------------------------------------------------------------------
# Hardy means and norms
# --------------------------------------------------------------------------

def hardy_mean(f, p, r, plan: SamplingPlan | None = None) -> float:
    """Integral mean M_p(r, f) = ((1/2pi) int |f(r e^{i theta})|^p dtheta)^(1/p)
    for r in [0, 1]; at r = 1, f must be defined on the unit circle.

    ``_power_mean`` of |f| on the circle of radius r, from half the plan's
    angular resolution up to MAX_CIRCLE_NODES nodes, or twice the resolution.
    """
    plan = plan or DEFAULT_PLAN
    if not 0.0 < (p := float(p)) < math.inf:
        raise ParameterRangeError(f"hardy_mean requires finite p > 0, got {p}")
    if not 0.0 <= (r := float(r)) <= 1.0:
        raise ParameterRangeError(f"radius must lie in [0, 1], got {r}")
    n = plan.angular_resolution
    return _power_mean(lambda theta: np.abs(f.eval(r * np.exp(1j * theta))), p,
                       n // 2, max(MAX_CIRCLE_NODES, 2 * n), plan.refinement_tol)


def _power_mean(sample, p, n, cap, tol) -> float:
    """((1/2pi) int sample(theta)^p dtheta)^(1/p) for a nonnegative periodic
    ``sample`` of 1-D angle arrays, by ``numerics.circle_means`` from n angles.
    QuadratureError, carrying the last two means, when that has not settled
    by cap nodes or is not finite (sample^p overflows, or sample holds NaN)."""
    def powers(theta):
        with np.errstate(over="ignore"):  # an overflow is a mean of inf
            return (sample(theta) ** p)[None]

    (mean,), nodes, settled, _, (before,) = circle_means(powers, n, cap, tol, p)
    if not (settled and math.isfinite(mean)):
        raise QuadratureError(f"circle mean did not stabilize within {nodes} nodes",
                              last_values=(before, mean))
    return mean


def _vanishes(g) -> bool:
    """Whether g is zero by construction: the zero polynomial of
    ``as_harmonic``, or a zero map composed with a symbol and offset by 0, as
    ``compose`` builds from it."""
    if isinstance(g, Composed):
        return g.offset == 0 and _vanishes(g.outer)
    return isinstance(g, Polynomial) and not any(g.coefficients)


def hardy_norm(f, p, plan: SamplingPlan | None = None) -> NormEstimate:
    """sup_{0<r<1} M_p(r, f), or sup |f| over the disk when p = inf.

    Every map the library builds is continuous on the closed disk, and
    M_p(r, f) is nondecreasing in r for analytic f (and for harmonic f when
    p >= 1), so for finite p the norm is the boundary mean M_p(1, f): one
    ``hardy_mean`` on the unit circle, whose trapezoid rule converges
    geometrically when f continues analytically across it (Trefethen &
    Weideman, SIAM Review 56, 2014).  A harmonic f whose conjugate part does
    not vanish by construction (``_vanishes``) raises ParameterRangeError at
    p < 1, where the boundary mean can lie below the supremum.  The evidence
    is the single pair (1.0, value), and the resolution is the bound at which
    the mean stopped, ``refinement_tol * max(1, value)``.  A map with a pole on
    the circle raises QuadratureError.  |f| is subharmonic, so for p = inf
    the norm is the maximum of |f| on the unit circle, ``circle_max``; the
    evidence is empty and the resolution is the angle width it reached; a
    maximum that is not finite (|f| overflows) raises QuadratureError.
    """
    plan = plan or DEFAULT_PLAN
    if isinstance(f, HarmonicMap) and p < 1.0 and not _vanishes(f.g):
        raise ParameterRangeError(
            f"the Hardy norm of a harmonic pair with a conjugate part needs p >= 1, got {p}")
    if p == math.inf:
        value, width = circle_max(lambda theta: np.abs(f.eval(np.exp(1j * theta))))
        if not math.isfinite(value):
            raise QuadratureError(f"max |f| on the unit circle is not finite: {value}")
        return NormEstimate(value, resolution=width)
    value = hardy_mean(f, p, 1.0, plan)
    return NormEstimate(value, ((1.0, value),),
                        resolution=plan.refinement_tol * max(1.0, value))


# --------------------------------------------------------------------------
# Bloch-type weight and functionals
# --------------------------------------------------------------------------

def weight_from_gap(alpha, beta, gap):
    """chi expressed through the gap u = 1 - t^2: u^alpha * (1 - log u)^beta.
    At beta = 0 the log factor is 1 for every u, NaN included, so it is skipped.
    A large beta may overflow the log factor to inf, without a warning."""
    u = np.asarray(gap, dtype=float)
    chi = u ** alpha
    if beta == 0:
        return chi
    with np.errstate(over="ignore"):  # an infinite weight is the caller's to judge
        return chi * (1.0 - np.log(u)) ** beta


def bloch_weight(params: BlochParams, t):
    """Radial weight chi(t) = (1 - t^2)^alpha * (log(e/(1 - t^2)))^beta."""
    return weight_from_gap(params.alpha, params.beta, 1.0 - t * t)


def bloch_values(f, params: BlochParams, z):
    """Lambda_f(z) * omega(chi(|z|)), elementwise under the AnalyticMap array
    contract; the builtin ``abs`` keeps Python's arithmetic on a Python z."""
    return lambda_f(f, z) * params.omega(bloch_weight(params, abs(z)))


def bloch_functional(f, params: BlochParams, z) -> float:
    """Weighted maximal derivative Lambda_f(z) * omega(chi(|z|)) at a disk point."""
    return float(bloch_values(f, params, disk_point(z)))


def bloch_seminorm(f, params: BlochParams | None = None) -> NormEstimate:
    """sup_z Lambda_f(z) * omega(chi(|z|)) over the disk.

    Every map the library builds has a derivative bounded on the closed disk,
    and the weight vanishes on the circle, so the supremum is finite and
    attained inside.  The functional is evaluated once on ``sup_grid``; the
    evidence is its angular ridge maxima on the 20 dyadic rows, and the grid
    peaks are refined by ``sup_search``.  A grid maximum that is not finite
    (f' overflows) raises QuadratureError.  A grid maximum on the outermost
    ring, |z| = 1 - 2^-20, means the peak lies beyond the grid, or that the
    functional does not decay: QuadratureError, carrying the last two ridge
    maxima, is raised instead of a value.
    """
    params = params or classical_params()
    grid = sup_grid()
    radii, _, points = grid
    values = bloch_values(f, params, points)
    ridge = np.max(values[np.searchsorted(radii, LADDER)], axis=1).tolist()
    peak = int(np.argmax(values))  # argmax stops at the first NaN
    if not math.isfinite(top := values.flat[peak]):
        raise QuadratureError(f"Bloch-type functional is not finite on the grid: {top}")
    if peak // values.shape[1] == len(radii) - 1:
        raise QuadratureError(
            f"Bloch-type functional peaks on the outermost grid ring, |z| = "
            f"{float(radii[-1])!r}: its supremum lies beyond the grid",
            last_values=tuple(ridge[-2:]))
    value, _, res = sup_search(partial(bloch_values, f, params), grid, values=values)
    return NormEstimate(float(value), tuple(zip(LADDER, ridge)), resolution=float(res[0]))


def bloch_norm(f, params: BlochParams | None = None) -> NormEstimate:
    """|f(0)| plus the seminorm, with the seminorm's evidence and resolution."""
    semi = bloch_seminorm(f, params)
    anchor = abs(complex(f.eval(0j)))
    return NormEstimate(anchor + semi.value, semi.evidence, semi.resolution)


# --------------------------------------------------------------------------
# Littlewood-Paley square function
# --------------------------------------------------------------------------

def _g_squared(f, angles):
    """G(f)^2 at every angle of ``angles`` in one sweep over the dyadic panels.

    Each angle is one column of 16-node Gauss-Legendre panels on
    [1 - 2^-k, 1 - 2^-(k+1)], k < G_PANELS, summed over the columns still
    open.  Every map the library builds has f' bounded on the closed disk,
    so G^2 <= sup |f'|^2 / 2; a column closes only on evidence, at the first
    k >= 4 where its total is positive and finite and the panel added at
    most 1e-12 of it.  After the last panel a total of exactly 0 is G = 0
    (f' vanished on every node); any other open column raises
    DivergentIntegralError with the partial integrals of the lowest-index
    one.  A harmonic pair raises ParameterRangeError.

    The panels are swept in blocks, one ``f.deriv`` call each: as many
    panels as fit ``BLOCK_POINTS`` points over the open columns, at least
    one.  BLAS rounds each column of ``w @ vals`` by its place among the
    columns it is given, so a block is summed in runs, each over the columns
    open at its first panel and up to the first panel that closes one.  The
    totals and partials are then bit for bit those of a sweep that
    integrates one panel at a time; panels past a column's close are
    evaluated and dropped.
    """
    if isinstance(f, HarmonicMap):
        raise ParameterRangeError("the square function takes an analytic map, not a harmonic pair")
    angles = np.asarray(angles, dtype=float)
    zetas = np.cos(angles) + 1j * np.sin(angles)
    edges = dyadic_radius(np.arange(G_PANELS + 1))
    radii, w, halves = gl_nodes(edges[:-1], edges[1:])
    totals = np.zeros(angles.size)
    contributions = np.zeros((G_PANELS, angles.size))
    cols = np.arange(angles.size)  # the open columns, those of vals and acc
    acc = np.zeros(angles.size)
    k = end = 0  # vals holds panels k..end-1
    while cols.size and k < G_PANELS:
        if k == end:
            end = min(G_PANELS, k + max(1, BLOCK_POINTS // (GL_NODES * cols.size)))
            r = radii[k:end, :, None]
            vals = np.abs(f.deriv(r * zetas[cols])) ** 2 * (1.0 - r)
        c = halves[k:end, None] * (w @ vals)
        # the running totals after each panel; cumsum down the rows costs
        # per column, so one row is a plain sum
        running = (acc + c if end - k == 1 else
                   np.cumsum(np.concatenate((acc[None], c)), axis=0)[1:])
        done = (running > 0.0) & np.isfinite(running) & (c <= _GFUNC_TOL * running)
        done[:max(4 - k, 0)] = False  # no column closes before panel 4
        closing = np.flatnonzero(done)
        n = closing[0] // cols.size + 1 if closing.size else end - k
        contributions[k:k + n, cols] = c[:n]
        acc = running[n - 1]
        k += n
        if closing.size:
            totals[cols] = acc
            still = ~done[n - 1]
            cols, acc = cols[still], acc[still]
            vals = np.compress(still, vals[n:], axis=2)
    totals[cols] = acc
    cols = cols[totals[cols] != 0.0]
    if cols.size:
        raise DivergentIntegralError(
            f"square-function integral did not stabilize within {G_PANELS} dyadic panels",
            partials=np.cumsum(contributions[:, cols[0]]).tolist())
    return totals


def g_function(f, zeta_angle: float) -> float:
    """(int_0^1 |f'(r zeta)|^2 (1 - r) dr)^(1/2) for zeta = e^{i angle}: the
    one-column case of ``_g_squared``, whose errors it raises.  A non-finite
    angle raises ParameterRangeError.
    """
    if not math.isfinite(zeta_angle := float(zeta_angle)):
        raise ParameterRangeError(f"angle must be finite, got {zeta_angle}")
    return math.sqrt(float(_g_squared(f, [zeta_angle])[0]))


def g_norm_check(f, p, plan: SamplingPlan | None = None) -> dict:
    """Both sides of the square-function comparison for a polynomial f.

    Returns {"hardy": ||f||_p^p, "g_integral": |f(0)|^p + mean of G(f)^p};
    the Hardy side is ``hardy_norm``'s boundary mean M_p(1, f)^p.  The mean
    of G(f)^p is ``_power_mean`` of G(f) from min(angular_resolution, 256) / 2
    angles, each call one ``_g_squared`` sweep; one not settled at 4096
    angles raises QuadratureError.  No constant is asserted; callers compare
    the ratio of the two sides across a family.
    """
    plan = plan or DEFAULT_PLAN
    if not 0.0 < (p := float(p)) < math.inf:
        raise ParameterRangeError(f"g_norm_check requires finite p > 0, got {p}")
    g_mean = _power_mean(lambda theta: np.sqrt(_g_squared(f, theta)), p,
                         min(plan.angular_resolution, 256) // 2, 2 ** 12, plan.refinement_tol)
    hardy = hardy_norm(f, p, plan).value ** p
    return {"hardy": hardy, "g_integral": abs(complex(f.eval(0j))) ** p + g_mean ** p}


def power_mean_inequality_check(a: float, b: float, tau: float) -> bool:
    """(a + b)^tau <= 2^max(tau-1, 0) * (a^tau + b^tau) for a, b >= 0, tau > 0.

    Returns the truth of the inequality with a relative slack of 1e-12 for
    floating-point roundoff at equality cases.
    """
    if a < 0 or b < 0 or not tau > 0:
        raise ParameterRangeError("requires a, b >= 0 and tau > 0")
    lhs = (a + b) ** tau
    rhs = 2.0 ** max(tau - 1.0, 0.0) * (a ** tau + b ** tau)
    return lhs <= rhs * (1.0 + 1e-12) + 1e-300
