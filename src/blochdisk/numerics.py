"""Quadrature, supremum-search, and extrapolation primitives shared across modules."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import BlochDiskError

TWO_PI = 2.0 * math.pi
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Interior nodes of a bracket [c - h, c + h] sampled per search round: 15
# evenly spaced ones, the centre included.
_ROUND_OFFSETS = np.arange(-7, 8) / 8.0
# Nodes per Gauss-Legendre panel of gl_panel and gl_panel_columns.
GL_NODES = 16
# sup_search refines its REFINE_TOP strongest grid peaks to the width of
# GOLDEN_ITERS golden-section steps.
GOLDEN_ITERS = 40
REFINE_TOP = 4


class QuadratureError(BlochDiskError, RuntimeError):
    """A self-refining quadrature failed to stabilize.

    Carries the last two partial values so callers can surface them.
    """

    def __init__(self, message, last_values=None):
        super().__init__(message)
        self.last_values = last_values


@lru_cache(maxsize=None)
def _leggauss():
    return np.polynomial.legendre.leggauss(GL_NODES)


def gl_panel(fn, a, b):
    """``GL_NODES``-point Gauss-Legendre integral of ``fn`` over [a, b]."""
    x, w = _leggauss()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, np.asarray(fn(mid + half * x), dtype=float)))


def gl_panel_columns(fn2, a, b):
    """Column-wise ``gl_panel``: ``fn2(r)`` returns an array of shape
    (GL_NODES, m), and the integral over r in [a, b] comes back as an (m,) array."""
    x, w = _leggauss()
    half = 0.5 * (b - a)
    r = 0.5 * (a + b) + half * x
    vals = np.asarray(fn2(r), dtype=float)
    return half * (w @ vals)


def golden_max(fn, a, b, iters=40):
    """Maxima of a unimodal function on a batch of brackets [a, b] at once.

    Simultaneous-evaluation search (Avriel & Wilde, 1966): each round makes
    one call of ``fn`` on the 15 evenly spaced interior nodes of every bracket
    and keeps the two cells beside each bracket's best node, so every width
    shrinks by 2/16 per round.  ``ceil(iters * log(INV_GOLDEN) / log(2/16))``
    rounds (10 for ``iters=40``) leave each bracket at most as wide as
    ``iters`` golden-section steps would.

    ``a`` and ``b`` are bracket ends of a common shape S (scalars included);
    ``fn`` maps an array of shape S + (15,) to values of the same shape.
    Returns ``(x, fn(x), width)``, each of shape S: x is the best node, which
    is the centre of the final bracket, and width is that bracket's size, but
    never less than the float spacing at x, below which nodes coincide.
    """
    a = np.asarray(a, dtype=float)
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    rounds = max(1, math.ceil(iters * math.log(INV_GOLDEN) / math.log(2.0 / 16.0)))
    for _ in range(rounds):
        nodes = centre[..., None] + half[..., None] * _ROUND_OFFSETS
        vals = np.asarray(fn(nodes), dtype=float)
        value = np.max(vals, axis=-1)
        centre = centre + half * _ROUND_OFFSETS[np.argmax(vals, axis=-1)]
        half = half / 8.0
    return centre, value, np.maximum(2.0 * half, np.spacing(np.abs(centre)))


def aitken_limit(values):
    """Aitken delta-squared limit from the last three terms of a sequence.

    Falls back to the final term when increments are degenerate or the
    acceleration step would extrapolate wildly.
    """
    if len(values) < 3:
        return float(values[-1])
    x0, x1, x2 = values[-3], values[-2], values[-1]
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    if denom == 0.0 or not math.isfinite(denom):
        return float(x2)
    acc = x2 - d2 * d2 / denom
    if not math.isfinite(acc) or abs(acc - x2) > 10.0 * abs(d2):
        return float(x2)
    return float(acc)


def extrapolate_to_zero(us, vals):
    """Neville polynomial extrapolation of samples ``(u_i, v_i)`` to u = 0."""
    us = list(map(float, us))
    t = list(map(float, vals))
    n = len(t)
    for m in range(1, n):
        for i in range(n - m):
            t[i] = (us[i + m] * t[i] - us[i] * t[i + 1]) / (us[i + m] - us[i])
    return t[0]


def fit_slope(xs, ys):
    """Least-squares slope of ys against xs."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm, ym = x.mean(), y.mean()
    denom = float(np.sum((x - xm) ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum((x - xm) * (y - ym)) / denom)


def dyadic_radius(k):
    """Truncation radius 1 - 2**(-k)."""
    return 1.0 - 0.5 ** k


def area_uniform_points(rng, n):
    """n points distributed uniformly w.r.t. area on the unit disk."""
    radius = np.sqrt(rng.random(n))
    angle = TWO_PI * rng.random(n)
    return radius * np.exp(1j * angle)


def _grid_local_maxima(vals):
    """Indices of grid cells that beat their 4-neighbors (angle wraps)."""
    up = np.roll(vals, 1, axis=1)
    down = np.roll(vals, -1, axis=1)
    inner = np.pad(vals, ((1, 1), (0, 0)), constant_values=-np.inf)
    above = inner[2:, :]
    below = inner[:-2, :]
    mask = (vals >= up) & (vals >= down) & (vals >= above) & (vals >= below)
    return np.argwhere(mask)


def sup_search(objective, grid, values=None):
    """Maximum of ``objective(z)`` on the ``(radii, angles, points)`` grid of
    ``SamplingPlan.sup_grid``, plus local refinement.

    The ``REFINE_TOP`` strongest grid-local maxima are refined together, which
    guards against near-tied peaks resolving differently off-grid: two rounds
    of a radial then an angular ``golden_max`` stage of ``GOLDEN_ITERS``
    steps, each covering all peaks in one objective call per search round.
    ``objective`` must act elementwise on complex ndarrays of any shape;
    ``values``, when given, are its values on the points.  Returns ``(value,
    argmax_z, (radius_width, angle_width))``, the widths being the winning
    peak's final brackets.
    """
    r, th, zgrid = grid
    vals = np.asarray(objective(zgrid) if values is None else values, dtype=float)
    peaks = _grid_local_maxima(vals)
    order = np.argsort(vals[peaks[:, 0], peaks[:, 1]])[::-1]
    peaks = peaks[order[:REFINE_TOP]]
    dth = TWO_PI / len(th)

    best_val = float(np.max(vals))
    best_z = complex(zgrid[np.unravel_index(int(np.argmax(vals)), vals.shape)])
    best_res = (float(r[1] - r[0]) if len(r) > 1 else 0.0, dth)
    if not len(peaks):
        return best_val, best_z, best_res
    i, j = peaks[:, 0], peaks[:, 1]
    r_lo = np.where(i > 0, r[np.maximum(i - 1, 0)], 0.0)
    r_hi = r[np.minimum(i + 1, len(r) - 1)]
    t_best = th[j]
    for _ in range(2):
        ray = np.exp(1j * t_best)[:, None]
        r_best, _, wr = golden_max(lambda s: objective(s * ray), r_lo, r_hi,
                                   GOLDEN_ITERS)
        ring = r_best[:, None]
        t_best, refined, wa = golden_max(lambda t: objective(ring * np.exp(1j * t)),
                                         t_best - dth, t_best + dth, GOLDEN_ITERS)
        r_lo = np.maximum(0.0, r_best - 2.0 * wr)
        r_hi = np.minimum(r[-1], r_best + 2.0 * wr)
    k = int(np.argmax(refined))
    if refined[k] > best_val:
        best_val = float(refined[k])
        best_z = complex(r_best[k] * np.exp(1j * t_best[k]))
        best_res = (float(wr[k]), float(wa[k]))
    return best_val, best_z, best_res
