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
# Point budget of one map evaluation in the blocked radial quadratures (the
# Bloch-to-Hardy criterion and the square function).  A complex temporary of
# 2^12 points is 64 kB, below glibc malloc's 128 kB threshold; larger arrays
# get fresh pages, and each block pays their page faults.  The criterion keeps
# every call within it.  The square function evaluates at least one panel of
# every open column, so past 256 open angles one call holds 16 points per
# angle, more than the budget.
BLOCK_POINTS = 2 ** 12
# sup_search refines its REFINE_TOP strongest grid peaks to the width of
# GOLDEN_ITERS golden-section steps per side, which GOLDEN_ROUNDS rounds of
# golden_max, each shrinking a side by 2/16, reach.
GOLDEN_ITERS = 40
GOLDEN_ROUNDS = math.ceil(GOLDEN_ITERS * math.log(INV_GOLDEN) / math.log(2.0 / 16.0))
REFINE_TOP = 4
# Equally spaced angles at which circle_max samples the circle.
_CIRCLE_NODES = 256


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


def gl_nodes(a, b):
    """``(nodes, weights, half)`` of ``GL_NODES``-point Gauss-Legendre panels
    on [a, b], elementwise over arrays a and b: nodes has shape
    a.shape + (GL_NODES,), weights are the rule's on [-1, 1], and the
    integral of fn over [a, b] is ``half * (weights @ fn(nodes))``."""
    x, w = _leggauss()
    a = np.asarray(a, dtype=float)
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[..., None] + half[..., None] * x, w, half


def gl_panel_columns(fn2, a, b):
    """Column-wise ``gl_panel`` over a block of K panels [a[k], b[k]] in one
    call of ``fn2``: it takes the nodes of every panel, shape (K, GL_NODES),
    and returns values of shape (K, GL_NODES, m).  Row k of the (K, m) result
    is the integral over panel k of each of the m columns, bit for bit the
    single panel's."""
    r, w, half = gl_nodes(a, b)
    vals = np.asarray(fn2(r), dtype=float)
    return half[:, None] * (w @ vals)


def golden_max(fn, a, b):
    """Maxima of a unimodal function on a batch of d-dimensional boxes [a, b].

    Simultaneous-evaluation search (Avriel & Wilde, 1966), run on every side
    at once as a pattern search: each of ``GOLDEN_ROUNDS`` rounds makes one
    call of ``fn`` on the tensor lattice of every box's interior nodes (15
    evenly spaced ones per side, the centre included) and keeps the cells
    beside each box's best node, so every side shrinks by 2/16 per round, to
    at most the width of ``GOLDEN_ITERS`` golden-section steps.

    ``a`` and ``b`` are corners of a common shape S + (d,); ``fn`` maps the
    nodes of each side, shape S + (d, 15), to the values on their tensor
    lattice, shape S + (15,) * d, whose axis k runs over side k's nodes.
    Returns ``(x, value, width)`` of shapes S + (d,), S and S + (d,): x is the
    best node, the centre of the final box, value is fn's there, and width is
    that box's sides, but never less than the float spacing at x, below which
    nodes coincide.
    """
    a = np.asarray(a, dtype=float)
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    lattice_shape = (_ROUND_OFFSETS.size,) * a.shape[-1]
    for _ in range(GOLDEN_ROUNDS):
        vals = np.asarray(fn(centre[..., None] + half[..., None] * _ROUND_OFFSETS), dtype=float)
        vals = vals.reshape(a.shape[:-1] + (-1,))
        best = np.unravel_index(vals.argmax(axis=-1), lattice_shape)
        centre = centre + half * _ROUND_OFFSETS[np.stack(best, axis=-1)]
        half = half / 8.0
    return centre, vals.max(axis=-1), np.maximum(2.0 * half, np.spacing(np.abs(centre)))



def extrapolate_to_zero(us, vals):
    """Neville polynomial extrapolation of samples ``(u_i, v_i)`` to u = 0."""
    us = list(map(float, us))
    t = list(map(float, vals))
    n = len(t)
    for m in range(1, n):
        for i in range(n - m):
            t[i] = (us[i + m] * t[i] - us[i] * t[i + 1]) / (us[i + m] - us[i])
    return t[0]


def dyadic_radius(k):
    """Truncation radius 1 - 2**(-k)."""
    return 1.0 - 0.5 ** k


def area_uniform_points(rng, n):
    """n points distributed uniformly w.r.t. area on the unit disk."""
    radius = np.sqrt(rng.random(n))
    angle = TWO_PI * rng.random(n)
    return radius * np.exp(1j * angle)


def circle_means(sample, n, cap, tol, p=1.0):
    """p-th roots of the circle means of every row of ``sample(theta)``, shape
    (rows, theta.size) for 1-D angles: the p-norms of rows of p-th powers, or
    the means at p = 1.  The periodic trapezoid rule starts at n equally
    spaced angles and doubles the count (with reuse) until every root has
    changed by at most ``tol * max(1, |root|)`` at two consecutive doublings,
    or until cap > n.  One agreement can be a coincidence, as for
    1 + cos(32 theta) at 16 and 32 nodes; two are a sound stop, as the rule
    converges geometrically (Trefethen & Weideman, SIAM Review 56, 2014).
    The first ``sample`` call takes the 2n angles of the first doubling, its
    even and odd ones summed apart as two calls would.  A root that stays
    infinite has not changed; a NaN change (a NaN root, or a finite one
    turning infinite) ends the doubling.  Returns ``(roots, nodes, settled,
    change, before)``: the roots at the last two counts (roots, before) as
    lists of a float per row, and their largest relative change.
    """
    vals = sample(np.arange(2 * n) * (TWO_PI / (2 * n)))
    # Python floats: numpy's IEEE operations, without its cost per call
    total = vals[:, ::2].sum(axis=1).tolist()
    roots, added, agreements = [(t / n) ** (1.0 / p) for t in total], vals[:, 1::2], 0
    while True:
        total = [t + s for t, s in zip(total, added.sum(axis=1).tolist())]
        n *= 2
        before, roots = roots, [(t / n) ** (1.0 / p) for t in total]
        changes = [abs(new - old) / max(1.0, abs(new))
                   for new, old in zip(roots, before) if new != old]
        change = math.nan if any(map(math.isnan, changes)) else max(changes, default=0.0)
        agreements = agreements + 1 if change <= tol else 0
        if agreements == 2 or n >= cap or math.isnan(change):
            return roots, n, agreements == 2, change, before
        added = sample((np.arange(n) + 0.5) * (TWO_PI / n))


def circle_max(sample):
    """Maximum of a 2pi-periodic ``sample`` of an array of angles of any shape.

    ``sample`` is evaluated at ``_CIRCLE_NODES`` equally spaced angles, and
    its ``REFINE_TOP`` strongest node-local maxima (ties count) are refined
    together by one ``golden_max`` call on boxes one step either side.
    Returns ``(value, angle_width)``: the larger of the best refined value
    and the node maximum, with the final width of that box.
    """
    step = TWO_PI / _CIRCLE_NODES
    theta = np.arange(_CIRCLE_NODES) * step
    vals = np.asarray(sample(theta), dtype=float)
    ring = np.concatenate((vals[-1:], vals, vals[:1]))  # the angle wraps
    peaks = np.flatnonzero((vals >= ring[:-2]) & (vals >= ring[2:]))
    if not peaks.size:  # no node compares with both neighbours, as with NaN
        return float(np.max(vals)), step
    top = theta[peaks[np.argsort(vals[peaks])[::-1][:REFINE_TOP]], None]
    _, refined, width = golden_max(lambda t: sample(t[..., 0, :]), top - step, top + step)
    k = int(np.argmax(refined))
    return max(float(refined[k]), float(np.max(vals))), float(width[k, 0])


def _grid_local_maxima(vals):
    """Indices, in row-major order, of grid cells that beat their 4-neighbors
    (angle wraps; NaN beats nothing, and nothing beats NaN).  Row 0 is the
    single point r = 0, so it gives at most one peak, at angle 0."""
    mask = np.ones(vals.shape, dtype=bool)
    mask[:, 1:] &= vals[:, 1:] >= vals[:, :-1]
    mask[:, :-1] &= vals[:, :-1] >= vals[:, 1:]
    mask[:, [0, -1]] &= vals[:, [0, -1]] >= vals[:, [-1, 0]]  # the angle wraps
    mask[1:] &= vals[1:] >= vals[:-1]
    mask[:-1] &= vals[:-1] >= vals[1:]
    mask[0, 1:] = False
    return np.argwhere(mask)


def sup_search(objective, grid, values=None):
    """Maximum of ``objective(z)`` on the ``(radii, angles, points)`` grid of
    ``norms.sup_grid``, plus local refinement.

    The ``REFINE_TOP`` strongest grid-local maxima are refined together by
    one ``golden_max`` call, which guards against near-tied peaks resolving
    differently off-grid.  Each peak's (radius, angle) box spans its
    neighbouring radii and two angular steps either way, since on a tilted
    ridge the grid peak can sit almost two steps from the true one; the r = 0
    peak's box spans the first ring and every angle.  A round evaluates
    ``objective`` on each box's 15 radii times its 15 angles, taking one
    exponential per angle.  ``objective`` must act elementwise on complex
    ndarrays of any shape; ``values``, when given, are its values on the
    points.  Returns ``(value, argmax_z, (radius_width, angle_width))``, the
    widths being the final box of the strongest refined peak (the grid steps
    when the grid has no peak, as when it is all NaN).
    """
    r, th, zgrid = grid
    vals = np.asarray(objective(zgrid) if values is None else values, dtype=float)
    peaks = _grid_local_maxima(vals)
    order = np.argsort(vals[peaks[:, 0], peaks[:, 1]])[::-1]
    i, j = peaks[order[:REFINE_TOP]].T
    best_val = float(np.max(vals))
    best_z = complex(zgrid[np.unravel_index(int(np.argmax(vals)), vals.shape)])
    if not len(i):
        return best_val, best_z, (float(r[1] - r[0]), TWO_PI / len(th))
    half_angle = np.where(i > 0, 2.0 * TWO_PI / len(th), math.pi)
    lo = np.stack([r[np.maximum(i - 1, 0)], th[j] - half_angle], axis=-1)
    hi = np.stack([r[np.minimum(i + 1, len(r) - 1)], th[j] + half_angle], axis=-1)
    x, refined, width = golden_max(
        lambda ax: objective(ax[..., 0, :, None] * np.exp(1j * ax[..., 1, None, :])), lo, hi)
    k = int(np.argmax(refined))
    if refined[k] > best_val:
        best_val = float(refined[k])
        best_z = complex(x[k, 0] * np.exp(1j * x[k, 1]))
    return best_val, best_z, (float(width[k, 0]), float(width[k, 1]))
