"""Quadrature, supremum-search, and extrapolation primitives shared across modules."""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .core import BlochDiskError

TWO_PI = 2.0 * math.pi
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Interior nodes of a bracket [c - h, c + h] sampled per search round: 15
# evenly spaced ones, the centre included.
_ROUND_OFFSETS = np.arange(-7, 8) / 8.0
# Nodes per Gauss-Legendre panel of gl_panel and gl_panel_columns.
GL_NODES = 16
# Point budget of one map evaluation or distance block in the loops that sweep
# many points: gl_panel_columns (the Bloch-to-Hardy criterion and the square
# function) and the grid scan of compop.bounded_below_probe (16 rows of the
# 256-angle supremum grid, and their candidates' distances to the targets
# still missed).  A complex temporary of 2^12 points is 64 kB,
# below glibc malloc's 128 kB threshold; larger arrays get fresh pages, and
# each call pays their page faults again.  Past BLOCK_POINTS // GL_NODES open
# columns one panel exceeds it: the criterion sweeps rings of at most that
# many angles, and the square function, whose bits depend on how its columns
# are grouped, takes the excess.  The seminorm and Q grids stay whole:
# sup_search needs every value.
BLOCK_POINTS = 2 ** 12
# sup_search refines its REFINE_TOP strongest grid peaks to the width of
# GOLDEN_ITERS golden-section steps per side, which GOLDEN_ROUNDS rounds of
# golden_max, each shrinking a side by 2/16, reach.
GOLDEN_ITERS = 40
GOLDEN_ROUNDS = math.ceil(GOLDEN_ITERS * math.log(INV_GOLDEN) / math.log(2.0 / 16.0))
REFINE_TOP = 4


class QuadratureError(BlochDiskError, RuntimeError):
    """A self-refining quadrature failed to stabilize.

    Carries the last two partial values so callers can surface them.
    """

    def __init__(self, message, last_values=None):
        super().__init__(message)
        self.last_values = last_values


@cache
def _leggauss():
    return np.polynomial.legendre.leggauss(GL_NODES)


def gl_panel(fn, a, b):
    """``GL_NODES``-point Gauss-Legendre integral of ``fn`` over [a, b]."""
    x, w = _leggauss()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, np.asarray(fn(mid + half * x), dtype=float)))


def gl_panel_columns(fn, edges, m, tol=None):
    """Running integrals of m columns over ``GL_NODES``-point Gauss-Legendre
    panels [edges[k], edges[k + 1]]: the one blocked radial sweep.

    ``fn(r, cols)`` maps the nodes of a block of panels, shape
    (K, GL_NODES, 1), and the open columns' indices to values of shape
    (K, GL_NODES, cols.size).  A block is as many panels as fit
    ``BLOCK_POINTS`` points over the open columns, and at least one.  Returns
    ``(partials, cols)``: row k of the (panels, m) partials is each column's
    integral up to edges[k + 1], summed panel by panel, and cols the columns
    never closed.  With ``tol`` set, a column closes at the first panel
    k >= 4 where its total is positive and finite and the panel added at
    most tol of it; its later panels are evaluated and dropped, and its
    later rows are 0 but the last, which holds its total.  BLAS rounds each
    column of ``w @ vals`` by its place among the columns it is given, so a
    block is summed in runs, each over the columns open at its first panel
    and up to the first panel that closes one: every row is bit for bit that
    of a sweep one panel at a time.
    """
    x, w = _leggauss()
    half = 0.5 * (edges[1:] - edges[:-1])
    radii = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * x
    panels = half.size
    partials = np.zeros((panels, m))
    cols = np.arange(m)  # the open columns, those of vals and acc
    acc = np.zeros(m)
    k = end = 0  # vals holds panels k..end-1
    while cols.size and k < panels:
        if k == end:
            end = min(panels, k + max(1, BLOCK_POINTS // (GL_NODES * cols.size)))
            vals = np.asarray(fn(radii[k:end, :, None], cols), dtype=float)
        c = half[k:end, None] * (w @ vals)
        if tol is None:  # every column stays open: sum down the rows at the end
            partials[k:end] = c
            k = end
            continue
        # the running totals after each panel; cumsum down the rows costs
        # per column, so one row is a plain sum
        running = (acc + c if end - k == 1 else
                   np.cumsum(np.concatenate((acc[None], c)), axis=0)[1:])
        done = (running > 0.0) & np.isfinite(running) & (c <= tol * running)
        done[:max(4 - k, 0)] = False  # no column closes before panel 4
        closing = np.flatnonzero(done)
        n = closing[0] // cols.size + 1 if closing.size else end - k
        partials[k:k + n, cols] = running[:n]
        acc = running[n - 1]
        k += n
        if closing.size:
            partials[-1, cols] = acc  # the open columns overwrite theirs
            still = ~done[n - 1]
            cols, acc = cols[still], acc[still]
            vals = np.compress(still, vals[n:], axis=2)
    if tol is None:
        np.cumsum(partials, axis=0, out=partials)
    return partials, cols


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


# The radial ladder r_j = 1 - 2^-j, j = 1..20: rows of the supremum grid, the
# seminorm's ridge, the verdict's evidence rows and the scan's structured pairs.
LADDER = tuple(dyadic_radius(j) for j in range(1, 21))
# Size of the supremum grid (see sup_grid).
SUP_RADII = 64
SUP_ANGLES = 256


@cache
def sup_grid():
    """``(radii, angles, points)`` of every supremum: SUP_RADII tanh-spaced
    radii up to 1 - 2^-20 joined with the 20 of ``LADDER``, SUP_ANGLES equally
    spaced angles, and their outer product.  ``sup_search`` (the Bloch-type
    functional and Q) and the probe's candidates take the points, and
    ``circle_max`` the angles.  Built on first use and shared read-only."""
    tanh = np.tanh(np.linspace(0.0, math.atanh(LADDER[-1]), SUP_RADII))
    radii = np.union1d(tanh, LADDER)
    angles = np.arange(SUP_ANGLES) * (TWO_PI / SUP_ANGLES)
    grid = radii, angles, radii[:, None] * np.exp(1j * angles)[None, :]
    for array in grid:
        array.flags.writeable = False
    return grid


def circle_max(sample):
    """Maximum of a 2pi-periodic ``sample`` of an array of angles of any shape.

    ``sample`` is evaluated at the angles of ``sup_grid``, and its
    ``REFINE_TOP`` strongest node-local maxima (ties count) are refined
    together by one ``golden_max`` call on boxes one step either side.
    Returns ``(value, angle_width)``: as in ``sup_search``, the best refined
    value replaces the node maximum only when larger, so a NaN node is the
    value; the width is that box's, or the step when no node is a peak.
    """
    theta = sup_grid()[1]
    step = TWO_PI / SUP_ANGLES
    vals = np.asarray(sample(theta), dtype=float)
    best = float(np.max(vals))
    ring = np.concatenate((vals[-1:], vals, vals[:1]))  # the angle wraps
    peaks = np.flatnonzero((vals >= ring[:-2]) & (vals >= ring[2:]))
    if not peaks.size:  # no node compares with both neighbours, as with NaN
        return best, step
    top = theta[peaks[np.argsort(vals[peaks])[::-1][:REFINE_TOP]], None]
    _, refined, width = golden_max(lambda t: sample(t[..., 0, :]), top - step, top + step)
    k = int(np.argmax(refined))
    return (float(refined[k]) if refined[k] > best else best), float(width[k, 0])


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


def sup_search(objective, values=None):
    """Maximum of ``objective(z)`` on the points of ``sup_grid``, plus local
    refinement.

    The ``REFINE_TOP`` strongest grid-local maxima are refined together by
    one ``golden_max`` call, which guards against near-tied peaks resolving
    differently off-grid.  Each peak's (radius, angle) box spans its
    neighbouring radii and two angular steps either way, since on a tilted
    ridge the grid peak can sit almost two steps from the true one; the r = 0
    peak's box spans the first ring and every angle.  A round evaluates
    ``objective`` on each box's 15 radii times its 15 angles, taking one
    exponential per angle.  ``objective`` must act elementwise on complex
    ndarrays of any shape; ``values``, when given, are its values on the
    points.  The grid maximum is replaced by the best refined value only when
    that is larger, so a NaN anywhere on the grid is the value.  Returns
    ``(value, argmax_z, (radius_width, angle_width))``, the widths being the
    final box of the strongest refined peak (the grid steps when the grid has
    no peak, as when it is all NaN).
    """
    r, th, zgrid = sup_grid()
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
