"""Batched box search, the supremum engine, and the seeded sampler."""

import math

import numpy as np
import pytest

from blochdisk import Polynomial, as_harmonic, lambda_f, numerics
from blochdisk.extremal import QuadraticExtremal
from blochdisk.numerics import (GOLDEN_ITERS, INV_GOLDEN, TWO_PI, area_uniform_points,
                                golden_max, sup_grid, sup_search)


# every side of a golden_max box ends at most this fraction of its start
WIDTH = INV_GOLDEN ** GOLDEN_ITERS


def _lattice(nodes):
    """The points, shape S + (n,) * d + (d,), of the tensor lattice of the
    per-axis ``nodes`` of shape S + (d, n); lattice axis k runs over side k."""
    *batch, d, n = nodes.shape
    sides = [nodes[..., k, :].reshape(tuple(batch) + (1,) * k + (n,) + (1,) * (d - 1 - k))
             for k in range(d)]
    return np.stack(np.broadcast_arrays(*sides), axis=-1)


def _on_lattice(point_fn):
    """A golden_max objective from a function of points, shape (..., d)."""
    return lambda nodes: point_fn(_lattice(nodes))


def _per_box(c, x):
    """Box-wise data c, shape S + (d,), aligned with points x, shape S + ... + (d,)."""
    return c.reshape(c.shape[:-1] + (1,) * (x.ndim - c.ndim) + c.shape[-1:])


def _point_lattice_golden_max(fn, a, b):
    """golden_max as it was when ``fn`` took the 15^d lattice points of each
    box, shape S + (15^d, d): the reference its results must equal bit for bit."""
    a = np.asarray(a, dtype=float)
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d = a.shape[-1]
    offsets = np.arange(-7, 8) / 8.0
    lattice = np.stack(np.meshgrid(*[offsets] * d, indexing="ij"), -1).reshape(-1, d)
    for _ in range(numerics.GOLDEN_ROUNDS):
        vals = np.asarray(fn(centre[..., None, :] + half[..., None, :] * lattice), dtype=float)
        centre = centre + half * lattice[vals.argmax(axis=-1)]
        half = half / 8.0
    return centre, vals.max(axis=-1), np.maximum(2.0 * half, np.spacing(np.abs(centre)))


class TestGoldenMax:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_of_boxes(self, d):
        # a concave quadratic on each box, with its maximizer at a known point
        rng = np.random.default_rng(d)
        a = rng.uniform(-4.0, 1.0, (5, d))
        b = a + rng.uniform(0.1, 3.0, (5, d))
        peaks = a + rng.uniform(0.05, 0.95, (5, d)) * (b - a)
        fn = _on_lattice(lambda x: -np.sum((x - _per_box(peaks, x)) ** 2, axis=-1))

        x, fx, width = golden_max(fn, a, b)
        assert x.shape == width.shape == (5, d)
        assert fx.shape == (5,)
        bound = WIDTH * (b - a)
        assert np.all(width <= bound)
        assert np.all(np.abs(x - peaks) <= bound)
        assert np.array_equal(fx, fn(x[..., None]).reshape(5))

    def test_nonpolynomial_unimodal_functions(self):
        # x exp(-x) peaks at 1; sin at pi/2; x(1-x^2) at 1/sqrt(3)
        fns = (lambda t: t * np.exp(-t), np.sin, lambda t: t * (1.0 - t * t))
        peaks = np.array([1.0, math.pi / 2.0, 1.0 / math.sqrt(3.0)])
        a = np.array([[0.0], [0.3], [0.0]])
        b = np.array([[5.0], [3.0], [1.0]])

        def fn(nodes):
            return np.stack([f(row[0]) for f, row in zip(fns, nodes)])

        x, _, _ = golden_max(fn, a, b)
        assert np.all(np.abs(x[:, 0] - peaks) <= WIDTH * (b - a)[:, 0])

    def test_scalar_bracket(self):
        x, fx, width = golden_max(lambda t: -np.abs(t[0] - 0.25), [0.0], [1.0])
        assert x.shape == width.shape == (1,)
        assert np.shape(fx) == ()
        assert abs(float(x[0]) - 0.25) <= WIDTH
        assert float(width[0]) <= WIDTH
        assert float(fx) == -abs(float(x[0]) - 0.25)

    def test_single_box(self):
        peak = np.array([0.3, -1.2])
        a, b = np.array([0.0, -2.0]), np.array([1.0, 0.0])

        def fn(nodes):
            return (-np.abs(nodes[0, :, None] - peak[0])
                    - 2.0 * np.abs(nodes[1, None, :] - peak[1]))

        x, fx, width = golden_max(fn, a, b)
        assert x.shape == width.shape == (2,)
        assert np.shape(fx) == ()
        assert np.all(width <= WIDTH * (b - a))
        assert np.all(np.abs(x - peak) <= WIDTH * (b - a))
        assert float(fx) == fn(x[:, None]).item()

    def test_tilted_ridge_found_where_coordinate_search_stops(self):
        # a narrow ridge along y = x rising to its top at (0.8, 0.8); on the
        # unit square the box search follows it to the top, while two rounds
        # of an x search then a y search, from the centre, barely climb it
        def ridge(x, y):
            return -1e3 * (x - y) ** 2 - (x + y - 1.6) ** 2

        x, fx, _ = golden_max(lambda t: ridge(t[0, :, None], t[1, None, :]),
                              [0.0, 0.0], [1.0, 1.0])
        assert np.all(np.abs(x - 0.8) <= WIDTH)
        assert float(fx) == pytest.approx(0.0, abs=1e-15)

        y = 0.5
        for _ in range(2):
            xs, _, _ = golden_max(lambda t: ridge(t[0], y), [0.0], [1.0])
            ys, coordinate, _ = golden_max(lambda t: ridge(xs[0], t[0]), [0.0], [1.0])
            y = ys[0]
        assert float(coordinate) < -0.3

    def test_one_call_per_round(self):
        calls = []

        def fn(nodes):
            calls.append(nodes.shape)
            return -(nodes[:, 0, :, None] ** 2 + nodes[:, 1, None, :] ** 2)

        golden_max(fn, np.full((4, 2), -1.0), np.full((4, 2), 2.0))
        assert calls == [(4, 2, 15)] * 10

    @pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["multimodal", "ties", "nan"])
    def test_bits_equal_the_point_lattice_search(self, kind, d, batch):
        # the per-axis nodes are the point lattice's coordinates, and argmax
        # over the flattened tensor lattice takes the same first maximum, so
        # every node, value and width is the reference's to the bit
        rng = np.random.default_rng([d, len(batch)])
        a = rng.uniform(-3.0, 1.0, batch + (d,))
        b = a + rng.uniform(0.5, 4.0, batch + (d,))
        phase = rng.uniform(0.0, TWO_PI, batch + (d,))

        def point_fn(x):
            v = 0.0
            for k in range(d):
                v = v + np.cos((3.0 + k) * x[..., k] + _per_box(phase, x)[..., k])
            if kind == "ties":  # plateaus: many lattice nodes share the maximum
                v = np.round(v, 1)
            elif kind == "nan":  # a NaN wedge, where argmax stops
                v = np.where(x[..., 0] - x[..., -1] > 1.5, np.nan, v)
            return v

        got = golden_max(_on_lattice(point_fn), a, b)
        want = _point_lattice_golden_max(point_fn, a, b)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _functional(f):
    return lambda z: lambda_f(f, z) * (1.0 - np.abs(z) ** 2)


class TestSupSearch:
    def test_eta_peak_is_one(self):
        value, z, _ = sup_search(_functional(as_harmonic(QuadraticExtremal())))
        assert value == pytest.approx(1.0, rel=1e-12)
        assert abs(z) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_monomial_closed_form(self, n):
        # Lambda(z) (1 - |z|^2) = n r^(n-1) (1 - r^2), peak at r^2 = (n-1)/(n+1)
        r = math.sqrt((n - 1) / (n + 1))
        exact = n * r ** (n - 1) * (1.0 - r * r)
        f = as_harmonic(Polynomial((0j,) * n + (1 + 0j,)))
        radii, angles, _ = sup_grid()
        value, _, (wr, wa) = sup_search(_functional(f))
        assert value == pytest.approx(exact, rel=1e-12)
        assert wr <= radii[1] - radii[0]
        assert wa <= TWO_PI / len(angles)

    def test_given_grid_values_are_used(self):
        f = as_harmonic(Polynomial((0, 0.5, 0.25j, 0.1)))
        objective = _functional(f)
        values = objective(sup_grid()[2])
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return objective(z)

        given = sup_search(counted, values=values)
        assert values.size not in sizes
        assert given == sup_search(objective)

    def test_one_box_search_for_all_peaks(self, monkeypatch):
        # every peak is refined by one golden_max call of 10 rounds
        f = as_harmonic(Polynomial((0, 0.5, 0.25j, 0.1, 0.3 - 0.2j)))
        objective = _functional(f)
        boxes, sizes = [], []

        def counted_golden_max(fn, a, b):
            boxes.append(np.shape(a))
            return golden_max(fn, a, b)

        def counted(z):
            sizes.append(np.size(z))
            return objective(z)

        monkeypatch.setattr(numerics, "golden_max", counted_golden_max)
        sup_search(counted)
        assert len(boxes) == 1
        assert boxes[0][1] == 2 and 1 <= boxes[0][0] <= numerics.REFINE_TOP
        assert sizes == [sup_grid()[2].size] + [boxes[0][0] * 225] * 10


class TestCircleMax:
    def test_samples_the_supremum_grid_angles(self):
        seen = []

        def sample(theta):
            seen.append(theta)
            return np.cos(theta - 1.0)

        value, width = numerics.circle_max(sample)
        assert seen[0] is sup_grid()[1]
        assert value == pytest.approx(1.0, rel=1e-15)
        assert width <= TWO_PI / seen[0].size

    def test_a_nan_node_maximum_is_the_value(self):
        # the refined peak near angle 1 is finite, but as in sup_search it
        # replaces the node maximum only when larger, and nothing beats NaN
        value, _ = numerics.circle_max(lambda t: np.where(t == 0.0, np.nan, np.cos(t - 1.0)))
        assert math.isnan(value)


def _roll_pad_local_maxima(vals):
    """_grid_local_maxima as it was, with rolled and padded copies of the grid:
    the reference for its peaks and their order."""
    up = np.roll(vals, 1, axis=1)
    down = np.roll(vals, -1, axis=1)
    inner = np.pad(vals, ((1, 1), (0, 0)), constant_values=-np.inf)
    mask = (vals >= up) & (vals >= down) & (vals >= inner[2:, :]) & (vals >= inner[:-2, :])
    mask[0, 1:] = False
    return np.argwhere(mask)


class TestGridLocalMaxima:
    @staticmethod
    def _check(vals):
        got = numerics._grid_local_maxima(vals)
        assert got.dtype == np.intp and got.shape[1:] == (2,)
        assert np.array_equal(got, _roll_pad_local_maxima(vals))
        return got

    @pytest.mark.parametrize("shape", [(83, 256), (20, 16), (1, 1), (1, 7), (6, 1), (2, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_grids(self, shape, seed):
        rng = np.random.default_rng([seed, *shape])
        self._check(rng.random(shape))
        self._check(rng.integers(0, 3, shape).astype(float))  # ties everywhere

    def test_all_zero_grid(self):
        # Q of a constant symbol: every cell ties, so every cell of rows 1 and
        # up is a peak, and row 0 gives its one at angle 0
        peaks = self._check(np.zeros((83, 256)))
        assert len(peaks) == 82 * 256 + 1

    def test_ring_tied_functional_of_z_cubed(self):
        grid = sup_grid()
        vals = _functional(as_harmonic(Polynomial((0, 0, 0, 1))))(grid[2])
        peaks = self._check(vals)
        assert len(peaks) == 131
        assert set(peaks[:, 0]) == {9}

    @pytest.mark.parametrize("fraction", [0.01, 0.2, 1.0])
    def test_grids_with_nan_cells(self, fraction):
        rng = np.random.default_rng(int(fraction * 100))
        vals = rng.random((83, 256))
        vals[rng.random(vals.shape) < fraction] = np.nan
        vals[0] = np.nan if fraction == 1.0 else vals[0, 0]  # row 0 is one point
        peaks = self._check(vals)
        assert not np.isnan(vals[tuple(peaks.T)]).any()


def test_area_uniform_points_matches_inline_draws():
    # the draws lipschitz_scan and bounded_below_probe used to write out
    n = 1000
    rng = np.random.default_rng(5)
    radius = np.sqrt(rng.random(n))
    angle = TWO_PI * rng.random(n)
    scan_draw = radius * np.exp(1j * angle)
    rng = np.random.default_rng(5)
    probe_draw = np.sqrt(rng.random(n)) * np.exp(1j * TWO_PI * rng.random(n))
    shared = area_uniform_points(np.random.default_rng(5), n)
    assert shared.tobytes() == scan_draw.tobytes() == probe_draw.tobytes()
