"""Batched bracket search, the supremum engine, and the seeded sampler."""

import math

import numpy as np
import pytest

from blochdisk import DEFAULT_PLAN, Polynomial, as_harmonic, lambda_f
from blochdisk.extremal import QuadraticExtremal
from blochdisk.numerics import (INV_GOLDEN, TWO_PI, area_uniform_points,
                                golden_max, sup_search)


class TestGoldenMax:
    @pytest.mark.parametrize("iters", [5, 20, 40])
    def test_batch_of_brackets(self, iters):
        # unimodal on each bracket, with maximizers at known points
        peaks = np.array([0.1, 0.37, -2.5, 3.0, 0.999])
        a = np.array([0.0, 0.0, -4.0, 2.9, 0.5])
        b = np.array([1.0, 2.0, 1.0, 3.2, 1.0])
        x, fx, width = golden_max(lambda t: -(t - peaks[:, None]) ** 2, a, b, iters)
        assert x.shape == fx.shape == width.shape == peaks.shape
        bound = INV_GOLDEN ** iters * (b - a)
        assert np.all(width <= bound)
        assert np.all(np.abs(x - peaks) <= bound)
        assert np.array_equal(fx, -(x - peaks) ** 2)

    def test_nonpolynomial_unimodal_functions(self):
        # x exp(-x) peaks at 1; sin at pi/2; x(1-x^2) at 1/sqrt(3)
        fns = (lambda t: t * np.exp(-t), np.sin, lambda t: t * (1.0 - t * t))
        peaks = (1.0, math.pi / 2.0, 1.0 / math.sqrt(3.0))
        a = np.array([0.0, 0.3, 0.0])
        b = np.array([5.0, 3.0, 1.0])

        def fn(t):
            return np.stack([f(row) for f, row in zip(fns, t)])

        x, _, _ = golden_max(fn, a, b, 40)
        assert np.all(np.abs(x - peaks) <= INV_GOLDEN ** 40 * (b - a))

    def test_scalar_bracket(self):
        x, fx, width = golden_max(lambda t: -np.abs(t - 0.25), 0.0, 1.0, 40)
        assert np.shape(x) == ()
        assert abs(float(x) - 0.25) <= INV_GOLDEN ** 40
        assert float(width) <= INV_GOLDEN ** 40
        assert float(fx) == -abs(float(x) - 0.25)

    def test_one_call_per_round(self):
        calls = []

        def fn(t):
            calls.append(t.shape)
            return -t ** 2

        golden_max(fn, np.full(4, -1.0), np.full(4, 2.0), 40)
        assert calls == [(4, 15)] * 10


def _functional(f):
    return lambda z: lambda_f(f, z) * (1.0 - np.abs(z) ** 2)


class TestSupSearch:
    def test_eta_peak_is_one(self):
        value, z, _ = sup_search(_functional(as_harmonic(QuadraticExtremal())),
                                 DEFAULT_PLAN.sup_grid())
        assert value == pytest.approx(1.0, rel=1e-12)
        assert abs(z) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_monomial_closed_form(self, n):
        # Lambda(z) (1 - |z|^2) = n r^(n-1) (1 - r^2), peak at r^2 = (n-1)/(n+1)
        r = math.sqrt((n - 1) / (n + 1))
        exact = n * r ** (n - 1) * (1.0 - r * r)
        f = as_harmonic(Polynomial((0j,) * n + (1 + 0j,)))
        radii, angles, _ = grid = DEFAULT_PLAN.sup_grid()
        value, _, (wr, wa) = sup_search(_functional(f), grid)
        assert value == pytest.approx(exact, rel=1e-12)
        assert wr <= radii[1] - radii[0]
        assert wa <= TWO_PI / len(angles)

    def test_given_grid_values_are_used(self):
        f = as_harmonic(Polynomial((0, 0.5, 0.25j, 0.1)))
        objective = _functional(f)
        grid = DEFAULT_PLAN.sup_grid()
        values = objective(grid[2])
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return objective(z)

        given = sup_search(counted, grid, values=values)
        assert values.size not in sizes
        assert given == sup_search(objective, grid)


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
