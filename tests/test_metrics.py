"""Pseudo-hyperbolic and hyperbolic distance, disk automorphisms."""

import math

import numpy as np
import pytest

from blochdisk import mobius, rho, sigma
from blochdisk.metrics import rho_array
from conftest import disk_samples


def test_rho_from_origin_is_modulus():
    for w in (0.3, -0.5j, 0.2 + 0.6j):
        assert rho(0, w) == pytest.approx(abs(w), abs=1e-15)


def test_rho_identical_points_exact_zero():
    z = 0.12345 + 0.6789j
    assert rho(z, z) == 0.0
    # no fuzzy equality: distinct floats give a positive distance
    assert rho(z, z + 1e-15) > 0.0


def test_rho_array_matches_rho(rng):
    z = disk_samples(rng, 500)
    w = disk_samples(rng, 500)
    scalar = np.array([rho(a, b) for a, b in zip(z.tolist(), w.tolist())])
    assert np.max(np.abs(rho_array(z, w) - scalar)) <= 4 * np.finfo(float).eps
    # broadcasting, as the probe measures targets against candidates
    block = rho_array(z[:40], w[:30, None])
    assert block.shape == (30, 40)
    assert block[7, 11] == pytest.approx(rho(z[11], w[7]), abs=4 * np.finfo(float).eps)
    assert np.all(rho_array(z, z.copy()) == 0.0)


def test_rho_hand_value():
    assert rho(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)


def test_sigma_values():
    assert sigma(0.1j, 0.1j) == 0.0
    # independent oracle: 0.5*log((1+r)/(1-r))
    assert sigma(0, 0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
    assert sigma(0, 0.8) == pytest.approx(0.5 * math.log(9.0), abs=1e-14)


def test_sigma_dominates_rho(rng):
    z = disk_samples(rng, 200)
    w = disk_samples(rng, 200)
    for zz, ww in zip(z, w):
        r, s = rho(zz, ww), sigma(zz, ww)
        assert s >= r
        if r > 1e-12:
            assert s > r


def test_mobius_special_points():
    phi = mobius(0)
    assert phi.eval(0.3) == pytest.approx(-0.3)
    phi = mobius(0.5)
    assert phi.eval(0.5) == pytest.approx(0.0, abs=1e-15)
    assert phi.eval(0) == pytest.approx(0.5)


def test_mobius_invariance_of_rho(rng):
    a = disk_samples(rng, 1000, r_max=0.95)
    z = disk_samples(rng, 1000, r_max=0.95)
    w = disk_samples(rng, 1000, r_max=0.95)
    for aa, zz, ww in zip(a, z, w):
        phi = mobius(aa)
        moved = rho(phi.eval(zz), phi.eval(ww))
        assert abs(moved - rho(zz, ww)) < 1e-12


def test_mobius_involution(rng):
    a = disk_samples(rng, 500, r_max=0.95)
    z = disk_samples(rng, 500, r_max=0.95)
    for aa, zz in zip(a, z):
        phi = mobius(aa)
        assert abs(phi.eval(phi.eval(zz)) - zz) < 1e-12


def test_mobius_derivative_identity(rng):
    # |phi_a'(w)| = (1 - |phi_a(w)|^2) / (1 - |w|^2)
    a = disk_samples(rng, 500, r_max=0.95)
    w = disk_samples(rng, 500, r_max=0.95)
    for aa, ww in zip(a, w):
        phi = mobius(aa)
        lhs = abs(phi.deriv(ww))
        rhs = (1 - abs(phi.eval(ww)) ** 2) / (1 - abs(ww) ** 2)
        assert abs(lhs - rhs) < 1e-12


def test_rho_symmetry(rng):
    z = disk_samples(rng, 300)
    w = disk_samples(rng, 300)
    for zz, ww in zip(z, w):
        assert rho(zz, ww) == pytest.approx(rho(ww, zz), abs=1e-15)
        assert 0.0 <= rho(zz, ww) < 1.0
