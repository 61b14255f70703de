"""Acceptance suite: one test per numbered criterion.

Each test prints a PASS line with the measured quantities (run pytest with -s
to see them); tolerances are pinned here, not deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from blochdisk import (LIP_CONSTANT, Polynomial, PowerKernel, QuadraticExtremal,
                       ScaledIdentity, a0, as_harmonic, bloch_functional,
                       bloch_seminorm, bloch_to_hardy_criterion,
                       bounded_below_probe, classical_params, compose,
                       doubling_limits, g_function, growth_bound_check,
                       hardy_mean, hardy_norm, hardy_to_bloch_q,
                       hardy_to_bloch_verdict, lambda_f, lipschitz_scan,
                       mobius, psi, random_normalized_corpus,
                       sharpness_witness)
from blochdisk.cli import parse_config, run
from blochdisk.extremal import AntiderivativeExtremal

from conftest import (disk_samples, g_sq_oracle, parseval_mean_sq,
                      path_integral, random_polynomial_pair)

CLASSICAL = classical_params()
BRANCH_POINT = math.sqrt(3.0) / 2.0


def _report(number, detail):
    print(f"PASS criterion {number}: {detail}")


def test_criterion_01_profile_peak_normalization():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 5.0):
        err = abs(psi(a0(alpha), alpha) - 1.0)
        assert err < 1e-12, (alpha, err)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"peak normalization max error {worst:.2e} in {elapsed:.3f}s")


def test_criterion_02_extremal_seminorms():
    start = time.perf_counter()
    eta = float(bloch_seminorm(as_harmonic(QuadraticExtremal())))
    assert eta == pytest.approx(1.0, abs=1e-6)
    details = [f"eta {eta:.9f}"]
    for beta in (0.2, 0.49012, 0.9):
        t0 = time.perf_counter()
        value = float(bloch_seminorm(as_harmonic(AntiderivativeExtremal(beta))))
        assert value == pytest.approx(1.0, abs=1e-5), beta
        assert time.perf_counter() - t0 < 5.0
        details.append(f"beta={beta} {value:.8f}")
    elapsed = time.perf_counter() - start
    _report(2, "; ".join(details) + f" ({elapsed:.2f}s)")


def test_criterion_03_sharp_constant_upper_side():
    start = time.perf_counter()
    cap = LIP_CONSTANT * (1.0 + 1e-4)
    corpus = random_normalized_corpus(200, seed=20240817, degree=12)
    worst = 0.0
    for i, f in enumerate(corpus):
        rep = lipschitz_scan(f, 10_000, seed=1000 + i)
        ratio = rep.max_ratio / rep.seminorm
        assert ratio <= cap, (i, ratio)
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"200 maps x 10^4 pairs, worst ratio {worst:.6f} <= "
               f"{cap:.6f} in {elapsed:.1f}s")


def test_criterion_04_sharp_constant_lower_side():
    start = time.perf_counter()
    details = []
    for eps in (0.01, 0.1, 0.5):
        rep = sharpness_witness(eps)
        assert rep.achieved_ratio >= LIP_CONSTANT - eps - 1e-12
        if eps < BRANCH_POINT:
            assert rep.achieved_ratio == \
                pytest.approx(LIP_CONSTANT - eps, abs=1e-9)
        details.append(f"eps={eps}: {rep.achieved_ratio:.10f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, "; ".join(details) + f" ({elapsed:.3f}s)")


def test_criterion_05_mobius_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        f = random_polynomial_pair(rng, degree=12)
        a = complex(disk_samples(rng, 1, r_max=0.93)[0])
        phi = mobius(a)
        composed = compose(f, phi)
        for z in disk_samples(rng, 10, r_max=0.97):
            lhs = bloch_functional(composed, CLASSICAL, z)
            rhs = bloch_functional(f, CLASSICAL, phi.eval(z))
            err = abs(lhs - rhs)
            assert err < 1e-10
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"10^3 triples, worst deviation {worst:.2e} in {elapsed:.2f}s")


def test_criterion_06_bloch_to_hardy_calibration():
    start = time.perf_counter()
    constant = bloch_to_hardy_criterion(Polynomial((0.3,)), CLASSICAL, 2.0)
    half = bloch_to_hardy_criterion(ScaledIdentity(0.5), CLASSICAL, 2.0)
    identity = bloch_to_hardy_criterion(ScaledIdentity(1.0), CLASSICAL, 2.0)

    assert constant.verdict == "convergent" and constant.estimate == 0.0
    assert half.verdict == "convergent"
    assert identity.verdict == "divergent"
    assert [rep.diagnostics["contact"] for rep in (constant, half, identity)] == \
        ["none", "none", "whole"]

    # the identity's evidence grows like the symbolic oracle (1/4) log(1/(1-R)):
    # least-squares slope of its last eight rungs against k log 2, within 10%
    ks, vals = np.array(identity.evidence[-8:]).T
    slope = float(np.polyfit(ks * math.log(2.0), vals, 1)[0])
    assert slope == pytest.approx(0.25, rel=0.10)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"verdicts (convergent, convergent, divergent); identity slope "
               f"{slope:.4f} vs symbolic 0.25 in {elapsed:.2f}s")


def test_criterion_07_hardy_to_bloch_calibration():
    start = time.perf_counter()
    identity = hardy_to_bloch_verdict(ScaledIdentity(1.0), CLASSICAL, 2.0)
    half = hardy_to_bloch_verdict(ScaledIdentity(0.5), CLASSICAL, 2.0)
    constant = hardy_to_bloch_verdict(Polynomial((0.3,)), CLASSICAL, 2.0)

    assert identity.verdict == "unbounded"
    assert half.verdict == "vacuously-compact"
    assert half.diagnostics["bounded"] is True
    assert constant.verdict == "vacuously-compact"
    assert constant.diagnostics["bounded"] is True

    q = hardy_to_bloch_q(ScaledIdentity(1.0), CLASSICAL, 2.0, 0.99)
    assert q == pytest.approx(7.0888, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"verdicts (unbounded, vacuously-compact x2); "
               f"Q(0.99) = {q:.6f} in {elapsed:.2f}s")


def test_criterion_08_test_family_norm():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        b = complex(disk_samples(rng, 1, r_max=1.0)[0])
        p = float(rng.uniform(0.5, 4.0))
        est = hardy_norm(PowerKernel(b, p), p)
        assert math.isfinite(est.value)
        err = abs(est.value - 1.0)
        assert err < 1e-5, (b, p, err)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(8, f"20 kernels, worst |norm - 1| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_09_growth_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(100):
        f = random_polynomial_pair(rng, degree=12)
        p = float(rng.uniform(1.1, 4.0))
        h_norm = hardy_norm(f.h, p).value
        g_norm = hardy_norm(f.g, p).value
        bound = 4.0 ** (1.0 / p) * (h_norm + g_norm)
        z = disk_samples(rng, 100, r_max=0.995)
        lhs = lambda_f(f, z) * (1.0 - np.abs(z) ** 2) ** (1.0 + 1.0 / p)
        violations += int(np.sum(lhs > bound))
    assert violations == 0
    # the op-level record agrees on a sample
    rec = growth_bound_check(random_polynomial_pair(rng), 2.0, 0.4 + 0.2j)
    assert rec["ok"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, f"100 pairs x 100 points, zero violations in {elapsed:.1f}s")


def test_criterion_10_doubling_limits():
    start = time.perf_counter()
    details = []
    for alpha, beta in ((1.0, 0.0), (2.0, 1.0), (1.0, -1.0)):
        lim0, lim1 = doubling_limits(alpha, beta)
        exp0 = 2.0 ** alpha
        exp1 = (4.0 / 3.0) ** alpha / (1.0 + math.log(4.0 / 3.0)) ** beta
        assert abs(lim0 - exp0) < 1e-4, (alpha, beta, lim0)
        assert abs(lim1 - exp1) < 1e-4, (alpha, beta, lim1)
        details.append(f"({alpha:g},{beta:g}): {abs(lim0-exp0):.1e}/"
                       f"{abs(lim1-exp1):.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(10, "endpoint errors " + "; ".join(details) + f" ({elapsed:.3f}s)")


def test_criterion_11_bounded_below_probe():
    start = time.perf_counter()
    r, eps = 0.2, 0.5
    implied_expected = (1.0 - LIP_CONSTANT * r) * eps
    for name, phi in (("identity", ScaledIdentity(1.0)), ("mobius", mobius(0.3))):
        rep = bounded_below_probe(phi, r, eps, 100, seed=7)
        assert rep.fraction == 1.0, name
        assert rep.implied_constant == pytest.approx(implied_expected, abs=1e-12)
    const = bounded_below_probe(Polynomial((0.3,)), r, eps, 100, seed=7)
    assert const.fraction == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(11, f"fractions (1, 1, 0); implied constant "
                f"{implied_expected:.10f} in {elapsed:.2f}s")


def test_criterion_12_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1212)

    worst_parseval = 0.0
    for _ in range(30):
        deg = int(rng.integers(0, 13))
        coeffs = tuple(rng.uniform(-1, 1, deg + 1)
                       + 1j * rng.uniform(-1, 1, deg + 1))
        radius = float(rng.uniform(0.0, 0.99))
        mean = hardy_mean(Polynomial(coeffs), 2, radius)
        err = abs(mean ** 2 - parseval_mean_sq(coeffs, radius))
        assert err < 1e-10
        worst_parseval = max(worst_parseval, err)

    worst_g = 0.0
    for _ in range(10):
        deg = int(rng.integers(1, 10))
        coeffs = tuple(rng.uniform(-1, 1, deg + 1)
                       + 1j * rng.uniform(-1, 1, deg + 1))
        angle = float(rng.uniform(0, 2 * math.pi))
        value = g_function(Polynomial(coeffs), angle)
        oracle = g_sq_oracle(coeffs, complex(math.cos(angle), math.sin(angle)))
        err = abs(value ** 2 - oracle)
        assert err < 1e-8
        worst_g = max(worst_g, err)

    worst_path = 0.0
    for beta in (0.2, 0.49012, 0.9):
        fmap = AntiderivativeExtremal(beta)
        m, b = fmap.m, fmap.beta

        def integrand(xi, m=m, b=b):
            return b * (m - xi) / (m * (1.0 - m * xi) ** 3)

        for z in disk_samples(rng, 34, r_max=0.98):
            err = abs(fmap.eval(complex(z)) - path_integral(integrand, complex(z)))
            assert err < 1e-9
            worst_path = max(worst_path, err)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(12, f"parseval {worst_parseval:.1e}; square-function {worst_g:.1e}; "
                f"path-integral {worst_path:.1e} in {elapsed:.1f}s")


def test_criterion_13_determinism():
    start = time.perf_counter()
    cases = [
        ["lipschitz-scan", "--func", "eta", "--pairs", "2000", "--seed", "17"],
        ["compop-criterion", "--phi", "half-identity", "--p", "2"],
        ["bounded-below-probe", "--phi", "mobius:0.3", "--r", "0.2",
         "--epsilon", "0.5", "--samples", "50", "--seed", "5"],
    ]
    for argv in cases:
        first = run(parse_config(argv)).to_json()
        second = run(parse_config(argv)).to_json()
        assert first == second, argv
        json.loads(first)  # reports stay valid JSON
    elapsed = time.perf_counter() - start
    _report(13, f"byte-identical reports across runs ({elapsed:.2f}s)")
