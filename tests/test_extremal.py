"""Profile root machinery, derivative bounds, extremal family, scanner."""

import math

import numpy as np
import pytest

from blochdisk import (DegeneratePairError, LIP_CONSTANT, ParameterRangeError,
                       Polynomial, QuadratureError, ZeroSeminormError, a0, as_harmonic,
                       bloch_functional, bloch_seminorm, classical_params,
                       deriv_lower_bound, deriv_upper_bound, f_beta,
                       lipschitz_ratio, lipschitz_scan, m_root, mobius, psi,
                       random_normalized_corpus, sharpness_witness)
from blochdisk.extremal import AntiderivativeExtremal, QuadraticExtremal

from conftest import ReciprocalGap, disk_samples, path_integral

ALPHAS = (0.25, 0.5, 1.0, 2.0, 5.0)


class TestPsi:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_peak_value_is_one(self, alpha):
        assert abs(psi(a0(alpha), alpha) - 1.0) < 1e-12

    def test_vanishes_at_zero(self):
        for alpha in ALPHAS:
            assert psi(0.0, alpha) == 0.0

    def test_hand_value_alpha_one(self):
        # psi(x; 1) = (3 sqrt(3)/2) x (1 - x^2)
        assert psi(0.2, 1.0) == pytest.approx(LIP_CONSTANT * 0.2 * 0.96, abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_unimodal_profile(self, alpha):
        peak = a0(alpha)
        up = np.linspace(0.0, peak, 1000)
        down = np.linspace(peak, 1.0, 1000)
        assert np.all(np.diff(psi(up, alpha)) > 0)
        assert np.all(np.diff(psi(down, alpha)) < 0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ParameterRangeError):
            psi(0.5, 0.0)


class TestMRoot:
    def test_endpoint(self):
        sol = m_root(1.0, 1.0)
        assert sol.m == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert sol.residual <= 1e-12

    def test_roundtrip_of_psi_value(self):
        target = psi(0.2, 1.0)
        sol = m_root(target, 1.0)
        assert sol.m == pytest.approx(0.2, abs=1e-12)

    def test_residuals_small(self, rng):
        for _ in range(50):
            alpha = float(rng.uniform(0.2, 5.0))
            r0 = float(rng.uniform(1e-4, 1.0))
            sol = m_root(r0, alpha)
            assert sol.residual <= 1e-12
            assert 0.0 <= sol.m <= sol.a0 + 1e-15

    @pytest.mark.parametrize("alpha", (0.1,) + ALPHAS)
    def test_residual_against_mpmath(self, alpha):
        # psi(m) at 40 digits: the reported residual is the true one to
        # within the rounding of a double evaluation of psi
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        with mp.workdps(40):
            a = mp.mpf(alpha)
            scale = mp.sqrt(1 + 2 * a) * ((1 + 2 * a) / (2 * a)) ** a
            for r0 in (1e-8, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999, 1.0):
                sol = m_root(r0, alpha)
                m = mp.mpf(sol.m)
                true = abs(scale * m * (1 - m * m) ** a - mp.mpf(r0))
                assert true <= sol.residual + 4 * eps, (r0, alpha)

    def test_monotone_in_r0(self):
        grid = np.linspace(1e-3, 1.0, 100)
        roots = [m_root(float(r), 1.0).m for r in grid]
        assert all(b >= a - 1e-12 for a, b in zip(roots, roots[1:]))

    def test_small_r0_gives_small_root(self):
        assert m_root(1e-8, 1.0).m < 1e-7

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            m_root(0.0, 1.0)
        with pytest.raises(ParameterRangeError):
            m_root(1.5, 1.0)


class TestDerivBounds:
    def test_lower_at_origin_is_r0(self):
        for r0 in (0.3, 0.7, 1.0):
            assert deriv_lower_bound(r0, 1.0, 0j) == pytest.approx(r0, abs=1e-12)

    def test_upper_at_origin_is_r0(self):
        for r0 in (0.3, 0.7):
            assert deriv_upper_bound(r0, 1.0, 0j) == pytest.approx(r0, abs=1e-12)

    def test_lower_vanishes_at_m(self):
        sol = m_root(1.0, 1.0)
        assert deriv_lower_bound(1.0, 1.0, sol.m) == pytest.approx(0.0, abs=1e-12)

    def test_upper_radius_degenerates_at_r0_one(self):
        # m = a0 makes the admissible radius 0: only z = 0 applies
        assert deriv_upper_bound(1.0, 1.0, 0j) == pytest.approx(1.0, abs=1e-9)
        assert deriv_upper_bound(1.0, 1.0, 0.05) is None

    def test_not_applicable_outside_radius(self):
        sol = m_root(0.5, 1.0)
        radius = (sol.a0 + sol.m) / (1.0 + sol.a0 * sol.m)
        assert deriv_lower_bound(0.5, 1.0, radius + 0.01) is None

    def test_upper_formula_value(self):
        sol = m_root(0.5, 1.0)
        z = 0.1
        expected = 0.5 * (sol.m + z) / (sol.m * (1.0 + sol.m * z) ** 3)
        assert deriv_upper_bound(0.5, 1.0, z) == pytest.approx(expected, abs=1e-12)

    def test_extremal_family_attains_lower_bound(self):
        beta = 0.49012
        fmap = AntiderivativeExtremal(beta)
        for x in np.linspace(0.0, fmap.m, 10):
            bound = deriv_lower_bound(beta, 1.0, complex(x))
            assert complex(fmap.deriv(complex(x))).real == \
                pytest.approx(bound, abs=1e-11)


class TestExtremalFamily:
    def test_value_at_origin(self):
        assert f_beta(0.49012, 0j) == 0j

    def test_initial_slope(self):
        for beta in (0.2, 0.49012, 0.9):
            assert AntiderivativeExtremal(beta).deriv(0j) == \
                pytest.approx(beta, abs=1e-12)

    def test_closed_form_matches_path_integral(self, rng):
        for beta in (0.2, 0.49012, 0.9):
            fmap = AntiderivativeExtremal(beta)
            m, b = fmap.m, fmap.beta

            def integrand(xi):
                return b * (m - xi) / (m * (1.0 - m * xi) ** 3)

            for z in disk_samples(rng, 30, r_max=0.98):
                direct = fmap.eval(complex(z))
                via_path = path_integral(integrand, complex(z))
                assert abs(direct - via_path) < 1e-9

    def test_functional_transports_to_quadratic_extremal(self, rng):
        # B_{f_beta}(z) = B_{eta}(phi_m(z)) for the classical functional
        params = classical_params()
        beta = 0.49012
        fmap = AntiderivativeExtremal(beta)
        eta = as_harmonic(QuadraticExtremal())
        phi = mobius(fmap.m)
        for z in disk_samples(rng, 100, r_max=0.97):
            lhs = bloch_functional(as_harmonic(fmap), params, z)
            rhs = bloch_functional(eta, params, phi.eval(z))
            assert abs(lhs - rhs) < 1e-10

    def test_rejects_out_of_range_beta(self):
        with pytest.raises(ParameterRangeError):
            AntiderivativeExtremal(0.0)
        with pytest.raises(ParameterRangeError):
            AntiderivativeExtremal(1.2)


class TestLipschitzRatio:
    def test_identity_map_pair(self):
        f = as_harmonic(Polynomial((0, 1)))
        assert lipschitz_ratio(f, 0j, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_constant_map(self):
        f = as_harmonic(Polynomial((3,)))
        assert lipschitz_ratio(f, 0.1, 0.5j) == 0.0

    def test_extremal_pair_value(self):
        beta = 0.49012
        fmap = AntiderivativeExtremal(beta)
        got = lipschitz_ratio(as_harmonic(fmap), fmap.m, 0j)
        assert got == pytest.approx(LIP_CONSTANT * (1 - fmap.m ** 2), abs=1e-10)

    def test_degenerate_pair(self):
        f = as_harmonic(Polynomial((0, 1)))
        with pytest.raises(DegeneratePairError):
            lipschitz_ratio(f, 0.25, 0.25 + 1e-17j)


class TestLipschitzScan:
    def test_identity_map_capped_by_one(self):
        rep = lipschitz_scan(as_harmonic(Polynomial((0, 1))), 10_000, seed=1)
        assert rep.max_ratio <= 1.0 + 1e-9
        assert rep.cap_ok
        assert rep.seminorm == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_extremal_capped(self):
        rep = lipschitz_scan(as_harmonic(QuadraticExtremal()), 10_000, seed=1)
        assert rep.max_ratio <= LIP_CONSTANT + 1e-6
        assert rep.cap_ok

    def test_zero_seminorm_rejected(self):
        with pytest.raises(ZeroSeminormError):
            lipschitz_scan(as_harmonic(Polynomial((2,))), 100, seed=0)

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_pair_count_must_be_positive(self, pairs):
        with pytest.raises(ParameterRangeError, match="pairs must be >= 1"):
            lipschitz_scan(as_harmonic(Polynomial((0, 1))), pairs, seed=0)

    def test_boundary_growth_raises_quadrature_error(self):
        # 1/(1 - z) has no finite seminorm: its functional peaks on the
        # outermost grid ring, and the scan stops before sampling any pair
        with pytest.raises(QuadratureError, match="outermost grid ring"):
            lipschitz_scan(ReciprocalGap(), 100, seed=0)

    def test_deterministic_in_seed(self):
        f = as_harmonic(Polynomial((0, 0.5, 0.5)))
        rep1 = lipschitz_scan(f, 2000, seed=42)
        rep2 = lipschitz_scan(f, 2000, seed=42)
        assert rep1 == rep2


class TestSharpnessWitness:
    def test_exact_below_branch_point(self):
        for eps in (0.01, 0.1, 0.5):
            rep = sharpness_witness(eps)
            assert rep.achieved_ratio >= rep.floor - 1e-12
            assert rep.achieved_ratio == pytest.approx(LIP_CONSTANT - eps, abs=1e-9)
            # algebraic identity of the construction: beta/m* = floor
            assert rep.beta / rep.m_star == pytest.approx(rep.floor, abs=1e-12)

    def test_above_branch_point_clamps_to_peak(self):
        rep = sharpness_witness(0.9)
        assert rep.m_star == pytest.approx(a0(1.0), abs=1e-15)
        assert rep.beta == pytest.approx(1.0, abs=1e-12)
        assert rep.achieved_ratio == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert rep.achieved_ratio >= LIP_CONSTANT - 0.9

    def test_extreme_epsilon_trivial(self):
        rep = sharpness_witness(LIP_CONSTANT)
        assert rep.achieved_ratio >= 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            sharpness_witness(0.0)
        with pytest.raises(ParameterRangeError):
            sharpness_witness(3.0)


class TestCorpus:
    def test_normalized_to_unit_seminorm(self):
        corpus = random_normalized_corpus(5, seed=3)
        for f in corpus:
            assert float(bloch_seminorm(f)) == pytest.approx(1.0, abs=1e-9)

    def test_conjugate_part_anchored(self):
        for f in random_normalized_corpus(3, seed=4):
            assert abs(complex(f.g.eval(0j))) < 1e-12
