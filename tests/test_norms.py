"""Hardy means/norms, Bloch functionals and suprema, square function."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdisk import (BlochParams, Mobius, ParameterRangeError,
                       Polynomial, PowerKernel, PowerMajorant, QuadratureError,
                       QuadraticExtremal, as_harmonic, bloch_functional,
                       bloch_norm, bloch_seminorm, bloch_weight, classical_params,
                       compose, g_function, g_norm_check, hardy_mean,
                       hardy_norm, lambda_f, mobius, power_mean_inequality_check)
from blochdisk.core import DivergentIntegralError
from blochdisk.extremal import AntiderivativeExtremal
from blochdisk.norms import DEFAULT_PLAN, MAX_CIRCLE_NODES, SamplingPlan, _g_squared
from blochdisk.numerics import TWO_PI, gl_panel

from conftest import (ReciprocalGap, disk_samples, g_sq_oracle,
                      parseval_mean_sq, random_polynomial_pair)

SQ3 = math.sqrt(3.0)


class TestSamplingPlan:
    def test_defaults(self):
        plan = SamplingPlan()
        assert plan.ladder[0] == 0.5
        assert plan.ladder[-1] == 1 - 2.0 ** -20

    def test_rejects_bad_resolution(self):
        with pytest.raises(ParameterRangeError):
            SamplingPlan(angular_resolution=100)
        with pytest.raises(ParameterRangeError):
            SamplingPlan(angular_resolution=4)
        with pytest.raises(ParameterRangeError):
            SamplingPlan(refinement_tol=0.0)

    def test_rejects_plans_past_float_and_node_limits(self):
        # r_54 = 1 - 2^-54 rounds to 1.0; hardy_mean caps its nodes at 2^20
        assert SamplingPlan(radial_j=53).ladder[-1] < 1.0
        assert SamplingPlan(angular_resolution=MAX_CIRCLE_NODES)
        with pytest.raises(ParameterRangeError, match="radial_j"):
            SamplingPlan(radial_j=54)
        with pytest.raises(ParameterRangeError, match="angular_resolution"):
            SamplingPlan(angular_resolution=2 * MAX_CIRCLE_NODES)
        with pytest.raises(ParameterRangeError, match="angular_resolution"):
            SamplingPlan(angular_resolution=2 ** 30)

    def test_plans_of_one_depth_share_a_read_only_grid(self):
        first = SamplingPlan(radial_j=7).sup_grid()
        second = SamplingPlan(radial_j=7, angular_resolution=64,
                              refinement_tol=1e-8).sup_grid()
        assert all(a is b for a, b in zip(first, second))
        assert SamplingPlan(radial_j=8).sup_grid()[0] is not first[0]
        for array in first:
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_default_grid_survives_three_other_depths(self):
        # a command at another depth screens its symbol on the default grid
        default = DEFAULT_PLAN.sup_grid()
        for radial_j in (3, 4, 5):
            SamplingPlan(radial_j=radial_j).sup_grid()
        assert DEFAULT_PLAN.sup_grid()[2] is default[2]

    def test_three_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SamplingPlan)] == \
            ["angular_resolution", "radial_j", "refinement_tol"]

    def test_describe_reports_the_fixed_grid(self):
        plan = SamplingPlan(angular_resolution=64, radial_j=7, refinement_tol=1e-8)
        assert list(plan.describe().items()) == [
            ("angular_resolution", 64), ("radial_j", 7), ("refinement_tol", 1e-8),
            ("sup_radii", 64), ("sup_angles", 256), ("golden_iters", 40)]

    @pytest.mark.parametrize("radial_j", [1, 7, 20])
    def test_grid_points_are_the_outer_product(self, radial_j):
        radii, angles, points = SamplingPlan(radial_j=radial_j).sup_grid()
        assert angles.size == 256
        assert set(SamplingPlan(radial_j=radial_j).ladder) <= set(radii.tolist())
        outer = radii[:, None] * np.exp(1j * angles)[None, :]
        assert points.shape == outer.shape
        assert points.tobytes() == outer.tobytes()


class TestHardyMean:
    def test_constant(self):
        f = Polynomial((3 - 4j,))
        for p in (0.5, 1.0, 2.0, 7.3):
            assert hardy_mean(f, p, 0.7) == pytest.approx(5.0, rel=1e-9)

    def test_monomial_parseval(self):
        assert hardy_mean(Polynomial((0, 1)), 2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_binomial_parseval(self):
        f = Polynomial((1, 1))
        assert hardy_mean(f, 2, 0.5) == pytest.approx(math.sqrt(1.25), abs=1e-12)

    def test_parseval_oracle_random(self, rng):
        for _ in range(25):
            deg = int(rng.integers(0, 13))
            coeffs = tuple(rng.uniform(-1, 1, deg + 1)
                           + 1j * rng.uniform(-1, 1, deg + 1))
            r = float(rng.uniform(0, 0.99))
            mean = hardy_mean(Polynomial(coeffs), 2, r)
            assert abs(mean ** 2 - parseval_mean_sq(coeffs, r)) < 1e-10

    def test_monotone_in_radius(self):
        f = Polynomial((0.5, -1j, 0.25, 0.1))
        plan = SamplingPlan()
        values = [hardy_mean(f, 1.3, r, plan) for r in plan.ladder]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterRangeError):
            hardy_mean(Polynomial((1,)), 0.0, 0.5)
        with pytest.raises(ParameterRangeError):
            hardy_mean(Polynomial((1,)), 2.0, 1.0)

    def test_nonconvergence_diagnostic(self):
        class Chaotic:
            def eval(self, z):
                theta = np.angle(np.asarray(z, dtype=complex))
                return 2.0 + np.sin(1e8 * theta + 1e7 * theta ** 2)

        with pytest.raises(QuadratureError) as err:
            hardy_mean(Chaotic(), 2.0, 0.5)
        assert err.value.last_values is not None
        assert len(err.value.last_values) == 2


class TestHardyNorm:
    def test_identity_map(self):
        est = hardy_norm(Polynomial((0, 1)), 2)
        assert est.finite
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_constant(self):
        est = hardy_norm(Polynomial((2j,)), 1.5)
        assert est.value == pytest.approx(2.0, rel=1e-9)

    def test_kernel_family_poisson_oracle(self, rng):
        # (1/2pi) int dtheta/|1-conj(b) r e^{i theta}|^2 = 1/(1-|b|^2 r^2),
        # so M_p(r)^p = (1-|b|^2)/(1-|b|^2 r^2) -> 1.
        for _ in range(6):
            b = complex(disk_samples(rng, 1, r_max=0.97)[0])
            p = float(rng.uniform(0.5, 4.0))
            est = hardy_norm(PowerKernel(b, p), p)
            assert est.finite
            assert est.value == pytest.approx(1.0, abs=1e-5)

    def test_infinite_verdict(self):
        est = hardy_norm(ReciprocalGap(), 2)
        assert not est.finite
        assert math.isinf(float(est))
        values = [v for _, v in est.evidence]
        assert values[-1] > values[0]

    def test_sup_norm(self):
        est = hardy_norm(Polynomial((0, 1)), math.inf)
        assert est.value == pytest.approx(1.0, abs=1e-4)

    def test_evidence_is_radial_ladder(self):
        est = hardy_norm(Polynomial((0.5, 0.5)), 2)
        radii = [r for r, _ in est.evidence]
        assert radii == SamplingPlan().ladder


class TestBlochWeight:
    def test_at_zero(self):
        for alpha, beta in ((1, 0), (2.5, 1.0), (0.5, -2.0)):
            assert bloch_weight(BlochParams(alpha, beta), 0.0) == pytest.approx(1.0)

    def test_classical_value(self):
        assert bloch_weight(BlochParams(1, 0), 0.6) == pytest.approx(0.64, abs=1e-15)

    def test_log_factor(self):
        expected = 0.64 * (1 + math.log(1 / 0.64))
        assert bloch_weight(BlochParams(1, 1), 0.6) == pytest.approx(expected, abs=1e-14)

    def test_decay_toward_boundary(self):
        for alpha, beta in ((1, 0), (1, -1), (2, 1), (0.5, 0)):
            params = BlochParams(alpha, beta)
            t = np.array([0.9, 0.99, 0.999, 0.99999])
            vals = bloch_weight(params, t)
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] < 1e-2


class TestBlochFunctional:
    def test_quadratic_extremal_peak(self):
        f = as_harmonic(QuadraticExtremal())
        assert bloch_functional(f, classical_params(), 1 / SQ3) == \
            pytest.approx(1.0, abs=1e-14)

    def test_identity_at_origin_and_half(self):
        f = as_harmonic(Polynomial((0, 1)))
        params = classical_params()
        assert bloch_functional(f, params, 0) == pytest.approx(1.0)
        assert bloch_functional(f, params, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_mobius_conformal_invariance(self, rng):
        # classical functional: B_{f o phi_a}(z) = B_f(phi_a(z))
        params = classical_params()
        for _ in range(40):
            f = random_polynomial_pair(rng, degree=6)
            a = complex(disk_samples(rng, 1, r_max=0.9)[0])
            z = complex(disk_samples(rng, 1, r_max=0.95)[0])
            phi = mobius(a)
            lhs = bloch_functional(compose(f, phi), params, z)
            rhs = bloch_functional(f, params, phi.eval(z))
            assert abs(lhs - rhs) < 1e-10


class TestBlochSeminorm:
    def test_quadratic_extremal(self):
        est = bloch_seminorm(as_harmonic(QuadraticExtremal()))
        assert est.finite
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_identity(self):
        est = bloch_seminorm(as_harmonic(Polynomial((0, 1))))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_extremal_antiderivative(self):
        est = bloch_seminorm(as_harmonic(AntiderivativeExtremal(0.49012)))
        assert est.value == pytest.approx(1.0, abs=1e-5)

    def test_constant_is_zero(self):
        est = bloch_seminorm(as_harmonic(Polynomial((4j,))))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_infinite_verdict(self):
        est = bloch_seminorm(ReciprocalGap())
        assert not est.finite

    @pytest.mark.parametrize("plan", [SamplingPlan(), SamplingPlan(radial_j=7)])
    def test_ridge_rows_match_per_rung_evaluation(self, plan, rng):
        # the grid rows at the ladder radii give the ridge bit for bit,
        # on the finite path and on the infinite one (ReciprocalGap)
        params = BlochParams(1.5, -0.5, PowerMajorant(0.5))
        maps = [random_polynomial_pair(rng, 9) for _ in range(4)]
        maps += [as_harmonic(QuadraticExtremal()), as_harmonic(Mobius(0.6 - 0.3j)),
                 as_harmonic(Polynomial((0, 0, 0, 1))), ReciprocalGap()]
        phases = np.exp(1j * plan.sup_grid()[1])
        for f in maps:
            for prm in (classical_params(), params):
                ridge = [float(np.max(lambda_f(f, r * phases)
                                      * prm.omega(bloch_weight(prm, np.abs(r * phases)))))
                         for r in plan.ladder]
                est = bloch_seminorm(f, prm, plan)
                assert [v for _, v in est.evidence] == ridge

    def test_power_majorant_weighting(self):
        # omega(t) = sqrt(t): functional of the identity map is sqrt(1 - |z|^2),
        # sup = 1 at the origin.
        params = BlochParams(1.0, 0.0, __import__("blochdisk").PowerMajorant(0.5))
        est = bloch_seminorm(as_harmonic(Polynomial((0, 1))), params)
        assert est.value == pytest.approx(1.0, abs=1e-9)


class TestBlochNorm:
    def test_identity(self):
        assert float(bloch_norm(as_harmonic(Polynomial((0, 1))))) == \
            pytest.approx(1.0, abs=1e-9)

    def test_constant(self):
        assert float(bloch_norm(as_harmonic(Polynomial((1,))))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_quadratic_extremal(self):
        assert float(bloch_norm(as_harmonic(QuadraticExtremal()))) == \
            pytest.approx(1.0, abs=1e-6)


def g_squared_reference(f, angle):
    """G(f)^2 at one angle by the scalar loop: one 16-node Gauss-Legendre
    panel per dyadic interval until a panel adds at most 1e-12 of the total."""
    zeta = complex(math.cos(angle), math.sin(angle))
    total = 0.0
    for k in range(64):
        c = gl_panel(lambda r: np.abs(f.deriv(r * zeta)) ** 2 * (1.0 - r),
                     1.0 - 0.5 ** k, 1.0 - 0.5 ** (k + 1))
        total += c
        if k >= 4 and abs(c) <= 1e-12 * max(total, 1e-300):
            return total
    raise AssertionError("reference loop did not stabilize")


class TestGFunction:
    def test_identity(self):
        for angle in (0.0, 1.0, 2.5):
            assert g_function(Polynomial((0, 1)), angle) == \
                pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_square(self):
        assert g_function(Polynomial((0, 0, 1)), 0.7) == \
            pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)

    def test_constant(self):
        assert g_function(Polynomial((9,)), 0.0) == 0.0

    def test_coefficient_oracle(self, rng):
        for _ in range(10):
            deg = int(rng.integers(1, 9))
            coeffs = tuple(rng.uniform(-1, 1, deg + 1)
                           + 1j * rng.uniform(-1, 1, deg + 1))
            angle = float(rng.uniform(0, 2 * math.pi))
            val = g_function(Polynomial(coeffs), angle)
            oracle = g_sq_oracle(coeffs, complex(math.cos(angle), math.sin(angle)))
            assert abs(val ** 2 - oracle) < 1e-8

    def test_columns_match_scalar_loop(self, rng):
        angles = np.arange(64) * (TWO_PI / 64)
        coeffs = tuple(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
        for f in (Polynomial(coeffs), Polynomial((0, 0, 0, 1)), Polynomial((2,)),
                  Mobius(0.4 - 0.3j), PowerKernel(0.5j, 3.0), QuadraticExtremal()):
            expected = [g_squared_reference(f, t) for t in angles]
            np.testing.assert_allclose(_g_squared(f, angles), expected,
                                       rtol=1e-14, atol=0.0)

    def test_divergence_flag(self):
        with pytest.raises(DivergentIntegralError) as err:
            g_function(ReciprocalGap(), 0.0)
        assert err.value.partials is not None
        assert err.value.partials[-1] > err.value.partials[0]
        assert len(err.value.partials) == 13  # growth is first tested at k = 12
        # beside converging angles, the diverging column's partials are reported
        with pytest.raises(DivergentIntegralError) as among:
            _g_squared(ReciprocalGap(), [2.0, 0.0, 1.0])
        assert among.value.partials == pytest.approx(err.value.partials, rel=1e-14)


class TestGNormCheck:
    def test_identity_pair(self):
        rec = g_norm_check(Polynomial((0, 1)), 2)
        assert rec["hardy"] == pytest.approx(1.0, abs=1e-8)
        assert rec["g_integral"] == pytest.approx(0.5, abs=1e-8)

    def test_constant_pair(self):
        rec = g_norm_check(Polynomial((1,)), 2)
        assert rec["hardy"] == pytest.approx(1.0, abs=1e-12)
        assert rec["g_integral"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_monomials(self, n):
        coeffs = (0,) * n + (1,)
        rec = g_norm_check(Polynomial(coeffs), 2)
        assert rec["hardy"] == pytest.approx(1.0, abs=1e-8)
        assert rec["g_integral"] == pytest.approx(n * n / ((2 * n - 1) * 2 * n), abs=1e-8)

    def test_ratio_stable_across_family(self, rng):
        # joint finiteness with a stable ratio; no constant is asserted
        ratios = []
        for n in (1, 2, 4, 8):
            coeffs = (0,) * n + (1,)
            rec = g_norm_check(Polynomial(coeffs), 2)
            ratios.append(rec["g_integral"] / rec["hardy"])
        assert max(ratios) / min(ratios) < 4.0


class TestPowerMeanInequality:
    def test_equality_cases(self):
        assert power_mean_inequality_check(1.0, 1.0, 2.0)
        assert power_mean_inequality_check(1.0, 0.0, 0.7)
        assert power_mean_inequality_check(2.0, 3.0, 0.5)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0, 50), st.floats(0, 50), st.floats(0.01, 8))
    def test_holds_generally(self, a, b, tau):
        assert power_mean_inequality_check(a, b, tau)

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterRangeError):
            power_mean_inequality_check(-1.0, 0.0, 1.0)
        with pytest.raises(ParameterRangeError):
            power_mean_inequality_check(1.0, 1.0, 0.0)
