"""Hardy means/norms, Bloch functionals and suprema, square function."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdisk import (Blaschke, BlochParams, HarmonicMap, Mobius,
                       ParameterRangeError, Polynomial, PowerKernel, PowerMajorant,
                       QuadratureError, QuadraticExtremal, ScaledIdentity,
                       as_harmonic, bloch_functional, bloch_norm, bloch_seminorm,
                       bloch_weight, classical_params, compose, g_function,
                       g_norm_check, hardy_mean, hardy_norm, lambda_f, mobius,
                       power_mean_inequality_check)
from blochdisk.core import DivergentIntegralError
from blochdisk.extremal import AntiderivativeExtremal
from blochdisk.norms import (DEFAULT_PLAN, LADDER, MAX_CIRCLE_NODES, SamplingPlan, _g_squared,
                             sup_grid, weight_from_gap)
from blochdisk.numerics import BLOCK_POINTS, GL_NODES, TWO_PI, gl_panel

from conftest import (ReciprocalGap, disk_samples, g_sq_oracle,
                      parseval_mean_sq, random_polynomial_pair)

SQ3 = math.sqrt(3.0)


class TestSamplingPlan:
    def test_defaults(self):
        assert SamplingPlan() == SamplingPlan(256, 1e-6) == DEFAULT_PLAN
        assert LADDER == tuple(1 - 2.0 ** -j for j in range(1, 21))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ParameterRangeError):
            SamplingPlan(angular_resolution=100)
        with pytest.raises(ParameterRangeError):
            SamplingPlan(angular_resolution=4)
        with pytest.raises(ParameterRangeError):
            SamplingPlan(refinement_tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-6])
    def test_rejects_a_tolerance_that_is_not_positive_and_finite(self, tol):
        # an infinite tolerance would stop every circle mean at its first doubling
        with pytest.raises(ParameterRangeError, match="refinement_tol"):
            SamplingPlan(refinement_tol=tol)

    def test_rejects_plans_past_float_and_node_limits(self):
        # hardy_mean caps its nodes at 2^20
        assert SamplingPlan(angular_resolution=MAX_CIRCLE_NODES)
        with pytest.raises(ParameterRangeError, match="angular_resolution"):
            SamplingPlan(angular_resolution=2 * MAX_CIRCLE_NODES)
        with pytest.raises(ParameterRangeError, match="angular_resolution"):
            SamplingPlan(angular_resolution=2 ** 30)

    def test_plans_of_one_depth_share_a_read_only_grid(self):
        # every plan searches the one grid, built once
        first = sup_grid()
        assert all(a is b for a, b in zip(first, sup_grid()))
        for array in first:
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_two_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SamplingPlan)] == \
            ["angular_resolution", "refinement_tol"]

    def test_describe_reports_the_two_fields(self):
        plan = SamplingPlan(angular_resolution=64, refinement_tol=1e-8)
        assert list(plan.describe().items()) == [
            ("angular_resolution", 64), ("refinement_tol", 1e-8)]

    @pytest.mark.parametrize("depth", [1, 7, 20])
    def test_grid_points_are_the_outer_product(self, depth):
        # 64 tanh radii joined with the 20 dyadic radii of LADDER (the last
        # tanh radius is the last dyadic one), times 256 angles; every
        # dyadic radius up to depth 20 is a rung of LADDER and a grid radius
        radii, angles, points = sup_grid()
        assert angles.size == 256
        assert points.shape == (83, 256)
        assert LADDER[depth - 1] == 1.0 - 2.0 ** -depth
        assert set(LADDER[:depth]) <= set(radii.tolist())
        assert radii[0] == 0.0 and radii[-1] == 1.0 - 2.0 ** -20
        outer = radii[:, None] * np.exp(1j * angles)[None, :]
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
        values = [hardy_mean(f, 1.3, r) for r in LADDER]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterRangeError):
            hardy_mean(Polynomial((1,)), 0.0, 0.5)
        with pytest.raises(ParameterRangeError):
            hardy_mean(Polynomial((1,)), 2.0, 1.5)

    def test_unit_circle(self):
        assert hardy_mean(Polynomial((0, 0, 2j)), 3.0, 1.0) == pytest.approx(2.0, rel=1e-12)

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
        assert math.isfinite(est.value)
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
            assert math.isfinite(est.value)
            assert est.value == pytest.approx(1.0, abs=1e-5)

    def test_boundary_pole_raises_quadrature_error(self):
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(QuadratureError, match="did not stabilize") as err:
            hardy_norm(ReciprocalGap(), 2)
        assert err.value.last_values == (math.inf, math.inf)

    def test_overflowing_mean_raises_at_once(self):
        # |f|^200 overflows to inf on the circle, and no doubling can settle a
        # mean that is not finite; the suite turns a RuntimeWarning into an error
        with pytest.raises(QuadratureError, match="did not stabilize within 512 nodes") as err:
            hardy_norm(PowerKernel(0.95, 0.5), 200)
        assert err.value.last_values == (math.inf, math.inf)

    def test_kernel_norm_from_32_angles(self):
        b, p = 0.1323365237519197 + 0.8921433917288156j, 3.2874337533045015
        est = hardy_norm(PowerKernel(b, p), p, SamplingPlan(angular_resolution=32))
        # the means at 32 and 64 angles agree by a phase coincidence
        assert est.value == pytest.approx(1.0, abs=1e-5)

    def test_sup_norm(self):
        est = hardy_norm(Polynomial((0, 1)), math.inf)
        assert est.value == pytest.approx(1.0, abs=1e-4)

    def test_evidence_is_the_boundary_mean(self):
        est = hardy_norm(Polynomial((0.5, 0.5)), 2)
        assert est.evidence == ((1.0, est.value),)
        assert est.value == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert est.resolution == DEFAULT_PLAN.refinement_tol

    def test_zero_on_the_circle_within_resolution(self):
        # |1 + e^{it}| vanishes at t = pi, so the trapezoid rule converges
        # only algebraically; the stopping bound still covers the error.
        est = hardy_norm(Polynomial((1, 1)), 1)
        assert est.resolution == pytest.approx(1e-6 * 4 / math.pi, rel=1e-6)
        assert abs(est.value - 4 / math.pi) <= est.resolution

    def test_harmonic_pair_below_one_is_refused(self):
        # f = 1 + 0.9 Re z: M_p(0, f) = 1, but its boundary mean at p = 0.5
        # is 0.870151268466866, since |f|^p is not subharmonic there
        f = HarmonicMap(Polynomial((1, 0.45)), Polynomial((0, 0.45)))
        assert hardy_mean(f, 0.5, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert hardy_mean(f, 0.5, 1.0) < 0.9
        with pytest.raises(ParameterRangeError):
            hardy_norm(f, 0.5)
        assert hardy_norm(f, 1.0).value == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    def test_pairs_without_conjugate_part_keep_their_values(self, p):
        h = PowerKernel(0.6, 1.5)
        assert hardy_norm(as_harmonic(h), p).value == hardy_norm(h, p).value
        assert hardy_norm(HarmonicMap(h, Polynomial((0, 0))), p).value == \
            hardy_norm(h, p).value
        composed = compose(as_harmonic(h), Mobius(0.2 - 0.3j))
        assert hardy_norm(composed, p).value == hardy_norm(composed.h, p).value


_B3 = (0.3, 0.5j, -0.4 - 0.4j)
_ORACLE_MAPS = ("eta", "f-beta:0.5", "f-beta:1", "identity", "half-identity",
                "mobius", "kernel", "kernel-0.9", "monomial", "blaschke",
                "composition", "harmonic")


def _boundary_oracles(mp):
    """name -> (library map, the same map written in mpmath, angles where its
    boundary values vary fastest).  Kernels are given by their modulus."""
    def mobius_mp(a):
        a = mp.mpc(a)
        return lambda z: (a - z) / (1 - mp.conj(a) * z)

    def kernel_modulus(b, p):
        b = mp.mpc(b)
        return lambda z: ((1 - abs(b) ** 2) / abs(1 - mp.conj(b) * z) ** 2) ** (1 / mp.mpf(p))

    def f_beta(beta):
        # antiderivative of beta (m - w) / (m (1 - m w)^3) vanishing at 0
        m, beta = mp.mpf(AntiderivativeExtremal(beta).m), mp.mpf(beta)

        def value(z):
            u = 1 - m * z
            return beta / m ** 3 * ((m * m - 1) / (2 * u * u) + 1 / u - (m * m - 1) / 2 - 1)
        return value

    blaschke = [mobius_mp(a) for a in _B3]
    return {
        "eta": (QuadraticExtremal(), lambda z: -3 * mp.sqrt(3) / 4 * z ** 2, ()),
        "f-beta:0.5": (AntiderivativeExtremal(0.5), f_beta(0.5), (0.0,)),
        "f-beta:1": (AntiderivativeExtremal(1.0), f_beta(1.0), (0.0,)),
        "identity": (Polynomial((0, 1)), lambda z: z, ()),
        "half-identity": (ScaledIdentity(0.5), lambda z: z / 2, ()),
        "mobius": (Mobius(0.3 + 0.4j), mobius_mp(0.3 + 0.4j), (math.atan2(0.4, 0.3),)),
        "kernel": (PowerKernel(0.5 + 0.2j, 2.0), kernel_modulus(0.5 + 0.2j, 2.0),
                   (math.atan2(0.2, 0.5),)),
        "kernel-0.9": (PowerKernel(-0.9j, 3.0), kernel_modulus(-0.9j, 3.0), (1.5 * math.pi,)),
        "monomial": (Polynomial((0,) * 5 + (1,)), lambda z: z ** 5, ()),
        "blaschke": (Blaschke(_B3, 1j),
                     lambda z: 1j * blaschke[0](z) * blaschke[1](z) * blaschke[2](z), ()),
        "composition": (compose(as_harmonic(PowerKernel(0.6, 1.5)), Mobius(0.2 - 0.3j)),
                        lambda z: kernel_modulus(0.6, 1.5)(mobius_mp(0.2 - 0.3j)(z)), ()),
        "harmonic": (HarmonicMap(Polynomial((0.3, 1, 0.5j)), Polynomial((0, 0.2, -0.1j))),
                     lambda z: 0.3 + z + 0.5j * z ** 2 + mp.conj(0.2 * z - 0.1j * z ** 2), ()),
    }


class TestHardyNormOracle:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", _ORACLE_MAPS)
    def test_boundary_quadrature_in_mpmath(self, name, p):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            f, value, splits = _boundary_oracles(mp)[name]
            nodes = sorted({mp.mpf(0), 2 * mp.pi} | {mp.mpf(s) for s in splits})
            integral, error = mp.quad(lambda t: abs(value(mp.expj(t))) ** p, nodes,
                                      error=True)
            assert error < 1e-20
            oracle = float((integral / (2 * mp.pi)) ** (1 / mp.mpf(p)))
        if name == "harmonic" and p < 1:
            # below p = 1 the boundary mean of a harmonic pair need not be
            # its norm: hardy_norm refuses, and the mean is checked alone
            with pytest.raises(ParameterRangeError):
                hardy_norm(f, p)
            assert hardy_mean(f, p, 1.0) == pytest.approx(oracle, rel=1e-9, abs=0.0)
            return
        assert hardy_norm(f, p).value == pytest.approx(oracle, rel=1e-9, abs=0.0)


def _sup_norm_maps():
    """A seeded set of maps for the H^inf oracle: two random polynomials of
    each degree 1-29, power kernels, three-factor Blaschke products, harmonic
    pairs and the extremals."""
    rng = np.random.default_rng(20261018)

    def unit_square(n):
        return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)

    maps = {}
    for degree in range(1, 30):
        for k in range(2):
            maps[f"polynomial-{degree}-{k}"] = Polynomial(tuple(unit_square(degree + 1)))
    for k, b in enumerate(disk_samples(rng, 8, r_max=0.95)):
        maps[f"kernel-{k}"] = PowerKernel(b, float(rng.uniform(0.5, 4.0)))
    for k in range(8):
        rotation = np.exp(1j * rng.uniform(0, TWO_PI))
        maps[f"blaschke-{k}"] = Blaschke(tuple(disk_samples(rng, 3, r_max=0.95)), rotation)
    for degree in (1, 2, 3, 5, 8, 12):
        maps[f"harmonic-{degree}"] = random_polynomial_pair(rng, degree)
    maps["eta"] = QuadraticExtremal()
    for beta in (0.1, 0.5, 1.0):
        maps[f"f-beta:{beta}"] = AntiderivativeExtremal(beta)
    return maps


_SUP_NORM_MAPS = _sup_norm_maps()


def _dense_circle_max(f):
    """max |f| on the unit circle by a second route: 2^16 equally spaced
    angles, then scipy's bounded Brent search one step either side of the 16
    strongest node-local maxima."""
    step = TWO_PI / 2 ** 16
    theta = np.arange(2 ** 16) * step

    def modulus(t):
        return np.abs(f.eval(np.exp(1j * np.asarray(t, dtype=float))))

    vals = modulus(theta)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    best = float(np.max(vals))
    for t in theta[peaks[np.argsort(vals[peaks])[-16:]]]:
        res = scipy.optimize.minimize_scalar(
            lambda x: -float(modulus([x])[0]), bounds=(t - step, t + step),
            method="bounded", options={"xatol": 1e-13})
        best = max(best, -float(res.fun))
    return best


class TestSupNormOracle:
    @pytest.mark.parametrize("name", list(_SUP_NORM_MAPS))
    def test_dense_circle_search(self, name):
        f = _SUP_NORM_MAPS[name]
        est = hardy_norm(f, math.inf)
        assert est.evidence == () and 0.0 < est.resolution < 1e-9
        assert est.value == pytest.approx(_dense_circle_max(f), rel=1e-12, abs=0.0)

    def test_does_not_depend_on_the_plan(self):
        f = _SUP_NORM_MAPS["polynomial-29-0"]
        values = {hardy_norm(f, math.inf, SamplingPlan(angular_resolution=n)).value
                  for n in (8, 256, 4096)}
        assert len(values) == 1


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

    @staticmethod
    def _log_product(alpha, beta, gap):
        # weight_from_gap's general form, which it once took at every beta
        u = np.asarray(gap, dtype=float)
        return u ** alpha * (1.0 - np.log(u)) ** beta

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.7])
    def test_beta_zero_equals_the_log_product_bit_for_bit(self, alpha):
        # (1 - log u) ** 0.0 is 1 for every u in (0, 1], NaN included
        rng = np.random.default_rng(int(alpha * 10))
        u = np.concatenate([1.0 - rng.random(2000), 1.0 - rng.random(200) * 1e-12,
                            [1.0, 0.5, 1e-300, 5e-324, np.nan]])
        assert (weight_from_gap(alpha, 0.0, u).tobytes()
                == self._log_product(alpha, 0.0, u).tobytes())
        for x in u[-60:]:
            assert (weight_from_gap(alpha, 0.0, float(x)).tobytes()
                    == self._log_product(alpha, 0.0, float(x)).tobytes())

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_zero_gap_at_beta_zero_is_zero_without_warning(self, alpha):
        # RuntimeWarnings are errors in this suite; the log product warns
        assert weight_from_gap(alpha, 0.0, 0.0) == 0.0
        assert np.array_equal(weight_from_gap(alpha, 0.0, np.array([0.0, 1.0])), [0.0, 1.0])
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert self._log_product(alpha, 0.0, 0.0) == 0.0

    def test_overflowing_log_factor_is_inf_without_warning(self):
        # (1 - log 1e-300)^1000 overflows; RuntimeWarnings are errors here
        assert weight_from_gap(1.0, 1000.0, 1e-300) == math.inf
        assert weight_from_gap(1.0, 1000.0, np.array([1e-300, 1.0])).tolist() == [math.inf, 1.0]


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
    def test_overflowing_weight_raises_typed_error_without_warning(self):
        with pytest.raises(QuadratureError, match="not finite on the grid: inf"):
            bloch_seminorm(QuadraticExtremal(), BlochParams(1.0, 1000.0))

    def test_quadratic_extremal(self):
        est = bloch_seminorm(as_harmonic(QuadraticExtremal()))
        assert math.isfinite(est.value)
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

    def test_outermost_ring_peak_raises_quadrature_error(self):
        # 1/(1 - z): (1 - |z|^2) / |1 - z|^2 grows toward z = 1, so the grid
        # maximum sits on the outermost ring and no value is reported
        with pytest.raises(QuadratureError, match="outermost grid ring") as err:
            bloch_seminorm(ReciprocalGap())
        before, last = err.value.last_values
        assert 1.0 < before < last

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("f", [
        Polynomial((0, 1e308, 1e308)),  # f' overflows, and Horner's scheme makes NaN
        # |h'| + |g'| = 1.8e308 overflows to inf at every point
        HarmonicMap(Polynomial((0, 0.9e308)), Polynomial((0, 0.9e308))),
    ], ids=["nan", "inf"])
    def test_non_finite_grid_maximum_raises_quadrature_error(self, f):
        with pytest.raises(QuadratureError, match="not finite on the grid"):
            bloch_seminorm(f)

    @pytest.mark.parametrize("plan", [LADDER, LADDER[:7]])
    def test_ridge_rows_match_per_rung_evaluation(self, plan, rng):
        # the grid rows at the 20 dyadic radii give the ridge bit for bit,
        # on every rung of a plan of rungs evaluated one at a time
        params = BlochParams(1.5, -0.5, PowerMajorant(0.5))
        maps = [random_polynomial_pair(rng, 9) for _ in range(4)]
        maps += [as_harmonic(QuadraticExtremal()), as_harmonic(Mobius(0.6 - 0.3j)),
                 as_harmonic(Polynomial((0, 0, 0, 1)))]
        phases = np.exp(1j * sup_grid()[1])
        for f in maps:
            for prm in (classical_params(), params):
                ridge = [float(np.max(lambda_f(f, r * phases)
                                      * prm.omega(bloch_weight(prm, np.abs(r * phases)))))
                         for r in plan]
                est = bloch_seminorm(f, prm)
                assert [r for r, _ in est.evidence] == list(LADDER)
                assert est.evidence[:len(plan)] == tuple(zip(plan, ridge))

    @pytest.mark.parametrize("k", [17, 18, 19])
    def test_near_boundary_automorphism_is_one(self, k):
        # the peak z = a lies on the grid row r = 1 - 2^-k, inside the grid;
        # the ridge grows toward it, which a growth heuristic took for blow-up
        est = bloch_seminorm(as_harmonic(Mobius(1.0 - 2.0 ** -k)))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a", [pytest.param(0.01 + 0.039j, id="first-ring")]
                             + [pytest.param(0.9 * np.exp(2j * math.pi * k / 13), id=f"0.9-angle{k}")
                                for k in range(13)])
    def test_mobius_seminorm_is_one(self, a):
        # (1 - |z|^2) |phi_a'(z)| = 1 - |phi_a(z)|^2 peaks at z = a: inside the
        # first grid ring for |a| = 0.04, between grid angles at |a| = 0.9
        est = bloch_seminorm(as_harmonic(Mobius(a)))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_seminorm_bounds_dense_samples(self):
        # the refined supremum is never below the functional's largest value
        # on 2x10^5 seeded points of the disk
        rng = np.random.default_rng(12)
        maps = [random_polynomial_pair(rng) for _ in range(40)]
        points = disk_samples(np.random.default_rng(13), 200_000, r_max=0.9999)
        weight = 1.0 - np.abs(points) ** 2
        for f in maps:
            sampled = float(np.max(lambda_f(f, points) * weight))
            assert bloch_seminorm(f).value >= sampled

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


def g_squared_per_panel(f, angles):
    """The square-function sweep one dyadic panel at a time: one f.deriv
    call and one ``w @ vals`` over the columns still open per panel, closing
    a column at the first k >= 4 where its total is positive and finite and
    the panel added at most 1e-12 of it.  ``_g_squared`` must match it bit
    for bit, totals and DivergentIntegralError partials alike."""
    x, w = np.polynomial.legendre.leggauss(16)
    angles = np.asarray(angles, dtype=float)
    zetas = np.cos(angles) + 1j * np.sin(angles)
    totals = np.zeros(angles.size)
    contributions = np.zeros((48, angles.size))
    open_cols = np.arange(angles.size)
    for k in range(48):
        a, b = 1.0 - 0.5 ** k, 1.0 - 0.5 ** (k + 1)
        half = 0.5 * (b - a)
        r = 0.5 * (a + b) + half * x
        vals = np.abs(f.deriv(r[:, None] * zetas[open_cols])) ** 2 * (1.0 - r)[:, None]
        c = half * (w @ vals)
        contributions[k, open_cols] = c
        totals[open_cols] += c
        t = totals[open_cols]
        open_cols = open_cols[~((k >= 4) & (t > 0.0) & np.isfinite(t) & (c <= 1e-12 * t))]
        if not open_cols.size:
            return totals
    open_cols = open_cols[totals[open_cols] != 0.0]
    if open_cols.size:
        raise DivergentIntegralError(
            "per-panel sweep did not stabilize",
            partials=np.cumsum(contributions[:, open_cols[0]]).tolist())
    return totals


_SWEEP_RNG = np.random.default_rng(11)
_RANDOM_POLYNOMIAL = Polynomial(tuple(_SWEEP_RNG.uniform(-1, 1, 9)
                                      + 1j * _SWEEP_RNG.uniform(-1, 1, 9)))


class Huge:
    """|f'|^2 overflows to inf on every node."""

    def deriv(self, z):
        return np.full(np.shape(z), 1e200, dtype=complex)


class DerivCounter:
    """A map whose deriv calls are recorded, as their point counts."""

    def __init__(self, f):
        self.f, self.points = f, []

    def deriv(self, z):
        self.points.append(np.size(z))
        return self.f.deriv(z)


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

    @pytest.mark.parametrize("columns", [1, 7, 8, 64, 257, 2048])
    @pytest.mark.parametrize("f", [
        _RANDOM_POLYNOMIAL, Mobius(1.0 - 2.0 ** -20), PowerKernel(0.5j, 3.0),
        Blaschke((0.3, 0.5j, -0.7 + 0.1j)), QuadraticExtremal()],
        ids=["polynomial", "mobius-near-boundary", "power-kernel", "blaschke-3", "quadratic"])
    def test_blocks_equal_the_per_panel_sweep(self, f, columns):
        # one f.deriv call per block of panels; each run of a block is
        # reduced over the columns open at its first panel, so no bit moves
        angles = np.arange(columns) * (TWO_PI / columns) + 0.1
        assert np.array_equal(_g_squared(f, angles), g_squared_per_panel(f, angles))

    @pytest.mark.parametrize("columns", [1, 7, 8])
    def test_blocks_equal_the_per_panel_sweep_past_underflow(self, columns):
        # f' of z^20000 underflows to 0 on the first panels: zero totals stay open
        f = Polynomial((0,) * 20000 + (1,))
        angles = np.arange(columns) * (TWO_PI / columns) + 0.3
        assert np.array_equal(_g_squared(f, angles), g_squared_per_panel(f, angles))

    @pytest.mark.parametrize("angles", [[2.0, 0.0, 1.0], np.arange(64) * (TWO_PI / 64)],
                             ids=["3", "64"])
    def test_divergent_partials_equal_the_per_panel_sweep(self, angles):
        # the diverging column outlives the converging ones that close
        # inside its blocks; its partials keep every bit
        with pytest.raises(DivergentIntegralError) as blocked:
            _g_squared(ReciprocalGap(), angles)
        with pytest.raises(DivergentIntegralError) as per_panel:
            g_squared_per_panel(ReciprocalGap(), angles)
        assert blocked.value.partials == per_panel.value.partials

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_partials_equal_the_per_panel_sweep(self):
        with pytest.raises(DivergentIntegralError) as blocked:
            _g_squared(Huge(), [0.0, 1.0])
        with pytest.raises(DivergentIntegralError) as per_panel:
            g_squared_per_panel(Huge(), [0.0, 1.0])
        assert blocked.value.partials == per_panel.value.partials

    def test_one_deriv_call_per_block(self, rng):
        f = Polynomial(tuple(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)))
        single = DerivCounter(f)
        g_function(single, 0.3)
        assert single.points == [48 * GL_NODES]  # all 48 panels in one call
        swept = DerivCounter(f)
        _g_squared(swept, np.arange(64) * (TWO_PI / 64))
        per_block = BLOCK_POINTS // (GL_NODES * 64)
        assert len(swept.points) <= math.ceil(48 / per_block)
        assert max(swept.points) <= BLOCK_POINTS

    def test_divergence_flag(self):
        with pytest.raises(DivergentIntegralError,
                           match="did not stabilize within 48 dyadic panels") as err:
            g_function(ReciprocalGap(), 0.0)
        partials = err.value.partials
        assert len(partials) == 48  # every panel up to the last of distinct nodes
        assert all(b > a for a, b in zip(partials, partials[1:]))
        # beside converging angles, the diverging column's partials are reported
        with pytest.raises(DivergentIntegralError) as among:
            _g_squared(ReciprocalGap(), [2.0, 0.0, 1.0])
        assert among.value.partials == pytest.approx(err.value.partials, rel=1e-14)

    @staticmethod
    def _mobius_closed_form(a):
        # G(phi_a)^2 at angle 0 for real a: (1 + a)^2 (1/6 - b^2/2 + b^3/3) / a^2, b = 1 - a
        b = 1.0 - a
        return math.sqrt((1.0 + a) ** 2 * (1.0 / 6.0 - b * b / 2.0 + b ** 3 / 3.0) / a ** 2)

    @pytest.mark.parametrize("k,rel", [(10, 1e-12), (14, 1e-12), (20, 1e-12), (26, 1e-9)])
    def test_near_boundary_mobius_matches_closed_form(self, k, rel):
        # the mass of |f'|^2 (1 - r) lies near r = a = 1 - 2^-k, past panel 12
        a = 1.0 - 2.0 ** -k
        assert g_function(Mobius(a), 0.0) == pytest.approx(self._mobius_closed_form(a), rel=rel)

    def test_mobius_past_the_last_panel_does_not_stabilize(self):
        with pytest.raises(DivergentIntegralError, match="did not stabilize"):
            g_function(Mobius(1.0 - 2.0 ** -27), 0.0)

    @pytest.mark.parametrize("n", [1000, 3000, 20000])
    def test_high_monomials(self, n):
        # f' of z^20000 underflows to 0 on the first panels; a zero total stays open
        expected = math.sqrt(n * n * (1.0 / (2 * n - 1) - 1.0 / (2 * n)))
        assert g_function(Polynomial((0,) * n + (1,)), 0.3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_contributions_raise(self):
        with pytest.raises(DivergentIntegralError, match="did not stabilize") as err:
            g_function(Huge(), 0.0)
        assert math.isinf(err.value.partials[-1])

    def test_harmonic_pair_is_refused(self):
        f = HarmonicMap(Polynomial((0, 0.5)), Polynomial((0, 0.1)))
        for call in (lambda: g_function(f, 0.0), lambda: _g_squared(f, [0.0, 1.0]),
                     lambda: g_norm_check(f, 2)):
            with pytest.raises(ParameterRangeError, match="harmonic pair"):
                call()


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

    def test_unsettled_mean_raises(self):
        # G of phi_0.998 peaks sharply at angle 0; 4096 angles do not resolve it
        with pytest.raises(QuadratureError, match="within 4096 nodes") as err:
            g_norm_check(Mobius(0.998), 2)
        assert len(err.value.last_values) == 2


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
