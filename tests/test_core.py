"""Core types: disk points, analytic kinds, harmonic pairs, majorants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blochdisk import (AnalyticMap, Blaschke, BlochParams, Composed,
                       HarmonicMap, IdentityMajorant, MajorantValidationError,
                       Mobius, ParameterRangeError, Polynomial, PowerKernel,
                       PowerMajorant, QuadraticExtremal, ScaledIdentity,
                       TabulatedMajorant, as_harmonic, classical_params,
                       disk_point, in_unit_disk, lambda_f, validate_majorant)
from blochdisk.extremal import AntiderivativeExtremal, psi
from blochdisk.norms import bloch_weight

SQ3 = math.sqrt(3.0)


class TestDiskPoint:
    def test_interior_accepted(self):
        assert disk_point(0.3 + 0.4j) == 0.3 + 0.4j

    @pytest.mark.parametrize("z", [1.0, -1.0, 1j, 2.0, 0.8 + 0.7j])
    def test_boundary_and_exterior_rejected(self, z):
        with pytest.raises(ParameterRangeError, match="lies outside the open unit disk"):
            disk_point(z)

    def test_in_unit_disk(self):
        assert in_unit_disk(0.999)
        assert not in_unit_disk(1.0)


class TestEval:
    def test_identity_polynomial(self):
        f = Polynomial((0, 1))
        assert f.eval(0.3 + 0.4j) == 0.3 + 0.4j

    def test_mobius_at_origin_center(self):
        assert Mobius(0).eval(0.5) == -0.5

    def test_power_kernel_degenerates_to_one(self):
        f = PowerKernel(0, 2.0)
        assert f.eval(0.7) == pytest.approx(1.0)
        assert f.exponent == 0.5

    def test_power_kernel_value(self):
        # ((1 - 0.81)/(1 - 0.81)^2)^(1/2) = (1/0.19)^(1/2)
        f = PowerKernel(0.9, 2.0)
        assert f.eval(0.9) == pytest.approx((1 / 0.19) ** 0.5, abs=1e-12)

    def test_power_kernel_continuity_along_path(self):
        # single-valued principal branch: small steps give small changes
        f = PowerKernel(0.6 + 0.3j, 1.5)
        t = np.linspace(0.0, 1.0, 400)
        path = 0.95 * np.exp(1j * (2 * np.pi * t)) * t  # spiral through the disk
        vals = f.eval(path)
        steps = np.abs(np.diff(vals))
        assert float(steps.max()) < 0.25


class TestDeriv:
    def test_quadratic_extremal(self):
        eta = QuadraticExtremal()
        assert eta.deriv(0.2) == pytest.approx(-(1.5 * SQ3) * 0.2, abs=1e-14)

    def test_mobius_derivative_magnitude(self):
        assert abs(Mobius(0.5).deriv(0)) == pytest.approx(0.75, abs=1e-15)

    def test_extremal_antiderivative_initial_slope(self):
        for beta in (0.2, 0.49012, 0.9, 1.0):
            f = AntiderivativeExtremal(beta)
            assert complex(f.deriv(0j)) == pytest.approx(beta, abs=1e-12)


@settings(max_examples=250, deadline=None)
@given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.integers(0, 7))
def test_centered_difference_matches_deriv(x, y, which):
    from blochdisk import Composed
    from blochdisk.extremal import AntiderivativeExtremal

    z = complex(x, y)
    if abs(z) > 1 - 1e-3:
        return
    maps = [
        Polynomial((0.3, -1j, 0.2, 0.7j)),
        Mobius(0.4 - 0.2j),
        Blaschke((0.3, -0.5j), rotation=1j),
        ScaledIdentity(0.8j),
        PowerKernel(0.4 + 0.1j, 3.0),
        QuadraticExtremal(),
        AntiderivativeExtremal(0.6),
        Composed(Polynomial((0.1, 1j, -0.4)), Mobius(0.25), offset=2 - 1j),
    ]
    f = maps[which]
    h = 1e-6
    approx = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
    exact = f.deriv(z)
    assert abs(approx - exact) <= 1e-5 * max(1.0, abs(exact))


class TestLambda:
    def test_mixed_pair_constant_stretch(self):
        f = HarmonicMap(Polynomial((0, 1)), Polynomial((0, 0.5)))
        for z in (0j, 0.3 + 0.1j, -0.8j):
            assert lambda_f(f, z) == pytest.approx(1.5, abs=1e-15)

    def test_analytic_case(self):
        f = as_harmonic(Polynomial((0, 1)))
        assert lambda_f(f, 0.5j) == pytest.approx(1.0)

    def test_quadratic_extremal_stretch(self):
        f = as_harmonic(QuadraticExtremal())
        z = 1 / SQ3
        assert lambda_f(f, z) == pytest.approx(1.5, abs=1e-14)

    def test_invariant_under_constants_in_h(self, rng):
        f = HarmonicMap(Polynomial((0, 1j, 0.3)), Polynomial((0, 0.2)))
        g = HarmonicMap(Polynomial((5 - 2j, 1j, 0.3)), Polynomial((0, 0.2)))
        for z in rng.uniform(-0.6, 0.6, 20) + 1j * rng.uniform(-0.6, 0.6, 20):
            assert lambda_f(f, z) == pytest.approx(lambda_f(g, z), abs=1e-14)
            assert lambda_f(f, z) >= 0.0


class TestHarmonicMap:
    def test_rejects_nonvanishing_g(self):
        with pytest.raises(ValueError):
            HarmonicMap(Polynomial((0, 1)), Polynomial((0.5, 1)))

    def test_eval_combines_conjugate(self):
        f = HarmonicMap(Polynomial((0, 1)), Polynomial((0, 1j)))
        z = 0.3 + 0.2j
        assert f.eval(z) == pytest.approx(z + np.conjugate(1j * z))


class TestSelfMapGrid:
    @pytest.mark.parametrize("phi", [
        Mobius(0.7 - 0.1j),
        Blaschke((0.5, -0.3j, 0.2 + 0.2j)),
        ScaledIdentity(0.99),
    ])
    def test_symbol_kinds_stay_inside(self, phi):
        radii = np.linspace(0.0, 1.0 - 2.0 ** -20, 64)
        angles = np.linspace(0.0, 2 * np.pi, 157, endpoint=False)
        z = radii[:, None] * np.exp(1j * angles)[None, :]
        assert z.size >= 10_000
        assert float(np.max(np.abs(phi.eval(z)))) < 1.0


class TestMajorants:
    def test_identity_accepted(self):
        omega = validate_majorant("id")
        assert isinstance(omega, IdentityMajorant)
        assert omega(0.0) == 0.0

    def test_power_accepted(self):
        omega = validate_majorant("pow:0.5")
        assert isinstance(omega, PowerMajorant)
        assert omega(4.0) == pytest.approx(2.0)

    def test_superlinear_tabulation_rejected(self):
        ts = np.geomspace(1e-6, 4.0, 80)
        with pytest.raises(MajorantValidationError) as err:
            TabulatedMajorant(ts, ts ** 2)
        assert err.value.reason == "ratio-increasing"
        assert err.value.witness is not None

    def test_decreasing_tabulation_rejected(self):
        ts = np.linspace(0.5, 4.0, 64)
        vals = np.concatenate([np.linspace(0.1, 1.0, 32),
                               np.linspace(1.0, 0.5, 32)])
        with pytest.raises(MajorantValidationError) as err:
            TabulatedMajorant(ts, vals)
        assert err.value.reason == "not-increasing"

    def test_closed_form_kinds_are_frozen_values(self):
        assert PowerMajorant(1) == PowerMajorant(1.0) != PowerMajorant(0.5)
        assert len({IdentityMajorant(), IdentityMajorant(), PowerMajorant(0.5),
                    PowerMajorant(0.5)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            PowerMajorant(0.5).s = 2.0

    def test_power_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            PowerMajorant(2.0)

    def test_tabulated_identity_accepted(self):
        ts = np.geomspace(1e-6, 4.0, 128)
        omega = TabulatedMajorant(ts, ts)
        assert omega(2.0) == pytest.approx(2.0)
        assert omega.ratio_limit_at_zero() == pytest.approx(1.0)

    @pytest.mark.parametrize("omega,limit", [
        (IdentityMajorant(), 1.0),
        (PowerMajorant(0.5), None),
        (PowerMajorant(1.0), 1.0),
        # omega(t)/t = t^(-2^-52) grows without bound, however slowly
        (PowerMajorant(0.9999999999999998), None),
        # the first segment's slope 1 sits far above the later ones
        (TabulatedMajorant([1e-15, 1, 5], [1e-15, 1e-3, 2e-3]), 1.0),
    ], ids=["identity", "pow-half", "pow-one", "pow-one-minus-ulp", "steep-first-segment"])
    def test_ratio_limit(self, omega, limit):
        assert omega.ratio_limit_at_zero() == limit

    @settings(max_examples=200, deadline=None)
    @seed(20240817)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=8),
           st.lists(st.floats(1e-3, 1e3), min_size=8, max_size=8),
           st.floats(1e-12, 1.0))
    def test_ratio_limit_matches_sampled_ratios(self, widths, slopes, first):
        # a concave tabulation through the origin: decreasing segment slopes,
        # and the last abscissa at 4, the top of the validation grid, so the
        # weight grows on the whole grid
        widths = np.array(widths) / sum(widths) * 4.0
        widths[0] *= first
        ts = np.cumsum(widths)
        ts[-1] = 4.0
        slopes = np.sort(slopes[:len(ts)])[::-1]
        values = np.cumsum(slopes * np.diff(ts, prepend=0.0))
        omega = TabulatedMajorant(ts, values)
        limit = omega.ratio_limit_at_zero()
        t = ts[0] * 0.5 ** np.arange(1, 61)
        assert np.max(np.abs(omega(t) / t - limit)) <= 4 * np.spacing(limit)

    @pytest.mark.parametrize("ts,values", [
        ([1.0, 2.0, 5.0], [math.nan, 1.0, 2.0]),
        ([1.0, 2.0, 5.0], [0.5, 1.0, math.inf]),
        ([1.0, math.nan, 5.0], [0.5, 1.0, 2.0]),
        ([1.0, 2.0, math.inf], [0.5, 1.0, 2.0]),
        ([1.0, 2.0], [0.5, 1.0, 2.0]),
        ([[1.0, 2.0]], [[0.5, 1.0]]),
        ([1.0], [0.5]),
        ([2.0, 1.0, 5.0], [0.5, 1.0, 2.0]),
        ([0.0, 1.0, 5.0], [0.0, 1.0, 2.0]),
    ], ids=["nan-value", "inf-value", "nan-abscissa", "inf-abscissa", "shape-mismatch",
            "two-dimensional", "one-point", "decreasing-abscissae", "zero-abscissa"])
    def test_malformed_tabulation_rejected(self, ts, values):
        with pytest.raises(ParameterRangeError):
            TabulatedMajorant(ts, values)


class TestBlochParams:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterRangeError):
            BlochParams(0.0, 0.0)

    def test_defaults_to_identity_majorant(self):
        params = BlochParams(2.0, -1.0)
        assert isinstance(params.omega, IdentityMajorant)

    def test_classical(self):
        params = classical_params()
        assert params.alpha == 1.0 and params.beta == 0.0


def test_abstract_base_raises():
    base = AnalyticMap()
    with pytest.raises(NotImplementedError):
        base.eval(0j)


# The evaluation contract (AnalyticMap docstring): one code path whose
# result has the input's shape, and a scalar (never a 0-d array) for scalar
# input.  Scalar results match array elements to rounding only: numpy's
# vectorized loops round differently from its scalar arithmetic (fused
# multiply-add), by a few units in the last place of the intermediates,
# which reach about 60x the result in the antiderivative's closed form.
_CONTRACT_POINTS = np.array([[0.0, 0.3 + 0.4j, -0.55 + 0.1j],
                             [0.2j, -0.7 - 0.2j, 0.05 + 0.9j]])
_CONTRACT_ROUNDING = 2 ** 12 * np.finfo(float).eps
_CONTRACT_MAPS = [
    Polynomial((0.3 + 0.1j, 1.2, -0.5j, 0.25)), Mobius(0.4 + 0.2j),
    Blaschke((0.3 + 0.2j, -0.5 + 0.1j), 1j), Blaschke(()),
    ScaledIdentity(0.4 + 0.3j), PowerKernel(0.2 - 0.3j, 3.0),
    Composed(Mobius(0.3j), Polynomial((0, 0.5, 0.4j)), 0.1),
    QuadraticExtremal(), AntiderivativeExtremal(0.5),
]
_CONTRACT_CASES = (
    [pytest.param(getattr(f, m), complex, id=f"{f.kind}{i}.{m}")
     for i, f in enumerate(_CONTRACT_MAPS) for m in ("eval", "deriv")]
    + [pytest.param(lambda z, f=f, k=k: f.jet(z)[k], complex, id=f"{f.kind}{i}.jet{k}")
       for i, f in enumerate(_CONTRACT_MAPS) for k in (0, 1)]
    + [pytest.param(w, float, id=f"majorant-{w.kind}") for w in (
        IdentityMajorant(), PowerMajorant(0.37),
        TabulatedMajorant([0.5, 1.0, 2.0, 5.0], [0.4, 0.7, 1.0, 1.5]))]
    + [pytest.param(lambda x: psi(x, 1.3), float, id="psi"),
       pytest.param(lambda t: bloch_weight(BlochParams(1.7, -0.4), t), float,
                    id="bloch_weight")]
)


@pytest.mark.parametrize("fn, kind", _CONTRACT_CASES)
@pytest.mark.parametrize("ndim", [0, 1, 2])
def test_evaluation_contract(fn, kind, ndim):
    points = _CONTRACT_POINTS if kind is complex else np.abs(_CONTRACT_POINTS)
    reference = fn(points)
    if ndim == 0:
        inputs = [kind(x) for x in points.ravel()] + list(points.ravel()) \
            + [np.asarray(x) for x in points.ravel()]
        results = [fn(x) for x in inputs]
        for value in results:
            assert isinstance(value, kind) and not isinstance(value, np.ndarray)
        values = np.array(results)
        expected = np.tile(reference.ravel(), 3)
    else:
        shaped = points.ravel() if ndim == 1 else points
        values = fn(shaped)
        assert isinstance(values, np.ndarray) and values.shape == shaped.shape
        expected = reference.reshape(shaped.shape)
    assert np.all(np.abs(values - expected)
                  <= _CONTRACT_ROUNDING * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("f", _CONTRACT_MAPS,
                         ids=[f"{f.kind}{i}" for i, f in enumerate(_CONTRACT_MAPS)])
def test_jet_is_eval_and_deriv_bitwise(f):
    for z in (_CONTRACT_POINTS, _CONTRACT_POINTS.ravel()):
        value, slope = f.jet(z)
        assert np.array_equal(value, f.eval(z)) and np.array_equal(slope, f.deriv(z))
    flat = _CONTRACT_POINTS.ravel()
    for z in [complex(x) for x in flat] + list(flat) + [np.asarray(x) for x in flat]:
        assert f.jet(z) == (f.eval(z), f.deriv(z))


class TestDerivativeAgainstMpmath:
    """Derivatives by a second route: 40-digit mpmath ``diff`` of the map
    written out in mpmath, at seeded points with |z| <= 0.95."""

    @staticmethod
    def _check(f, reference, rng):
        mp = pytest.importorskip("mpmath")
        radius = 0.95 * np.sqrt(rng.random(12))
        points = radius * np.exp(2j * np.pi * rng.random(12))
        with mp.workdps(40):
            expected = np.array([complex(mp.diff(lambda w: reference(mp, w), mp.mpc(z)))
                                 for z in points])
        for got in (f.deriv(points), np.array([f.deriv(complex(z)) for z in points])):
            assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_blaschke(self, n):
        rng = np.random.default_rng(1400 + n)
        factors = 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        rotation = complex(np.exp(2j * np.pi * rng.random()))

        def reference(mp, w):
            out = mp.mpc(rotation)
            for a in factors:
                a = mp.mpc(complex(a))
                out *= (a - w) / (1 - mp.conj(a) * w)
            return out

        self._check(Blaschke(tuple(factors), rotation), reference, rng)

    @pytest.mark.parametrize("b, p", [(0.0, 2.0), (0.6 - 0.3j, 0.7), (-0.9j, 3.0)])
    def test_power_kernel(self, b, p):
        def reference(mp, w):
            bc = mp.conj(mp.mpc(b))
            return (1 - abs(mp.mpc(b)) ** 2) ** (1 / mp.mpf(p)) \
                * mp.exp(-2 / mp.mpf(p) * mp.log(1 - bc * w))

        self._check(PowerKernel(b, p), reference, np.random.default_rng(1409))

    def test_composed(self):
        a, coeffs, offset = 0.4 - 0.5j, (0.1j, 0.5, -0.2 + 0.1j), 0.3 + 0.2j

        def reference(mp, w):
            inner = sum(mp.mpc(c) * w ** k for k, c in enumerate(coeffs))
            return (mp.mpc(a) - inner) / (1 - mp.conj(mp.mpc(a)) * inner) + mp.mpc(offset)

        self._check(Composed(Mobius(a), Polynomial(coeffs), offset), reference,
                    np.random.default_rng(1410))
