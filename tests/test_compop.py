"""Composition operators: compose, criterion integrals, verdicts, probes."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from blochdisk import (Blaschke, BlochParams, CriterionReport, HarmonicMap,
                       InadmissibleSymbolError, LIP_CONSTANT, Mobius,
                       ParameterRangeError, Polynomial, PowerKernel,
                       PowerMajorant, QuadraticExtremal, ScaledIdentity,
                       TabulatedMajorant,
                       as_harmonic, bloch_functional, bloch_to_hardy_criterion,
                       bloch_weight,
                       bounded_below_probe, chi_ratio, classical_params,
                       compose, doubling_limits, doubling_ratio,
                       growth_bound_check, hardy_norm, hardy_to_bloch_q,
                       hardy_to_bloch_verdict, is_admissible_symbol,
                       lambda_f, mobius, schwarz_pick_ratio)
from blochdisk import test_function as kernel_test_function
from blochdisk.compop import PROBE_RADIUS_SUP, ProbeReport, _symbol
from blochdisk.core import Composed
from blochdisk.norms import LADDER, SamplingPlan, sup_grid
from blochdisk.numerics import (TWO_PI, area_uniform_points, circle_means, dyadic_radius,
                                gl_panel_columns)

from conftest import disk_samples, random_polynomial_pair

CLASSICAL = classical_params()
IDENTITY = ScaledIdentity(1.0)
HALF = ScaledIdentity(0.5)
CONSTANT = Polynomial((0.3,))


# Calibration symbols: constants, scalings c z, automorphisms with |a| < 0.95
# and Blaschke products of one to three factors.
_DISK = st.complex_numbers(max_magnitude=0.949)
_CONSTANTS = _DISK.map(lambda c: Polynomial((c,)))
_SCALINGS = _DISK.filter(lambda c: abs(c) > 1e-3).map(ScaledIdentity)
_MOBIUS = _DISK.map(Mobius)
_BLASCHKE = st.lists(_DISK, min_size=1, max_size=3).map(lambda a: Blaschke(tuple(a)))


class _Counting:
    """Duck-typed symbol delegating to phi; records each call's argument shape."""

    kind = "test-counting"

    def __init__(self, phi):
        self.phi = phi
        self.calls = Counter()

    def eval(self, z):
        self.calls["eval", np.shape(z)] += 1
        return self.phi.eval(z)

    def deriv(self, z):
        self.calls["deriv", np.shape(z)] += 1
        return self.phi.deriv(z)


class _Spiky:
    """Duck-typed symbol z/2 whose derivative is inf on 0.55 < |z| < 0.8 and
    NaN beyond, so ladder rows of Q hold inf and NaN."""

    kind = "test-spiky"

    def eval(self, z):
        return 0.5 * np.asarray(z, dtype=complex)

    def deriv(self, z):
        t = np.abs(z)
        return np.where(t > 0.8, np.nan, np.where(t > 0.55, np.inf, 0.5)) + 0j


def _log_slope(evidence):
    """Least-squares slope of the last eight criterion rungs against
    k log 2 = -log(1 - R_k)."""
    ks, vals = np.array(evidence[-8:]).T
    return float(np.polyfit(ks * math.log(2.0), vals, 1)[0])


def _per_ring_evidence(phi, params, p, depth):
    """The verdict's running supremum as Q evaluated ring by ring: Q at 0,
    then each dyadic radius 1 - 2^-j, j = 1..depth, at the grid's angles,
    folded with Python's max."""
    phases = np.exp(1j * sup_grid()[1])

    def q(z):
        w = phi.eval(z)
        weight = params.omega(bloch_weight(params, np.abs(z)))
        return np.abs(phi.deriv(z)) * weight / (1.0 - np.abs(w) ** 2) ** (1.0 + 1.0 / p)

    running = []
    sup_so_far = float(np.max(q(np.zeros(1, dtype=complex))))
    radii = tuple(dyadic_radius(j) for j in range(1, depth + 1))
    for r in radii:
        sup_so_far = max(sup_so_far, float(np.max(q(r * phases))))
        running.append(sup_so_far)
    return tuple(zip(radii, running))


class TestAdmissibility:
    def test_structural_kinds(self):
        assert is_admissible_symbol(Mobius(0.5 + 0.3j))
        assert is_admissible_symbol(IDENTITY)
        assert is_admissible_symbol(HALF)
        assert is_admissible_symbol(CONSTANT)
        assert is_admissible_symbol(Polynomial((0, 1)))

    def test_rejections(self):
        assert not is_admissible_symbol(Polynomial((0.5, 1)))
        assert not is_admissible_symbol(QuadraticExtremal())
        assert not is_admissible_symbol(PowerKernel(0.9, 2.0))
        assert not is_admissible_symbol(Polynomial((1.5,)))

    @pytest.mark.parametrize("phi", [
        Polynomial((0, 1 + 1e-7)), Polynomial((0, 1.0000005)),
        Polynomial((0, 0, 0, 1 + 1e-7)), Polynomial((0.5, 0.5 + 1e-7)),
        Polynomial((0, 1 + 1e-11))],
        ids=["scaled-1e-7", "scaled-5e-7", "cubed-1e-7", "half-shift-1e-7", "scaled-1e-11"])
    def test_refuses_maps_just_past_the_circle(self, phi):
        # each leaves the disk only within 1e-7 of the circle, past the
        # grid's last ring, 1 - 2^-20
        assert not is_admissible_symbol(phi)

    @pytest.mark.parametrize("phi", [
        Polynomial((0, 1)), Polynomial((0, 0.5)), HALF,
        *[Polynomial((0,) * n + (1,)) for n in (2, 5, 17)],
        Polynomial((0.5, 0.5)), Polynomial((0.5j, 0, 0.5)),
        Mobius(1 - 1e-15), Mobius(0.6 - 0.7j),
        Blaschke((1 - 1e-12, -(1 - 1e-12) * 1j, 0.3)),
        Blaschke((0.2 + 0.1j, 0.5, -0.3 + 0.4j)), Blaschke((0.9,), -1j)],
        ids=["identity", "half-polynomial", "half-scaled", "monomial-2", "monomial-5",
             "monomial-17", "half-sum", "half-sum-rotated", "mobius-edge", "mobius",
             "blaschke-edge", "blaschke3", "blaschke-rotated"])
    def test_accepts_self_maps(self, phi):
        # all but the halves reach |phi| = 1 on the circle, where only
        # rounding lies past 1; the automorphisms with zeros at 1 - 1e-15 and
        # 1 - 1e-12 read up to 1 + 8e-6 there, and are admissible by kind
        assert is_admissible_symbol(phi)

    @pytest.mark.parametrize("c", [1.0, -1j, 1 + 2 ** -52, 0.9999995, 0.5j])
    def test_c_z_is_one_symbol_whatever_its_kind(self, c):
        # |c| decides admissibility and contact, with the same rounding slack
        assert is_admissible_symbol(ScaledIdentity(c))
        assert _symbol(ScaledIdentity(c)) == _symbol(Polynomial((0, c))) == \
            _symbol(Polynomial((0, 0, c)))

    def test_circle_decides_past_the_coefficient_bound(self):
        # the coefficient moduli sum to 1.41 sup |phi|, so the circle decides
        c = np.array([-0.4 + 0.4j, 0.9 + 0.9j, -0.5 + 0.5j])
        circle = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 2 ** 16))
        sup = np.max(np.abs(np.polyval(c[::-1], circle)))
        assert is_admissible_symbol(Polynomial(tuple(c / sup * (1 - 1e-8))))
        assert not is_admissible_symbol(Polynomial(tuple(c / sup * (1 + 1e-7))))

    def test_refuses_unimodular_constants(self):
        # |phi| = 1 on the circle, but phi maps the disk onto a boundary point
        assert not is_admissible_symbol(Polynomial((1j,)))
        assert not is_admissible_symbol(Polynomial((-1, 0)))
        assert not is_admissible_symbol(Composed(Polynomial((1j,)), HALF))
        assert is_admissible_symbol(Composed(Polynomial((0.5j,)), HALF))

    def test_harmonic_pair_is_not_a_symbol(self):
        # z/2 + conj(z/10) maps the disk into itself but is not analytic
        pair = HarmonicMap(Polynomial((0, 0.5)), Polynomial((0, 0.1)))
        assert not is_admissible_symbol(pair)
        for engine in (lambda phi: bloch_to_hardy_criterion(phi, CLASSICAL, 2.0),
                       lambda phi: hardy_to_bloch_verdict(phi, CLASSICAL, 2.0),
                       lambda phi: bounded_below_probe(phi, 0.2, 0.5, 10)):
            with pytest.raises(InadmissibleSymbolError, match="analytic self-map"):
                engine(pair)

    def test_compose_rejects_bad_symbol(self):
        f = as_harmonic(Polynomial((0, 1)))
        with pytest.raises(InadmissibleSymbolError):
            compose(f, Polynomial((0.5, 1)))

    def test_overflowing_symbol_is_inadmissible(self):
        # |phi| overflows on the circle, where hardy_norm at p = inf raises
        with np.errstate(over="ignore", invalid="ignore"):
            assert not is_admissible_symbol(Polynomial((0, 1e308, 1e308)))

    def test_empty_blaschke_product_is_inadmissible(self):
        # no factors: the unimodular constant 1 maps the disk onto a boundary point
        assert is_admissible_symbol(Blaschke((0.3,)))
        assert not is_admissible_symbol(Blaschke(()))
        assert not is_admissible_symbol(Blaschke((), 1j))
        for engine in (lambda phi: bloch_to_hardy_criterion(phi, CLASSICAL, 2.0),
                       lambda phi: hardy_to_bloch_verdict(phi, CLASSICAL, 2.0),
                       lambda phi: bounded_below_probe(phi, 0.2, 0.5, 10)):
            with pytest.raises(InadmissibleSymbolError):
                engine(Blaschke(()))


class TestCompose:
    def test_identity_symbol_is_noop(self, rng):
        f = random_polynomial_pair(rng)
        comp = compose(f, Polynomial((0, 1)))
        for z in disk_samples(rng, 30):
            assert abs(comp.eval(z) - f.eval(z)) < 1e-12

    def test_chain_rule_stretch(self):
        f = HarmonicMap(Polynomial((0, 1)), Polynomial((0, 0.5)))
        comp = compose(f, HALF)
        for z in (0j, 0.3 + 0.1j):
            assert lambda_f(comp, z) == pytest.approx(0.75, abs=1e-14)
            assert comp.eval(z) == pytest.approx(f.eval(0.5 * z))

    def test_chain_rule_general(self, rng):
        f = random_polynomial_pair(rng, degree=7)
        phi = Mobius(0.4 - 0.2j)
        comp = compose(f, phi)
        for z in disk_samples(rng, 50, r_max=0.95):
            expected = lambda_f(f, phi.eval(z)) * abs(phi.deriv(z))
            assert abs(lambda_f(comp, z) - expected) < 1e-10

    def test_canonical_anchor_preserved(self, rng):
        f = random_polynomial_pair(rng)
        comp = compose(f, Mobius(0.3 + 0.2j))
        assert abs(complex(comp.g.eval(0j))) < 1e-12
        for z in disk_samples(rng, 20):
            assert abs(comp.eval(z) - f.eval(Mobius(0.3 + 0.2j).eval(z))) < 1e-12

    def test_functional_invariance_quadratic_extremal(self, rng):
        eta = as_harmonic(QuadraticExtremal())
        a = 0.35 - 0.55j
        comp = compose(eta, mobius(a))
        for z in disk_samples(rng, 40, r_max=0.95):
            lhs = bloch_functional(comp, CLASSICAL, z)
            rhs = bloch_functional(eta, CLASSICAL, mobius(a).eval(z))
            assert abs(lhs - rhs) < 1e-10


class TestSchwarzPick:
    def test_bounded_by_one(self, rng):
        radii = np.linspace(0, 0.999, 100)
        angles = np.linspace(0, 2 * math.pi, 100, endpoint=False)
        z = radii[:, None] * np.exp(1j * angles)[None, :]
        for phi in (Polynomial((0.1, 0.4, 0.3)), HALF, Mobius(0.6)):
            vals = schwarz_pick_ratio(phi, z)
            assert float(np.max(vals)) <= 1.0 + 1e-10

    def test_equality_for_automorphisms(self, rng):
        z = disk_samples(rng, 200, r_max=0.99)
        for phi in (Mobius(0.5), Mobius(0.2 - 0.7j), ScaledIdentity(1j), IDENTITY):
            vals = schwarz_pick_ratio(phi, z)
            assert np.all(np.abs(vals - 1.0) < 1e-10)


class TestBlochToHardyCriterion:
    def test_constant_symbol(self):
        rep = bloch_to_hardy_criterion(CONSTANT, CLASSICAL, 2.0)
        assert rep.verdict == "convergent"
        assert rep.estimate == 0.0

    def test_half_identity_matches_quad_oracle(self):
        rep = bloch_to_hardy_criterion(HALF, CLASSICAL, 2.0)
        assert rep.verdict == "convergent"
        oracle, _ = scipy.integrate.quad(
            lambda r: 0.25 * (1 - r) / (1 - r * r / 4) ** 2, 0.0, 1.0)
        assert rep.estimate == pytest.approx(oracle, rel=1e-6)

    def test_identity_diverges_with_log_slope(self):
        rep = bloch_to_hardy_criterion(IDENTITY, CLASSICAL, 2.0)
        assert rep.verdict == "divergent"
        assert rep.diagnostics["contact"] == "whole"
        # inner integral grows like (1/4) log(1/(1-R))
        assert _log_slope(rep.evidence) == pytest.approx(0.25, rel=0.1)

    def test_overflowing_integrand_gives_infinite_rungs_without_warning(self):
        # (1 - r) / chi^2 divides by zero and overflows at alpha = 200
        rep = bloch_to_hardy_criterion(IDENTITY, BlochParams(200.0), 2.0)
        assert rep.verdict == "divergent"
        assert all(value == math.inf for _, value in rep.evidence)

    def test_overflowing_weight_leaves_a_finite_estimate_without_warning(self):
        # chi^2 overflows near the circle at beta = 1000; the integrand there rounds to 0
        rep = bloch_to_hardy_criterion(IDENTITY, BlochParams(1.0, 1000.0), 2.0)
        assert rep.verdict == "convergent"
        assert math.isfinite(rep.estimate) and rep.estimate > 0.0

    def test_overflowing_convergent_integral_is_inconclusive_without_warning(self):
        # |phi| <= 1/2 keeps the integral finite, but 1/chi^2 overflows at alpha = 2000
        rep = bloch_to_hardy_criterion(HALF, BlochParams(2000.0), 2.0)
        assert rep.verdict == "inconclusive" and rep.estimate is None
        assert rep.diagnostics["contact"] == "none"
        assert rep.evidence[-1][1] == math.inf

    def test_automorphism_diverges_like_identity(self):
        rep = bloch_to_hardy_criterion(Mobius(0.3), CLASSICAL, 2.0)
        assert rep.verdict == "divergent"
        assert _log_slope(rep.evidence) == pytest.approx(0.25, rel=0.1)

    def test_scaled_identity_sweep(self):
        for c in (0.0, 0.3, 0.9):
            rep = bloch_to_hardy_criterion(ScaledIdentity(c), CLASSICAL, 2.0)
            assert rep.verdict == "convergent", c
        assert bloch_to_hardy_criterion(ScaledIdentity(1.0), CLASSICAL, 2.0) \
            .verdict == "divergent"

    def test_evidence_monotone(self):
        rep = bloch_to_hardy_criterion(HALF, CLASSICAL, 2.0)
        ks = [k for k, _ in rep.evidence]
        vals = [v for _, v in rep.evidence]
        assert ks == sorted(ks)
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_small_p_supported(self):
        rep = bloch_to_hardy_criterion(HALF, CLASSICAL, 0.5)
        assert rep.verdict == "convergent"

    def test_power_majorant(self):
        params = BlochParams(1.0, 0.0, PowerMajorant(0.5))
        # omega(chi)^2 = 1 - r^2: integrand (1-r)/(1-r^2) bounded, convergent
        rep = bloch_to_hardy_criterion(IDENTITY, params, 2.0)
        assert rep.verdict == "convergent"

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterRangeError):
            bloch_to_hardy_criterion(HALF, CLASSICAL, 0.0)

    def test_refuses_a_symbol_without_jet(self):
        # the panels need AnalyticMap.jet; the Q engines still take duck types
        counting = _Counting(HALF)
        with pytest.raises(TypeError, match="AnalyticMap"):
            bloch_to_hardy_criterion(counting, CLASSICAL, 2.0)
        assert hardy_to_bloch_verdict(counting, CLASSICAL, 2.0).verdict == \
            hardy_to_bloch_verdict(HALF, CLASSICAL, 2.0).verdict

    @pytest.mark.parametrize("phi,nodes", [
        (Blaschke((0.2 + 0.1j, 0.5, -0.3 + 0.4j)), 64), (Polynomial((0.5, 0.5)), 4096)],
        ids=["blaschke3", "half-plus-half-z"])
    def test_each_point_once_in_bounded_jet_calls(self, phi, nodes, monkeypatch):
        # every round evaluates only its new angles, on 24 panels of 16 radii,
        # and takes phi and phi' from jet calls of at most 2^14 points
        points = []

        def counted(self, z, _jet=type(phi).jet):
            points.append(np.ravel(z))
            return _jet(self, z)
        monkeypatch.setattr(type(phi), "jet", counted)
        rep = bloch_to_hardy_criterion(phi, CLASSICAL, 2.0)
        assert rep.diagnostics["angular_nodes"] == nodes
        assert max(z.size for z in points) <= 2 ** 14
        evaluated = np.sort(np.concatenate(points))
        assert evaluated.size == 24 * 16 * nodes
        assert np.all(evaluated[1:] != evaluated[:-1])


def _disk_draws(rng, radius, size):
    return np.sqrt(rng.random(size)) * radius * np.exp(2j * math.pi * rng.random(size))


_ORACLE_RNG = np.random.default_rng(17)
_ORACLE_SYMBOLS = (
    [Blaschke(tuple(_disk_draws(_ORACLE_RNG, 0.8, 3))) for _ in range(6)]
    + [Mobius(complex(a)) for a in _disk_draws(_ORACLE_RNG, 0.9, 6)]
    + [Polynomial((0, 1)), HALF, Polynomial((0.3 - 0.2j,)), Polynomial((0.1, 0.5, 0.3j))])
_ORACLE_ALPHAS = (0.5, 0.95, 1.0, 1.2, 1.5)
_ORACLE_BETAS = (0.0, 0.5)
_ORACLE_PS = (1.5, 2.0, 3.0)


def _fixed_angle_rungs(phi, n=4096):
    """The criterion's rungs for every oracle (alpha, beta, p), with the
    angular mean on a fixed grid of n angles: each dyadic panel's inner
    integral as ``gl_panel_columns`` of one phi.jet on the panel's nodes
    times all angles, and each rung the plain mean of inner^(p/2)."""
    phases = np.exp(1j * np.arange(n) * (2.0 * math.pi / n))
    inner = {(a, b): np.zeros(n) for a in _ORACLE_ALPHAS for b in _ORACLE_BETAS}
    edges = dyadic_radius(np.arange(25))
    rungs = {}
    for k in range(24):
        jets = {}

        def columns(r, a, b):
            if not jets:  # one jet per panel, shared by every (alpha, beta)
                w, dw = phi.jet(r[..., None] * phases)
                u = 1.0 - np.abs(w) ** 2
                jets.update(u=u, log=1.0 - np.log(u),
                            scale=np.abs(dw) ** 2 * (1.0 - r)[..., None])
            # omega(chi)^2 = u^(2a) (1 - log u)^(2b) for the identity majorant
            return jets["scale"] / (jets["u"] ** (2.0 * a) * jets["log"] ** (2.0 * b))

        for (a, b), total in inner.items():
            total += gl_panel_columns(lambda r: columns(r, a, b),
                                      edges[k:k + 1], edges[k + 1:k + 2])[0]
            if k + 1 >= 4:
                for p in _ORACLE_PS:
                    rungs.setdefault((a, b, p), []).append(float(np.mean(total ** (p / 2.0))))
    return rungs


def _angular_means(sample, n, cap, tol):
    """Reference loop for ``numerics.circle_means``, one ``sample`` call per
    count and the comparisons in numpy: circle means of every row of
    ``sample(theta)``, doubling the count (with reuse) until every row's mean
    has changed by at most ``tol * max(1, |mean|)`` at two consecutive
    doublings, or until the count reaches cap.  Returns ``(means, nodes,
    settled, change)``; a mean that stays infinite has not changed, and a NaN
    change resets the agreements.
    """
    total = np.sum(sample(np.arange(n) * (TWO_PI / n)), axis=-1)
    means = total / n
    agreements, change = 0, math.nan
    while n < cap and agreements < 2:
        total = total + np.sum(sample((np.arange(n) + 0.5) * (TWO_PI / n)), axis=-1)
        n *= 2
        new_means = total / n
        with np.errstate(invalid="ignore"):  # inf - inf, inf / inf
            moved = np.where(new_means == means, 0.0, np.abs(new_means - means))
            change = float(np.max(moved / np.maximum(1.0, np.abs(new_means))))
        agreements = agreements + 1 if change <= tol else 0
        means = new_means
    return means, n, agreements == 2, change


def _random_rows(rng, rows):
    """A sample of ``rows`` random periodic rows, elementwise in theta, so
    its values at an angle do not depend on the other angles of the call:
    trigonometric polynomials with frequencies up to 300, which settle only
    past their top frequency, and Poisson kernels 1 / (1 - a cos(theta - t)),
    which settle geometrically."""
    freqs = rng.integers(1, 300, size=(rows, 3))
    amps = rng.uniform(-1.0, 1.0, size=(rows, 3)) * 10.0 ** rng.integers(-12, 1, size=(rows, 3))
    shifts = rng.uniform(0.0, TWO_PI, size=(rows, 3))
    a = rng.uniform(0.0, 0.95, size=rows)
    t = rng.uniform(0.0, TWO_PI, size=rows)
    poisson = rng.random(rows) < 0.5

    def sample(theta):
        trig = 3.0 + np.sum(amps[..., None] * np.cos(freqs[..., None] * theta + shifts[..., None]),
                            axis=1)
        kernel = 1.0 / (1.0 - a[:, None] * np.cos(theta - t[:, None]))
        return np.where(poisson[:, None], kernel, trig)
    return sample


class TestCircleMeans:
    """``numerics.circle_means`` against the reference loop ``_angular_means``."""

    @pytest.mark.parametrize("special", ["finite", "inf"])
    def test_same_bits_as_the_reference_loop(self, rng, special):
        # rows that stay infinite have not changed, in both loops
        for _ in range(40):
            finite = _random_rows(rng, int(rng.integers(1, 6)))

            def sample(theta, finite=finite):
                rows = finite(theta)
                if special == "inf":
                    rows = np.concatenate((rows, np.full((1, theta.size), np.inf)))
                return rows
            n = int(2 ** rng.integers(2, 6))
            cap = int(2 ** rng.integers(np.log2(n) + 1, 13))
            tol = float(10.0 ** rng.integers(-12, -3))
            means, nodes, settled, change, _ = circle_means(sample, n, cap, tol)
            ref_means, ref_nodes, ref_settled, ref_change = _angular_means(sample, n, cap, tol)
            assert np.array(means).tobytes() == ref_means.tobytes()
            assert (nodes, settled, change) == (ref_nodes, ref_settled, ref_change)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("special", ["nan", "finite-then-inf"])
    def test_nan_change_ends_the_doubling_at_once(self, rng, special):
        # the reference loop resets its agreements and doubles on to the cap;
        # the means it reached at the first doubling are the same bits
        for _ in range(10):
            finite = _random_rows(rng, int(rng.integers(1, 6)))
            n = int(2 ** rng.integers(2, 6))

            def sample(theta, finite=finite, n=n):
                # a NaN row, or a row that is inf at the first doubling's angles
                row = np.full(theta.size, np.nan) if special == "nan" else \
                    np.where(np.isin(theta, (np.arange(n) + 0.5) * (TWO_PI / n)), np.inf, 1.0)
                return np.concatenate((finite(theta), row[None]))
            means, nodes, settled, change, before = circle_means(sample, n, 2 ** 12, 1e-6)
            ref_means, ref_nodes, ref_settled, ref_change = _angular_means(sample, n, 2 * n, 1e-6)
            assert np.array(means).tobytes() == ref_means.tobytes()
            assert (nodes, settled) == (ref_nodes, ref_settled) == (2 * n, False)
            assert math.isnan(change) and math.isnan(ref_change)
            assert np.array(before).tobytes() == (
                np.sum(sample(np.arange(n) * (TWO_PI / n)), axis=-1) / n).tobytes()

    def test_first_call_takes_both_halves_of_the_first_doubling(self):
        sizes = []

        def sample(theta):
            sizes.append(theta.size)
            return 1.0 + 0.5 * np.cos(32.0 * theta[None])
        _, nodes, settled, _, _ = circle_means(sample, 16, 2 ** 12, 1e-6)
        # 16 + 16 angles, then the 32, 64 and 128 that each doubling adds
        assert settled and sizes == [32, 32, 64, 128] and sum(sizes) == nodes


class TestCriterionAngles:
    def test_one_agreement_does_not_stop_the_mean(self):
        # every 16th and 32nd root of unity is a peak of cos(32 theta), so the
        # 16- and 32-node means agree at 1.5; the mean is 1
        def sample(theta):
            return 1.0 + 0.5 * np.cos(32.0 * theta[None])
        for n in (16, 32):
            assert np.mean(sample(np.arange(n) * (2.0 * math.pi / n))) == pytest.approx(1.5)
        (mean,), nodes, settled, change, _ = circle_means(sample, 16, 2 ** 12, 1e-6)
        assert abs(mean - 1.0) <= 1e-15
        assert nodes >= 128 and settled and change <= 1e-6

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rungs_that_stay_infinite_have_settled(self):
        # at alpha 40 omega(chi)^2 underflows to 0 near the circle, so the top
        # rungs are inf at every count: unchanged, not unsettled
        rep = bloch_to_hardy_criterion(IDENTITY, BlochParams(40.0, 0.0), 2.0)
        assert rep.verdict == "divergent"
        assert rep.evidence[-1][1] == math.inf
        assert rep.diagnostics["angular_nodes"] == 64 and rep.diagnostics["angular_settled"]

    @pytest.mark.parametrize("phi", _ORACLE_SYMBOLS,
                             ids=[f"blaschke{i}" for i in range(6)]
                             + [f"mobius{i}" for i in range(6)]
                             + ["identity", "half-identity", "constant", "quadratic"])
    def test_rungs_match_a_4096_angle_reference(self, phi):
        # every verdict is the contact rule's: z/2, the constant and the
        # quadratic (coefficient moduli sum 0.9) never touch the circle
        touches = isinstance(phi, (Blaschke, Mobius)) or phi == Polynomial((0, 1))
        for (a, b, p), reference in _fixed_angle_rungs(phi).items():
            rep = bloch_to_hardy_criterion(phi, BlochParams(a, b), p)
            assert rep.verdict == ("divergent" if touches and a >= 1.0 else "convergent")
            assert rep.diagnostics["angular_settled"]
            rungs = [v for _, v in rep.evidence]
            assert rungs == pytest.approx(reference, rel=1e-8, abs=0.0), (a, b, p)

    def test_isolated_contact_keeps_its_verdict_at_the_cap(self):
        # the inner integral of (1 + z)/2 is log-singular at theta = 0, so
        # the mean creeps toward its 16,384-angle value and never settles
        rep = bloch_to_hardy_criterion(Polynomial((0.5, 0.5)), CLASSICAL, 2.0)
        assert rep.verdict == "convergent"
        assert rep.diagnostics["contact"] == "isolated"
        assert rep.diagnostics["angular_nodes"] == 4096
        assert rep.diagnostics["angular_settled"] is False
        assert rep.diagnostics["angular_change"] > 1e-6
        assert rep.estimate == pytest.approx(0.407515619366953, abs=1e-3)

    def test_reads_tol_and_starts_at_most_at_16_angles(self):
        loose = bloch_to_hardy_criterion(Mobius(0.6), BlochParams(0.5, 0.0), 2.0,
                                         SamplingPlan(refinement_tol=1e-3))
        tight = bloch_to_hardy_criterion(Mobius(0.6), BlochParams(0.5, 0.0), 2.0,
                                         SamplingPlan(refinement_tol=1e-12))
        assert loose.diagnostics["angular_nodes"] < tight.diagnostics["angular_nodes"]
        for angular in (8, 16, 1024):
            rep = bloch_to_hardy_criterion(HALF, CLASSICAL, 2.0,
                                           SamplingPlan(angular_resolution=angular))
            assert rep.diagnostics["angular_nodes"] == 4 * min(angular, 16)


class TestHardyToBlochQ:
    def test_constant_symbol_zero(self):
        assert hardy_to_bloch_q(CONSTANT, CLASSICAL, 2.0, 0.3) == 0.0

    def test_identity_value_near_boundary(self):
        q = hardy_to_bloch_q(IDENTITY, CLASSICAL, 2.0, 0.99)
        assert q == pytest.approx((1 - 0.99 ** 2) ** -0.5, abs=1e-12)

    def test_half_identity_origin(self):
        assert hardy_to_bloch_q(HALF, CLASSICAL, 2.0, 0j) == \
            pytest.approx(0.5, abs=1e-14)

    def test_rejects_unsupported_params(self):
        with pytest.raises(ParameterRangeError):
            hardy_to_bloch_q(HALF, CLASSICAL, 1.0, 0j)  # p must exceed 1
        with pytest.raises(ParameterRangeError):
            hardy_to_bloch_q(HALF, BlochParams(1.0, 0.5), 2.0, 0j)
        with pytest.raises(ParameterRangeError):
            hardy_to_bloch_q(HALF, BlochParams(0.5, 0.0), 2.0, 0j)
        with pytest.raises(ParameterRangeError):
            # omega(t)/t unbounded at 0
            hardy_to_bloch_q(HALF, BlochParams(1.0, 0.0, PowerMajorant(0.5)),
                             2.0, 0j)

    def test_tabulation_with_a_steep_first_segment_is_supported(self):
        # omega(t)/t tends to 1 at 0, though it is at most 1e-3 from t = 1 on
        omega = TabulatedMajorant([1e-15, 1, 5], [1e-15, 1e-3, 2e-3])
        rep = hardy_to_bloch_verdict(HALF, BlochParams(1.0, 0.0, omega), 2.0)
        assert rep.verdict == "vacuously-compact"

    def test_admissible_param_corner(self):
        assert hardy_to_bloch_q(HALF, BlochParams(1.0, -1.0), 2.0, 0j) >= 0.0
        assert hardy_to_bloch_q(HALF, BlochParams(2.0, 3.0), 2.0, 0j) >= 0.0


class TestHardyToBlochVerdict:
    def test_overflowing_weight_is_inconclusive_without_warning(self):
        # the weight's log factor overflows at beta = 1000 on the last rungs
        rep = hardy_to_bloch_verdict(HALF, BlochParams(2.0, 1000.0), 2.0)
        assert rep.verdict == "inconclusive"
        assert rep.evidence[-1][1] == math.inf

    def test_identity_unbounded(self):
        rep = hardy_to_bloch_verdict(IDENTITY, CLASSICAL, 2.0)
        assert rep.verdict == "unbounded"
        assert rep.diagnostics["bounded"] is False

    def test_half_identity_vacuously_compact(self):
        rep = hardy_to_bloch_verdict(HALF, CLASSICAL, 2.0)
        assert rep.verdict == "vacuously-compact"
        assert rep.diagnostics["bounded"] is True
        assert rep.diagnostics["sup_phi"] <= 0.5 + 1e-9
        assert rep.estimate is not None and math.isfinite(rep.estimate)

    def test_constant_vacuously_compact(self):
        rep = hardy_to_bloch_verdict(CONSTANT, CLASSICAL, 2.0)
        assert rep.verdict == "vacuously-compact"
        assert rep.estimate == pytest.approx(0.0, abs=1e-12)

    def test_boundary_touching_polynomial_non_compact(self):
        # phi(z) = (1+z)/2 touches the boundary at z -> 1 with Q blowing up
        rep = hardy_to_bloch_verdict(Polynomial((0.5, 0.5)), CLASSICAL, 2.0)
        assert rep.verdict == "unbounded"
        assert rep.diagnostics["contact"] == "isolated"

    def test_touching_duck_type_is_inconclusive(self):
        # |phi| -> 1 with Q -> 0 near the circle, but a duck type's contact
        # is not classified, so no verdict is read from it
        class Damped:
            kind = "test-damped"

            def eval(self, z):
                return np.asarray(z, dtype=complex)

            def deriv(self, z):
                gap = 1.0 - np.abs(np.asarray(z, dtype=complex)) ** 2
                return gap ** 0.75 + 0j

        rep = hardy_to_bloch_verdict(Damped(), CLASSICAL, 2.0)
        assert rep.verdict == "inconclusive" and rep.estimate is None
        assert rep.diagnostics["contact"] == "undecided"
        assert rep.diagnostics["sup_phi"] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("depth", [3, 4, 20, 24])
    @pytest.mark.parametrize("phi", [
        IDENTITY, HALF, CONSTANT, Mobius(0.4 + 0.1j),
        Blaschke((0.2 + 0.1j, -0.3 + 0.4j, 0.5 - 0.2j)), _Spiky()],
        ids=["identity", "half", "constant", "mobius", "blaschke3", "inf-nan"])
    def test_evidence_matches_per_ring_reference(self, phi, depth):
        # a reference ladder of any depth agrees bit for bit with the
        # evidence on their common rungs, and the evidence stops at LADDER's 20
        common = min(depth, len(LADDER))
        for params, p in ((CLASSICAL, 2.0), (BlochParams(2.0, 1.0), 3.0)):
            evidence = hardy_to_bloch_verdict(phi, params, p).evidence
            reference = _per_ring_evidence(phi, params, p, depth)
            assert len(evidence) == len(LADDER)
            assert np.asarray(evidence[:common]).tobytes() == \
                np.asarray(reference[:common]).tobytes()

    @pytest.mark.parametrize("phi,verdict,grid_calls", [
        (HALF, "vacuously-compact", 1), (Polynomial((0, 1)), "unbounded", 0)])
    def test_one_ladder_call_and_one_grid_evaluation(self, phi, verdict, grid_calls,
                                                     monkeypatch):
        # the rows r = 0 and the 20 of LADDER are one call; an unbounded
        # verdict reads no supremum, so it never evaluates the whole grid
        calls = Counter()
        for name in ("eval", "deriv"):
            def counted(self, z, _method=getattr(type(phi), name), _name=name):
                calls[_name, np.shape(z)] += 1
                return _method(self, z)
            monkeypatch.setattr(type(phi), name, counted)
        assert hardy_to_bloch_verdict(phi, CLASSICAL, 2.0).verdict == verdict
        rings = (len(LADDER) + 1, 256)
        grid = sup_grid()[2].shape
        assert calls["eval", rings] == calls["deriv", rings] == 1
        assert calls["eval", grid] == calls["deriv", grid] == grid_calls
        # c z and c z^n take sup |phi| from their coefficients: phi is never
        # sampled on the circle, nor point by point
        assert not calls["eval", (256,)] and not calls["deriv", (256,)]
        assert not calls["eval", (1,)]

    def test_duck_type_samples_the_circle_once_per_screen(self):
        # admissibility and contact read sup |phi| from one circle_max, which
        # samples phi (not phi') on its 256 nodes
        counting = _Counting(HALF)
        assert hardy_to_bloch_verdict(counting, CLASSICAL, 2.0).verdict == "vacuously-compact"
        assert counting.calls["eval", (256,)] == 1 and not counting.calls["deriv", (256,)]

    def test_evidence_running_sup_monotone(self):
        rep = hardy_to_bloch_verdict(HALF, CLASSICAL, 2.0)
        vals = [v for _, v in rep.evidence]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))



class TestCriterionReport:
    def test_affirmative_requires_estimate(self):
        with pytest.raises(ValueError):
            CriterionReport("convergent", None, ())
        with pytest.raises(ValueError):
            CriterionReport("vacuously-compact", math.inf, ())
        with pytest.raises(ValueError):
            CriterionReport("nonsense", 1.0, ())
        with pytest.raises(ValueError):  # boundedness is a diagnostic, not a verdict
            CriterionReport("bounded", 1.0, ())


class TestTestFunction:
    def test_degenerate_center(self):
        f = kernel_test_function(0, 2.0)
        assert f.eval(0.5) == pytest.approx(1.0)
        assert float(hardy_norm(f, 2.0)) == pytest.approx(1.0, abs=1e-6)

    def test_unit_hardy_norm(self, rng):
        for _ in range(5):
            b = complex(disk_samples(rng, 1, r_max=0.95)[0])
            p = float(rng.uniform(0.7, 4.0))
            f = kernel_test_function(b, p)
            assert float(hardy_norm(f, p)) == pytest.approx(1.0, abs=1e-5)

    def test_hand_value(self):
        f = kernel_test_function(0.9, 2.0)
        assert abs(f.eval(0.9)) == pytest.approx((1 / 0.19) ** 0.5, abs=1e-10)


class TestGrowthBound:
    def test_identity_origin(self):
        f = as_harmonic(Polynomial((0, 1)))
        rec = growth_bound_check(f, 2.0, 0j)
        assert rec["lhs"] == pytest.approx(1.0)
        assert rec["rhs"] == pytest.approx(2.0, abs=1e-8)
        assert rec["ok"]

    def test_constant(self):
        rec = growth_bound_check(as_harmonic(Polynomial((5,))), 2.0, 0.3)
        assert rec["lhs"] == 0.0
        assert rec["ok"]

    def test_random_pairs(self, rng):
        for _ in range(10):
            f = random_polynomial_pair(rng, degree=6)
            for z in disk_samples(rng, 10, r_max=0.98):
                assert growth_bound_check(f, 2.5, z)["ok"]

    def test_rejects_small_p(self):
        with pytest.raises(ParameterRangeError):
            growth_bound_check(as_harmonic(Polynomial((0, 1))), 1.0, 0j)


def probe_reference(phi, r, epsilon, samples, seed):
    """Per-target loop: the least distance from each target w to the pool of
    grid candidates plus w and phi(w), each kept when its ratio beats epsilon."""
    radii, angles, _ = sup_grid()
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    img = np.asarray(phi.eval(z), dtype=complex).ravel()
    ratio = (1.0 - np.abs(z) ** 2) * np.abs(phi.deriv(z)).ravel() \
        / (1.0 - np.abs(img) ** 2)
    candidates = img[ratio > epsilon]
    hits, unmatched = 0, []
    for w in area_uniform_points(np.random.default_rng(seed), samples):
        local = np.array([w, complex(phi.eval(complex(w)))])
        local = local[np.abs(local) < 1.0]
        local_img = np.asarray(phi.eval(local), dtype=complex)
        local_ratio = (1.0 - np.abs(local) ** 2) \
            * np.abs(np.asarray(phi.deriv(local), dtype=complex)) \
            / (1.0 - np.abs(local_img) ** 2)
        pool = np.concatenate([candidates, local_img[local_ratio > epsilon]])
        if pool.size and \
                np.min(np.abs((pool - w) / (1.0 - np.conjugate(w) * pool))) < r:
            hits += 1
        elif len(unmatched) < 8:
            unmatched.append(complex(w))
    fraction = hits / samples
    implied = (1.0 - LIP_CONSTANT * r) * epsilon if fraction == 1.0 else None
    return ProbeReport(fraction, implied, samples, int(z.size), tuple(unmatched))


class TestBoundedBelowProbe:
    # The Blaschke product, the quadratic and z/2 leave targets for the grid
    # scan, whose chunks hold 12, 98 and 204 targets at epsilon = 0.4 on the
    # default plan: 5 samples fit in one chunk, 300 span several.
    @pytest.mark.parametrize("phi", [
        IDENTITY, Polynomial((0, 1)), Mobius(0.3), CONSTANT, HALF,
        Blaschke((0.3 + 0.2j, -0.5j)), Polynomial((0, 0.5, 0.4j))])
    @pytest.mark.parametrize("samples", [5, 300])
    def test_matches_per_target_reference(self, phi, samples):
        expected = probe_reference(phi, 0.2, 0.4, samples, seed=3)
        assert bounded_below_probe(phi, 0.2, 0.4, samples, seed=3) == expected

    def test_identity_full_fraction(self):
        rep = bounded_below_probe(IDENTITY, 0.2, 0.5, 100, seed=7)
        assert rep.fraction == 1.0
        assert rep.implied_constant == \
            pytest.approx((1 - LIP_CONSTANT * 0.2) * 0.5, abs=1e-12)

    def test_automorphism_full_fraction(self):
        rep = bounded_below_probe(Mobius(0.3), 0.2, 0.5, 100, seed=7)
        assert rep.fraction == 1.0
        assert rep.implied_constant is not None

    def test_constant_fraction_zero(self):
        rep = bounded_below_probe(CONSTANT, 0.2, 0.5, 50, seed=7)
        assert rep.fraction == 0.0
        assert rep.implied_constant is None
        assert len(rep.unmatched) > 0

    def test_range_errors(self):
        with pytest.raises(ParameterRangeError):
            bounded_below_probe(IDENTITY, 0.5, 0.5, 10)  # r past 2 sqrt(3)/9
        with pytest.raises(ParameterRangeError):
            bounded_below_probe(IDENTITY, PROBE_RADIUS_SUP, 0.5, 10)
        with pytest.raises(ParameterRangeError):
            bounded_below_probe(IDENTITY, 0.2, 0.0, 10)


class TestDoubling:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (1.0, -1.0)])
    def test_limits(self, alpha, beta):
        lim0, lim1 = doubling_limits(alpha, beta)
        assert lim0 == pytest.approx(2.0 ** alpha, abs=1e-4)
        expected1 = (4.0 / 3.0) ** alpha / (1.0 + math.log(4.0 / 3.0)) ** beta
        assert lim1 == pytest.approx(expected1, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_limits_against_mpmath(self, alpha):
        # 40-digit closed forms: the s -> 0 limit is extrapolated (worst
        # relative error 7.0e-7, at alpha = 3, beta = -1), the s = 1 value is
        # direct and holds to rounding
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpf(alpha)
            for beta in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                lim0, lim1 = doubling_limits(alpha, beta)
                exp0 = mp.mpf(2) ** a
                exp1 = (mp.mpf(4) / 3) ** a / (1 + mp.log(mp.mpf(4) / 3)) ** mp.mpf(beta)
                assert abs(lim0 - exp0) <= 1e-6 * exp0, (alpha, beta, lim0)
                assert abs(lim1 - exp1) <= 1e-13 * exp1, (alpha, beta, lim1)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (1.0, -1.0)])
    def test_ratio_uniformly_bounded(self, alpha, beta):
        # continuous on (0, 1] with finite endpoint limits, hence bounded;
        # the interior can overshoot both limits (it does for beta < 0)
        s = np.linspace(1e-6, 1.0, 400)
        vals = [chi_ratio(alpha, beta, float(x)) for x in s]
        cap = 1.5 * max(2.0 ** alpha,
                        (4.0 / 3.0) ** alpha / (1.0 + math.log(4.0 / 3.0)) ** beta)
        assert max(vals) <= cap

    def test_majorant_ratio_below_chi_ratio(self):
        params = BlochParams(1.5, 0.5, PowerMajorant(0.6))
        for s in (1e-4, 0.01, 0.3, 0.99, 1.0):
            assert doubling_ratio(params, s) <= \
                chi_ratio(1.5, 0.5, s) * (1.0 + 1e-12)

    def test_identity_majorant_ratios_coincide(self):
        params = BlochParams(2.0, 1.0)
        for s in (1e-5, 0.2, 1.0):
            assert doubling_ratio(params, s) == \
                pytest.approx(chi_ratio(2.0, 1.0, s), abs=1e-13)

    def test_range_error(self):
        with pytest.raises(ParameterRangeError):
            chi_ratio(1.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# Boundary contact and the exponent rules
# --------------------------------------------------------------------------

_B2 = Blaschke((0.3 + 0.1j, -0.5 + 0.2j))


class TestContact:
    @pytest.mark.parametrize("phi,contact,sup_phi", [
        (Mobius(0.4 - 0.2j), "whole", 1.0),
        (_B2, "whole", 1.0),
        (IDENTITY, "whole", 1.0),
        (ScaledIdentity(1j), "whole", 1.0),
        (Polynomial((0, 1)), "whole", 1.0),
        (Polynomial((0, 0, 0, -1j)), "whole", 1.0),
        (Polynomial((0.5, 0.5)), "isolated", 1.0),
        (Polynomial((0.25, 0.5, 0.25)), "isolated", 1.0),
        (HALF, "none", 0.5),
        (CONSTANT, "none", 0.3),
        (Polynomial(()), "none", 0.0),
        (Polynomial((0.1, 0.2)), "none", pytest.approx(0.3, rel=1e-15)),
        (ScaledIdentity(1 - 1e-6), "none", 1 - 1e-6),
        (ScaledIdentity(0.9999995), "undecided", 0.9999995),
        (Polynomial((0, 0.9999995)), "undecided", 0.9999995),
        (ScaledIdentity(1 - 1e-12), "whole", 1 - 1e-12),
        (_Counting(Polynomial((0, 1))), "undecided", pytest.approx(1.0, rel=1e-15)),
        (_Counting(HALF), "none", pytest.approx(0.5, rel=1e-15)),
        (Composed(Mobius(0.3), Mobius(0.5)), "undecided", pytest.approx(1.0, rel=1e-12)),
        (Polynomial((0, 1 + 1e-13)), "whole", 1 + 1e-13),
    ], ids=lambda v: getattr(v, "kind", None))
    def test_classification(self, phi, contact, sup_phi):
        assert _symbol(phi) == (contact, sup_phi)

    @pytest.mark.parametrize("phi", [Mobius(0.9 + 0.05j), _B2, IDENTITY, Polynomial((0, 1)),
                                     Polynomial((0, 1 + 1e-13))])
    def test_kinds_decided_without_sampling(self, phi, monkeypatch):
        # one sup |phi| decides admissibility and contact: for (1 + 1e-13) z
        # it is the coefficient's modulus, where the circle reads 1.0000000000001001
        import blochdisk.compop as compop_mod

        def refuse(*args):
            raise AssertionError("sampled the circle")
        monkeypatch.setattr(compop_mod, "hardy_norm", refuse)
        assert _symbol(phi)[0] == "whole"


def _verdict(phi, alpha, p, beta=0.0):
    return hardy_to_bloch_verdict(phi, BlochParams(alpha, beta), p).verdict


def _criterion(phi, alpha, p=2.0, beta=0.0, omega=None, plan=None):
    return bloch_to_hardy_criterion(phi, BlochParams(alpha, beta, omega), p, plan).verdict


class TestExponentRules:
    @pytest.mark.parametrize("phi", [IDENTITY, Mobius(0.5), _B2, Polynomial((0.5, 0.5))],
                             ids=["identity", "mobius", "blaschke2", "half-plus-half-z"])
    @pytest.mark.parametrize("alpha,beta,p,verdict", [
        (1.0, 0.0, 2.0, "unbounded"),      # e < 0
        (1.5, 0.5, 2.0, "unbounded"),      # e = 0 < beta
        (1.5, 0.0, 2.0, "non-compact"),    # e = 0 = beta
        (1.5, -1.0, 2.0, "compact"),       # e = 0 > beta
        (1.55, 0.0, 2.0, "compact"),       # e > 0
        (1.3, 0.0, 4.0, "compact"),
        (1.2, -1.0, 4.0, "unbounded"),     # u^-0.05 beats 1/log(1/u)
        (1.0, 0.0, math.inf, "non-compact"),
        (1.5, 0.0, math.inf, "compact"),
    ])
    def test_verdict_table(self, phi, alpha, beta, p, verdict):
        assert _verdict(phi, alpha, p, beta) == verdict

    def test_zero_exponent_is_one_exact_comparison(self):
        # alpha - 1 - 1/p rounds to -5.6e-17 here, yet e = 0
        alpha, p = 4.0 / 3.0, 3.0
        assert alpha - 1.0 - 1.0 / p < 0.0 and alpha * p == p + 1.0
        rep = hardy_to_bloch_verdict(IDENTITY, BlochParams(alpha, 0.0), p)
        assert rep.verdict == "non-compact"
        assert rep.diagnostics["exponent"] == 0.0

    @pytest.mark.parametrize("alpha,p", [(1.2, 2.0), (1.5, 2.0), (2.0, 3.0), (1.1, math.inf)])
    def test_q_along_the_identity_radius_in_mpmath(self, alpha, p):
        mp = pytest.importorskip("mpmath")
        # 1 - r^2 is exact in floats at r = 1 - 2^-26
        for r in (0.0, 0.3, 0.9, 0.999, 1 - 2.0 ** -26):
            with mp.workdps(30):
                e = mp.mpf(alpha) - 1 - (0 if p == math.inf else 1 / mp.mpf(p))
                oracle = float((1 - mp.mpf(r) ** 2) ** e)
            q = hardy_to_bloch_q(Polynomial((0, 1)), BlochParams(alpha, 0.0), p, r)
            assert q == pytest.approx(oracle, rel=1e-12)

    def test_identity_criterion_in_mpmath(self):
        # the inner integral in u = 1 - r is int u^-0.9 (2 - u)^-1.9 du: rung 24
        # is its truncation at u = 2^-24, and the whole integral is finite,
        # 2^-1.9 / 0.1 2F1(1.9, 0.1; 1.1; 1/2) = 3.0718 (a plain mp.quad over
        # [0, 1] misses the u^-0.9 end, so the quadrature splits toward 0)
        mp = pytest.importorskip("mpmath")
        rep = bloch_to_hardy_criterion(Polynomial((0, 1)), BlochParams(0.95, 0.0), 2.0)
        assert rep.verdict == "convergent"
        with mp.workdps(30):
            a, b = mp.mpf(-0.9), mp.mpf(-1.9)

            def f(u):
                return u ** a * (2 - u) ** b
            rung24 = mp.quad(f, [mp.mpf(2) ** -24, 1])
            eps = mp.mpf(2) ** -200
            split = mp.quad(f, [eps] + [mp.mpf(2) ** -k for k in range(199, -1, -1)]) \
                + 2 ** b * eps ** mp.mpf(0.1) / mp.mpf(0.1)
            closed = 2 ** b / mp.mpf(0.1) * mp.hyp2f1(-b, mp.mpf(0.1), mp.mpf(1.1), 0.5)
            assert abs(split / closed - 1) < 1e-12
        assert rep.evidence[-1] == (24, rep.estimate)
        assert rep.estimate == pytest.approx(float(rung24), rel=1e-10)
        assert float(closed) == pytest.approx(3.0718, abs=1e-4)

    @pytest.mark.parametrize("phi", [IDENTITY, Mobius(0.5), _B2, ScaledIdentity(1j)])
    @pytest.mark.parametrize("alpha,beta,omega,verdict", [
        (0.95, 0.0, None, "convergent"),
        (0.99, 0.0, None, "convergent"),
        (0.5, 3.0, None, "convergent"),
        (1.0, 0.0, None, "divergent"),
        (1.0, 0.5, None, "divergent"),     # int du / (u log(1/u))
        (1.0, 0.6, None, "convergent"),
        (1.0, 1.0, None, "convergent"),
        (1.05, 2.0, None, "divergent"),
        (1.5, 0.0, PowerMajorant(0.5), "convergent"),   # a = 0.75
        (2.0, 0.0, PowerMajorant(0.5), "divergent"),    # a = 1, b = 0
    ])
    def test_whole_circle_criterion_table(self, phi, alpha, beta, omega, verdict):
        assert _criterion(phi, alpha, beta=beta, omega=omega) == verdict

    @pytest.mark.parametrize("alpha,p,verdict", [
        (0.9, 2.0, "convergent"),
        (1.0, 2.0, "convergent"),        # log-singular at the contact: finite
        (1.2, 2.0, "inconclusive"),      # 1 < a <= 1 + 1/(2p): needs the order
        (1.25, 2.0, "inconclusive"),
        (1.3, 2.0, "divergent"),         # 2p(a - 1) > 1
        (1.2, 3.0, "divergent"),
    ])
    def test_isolated_contact_criterion_table(self, alpha, p, verdict):
        assert _criterion(Polynomial((0.5, 0.5)), alpha, p) == verdict

    def test_undecided_contact(self):
        near = ScaledIdentity(0.9999995)
        assert _criterion(near, 0.5) == "convergent"
        assert _criterion(near, 1.0) == "inconclusive"
        assert _criterion(near, 2.0) == "inconclusive"
        for alpha, p in ((1.0, 2.0), (1.5, 2.0), (2.0, 3.0)):
            rep = hardy_to_bloch_verdict(near, BlochParams(alpha, 0.0), p)
            assert rep.verdict == "inconclusive" and rep.estimate is None
            assert rep.diagnostics["sup_phi"] == 0.9999995


class TestCalibrationSymbols:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_CONSTANTS, _SCALINGS, st.just(IDENTITY), _MOBIUS, _BLASCHKE),
           st.sampled_from([1.5, 2.0, 3.0]))
    def test_unbounded_or_vacuously_compact(self, phi, p):
        assert hardy_to_bloch_verdict(phi, CLASSICAL, p).verdict in (
            "unbounded", "vacuously-compact")
