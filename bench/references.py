"""Independent references for the benchmark's output checks.

Nothing here calls the library: every expected value comes from a closed
form, a coefficient formula, or a plain numpy computation that shares no code
with ``blochdisk``.  The test suite's own oracles are deliberately not
imported, so a change to them cannot silently loosen the benchmark.
"""

from __future__ import annotations

import math

import numpy as np

# Sharp Lipschitz constant of the classical Bloch functional.
LIP_CONSTANT = 1.5 * math.sqrt(3.0)
# lipschitz_scan's documented relative slack on the cap.
CAP_SLACK = 1e-4


def lipschitz_cap_ok(max_ratio: float, seminorm: float) -> bool:
    """max_ratio / seminorm <= 3 sqrt(3)/2 (1 + 1e-4)."""
    return max_ratio / seminorm <= LIP_CONSTANT * (1.0 + CAP_SLACK)


def rel_close(value, expected, rel, abs_tol=0.0) -> bool:
    value, expected = float(value), float(expected)
    if not (math.isfinite(value) and math.isfinite(expected)):
        return False
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


# --------------------------------------------------------------------------
# Hardy norms and the square function of polynomials
# --------------------------------------------------------------------------

def parseval_norm_sq(coefficients) -> float:
    """||f||_2^2 = sum |a_n|^2 for a polynomial (Parseval)."""
    a = np.asarray(coefficients, dtype=complex)
    return float(np.sum(np.abs(a) ** 2))


def g_integral_p2(coefficients) -> float:
    """|a0|^2 + sum_j |c_j|^2 (1/(2j+1) - 1/(2j+2)), c_j = (j+1) a_{j+1}.

    The angular mean of G(f)(zeta)^2 kills every cross term of the
    coefficient form, leaving the diagonal.
    """
    a = np.asarray(coefficients, dtype=complex)
    j = np.arange(len(a) - 1)
    c = (j + 1) * a[1:]
    weights = 1.0 / (2 * j + 1) - 1.0 / (2 * j + 2)
    return float(abs(a[0]) ** 2 + np.sum(np.abs(c) ** 2 * weights))


def g_sq_coefficient_form(coefficients, zeta: complex) -> float:
    """G(f)(zeta)^2 = sum_{j,k} c_j conj(c_k) zeta^(j-k) (1/(j+k+1) - 1/(j+k+2))."""
    a = np.asarray(coefficients, dtype=complex)
    j = np.arange(len(a) - 1)
    c = (j + 1) * a[1:]
    jj, kk = np.meshgrid(j, j, indexing="ij")
    weights = 1.0 / (jj + kk + 1) - 1.0 / (jj + kk + 2)
    terms = c[:, None] * np.conj(c)[None, :] * zeta ** (jj - kk) * weights
    return float(np.sum(terms).real)


def monomial_g_integral(n: int, p: float) -> float:
    """Mean of G(z^n)^p over the circle: (n / (2 (2n - 1)))^(p/2); z^n vanishes at 0."""
    if n == 0:
        return 1.0  # |f(0)|^p = 1 and G vanishes
    return (n / (2.0 * (2 * n - 1))) ** (p / 2.0)


# --------------------------------------------------------------------------
# Bloch seminorms
# --------------------------------------------------------------------------

def monomial_seminorm(n: int) -> float:
    """sup_r n r^(n-1) (1 - r^2), attained at r^2 = (n-1)/(n+1)."""
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    r = math.sqrt((n - 1) / (n + 1))
    return n * r ** (n - 1) * (1.0 - r * r)


def eta_seminorm_within(radius: float) -> float:
    """sup over |z| <= radius of (1 - |z|^2) |eta'(z)| = 3 sqrt(3)/2 t (1 - t^2),
    whose peak 1 lies at t = 1/sqrt(3)."""
    t = min(radius, 1.0 / math.sqrt(3.0))
    return LIP_CONSTANT * t * (1.0 - t * t)


def polynomial_functional_samples(h_coeffs, g_coeffs, z) -> np.ndarray:
    """(|h'(z)| + |g'(z)|) (1 - |z|^2) by numpy's own polynomial evaluation."""
    hd = np.polynomial.polynomial.polyder(np.asarray(h_coeffs, dtype=complex))
    gd = np.polynomial.polynomial.polyder(np.asarray(g_coeffs, dtype=complex))
    lam = np.abs(np.polynomial.polynomial.polyval(z, hd)) \
        + np.abs(np.polynomial.polynomial.polyval(z, gd))
    return lam * (1.0 - np.abs(z) ** 2)


def area_samples(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))


# --------------------------------------------------------------------------
# Composition operators: calibration verdict table
# --------------------------------------------------------------------------

# sup |phi| < 1 symbols and boundary-touching symbols.  Finite sampling cannot
# certify either side, so `inconclusive` is accepted everywhere.
CRITERION_EXPECTED = {"interior": "convergent", "boundary": "divergent"}
VERDICT_EXPECTED = {"interior": "vacuously-compact", "boundary": "unbounded"}


def _simpson(fn, a, b, n=20_000):
    x = np.linspace(a, b, n + 1)
    y = fn(x)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def half_identity_criterion(p: float) -> float:
    """Bloch-to-Hardy criterion value for phi(z) = z/2, classical weight.

    Radial symmetry makes the angular mean trivial:
    (int_0^1 (1/4) (1 - r) / (1 - r^2/4)^2 dr)^(p/2).
    """
    inner = _simpson(lambda r: 0.25 * (1.0 - r) / (1.0 - 0.25 * r * r) ** 2, 0.0, 1.0)
    return inner ** (p / 2.0)


def half_identity_sup_q(p: float) -> float:
    """sup_z (1/2)(1 - |z|^2) / (1 - |z|^2/4)^(1 + 1/p) for phi(z) = z/2."""
    t = np.linspace(0.0, 1.0, 200_001)
    return float(np.max(0.5 * (1.0 - t) / (1.0 - 0.25 * t) ** (1.0 + 1.0 / p)))


def probe_implied_constant(r: float, epsilon: float) -> float:
    """(1 - (3 sqrt(3)/2) r) epsilon: the bounded-below constant for a full match."""
    return (1.0 - LIP_CONSTANT * r) * epsilon


# --------------------------------------------------------------------------
# Geometry and the extremal profile
# --------------------------------------------------------------------------

def pseudo_hyperbolic(z: complex, w: complex) -> float:
    return abs(z - w) / abs(1.0 - w.conjugate() * z)


def profile(x: float, alpha: float) -> float:
    """sqrt(1+2a) ((1+2a)/(2a))^a x (1 - x^2)^a."""
    scale = math.sqrt(1.0 + 2.0 * alpha) * ((1.0 + 2.0 * alpha) / (2.0 * alpha)) ** alpha
    return scale * x * (1.0 - x * x) ** alpha


def profile_peak(alpha: float) -> float:
    return 1.0 / math.sqrt(1.0 + 2.0 * alpha)
