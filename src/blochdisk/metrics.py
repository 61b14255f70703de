"""Pseudo-hyperbolic and hyperbolic distances, and the disk automorphisms."""

from __future__ import annotations

import math

import numpy as np

from .core import Mobius, disk_point

__all__ = ["rho", "sigma", "mobius"]


def rho(z, w) -> float:
    """Pseudo-hyperbolic distance |(z - w) / (1 - conj(w) z)| in [0, 1).

    Symmetric, Moebius-invariant, and exactly 0 iff z == w bitwise.
    """
    z = disk_point(z)
    w = disk_point(w)
    if z == w:
        return 0.0
    return abs((z - w) / (1.0 - w.conjugate() * z))


def rho_array(z, w):
    """rho elementwise on broadcasting arrays.  Two buffers of the broadcast
    shape instead of four temporaries: on the probe's distance blocks, fresh
    allocations cost as much as the arithmetic."""
    num = z - w
    den = np.conjugate(w) * z
    np.subtract(1.0, den, out=den)
    num /= den
    return np.abs(num)


def sigma(z, w) -> float:
    """Hyperbolic distance arctanh(rho(z, w)).

    Computed as 0.5*log1p(2r/(1-r)) to keep accuracy as r -> 1.
    """
    r = rho(z, w)
    return 0.5 * math.log1p(2.0 * r / (1.0 - r))


def mobius(a) -> Mobius:
    """The automorphism phi_a(z) = (a - z)/(1 - conj(a) z); its own inverse."""
    return Mobius(disk_point(a))
