"""Closed-form solutions that only the tests compare the FEM against.

Each is an independent code path from the FEM modules (no shared assembly),
so agreement between the two is meaningful.  The closed forms the package
itself may use stay in serrinlab.analytic_oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from serrinlab.analytic_oracle import INV_2PI
from serrinlab.errors import ValidationError


@dataclass(frozen=True)
class RadialTwoPhaseSolution:
    """Concentric two-phase torsion solution on a disk of radius R.

    u(r) = (R^2 - r^2)/4                          for r0 <= r <= R,
    u(r) = (R^2 - r0^2)/4 + (r0^2 - r^2)/(4 s_c)  for 0 <= r < r0.

    Both u and the flux sigma(r) u'(r) = -r/2 are continuous at r0.
    """

    R: float
    r0: float
    sigma_c: float

    def __post_init__(self):
        if not (0.0 < self.r0 < self.R):
            raise ValidationError("radial solution: require 0 < r0 < R")
        if self.sigma_c <= 0:
            raise ValidationError("radial solution: require sigma_c > 0")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0) or np.any(r > self.R + 1e-14):
            raise ValidationError("radial solution: r outside [0, R]")
        outer = (self.R ** 2 - r ** 2) / 4.0
        inner = (self.R ** 2 - self.r0 ** 2) / 4.0 + (self.r0 ** 2 - r ** 2) / (4.0 * self.sigma_c)
        return np.where(r >= self.r0, outer, inner)

    def flux(self, r):
        """sigma(r) * u'(r) = -r/2 (continuous across the interface)."""
        r = np.asarray(r, dtype=float)
        return -r / 2.0

    def derivative(self, r):
        """u'(r), with the transmission jump at r0."""
        r = np.asarray(r, dtype=float)
        sigma = np.where(r < self.r0, self.sigma_c, 1.0)
        return -r / (2.0 * sigma)


def concentric_two_phase(R, r0, sigma_c, r):
    """u(r) for the concentric two-phase disk configuration."""
    return float(RadialTwoPhaseSolution(R, r0, sigma_c)(r))


def ellipse_torsion(a, b, x, y):
    """Torsion function of the ellipse: v = (1 - x^2/a^2 - y^2/b^2) a^2 b^2 / (2(a^2+b^2))."""
    s = x * x / (a * a) + y * y / (b * b)
    if s > 1.0 + 1e-12:
        raise ValidationError("ellipse_torsion: point outside the ellipse")
    return (1.0 - s) * a * a * b * b / (2.0 * (a * a + b * b))


def disk_green(x, y):
    """Dirichlet Green's function of the unit disk by the image charge.

    G(x,y) = (1/2pi) [ ln(|y| |x - y*|) - ln|x - y| ],  y* = y/|y|^2,
    evaluated through the overflow-free identity |y||x - y*| = | |y| x - yhat |.
    The limit y -> 0 gives G = (1/2pi) ln(1/|x|).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ay = math.hypot(y[0], y[1])
    if ay >= 1.0:
        raise ValidationError("disk_green: y must lie strictly inside the unit disk")
    ax = math.hypot(x[0], x[1])
    if ax > 1.0 + 1e-12:
        raise ValidationError("disk_green: x must lie in the closed unit disk")
    d = x - y
    ad = math.hypot(d[0], d[1])
    if ad == 0.0:
        raise ValidationError("disk_green: x == y hits the singularity")
    if ay == 0.0:
        return float(-INV_2PI * math.log(ax))
    # scale before normalising: for subnormal y, y / ay is not a unit vector
    ys = y / np.abs(y).max()
    yhat = ys / math.hypot(ys[0], ys[1])
    image = ay * x - yhat
    return float(INV_2PI * (math.log(math.hypot(image[0], image[1])) - math.log(ad)))
