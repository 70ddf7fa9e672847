"""Closed-form reference solutions used as ground truth.

Every function here is an independent code path from the FEM modules (no
shared assembly), so agreement between the two is meaningful.  The closed
forms that only the tests compare against are in tests/closed_forms.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

INV_2PI = 1.0 / (2.0 * math.pi)


def ellipse_torsion_gradient(a, b, x, y):
    kappa = a * a * b * b / (2.0 * (a * a + b * b))
    return np.array([-2.0 * kappa * x / (a * a), -2.0 * kappa * y / (b * b)])


def disk_green_mixed(x, y):
    """Exact mixed derivative matrix M_ij = d^2 G / dx_i dy_j for the unit disk."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ay2 = float(y @ y)
    if ay2 >= 1.0:
        raise ValidationError("disk_green_mixed: y must lie strictly inside the unit disk")
    if ay2 == 0.0:
        raise ValidationError("disk_green_mixed: y = 0 not supported (use a small offset)")
    d = x - y
    ad2 = float(d @ d)
    if ad2 == 0.0:
        raise ValidationError("disk_green_mixed: x == y hits the singularity")
    eye = np.eye(2)
    # free-space part: d/dy of grad_x[-(1/2pi) ln|x-y|]
    direct = INV_2PI * (eye / ad2 - 2.0 * np.outer(d, d) / ad2 ** 2)
    # image part: grad_x ln|x - y*| composed with dy*/dy
    ystar = y / ay2
    e = x - ystar
    ae2 = float(e @ e)
    dystar = (eye - 2.0 * np.outer(y, y) / ay2) / ay2
    image = -INV_2PI * (eye / ae2 - 2.0 * np.outer(e, e) / ae2 ** 2) @ dystar
    return direct + image
