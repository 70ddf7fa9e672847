"""Parametric domains, inclusions, and exact geometric quantities.

A domain is one of three analytic closed curves (disk, ellipse, star-shaped
cosine perturbation), all star-shaped about their center.  The analytic curve
is authoritative; polygons are only quadrature/visualization carriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from .errors import ValidationError

TWO_PI = 2.0 * math.pi

# foot-point Newton iteration: parameter step at which it stops, and the cap
# (bisection alone takes the 4 pi/256 bracket below 1e-14 in 43 halvings)
_FOOT_STEP_TOL = 1e-14
_FOOT_MAX_ITER = 60

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_min_vec(f, a, b, tol=1e-10):
    """Vectorized golden-section minimization of f over per-row brackets [a, b].

    f maps an array of parameters to an array of values; every row shrinks by
    the golden ratio each iteration (two evaluations per step).
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    width = float(np.max(b - a))
    if width <= tol:
        return (a + b) / 2.0
    n_iter = int(math.ceil(math.log(tol / width) / math.log(_INVPHI)))
    for _ in range(n_iter):
        c = a + _INVPHI2 * (b - a)
        d = a + _INVPHI * (b - a)
        take_left = f(c) < f(d)
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
    return (a + b) / 2.0


@dataclass(frozen=True)
class DomainSpec:
    """Analytic description of the outer domain.

    kind "disk": radius R about center.
    kind "ellipse": semi-axes (a, b), a >= b.
    kind "star": polar graph r(t) = r0*(1 + eps*cos(k t)).
    """

    kind: str
    center: tuple = (0.0, 0.0)
    radius: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    r0: Optional[float] = None
    eps: Optional[float] = None
    k: Optional[int] = None
    boundary_samples: int = 256

    def __post_init__(self):
        if self.kind == "disk":
            if self.radius is None or self.radius <= 0:
                raise ValidationError("domain.radius: must be positive")
        elif self.kind == "ellipse":
            if self.a is None or self.b is None or self.b <= 0 or self.a < self.b:
                raise ValidationError("domain.a/b: require a >= b > 0")
        elif self.kind == "star":
            if self.r0 is None or self.r0 <= 0:
                raise ValidationError("domain.r0: must be positive")
            if self.eps is None or not (0.0 <= self.eps < 1.0):
                raise ValidationError("domain.eps: require 0 <= eps < 1")
            if self.k is None or int(self.k) < 1:
                raise ValidationError("domain.k: require integer k >= 1")
        else:
            raise ValidationError(f"domain.kind: unknown kind {self.kind!r}")
        if self.boundary_samples < 64 or self.boundary_samples % 2 != 0:
            raise ValidationError("domain.boundary_samples: must be >= 64 and even")

    # -- parametric curve ---------------------------------------------------

    def point(self, theta):
        """Boundary point at parameter theta (vectorized)."""
        theta = np.asarray(theta, dtype=float)
        cx, cy = self.center
        if self.kind == "disk":
            r = self.radius
            return np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=-1)
        if self.kind == "ellipse":
            return np.stack([cx + self.a * np.cos(theta), cy + self.b * np.sin(theta)], axis=-1)
        r = self.r0 * (1.0 + self.eps * np.cos(self.k * theta))
        return np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=-1)

    def velocity(self, theta):
        """dp/dtheta at parameter theta (vectorized)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "disk":
            r = self.radius
            return np.stack([-r * np.sin(theta), r * np.cos(theta)], axis=-1)
        if self.kind == "ellipse":
            return np.stack([-self.a * np.sin(theta), self.b * np.cos(theta)], axis=-1)
        k, eps, r0 = self.k, self.eps, self.r0
        r = r0 * (1.0 + eps * np.cos(k * theta))
        dr = -r0 * eps * k * np.sin(k * theta)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([dr * c - r * s, dr * s + r * c], axis=-1)

    def acceleration(self, theta):
        """d^2p/dtheta^2 at parameter theta (vectorized)."""
        theta = np.asarray(theta, dtype=float)
        if self.kind == "disk":
            r = self.radius
            return np.stack([-r * np.cos(theta), -r * np.sin(theta)], axis=-1)
        if self.kind == "ellipse":
            return np.stack([-self.a * np.cos(theta), -self.b * np.sin(theta)], axis=-1)
        k, eps, r0 = self.k, self.eps, self.r0
        r = r0 * (1.0 + eps * np.cos(k * theta))
        dr = -r0 * eps * k * np.sin(k * theta)
        ddr = -r0 * eps * k * k * np.cos(k * theta)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([(ddr - r) * c - 2.0 * dr * s,
                         (ddr - r) * s + 2.0 * dr * c], axis=-1)

    def radial(self, phi):
        """Polar-graph radius of the boundary at polar angle phi about center."""
        phi = np.asarray(phi, dtype=float)
        if self.kind == "disk":
            return np.full_like(phi, self.radius)
        if self.kind == "ellipse":
            return self.a * self.b / np.hypot(self.b * np.cos(phi), self.a * np.sin(phi))
        return self.r0 * (1.0 + self.eps * np.cos(self.k * phi))

    def signed_radial_margin(self, pts):
        """r(phi) - |p - center|: positive strictly inside, 0 on the boundary.

        Exact sign test for all three kinds (every kind is a polar graph).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - np.asarray(self.center)
        rho = np.hypot(d[:, 0], d[:, 1])
        phi = np.arctan2(d[:, 1], d[:, 0])
        return self.radial(phi) - rho


@dataclass(frozen=True)
class InclusionSpec:
    """Inclusion D (piecewise-constant conductivity region), or none."""

    kind: str
    center: tuple = (0.0, 0.0)
    radius: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind == "none":
            return
        if self.kind == "disk":
            if self.radius is None or self.radius <= 0:
                raise ValidationError("inclusion.radius: must be positive")
        elif self.kind == "ellipse":
            if self.a is None or self.b is None or self.b <= 0 or self.a < self.b:
                raise ValidationError("inclusion.a/b: require a >= b > 0")
        else:
            raise ValidationError(f"inclusion.kind: unknown kind {self.kind!r}")

    @property
    def is_none(self):
        return self.kind == "none"

    def to_domain(self, boundary_samples=256):
        """View the inclusion boundary as a DomainSpec (shares curve machinery)."""
        if self.is_none:
            raise ValidationError("inclusion.kind: 'none' has no boundary curve")
        if self.kind == "disk":
            return DomainSpec("disk", center=self.center, radius=self.radius,
                              boundary_samples=boundary_samples)
        return DomainSpec("ellipse", center=self.center, a=self.a, b=self.b,
                          boundary_samples=boundary_samples)

    def area(self):
        if self.is_none:
            return 0.0
        if self.kind == "disk":
            return math.pi * self.radius ** 2
        return math.pi * self.a * self.b


@dataclass
class PolygonalBoundary:
    """Closed CCW polygon sampling a boundary curve.

    Carries per-vertex arc-length weights and per-edge outward unit normals.
    When built from a spec, vertex curve parameters are kept so geometric
    quantities can be refined on the analytic curve.
    """

    vertices: np.ndarray
    params: Optional[np.ndarray] = None
    spec: Optional[DomainSpec] = None
    edge_lengths: np.ndarray = field(init=False)
    vertex_weights: np.ndarray = field(init=False)
    edge_normals: np.ndarray = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValidationError("polygon: need at least 3 planar vertices")
        self.vertices = v
        edges = np.roll(v, -1, axis=0) - v
        ell = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(ell <= 0):
            raise ValidationError("polygon: zero-length edge")
        if _shoelace(v) <= 0:
            raise ValidationError("polygon: orientation must be counterclockwise")
        # simplicity via the star-shaped test about the centroid: polar angles
        # advance monotonically exactly once around
        c = v.mean(axis=0)
        ang = np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])
        turns = np.diff(np.unwrap(np.concatenate([ang, ang[:1]])))
        if np.any(turns <= 0) or not math.isclose(turns.sum(), TWO_PI, rel_tol=1e-9):
            raise ValidationError("polygon: not simple/star-shaped about its centroid")
        self.edge_lengths = ell
        self.vertex_weights = 0.5 * (ell + np.roll(ell, 1))
        self.edge_normals = np.stack([edges[:, 1], -edges[:, 0]], axis=-1) / ell[:, None]

    def __len__(self):
        return len(self.vertices)


def polygonize(spec: DomainSpec, n: int) -> PolygonalBoundary:
    """Sample the boundary at n equispaced parameter values (CCW).

    Production sampling uses spec.boundary_samples (>= 64, even); small n is
    allowed here for coarse geometric checks.
    """
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValidationError("polygonize.n: need an integer >= 3")
    params = TWO_PI * np.arange(n) / n
    return PolygonalBoundary(spec.point(params), params=params, spec=spec)


def area_perimeter(poly: PolygonalBoundary):
    """Shoelace area and summed edge length of the polygon."""
    return _shoelace(poly.vertices), float(poly.edge_lengths.sum())


def _shoelace(v):
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def serrin_constant(area: float, perimeter: float) -> float:
    """c = -area/perimeter, the only value compatible with the overdetermined flux."""
    if area <= 0 or perimeter <= 0:
        raise ValidationError("serrin_constant: area and perimeter must be positive")
    return -area / perimeter


def exact_area(spec: DomainSpec) -> float:
    """Area enclosed by the analytic curve (closed forms; no quadrature needed)."""
    if spec.kind == "disk":
        return math.pi * spec.radius ** 2
    if spec.kind == "ellipse":
        return math.pi * spec.a * spec.b
    # 0.5*Int r(t)^2 dt with r = r0(1+eps cos kt), integer k
    return math.pi * spec.r0 ** 2 * (1.0 + spec.eps ** 2 / 2.0)


def exact_perimeter(spec: DomainSpec) -> float:
    """Arc length of the analytic curve by adaptive quadrature (tol 1e-10)."""
    if spec.kind == "disk":
        return TWO_PI * spec.radius

    def speed(t):
        v = spec.velocity(t)
        return math.hypot(v[0], v[1])

    val, _ = quad(speed, 0.0, TWO_PI, epsabs=1e-10, epsrel=1e-10, limit=400)
    return val


def diameter(spec: DomainSpec) -> float:
    """Diameter d of the domain (exact for disk/ellipse, sampled+polished for star)."""
    if spec.kind == "disk":
        return 2.0 * spec.radius
    if spec.kind == "ellipse":
        return 2.0 * spec.a
    n = max(512, spec.boundary_samples)
    t = TWO_PI * np.arange(n) / n
    p = spec.point(t)
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    # coordinate-descent polish on the parametric pair
    ti, tj = t[i], t[j]
    dt = TWO_PI / n
    for _ in range(3):
        tj = float(_golden_min_vec(
            lambda s: -((spec.point(s) - spec.point(np.full_like(s, ti))) ** 2).sum(axis=-1),
            np.array([tj - dt]), np.array([tj + dt]))[0])
        ti = float(_golden_min_vec(
            lambda s: -((spec.point(s) - spec.point(np.full_like(s, tj))) ** 2).sum(axis=-1),
            np.array([ti - dt]), np.array([ti + dt]))[0])
    return float(np.hypot(*(spec.point(ti) - spec.point(tj))))


def curvature_max(spec: DomainSpec) -> float:
    """Max boundary curvature; reported as a proxy for boundary-chart regularity."""
    if spec.kind == "disk":
        return 1.0 / spec.radius
    if spec.kind == "ellipse":
        return spec.a / spec.b ** 2
    t = TWO_PI * np.arange(4096) / 4096
    v, acc = spec.velocity(t), spec.acceleration(t)
    cross = v[:, 0] * acc[:, 1] - v[:, 1] * acc[:, 0]
    return float((np.abs(cross) / np.hypot(v[:, 0], v[:, 1]) ** 3).max())


def distance_to_boundary(spec: DomainSpec, pts) -> np.ndarray:
    """Distance from points to the analytic boundary curve.

    The nearest of n = max(boundary_samples, 256) equispaced curve samples
    (one kd-tree query) brackets each foot point in t_j +- 2 pi/n; a
    safeguarded Newton iteration on g(theta) = (p(theta) - x) . p'(theta)
    then polishes all points at once.  Each step shrinks the bracket by the
    sign of g and falls back to the bracket midpoint when g' <= 0 or the
    Newton step leaves the bracket.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = max(spec.boundary_samples, 256)
    t = TWO_PI * np.arange(n) / n
    _, jstar = cKDTree(spec.point(t)).query(pts)
    theta = t[jstar]
    lo, hi = theta - TWO_PI / n, theta + TWO_PI / n
    for _ in range(_FOOT_MAX_ITER):
        diff = spec.point(theta) - pts
        vel = spec.velocity(theta)
        g = (diff * vel).sum(axis=-1)
        dg = (vel * vel).sum(axis=-1) + (diff * spec.acceleration(theta)).sum(axis=-1)
        hi = np.where(g > 0, theta, hi)
        lo = np.where(g < 0, theta, lo)
        # a step landing exactly on a bracket end is accepted, or converged
        # points would fall back to bisection
        newton = theta - g / np.where(dg > 0, dg, 1.0)
        ok = (dg > 0) & (newton >= lo) & (newton <= hi)
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        step = float(np.max(np.abs(nxt - theta), initial=0.0))
        theta = nxt
        if step < _FOOT_STEP_TOL:
            break
    return np.sqrt(((spec.point(theta) - pts) ** 2).sum(axis=-1))


def rho_bounds(poly: PolygonalBoundary, z) -> tuple:
    """(rho_i, rho_e): radii of the largest inscribed / smallest circumscribed
    balls centered at z, via dense sampling refined on the parametric curve."""
    z = np.asarray(z, dtype=float)
    if poly.spec is not None:
        if poly.spec.signed_radial_margin(z[None, :])[0] <= 0:
            raise ValidationError("rho_bounds.z: must lie strictly inside the domain")
        spec = poly.spec
        t = poly.params
        d2 = ((spec.point(t) - z) ** 2).sum(axis=-1)
        dt = TWO_PI / len(t)

        def f(theta):
            return ((spec.point(theta) - z) ** 2).sum(axis=-1)

        ji = int(np.argmin(d2))
        ti = _golden_min_vec(f, np.array([t[ji] - dt]), np.array([t[ji] + dt]))
        je = int(np.argmax(d2))
        te = _golden_min_vec(lambda s: -f(s), np.array([t[je] - dt]), np.array([t[je] + dt]))
        rho_i = math.sqrt(float(f(ti)[0]))
        rho_e = math.sqrt(float(f(te)[0]))
    else:
        d = np.hypot(*(poly.vertices - z).T)
        if _winding_inside(poly.vertices, z) is False:
            raise ValidationError("rho_bounds.z: must lie strictly inside the polygon")
        rho_i, rho_e = float(d.min()), float(d.max())
    return rho_i, rho_e


def _winding_inside(vertices, z):
    ang = np.arctan2(vertices[:, 1] - z[1], vertices[:, 0] - z[0])
    turns = np.diff(np.unwrap(np.concatenate([ang, ang[:1]])))
    return math.isclose(float(turns.sum()), TWO_PI, rel_tol=1e-6)


class Margin(NamedTuple):
    margin: float
    M: float


def inclusion_margin(domain: DomainSpec, inclusion: InclusionSpec) -> Margin:
    """dist(D, boundary of Omega) and M = max(1, 1/margin).

    The inclusion curve is sampled at 256 parameters; distance_to_boundary
    gives each sample's distance to the boundary of Omega, and a golden-section
    search over the inclusion parameter around the nearest sample refines the
    curve-to-curve minimum.  Rejects inclusions touching or exiting Omega.
    """
    if inclusion.is_none:
        return Margin(math.inf, 1.0)
    curve_d = inclusion.to_domain()
    n = 256
    s = TWO_PI * np.arange(n) / n
    pts = curve_d.point(s)
    if np.any(domain.signed_radial_margin(pts) <= 0):
        raise ValidationError("inclusion: D touches or exits the domain")
    dists = distance_to_boundary(domain, pts)
    istar = int(np.argmin(dists))
    ds = TWO_PI / n

    def g(sv):
        return distance_to_boundary(domain, curve_d.point(sv))

    sbest = _golden_min_vec(g, np.array([s[istar] - ds]), np.array([s[istar] + ds]))
    margin = float(g(sbest)[0])
    if margin <= 0:
        raise ValidationError("inclusion: D touches or exits the domain")
    return Margin(margin, max(1.0, 1.0 / margin))
