"""Parametric domains and exact geometric quantities.

A DomainSpec is one of three analytic closed curves (disk, ellipse, star-shaped
cosine perturbation), all star-shaped about their center; it bounds the domain
Omega and the inclusion D, if any (None when there is none).  The analytic
curve is authoritative: distances, rho_i/rho_e, the diameter and the inclusion
margin all run one foot-point Newton iteration on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError

TWO_PI = 2.0 * math.pi

# safeguarded Newton iteration: step at which it stops, and the cap
# (bisection alone takes the 4 pi/256 bracket below 1e-14 in 43 halvings)
_FOOT_STEP_TOL = 1e-14
_FOOT_MAX_ITER = 60
# curve samples that seed the foot-point searches; the star diameter takes more
_BOUNDARY_SAMPLES = 256
_DIAMETER_SAMPLES = 512
# ellipse perimeter: the AGM iterates stop once their gap is below this share
_AGM_GAP = 1e-15
# star perimeter: trapezoid nodes per period, first and cap, and the relative
# agreement of two successive sums at which the finer one is taken
_STAR_NODES_MIN = 16
_STAR_NODES_MAX = 1 << 16
_STAR_AGREEMENT = 1e-14


def _newton_root(fn, x, half_width):
    """Root of g in x +- half_width (vectorized); fn(x) = (g, g'), g rising.

    Each step shrinks the bracket by the sign of g and falls back to the
    bracket midpoint when g' <= 0 or the Newton step leaves the bracket.
    """
    lo, hi = x - half_width, x + half_width
    for _ in range(_FOOT_MAX_ITER):
        g, dg = fn(x)
        hi = np.where(g > 0, x, hi)
        lo = np.where(g < 0, x, lo)
        # a step landing exactly on a bracket end is accepted, or converged
        # points would fall back to bisection
        newton = x - g / np.where(dg > 0, dg, 1.0)
        ok = (dg > 0) & (newton >= lo) & (newton <= hi)
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        step = float(np.max(np.abs(nxt - x), initial=0.0))
        x = nxt
        if step < _FOOT_STEP_TOL:
            break
    return x


def _foot_point(spec, pts, theta, half_width, sign=1.0):
    """Parameter in theta +- half_width of the curve point nearest to
    (sign +1) or farthest from (sign -1) pts: Newton on sign * g, where
    g(theta) = (p(theta) - x) . p'(theta) rises through a nearest point."""
    def g_dg(theta):
        diff = spec.point(theta) - pts
        vel = spec.velocity(theta)
        g = (diff * vel).sum(axis=-1)
        dg = (vel * vel).sum(axis=-1) + (diff * spec.acceleration(theta)).sum(axis=-1)
        return sign * g, sign * dg

    return _newton_root(g_dg, theta, half_width)


@dataclass(frozen=True)
class DomainSpec:
    """Analytic closed curve bounding the domain Omega or the inclusion D.

    kind "disk": radius R about center.
    kind "ellipse": semi-axes (a, b), a >= b.
    kind "star": polar graph r(t) = r0*(1 + eps*cos(k t)).
    Invalid parameters raise ValidationError naming the field (radius, a/b, ...).
    """

    kind: str
    center: tuple = (0.0, 0.0)
    radius: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    r0: Optional[float] = None
    eps: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind == "disk":
            if self.radius is None or self.radius <= 0:
                raise ValidationError("radius: must be positive")
        elif self.kind == "ellipse":
            if self.a is None or self.b is None or self.b <= 0 or self.a < self.b:
                raise ValidationError("a/b: require a >= b > 0")
        elif self.kind == "star":
            if self.r0 is None or self.r0 <= 0:
                raise ValidationError("r0: must be positive")
            if self.eps is None or not (0.0 <= self.eps < 1.0):
                raise ValidationError("eps: require 0 <= eps < 1")
            if self.k is None or int(self.k) < 1:
                raise ValidationError("k: require integer k >= 1")
        else:
            raise ValidationError(f"kind: unknown kind {self.kind!r}")

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


# D is a DomainSpec too; this old name stays only because perfbench/ still
# spells it, and goes with the next change to the benchmark
InclusionSpec = DomainSpec


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
    """Arc length of the analytic curve: closed form for a disk, the
    arithmetic-geometric mean for an ellipse, the periodic trapezoid rule for
    a star."""
    if spec.kind == "disk":
        return TWO_PI * spec.radius
    if spec.kind == "ellipse":
        return _ellipse_perimeter(spec.a, spec.b)
    return _star_perimeter(spec)


def _ellipse_perimeter(a, b):
    """Gauss's AGM form, quadratically convergent: P = 2 pi S / M(a, b) with
    S = (a^2 + b^2)/2 - sum_{n>=1} 2^(n-1) c_n^2, c_{n+1} = (a_n - b_n)/2 over
    the AGM iterates a_n, b_n (Borwein & Borwein, Pi and the AGM, 1987).
    Within about 1e-15 relative of the exact value; a circle gives 2 pi a to
    1 ulp."""
    x, y = a, b
    total, weight = 0.5 * (a * a + b * b), 1.0
    while x - y > _AGM_GAP * x:
        x, y, c = 0.5 * (x + y), math.sqrt(x * y), 0.5 * (x - y)
        total -= weight * c * c
        weight *= 2.0
    return TWO_PI * (total / (0.5 * (x + y)))


def _star_perimeter(spec):
    """k times the arc length of one period 2 pi/k of |p'(t)|, by the
    trapezoid rule, which converges exponentially on a smooth periodic
    integrand (Trefethen & Weideman, SIAM Review 56, 2014).  The node count
    doubles from _STAR_NODES_MIN until two sums agree to _STAR_AGREEMENT;
    a star that needs more than _STAR_NODES_MAX nodes (eps near 1 with large
    k) is rejected."""
    def trapezoid(m):
        v = spec.velocity((TWO_PI / spec.k) * np.arange(m) / m)
        return TWO_PI * (math.fsum(np.hypot(v[:, 0], v[:, 1])) / m)

    m, total = _STAR_NODES_MIN, trapezoid(_STAR_NODES_MIN)
    while m < _STAR_NODES_MAX:
        m *= 2
        coarse, total = total, trapezoid(m)
        if abs(total - coarse) <= _STAR_AGREEMENT * total:
            return total
    raise ValidationError(f"domain.eps: star perimeter not resolved by {m} "
                          f"trapezoid nodes per period")


def diameter(spec: DomainSpec) -> float:
    """Diameter d of the domain (exact for disk/ellipse).  For a star, each
    end of the farthest sample pair in turn moves to the point farthest from
    the other (within one spacing) until the pair stops moving."""
    if spec.kind == "disk":
        return 2.0 * spec.radius
    if spec.kind == "ellipse":
        return 2.0 * spec.a
    n = _DIAMETER_SAMPLES
    t = TWO_PI * np.arange(n) / n
    p = spec.point(t)
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    ti, tj = t[i], t[j]
    for _ in range(_FOOT_MAX_ITER):
        prev = (ti, tj)
        tj = _foot_point(spec, spec.point(ti), tj, TWO_PI / n, sign=-1.0)
        ti = _foot_point(spec, spec.point(tj), ti, TWO_PI / n, sign=-1.0)
        if max(abs(ti - prev[0]), abs(tj - prev[1])) < _FOOT_STEP_TOL:
            break
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


def _nearest_foot(spec: DomainSpec, pts) -> np.ndarray:
    """Foot-point parameters of pts: _foot_point in t_j +- 2 pi/n from the
    nearest of n = _BOUNDARY_SAMPLES samples (kd-tree), at distance
    d_s, and from every sample beyond one spacing of it within sqrt(d_s^2 +
    (l_max/2)^2), l_max the longest sample chord (near the medial axis the
    nearest foot may lie on another branch); the nearest foot wins."""
    n = _BOUNDARY_SAMPLES
    t = TWO_PI * np.arange(n) / n
    samples = spec.point(t)
    tree = cKDTree(samples)
    dist, js = tree.query(pts, k=4)
    theta = _foot_point(spec, pts, t[js[:, 0]], TWO_PI / n)
    radius = np.hypot(dist[:, 0], np.hypot(*(np.roll(samples, -1, axis=0) - samples).T).max() / 2)
    # the samples in each ball: among the 4 nearest, unless all 4 lie in it
    full = dist[:, 3] <= radius
    owner, col = np.nonzero((dist[:, 1:] <= radius[:, None]) & ~full[:, None])
    hits = tree.query_ball_point(pts[full], radius[full])
    owner = np.concatenate([owner, np.repeat(np.flatnonzero(full), [len(h) for h in hits])])
    j = np.concatenate([js[owner[:len(col)], col + 1], *map(np.asarray, hits)]).astype(np.int64)
    far = (j - js[owner, 0] + 1) % n > 2
    who = np.concatenate([np.arange(len(pts)), owner[far]])
    cand = np.concatenate([theta, _foot_point(spec, pts[owner[far]], t[j[far]], TWO_PI / n)])
    # nearest foot per point; a stable sort keeps the nearest sample's on ties
    order = np.lexsort((((spec.point(cand) - pts[who]) ** 2).sum(axis=-1), who))
    return cand[order[np.unique(who[order], return_index=True)[1]]]


def distance_to_boundary(spec: DomainSpec, pts) -> np.ndarray:
    """Distance from points to the analytic boundary curve, at the foot
    points of _nearest_foot (all points at once)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    theta = _nearest_foot(spec, pts)
    return np.sqrt(((spec.point(theta) - pts) ** 2).sum(axis=-1))


def rho_bounds(spec: DomainSpec, z) -> tuple:
    """(rho_i, rho_e): radii of the largest inscribed / smallest circumscribed
    balls centered at z.  rho_i = distance_to_boundary(spec, z); rho_e runs
    _foot_point in farthest mode from the farthest sample."""
    z = np.asarray(z, dtype=float)
    if spec.signed_radial_margin(z[None, :])[0] <= 0:
        raise ValidationError("rho_bounds.z: must lie strictly inside the domain")
    n = _BOUNDARY_SAMPLES
    t = TWO_PI * np.arange(n) / n
    je = int(np.argmax(((spec.point(t) - z) ** 2).sum(axis=-1)))
    te = _foot_point(spec, z, t[je], TWO_PI / n, sign=-1.0)
    rho_e = math.sqrt(float(((spec.point(te) - z) ** 2).sum()))
    return float(distance_to_boundary(spec, z)[0]), rho_e


class Margin(NamedTuple):
    margin: float
    M: float


def inclusion_margin(domain: DomainSpec, inclusion: DomainSpec) -> Margin:
    """dist(D, boundary of Omega) and M = max(1, 1/margin).

    A disk's margin is distance_to_boundary(Omega, center) - radius.  Any
    other curve q(s) runs Newton from the nearest of 256 samples (+- one spacing)
    on h(s) = (q - p(theta(s))) . q', theta(s) the foot point of q(s); the
    foot-point condition gives h' = |q'|^2 + (q - p) . q''
    - (q' . p')^2 / (|p'|^2 - (q - p) . p'').  Rejects D touching or exiting Omega.
    """
    n = 256
    s = TWO_PI * np.arange(n) / n
    pts = inclusion.point(s)
    if np.any(domain.signed_radial_margin(pts) <= 0):
        raise ValidationError("inclusion: D touches or exits the domain")
    if inclusion.kind == "disk":
        margin = float(distance_to_boundary(domain, inclusion.center)[0]) - inclusion.radius
    else:
        def h_dh(sv):
            q, dq = inclusion.point(sv), inclusion.velocity(sv)
            theta = _nearest_foot(domain, q)
            diff = q - domain.point(theta)
            dp = domain.velocity(theta)
            # theta'(s) = (q' . p') / foot, from the foot-point condition
            foot = (dp * dp).sum(axis=-1) - (diff * domain.acceleration(theta)).sum(axis=-1)
            dh = ((dq * dq).sum(axis=-1) + (diff * inclusion.acceleration(sv)).sum(axis=-1)
                  - (dq * dp).sum(axis=-1) ** 2 / foot)
            return (diff * dq).sum(axis=-1), dh

        istar = int(np.argmin(distance_to_boundary(domain, pts)))
        sbest = _newton_root(h_dh, s[istar:istar + 1], TWO_PI / n)
        margin = float(distance_to_boundary(domain, inclusion.point(sbest))[0])
    if margin <= 0:
        raise ValidationError("inclusion: D touches or exits the domain")
    return Margin(margin, max(1.0, 1.0 / margin))
