import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from serrinlab import geometry
from serrinlab.errors import ValidationError
from serrinlab.geometry import (
    TWO_PI,
    DomainSpec,
    curvature_max,
    diameter,
    distance_to_boundary,
    exact_area,
    exact_perimeter,
    inclusion_margin,
    rho_bounds,
    serrin_constant,
)


def _inscribed(spec, n):
    """Shoelace area and perimeter of the curve sampled at n equispaced parameters."""
    x, y = spec.point(TWO_PI * np.arange(n) / n).T
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y)), float(np.hypot(xn - x, yn - y).sum())


class TestPolygonize:
    def test_star_eps0_equals_disk(self):
        t = TWO_PI * np.arange(256) / 256
        star = DomainSpec("star", r0=1.0, eps=0.0, k=5).point(t)
        disk = DomainSpec("disk", radius=1.0).point(t)
        np.testing.assert_allclose(star, disk, atol=1e-15)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValidationError):
            DomainSpec("disk", radius=-1.0)
        with pytest.raises(ValidationError):
            DomainSpec("star", r0=1.0, eps=1.0, k=3)


class TestAreaPerimeter:
    def test_ellipse_against_quadrature(self):
        # oracle: dense trapezoid quadrature of the arc-length integrand
        t = np.linspace(0, 2 * math.pi, 200001)
        speed = np.hypot(1.2 * np.sin(t), np.cos(t))
        perim_oracle = np.trapezoid(speed, t)
        assert exact_perimeter(DomainSpec("ellipse", a=1.2, b=1.0)) == pytest.approx(
            perim_oracle, abs=1e-8)

    def test_second_order_convergence(self):
        # inscribed-polygon area and perimeter errors drop by ~4x when n doubles
        for spec in (DomainSpec("disk", radius=1.0),
                     DomainSpec("ellipse", a=1.2, b=1.0),
                     DomainSpec("star", r0=1.0, eps=0.05, k=3)):
            area_exact, perim_exact = exact_area(spec), exact_perimeter(spec)
            a_n, p_n = _inscribed(spec, 256)
            a_2n, p_2n = _inscribed(spec, 512)
            assert 3.5 <= (area_exact - a_n) / (area_exact - a_2n) <= 4.5
            assert 3.5 <= (perim_exact - p_n) / (perim_exact - p_2n) <= 4.5

    @pytest.mark.parametrize("a,b", [(1.2, 1.0), (1.5, 1.0), (4.0, 1.0), (1.0, 1.0),
                                     (0.4, 0.3)])
    def test_ellipse_against_elliptic_integral(self, a, b):
        # oracle: 4 a E(m), m = 1 - b^2/a^2, at 30 digits
        with mp.workdps(30):
            oracle = 4 * mp.mpf(a) * mp.ellipe(1 - mp.mpf(b) ** 2 / mp.mpf(a) ** 2)
            perim = exact_perimeter(DomainSpec("ellipse", a=a, b=b))
            assert abs(perim - oracle) <= 1e-15 * oracle

    @pytest.mark.parametrize("a", [0.3, 1.0, 1.7, 2.5, 1e-3, 123.456])
    def test_circular_ellipse_is_disk(self, a):
        disk = exact_perimeter(DomainSpec("disk", radius=a))
        assert abs(exact_perimeter(DomainSpec("ellipse", a=a, b=a)) - disk) <= math.ulp(disk)

    @pytest.mark.parametrize("eps,k", [(0.1, 3), (0.2, 5), (0.3, 6), (0.9, 6), (0.0, 4)])
    def test_star_against_periodic_quadrature(self, eps, k):
        # oracle: arc length at 30 digits, 8 subintervals per period 2 pi/k
        with mp.workdps(30):
            def speed(t):
                r, dr = 1 + eps * mp.cos(k * t), -eps * k * mp.sin(k * t)
                return mp.sqrt(r * r + dr * dr)

            oracle = k * mp.quad(speed, mp.linspace(0, 2 * mp.pi / k, 9))
            perim = exact_perimeter(DomainSpec("star", r0=1.0, eps=eps, k=k))
            assert abs(perim - oracle) <= 1e-15 * oracle

    def test_unresolved_star_rejected(self):
        with pytest.raises(ValidationError, match="domain.eps: star perimeter"):
            exact_perimeter(DomainSpec("star", r0=1.0, eps=0.999, k=50))


class TestSerrinConstant:
    def test_unit_disk(self):
        assert serrin_constant(math.pi, 2 * math.pi) == pytest.approx(-0.5)

    def test_disk_radius2(self):
        assert serrin_constant(4 * math.pi, 4 * math.pi) == pytest.approx(-1.0)

    def test_ellipse(self):
        spec = DomainSpec("ellipse", a=1.2, b=1.0)
        c = serrin_constant(exact_area(spec), exact_perimeter(spec))
        assert c == pytest.approx(-0.54433, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            serrin_constant(0.0, 1.0)
        with pytest.raises(ValidationError):
            serrin_constant(1.0, -2.0)

    @given(lam=st.floats(min_value=0.1, max_value=10.0,
                         allow_nan=False, allow_infinity=False))
    def test_scale_covariance(self, lam):
        # scaling the domain by lam multiplies c by lam
        for area, perim in ((math.pi, 2 * math.pi), (math.pi * 1.2, 6.92579)):
            c = serrin_constant(area, perim)
            c_scaled = serrin_constant(lam ** 2 * area, lam * perim)
            assert c_scaled == pytest.approx(lam * c, rel=1e-12)


class TestRhoBounds:
    def test_disk_center(self):
        spec = DomainSpec("disk", radius=1.0)
        assert rho_bounds(spec, (0.0, 0.0)) == pytest.approx((1.0, 1.0), abs=1e-10)

    def test_ellipse_center(self):
        spec = DomainSpec("ellipse", a=1.2, b=1.0)
        rho_i, rho_e = rho_bounds(spec, (0.0, 0.0))
        assert rho_i == pytest.approx(1.0, abs=1e-10)
        assert rho_e == pytest.approx(1.2, abs=1e-10)

    def test_disk_offcenter(self):
        spec = DomainSpec("disk", radius=1.0)
        rho_i, rho_e = rho_bounds(spec, (0.3, 0.0))
        assert rho_i == pytest.approx(0.7, abs=1e-10)
        assert rho_e == pytest.approx(1.3, abs=1e-10)

    def test_rejects_exterior_point(self):
        spec = DomainSpec("disk", radius=1.0)
        with pytest.raises(ValidationError):
            rho_bounds(spec, (1.5, 0.0))
        with pytest.raises(ValidationError):
            rho_bounds(spec, (1.0, 0.0))

    @given(r=st.floats(min_value=0.0, max_value=0.9), phi=st.floats(0, 2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_disk_offcenter_closed_form(self, r, phi):
        spec = DomainSpec("disk", radius=1.0)
        z = (r * math.cos(phi), r * math.sin(phi))
        rho_i, rho_e = rho_bounds(spec, z)
        assert rho_i == pytest.approx(1.0 - r, abs=1e-9)
        assert rho_e == pytest.approx(1.0 + r, abs=1e-9)

    def test_gap_zero_iff_disk_at_center(self):
        disk = DomainSpec("disk", radius=1.0)
        ri, re = rho_bounds(disk, (0.0, 0.0))
        assert re - ri == pytest.approx(0.0, abs=1e-12)
        for spec, z in ((disk, (0.2, 0.1)),
                        (DomainSpec("ellipse", a=1.2, b=1.0), (0, 0)),
                        (DomainSpec("star", r0=1, eps=0.05, k=3), (0, 0))):
            ri, re = rho_bounds(spec, z)
            assert re - ri > 1e-3

    def test_star_against_brute_force(self):
        # oracle: dense 200k-sample scan of the boundary distance
        spec = DomainSpec("star", r0=1.0, eps=0.08, k=3)
        z = np.array([0.1, -0.05])
        t = 2 * math.pi * np.arange(200_000) / 200_000
        d = np.hypot(*(spec.point(t) - z).T)
        rho_i, rho_e = rho_bounds(spec, z)
        assert rho_i == pytest.approx(float(d.min()), abs=1e-6)
        assert rho_e == pytest.approx(float(d.max()), abs=1e-6)

    def test_rho_e_below_diameter(self):
        for spec in (DomainSpec("disk", radius=1.0),
                     DomainSpec("ellipse", a=1.2, b=1.0),
                     DomainSpec("star", r0=1.0, eps=0.05, k=3)):
            _, rho_e = rho_bounds(spec, (0.05, 0.02))
            assert rho_e <= diameter(spec) + 1e-12

    @pytest.mark.parametrize("spec", [DomainSpec("ellipse", a=1.2, b=1.0),
                                      DomainSpec("star", r0=1.0, eps=0.1, k=3)],
                             ids=["ellipse", "star"])
    def test_offcentre_against_dense_scan(self, spec):
        # oracle: dense 200k-sample scan, within 1e-10 of the extrema here
        z = np.array([0.13, -0.07])
        t = 2 * math.pi * np.arange(200_000) / 200_000
        d = np.hypot(*(spec.point(t) - z).T)
        rho_i, rho_e = rho_bounds(spec, z)
        assert rho_i == pytest.approx(float(d.min()), abs=1e-8)
        assert rho_e == pytest.approx(float(d.max()), abs=1e-8)

    def test_disk_centre_without_warnings(self):
        # g = g' = 0 at the centre in farthest mode too: no 0/0; the
        # off-centre point's farthest point lies between two samples
        spec = DomainSpec("disk", radius=1.0)
        z = (0.3 * math.cos(0.1), 0.3 * math.sin(0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rho_bounds(spec, (0.0, 0.0)) == pytest.approx((1.0, 1.0), abs=1e-15)
            assert rho_bounds(spec, z) == pytest.approx((0.7, 1.3), abs=1e-12)


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


def reference_distance_to_boundary(spec, pts):
    """Chunked scan of the curve samples plus golden-section refinement
    (parameter tolerance 1e-10), for comparison."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = geometry._BOUNDARY_SAMPLES
    t = TWO_PI * np.arange(n) / n
    curve = spec.point(t)
    out = np.empty(len(pts))
    step = max(1, 200_000 // n)
    for lo in range(0, len(pts), step):
        chunk = pts[lo:lo + step]
        d2 = ((chunk[:, None, :] - curve[None, :, :]) ** 2).sum(axis=-1)
        jstar = np.argmin(d2, axis=1)
        a = t[jstar] - TWO_PI / n
        b = t[jstar] + TWO_PI / n

        def f(theta, chunk=chunk):
            return ((chunk - spec.point(theta)) ** 2).sum(axis=-1)

        tbest = _golden_min_vec(f, a, b)
        out[lo:lo + step] = np.sqrt(f(tbest))
    return out


def brute_force_distance(spec, pts, n=200_000):
    """min over n equispaced curve samples, one point at a time."""
    curve = spec.point(TWO_PI * np.arange(n) / n)
    return np.array([np.hypot(*(curve - x).T).min() for x in pts])


def brute_force_curve_distance(outer, inner, n=2_000):
    """Curve-to-curve distance by scans only.

    A point's distance to outer is the closest of 4000 samples, rescanned at
    2001 parameters spanning that sample's two neighbours.  inner is scanned
    at n samples, then at n parameters spanning two spacings about the best.
    """
    def to_outer(pts):
        t = TWO_PI * np.arange(4000) / 4000
        d2 = ((pts[:, None, :] - outer.point(t)[None, :, :]) ** 2).sum(axis=-1)
        fine = t[np.argmin(d2, axis=1)][:, None] + np.linspace(-1, 1, 2001) * (t[1] - t[0])
        return np.sqrt(((pts[:, None, :] - outer.point(fine)) ** 2).sum(axis=-1).min(axis=1))

    def scan(s):
        pts = inner.point(s)
        return np.concatenate([to_outer(pts[i:i + 100]) for i in range(0, len(s), 100)])

    s = TWO_PI * np.arange(n) / n
    s0 = s[np.argmin(scan(s))]
    return float(scan(s0 + np.linspace(-2, 2, n) * (s[1] - s[0])).min())


def _interior_points(spec, n, seed):
    """n points inside spec, each 0.05 or more short of the boundary along its
    ray from the centre."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0, TWO_PI, n)
    frac = rng.uniform(0.0, 1.0, n)
    rho = frac * (spec.radial(phi) - 0.05)
    return np.asarray(spec.center) + np.stack([rho * np.cos(phi), rho * np.sin(phi)], -1)


class TestDistanceToBoundary:
    def test_disk_closed_form_and_centre(self):
        spec = DomainSpec("disk", center=(0.2, -0.1), radius=0.7)
        pts = np.vstack([[spec.center], _interior_points(spec, 400, 0),
                         [[0.2 + 0.35, -0.1], [0.2, -0.1 - 0.6999]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # g' = 0 at the centre: no 0/0
            d = distance_to_boundary(spec, pts)
        exact = np.abs(0.7 - np.hypot(*(pts - spec.center).T))
        np.testing.assert_allclose(d, exact, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("spec", [DomainSpec("ellipse", a=1.2, b=1.0),
                                      DomainSpec("star", r0=1.0, eps=0.1, k=3)],
                             ids=["ellipse", "star"])
    def test_against_brute_force(self, spec):
        # oracle: dense 200k-sample scan, an upper bound on the distance and
        # within 1e-8 of it for points this far from the curve
        pts = _interior_points(spec, 150, 1)
        if spec.kind == "ellipse":
            # inside the evolute (|x| < (a^2 - b^2)/a ~ 0.367) each point has
            # two nearest points, cos(theta) = a x / (a^2 - b^2), and the
            # squared distance four critical points
            pts = np.vstack([pts, np.stack([np.linspace(-0.36, 0.36, 13),
                                            np.zeros(13)], -1)])
        else:
            # on the ray to the peak at 2 pi/3, just inside the evolute's cusp:
            # g' < 0 at the nearest sample, where a bare Newton step climbs
            # towards the local maximum of the distance at the peak
            pts = np.vstack([pts, [[-0.24741901898041835, 0.42854385937534445]]])
        d = distance_to_boundary(spec, pts)
        brute = brute_force_distance(spec, pts)
        assert np.all(d <= brute + 1e-14)
        np.testing.assert_allclose(d, brute, atol=1e-8, rtol=0)

    def test_foot_on_another_branch(self):
        # near the medial axis of a deep star the nearest boundary sample can
        # sit on one branch while the nearest foot point lies on another
        spec = DomainSpec("star", r0=1.0, eps=0.3, k=6)
        pts = np.random.default_rng(0).uniform(-1.3, 1.3, (6000, 2))
        pts = np.vstack([[[-0.19710474, 0.34151937]],
                         pts[spec.signed_radial_margin(pts) > 0.01]])
        # oracle: nearest of 400k samples (kd-tree), then 2001 parameters
        # spanning that sample's two neighbours
        t = TWO_PI * np.arange(400_000) / 400_000
        j = cKDTree(spec.point(t)).query(pts)[1]
        fine = t[j][:, None] + np.linspace(-1, 1, 2001) * (t[1] - t[0])
        oracle = np.sqrt(((pts[:, None, :] - spec.point(fine)) ** 2).sum(axis=-1).min(axis=1))
        d = distance_to_boundary(spec, pts)
        np.testing.assert_allclose(d, oracle, atol=1e-8, rtol=0)
        assert d[0] == pytest.approx(0.4033267, abs=1e-7)

    @pytest.mark.parametrize("spec", [DomainSpec("disk", radius=1.0),
                                      DomainSpec("ellipse", a=1.2, b=1.0),
                                      DomainSpec("star", r0=1.0, eps=0.1, k=3)],
                             ids=["disk", "ellipse", "star"])
    def test_on_boundary(self, spec):
        theta = np.random.default_rng(2).uniform(0, TWO_PI, 200)
        theta = np.concatenate([theta, TWO_PI * np.arange(16) / 16])
        assert np.all(distance_to_boundary(spec, spec.point(theta)) <= 1e-12)

    def test_matches_scan_and_golden_search(self, ellipse_mesh):
        interior = np.setdiff1d(np.arange(len(ellipse_mesh.vertices)),
                                ellipse_mesh.boundary_loop)
        pts = ellipse_mesh.vertices[interior]
        np.testing.assert_allclose(
            distance_to_boundary(ellipse_mesh.domain, pts),
            reference_distance_to_boundary(ellipse_mesh.domain, pts), rtol=1e-12)


class TestInclusionMargin:
    def test_concentric(self):
        m = inclusion_margin(DomainSpec("disk", radius=1.0),
                             DomainSpec("disk", radius=0.5))
        assert m.margin == pytest.approx(0.5, abs=1e-8)
        assert m.M == pytest.approx(2.0, abs=1e-7)

    def test_offset(self):
        m = inclusion_margin(DomainSpec("disk", radius=1.0),
                             DomainSpec("disk", center=(0.5, 0.0), radius=0.3))
        assert m.margin == pytest.approx(0.2, abs=1e-8)
        assert m.M == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("R,center,r", [(1.3, (-0.2, 0.35), 0.4),
                                            (1.0, (0.0, -0.6), 0.1),
                                            (2.0, (0.9, 0.9), 0.5)])
    def test_offcentre_disk_in_disk(self, R, center, r):
        m = inclusion_margin(DomainSpec("disk", radius=R),
                             DomainSpec("disk", center=center, radius=r))
        assert m.margin == pytest.approx(R - math.hypot(*center) - r, abs=1e-12)

    @pytest.mark.parametrize("domain,inclusion", [
        (DomainSpec("ellipse", a=1.5, b=1.0),
         DomainSpec("ellipse", center=(0.3, 0.2), a=0.5, b=0.3)),
        (DomainSpec("ellipse", a=1.2, b=1.0),
         DomainSpec("ellipse", center=(-0.1, 0.0), a=0.4, b=0.35)),
        (DomainSpec("star", r0=1.0, eps=0.1, k=3),
         DomainSpec("disk", center=(0.3, 0.2), radius=0.25)),
        (DomainSpec("ellipse", a=1.2, b=1.0),
         DomainSpec("star", center=(0.3, 0.1), r0=0.3, eps=0.1, k=3)),
    ], ids=["ellipse-in-ellipse", "centred-ellipse-in-ellipse", "disk-in-star",
            "star-in-ellipse"])
    def test_against_brute_force(self, domain, inclusion):
        m = inclusion_margin(domain, inclusion)
        brute = brute_force_curve_distance(domain, inclusion)
        assert m.margin == pytest.approx(brute, abs=1e-10)
        assert m.M == max(1.0, 1.0 / m.margin)

    def test_disk_inclusion_one_distance_call(self, monkeypatch):
        calls = []
        real = geometry.distance_to_boundary

        def counted(spec, pts):
            calls.append(np.atleast_2d(pts).shape[0])
            return real(spec, pts)

        monkeypatch.setattr(geometry, "distance_to_boundary", counted)
        m = inclusion_margin(DomainSpec("star", r0=1.0, eps=0.1, k=3),
                             DomainSpec("disk", center=(0.3, 0.2), radius=0.25))
        assert calls == [1]
        assert m.margin == pytest.approx(
            real(DomainSpec("star", r0=1.0, eps=0.1, k=3), (0.3, 0.2))[0] - 0.25, abs=1e-15)

    def test_exits_domain(self):
        with pytest.raises(ValidationError):
            inclusion_margin(DomainSpec("disk", radius=1.0),
                             DomainSpec("disk", center=(0.5, 0.0), radius=0.6))


class TestMisc:
    def test_diameter(self):
        assert diameter(DomainSpec("disk", radius=2.0)) == pytest.approx(4.0)
        assert diameter(DomainSpec("ellipse", a=1.2, b=1.0)) == pytest.approx(2.4)
        d_star = diameter(DomainSpec("star", r0=1.0, eps=0.05, k=4))
        assert d_star == pytest.approx(2.1, abs=1e-6)  # k even: antipodal bumps

    def test_diameter_odd_star_against_dense_scan(self):
        # k odd has no antipodal closed form.  oracle: pairwise scan of 1500
        # samples, then three scans of 801 x 801 parameter pairs, each over
        # four of the previous grid's spacings about its best pair
        spec = DomainSpec("star", r0=1.0, eps=0.1, k=3)
        t = TWO_PI * np.arange(1500) / 1500
        p = spec.point(t)
        d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        ti, tj, w = t[i], t[j], t[1] - t[0]
        for _ in range(3):
            a = ti + np.linspace(-2, 2, 801) * w
            b = tj + np.linspace(-2, 2, 801) * w
            d2 = ((spec.point(a)[:, None, :] - spec.point(b)[None, :, :]) ** 2).sum(axis=-1)
            i, j = np.unravel_index(np.argmax(d2), d2.shape)
            ti, tj, w = a[i], b[j], a[1] - a[0]
        assert diameter(spec) == pytest.approx(math.sqrt(float(d2.max())), abs=1e-10)

    def test_curvature_max(self):
        assert curvature_max(DomainSpec("disk", radius=2.0)) == pytest.approx(0.5)
        assert curvature_max(DomainSpec("ellipse", a=1.2, b=1.0)) == pytest.approx(1.2)

    @pytest.mark.parametrize("eps,k", [(0.0, 5), (0.05, 4), (0.1, 3), (0.3, 6)])
    def test_curvature_max_star_polar_formula(self, eps, k):
        # oracle: the polar-graph curvature |r^2 + 2 r'^2 - r r''| / (r^2 + r'^2)^1.5
        spec = DomainSpec("star", r0=1.0, eps=eps, k=k)
        t = TWO_PI * np.arange(4096) / 4096
        r = 1.0 + eps * np.cos(k * t)
        dr = -eps * k * np.sin(k * t)
        ddr = -eps * k ** 2 * np.cos(k * t)
        kappa = np.abs(r ** 2 + 2 * dr ** 2 - r * ddr) / (r ** 2 + dr ** 2) ** 1.5
        assert curvature_max(spec) == pytest.approx(float(kappa.max()), rel=1e-14)

    @pytest.mark.parametrize("spec", [DomainSpec("disk", center=(0.1, 0.2), radius=0.8),
                                      DomainSpec("ellipse", a=1.5, b=1.0),
                                      DomainSpec("star", r0=1.0, eps=0.2, k=5)],
                             ids=["disk", "ellipse", "star"])
    def test_acceleration_is_derivative_of_velocity(self, spec):
        t = np.linspace(0.0, TWO_PI, 97)
        h = 1e-5
        fd = (spec.velocity(t + h) - spec.velocity(t - h)) / (2 * h)
        np.testing.assert_allclose(spec.acceleration(t), fd, atol=1e-8)
