import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serrinlab.analytic_oracle import disk_green_mixed
from serrinlab.errors import ValidationError

from closed_forms import RadialTwoPhaseSolution, concentric_two_phase, disk_green, ellipse_torsion


class TestRadialSolution:
    def test_reference_value(self):
        # oracle: integrate u'(r) = -r/(2 sigma(r)) piecewise from the boundary
        r_in = np.linspace(0, 0.5, 100001)
        r_out = np.linspace(0.5, 1.0, 100001)
        u0 = np.trapezoid(r_in / 4.0, r_in) + np.trapezoid(r_out / 2.0, r_out)
        assert u0 == pytest.approx(7 / 32, abs=1e-9)
        assert concentric_two_phase(1.0, 0.5, 2.0, 0.0) == pytest.approx(7 / 32)

    def test_one_phase_degenerate(self):
        sol = RadialTwoPhaseSolution(1.0, 0.5, 1.0)
        r = np.linspace(0, 1, 11)
        np.testing.assert_allclose(sol(r), (1 - r ** 2) / 4, atol=1e-15)

    def test_dirichlet_and_bounds(self):
        assert concentric_two_phase(1.0, 0.5, 3.0, 1.0) == 0.0
        with pytest.raises(ValidationError):
            concentric_two_phase(1.0, 0.5, 2.0, 1.5)

    @given(sigma_c=st.floats(min_value=0.1, max_value=10.0),
           r0=st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=40)
    def test_flux_continuity(self, sigma_c, r0):
        sol = RadialTwoPhaseSolution(1.0, r0, sigma_c)
        eps = 1e-9
        jump = abs(sol.flux(r0 + eps) - sol.flux(r0 - eps))
        assert jump <= 1e-12 + 2 * eps
        # value continuity at the interface
        assert abs(sol(r0 + eps) - sol(max(r0 - eps, 0))) < 1e-8


class TestEllipseTorsion:
    def test_disk_case(self):
        assert ellipse_torsion(1.0, 1.0, 0.0, 0.0) == pytest.approx(0.25)

    def test_reference_center_value(self):
        assert ellipse_torsion(1.2, 1.0, 0, 0) == pytest.approx(1.44 / (2 * 2.44))

    def test_boundary_zero_and_outside(self):
        assert ellipse_torsion(1.2, 1.0, 1.2, 0.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValidationError):
            ellipse_torsion(1.2, 1.0, 1.3, 0.0)

    def test_satisfies_poisson_equation(self):
        # -Laplace(v) = 1 checked by central finite differences
        h = 1e-4
        for (x, y) in ((0.0, 0.0), (0.3, -0.2), (-0.5, 0.4)):
            lap = (ellipse_torsion(1.2, 1, x + h, y) + ellipse_torsion(1.2, 1, x - h, y)
                   + ellipse_torsion(1.2, 1, x, y + h) + ellipse_torsion(1.2, 1, x, y - h)
                   - 4 * ellipse_torsion(1.2, 1, x, y)) / h ** 2
            assert lap == pytest.approx(-1.0, abs=1e-6)


def _green_mp(x, y):
    """Independent high-precision evaluation of the image-charge formula."""
    ay = mp.sqrt(y[0] ** 2 + y[1] ** 2)
    d0, d1 = x[0] - y[0], x[1] - y[1]
    im0, im1 = ay * x[0] - y[0] / ay, ay * x[1] - y[1] / ay
    return (mp.log(mp.sqrt(im0 ** 2 + im1 ** 2))
            - mp.log(mp.sqrt(d0 ** 2 + d1 ** 2))) / (2 * mp.pi)


class TestDiskGreen:
    def test_image_charge_value(self):
        g = disk_green((0.5, 0.0), (-0.5, 0.0))
        assert g == pytest.approx(math.log(1.25) / (2 * math.pi), abs=1e-14)
        assert g == pytest.approx(0.035514, abs=1e-6)

    def test_zero_on_boundary(self):
        for ang in (0.0, 0.7, 2.1, 4.4):
            x = (math.cos(ang), math.sin(ang))
            assert abs(disk_green(x, (0.3, -0.2))) < 1e-12

    def test_center_limit(self):
        assert disk_green((0.5, 0.0), (0.0, 0.0)) == pytest.approx(
            math.log(2.0) / (2 * math.pi), abs=1e-14)

    def test_singularity_rejected(self):
        with pytest.raises(ValidationError):
            disk_green((0.2, 0.2), (0.2, 0.2))

    @given(st.floats(-0.7, 0.7), st.floats(-0.55, 0.55),
           st.floats(-0.7, 0.7), st.floats(-0.55, 0.55))
    @example(5e-324, 5e-324, 0.0, 0.5)  # subnormal y in the swapped call
    @settings(max_examples=40)
    def test_symmetry(self, x0, x1, y0, y1):
        x, y = np.array([x0, x1]), np.array([y0, y1])
        if np.hypot(*(x - y)) < 1e-3 or np.hypot(*y) < 1e-6:
            return
        assert disk_green(x, y) == pytest.approx(disk_green(y, x), abs=1e-12)

    def test_mixed_derivative_matches_finite_differences(self):
        # double central FD of G at step 1e-5 evaluated at 50 digits (float64
        # roundoff would swamp the 1e-6 tolerance)
        mp.mp.dps = 50
        rng = np.random.default_rng(20240704)
        h = mp.mpf("1e-5")
        checked = 0
        while checked < 20:
            y = rng.uniform(-0.75, 0.75, 2)
            x = rng.uniform(-0.9, 0.9, 2)
            if np.hypot(*y) > 0.75 or np.hypot(*x) > 0.9 or np.hypot(*(x - y)) < 0.2:
                continue
            if np.hypot(*y) < 0.05:
                continue
            M = disk_green_mixed(x, y)
            fd = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    acc = mp.mpf(0)
                    for si in (1, -1):
                        for sj in (1, -1):
                            xx = [mp.mpf(float(x[0])), mp.mpf(float(x[1]))]
                            yy = [mp.mpf(float(y[0])), mp.mpf(float(y[1]))]
                            xx[i] += si * h
                            yy[j] += sj * h
                            acc += si * sj * _green_mp(xx, yy)
                    fd[i, j] = float(acc / (4 * h * h))
            rel = np.linalg.norm(M - fd) / np.linalg.norm(M)
            assert rel < 1e-6, f"pair {x}, {y}: rel {rel:.2e}"
            checked += 1

    def test_mixed_derivative_scaling_in_M(self):
        # sup over (x, y) with dist(x, D) >= 1/(2M), y in D, D the disk of
        # radius 1 - 1.5/M: finite at every M, log-log growth slope <= 3.5
        sups = []
        Ms = [2.0, 4.0, 8.0, 16.0]
        for M in Ms:
            r_d = 1.0 - 1.5 / M
            sup = 0.0
            for ry in (0.3, 0.6, 0.9, 0.99):
                for ay in range(8):
                    y = ry * r_d * np.array([math.cos(ay * math.pi / 4),
                                             math.sin(ay * math.pi / 4)])
                    for rx_off in (0.5, 0.75, 1.0, 1.25, 1.5):
                        for ax in range(8):
                            rx = r_d + rx_off / M
                            x = min(rx, 1.0) * np.array([math.cos(ax * math.pi / 4),
                                                         math.sin(ax * math.pi / 4)])
                            sup = max(sup, float(np.linalg.norm(
                                disk_green_mixed(x, y))))
            assert math.isfinite(sup)
            sups.append(sup)
        logM = np.log(Ms)
        slope = np.polyfit(logM, np.log(sups), 1)[0]
        assert slope <= 3.5

