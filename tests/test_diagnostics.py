import math
import threading
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrinlab import fem_core, serrin_diagnostics
from serrinlab.cli_io import _write_csv
from serrinlab.errors import DiagnosticError
from serrinlab.fem_core import normal_derivative, solve_one_phase, stiffness
from serrinlab.geometry import DomainSpec, distance_to_boundary, serrin_constant
from serrinlab.meshgen import generate, refine
from serrinlab.serrin_diagnostics import (
    EtaSpec,
    SerrinReport,
    deviation_norms,
    full_report,
    fundamental_identity,
    growth_check,
    max_point,
    osc_check,
)

from conftest import scipy_csr

ELLIPSE_FI_EXACT = math.pi * 1.2 ** 3 * (1.2 ** 2 - 1.0) ** 2 / (8 * (1.2 ** 2 + 1.0) ** 3)


class TestMaxPoint:
    def test_disk_center(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        z = max_point(disk_mesh, v)
        assert np.hypot(*z) < 0.1 ** 2

    def test_ellipse_center(self, ellipse_mesh):
        v = solve_one_phase(ellipse_mesh)
        z = max_point(ellipse_mesh, v)
        assert np.hypot(*z) < 0.05 ** 2

    def test_translation_equivariance(self):
        spec = DomainSpec("disk", center=(0.3, 0.1), radius=1.0)
        mesh = generate(spec, None, 0.08)
        z = max_point(mesh, solve_one_phase(mesh))
        assert np.hypot(z[0] - 0.3, z[1] - 0.1) < 0.08 ** 2

    def test_refinement_stability(self, disk_mesh):
        z0 = max_point(disk_mesh, solve_one_phase(disk_mesh))
        fine = refine(disk_mesh)
        z1 = max_point(fine, solve_one_phase(fine))
        assert np.hypot(*(z0 - z1)) < 0.1 ** 2


class TestDeviationNorms:
    def test_disk_tends_to_zero(self, disk_mesh):
        tr = normal_derivative(disk_mesh, solve_one_phase(disk_mesh))
        l2, linf = deviation_norms(tr, -0.5)
        assert linf < 10 * 0.1 ** 2
        assert l2 < 10 * 0.1 ** 2

    def test_ellipse_reference(self, ellipse_mesh):
        tr = normal_derivative(ellipse_mesh, solve_one_phase(ellipse_mesh))
        _, linf = deviation_norms(tr, -0.54433)
        assert linf == pytest.approx(0.0525, abs=2e-3)

    def test_eta_absorbs_residual(self, disk_mesh):
        tr = normal_derivative(disk_mesh, solve_one_phase(disk_mesh))
        theta = disk_mesh.boundary_params
        eta = 0.01 * np.cos(theta)
        eta = eta - (eta * tr.weights).sum() / tr.weights.sum()
        # trace == c + eta exactly -> both norms vanish
        tr.values = -0.5 + eta
        l2, linf = deviation_norms(tr, -0.5, eta)
        assert linf < 1e-14 and l2 < 1e-14

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_bridge_inequality_random_traces(self, seed):
        # weighted L2 <= sqrt(total weight) * Linf, exactly, for any residual
        rng = np.random.default_rng(seed)
        n = 32
        w = rng.uniform(0.01, 1.0, n)
        vals = rng.normal(size=n)
        l2 = math.sqrt(float(((vals + 0.5) ** 2 * w).sum()))
        linf = float(np.abs(vals + 0.5).max())
        assert l2 <= math.sqrt(w.sum()) * linf + 1e-12


def _h(mesh, v, z):
    """Nodal values of h = v + |x-z|^2/4, the harmonic companion of v (N=2)."""
    return v.values + ((mesh.vertices - z) ** 2).sum(axis=1) / 4.0


class TestHField:
    def test_disk_constant(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        h = _h(disk_mesh, v, np.zeros(2))
        assert np.abs(h - 0.25).max() < 10 * 0.1 ** 2

    def test_boundary_trace_is_quarter_square_distance(self, ellipse_mesh):
        v = solve_one_phase(ellipse_mesh)
        z = np.zeros(2)
        h = _h(ellipse_mesh, v, z)
        pts = ellipse_mesh.vertices[ellipse_mesh.boundary_loop]
        expected = ((pts - z) ** 2).sum(axis=1) / 4.0
        got = h[ellipse_mesh.boundary_loop]
        assert np.abs(got - expected).max() < 1e-12  # v = 0 on the boundary
        # so osc_check's oscillation of |x-z|^2/4 is that of h, bit for bit
        assert osc_check(pts, z, 1.0, 1.2, 2.4) == got.max() - got.min()

    def test_discretely_near_harmonic(self, disk_mesh):
        # stiffness action on h equals that on v plus the unit-load row sums,
        # so the interior residual of h decays with the mesh
        mesh = disk_mesh
        resids = []
        for _ in range(2):
            v = solve_one_phase(mesh)
            h = _h(mesh, v, max_point(mesh, v))
            K = stiffness(mesh, 1.0)
            r = K @ h
            interior = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_loop)
            resids.append(np.abs(r[interior]).max())
            mesh = refine(mesh)
        assert resids[1] < resids[0]


def _identity(mesh, v, z):
    """fundamental_identity with v's boundary trace and the domain's Serrin
    constant, as full_report passes them."""
    c = serrin_constant(mesh.domain)
    return fundamental_identity(mesh, v, normal_derivative(mesh, v), z, c)


class TestFundamentalIdentity:
    def test_disk_both_sides_vanish(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        z = max_point(disk_mesh, v)
        lhs, rhs, _ = _identity(disk_mesh, v, z)
        assert abs(lhs) < 0.1 * disk_mesh.h_max
        assert abs(rhs) < 0.1 * disk_mesh.h_max

    def test_ellipse_reference_value(self, ellipse_mesh):
        v = solve_one_phase(ellipse_mesh)
        z = max_point(ellipse_mesh, v)
        lhs, rhs, gap = _identity(ellipse_mesh, v, z)
        assert lhs == pytest.approx(ELLIPSE_FI_EXACT, rel=0.05)
        assert rhs == pytest.approx(ELLIPSE_FI_EXACT, rel=0.05)
        assert gap <= 0.05

    def test_translated_disk_vanishes(self):
        spec = DomainSpec("disk", center=(0.4, -0.2), radius=1.0)
        mesh = generate(spec, None, 0.08)
        v = solve_one_phase(mesh)
        z = max_point(mesh, v)
        lhs, rhs, _ = _identity(mesh, v, z)
        assert abs(lhs) < 0.1 * mesh.h_max and abs(rhs) < 0.1 * mesh.h_max

    def test_gap_decreases_under_refinement(self, ellipse_spec):
        mesh = generate(ellipse_spec, None, 0.1)
        gaps = []
        for _ in range(3):
            v = solve_one_phase(mesh)
            z = max_point(mesh, v)
            gaps.append(_identity(mesh, v, z)[2])
            mesh = refine(mesh)
        assert gaps[0] / gaps[1] >= 1.3
        assert gaps[1] / gaps[2] >= 1.3


def _osc_residual(osc, rho_i, rho_e):
    """|osc h - (rho_e^2 - rho_i^2)/4|: the oscillation relation, up to sampling."""
    return abs(osc - (rho_e ** 2 - rho_i ** 2) / 4.0)


class TestOscCheck:
    def test_disk(self, disk_mesh):
        osc = osc_check(disk_mesh.vertices[disk_mesh.boundary_loop], np.zeros(2),
                        1.0, 1.0, 2.0)
        assert osc < 1e-10
        assert _osc_residual(osc, 1.0, 1.0) < 1e-10

    def test_ellipse_reference(self, ellipse_mesh):
        osc = osc_check(ellipse_mesh.vertices[ellipse_mesh.boundary_loop], np.zeros(2),
                        1.0, 1.2, 2.4)
        assert osc == pytest.approx(0.11, abs=1e-3)
        assert _osc_residual(osc, 1.0, 1.2) < 1e-3
        assert 0.2 <= (8 / 2.4) * osc  # the oscillation inequality, explicit

    @pytest.mark.parametrize("slack,raises", [(0.19, True), (0.21, False)])
    def test_bound_beyond_slack_raises(self, ellipse_mesh, slack, raises):
        # a diameter of 1e9 makes (8/d) osc vanish, leaving gap 0.2 against slack
        pts = ellipse_mesh.vertices[ellipse_mesh.boundary_loop]
        if raises:
            with pytest.raises(DiagnosticError, match="oscillation bound violated"):
                osc_check(pts, np.zeros(2), 1.0, 1.2, 1e9, slack)
        else:
            assert osc_check(pts, np.zeros(2), 1.0, 1.2, 1e9, slack) > 0.1

    def test_star(self):
        spec = DomainSpec("star", r0=1.0, eps=0.05, k=3)
        rep = full_report(spec, None, 1.0, 0.06)
        assert rep.osc_h > 0
        assert rep.gap <= (8 / 2.0) * rep.osc_h + 1e-3


class TestGrowthCheck:
    def test_disk_min_ratio(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        assert growth_check(disk_mesh, v) == pytest.approx(0.25, abs=5e-3)

    def test_homogeneity(self, disk_mesh):
        from serrinlab.fem_core import Field

        v = solve_one_phase(disk_mesh)
        doubled = Field(v.mesh, 2.0 * v.values)
        assert growth_check(disk_mesh, doubled) == pytest.approx(
            2 * growth_check(disk_mesh, v), rel=1e-12)

    @pytest.mark.parametrize("case", ["disk", "ellipse_refined", "star", "off_centre_inclusion"])
    def test_screen_matches_brute_force(self, case, request):
        mesh = {
            "disk": lambda: request.getfixturevalue("disk_mesh"),
            "ellipse_refined": lambda: refine(request.getfixturevalue("ellipse_mesh")),
            "star": lambda: generate(DomainSpec("star", r0=1.0, eps=0.1, k=3), None, 0.08),
            "off_centre_inclusion": lambda: generate(
                DomainSpec("ellipse", a=1.2, b=1.0),
                DomainSpec("disk", center=(0.3, 0.2), radius=0.25), 0.06),
        }[case]()
        v = solve_one_phase(mesh)
        interior = mesh.interior
        delta = distance_to_boundary(mesh.domain, mesh.vertices[interior])
        brute = float(np.min(v.values[interior] / delta))
        assert growth_check(mesh, v) == pytest.approx(brute, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", ["disk_mesh", "ellipse_mesh"])
    def test_screen_reaches_boundary_minimum(self, name, request, monkeypatch):
        # values = delta^2 puts the minimum of v/delta = delta next to the
        # boundary, where the screen delta^2/margin ties it at many vertices
        from serrinlab import serrin_diagnostics
        from serrinlab.fem_core import Field

        mesh = request.getfixturevalue(name)
        interior = mesh.interior
        delta = distance_to_boundary(mesh.domain, mesh.vertices[interior])
        values = np.zeros(len(mesh.vertices))
        values[interior] = delta ** 2
        argmin = interior[np.argmin(delta)]
        assert np.intersect1d(scipy_csr(mesh.adjacency)[argmin].indices, mesh.boundary_loop).size
        sizes = []

        def spy(spec, pts):
            sizes.append(len(pts))
            return distance_to_boundary(spec, pts)

        monkeypatch.setattr(serrin_diagnostics, "distance_to_boundary", spy)
        got = growth_check(mesh, Field(mesh, values))
        assert got == pytest.approx(float(delta.min()), rel=1e-14, abs=0.0)
        # one seed call and one candidate call, the candidates past the seeds
        # where the screen ties
        assert len(sizes) == 2
        if name == "disk_mesh":
            assert sizes[1] > sizes[0]

    def test_quadratic_lower_bound(self, disk_mesh):
        # v >= delta^2/4, by comparison with the inscribed ball
        v = solve_one_phase(disk_mesh)
        interior = disk_mesh.interior
        delta = distance_to_boundary(disk_mesh.domain, disk_mesh.vertices[interior])
        assert np.min(v.values[interior] - delta ** 2 / 4.0) >= -10 * disk_mesh.h_max ** 2


class TestFullReport:
    def test_concentric_exact_pair(self):
        rep = full_report(DomainSpec("disk", radius=1.0),
                          DomainSpec("disk", radius=0.5), 2.0, 0.05)
        assert rep.gap == pytest.approx(0.0, abs=1e-10)
        assert rep.dev_Linf <= 10 * 0.05 ** 2
        assert rep.c == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("sigma_c", [0.5, 2.0, 5.0])
    def test_concentric_exactness_across_sigma(self, sigma_c):
        rep = full_report(DomainSpec("disk", radius=1.0),
                          DomainSpec("disk", radius=0.5), sigma_c, 0.05)
        assert rep.dev_Linf <= 10 * 0.05 ** 2

    def test_ellipse_reference(self):
        rep = full_report(DomainSpec("ellipse", a=1.2, b=1.0), None, 1.0, 0.05)
        assert rep.gap == pytest.approx(0.2, abs=1e-3)
        assert rep.dev_Linf == pytest.approx(0.0525, abs=2e-3)
        assert rep.osc_h == pytest.approx(0.11, abs=1e-3)

    def test_disk_with_eta(self):
        rep = full_report(DomainSpec("disk", radius=1.0), None, 1.0, 0.05,
                          eta=EtaSpec(0.01, 1))
        assert rep.dev_Linf == pytest.approx(0.01, abs=5e-3)
        assert rep.dev_Linf > 5e-3  # eta is not absorbed on the disk

    def test_bridge_inequality_on_reports(self):
        for rep, perim in ((full_report(DomainSpec("ellipse", a=1.2, b=1.0),
                                        None, 1.0, 0.08), 6.92579),
                           (full_report(DomainSpec("disk", radius=1.0),
                                        DomainSpec("disk", radius=0.5),
                                        2.0, 0.08), 2 * math.pi)):
            assert rep.dev_L2 <= math.sqrt(perim) * rep.dev_Linf + 1e-12

    @pytest.mark.parametrize("refine_levels", [0, 1])
    def test_report_does_not_depend_on_jobs(self, refine_levels, monkeypatch):
        # level 0 runs Jacobi CG on the worker thread, level 1 the V-cycle
        worker_cg = []
        pcg = fem_core._pcg
        monkeypatch.setattr(fem_core, "_pcg", lambda *a: worker_cg.append(
            threading.current_thread() is not threading.main_thread()) or pcg(*a))
        reports = []
        for jobs in (1, 2):
            worker_cg.clear()
            reports.append(full_report(DomainSpec("ellipse", a=1.2, b=1.0),
                                       DomainSpec("disk", radius=0.3), 2.0, 0.08,
                                       eta=EtaSpec(0.01, 2), refine_levels=refine_levels,
                                       jobs=jobs))
            assert sorted(worker_cg) == [False, jobs > 1]
        assert [float(x).hex() for x in asdict(reports[0]).values()] == \
            [float(x).hex() for x in asdict(reports[1]).values()]

    @pytest.mark.parametrize("inclusion,assemblies", [
        (None, 1), (DomainSpec("disk", radius=0.5), 2)])
    def test_one_assembly_per_solve(self, inclusion, assemblies, monkeypatch):
        calls = []
        monkeypatch.setattr(fem_core, "stiffness",
                            lambda *a: calls.append(a) or stiffness(*a))
        full_report(DomainSpec("disk", radius=1.0), inclusion, 2.0, 0.1)
        assert len(calls) == assemblies

    @pytest.mark.parametrize("inclusion,traces", [
        (None, 1), (DomainSpec("disk", radius=0.5), 2)])
    def test_one_trace_per_solve(self, inclusion, traces, monkeypatch):
        # the deviation and the identity read one trace of v; u adds one
        # only when it differs from v
        calls = []
        monkeypatch.setattr(serrin_diagnostics, "normal_derivative",
                            lambda *a: calls.append(a) or normal_derivative(*a))
        full_report(DomainSpec("disk", radius=1.0), inclusion, 2.0, 0.1)
        assert len(calls) == traces

    def test_csv_row_shape(self, tmp_path):
        rep = full_report(DomainSpec("disk", radius=1.0), None, 1.0, 0.1)
        _write_csv(tmp_path / "report.csv", [asdict(rep)])
        header, row = (tmp_path / "report.csv").read_text().splitlines()
        assert header.split(",") == [f.name for f in fields(SerrinReport)]
        assert len(row.split(",")) == len(header.split(","))
        assert all(math.isfinite(float(tok)) for tok in row.split(","))
