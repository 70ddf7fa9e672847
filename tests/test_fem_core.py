import gc
import math
import pickle
import threading
from dataclasses import replace
from functools import cached_property, partial

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from serrinlab.analytic_oracle import ellipse_torsion_gradient
from serrinlab import fem_core, meshgen
from serrinlab.csr import CSR
from serrinlab.errors import SolverError, ValidationError
from serrinlab.fem_core import (
    element_sigma,
    evaluate,
    hessian_recovery,
    l2_norm,
    load_constant,
    normal_derivative,
    recovered_gradient,
    solve_beside,
    solve_harmonic_dirichlet,
    solve_linearized,
    solve_one_phase,
    solve_two_phase,
    stiffness,
)
from serrinlab.geometry import DomainSpec
from serrinlab.meshgen import generate, refine

from closed_forms import RadialTwoPhaseSolution, disk_green, ellipse_torsion
from conftest import make_square_mesh, scipy_csr


def reference_gradient(mesh, values):
    """Per-vertex least-squares fits of the element gradients, for comparison."""
    p = mesh.vertices[mesh.triangles]
    A = np.concatenate([np.ones((len(p), 3, 1)), p], axis=2)
    ge = np.linalg.solve(A, values[mesh.triangles][..., None])[:, 1:, 0]
    centroids = p.mean(axis=1)
    incident = [[] for _ in range(len(mesh.vertices))]
    for t, tri in enumerate(mesh.triangles):
        for v in tri:
            incident[v].append(t)
    out = np.zeros((len(mesh.vertices), 2))
    for v, tris in enumerate(incident):
        if len(tris) < 3:
            tris = sorted({s for w in mesh.triangles[tris].ravel() for s in incident[w]})
        A = np.column_stack([np.ones(len(tris)), centroids[tris] - mesh.vertices[v]])
        out[v] = np.linalg.lstsq(A, ge[tris], rcond=None)[0][0]
    return out


def einsum_geometry(mesh):
    """(area, grads): the element gradients stacked (T, 3, 2), as stiffness and
    recovered_gradient computed them before Mesh.element_geometry."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = bx[:, 0] * (x[:, 0] - x[:, 2]) + by[:, 0] * (y[:, 0] - y[:, 2])
    return 0.5 * area2, np.stack([bx, by], axis=-1) / area2[:, None, None]


def einsum_stiffness(mesh, sigma):
    """The stiffness by per-element einsum and int64 COO indices, for comparison."""
    area, grads = einsum_geometry(mesh)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), area.shape)
    local = np.einsum("tie,tje->tij", grads, grads) * (sig * area)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = len(mesh.vertices)
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def unblocked_linear_fits(patches, px, py, x0, y0, values, caller):
    """The linear fits over all rows at once, both stages in one pass: the
    bit-for-bit reference of fem_core's blocked stages."""
    indptr, indices = patches.indptr, patches.indices
    counts = np.diff(indptr)
    if np.any(counts < 3):
        raise ValidationError(f"{caller}: degenerate vertex patch")
    starts = indptr[:-1]
    dx = np.take(px, indices) - np.repeat(x0, counts)
    dy = np.take(py, indices) - np.repeat(y0, counts)
    mx = np.add.reduceat(dx, starts) / counts
    my = np.add.reduceat(dy, starts) / counts
    ex = dx - np.repeat(mx, counts)
    ey = dy - np.repeat(my, counts)
    sxx = np.add.reduceat(ex * ex, starts)
    sxy = np.add.reduceat(ex * ey, starts)
    syy = np.add.reduceat(ey * ey, starts)
    det = sxx * syy - sxy * sxy
    if not np.all(det > 1e-10 * (sxx + syy) ** 2):
        raise ValidationError(f"{caller}: degenerate vertex patch")
    rx, ry, total = (sp.csr_matrix((data, indices, indptr), shape=patches.shape) @ values
                     for data in (ex, ey, np.ones(len(indices))))
    bx = (syy[:, None] * rx - sxy[:, None] * ry) / det[:, None]
    by = (sxx[:, None] * ry - sxy[:, None] * rx) / det[:, None]
    return total / counts[:, None] - bx * mx[:, None] - by * my[:, None], bx, by


def linear_fits(patches, px, py, x0, y0, values, caller):
    """fem_core's two stages over the rows of the CSR matrix patches."""
    return fem_core._linear_fits(
        meshgen.patch_moments(patches.indptr, patches.indices, px, py, x0, y0), values, caller)


def unblocked_gradient_fit(mesh, ge):
    """Recovered gradient of the element gradients ge by unblocked_linear_fits
    on patches built in place."""
    n = len(mesh.vertices)
    x, y = mesh.vertices.T
    corners = mesh.triangles.ravel()
    patches = sp.csr_matrix((np.ones(len(corners)),
                             (corners, np.repeat(np.arange(len(ge)), 3))), shape=(n, len(ge)))
    starved = np.diff(patches.indptr) < 3
    if np.any(starved):
        patches = patches + sp.diags(starved * 1.0) @ scipy_csr(mesh.adjacency) @ patches
    return unblocked_linear_fits(patches, np.take(x, mesh.triangles).mean(axis=1),
                                 np.take(y, mesh.triangles).mean(axis=1), x, y, ge,
                                 "recovered_gradient")[0]


def unblocked_recovered_gradient(mesh, values):
    """recovered_gradient with the mesh's element gradients, fitted unblocked."""
    _, gx, gy = mesh.element_geometry
    u = np.take(values, mesh.triangles.T)
    return unblocked_gradient_fit(mesh, np.stack([gx[0] * u[0] + gx[1] * u[1] + gx[2] * u[2],
                                                  gy[0] * u[0] + gy[1] * u[1] + gy[2] * u[2]],
                                                 axis=1))


def unblocked_hessian(mesh, f):
    """hessian_recovery by unblocked_linear_fits over the float adjacency @ adjacency."""
    g = unblocked_recovered_gradient(mesh, f.values)
    x, y = mesh.vertices.T
    adjacency = scipy_csr(mesh.adjacency)
    _, bx, by = unblocked_linear_fits(adjacency @ adjacency, x, y, x, y, g,
                                      "hessian_recovery")
    Hv = np.stack([bx, by], axis=1)
    return 0.5 * (Hv + Hv.transpose(0, 2, 1))


def einsum_recovered_gradient(mesh, values):
    """recovered_gradient with the element gradients by einsum, for comparison."""
    _, grads = einsum_geometry(mesh)
    return unblocked_gradient_fit(mesh, np.einsum("tie,ti->te", grads, values[mesh.triangles]))


def reference_hessian(mesh, f):
    """Per-vertex two-ring least-squares Hessian fits, for comparison."""
    g = recovered_gradient(mesh, f.values)
    neigh = [set() for _ in range(len(mesh.vertices))]
    for a, b, c in mesh.triangles:
        neigh[a].update((b, c))
        neigh[b].update((a, c))
        neigh[c].update((a, b))
    H = np.zeros((len(mesh.vertices), 2, 2))
    for v in range(len(mesh.vertices)):
        patch = {v} | neigh[v]
        for w in list(patch):
            patch |= neigh[w]
        patch = np.fromiter(sorted(patch), dtype=np.int64)
        d = mesh.vertices[patch] - mesh.vertices[v]
        A = np.column_stack([np.ones(len(patch)), d[:, 0], d[:, 1]])
        coef = np.linalg.solve(A.T @ A, A.T @ g[patch])
        H[v] = 0.5 * (coef[1:, :].T + coef[1:, :])
    return H


def square_torsion_center(side=2.0, terms=25):
    """Fourier series for the torsion function of a square, at the center."""
    a = side / 2.0
    total = a * a / 2.0
    for m in range(terms):
        n = 2 * m + 1
        sign = (-1) ** m
        total -= (16.0 * a * a / math.pi ** 3) * sign / (
            n ** 3 * math.cosh(n * math.pi / 2.0))
    return total


@pytest.fixture(scope="module")
def refined_concentric(concentric_mesh):
    return refine(concentric_mesh)


class TestElementGeometry:
    """Assembly and gradient recovery read Mesh.element_geometry and keep the
    floating-point operations, in order, of the per-element einsum."""

    MESHES = ["disk_mesh", "concentric_mesh", "ellipse_mesh", "refined_concentric"]

    @pytest.mark.parametrize("name", MESHES)
    @pytest.mark.parametrize("sigma_c", [None, 2.0])
    def test_stiffness_matches_einsum(self, name, sigma_c, request):
        mesh = request.getfixturevalue(name)
        sigma = 1.0 if sigma_c is None else element_sigma(mesh, sigma_c)
        K, ref = stiffness(mesh, sigma), einsum_stiffness(mesh, sigma)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(K, part), getattr(ref, part))

    @pytest.mark.parametrize("name", MESHES)
    def test_recovered_gradient_matches_einsum(self, name, request):
        mesh = request.getfixturevalue(name)
        x, y = mesh.vertices.T
        values = np.sin(2.0 * x) * np.cos(y) + x * y ** 2
        assert np.array_equal(recovered_gradient(mesh, values),
                              einsum_recovered_gradient(mesh, values))

    def test_geometry_is_built_once(self, ellipse_mesh):
        area, gx, gy = ellipse_mesh.element_geometry
        assert ellipse_mesh.element_geometry[0] is area
        assert gx.shape == gy.shape == (3, len(ellipse_mesh.triangles))
        # the gradients of the three barycentric coordinates sum to zero
        assert np.abs(gx.sum(axis=0)).max() < 1e-9 and np.abs(gy.sum(axis=0)).max() < 1e-9
        np.testing.assert_allclose(area, ellipse_mesh.triangle_areas(), rtol=1e-12)


def recovery_caches(mesh):
    """The one-phase report's work beside v's solve: fill the recovery caches."""
    return mesh.h_max, mesh.gradient_patches, mesh.hessian_patches


# the two uses of solve_beside's work: v beside u's solve at sigma_c 2, and the
# recovery caches beside v's solve
USES = {"pair": (2.0, solve_one_phase), "recovery": (1.0, recovery_caches)}


class TestSolveBeside:
    """solve_beside returns (work(), the serial torsion solve) bit for bit at
    any jobs; with jobs > 1 the solve's CG runs on the worker thread."""

    @pytest.mark.parametrize("use,name", [("pair", "concentric_mesh"),
                                          ("pair", "refined_concentric"),
                                          ("recovery", "disk_mesh"),
                                          ("recovery", "refined_concentric")])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_serial_solves(self, use, name, jobs, request, monkeypatch):
        base = request.getfixturevalue(name)
        sigma_c, work = USES[use]
        refs = [solve_one_phase(base)] + ([solve_two_phase(base, sigma_c)] if use == "pair" else [])
        mesh = replace(base)
        on_main = []
        pcg = fem_core._pcg
        monkeypatch.setattr(fem_core, "_pcg", lambda *a: on_main.append(
            threading.current_thread() is threading.main_thread()) or pcg(*a))
        done, field = solve_beside(mesh, sigma_c, partial(work, mesh), jobs)
        if use == "pair":
            # with jobs > 1 one of the two CG runs on the worker thread
            assert sorted(on_main) == ([True, True] if jobs == 1 else [False, True])
            got = [done, field]
        else:
            assert on_main == [jobs == 1]
            assert {"edge_table", "h_max", "adjacency", "gradient_patches",
                    "hessian_patches"} <= set(vars(mesh))
            got = [field]
        for f, ref in zip(got, refs):
            assert (f.sigma_c, f.iterations, f.residual) == \
                (ref.sigma_c, ref.iterations, ref.residual)
            assert np.array_equal(f.values, ref.values)
            assert np.array_equal(f.boundary_residual, ref.boundary_residual)

    @pytest.mark.parametrize("sigma_c", [1.0, 2.0])
    def test_work_runs_before_solve_at_one_job(self, sigma_c, disk_mesh, monkeypatch):
        # at one job the solve is the module attribute's: solve_one_phase at
        # sigma_c 1, else solve_two_phase
        order = []
        for name in ("solve_one_phase", "solve_two_phase"):
            real = getattr(fem_core, name)
            monkeypatch.setattr(fem_core, name, lambda *a, name=name, real=real:
                                order.append(name) or real(*a))
        done, field = solve_beside(disk_mesh, sigma_c, lambda: order.append("work") or 7, 1)
        solve = "solve_one_phase" if sigma_c == 1.0 else "solve_two_phase"
        assert (done, field.sigma_c, order) == (7, sigma_c, ["work", solve])

    @staticmethod
    def failing_pcg(monkeypatch, errors):
        """Make CG raise errors[on the main thread] where that entry is set."""
        pcg = fem_core._pcg

        def fake(*args):
            err = errors[threading.current_thread() is threading.main_thread()]
            if err is not None:
                raise err
            return pcg(*args)
        monkeypatch.setattr(fem_core, "_pcg", fake)

    @pytest.mark.parametrize("use", ["pair", "recovery"])
    def test_worker_error_reaches_caller(self, use, refined_concentric, monkeypatch):
        err = SolverError("the worker's CG failed")
        self.failing_pcg(monkeypatch, {False: err, True: None})
        sigma_c, work = USES[use]
        mesh = replace(refined_concentric)
        threads = threading.active_count()
        with pytest.raises(SolverError) as info:
            solve_beside(mesh, sigma_c, partial(work, mesh), 2)
        assert info.value is err
        assert threading.active_count() == threads

    def test_both_failing_raise_work_error(self, refined_concentric, monkeypatch):
        v_err, u_err = SolverError("v's CG failed"), SolverError("u's CG failed")
        self.failing_pcg(monkeypatch, {False: u_err, True: v_err})
        threads = threading.active_count()
        with pytest.raises(SolverError) as info:
            solve_beside(refined_concentric, 2.0, partial(solve_one_phase, refined_concentric), 2)
        assert info.value is v_err
        assert threading.active_count() == threads

    def test_sigma_nonpositive_rejected(self, concentric_mesh):
        for jobs in (1, 2):
            for work in (partial(solve_one_phase, concentric_mesh), lambda: None):
                with pytest.raises(ValidationError, match="sigma_c"):
                    solve_beside(concentric_mesh, 0.0, work, jobs)


class TestTwoPhase:
    def test_no_inclusion_center_value(self, disk_mesh):
        u = solve_two_phase(disk_mesh, 5.0)
        assert evaluate(disk_mesh, u, (0, 0)) == pytest.approx(0.25, abs=2e-3)

    def test_concentric_reference(self, concentric_mesh):
        u = solve_two_phase(concentric_mesh, 2.0)
        assert evaluate(concentric_mesh, u, (0, 0)) == pytest.approx(7 / 32, abs=5e-4)

    def test_sigma_one_equals_one_phase(self, concentric_mesh):
        u = solve_two_phase(concentric_mesh, 1.0)
        v = solve_one_phase(concentric_mesh)
        assert np.abs(u.values - v.values).max() < 1e-12

    def test_sigma_nonpositive_rejected(self, concentric_mesh):
        with pytest.raises(ValidationError):
            solve_two_phase(concentric_mesh, 0.0)

    def test_residual_certificate(self, concentric_mesh):
        # relative residual of the reduced (Dirichlet-eliminated) system
        mesh = concentric_mesh
        u = solve_two_phase(mesh, 2.0)
        K = stiffness(mesh, element_sigma(mesh, 2.0))
        b = load_constant(mesh)
        interior = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_loop)
        r = (K @ u.values - b)[interior]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b[interior])

    def test_monotone_in_sigma(self, concentric_mesh):
        # u(center) strictly decreases in sigma_c; matches the closed form
        values = []
        for sc in (0.5, 1.0, 2.0, 4.0):
            u = solve_two_phase(concentric_mesh, sc)
            val = evaluate(concentric_mesh, u, (0, 0))
            exact = RadialTwoPhaseSolution(1.0, 0.5, sc)(0.0)
            assert val == pytest.approx(float(exact), abs=2e-3)
            values.append(val)
        assert all(values[i] > values[i + 1] for i in range(3))

    def test_maximum_principle(self, concentric_mesh):
        u = solve_two_phase(concentric_mesh, 2.0)
        bnd = set(concentric_mesh.boundary_loop.tolist())
        interior = [i for i in range(len(u.values)) if i not in bnd]
        assert np.all(u.values[concentric_mesh.boundary_loop] == 0.0)
        assert u.values[interior].min() > 0
        assert int(np.argmax(u.values)) in interior

    def test_l2_convergence_per_refine(self, concentric_mesh):
        sol = RadialTwoPhaseSolution(1.0, 0.5, 2.0)
        mesh, errs = concentric_mesh, []
        for _ in range(3):
            u = solve_two_phase(mesh, 2.0)
            r = np.clip(np.hypot(*mesh.vertices.T), 0, 1.0)
            errs.append(l2_norm(mesh, u.values - sol(r)))
            mesh = refine(mesh)
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.4 <= e0 / e1 <= 4.6

    def test_l2_convergence_disk_one_phase(self, disk_mesh):
        mesh, errs = disk_mesh, []
        for _ in range(3):
            v = solve_one_phase(mesh)
            r = np.clip(np.hypot(*mesh.vertices.T), 0, 1.0)
            errs.append(l2_norm(mesh, v.values - (1 - r ** 2) / 4))
            mesh = refine(mesh)
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.4 <= e0 / e1 <= 4.6

    def test_cg_failure_carries_residual(self, ellipse_mesh):
        from serrinlab.errors import SolverError

        # a generated mesh solves with Jacobi, which needs 159 iterations here
        Kii, b, _ = TestMultigrid.reduced_system(ellipse_mesh, 1.0)
        with pytest.raises(SolverError, match="residual"):
            fem_core._pcg(Kii, b, 1e-14, 100)


class TestOnePhase:
    def test_disk_center(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        assert evaluate(disk_mesh, v, (0, 0)) == pytest.approx(0.25, abs=1e-3)

    def test_ellipse_closed_form(self, ellipse_mesh):
        v = solve_one_phase(ellipse_mesh)
        exact = ellipse_torsion(1.2, 1.0, 0, 0)
        assert evaluate(ellipse_mesh, v, (0, 0)) == pytest.approx(exact, abs=5e-4)

    def test_square_fourier_series(self):
        mesh = make_square_mesh(n=40)
        v = solve_one_phase(mesh)
        assert evaluate(mesh, v, (0, 0)) == pytest.approx(
            square_torsion_center(), abs=1e-3)
        assert square_torsion_center() == pytest.approx(0.2947, abs=1e-4)


class TestHarmonic:
    def test_constant_data(self, disk_mesh):
        h = solve_harmonic_dirichlet(disk_mesh, lambda p: np.ones(len(p)))
        assert np.abs(h.values - 1.0).max() < 1e-8

    def test_linear_data(self, disk_mesh):
        h = solve_harmonic_dirichlet(disk_mesh, lambda p: p[:, 0])
        assert np.abs(h.values - disk_mesh.vertices[:, 0]).max() < 1e-8

    def test_green_corrector_disk(self, disk_mesh):
        # h(x, y0) with y0=(0.5, 0): harmonic with Gamma data, equals
        # -(1/2pi) ln(|y0| |x - y0*|), y0* = y0/|y0|^2 = (2, 0)
        y0 = np.array([0.5, 0.0])

        def gamma(p):
            return -np.log(np.hypot(p[:, 0] - y0[0], p[:, 1] - y0[1])) / (2 * math.pi)

        h = solve_harmonic_dirichlet(disk_mesh, gamma)
        ystar = np.array([2.0, 0.0])
        exact = -np.log(0.5 * np.hypot(disk_mesh.vertices[:, 0] - ystar[0],
                                       disk_mesh.vertices[:, 1] - ystar[1])) / (2 * math.pi)
        assert np.abs(h.values - exact).max() < 5e-3
        # consistency with the Green's function oracle: G = Gamma - h
        i = int(np.argmin(np.hypot(disk_mesh.vertices[:, 0] + 0.5,
                                   disk_mesh.vertices[:, 1])))
        x = disk_mesh.vertices[i]
        g_fem = gamma(x[None, :])[0] - h.values[i]
        assert g_fem == pytest.approx(disk_green(x, y0), abs=5e-3)

    def test_nonfinite_data_rejected(self, disk_mesh):
        with pytest.raises(ValidationError):
            solve_harmonic_dirichlet(disk_mesh,
                                     lambda p: np.full(len(p), np.nan))


class TestLinearized:
    def test_no_inclusion_zero(self, disk_mesh):
        u = solve_two_phase(disk_mesh, 1.5)
        up = solve_linearized(disk_mesh, 1.5, u)
        assert np.abs(up.values).max() == 0.0

    def test_concentric_derivative_value(self, concentric_mesh):
        u0 = solve_two_phase(concentric_mesh, 1.0)
        up = solve_linearized(concentric_mesh, 1.0, u0)
        assert evaluate(concentric_mesh, up, (0, 0)) == pytest.approx(-0.0625, abs=5e-3)

    def test_fd_quotient_converges_first_order(self, concentric_mesh):
        # |(u(t0+e) - u(t0))/e - u'(t0)| = O(e) on the fixed mesh
        t0 = 0.0
        u_t0 = solve_two_phase(concentric_mesh, 1.0 + t0)
        up = solve_linearized(concentric_mesh, 1.0 + t0, u_t0)
        errs = []
        for e in (0.2, 0.1, 0.05):
            u_e = solve_two_phase(concentric_mesh, 1.0 + t0 + e)
            q = (u_e.values - u_t0.values) / e
            errs.append(l2_norm(concentric_mesh, q - up.values))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.6 <= r <= 2.4 for r in ratios)

    def test_mesh_mismatch_rejected(self, disk_mesh, concentric_mesh):
        u = solve_two_phase(disk_mesh, 2.0)
        with pytest.raises(ValidationError):
            solve_linearized(concentric_mesh, 2.0, u)

    def test_field_rejected_on_a_moved_copy(self, concentric_mesh):
        # the same specs and sizes with other vertices is another mesh
        moved = replace(concentric_mesh, vertices=1.01 * concentric_mesh.vertices)
        u = solve_two_phase(concentric_mesh, 2.0)
        with pytest.raises(ValidationError, match="normal_derivative: field belongs"):
            normal_derivative(moved, u)
        with pytest.raises(ValidationError, match="hessian_recovery: field belongs"):
            hessian_recovery(moved, u)
        with pytest.raises(ValidationError, match="solve_linearized: u_base belongs"):
            solve_linearized(moved, 2.0, u)

    @pytest.mark.skipif(not fem_core._OPENBLAS, reason="no bundled scipy-openblas library")
    def test_solve_runs_on_one_blas_thread(self, concentric_mesh, monkeypatch):
        # a host program may raise the count after import; the solve re-pins
        def counts():
            return {get() for get, _ in fem_core._OPENBLAS}

        seen = []
        pcg = fem_core._pcg
        monkeypatch.setattr(fem_core, "_pcg", lambda *a: seen.append(counts()) or pcg(*a))
        before = [get() for get, _ in fem_core._OPENBLAS]
        for _, set_threads in fem_core._OPENBLAS:
            set_threads(2)
        try:
            solve_two_phase(concentric_mesh, 2.0)
        finally:
            for (_, set_threads), n in zip(fem_core._OPENBLAS, before):
                set_threads(n)
        assert seen == [{1}]


class TestBoundaryResidual:
    """Each solve keeps (K u - b) on the boundary rows, bit for bit."""

    @staticmethod
    def reference(mesh, sigma, f, load):
        return (stiffness(mesh, sigma) @ f.values - load)[mesh.boundary_loop]

    def test_two_phase(self, concentric_mesh):
        mesh = concentric_mesh
        u = solve_two_phase(mesh, 2.0)
        ref = self.reference(mesh, element_sigma(mesh, 2.0), u, load_constant(mesh))
        assert np.array_equal(u.boundary_residual, ref)

    def test_harmonic(self, disk_mesh):
        h = solve_harmonic_dirichlet(disk_mesh, lambda p: p[:, 0] * p[:, 1])
        ref = self.reference(disk_mesh, 1.0, h, np.zeros(len(disk_mesh.vertices)))
        assert np.array_equal(h.boundary_residual, ref)

    def test_linearized(self, concentric_mesh):
        mesh = concentric_mesh
        u = solve_two_phase(mesh, 2.0)
        up = solve_linearized(mesh, 2.0, u)
        b = -(stiffness(mesh, np.where(mesh.region == 1, 1.0, 0.0)) @ u.values)
        ref = self.reference(mesh, element_sigma(mesh, 2.0), up, b)
        assert np.array_equal(up.boundary_residual, ref)

    @pytest.mark.parametrize("name", ["ellipse_mesh", "refined_concentric"])
    def test_one_and_two_phase_from_boundary_rows(self, name, request):
        # the system keeps K[bnd] and load[bnd], not the full K
        mesh = request.getfixturevalue(name)
        assert fem_core._torsion_system(mesh, 2.0)[0].shape == \
            (len(mesh.boundary_loop), len(mesh.vertices))
        for f in (solve_one_phase(mesh), solve_two_phase(mesh, 2.0)):
            ref = self.reference(mesh, element_sigma(mesh, f.sigma_c), f, load_constant(mesh))
            assert np.array_equal(f.boundary_residual, ref)

    def test_flux_recovery_assembles_nothing(self, concentric_mesh, monkeypatch):
        u = solve_two_phase(concentric_mesh, 2.0)
        calls = []
        monkeypatch.setattr(fem_core, "stiffness",
                            lambda *a: calls.append(a) or stiffness(*a))
        normal_derivative(concentric_mesh, u)
        assert calls == []


class TestMultigrid:
    """CG on a refined mesh is preconditioned by a V-cycle down the parent chain;
    on a generated mesh by Jacobi, exactly as before."""

    @staticmethod
    def reduced_system(mesh, sigma):
        interior = mesh.interior
        K = scipy_csr(stiffness(mesh, sigma))
        return K[interior][:, interior].tocsr(), load_constant(mesh)[interior], interior

    @staticmethod
    def assert_matches_direct(mesh, sigma_c):
        u = solve_two_phase(mesh, sigma_c)
        Kii, b, interior = TestMultigrid.reduced_system(mesh, element_sigma(mesh, sigma_c))
        direct = splu(Kii.tocsc()).solve(b)
        err = np.linalg.norm(u.values[interior] - direct) / np.linalg.norm(direct)
        assert err <= 1e-10
        assert np.all(u.values[mesh.boundary_loop] == 0.0)
        return u

    def test_refined_inclusion_mesh(self, ellipse_spec):
        coarse = generate(ellipse_spec, DomainSpec("disk", radius=0.3), 0.05)
        u = self.assert_matches_direct(refine(coarse), 2.0)
        assert 1 <= u.iterations <= 20
        assert u.residual <= 1e-10

    def test_three_levels(self, disk_mesh):
        fine = refine(refine(disk_mesh))
        assert fine.parent.parent is disk_mesh
        u = self.assert_matches_direct(fine, 1.0)
        assert 1 <= u.iterations <= 20

    def test_iterations_do_not_grow_with_refinement(self, concentric_mesh):
        mesh, its = concentric_mesh, []
        for _ in range(2):
            mesh = refine(mesh)
            its.append(solve_two_phase(mesh, 2.0).iterations)
        assert its[1] <= its[0] + 2

    @pytest.mark.parametrize("name,sigma_c,iterations",
                             [("ellipse_mesh", 1.0, 133), ("concentric_mesh", 2.0, 60)])
    def test_generated_mesh_keeps_jacobi(self, name, sigma_c, iterations, request):
        mesh = request.getfixturevalue(name)
        assert mesh.parent is None
        u = solve_two_phase(mesh, sigma_c)
        assert u.iterations == iterations
        # the same bits as Jacobi CG on the reduced system sliced in two steps
        Kii, b, interior = self.reduced_system(mesh, element_sigma(mesh, sigma_c))
        x, its, res = fem_core._pcg(Kii, b, 1e-10, 10000)
        assert its == iterations and res == u.residual
        assert np.array_equal(u.values[interior], x)

    def test_prolongation_built_once_per_mesh(self, concentric_mesh, monkeypatch):
        # the one-phase and two-phase solves of one mesh share the interior
        # restriction of its prolongation, and the full prolongation is not kept
        built = meshgen.Mesh.prolongation
        calls = []
        monkeypatch.setattr(meshgen.Mesh, "prolongation",
                            lambda mesh: calls.append(mesh) or built(mesh))
        fine = refine(concentric_mesh)
        solve_one_phase(fine)
        solve_two_phase(fine, 2.0)
        assert calls == [fine] and "interior_prolongation" in vars(fine)
        full = (len(fine.vertices), len(concentric_mesh.vertices))
        assert built(fine).shape == full
        assert not any(isinstance(v, CSR) and v.shape == full for v in vars(fine).values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interior_prolongation_built_once_per_mesh(self, disk_mesh, jobs, monkeypatch):
        # v's and u's V-cycles on one mesh share each level's restricted P and R
        built = meshgen.Mesh.__dict__["interior_prolongation"].func
        calls = []
        counted = cached_property(lambda mesh: calls.append(mesh) or built(mesh))
        counted.__set_name__(meshgen.Mesh, "interior_prolongation")
        monkeypatch.setattr(meshgen.Mesh, "interior_prolongation", counted)
        fine = refine(refine(disk_mesh))
        solve_beside(fine, 2.0, partial(solve_one_phase, fine), jobs)
        P, R = vars(fine)["interior_prolongation"]
        solve_two_phase(fine, 3.0)
        assert calls == [fine, fine.parent]
        assert vars(fine)["interior_prolongation"][0] is P
        assert P.shape == (len(fine.interior), len(fine.parent.interior))
        assert np.array_equal(scipy_csr(R).toarray(), scipy_csr(P).T.toarray())
        assert "interior_prolongation" not in vars(pickle.loads(pickle.dumps(fine)))

    def test_vcycle_is_symmetric_positive_definite(self, disk_mesh):
        fine = refine(refine(disk_mesh))
        _, Kii, _, _, _ = fem_core._torsion_system(fine, 1.0)
        B = fem_core._vcycle(fine, Kii)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, Kii.shape[0]))
        assert x @ B(y) == pytest.approx(y @ B(x), rel=1e-12)
        assert x @ B(x) > 0

    def test_solve_leaves_no_reference_cycle(self, disk_mesh):
        # each solve's V-cycle factors are freed on return, not by the cyclic
        # collector, so memory does not pile up between collections
        fine = refine(disk_mesh)
        gc.collect()
        gc.disable()
        try:
            solve_one_phase(fine)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_vcycle_failure_carries_residual(self, disk_mesh):
        from serrinlab.errors import SolverError

        fine = refine(disk_mesh)
        _, Kii, b, _, _ = fem_core._torsion_system(fine, 1.0)
        with pytest.raises(SolverError, match="residual"):
            fem_core._pcg(Kii, b, 1e-14, 2, fem_core._vcycle(fine, Kii))

    def test_field_keeps_cg_record(self, disk_mesh, concentric_mesh):
        v = solve_one_phase(disk_mesh)
        assert v.iterations > 0 and 0.0 < v.residual <= 1e-10
        up = solve_linearized(concentric_mesh, 2.0, solve_two_phase(concentric_mesh, 2.0))
        assert up.iterations > 0 and up.residual <= 1e-10
        from serrinlab.fem_core import Field

        h = Field(disk_mesh, v.values + (disk_mesh.vertices ** 2).sum(axis=1) / 4.0)
        assert h.iterations is None and h.residual is None


class TestSparseLU:
    def test_factors_exactly_as_scipy_splu(self, ellipse_spec, monkeypatch):
        """fem_core.splu calls SuperLU as scipy.sparse.linalg.splu does, on the
        two matrices the program factors: the coarse Galerkin operator at the
        bottom of a V-cycle and normal_derivative's boundary mass matrix."""
        factored = []

        def spy(A, permc_spec):
            factored.append((A, permc_spec))
            return program_splu(A, permc_spec)

        program_splu = fem_core.splu
        monkeypatch.setattr(fem_core, "splu", spy)
        coarse = generate(ellipse_spec, DomainSpec("disk", radius=0.3), 0.05)
        fine = refine(coarse)
        normal_derivative(fine, solve_two_phase(fine, 2.0))
        assert [(A.shape[0], spec) for A, spec in factored] == [
            (len(coarse.interior), "COLAMD"), (len(fine.boundary_loop), "COLAMD")]
        rng = np.random.default_rng(0)
        for A, _ in factored:
            ours = program_splu(A, "COLAMD")
            ref = splu(scipy_csr(A).tocsc(), permc_spec="COLAMD")
            assert np.array_equal(ours.perm_r, ref.perm_r)
            assert np.array_equal(ours.perm_c, ref.perm_c)
            for mine, theirs in ((ours.L, ref.L), (ours.U, ref.U)):
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(mine, part), getattr(theirs, part))
            b = rng.standard_normal(A.shape[0])
            assert np.array_equal(ours.solve(b), ref.solve(b))


class TestNormalDerivative:
    def test_disk_one_phase(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        tr = normal_derivative(disk_mesh, v)
        assert np.abs(tr.values + 0.5).max() < 5e-3

    def test_concentric_flux_unchanged(self, concentric_mesh):
        u = solve_two_phase(concentric_mesh, 3.0)
        tr = normal_derivative(concentric_mesh, u)
        assert np.abs(tr.values + 0.5).max() < 5e-3

    def test_ellipse_axis_values(self, ellipse_mesh):
        v = solve_one_phase(ellipse_mesh)
        tr = normal_derivative(ellipse_mesh, v)
        ang = np.arctan2(tr.points[:, 1], tr.points[:, 0])
        i_a = int(np.argmin(np.abs(ang)))
        i_b = int(np.argmin(np.abs(ang - math.pi / 2)))
        assert tr.values[i_a] == pytest.approx(-1.2 / 2.44, abs=3e-3)
        assert tr.values[i_b] == pytest.approx(-1.44 / 2.44, abs=3e-3)
        # axis values from the closed-form gradient oracle
        assert np.hypot(*ellipse_torsion_gradient(1.2, 1.0, 1.2, 0.0)) == pytest.approx(
            1.2 / 2.44, abs=1e-12)
        assert np.hypot(*ellipse_torsion_gradient(1.2, 1.0, 0.0, 1.0)) == pytest.approx(
            1.44 / 2.44, abs=1e-12)

    def test_flux_balance(self, disk_mesh, concentric_mesh, ellipse_mesh):
        for mesh, sc in ((disk_mesh, 1.0), (concentric_mesh, 2.0),
                         (ellipse_mesh, 1.0)):
            f = solve_two_phase(mesh, sc)
            tr = normal_derivative(mesh, f)
            total = float(tr.values @ tr.weights)
            area = float(mesh.triangle_areas().sum())
            assert abs(total + area) <= 1e-8 * area

    def test_weights_sum_to_perimeter(self, disk_mesh):
        v = solve_one_phase(disk_mesh)
        tr = normal_derivative(disk_mesh, v)
        p = disk_mesh.vertices[disk_mesh.boundary_loop]
        perim = float(np.hypot(*(np.roll(p, -1, axis=0) - p).T).sum())
        assert float(tr.weights.sum()) == pytest.approx(perim, rel=1e-12)

    def test_trace_linf_convergence(self, disk_mesh):
        mesh, errs = disk_mesh, []
        for _ in range(3):
            v = solve_one_phase(mesh)
            tr = normal_derivative(mesh, v)
            errs.append(np.abs(tr.values + 0.5).max())
            mesh = refine(mesh)
        assert all(e0 / e1 >= 1.8 for e0, e1 in zip(errs, errs[1:]))

    def test_derived_field_rejected(self, disk_mesh):
        from serrinlab.fem_core import Field

        bogus = Field(disk_mesh, np.zeros(len(disk_mesh.vertices)))
        with pytest.raises(ValidationError):
            normal_derivative(disk_mesh, bogus)


class TestRecoveredGradient:
    def test_exactness_with_starved_corners(self):
        # two square corners lie on two triangles and two on one, so they
        # take the widened patch
        mesh = make_square_mesh()
        counts = np.bincount(mesh.triangles.ravel(), minlength=len(mesh.vertices))
        assert np.count_nonzero(counts < 3) == 4
        x, y = mesh.vertices.T
        g = recovered_gradient(mesh, 1.0 + 2.0 * x - y)
        assert np.abs(g - [2.0, -1.0]).max() < 1e-10
        # a quadratic is recovered exactly where the patch is point-symmetric
        g = recovered_gradient(mesh, 3.0 * x ** 2 + x * y - 2.0 * y ** 2)
        exact = np.column_stack([6.0 * x + y, x - 4.0 * y])
        interior = np.setdiff1d(np.arange(len(x)), mesh.boundary_loop)
        assert np.abs(g - exact)[interior].max() < 1e-10

    @pytest.mark.parametrize("name", ["square", "disk_mesh"])
    def test_matches_reference_loop(self, name, request):
        mesh = make_square_mesh() if name == "square" else request.getfixturevalue(name)
        x, y = mesh.vertices.T
        values = np.sin(2.0 * x) * np.cos(y) + x * y ** 2
        ref = reference_gradient(mesh, values)
        np.testing.assert_allclose(recovered_gradient(mesh, values), ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())


def fan_mesh():
    """Three triangles fanned from the origin to four points on y = 1: every
    recovery patch holds their three centroids, which lie on y = 2/3."""
    vertices = np.array([[0.0, 0.0], [1.5, 1.0], [0.5, 1.0], [-0.5, 1.0], [-1.5, 1.0]])
    triangles = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]], dtype=np.int64)
    loop = np.arange(5, dtype=np.int64)
    return meshgen.Mesh(vertices=vertices, triangles=triangles,
                        region=np.zeros(3, dtype=np.int8), boundary_loop=loop,
                        boundary_params=2.0 * np.pi * loop / 5, interface_loop=None,
                        interface_params=None, domain=None, inclusion=None, target_h=1.0)


class TestDegeneratePatch:
    def test_collinear_centroids_rejected(self):
        mesh = fan_mesh()
        with pytest.raises(ValidationError, match="^recovered_gradient: degenerate vertex patch"):
            recovered_gradient(mesh, mesh.vertices[:, 0] ** 2)

    @pytest.mark.parametrize("slope", [0.0, 0.3, np.inf])
    def test_collinear_samples_rejected_by_the_fit(self, slope):
        # four samples on a line through (0.1, 0.2), one patch holding them all
        t = np.array([0.1, 0.25, 0.7, 1.3])
        px, py = (0.1 + 0 * t, 0.2 + t) if slope == np.inf else (t, 0.2 + slope * t)
        patches = sp.csr_matrix(np.ones((1, 4)))
        with pytest.raises(ValidationError, match="^caller: degenerate vertex patch"):
            linear_fits(patches, px, py, np.zeros(1), np.zeros(1), np.ones((4, 2)), "caller")

    def test_fit_of_a_plane_is_exact(self):
        # the same patch off the line fits a linear field exactly
        px, py = np.array([0.1, 0.25, 0.7, 1.3]), np.array([0.2, 0.5, 0.1, 0.9])
        values = np.column_stack([1.0 + 2.0 * px - py, -3.0 * py])
        c, bx, by = linear_fits(sp.csr_matrix(np.ones((1, 4))), px, py,
                                np.array([0.5]), np.array([0.5]), values, "fit")
        np.testing.assert_allclose(c, [[1.5, -1.5]], rtol=1e-13)
        np.testing.assert_allclose(bx, [[2.0, 0.0]], atol=1e-13)
        np.testing.assert_allclose(by, [[-1.0, -3.0]], rtol=1e-13)


class TestHessianRecovery:
    def test_quadratic_x2(self, disk_mesh):
        from serrinlab.fem_core import Field

        f = Field(disk_mesh, disk_mesh.vertices[:, 0] ** 2)
        H = hessian_recovery(disk_mesh, f)
        r = np.hypot(*disk_mesh.vertices.T)
        deep = r < 0.6
        assert np.abs(H[deep, 0, 0] - 2.0).max() < 0.15
        assert np.abs(H[deep, 1, 1]).max() < 0.15

    def test_linear_exact(self, disk_mesh):
        from serrinlab.fem_core import Field

        f = Field(disk_mesh, 3.0 * disk_mesh.vertices[:, 0]
                  - 2.0 * disk_mesh.vertices[:, 1])
        H = hessian_recovery(disk_mesh, f)
        assert np.abs(H).max() < 1e-10

    @pytest.mark.parametrize("name", ["ellipse_mesh", "concentric_mesh", "square"])
    def test_matches_reference_loop(self, name, request):
        mesh = make_square_mesh() if name == "square" else request.getfixturevalue(name)
        v = solve_one_phase(mesh)
        ref = reference_hessian(mesh, v)
        np.testing.assert_allclose(hessian_recovery(mesh, v), ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max())

    def test_ellipse_torsion_hessian(self, ellipse_mesh):
        v = solve_one_phase(ellipse_mesh)
        H = hessian_recovery(ellipse_mesh, v)
        r = np.hypot(*ellipse_mesh.vertices.T)
        deep = r < 0.5
        assert np.abs(H[deep, 0, 0] + 1.0 / 2.44).max() < 0.05
        assert np.abs(H[deep, 1, 1] + 1.44 / 2.44).max() < 0.05


class TestBlockedRecovery:
    """Recovery fits a row block at a time from per-mesh patch moments, bit
    for bit the unblocked fits, and keeps no per-sample floats."""

    @pytest.mark.parametrize("name", ["disk_mesh", "concentric_mesh", "refined_concentric",
                                      "square"])
    @pytest.mark.parametrize("block_rows", [7, 100, 1 << 20])
    def test_matches_unblocked_reference(self, name, block_rows, request, monkeypatch):
        # a fresh copy builds its caches at this block size; the square's
        # corners are starved, and no row count here is a multiple of 7 or 100
        base = make_square_mesh() if name == "square" else request.getfixturevalue(name)
        mesh = replace(base)
        assert len(mesh.vertices) % block_rows != 0
        monkeypatch.setattr(meshgen, "_BLOCK_ROWS", block_rows)
        v = solve_one_phase(mesh)
        assert np.array_equal(recovered_gradient(mesh, v.values),
                              unblocked_recovered_gradient(mesh, v.values))
        assert np.array_equal(hessian_recovery(mesh, v), unblocked_hessian(mesh, v))

    def test_caches_keep_int32_structure_and_row_moments(self, refined_concentric, monkeypatch):
        monkeypatch.setattr(meshgen, "_BLOCK_ROWS", 100)
        mesh = replace(refined_concentric)
        ring = scipy_csr(mesh.adjacency) @ scipy_csr(mesh.adjacency)
        hp = mesh.hessian_patches
        assert np.array_equal(hp.indptr, ring.indptr) and np.array_equal(hp.indices, ring.indices)
        for patches in (mesh.gradient_patches, hp):
            assert patches.indices.dtype == np.int32 and patches.ok
            per_sample = [k for k, a in patches._asdict().items()
                          if np.ndim(a) and len(a) == len(patches.indices)]
            assert per_sample == ["indices"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_degenerate_patch_raised_by_recovery_at_any_jobs(self, jobs):
        # building the moments never raises; the fit that reads them does
        mesh = fan_mesh()
        _, v = solve_beside(mesh, 1.0, partial(recovery_caches, mesh), jobs)
        assert not mesh.gradient_patches.ok
        with pytest.raises(ValidationError, match="^recovered_gradient: degenerate vertex patch"):
            hessian_recovery(mesh, v)
