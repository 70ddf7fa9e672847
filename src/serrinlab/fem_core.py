"""P1 finite elements for the four boundary value problems of the laboratory.

All solves share one assembly path (exact P1 stiffness, centroid rule for the
constant load, elementwise-constant conductivity) and one deterministic
preconditioned conjugate-gradient kernel.  On a mesh made by refine() the
preconditioner is one symmetric multigrid V-cycle down the parent chain,
interpolating by each level's Mesh.interior_prolongation; on a generated mesh
it is Jacobi.  Either way CG stops on the same unpreconditioned residual, at the
fixed relative tolerance CG_REL_TOLERANCE within the fixed cap of 20
sqrt(unknowns) + 1000 iterations.  Every matrix is a serrinlab.csr CSR,
whose operations are scipy's compiled sparse kernels called as scipy.sparse
calls them.  The sparse LU of the cycle's bottom level, and of flux
recovery's cyclic tridiagonal boundary mass system, is splu: SuperLU's gstrf
called as scipy.sparse.linalg.splu calls it.  So neither scipy.sparse nor
scipy.sparse.linalg is imported.  Each solve assembles its stiffness matrix
once, from the element gradients its Mesh keeps, and keeps the residual
K u - b on the boundary rows, which is all that variational flux recovery
needs.
A solve has two stages: assembly (stiffness, Dirichlet elimination) and solve
(V-cycle set-up, CG, the Field).  solve_beside runs one torsion solve beside
work its caller picks; with jobs > 1 the solve stage, assembled on the
caller, runs on one worker thread while the caller runs the work.  The mesh
caches the worker reads are filled before it starts, so every field is the
serial one bit for bit; the threads overlap because the sparse LU, the
sparse kernels and numpy release the GIL.  Gradient and Hessian recovery fit
over vertex patches in two stages: patch moments, kept per Mesh, and the fits
of the values, a row block at a time.
Importing this module pins every OpenBLAS bundled with numpy and scipy to one
thread, and each solve pins it again (a no-op in a pinned process), so CG's
dot products sum in one order whatever the core count, the number of sweep
workers or a host program's later thread setting; forked workers inherit the
pin.  Nothing here writes a file: cli_io writes a Field and its mesh to
field.txt.
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np
from scipy.sparse.linalg._dsolve._superlu import gstrf

from .csr import CSR
from .errors import SolverError, ValidationError
from .meshgen import Mesh, row_blocks


# CG stops at this relative residual, or fails after 20 sqrt(n) + 1000
# iterations on n unknowns
CG_REL_TOLERANCE = 1e-10


def _bundled_openblas():
    """(get_num_threads, set_num_threads) of each scipy-openblas library
    bundled in the numpy and scipy wheels (none where there is no such library)."""
    calls = []
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.util.find_spec(pkg).origin).parents[1] / f"{pkg}.libs"
        for path in sorted(libdir.glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            suffix = "64_" if hasattr(lib, "scipy_openblas_get_num_threads64_") else ""
            get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}")
                         for op in ("get", "set"))
            set_.argtypes, set_.restype = [ctypes.c_int], None  # get: int(void), the default
            calls.append((get, set_))
    return calls


_OPENBLAS = _bundled_openblas()


def pin_one_blas_thread():
    """Set each bundled OpenBLAS not on one thread to one: any set, even of the
    current count, restarts the thread pool after a fork, whose threads spin."""
    for get_threads, set_threads in _OPENBLAS:
        if get_threads() != 1:
            set_threads(1)


pin_one_blas_thread()


@dataclass
class Field:
    """Nodal scalar field on the mesh it holds.

    boundary_residual is (K u - b)[boundary_loop] of the variational problem the
    field solves, the boundary load that variational flux recovery inverts;
    iterations and residual are the CG iteration count and final relative
    residual of that solve.  All three are None for fields built from values,
    which solve no problem.
    """

    mesh: Mesh
    values: np.ndarray
    sigma_c: float = 1.0
    boundary_residual: Optional[np.ndarray] = None
    iterations: Optional[int] = None
    residual: Optional[float] = None


@dataclass
class BoundaryTrace:
    """Per-boundary-node values in CCW loop order with arc-length weights."""

    points: np.ndarray
    values: np.ndarray
    weights: np.ndarray


def element_sigma(mesh, sigma_c):
    return np.where(mesh.region == 1, float(sigma_c), 1.0)


def stiffness(mesh: Mesh, sigma=1.0) -> CSR:
    """Assemble the P1 stiffness matrix; sigma is a scalar or per-element array.

    Entry (i, j) of element t is (gx_i gx_j + gy_i gy_j) sigma area, from the
    mesh's element_geometry; the entries run element by element, row-major in
    (i, j), so CSR.from_coo sums each vertex pair's duplicates in one fixed order.
    """
    area, gx, gy = mesh.element_geometry
    weight = np.asarray(sigma, dtype=float) * area
    local = np.empty((len(area), 9))
    for i in range(3):
        for j in range(i, 3):
            # (j, i) is the same product, bit for bit
            local[:, 3 * i + j] = local[:, 3 * j + i] = (gx[i] * gx[j] + gy[i] * gy[j]) * weight
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = len(mesh.vertices)
    return CSR.from_coo(rows, cols, local.ravel(), (n, n))


def mass_matrix(mesh: Mesh) -> CSR:
    area = mesh.triangle_areas()
    local = (np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0)
    vals = local[None, :, :] * area[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = len(mesh.vertices)
    return CSR.from_coo(rows, cols, vals.ravel(), (n, n))


def load_constant(mesh: Mesh) -> np.ndarray:
    """Load vector of the unit source: int phi_i = area/3 per adjacent element."""
    area = mesh.triangle_areas()
    b = np.zeros(len(mesh.vertices))
    np.add.at(b, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    return b


def _pcg(A, b, tol, max_iter, precond=None):
    """Deterministic preconditioned CG; stops on the unpreconditioned residual.

    precond maps a residual to a search correction (the V-cycle of a refined
    mesh); None preconditions with the diagonal (Jacobi).  Returns the
    solution, the iteration count and the final relative residual.
    """
    n = len(b)
    normb = float(np.linalg.norm(b))
    if normb == 0.0:
        return np.zeros(n), 0, 0.0
    if precond is None:
        dinv = 1.0 / A.diagonal()

        def precond(r):
            return dinv * r
    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        resid = float(np.linalg.norm(r))
        if resid <= tol * normb:
            return x, it, resid / normb
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG stalled after {max_iter} iterations (relative residual {resid/normb:.3e})")


def _csc_array(*args, **kwargs):
    """scipy.sparse.csc_array, for SuperLU to build its L or U factor from:
    imported on that first read, which no command makes."""
    from scipy.sparse import csc_array
    return csc_array(*args, **kwargs)


def splu(A: CSR, permc_spec):
    """Sparse LU of A: SuperLU's gstrf called on A's CSC arrays with the
    arguments scipy.sparse.linalg.splu(A.tocsc(), permc_spec) passes it on
    scipy 1.17.1 for a permc_spec other than NATURAL, without importing
    scipy.sparse.linalg.  A holds no duplicate entries."""
    csc = A.transpose()
    options = dict(DiagPivotThresh=None, ColPerm=permc_spec, PanelSize=None, Relax=None)
    return gstrf(A.shape[0], len(csc.data), csc.data, csc.indices, csc.indptr,
                 csc_construct_func=_csc_array, ilu=False, options=options)


# damped-Jacobi smoothing of the V-cycle: weight and sweeps before and after
# the coarse correction
_OMEGA = 0.7
_SWEEPS = 2


def _vcycle(mesh, A):
    """Symmetric V-cycle for the interior system A of a refined mesh.

    One level per refine() step: damped-Jacobi smoothing around the Galerkin
    coarse operator P^T A P, with P the mesh's interior_prolongation (its
    prolongation restricted to the interior rows and columns), factored by
    sparse LU on the generated mesh at the bottom of the chain.  refine()
    moves interface midpoints onto the curve, where P still interpolates
    linearly; that weakens the cycle a little, never the solution.  Returns
    the preconditioner r -> B r.
    """
    levels = []
    while mesh.parent is not None:
        P, R = mesh.interior_prolongation
        levels.append((A, _OMEGA / A.diagonal(), P, R))
        A = R @ A @ P
        mesh = mesh.parent
    # a partial, not a closure that calls itself: that would be a reference
    # cycle, and each solve's factors would wait for the cyclic collector
    return partial(_cycle, levels, splu(A, "COLAMD"))


def _cycle(levels, bottom, r, k=0):
    """B r on level k: smooth, correct from level k + 1, smooth again."""
    if k == len(levels):
        return bottom.solve(r)
    A, wdinv, P, R = levels[k]
    x = wdinv * r
    for _ in range(_SWEEPS - 1):
        x += wdinv * (r - A @ x)
    x += P @ _cycle(levels, bottom, R @ (r - A @ x), k + 1)
    for _ in range(_SWEEPS):
        x += wdinv * (r - A @ x)
    return x


def _assemble_dirichlet(mesh, sigma, load, boundary_values):
    """Assembly stage of a Dirichlet solve: the stiffness K of conductivity
    sigma, with the Dirichlet rows eliminated into the reduced SPD system
    Kii xi = rhs on the interior vertices.  Returns (K[bnd], Kii, rhs, x,
    load[bnd]) for _solve_assembled, x holding boundary_values on bnd."""
    K = stiffness(mesh, sigma)
    bnd = mesh.boundary_loop
    interior = mesh.interior
    x = np.zeros(len(mesh.vertices))
    x[bnd] = boundary_values
    Ki = K.rows(interior)
    rhs = load[interior] - Ki.columns(bnd) @ x[bnd]
    return K.rows(bnd), Ki.columns(interior), rhs, x, load[bnd]


def _solve_assembled(mesh, system, sigma_c=1.0):
    """Solve stage: CG on the reduced system of _assemble_dirichlet,
    V-cycle-preconditioned on a refined mesh, on one OpenBLAS thread; the Field
    keeps its boundary residual K[bnd] x - load[bnd] and its CG record."""
    pin_one_blas_thread()
    Kb, Kii, rhs, x, load_b = system
    precond = _vcycle(mesh, Kii) if mesh.parent is not None else None
    max_iter = int(20 * math.sqrt(len(rhs))) + 1000
    xi, its, res = _pcg(Kii, rhs, CG_REL_TOLERANCE, max_iter, precond)
    x[mesh.interior] = xi
    return Field(mesh, x, sigma_c, Kb @ x - load_b, its, res)


def _torsion_system(mesh, sigma_c):
    """Assembled system of -div(sigma grad u) = 1, u = 0 on the outer boundary."""
    if sigma_c <= 0:
        raise ValidationError("sigma_c: must be positive")
    return _assemble_dirichlet(mesh, element_sigma(mesh, sigma_c), load_constant(mesh), 0.0)


def solve_two_phase(mesh: Mesh, sigma_c: float) -> Field:
    """Galerkin solution of -div(sigma grad u) = 1, u = 0 on the outer boundary."""
    return _solve_assembled(mesh, _torsion_system(mesh, sigma_c), sigma_c)


def solve_one_phase(mesh: Mesh) -> Field:
    """Torsion function: -Laplace(v) = 1 with zero Dirichlet data."""
    return _solve_assembled(mesh, _torsion_system(mesh, 1.0))


def solve_beside(mesh: Mesh, sigma_c: float, work: Callable, jobs: int):
    """(work(), the torsion solve at sigma_c): solve_one_phase's at sigma_c 1,
    else solve_two_phase's, bit for bit.  With jobs <= 1 work runs first, then
    the solve, by those module attributes.  With jobs > 1 the solve is
    assembled here and its solve stage runs on one worker thread while this
    thread runs work(); if both fail, work's error is raised.  The mesh
    chain's caches that the solve reads are filled, and BLAS pinned, before
    the worker starts; assembling on the worker would be no faster, and its
    malloc arena would keep the assembly transients."""
    if jobs <= 1:
        return work(), (solve_one_phase(mesh) if sigma_c == 1.0
                        else solve_two_phase(mesh, sigma_c))
    system = _torsion_system(mesh, sigma_c)
    level = mesh
    while level.parent is not None:
        level.interior_prolongation
        level = level.parent
    pin_one_blas_thread()
    with ThreadPoolExecutor(1) as pool:
        field = pool.submit(_solve_assembled, mesh, system, sigma_c)
        return work(), field.result()


def solve_harmonic_dirichlet(mesh: Mesh, g: Union[Callable, np.ndarray]) -> Field:
    """Discrete harmonic field with nodal boundary trace g."""
    pts = mesh.vertices[mesh.boundary_loop]
    gb = np.asarray(g(pts) if callable(g) else g, dtype=float)
    if gb.shape != (len(mesh.boundary_loop),) or not np.all(np.isfinite(gb)):
        raise ValidationError("harmonic data: need finite values at all boundary vertices")
    system = _assemble_dirichlet(mesh, 1.0, np.zeros(len(mesh.vertices)), gb)
    return _solve_assembled(mesh, system)


def solve_linearized(mesh: Mesh, sigma_c: float, u_base: Field) -> Field:
    """Derivative of the solution map with respect to the contrast t = sigma_c - 1.

    Differentiating the weak form gives
        int sigma(t0) grad u' . grad phi = - int_D grad u_base . grad phi,
    so the load is minus the inclusion-masked stiffness applied to u_base.
    """
    if u_base.mesh is not mesh:
        raise ValidationError("solve_linearized: u_base belongs to a different mesh")
    if u_base.sigma_c != sigma_c:
        raise ValidationError("solve_linearized: u_base was solved with another sigma_c")
    K_d = stiffness(mesh, np.where(mesh.region == 1, 1.0, 0.0))
    system = _assemble_dirichlet(mesh, element_sigma(mesh, sigma_c), -(K_d @ u_base.values), 0.0)
    return _solve_assembled(mesh, system, sigma_c)


def normal_derivative(mesh: Mesh, f: Field) -> BoundaryTrace:
    """Variational flux recovery on the outer boundary.

    Solves the boundary mass system  int_b (dn f) phi = int sigma grad f grad phi
    - (load, phi)  over boundary test functions, whose right-hand side is the
    residual the solve kept; superconvergent on smooth data.
    """
    if f.mesh is not mesh:
        raise ValidationError("normal_derivative: field belongs to a different mesh")
    if f.boundary_residual is None:
        raise ValidationError("normal_derivative: field does not carry its boundary residual")
    ell = mesh.boundary_edge_lengths()
    nb = len(ell)
    lumped = ell + np.roll(ell, 1)
    upper = ell / 6.0
    # cyclic tridiagonal: ell_i / 6 at (i, i + 1) and (i + 1, i), indices mod nb
    i = np.arange(nb)
    M = CSR.from_coo(np.repeat(i, 3), np.stack([i - 1, i, i + 1], axis=1).ravel() % nb,
                     np.stack([np.roll(upper, 1), lumped / 3.0, upper], axis=1).ravel(),
                     (nb, nb))
    lam = splu(M, "COLAMD").solve(f.boundary_residual)
    # arc-length weights int phi_i over the boundary loop (sum = perimeter)
    return BoundaryTrace(mesh.vertices[mesh.boundary_loop], lam, 0.5 * lumped)


def _linear_fits(patches, values, caller):
    """Value stage of the least-squares linear fits c + b . (p - (x0, y0)) of
    the columns of values over meshgen.patch_moments' patches: with centred
    offsets e, (sum e e^T) b = sum e values[k] and c = mean values - b . m,
    the sums being mat-vecs with the (e_x | e_y | 1, indices, indptr)
    matrices, a row block at a time.  Returns (c, b_x, b_y), each (n, m)."""
    if not patches.ok:
        raise ValidationError(f"{caller}: degenerate vertex patch")
    c, bx, by = (np.empty((len(patches.mx), values.shape[1])) for _ in range(3))
    for lo, hi, ptr, entries in row_blocks(patches.indptr):
        counts, idx = np.diff(ptr), patches.indices[entries]
        mx, my, sxx, sxy, syy, det = (a[lo:hi] for a in patches[6:12])
        ex, ey = (np.take(p, idx) - np.repeat(p0[lo:hi], counts) - np.repeat(m, counts)
                  for p, p0, m in ((patches.px, patches.x0, mx), (patches.py, patches.y0, my)))
        rx, ry, total = (CSR(ptr, idx, data, (hi - lo, len(values))) @ values
                         for data in (ex, ey, np.ones(len(idx))))
        bx[lo:hi] = (syy[:, None] * rx - sxy[:, None] * ry) / det[:, None]
        by[lo:hi] = (sxx[:, None] * ry - sxy[:, None] * rx) / det[:, None]
        c[lo:hi] = total / counts[:, None] - bx[lo:hi] * mx[:, None] - by[lo:hi] * my[:, None]
    return c, bx, by


def recovered_gradient(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Superconvergent patch recovery of the gradient at each vertex.

    Least-squares linear fit of the element-centroid gradients over the
    patches of Mesh.gradient_patches, evaluated at the vertex, by
    _linear_fits' centred moment sums.  Exact for linear fields on any patch,
    and for quadratic fields on point-symmetric patches, where the element
    gradient errors cancel.
    """
    _, gx, gy = mesh.element_geometry
    u = np.take(values, mesh.triangles.T)
    ge = np.stack([gx[0] * u[0] + gx[1] * u[1] + gx[2] * u[2],
                   gy[0] * u[0] + gy[1] * u[1] + gy[2] * u[2]], axis=1)
    return _linear_fits(mesh.gradient_patches, ge, "recovered_gradient")[0]


def hessian_recovery(mesh: Mesh, f: Field) -> np.ndarray:
    """Per-vertex symmetric Hessian: the slopes of least-squares linear fits
    of the recovered gradient over the two-ring vertex patches of
    Mesh.hessian_patches, by _linear_fits' centred moment sums."""
    if f.mesh is not mesh:
        raise ValidationError("hessian_recovery: field belongs to a different mesh")
    g = recovered_gradient(mesh, f.values)
    _, bx, by = _linear_fits(mesh.hessian_patches, g, "hessian_recovery")
    # Hv[v, i, j] = d g_j / d x_i
    Hv = np.stack([bx, by], axis=1)
    return 0.5 * (Hv + Hv.transpose(0, 2, 1))


def evaluate(mesh: Mesh, f: Field, point) -> float:
    """Barycentric interpolation of a field at an interior point."""
    p = np.asarray(point, dtype=float)
    verts = mesh.vertices[mesh.triangles]
    v0 = verts[:, 0]
    d1 = verts[:, 1] - v0
    d2 = verts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rp = p - v0
    l1 = (rp[:, 0] * d2[:, 1] - rp[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rp[:, 1] - d1[:, 1] * rp[:, 0]) / det
    l0 = 1.0 - l1 - l2
    tol = -1e-12
    hits = np.where((l0 >= tol) & (l1 >= tol) & (l2 >= tol))[0]
    if len(hits) == 0:
        raise ValidationError("evaluate: point outside the mesh")
    t = int(hits[0])
    lam = np.array([l0[t], l1[t], l2[t]])
    return float(lam @ f.values[mesh.triangles[t]])


def l2_norm(mesh: Mesh, values: np.ndarray) -> float:
    M = mass_matrix(mesh)
    return math.sqrt(max(0.0, float(values @ (M @ values))))
