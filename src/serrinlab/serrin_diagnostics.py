"""Every quantity entering the ball-stability estimates, bundled per configuration.

The deviation norms measure the overdetermined condition on the two-phase
solution; the fundamental identity, oscillation relation, and growth bound are
one-phase diagnostics built from the torsion function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import DiagnosticError, ValidationError
from .fem_core import (
    BoundaryTrace,
    Field,
    hessian_recovery,
    normal_derivative,
    solve_beside,
    solve_one_phase,
)
from .geometry import (
    DomainSpec,
    diameter,
    distance_to_boundary,
    rho_bounds,
    serrin_constant,
)
from .meshgen import Mesh, generate, refine

# growth_check: vertices whose exact v/delta seeds the screen, and the
# relative slack that keeps a rounding of the screen from dropping the minimum
_GROWTH_SEEDS = 8
_GROWTH_SLACK = 1e-12


@dataclass(frozen=True)
class EtaSpec:
    """Boundary perturbation eta(theta) = amplitude * cos(mode*theta + phase)."""

    amplitude: float
    mode: int = 1
    phase: float = 0.0

    def __call__(self, theta):
        return self.amplitude * np.cos(self.mode * np.asarray(theta) + self.phase)


@dataclass
class SerrinReport:
    """One `diagnose` result; its fields, in order, are the report.csv columns."""

    c: float
    dev_L2: float
    dev_Linf: float
    z_x: float
    z_y: float
    rho_i: float
    rho_e: float
    gap: float
    osc_h: float
    FI_lhs: float
    FI_rhs: float
    FI_gap: float
    growth_min: float
    h_max: float


def max_point(mesh: Mesh, v: Field) -> np.ndarray:
    """Argmax of the one-phase field, refined by a quadratic fit on the patch."""
    i = int(np.argmax(v.values))
    if i in set(mesh.boundary_loop.tolist()):
        raise ValidationError("max_point: maximum on the boundary")
    # i with its neighbors, widened to the two-ring when too few for the fit
    patch = mesh.adjacency.rows([i]).indices
    if len(patch) < 6:
        patch = np.unique(mesh.adjacency.rows(patch).indices)
    x0 = mesh.vertices[i]
    d = mesh.vertices[patch] - x0
    A = np.column_stack([np.ones(len(patch)), d[:, 0], d[:, 1],
                         0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1], 0.5 * d[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(A, v.values[patch], rcond=None)
    grad = coef[1:3]
    hess = np.array([[coef[3], coef[4]], [coef[4], coef[5]]])
    if np.all(np.linalg.eigvalsh(hess) < 0):
        step = np.linalg.solve(hess, -grad)
        if np.hypot(*step) < 2.0 * mesh.h_max:
            return x0 + step
    return x0.copy()


def deviation_norms(trace: BoundaryTrace, c: float,
                    eta: Optional[np.ndarray] = None):
    """Weighted L2 and sup norms of the trace deviation from c (+ eta)."""
    w = trace.weights
    if np.any(w <= 0):
        raise ValidationError("deviation_norms: weights must be positive")
    resid = trace.values - c
    if eta is not None:
        resid = resid - eta
    l2 = math.sqrt(float((resid ** 2 * w).sum()))
    return l2, float(np.abs(resid).max())


def stability_row(domain: DomainSpec, trace: BoundaryTrace, z, eta=None) -> dict:
    """SerrinReport's columns c to gap: the trace's deviation from c (+ eta, its weighted
    mean removed) and the ball radii about z.  Checks gap >= 0 and the L2/Linf bridge."""
    c, w = serrin_constant(domain), trace.weights
    if eta is not None:
        eta = eta - float((eta * w).sum() / w.sum())
    dev_l2, dev_linf = deviation_norms(trace, c, eta)
    if dev_l2 > math.sqrt(float(w.sum())) * dev_linf + 1e-12:  # exact in the discrete norms
        raise DiagnosticError("stability_row: discrete L2/Linf deviation bridge violated")
    rho_i, rho_e = rho_bounds(domain, z)
    if rho_e - rho_i < -1e-12:
        raise DiagnosticError("stability_row: gap = rho_e - rho_i >= 0 violated")
    return {"c": c, "dev_L2": dev_l2, "dev_Linf": dev_linf, "z_x": float(z[0]),
            "z_y": float(z[1]), "rho_i": rho_i, "rho_e": rho_e, "gap": rho_e - rho_i}


def fundamental_identity(mesh: Mesh, v: Field, tr: BoundaryTrace, z, c: float):
    """Both sides of  int v |D2h|^2 = 1/2 int_b (c^2 - (dn v)^2) dn h.

    lhs: vertex Hessians of v (recovered) shifted by I/2, lumped per element
    against vertex values of v.  rhs: boundary quadrature of the trace tr of
    dn v, with the Serrin constant c of the domain, dn h = dn v - dn q and
    dn q = -(x-z).n/2 exact from geometry.  Raises DiagnosticError unless
    lhs, rhs and their relative gap are finite.
    """
    z = np.asarray(z, dtype=float)
    H = hessian_recovery(mesh, v)
    H2 = H.copy()
    H2[:, 0, 0] += 0.5
    H2[:, 1, 1] += 0.5
    frob2 = np.einsum("vij,vij->v", H2, H2)
    per_vertex = v.values * frob2
    lhs = float((mesh.triangle_areas() * per_vertex[mesh.triangles].mean(axis=1)).sum())

    pts = tr.points
    dnq_at = lambda p, n: -((p - z) * n).sum(axis=1) / 2.0
    loop_next = np.roll(np.arange(len(pts)), -1)
    edge_n = mesh.boundary_normals
    ell = mesh.boundary_edge_lengths()
    # per-edge trapezoid with the edge normal at both endpoints
    f_start = (c ** 2 - tr.values ** 2) * (tr.values - dnq_at(pts, edge_n))
    f_end = (c ** 2 - tr.values[loop_next] ** 2) * (
        tr.values[loop_next] - dnq_at(pts[loop_next], edge_n))
    rhs = 0.5 * float((0.5 * (f_start + f_end) * ell).sum())
    gap = abs(lhs - rhs) / max(lhs, rhs, 1e-14)
    if not np.isfinite([lhs, rhs, gap]).all():
        raise DiagnosticError("fundamental_identity: finiteness of lhs, rhs and gap violated")
    return lhs, rhs, gap


def osc_check(points, z, rho_i, rho_e, d_omega, slack=0.0) -> float:
    """osc over the boundary points of h = v + |x-z|^2/4, the harmonic companion
    of the torsion function v (N=2); v = 0 there, so h is |x-z|^2/4.  Raises
    DiagnosticError unless gap = rho_e - rho_i <= (8/d) osc + slack."""
    h = ((points - z) ** 2).sum(axis=1) / 4.0
    osc = float(h.max() - h.min())
    if not rho_e - rho_i <= (8.0 / d_omega) * osc + slack:
        raise DiagnosticError("osc_check: oscillation bound violated beyond mesh slack")
    return osc


def growth_check(mesh: Mesh, v: Field) -> float:
    """min over interior vertices of v/delta, delta the distance to the boundary.

    The radial margin r(phi) - |x - center| is the distance to the boundary
    point on the ray through x, so it bounds delta from above, and the screen
    v/margin bounds v/delta from below where v >= 0.  Foot points are found
    for the _GROWTH_SEEDS vertices of least screen, then for every vertex
    whose screen is at most the seeds' exact minimum (within _GROWTH_SLACK);
    vertices with a non-positive margin or a negative value are always
    candidates.  No other vertex can hold the minimum.
    """
    pts = mesh.vertices[mesh.interior]
    vals = v.values[mesh.interior]
    margin = mesh.domain.signed_radial_margin(pts)
    screened = (margin > 0) & (vals >= 0)
    screen = np.full(len(vals), -np.inf)
    screen[screened] = vals[screened] / margin[screened]
    k = min(_GROWTH_SEEDS, len(vals))
    seeds = np.argpartition(screen, k - 1)[:k]
    best = np.min(vals[seeds] / distance_to_boundary(mesh.domain, pts[seeds]))
    cand = ~(screen > best + _GROWTH_SLACK * abs(best))
    delta = distance_to_boundary(mesh.domain, pts[cand])
    return float(np.min(vals[cand] / delta))


def full_report(domain: DomainSpec, inclusion: Optional[DomainSpec],
                sigma_c: float, target_h: float,
                eta: Optional[EtaSpec] = None,
                refine_levels: int = 0, jobs: int = 1) -> SerrinReport:
    """Solve the full pipeline and populate every report field deterministically.

    With an inclusion and sigma_c != 1, u's solve runs beside v's, else u is
    v and v's solve runs beside the set-up of the mesh's recovery caches; both
    by solve_beside, so with jobs > 1 the solve runs on a second thread.  The
    report does not depend on jobs.
    """
    mesh = generate(domain, inclusion, target_h)
    for _ in range(refine_levels):
        mesh = refine(mesh)

    if inclusion is None or sigma_c == 1.0:  # then u is v
        _, v = solve_beside(mesh, 1.0, lambda: (
            mesh.h_max, mesh.gradient_patches, mesh.hessian_patches), jobs)
        tr_v = tr_u = normal_derivative(mesh, v)
    else:
        v, u = solve_beside(mesh, sigma_c, partial(solve_one_phase, mesh), jobs)
        tr_v, tr_u = normal_derivative(mesh, v), normal_derivative(mesh, u)

    z = max_point(mesh, v)
    row = stability_row(domain, tr_u, z,
                        None if eta is None else eta(mesh.boundary_params))
    osc = osc_check(tr_v.points, z, row["rho_i"], row["rho_e"], diameter(domain),
                    slack=10.0 * mesh.h_max ** 2)
    lhs, rhs, fi_gap = fundamental_identity(mesh, v, tr_v, z, row["c"])
    return SerrinReport(**row, osc_h=osc, FI_lhs=lhs, FI_rhs=rhs, FI_gap=fi_gap,
                        growth_min=growth_check(mesh, v), h_max=mesh.h_max)
