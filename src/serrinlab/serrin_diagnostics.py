"""Every quantity entering the ball-stability estimates, bundled per configuration.

The deviation norms measure the overdetermined condition on the two-phase
solution; the fundamental identity, oscillation relation, and growth bound are
one-phase diagnostics built from the torsion function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import DiagnosticError, ValidationError
from .fem_core import (
    BoundaryTrace,
    Field,
    hessian_recovery,
    normal_derivative,
    solve_one_phase,
    solve_two_phase,
)
from .geometry import (
    DomainSpec,
    diameter,
    distance_to_boundary,
    exact_area,
    exact_perimeter,
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

    def __post_init__(self):
        if self.gap < -1e-12:
            raise ValidationError("report: gap must be nonnegative")
        for name in ("FI_lhs", "FI_rhs", "FI_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"report: {name} not finite")


def max_point(mesh: Mesh, v: Field) -> np.ndarray:
    """Argmax of the one-phase field, refined by a quadratic fit on the patch."""
    if v.label not in ("v", "u"):
        raise ValidationError("max_point: expects the one-phase field")
    i = int(np.argmax(v.values))
    if i in set(mesh.boundary_loop.tolist()):
        raise ValidationError("max_point: maximum on the boundary")
    # i with its neighbors, widened to the two-ring when too few for the fit
    patch = mesh.adjacency[i].indices
    if len(patch) < 6:
        patch = np.unique(mesh.adjacency[patch].indices)
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
    """Weighted L2 and sup norms of the trace deviation from c (+ eta).

    eta (if given) must have vanishing weighted mean over the boundary.
    """
    w = trace.weights
    if np.any(w <= 0):
        raise ValidationError("deviation_norms: weights must be positive")
    resid = trace.values - c
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        linf_eta = float(np.abs(eta).max())
        mean = float((eta * w).sum() / w.sum())
        if abs(mean) > 1e-8 * max(linf_eta, 1e-300):
            raise ValidationError("deviation_norms: eta must have vanishing mean")
        resid = resid - eta
    l2 = math.sqrt(float((resid ** 2 * w).sum()))
    return l2, float(np.abs(resid).max())


def h_field(mesh: Mesh, v: Field, z) -> Field:
    """h = v + |x-z|^2/4, the harmonic companion of the torsion function (N=2)."""
    z = np.asarray(z, dtype=float)
    q = ((mesh.vertices - z) ** 2).sum(axis=1) / 4.0
    return Field(mesh, v.values + q, "h")


def fundamental_identity(mesh: Mesh, v: Field, z):
    """Both sides of  int v |D2h|^2 = 1/2 int_b (c^2 - (dn v)^2) dn h.

    lhs: vertex Hessians of v (recovered) shifted by I/2, lumped per element
    against vertex values of v.  rhs: boundary quadrature with dn h = dn v -
    dn q and dn q = -(x-z).n/2 exact from geometry.
    """
    z = np.asarray(z, dtype=float)
    H = hessian_recovery(mesh, v)
    H2 = H.copy()
    H2[:, 0, 0] += 0.5
    H2[:, 1, 1] += 0.5
    frob2 = np.einsum("vij,vij->v", H2, H2)
    areas = mesh.triangle_areas()
    per_vertex = v.values * frob2
    lhs = float((areas * per_vertex[mesh.triangles].mean(axis=1)).sum())

    area = exact_area(mesh.domain) if mesh.domain is not None else float(areas.sum())
    perim = (exact_perimeter(mesh.domain) if mesh.domain is not None
             else float(mesh.boundary_edge_lengths().sum()))
    c = serrin_constant(area, perim)

    tr = normal_derivative(mesh, v)
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
    return lhs, rhs, gap


@dataclass
class OscCheck:
    osc: float
    bound_holds: bool


def osc_check(h_boundary, rho_i, rho_e, d_omega, slack=0.0) -> OscCheck:
    """osc h over the boundary and the bound gap <= (8/d) osc + slack."""
    h_boundary = np.asarray(h_boundary, dtype=float)
    osc = float(h_boundary.max() - h_boundary.min())
    bound = (rho_e - rho_i) <= (8.0 / d_omega) * osc + slack
    return OscCheck(osc, bool(bound))


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
                eta: Union[EtaSpec, Callable, None] = None,
                refine_levels: int = 0) -> SerrinReport:
    """Solve the full pipeline and populate every report field deterministically."""
    mesh = generate(domain, inclusion, target_h)
    for _ in range(refine_levels):
        mesh = refine(mesh)

    v = solve_one_phase(mesh)
    if inclusion is None or sigma_c == 1.0:
        u = replace(v, label="u")
    else:
        u = solve_two_phase(mesh, sigma_c)

    c = serrin_constant(exact_area(domain), exact_perimeter(domain))
    tr_u = normal_derivative(mesh, u)

    eta_vals = None
    if eta is not None:
        theta = mesh.boundary_params
        raw = np.asarray(eta(theta), dtype=float)
        w = tr_u.weights
        eta_vals = raw - float((raw * w).sum() / w.sum())  # project to zero mean
    dev_l2, dev_linf = deviation_norms(tr_u, c, eta_vals)

    z = max_point(mesh, v)
    rho_i, rho_e = rho_bounds(domain, z)
    h = h_field(mesh, v, z)
    lhs, rhs, fi_gap = fundamental_identity(mesh, v, z)
    d_omega = diameter(domain)
    osc = osc_check(h.values[mesh.boundary_loop], rho_i, rho_e, d_omega,
                    slack=10.0 * mesh.h_max ** 2)
    if not osc.bound_holds:
        raise DiagnosticError("osc_check: oscillation bound violated beyond mesh slack")
    growth_min = growth_check(mesh, v)

    report = SerrinReport(
        c=c, dev_L2=dev_l2, dev_Linf=dev_linf, z_x=float(z[0]), z_y=float(z[1]),
        rho_i=rho_i, rho_e=rho_e, gap=rho_e - rho_i, osc_h=osc.osc,
        FI_lhs=lhs, FI_rhs=rhs, FI_gap=fi_gap, growth_min=growth_min,
        h_max=mesh.h_max)
    # the L2/Linf deviation bridge holds exactly in the discrete norms
    if report.dev_L2 > math.sqrt(float(tr_u.weights.sum())) * report.dev_Linf + 1e-12:
        raise DiagnosticError("report: discrete L2/Linf deviation bridge violated")
    return report
