"""Parameter sweeps and log-log fits that turn the ball-stability estimates
into desk-scale empirical checks.

Each sweep measures its own numerical floor on an exact-case fixture at the
same mesh size and excludes points whose metrics sit below 10x that floor, so
fitted slopes are never contaminated by discretization noise.  Every solve
pins one OpenBLAS thread, so a sweep's own solves sum their dot products as
its pool workers do, and its artifacts do not depend on `jobs`.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import DiagnosticError, ValidationError
from .fem_core import (
    CG_REL_TOLERANCE,
    l2_norm,
    normal_derivative,
    pin_one_blas_thread,
    solve_linearized,
    solve_one_phase,
    solve_two_phase,
)
from .geometry import (
    DomainSpec,
    exact_area,
    exact_perimeter,
    rho_bounds,
    serrin_constant,
)
from .meshgen import generate
from .serrin_diagnostics import deviation_norms, max_point

FLOOR_FACTOR = 10.0


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_used: int
    used_indices: list


@dataclass
class SweepResult:
    """One metric row per parameter and the log-log fit over them.

    points holds the fitted (x, y) pair of each row, in row order; the fit and
    plot.svg both read it.  The fit leaves out the excluded rows (those at the
    sweep's numerical floor) and any point with x or y <= 0.
    """

    kind: str
    parameters: list
    rows: list                      # per parameter, same order: its report.csv columns
    fit: Optional[FitResult]
    window: int
    floors: dict = dc_field(default_factory=dict)
    excluded: list = dc_field(default_factory=list)
    constants: dict = dc_field(default_factory=dict)
    status: str = "ok"
    h_max: float = 0.0
    points: list = dc_field(default_factory=list)

    def __post_init__(self):
        if not _monotone(np.asarray(self.parameters, dtype=float)):
            raise ValidationError("sweep: parameters must be strictly monotone")
        if self.fit is not None and not (0.0 <= self.fit.r_squared <= 1.0 + 1e-12):
            raise ValidationError("sweep: R^2 out of [0, 1]")


def _monotone(x):
    """Whether x is strictly increasing or strictly decreasing."""
    d = np.diff(x)
    return bool(np.all(d > 0) or np.all(d < 0))


def slope_fit(points, window=4) -> FitResult:
    """Least squares on (log x, log y) over the trailing window (0: all points).

    Nonpositive coordinates exclude the point (flagged via used_indices).
    """
    if window < 0:
        raise ValidationError("window: must be >= 0 (0 fits all points)")
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValidationError("slope_fit: need at least 3 points")
    if not _monotone([x for x, _ in pts]):
        raise ValidationError("slope_fit: x must be strictly monotone")
    usable = [i for i, (x, y) in enumerate(pts) if x > 0 and y > 0]
    if len(usable) < 3:
        raise ValidationError("slope_fit: fewer than 3 usable points")
    used = usable[-window:] if window else usable
    if len(used) < 3:
        used = usable[-3:]
    lx = np.log(np.array([pts[i][0] for i in used]))
    ly = np.log(np.array([pts[i][1] for i in used]))
    n = len(used)
    sx, sy = lx.sum(), ly.sum()
    sxx = float(lx @ lx)
    sxy = float(lx @ ly)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    resid = ly - (intercept + slope * lx)
    ss_res = float(resid @ resid)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot <= 1e-14 * max(1.0, float(ly @ ly)):
        r2 = 1.0  # constant data: the fit is exact (ss_res <= ss_tot)
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(slope, intercept, r2, n, used)


def _fit_kept(points, excluded, window):
    """(fit, kept): slope_fit over the points not excluded with x, y > 0, or
    None when fewer than 3 remain, and those kept points."""
    kept = [(x, y) for (x, y), ex in zip(points, excluded) if not ex and x > 0 and y > 0]
    return (slope_fit(kept, window) if len(kept) >= 3 else None), kept


def _check_monotone(name, values):
    """A sweep's rows keep the order of its values and its fit runs against
    their magnitudes, so both must be strictly monotone."""
    if not (_monotone(values) and _monotone(np.abs(values))):
        raise ValidationError(f"{name}: values and their magnitudes must be "
                              "strictly monotone")


def _parallel_map(fn, items, jobs):
    """[fn(it) for it in items] on min(jobs, len(items)) processes, each given
    one contiguous chunk, so a mesh the items share is pickled once per chunk."""
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    workers = min(jobs, len(items))
    pin_one_blas_thread()  # forked workers inherit the count
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=math.ceil(len(items) / workers)))


# -- one-phase stability --------------------------------------------------


def _stability_member(args):
    """(row, h_max) of one family member."""
    domain, target_h = args
    mesh = generate(domain, None, target_h)
    v = solve_one_phase(mesh)
    tr = normal_derivative(mesh, v)
    c = serrin_constant(exact_area(domain), exact_perimeter(domain))
    dev_l2, dev_linf = deviation_norms(tr, c)
    z = max_point(mesh, v)
    rho_i, rho_e = rho_bounds(domain, z)
    return {"gap": rho_e - rho_i, "dev_L2": dev_l2, "dev_Linf": dev_linf}, mesh.h_max


def one_phase_stability_sweep(family, target_h, window=4, jobs=1) -> SweepResult:
    """gap = rho_e - rho_i against the flux deviation across a domain family.

    The family parameter is each member's gap; the fit is log(gap) against
    log(dev_Linf) and its slope should sit near 1 (tau_2 = 1).
    """
    if len(family) < 1:
        raise ValidationError("family: must not be empty")
    results = _parallel_map(_stability_member, [(d, target_h) for d in family], jobs)
    rows = [row for row, _ in results]
    # the gaps are the sweep's parameters: check them before the floor solve
    if not _monotone([r["gap"] for r in rows]):
        raise ValidationError("family: member gaps must be strictly monotone")
    floor_row, _ = _stability_member((DomainSpec("disk", radius=1.0), target_h))
    floors = {"gap": floor_row["gap"], "dev_Linf": floor_row["dev_Linf"],
              "dev_L2": floor_row["dev_L2"]}
    excluded = [r["gap"] <= FLOOR_FACTOR * floors["gap"]
                or r["dev_Linf"] <= FLOOR_FACTOR * floors["dev_Linf"] for r in rows]
    points = [(r["dev_Linf"], r["gap"]) for r in rows]
    fit, kept = _fit_kept(points, excluded, window)
    constants = {}
    if fit is not None:
        ratios = [y / x for x, y in kept]
        constants["max_ratio_gap_over_dev"] = max(ratios)
        constants["ratio_smallest"] = ratios[-1]
        constants["ratio_largest"] = ratios[0]
        status = "ok"
    else:
        status = "degenerate: exact case" if all(excluded) else "degenerate: too few points"
    return SweepResult("stability", [r["gap"] for r in rows], rows, fit, window, floors,
                       excluded, constants, status, max(h for _, h in results), points)


# -- sigma_c -> 1 ----------------------------------------------------------


def _sigma_base(domain, inclusion, target_h):
    """(mesh, one-phase trace values, base dev_Linf, c) that the members share."""
    mesh = generate(domain, inclusion, target_h)
    base = normal_derivative(mesh, solve_one_phase(mesh))
    c = serrin_constant(exact_area(domain), exact_perimeter(domain))
    _, base_dev = deviation_norms(base, c)
    return mesh, base.values, base_dev, c


def _sigma_member(args):
    (mesh, base_trace, base_dev, c), t = args
    u = solve_two_phase(mesh, 1.0 + t)
    tr = normal_derivative(mesh, u)
    diff = float(np.abs(tr.values - base_trace).max())
    dev_l2, dev_linf = deviation_norms(tr, c)
    # triangle inequality of the deviation chain, exact in the nodal sup norm
    if dev_linf > diff + base_dev + 1e-13:
        raise DiagnosticError("sigma sweep: discrete triangle inequality violated")
    return {"t": t, "delta_trace_Linf": diff, "dev_L2": dev_l2,
            "dev_Linf": dev_linf}


def sigma_sweep(domain, inclusion, t_values, target_h, window=4, jobs=1) -> SweepResult:
    """||dn u(t) - dn u(0)||_inf against |t| for sigma_c = 1 + t.

    Differentiability of the solution branch makes the slope approach 1; the
    max ratio is the empirical constant of the |t|-linear bound.
    """
    t_values = list(t_values)
    if any(t <= -1.0 for t in t_values):
        raise ValidationError("t_values: entries must stay above -1")
    _check_monotone("t_values", t_values)
    base = _sigma_base(domain, inclusion, target_h)
    mesh, _, base_dev, _ = base
    rows = _parallel_map(_sigma_member, [(base, t) for t in t_values], jobs)

    # floor: concentric disks (an exact solution family: the flux is t-independent)
    r_f = inclusion.radius if inclusion is not None and inclusion.kind == "disk" else 0.5
    floor_base = _sigma_base(DomainSpec("disk", radius=1.0),
                             DomainSpec("disk", radius=min(0.5, r_f)), target_h)
    t_big = max(abs(t) for t in t_values)
    floor = _sigma_member((floor_base, t_big))["delta_trace_Linf"]
    floors = {"delta_trace_Linf": floor}

    excluded = [r["delta_trace_Linf"] <= FLOOR_FACTOR * floor for r in rows]
    points = [(abs(r["t"]), r["delta_trace_Linf"]) for r in rows]
    fit, kept = _fit_kept(points, excluded, window)
    constants = {"dev0_Linf": base_dev}
    if fit is not None:
        constants["C7_empirical"] = max(y / x for x, y in kept)
        status = "ok"
    else:
        status = "degenerate: exact solution family"
    return SweepResult("sigma", [r["t"] for r in rows], rows, fit, window,
                       floors, excluded, constants, status, mesh.h_max, points)


# -- Frechet derivative -----------------------------------------------------


def frechet_check(domain, inclusion, t0, eps_values, target_h, window=4) -> SweepResult:
    """||(u(t0+eps) - u(t0))/eps - u'(t0)||_L2 against eps (slope ~ 1)."""
    eps_values = list(eps_values)
    if t0 <= -1.0:
        raise ValidationError("t0: must stay above -1 (sigma_c = 1 + t0 > 0)")
    if any(t0 + e <= -1.0 for e in eps_values):
        raise ValidationError("epsilon_values: t0 + epsilon must stay above -1")
    if 0.0 in eps_values:
        raise ValidationError("epsilon_values: entries must be nonzero")
    _check_monotone("epsilon_values", eps_values)
    mesh = generate(domain, inclusion, target_h)
    u_t0 = solve_two_phase(mesh, 1.0 + t0)
    u_prime = solve_linearized(mesh, 1.0 + t0, u_t0)
    rows = []
    for e in eps_values:
        u_e = solve_two_phase(mesh, 1.0 + t0 + e)
        quotient = (u_e.values - u_t0.values) / e
        rows.append({"epsilon": e,
                     "fd_error_L2": l2_norm(mesh, quotient - u_prime.values)})
    tol_floor = 1e3 * CG_REL_TOLERANCE
    excluded = [abs(r["epsilon"]) < tol_floor for r in rows]
    floors = {"epsilon": tol_floor}
    points = [(abs(r["epsilon"]), r["fd_error_L2"]) for r in rows]
    fit, _ = _fit_kept(points, excluded, window)
    status = "ok" if fit is not None else "degenerate: derivative vanishes"
    return SweepResult("frechet", [r["epsilon"] for r in rows], rows, fit,
                       window, floors, excluded,
                       {"floor_L2": min((r["fd_error_L2"] for r in rows), default=0.0)},
                       status, mesh.h_max, points)


# -- |D| -> 0 ----------------------------------------------------------------


def _grad_w_boundary(mesh, u, v):
    """sup over the outer boundary of |grad(u - v)|.

    Both fields vanish on the boundary, so the gradient of w = u - v there is
    its normal derivative, the difference of the two variational traces.
    """
    dn_w = normal_derivative(mesh, u).values - normal_derivative(mesh, v).values
    return float(np.abs(dn_w).max())


def _inclusion_member(args):
    """(row, M, h_max) of one inclusion radius."""
    domain, sigma_c, r, target_h = args
    inclusion = DomainSpec("disk", center=domain.center, radius=r)
    mesh = generate(domain, inclusion, target_h)
    u = solve_two_phase(mesh, sigma_c)
    v = solve_one_phase(mesh)
    return ({"radius": r, "area_D": exact_area(inclusion),
             "grad_w_boundary_Linf": _grad_w_boundary(mesh, u, v),
             "margin": mesh.margin.margin}, mesh.margin.M, mesh.h_max)


def inclusion_sweep(domain, sigma_c, radii, target_h, window=4, jobs=1) -> SweepResult:
    """sup_boundary |grad w| against |D| for a shrinking centered disk inclusion.

    The coarse bound guarantees slope >= 1/2; the gradient-bounded refinement
    predicts slope ~ 1, and both comparisons are reported.
    """
    radii = list(radii)
    if any(r <= 0 for r in radii):
        raise ValidationError("inclusion_radii: entries must be positive")
    if any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise ValidationError("inclusion_radii: must decrease toward 0")
    results = _parallel_map(_inclusion_member,
                            [(domain, sigma_c, r, target_h) for r in radii], jobs)
    rows = [row for row, _, _ in results]
    m0 = rows[0]
    if any(r["margin"] < m0["margin"] - 1e-12 for r in rows):
        raise ValidationError("inclusion_radii: margin shrank below the fixed 1/M")

    # floor: concentric disks where the boundary flux is radius-independent
    floor_row, _, _ = _inclusion_member((DomainSpec("disk", radius=1.0), sigma_c,
                                         radii[-1], target_h))
    floor = floor_row["grad_w_boundary_Linf"]
    floors = {"grad_w_boundary_Linf": floor}
    excluded = [r["grad_w_boundary_Linf"] <= FLOOR_FACTOR * floor for r in rows]
    points = [(r["area_D"], r["grad_w_boundary_Linf"]) for r in rows]
    fit, kept = _fit_kept(points, excluded, window)
    constants = {"M": results[0][1], "slope_floor_coarse": 0.5, "slope_improved": 1.0}
    if fit is not None:
        constants["C3_like_max_ratio"] = max(y / math.sqrt(x) for x, y in kept)
        status = "ok"
    else:
        status = "degenerate: exact solution family"
    return SweepResult("inclusion", radii, rows, fit, window, floors, excluded,
                       constants, status, max(h for *_, h in results), points)


# -- non-existence thresholds -------------------------------------------------


@dataclass
class ThresholdReport:
    gap: float
    sigma_threshold: float
    area_threshold: float
    label: str = "empirical, conditional on fitted constants"


def nonexistence_threshold(domain, fitted_C2, fitted_C3, target_h) -> ThresholdReport:
    """Empirical non-existence thresholds from the fitted stability constants.

    With tau_2 = 1: no solution pair exists once |sigma_c - 1| < gap/C2 or
    |D| < (gap/C3)^2, where gap = rho_e - rho_i of the given domain.
    """
    for name, value in (("fitted_C2", fitted_C2), ("fitted_C3", fitted_C3)):
        if value <= 0:
            raise ValidationError(f"{name}: must be positive")
    gap = _stability_member((domain, target_h))[0]["gap"]
    if gap <= FLOOR_FACTOR * target_h ** 2:
        raise ValidationError("domain: indistinguishable from a ball at this resolution")
    return ThresholdReport(gap, gap / fitted_C2, (gap / fitted_C3) ** 2)
