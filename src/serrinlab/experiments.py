"""Parameter sweeps and log-log fits that turn the ball-stability estimates
into desk-scale empirical checks.

Each sweep leaves the rows at its numerical floor out of the fit, so fitted
slopes are never contaminated by discretization noise.  The sigma and
inclusion sweeps measure their metric on concentric disks at the same mesh
size and exclude rows at or below FLOOR_FACTOR (10) times it; the stability
sweep excludes a row whose gap or dev_Linf is at or below 10x the unit disk's;
frechet_check has no fixture and excludes |epsilon| < 1e3 CG_REL_TOLERANCE.
_sweep_result fits the rest and builds every SweepResult.  The sigma,
inclusion and stability sweeps hand _parallel_map one call per member and
their floor fixture as the last call: with jobs > 1 up to jobs worker
processes solve the members while the calling process solves the floor, and
only then are concurrent.futures.process and multiprocessing imported.  At any
jobs the first error in call order is raised (a member's, then the floor's),
and only then the sweep's own checks.  frechet_check stays serial.
Every solve pins one OpenBLAS thread, so a sweep's own solves sum their dot
products as its pool workers do, and its artifacts do not depend on `jobs`.
cli_io's verify-identity hands it level 0's report, then level 1's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
from .geometry import DomainSpec, exact_area, inclusion_margin, serrin_constant
from .meshgen import generate
from .serrin_diagnostics import deviation_norms, max_point, stability_row

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
    rows: list                      # per parameter, same order: its report.csv columns
    fit: Optional[FitResult]
    window: int
    floors: dict
    excluded: list
    constants: dict
    status: str
    h_max: float
    points: list


def _monotone(x):
    """Whether x is strictly increasing or strictly decreasing."""
    d = np.diff(x)
    return bool(np.all(d > 0) or np.all(d < 0))


def slope_fit(points, window=4) -> FitResult:
    """Least squares on (log x, log y) over the trailing window (0: all points).

    Nonpositive coordinates exclude the point (flagged via used_indices).
    The logs of the x used must be strictly monotone, and their spread must
    survive rounding (denominator > 0).
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
    # strictly monotone x can have logs that round equal (1000.0 and its next
    # floats), which leave no slope to fit
    if not (_monotone(lx) and denom > 0):
        raise ValidationError("slope_fit: log x must be strictly monotone")
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


def _sweep_result(kind, rows, x, y, excluded, window, floors, h_max, constants,
                  fit_constants, degenerate) -> SweepResult:
    """The SweepResult of rows with points (|row[x]|, row[y]), fitted over the
    kept points (not excluded, both coordinates positive) when at least 3 are
    kept: fit_constants(kept) then joins constants and the status is ok, else
    it is degenerate."""
    points = [(abs(r[x]), r[y]) for r in rows]
    kept = [(px, py) for (px, py), ex in zip(points, excluded)
            if not ex and px > 0 and py > 0]
    fit = slope_fit(kept, window) if len(kept) >= 3 else None
    if fit is not None:
        constants = {**constants, **fit_constants(kept)}
    return SweepResult(kind, rows, fit, window, floors, excluded, constants,
                       "ok" if fit is not None else degenerate, h_max, points)


def _check_monotone(name, values):
    """A sweep's rows keep the order of its values and its fit runs against
    their magnitudes, so there must be some and both must be strictly
    monotone."""
    if not values:
        raise ValidationError(f"{name}: must not be empty")
    if not (_monotone(values) and _monotone(np.abs(values))):
        raise ValidationError(f"{name}: values and their magnitudes must be "
                              "strictly monotone")


def _call(fn):
    """fn(), in a pool worker: pool.map pickles its function by name."""
    return fn()


def _parallel_map(calls, jobs):
    """[call() for call in calls] for picklable zero-argument calls.

    At jobs <= 1, or with one call, they run here in order.  Otherwise all
    calls but the last run on min(jobs, len(calls) - 1) processes, each given
    one contiguous chunk, so a mesh the calls share is pickled once per chunk,
    and the last runs here meanwhile.  Either way the first error in call
    order is raised.
    """
    if jobs <= 1 or len(calls) <= 1:
        return [call() for call in calls]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    *pooled, last = calls
    workers = min(jobs, len(pooled))
    pin_one_blas_thread()  # forked workers inherit the count
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = pool.map(_call, pooled, chunksize=math.ceil(len(pooled) / workers))
        try:
            mine = last()
        except Exception:
            list(results)  # a pooled call's error comes first
            raise
        return [*results, mine]


# -- one-phase stability --------------------------------------------------


def _stability_member(domain, target_h):
    """(row, h_max) of one family member."""
    mesh = generate(domain, None, target_h)
    v = solve_one_phase(mesh)
    row = stability_row(domain, normal_derivative(mesh, v), max_point(mesh, v))
    return {k: row[k] for k in ("gap", "dev_L2", "dev_Linf")}, mesh.h_max


def one_phase_stability_sweep(family, target_h, window=4, jobs=1) -> SweepResult:
    """gap = rho_e - rho_i against the flux deviation across a domain family.

    The family parameter is each member's gap; the fit is log(gap) against
    log(dev_Linf) and its slope should sit near 1 (tau_2 = 1).
    """
    if len(family) < 1:
        raise ValidationError("family: must not be empty")
    *results, (floors, _) = _parallel_map(
        [partial(_stability_member, d, target_h) for d in family]
        + [partial(_stability_member, DomainSpec("disk", radius=1.0), target_h)], jobs)
    rows = [row for row, _ in results]
    # the gaps are the sweep's parameters, known only once the members are solved
    if not _monotone([r["gap"] for r in rows]):
        raise ValidationError("family: member gaps must be strictly monotone")
    excluded = [r["gap"] <= FLOOR_FACTOR * floors["gap"]
                or r["dev_Linf"] <= FLOOR_FACTOR * floors["dev_Linf"] for r in rows]
    return _sweep_result(
        "stability", rows, "dev_Linf", "gap", excluded, window, floors,
        max(h for _, h in results), {},
        lambda kept: {"max_ratio_gap_over_dev": max(y / x for x, y in kept),
                      "ratio_smallest": kept[-1][1] / kept[-1][0],
                      "ratio_largest": kept[0][1] / kept[0][0]},
        "degenerate: exact case" if all(excluded) else "degenerate: too few points")


# -- sigma_c -> 1 ----------------------------------------------------------


def _sigma_base(domain, inclusion, target_h):
    """(mesh, one-phase trace values, base dev_Linf, c) that the members share."""
    mesh = generate(domain, inclusion, target_h)
    base = normal_derivative(mesh, solve_one_phase(mesh))
    c = serrin_constant(domain)
    _, base_dev = deviation_norms(base, c)
    return mesh, base.values, base_dev, c


def _sigma_member(base, t):
    mesh, base_trace, base_dev, c = base
    u = solve_two_phase(mesh, 1.0 + t)
    tr = normal_derivative(mesh, u)
    diff = float(np.abs(tr.values - base_trace).max())
    dev_l2, dev_linf = deviation_norms(tr, c)
    # triangle inequality of the deviation chain, exact in the nodal sup norm
    if dev_linf > diff + base_dev + 1e-13:
        raise DiagnosticError("sigma sweep: discrete triangle inequality violated")
    return {"t": t, "delta_trace_Linf": diff, "dev_L2": dev_l2,
            "dev_Linf": dev_linf}


def _sigma_floor(radius, t_big, target_h):
    """The sigma member at t_big on the unit disk with a concentric disk D."""
    base = _sigma_base(DomainSpec("disk", radius=1.0), DomainSpec("disk", radius=radius),
                       target_h)
    return _sigma_member(base, t_big)


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
    # floor: concentric disks (an exact solution family: the flux is t-independent)
    r_f = inclusion.radius if inclusion is not None and inclusion.kind == "disk" else 0.5
    *rows, floor_row = _parallel_map(
        [partial(_sigma_member, base, t) for t in t_values]
        + [partial(_sigma_floor, min(0.5, r_f), max(abs(t) for t in t_values), target_h)],
        jobs)
    floor = floor_row["delta_trace_Linf"]
    excluded = [r["delta_trace_Linf"] <= FLOOR_FACTOR * floor for r in rows]
    return _sweep_result(
        "sigma", rows, "t", "delta_trace_Linf", excluded, window,
        {"delta_trace_Linf": floor}, mesh.h_max, {"dev0_Linf": base_dev},
        lambda kept: {"C7_empirical": max(y / x for x, y in kept)},
        "degenerate: exact solution family")


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
    return _sweep_result(
        "frechet", rows, "epsilon", "fd_error_L2",
        [abs(r["epsilon"]) < tol_floor for r in rows], window, {"epsilon": tol_floor},
        mesh.h_max, {"floor_L2": min(r["fd_error_L2"] for r in rows)}, lambda kept: {},
        "degenerate: derivative vanishes")


# -- |D| -> 0 ----------------------------------------------------------------


def _inclusion_member(domain, sigma_c, inclusion, target_h):
    """(row, h_max) of one centred disk inclusion.

    grad_w_boundary_Linf is the sup over the outer boundary of |grad w|, w =
    u - v.  Both fields vanish on the boundary, so grad w there is its normal
    derivative, the difference of the two variational traces.
    """
    mesh = generate(domain, inclusion, target_h)
    u = solve_two_phase(mesh, sigma_c)
    v = solve_one_phase(mesh)
    dn_w = normal_derivative(mesh, u).values - normal_derivative(mesh, v).values
    return ({"radius": inclusion.radius, "area_D": exact_area(inclusion),
             "grad_w_boundary_Linf": float(np.abs(dn_w).max())}, mesh.h_max)


def inclusion_sweep(domain, sigma_c, radii, target_h, window=4, jobs=1) -> SweepResult:
    """sup_boundary |grad w| against |D| for a shrinking centered disk inclusion.

    The coarse bound guarantees slope >= 1/2; the gradient-bounded refinement
    predicts slope ~ 1, and both comparisons are reported.  Each disk's
    margin inside the domain is measured once, before any mesh is built.
    """
    radii = list(radii)
    if not radii:
        raise ValidationError("inclusion_radii: must not be empty")
    if any(r <= 0 for r in radii):
        raise ValidationError("inclusion_radii: entries must be positive")
    if any(radii[i] <= radii[i + 1] for i in range(len(radii) - 1)):
        raise ValidationError("inclusion_radii: must decrease toward 0")
    disks = [DomainSpec("disk", center=domain.center, radius=r) for r in radii]
    margins = []
    for i, disk in enumerate(disks):
        try:
            margins.append(inclusion_margin(domain, disk))
        except ValidationError:
            raise ValidationError(f"inclusion_radii[{i}]: D touches or exits the "
                                  "domain") from None
    # floor: concentric disks where the boundary flux is radius-independent
    *results, (floor_row, _) = _parallel_map(
        [partial(_inclusion_member, domain, sigma_c, d, target_h) for d in disks]
        + [partial(_inclusion_member, DomainSpec("disk", radius=1.0), sigma_c,
                   DomainSpec("disk", radius=radii[-1]), target_h)], jobs)
    rows = [dict(row, margin=m) for (row, _), m in zip(results, margins)]
    floor = floor_row["grad_w_boundary_Linf"]
    excluded = [r["grad_w_boundary_Linf"] <= FLOOR_FACTOR * floor for r in rows]
    return _sweep_result(
        "inclusion", rows, "area_D", "grad_w_boundary_Linf", excluded, window,
        {"grad_w_boundary_Linf": floor}, max(h for _, h in results),
        {"M": max(1.0, 1.0 / margins[0]), "slope_floor_coarse": 0.5, "slope_improved": 1.0},
        lambda kept: {"C3_like_max_ratio": max(y / math.sqrt(x) for x, y in kept)},
        "degenerate: exact solution family")


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
    gap = _stability_member(domain, target_h)[0]["gap"]
    if gap <= FLOOR_FACTOR * target_h ** 2:
        raise ValidationError("domain: indistinguishable from a ball at this resolution")
    return ThresholdReport(gap, gap / fitted_C2, (gap / fitted_C3) ** 2)
