"""Output checks: closed forms and properties the method must satisfy.

Every expected value here is computed from the problem data with numpy alone,
on code paths that share nothing with serrinlab, and never from stored
outputs.  Each check returns a list of problems; an empty list means the
output passed.

Tolerances scale with the mesh size the program reports (h_max), so the same
check applies at every resolution the workloads use.
"""

from __future__ import annotations

import math

import numpy as np

# dense parameter grid: trapezoid sums of smooth periodic integrands converge
# geometrically, so 8192 nodes give the perimeter to machine precision
_N_QUAD = 8192
_THETA = 2.0 * math.pi * np.arange(_N_QUAD) / _N_QUAD


# -- curves -------------------------------------------------------------------


def curve_points(dom, theta):
    """Boundary point at curve parameter theta for a domain/inclusion dict."""
    cx, cy = dom.get("center", (0.0, 0.0))
    kind = dom["kind"]
    if kind == "disk":
        rx = ry = dom["radius"]
    elif kind == "ellipse":
        rx, ry = dom["a"], dom["b"]
    else:
        r = dom["r0"] * (1.0 + dom["eps"] * np.cos(dom["k"] * theta))
        return np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=-1)
    return np.stack([cx + rx * np.cos(theta), cy + ry * np.sin(theta)], axis=-1)


def _speed(dom, theta):
    """|dp/dtheta| of the parametrisation in curve_points."""
    if dom["kind"] == "disk":
        return np.full_like(theta, dom["radius"])
    if dom["kind"] == "ellipse":
        return np.hypot(dom["a"] * np.sin(theta), dom["b"] * np.cos(theta))
    r0, eps, k = dom["r0"], dom["eps"], dom["k"]
    r = r0 * (1.0 + eps * np.cos(k * theta))
    dr = -r0 * eps * k * np.sin(k * theta)
    return np.hypot(r, dr)


def perimeter(dom):
    return float(_speed(dom, _THETA).sum() * (2.0 * math.pi / _N_QUAD))


def area(dom):
    kind = dom["kind"]
    if kind == "disk":
        return math.pi * dom["radius"] ** 2
    if kind == "ellipse":
        return math.pi * dom["a"] * dom["b"]
    r = dom["r0"] * (1.0 + dom["eps"] * np.cos(dom["k"] * _THETA))
    return float(0.5 * (r ** 2).sum() * (2.0 * math.pi / _N_QUAD))


def curvature_max(dom):
    kind = dom["kind"]
    if kind == "disk":
        return 1.0 / dom["radius"]
    if kind == "ellipse":
        return dom["a"] / dom["b"] ** 2
    r0, eps, k = dom["r0"], dom["eps"], dom["k"]
    r = r0 * (1.0 + eps * np.cos(k * _THETA))
    dr = -r0 * eps * k * np.sin(k * _THETA)
    ddr = -r0 * eps * k * k * np.cos(k * _THETA)
    return float((np.abs(r * r + 2 * dr * dr - r * ddr) / (r * r + dr * dr) ** 1.5).max())


def sagitta_area(dom, h):
    """Bound on |area(curve) - area(inscribed polygon)| for chords up to h:
    each chord of length l cuts off at most kappa_max l^3 / 12."""
    return curvature_max(dom) * h * h * perimeter(dom) / 12.0


def curve_residual(dom, pts):
    """Signed polar-graph residual r(phi) - |p - center| (0 on the curve)."""
    cx, cy = dom.get("center", (0.0, 0.0))
    dx, dy = pts[:, 0] - cx, pts[:, 1] - cy
    rho = np.hypot(dx, dy)
    phi = np.arctan2(dy, dx)
    kind = dom["kind"]
    if kind == "disk":
        r = np.full_like(rho, dom["radius"])
    elif kind == "ellipse":
        a, b = dom["a"], dom["b"]
        r = a * b / np.hypot(b * np.cos(phi), a * np.sin(phi))
    else:
        r = dom["r0"] * (1.0 + dom["eps"] * np.cos(dom["k"] * phi))
    return r - rho


# -- one-phase torsion on an ellipse ------------------------------------------


class EllipseTorsion:
    """Exact torsion function v = kappa (1 - x^2/a^2 - y^2/b^2) of an ellipse
    centred at the origin, and every diagnostic derived from it."""

    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)
        self.kappa = a * a * b * b / (2.0 * (a * a + b * b))
        self.dom = {"kind": "ellipse", "a": self.a, "b": self.b}
        self.perimeter = perimeter(self.dom)
        self.c = -math.pi * a * b / self.perimeter

    def flux(self, theta):
        """Outward normal derivative of v at curve parameter theta."""
        a, b = self.a, self.b
        return -2.0 * self.kappa * np.sqrt(np.cos(theta) ** 2 / a ** 2
                                           + np.sin(theta) ** 2 / b ** 2)

    def deviation(self, eta=None):
        """(L2, Linf) of dn v - c - eta~, eta~ the arc-length zero-mean part."""
        w = _speed(self.dom, _THETA) * (2.0 * math.pi / _N_QUAD)
        resid = self.flux(_THETA) - self.c
        if eta is not None:
            e = eta["amplitude"] * np.cos(eta.get("mode", 1) * _THETA
                                          + eta.get("phase", 0.0))
            resid = resid - (e - float((e * w).sum() / w.sum()))
        return math.sqrt(float((resid ** 2 * w).sum())), float(np.abs(resid).max())

    @property
    def fi_lhs(self):
        """int v |D2 h|^2 with h = v + |x|^2/4, D2 h = diag(1/2 - 2k/a^2, 1/2 - 2k/b^2)."""
        d1 = 0.5 - 2.0 * self.kappa / self.a ** 2
        d2 = 0.5 - 2.0 * self.kappa / self.b ** 2
        return math.pi * self.a * self.b * self.kappa / 2.0 * (d1 * d1 + d2 * d2)

    @property
    def osc_h(self):
        """osc of h = |x|^2/4 over the boundary: (a^2 - b^2)/4."""
        return (self.a ** 2 - self.b ** 2) / 4.0


def _near(problems, label, got, want, tol):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{label} = {got!r}, expected {want!r} within {tol:.3g}")


def _is_centred_ellipse(dom):
    return (dom.get("kind") == "ellipse"
            and tuple(dom.get("center", (0.0, 0.0))) == (0.0, 0.0))


def check_one_phase_ellipse(row, dom):
    """z, gap, rho bounds, osc_h, c and FI_lhs of a report on a centred ellipse.

    These depend on the one-phase torsion function only, so they hold with or
    without an inclusion.
    """
    ex = EllipseTorsion(dom["a"], dom["b"])
    # the maximiser and the boundary extremes are found by quadratic fits
    # and curve refinement, far inside O(h^2)
    h2 = 0.05 * row["h_max"] ** 2
    p = []
    _near(p, "c", row["c"], ex.c, 1e-9 * abs(ex.c))
    _near(p, "|z|", math.hypot(row["z_x"], row["z_y"]), 0.0, h2)
    _near(p, "rho_i", row["rho_i"], ex.b, h2)
    _near(p, "rho_e", row["rho_e"], ex.a, h2)
    _near(p, "gap", row["gap"], ex.a - ex.b, h2)
    _near(p, "osc_h", row["osc_h"], ex.osc_h, h2)
    # recovered Hessians of the torsion quadratic are exact up to the
    # boundary patches
    _near(p, "FI_lhs", row["FI_lhs"], ex.fi_lhs, 0.01 * ex.fi_lhs)
    if not 0.0 <= row["FI_gap"] <= 0.01:
        p.append(f"FI_gap = {row['FI_gap']!r} outside [0, 0.01]")
    if not row["growth_min"] > 0.0:
        p.append(f"growth_min = {row['growth_min']!r} not positive")
    return p


def check_deviation_bridge(dev_l2, dev_linf, perim, label=""):
    """The discrete L2 norm is bounded by sqrt(|boundary|) times the sup norm."""
    if not (dev_l2 >= 0.0 and dev_linf > 0.0):
        return [f"{label}deviation norms ({dev_l2!r}, {dev_linf!r}) not positive"]
    if dev_l2 > math.sqrt(perim) * dev_linf * (1.0 + 1e-6):
        return [f"{label}dev_L2 {dev_l2!r} > sqrt(|boundary|) * dev_Linf "
                f"{math.sqrt(perim) * dev_linf!r}"]
    return []


def check_diagnose(row, cfg):
    """A `diagnose` report row against closed forms and properties."""
    dom = cfg["domain"]
    p = check_deviation_bridge(row["dev_L2"], row["dev_Linf"], perimeter(dom))
    if not _is_centred_ellipse(dom):
        return p
    p += check_one_phase_ellipse(row, dom)
    inclusion = cfg.get("inclusion", {"kind": "none"})
    if inclusion.get("kind", "none") == "none" or cfg.get("sigma_c", 1.0) == 1.0:
        ex = EllipseTorsion(dom["a"], dom["b"])
        l2, linf = ex.deviation(cfg.get("eta"))
        # variational flux recovery is second order; the boundary nodes sample
        # the sup at O(h^2) distance from its maximiser
        tol = 0.25 * row["h_max"] ** 2
        _near(p, "dev_Linf", row["dev_Linf"], linf, tol)
        _near(p, "dev_L2", row["dev_L2"], l2, tol)
    return p


def check_identity_rows(rows, cfg):
    """`verify-identity`: the FI gap shrinks by more than 2 under refinement."""
    p = []
    if len(rows) != 2:
        return [f"verify-identity: {len(rows)} rows, expected 2"]
    if not rows[1]["gap_reduction"] > 2.0:
        p.append(f"gap_reduction = {rows[1]['gap_reduction']!r} not above 2")
    if not rows[1]["h_max"] < rows[0]["h_max"]:
        p.append("h_max did not shrink under refinement")
    dom = cfg["domain"]
    if _is_centred_ellipse(dom):
        fi = EllipseTorsion(dom["a"], dom["b"]).fi_lhs
        for r in rows:
            _near(p, f"FI_lhs[level {int(r['level'])}]", r["FI_lhs"], fi, 0.01 * fi)
            _near(p, f"FI_rhs[level {int(r['level'])}]", r["FI_rhs"], fi, 0.01 * fi)
    return p


def check_nonexistence(row, cfg):
    p = []
    dom = cfg["domain"]
    if _is_centred_ellipse(dom):
        # the threshold is refused unless gap > 10 h^2, so h^2 bounds the error
        _near(p, "gap", row["gap"], dom["a"] - dom["b"], cfg["target_h"] ** 2)
    _near(p, "sigma_threshold", row["sigma_threshold"],
          row["gap"] / cfg["fitted_C2"], 1e-12 * abs(row["gap"]))
    _near(p, "area_threshold", row["area_threshold"],
          (row["gap"] / cfg["fitted_C3"]) ** 2, 1e-12 * row["gap"] ** 2)
    return p


def check_solve(row, cfg, field_text=None):
    """`solve`: concentric disks have u(0) = (R^2 - r0^2)/4 + r0^2/(4 sigma)
    and total flux -|Omega| for every contrast."""
    p = []
    dom = cfg["domain"]
    inc = cfg.get("inclusion", {"kind": "none"})
    h2 = row["h_max"] ** 2
    if not (row["min_value"] >= -1e-14 and row["max_value"] >= row["center_value"] - 1e-14):
        p.append("solution range does not bracket the centre value from above 0")
    # the discrete flux balances the load, i.e. the area of the polygon
    # inscribed in the curve, which misses |Omega| by the chord sagittas
    _near(p, "boundary_flux_total", row["boundary_flux_total"], -area(dom),
          sagitta_area(dom, row["h_max"]))
    concentric = (dom["kind"] == "disk" and inc.get("kind") == "disk"
                  and tuple(dom.get("center", (0.0, 0.0))) == (0.0, 0.0)
                  and tuple(inc.get("center", (0.0, 0.0))) == (0.0, 0.0))
    if concentric:
        R, r0, s = dom["radius"], inc["radius"], cfg.get("sigma_c", 1.0)
        _near(p, "center_value", row["center_value"],
              (R * R - r0 * r0) / 4.0 + r0 * r0 / (4.0 * s), 0.05 * h2)
    if field_text is not None:
        p += check_field_dump(field_text, row)
    return p


def check_field_dump(text, row):
    """field.txt: one value per vertex, and the values span the report's range."""
    lines = text.split("\n")
    try:
        iv, it, iv2 = (lines.index("VERTICES"), lines.index("TRIANGLES"),
                       lines.index("VALUES"))
    except ValueError:
        return ["field.txt lacks a VERTICES/TRIANGLES/VALUES section"]
    n_vertices = it - iv - 1
    values = np.array([float(s) for s in lines[iv2 + 1:] if s])
    if len(values) != n_vertices:
        return [f"field.txt has {len(values)} values for {n_vertices} vertices"]
    p = []
    _near(p, "field max", float(values.max()), row["max_value"], 0.0)
    _near(p, "field min", float(values.min()), row["min_value"], 0.0)
    return p


# -- sweeps -------------------------------------------------------------------

# slope windows: the sigma and Frechet responses are differentiable in their
# parameter (slope 1), the inclusion bound guarantees at least 1/2, and the
# one-phase stability exponent is 1
SLOPE_RANGES = {
    "sweep-sigma": (0.85, 1.15),
    "frechet-check": (0.85, 1.15),
    "sweep-inclusion": (0.5, math.inf),
    "sweep-stability": (0.85, 1.15),
}


def check_sweep(command, fit, rows, cfg, svg_text=None):
    """A sweep's fit.json and report rows."""
    p = []
    lo, hi = SLOPE_RANGES[command]
    if fit.get("status") != "ok" or fit.get("fit") is None:
        return [f"{command}: status {fit.get('status')!r}, no fit"]
    slope = fit["fit"]["slope"]
    if not lo <= slope <= hi:
        p.append(f"{command}: slope {slope!r} outside [{lo}, {hi}]")
    if command == "sweep-sigma":
        perim = perimeter(cfg["domain"])
        for r in rows:
            p += check_deviation_bridge(r["dev_L2"], r["dev_Linf"], perim,
                                        label=f"t={r['t']}: ")
    if command == "sweep-stability":
        for r, dom in zip(rows, cfg["family"]):
            p += check_deviation_bridge(r["dev_L2"], r["dev_Linf"], perimeter(dom),
                                        label=f"gap={r['gap']}: ")
    if cfg.get("plot"):
        if svg_text is None or not svg_text.startswith("<svg") or "slope=" not in svg_text:
            p.append(f"{command}: plot.svg missing or without a fitted slope")
    return p


# -- meshes -------------------------------------------------------------------


def check_mesh(vertices, triangles, region, boundary_loop, target_h, dom,
               inclusion=None):
    """Structural and geometric invariants of a conforming mesh.

    Guarantees of the mesher (min angle >= 20 deg, h_max <= 1.5 target_h),
    positive orientation, a disk topology (V - E + T = 1, one boundary loop),
    boundary vertices on the analytic curve, element-exact region tags, and
    region areas within the chord (sagitta) error of the exact areas.
    """
    p = []
    v = vertices[triangles]                                  # (T, 3, 2)
    e = np.roll(v, -1, axis=1) - v                           # edge i -> i+1
    twice_area = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    if not np.all(twice_area > 0):
        p.append(f"{int(np.sum(twice_area <= 0))} triangles with non-positive area")
    ell = np.hypot(e[..., 0], e[..., 1])                     # (T, 3)
    h_max = float(ell.max())
    if h_max > 1.5 * target_h:
        p.append(f"h_max {h_max:.5g} > 1.5 * target_h {1.5 * target_h:.5g}")
    # angle at vertex i between edges (i -> i+1) and (i -> i-1)
    prev = -np.roll(e, 1, axis=1)
    cosang = (e * prev).sum(axis=-1) / (ell * np.roll(ell, 1, axis=1))
    min_angle = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min())
    if min_angle < 20.0:
        p.append(f"min angle {min_angle:.3f} deg < 20")

    pairs = np.sort(np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=-1)
                    .reshape(-1, 2), axis=1)
    edges, counts = np.unique(pairs, axis=0, return_counts=True)
    if np.any(counts > 2):
        p.append("edge shared by more than two triangles")
    euler = len(vertices) - len(edges) + len(triangles)
    if euler != 1:
        p.append(f"V - E + T = {euler}, expected 1")
    loop = np.asarray(boundary_loop)
    loop_edges = np.sort(np.stack([loop, np.roll(loop, -1)], axis=1), axis=1)
    hull = edges[counts == 1]
    if (len(hull) != len(loop_edges)
            or not np.array_equal(np.unique(loop_edges, axis=0), hull)):
        p.append("boundary edges do not form the boundary loop")

    scale = max(1.0, float(np.abs(vertices).max()))
    off = float(np.abs(curve_residual(dom, vertices[loop])).max())
    if off > 1e-12 * scale:
        p.append(f"boundary vertex {off:.3g} off the analytic curve")

    areas = 0.5 * twice_area
    _near(p, "|Omega|", float(areas.sum()), area(dom), sagitta_area(dom, h_max))
    if inclusion is not None:
        centroids = v.mean(axis=1)
        inside = curve_residual(inclusion, centroids) > 0
        if not np.array_equal(inside, np.asarray(region) == 1):
            p.append(f"{int(np.sum(inside != (np.asarray(region) == 1)))} "
                     "triangles tagged on the wrong side of the interface")
        _near(p, "|D|", float(areas[np.asarray(region) == 1].sum()),
              area(inclusion), sagitta_area(inclusion, h_max))
    elif np.any(np.asarray(region) != 0):
        p.append("region tags inside D without an inclusion")
    return p
