"""Each output check passes an exact value and rejects a deliberately wrong one.

    python3 -m pytest -q perfbench/test_bench_checks.py

The exact values come from the closed forms in bench_checks itself (and, for
the mesh checks, from a coarse serrinlab mesh), so these tests show that a
check can fail, not that the program is right.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_checks as ck  # noqa: E402

ELLIPSE = {"kind": "ellipse", "a": 1.2, "b": 1.0}
H = 0.0125


def _diagnose_row(eta=None):
    ex = ck.EllipseTorsion(1.2, 1.0)
    l2, linf = ex.deviation(eta)
    return {"c": ex.c, "dev_L2": l2, "dev_Linf": linf, "z_x": 0.0, "z_y": 0.0,
            "rho_i": 1.0, "rho_e": 1.2, "gap": 0.2, "osc_h": ex.osc_h,
            "FI_lhs": ex.fi_lhs, "FI_rhs": ex.fi_lhs, "FI_gap": 1e-4,
            "growth_min": 0.4, "h_max": H}


def test_ellipse_closed_forms():
    ex = ck.EllipseTorsion(1.0, 1.0)
    # unit disk: v = (1 - r^2)/4, flux -1/2 = c, |D^2 h| = 0
    assert ex.kappa == pytest.approx(0.25)
    assert ex.perimeter == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert ex.c == pytest.approx(-0.5, rel=1e-14)
    assert ex.deviation() == pytest.approx((0.0, 0.0), abs=1e-14)
    assert ex.fi_lhs == pytest.approx(0.0, abs=1e-15)
    # Ramanujan's second approximation is good to ~1e-11 at a/b = 1.2
    a, b = 1.2, 1.0
    lam = ((a - b) / (a + b)) ** 2
    ramanujan = math.pi * (a + b) * (1 + 3 * lam / (10 + math.sqrt(4 - 3 * lam)))
    assert ck.perimeter(ELLIPSE) == pytest.approx(ramanujan, rel=1e-9)


@pytest.mark.parametrize("eta", [None, {"amplitude": 0.01, "mode": 3, "phase": 1.0}])
def test_diagnose_accepts_exact_row(eta):
    cfg = {"command": "diagnose", "domain": ELLIPSE, "eta": eta}
    assert ck.check_diagnose(_diagnose_row(eta), cfg) == []


@pytest.mark.parametrize("key,delta", [
    ("c", 1e-6), ("z_x", 1e-3), ("gap", 1e-3), ("rho_e", 1e-3), ("osc_h", 1e-3),
    ("FI_lhs", 0.05), ("dev_Linf", 1e-3), ("dev_L2", 1e-3), ("FI_gap", 0.5),
    ("growth_min", -1.0),
])
def test_diagnose_rejects_wrong_value(key, delta):
    row = _diagnose_row()
    row[key] += delta * (abs(row[key]) if key in ("FI_lhs",) else 1.0)
    assert ck.check_diagnose(row, {"command": "diagnose", "domain": ELLIPSE})


def test_diagnose_rejects_eta_ignored():
    eta = {"amplitude": 0.01, "mode": 2, "phase": 0.0}
    cfg = {"command": "diagnose", "domain": ELLIPSE, "eta": eta}
    assert ck.check_diagnose(_diagnose_row(None), cfg)


def test_deviation_bridge():
    p = ck.perimeter(ELLIPSE)
    assert ck.check_deviation_bridge(math.sqrt(p) * 0.01, 0.01, p) == []
    assert ck.check_deviation_bridge(math.sqrt(p) * 0.0101, 0.01, p)
    assert ck.check_deviation_bridge(0.01, 0.0, p)


def _identity_rows():
    fi = ck.EllipseTorsion(1.2, 1.0).fi_lhs
    return [{"level": 0, "h_max": 0.03, "FI_lhs": fi, "FI_rhs": fi, "gap_reduction": 1.0},
            {"level": 1, "h_max": 0.015, "FI_lhs": fi, "FI_rhs": fi, "gap_reduction": 3.9}]


def test_identity():
    cfg = {"domain": ELLIPSE}
    assert ck.check_identity_rows(_identity_rows(), cfg) == []
    for key, value in (("gap_reduction", 1.9), ("FI_rhs", 0.0), ("h_max", 0.03)):
        rows = _identity_rows()
        rows[1][key] = value
        assert ck.check_identity_rows(rows, cfg), key
    assert ck.check_identity_rows(_identity_rows()[:1], cfg)


def _solve_case():
    cfg = {"command": "solve", "domain": {"kind": "disk", "radius": 1.0},
           "inclusion": {"kind": "disk", "radius": 0.5}, "sigma_c": 2.0}
    u0 = (1.0 - 0.25) / 4.0 + 0.25 / 8.0
    row = {"center_value": u0, "min_value": 0.0, "max_value": u0,
           "boundary_flux_total": -math.pi, "h_max": 0.05}
    return cfg, row


def test_solve():
    cfg, row = _solve_case()
    assert ck.check_solve(row, cfg) == []
    for key, value in (("center_value", row["center_value"] * 1.01),
                       ("boundary_flux_total", -math.pi * 1.01),
                       ("min_value", -0.01)):
        bad = dict(row, **{key: value})
        assert ck.check_solve(bad, cfg), key
    # sigma_c = 1 everywhere would give (1 - 0)/4 at the centre
    assert ck.check_solve(dict(row, center_value=0.25), cfg)


def test_field_dump():
    _, row = _solve_case()
    text = "VERTICES\n0 0\n1 0\n0 1\nTRIANGLES\n0 1 2\nVALUES\n{}\n0.0\n0.0\n".format(
        repr(row["max_value"]))
    assert ck.check_field_dump(text, row) == []
    assert ck.check_field_dump(text.replace("0.0\n0.0\n", "0.0\n"), row)
    assert ck.check_field_dump(text.replace("VALUES", "VALS"), row)


def test_nonexistence():
    cfg = {"domain": ELLIPSE, "fitted_C2": 4.0, "fitted_C3": 2.0, "target_h": 0.05}
    row = {"gap": 0.2, "sigma_threshold": 0.05, "area_threshold": 0.01}
    assert ck.check_nonexistence(row, cfg) == []
    for key, value in (("gap", 0.21), ("sigma_threshold", 0.06), ("area_threshold", 0.02)):
        assert ck.check_nonexistence(dict(row, **{key: value}), cfg), key


@pytest.mark.parametrize("command,good,bad", [
    ("sweep-sigma", 1.0, 0.7), ("frechet-check", 0.98, 1.3),
    ("sweep-inclusion", 0.55, 0.45), ("sweep-stability", 1.02, 2.0),
])
def test_sweep_slopes(command, good, bad):
    cfg = {"domain": ELLIPSE, "family": [ELLIPSE]}
    rows = [{"t": 0.1, "gap": 0.2, "dev_L2": 0.01, "dev_Linf": 0.01}]
    fit = {"status": "ok", "fit": {"slope": good}}
    assert ck.check_sweep(command, fit, rows, cfg) == []
    assert ck.check_sweep(command, {"status": "ok", "fit": {"slope": bad}}, rows, cfg)
    assert ck.check_sweep(command, {"status": "noise-floor", "fit": None}, rows, cfg)


def test_sweep_plot():
    fit = {"status": "ok", "fit": {"slope": 1.0}}
    cfg = {"domain": ELLIPSE, "plot": True}
    assert ck.check_sweep("frechet-check", fit, [], cfg, "<svg>slope=1.00</svg>") == []
    assert ck.check_sweep("frechet-check", fit, [], cfg, None)
    assert ck.check_sweep("frechet-check", fit, [], cfg, "<svg></svg>")


# -- meshes -------------------------------------------------------------------

DISK = {"kind": "disk", "radius": 1.0}
INCLUSION = {"kind": "disk", "center": [0.3, 0.2], "radius": 0.25}


@pytest.fixture(scope="module")
def mesh():
    from serrinlab import geometry, meshgen

    m = meshgen.generate(geometry.DomainSpec("disk", radius=1.0),
                         geometry.InclusionSpec("disk", center=(0.3, 0.2), radius=0.25),
                         0.2)
    return m.vertices, m.triangles, m.region, m.boundary_loop, m.target_h


def _check(v, t, r, loop, h):
    return ck.check_mesh(v, t, r, loop, h, DISK, INCLUSION)


def test_mesh_accepts_generated(mesh):
    assert _check(*mesh) == []


def _problems(mesh, **change):
    parts = dict(zip(("v", "t", "r", "loop", "h"), mesh), **change)
    return " | ".join(_check(*parts.values()))


def test_mesh_rejects_flipped_triangle(mesh):
    t = mesh[1].copy()
    t[0] = t[0, ::-1]
    assert "non-positive area" in _problems(mesh, t=t)


def test_mesh_rejects_hole(mesh):
    _, t, r, loop, _ = mesh
    interior = np.nonzero(~np.isin(t, loop).any(axis=1))[0]
    keep = np.ones(len(t), bool)
    keep[interior[0]] = False
    assert "V - E + T" in _problems(mesh, t=t[keep], r=r[keep])


def test_mesh_rejects_double_cover(mesh):
    _, t, r, _, _ = mesh
    problems = _problems(mesh, t=np.vstack([t, t]), r=np.concatenate([r, r]))
    assert "|Omega|" in problems and "|D|" in problems


def test_mesh_rejects_coarse_or_skewed(mesh):
    v, t, _, loop, h = mesh
    assert "h_max" in _problems(mesh, h=h / 2.0)
    v = v.copy()
    inner = np.setdiff1d(np.arange(len(v)), loop)[0]
    nbr = t[(t == inner).any(axis=1)][0]
    other = nbr[nbr != inner][0]
    v[inner] = 0.9 * v[other] + 0.1 * v[inner]       # collapse towards a neighbour
    assert "min angle" in _problems(mesh, v=v)


def test_mesh_rejects_off_curve_boundary(mesh):
    v, _, _, loop, _ = mesh
    v = v.copy()
    v[loop[0]] *= 1.0 - 1e-9
    assert "off the analytic curve" in _problems(mesh, v=v)


def test_mesh_rejects_wrong_tags(mesh):
    v, t, r, loop, h = mesh
    r = np.asarray(r).copy()
    r[np.nonzero(r == 1)[0][0]] = 0
    assert "wrong side" in _problems(mesh, r=r)
    assert ck.check_mesh(v, t, np.zeros_like(r), loop, h, DISK, None) == []
    assert ck.check_mesh(v, t, np.ones_like(r), loop, h, DISK, None)
