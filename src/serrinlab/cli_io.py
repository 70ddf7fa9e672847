"""Batch entry point: `serrin-lab --config <path> [--jobs N]`, a JSON config in,
CSV/JSON/SVG artifacts plus a manifest out.  The config's command picks its row
of COMMANDS: the runner that writes the command's artifacts and returns its
summary, the fields it requires and the optional fields it reads; a config
that sets any other field to a value besides its default is rejected, naming
every such field.  Runners call the library through this module's names at
call time, so a tracer that re-points them sees each call.
Exit codes: 0 success, 2 validation error, 3 solver/mesh failure or failed
numerical self-check, 4 internal error (any other exception, with its
traceback in the manifest).  Artifact files (report.csv, fit.json, plot.svg,
field.txt) are byte-deterministic for a fixed config; manifest.json carries the
wall time and is not.  This module writes every artifact, field.txt (a
solve's mesh and values) included.  Every report.csv is written from result
records whose keys are its header: a SerrinReport's fields, a sweep row's keys
plus status, so a column and the field it holds share one name.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import traceback
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .errors import MeshQualityError, SolverError, ValidationError
from .experiments import (
    SweepResult,
    _parallel_map,
    frechet_check,
    inclusion_sweep,
    nonexistence_threshold,
    one_phase_stability_sweep,
    sigma_sweep,
)
from .fem_core import evaluate, normal_derivative, solve_two_phase
from .geometry import DomainSpec
from .meshgen import generate, refine
from .serrin_diagnostics import EtaSpec, full_report

def _join(path, name):
    return f"{path}.{name}" if path else name


_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def _ill_typed(path, expected, value):
    got = (f"a list of {len(value)}" if type(value) is list
           else _JSON_NAMES.get(type(value), type(value).__name__))
    return ValidationError(f"{path}: expected {expected}, got {got}")


def _decode(tp, value, path):
    """One JSON value checked against annotation tp (see spec_from_dict)."""
    args = get_args(tp)
    if get_origin(tp) is Union:  # Optional[X]; a spec also reads {"kind": "none"} as null
        if is_dataclass(args[0]) and type(value) is dict and value.get("kind") == "none":
            if len(value) > 1:
                raise ValidationError(f"{path}.kind: 'none' takes no other field")
            return None
        return None if value is None else _decode(args[0], value, path)
    if is_dataclass(tp):
        return spec_from_dict(tp, value, path)
    if get_origin(tp) is list:
        if type(value) is not list:
            raise _ill_typed(path, "a list", value)
        return [_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if tp is tuple:  # a point [x, y]
        if type(value) is not list or len(value) != 2:
            raise _ill_typed(path, "a point [x, y]", value)
        return tuple(_decode(float, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        value = float(value)
    if type(value) is not tp:
        raise _ill_typed(path, _JSON_NAMES[tp], value)
    if tp is float and not math.isfinite(value):
        raise ValidationError(f"{path}: expected a finite number, got {value}")
    return value


def spec_from_dict(cls, d, path=""):
    """Decode the JSON object d into dataclass cls, field by field.

    Each value is checked against its annotation: float takes a finite number
    (an int is converted), int rejects floats and bools, bool and str are
    strict, tuple is a point [x, y], list[X] and nested dataclasses decode
    recursively, Optional allows null and, for a spec, {"kind": "none"}.
    Unknown, missing, ill-typed and invalid fields raise ValidationError naming
    their JSON path (domain.radius, family[1].a/b): cls raises relative to
    itself, and the path is prefixed here.
    """
    if type(d) is not dict:
        raise _ill_typed(path or "config", "an object", d)
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"{_join(path, unknown[0])}: unknown field")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = _decode(hints[f.name], d[f.name], _join(path, f.name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{_join(path, f.name)}: required")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(_join(path, str(exc))) from None


def spec_to_dict(spec) -> dict:
    """JSON object of a spec dataclass: every field that is not None."""
    def encode(v):
        if is_dataclass(v):
            return spec_to_dict(v)
        return [encode(x) for x in v] if isinstance(v, (list, tuple)) else v
    return {f.name: encode(getattr(spec, f.name)) for f in fields(spec)
            if getattr(spec, f.name) is not None}


def _is_component(name) -> bool:
    """Whether name is a string naming one directory below a root."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


@dataclass
class RunConfig:
    command: str
    domain: Optional[DomainSpec] = None
    inclusion: Optional[DomainSpec] = None
    sigma_c: float = 1.0
    target_h: float = 0.05
    refine_levels: int = 0
    t_values: Optional[list[float]] = None
    t0: Optional[float] = None
    epsilon_values: Optional[list[float]] = None
    inclusion_radii: Optional[list[float]] = None
    family: Optional[list[DomainSpec]] = None
    eta: Optional[EtaSpec] = None
    fitted_C2: Optional[float] = None
    fitted_C3: Optional[float] = None
    window: int = 4
    output_dir: Optional[str] = None
    plot: bool = False
    name: Optional[str] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"command: unknown command {self.command!r}")
        if self.target_h is None or self.target_h <= 0:
            raise ValidationError("target_h: must be positive")
        if self.window < 0:
            raise ValidationError("window: must be >= 0 (0 fits all points)")
        if self.refine_levels < 0:
            raise ValidationError("refine_levels: must be >= 0")
        if self.name is not None and not _is_component(self.name):
            raise ValidationError("name: must be a single path component")
        if self.sigma_c <= 0:
            raise ValidationError("sigma_c: must be positive")
        _, required, optional = COMMANDS[self.command]
        for name in required:
            if getattr(self, name) in (None, []):
                raise ValidationError(f"{name}: required for {self.command}")
        read = {"command", "name", "output_dir", "target_h", *required, *optional}
        unread = [f.name for f in fields(self)
                  if f.name not in read and getattr(self, f.name) != f.default]
        if unread:
            raise ValidationError(f"{'/'.join(unread)}: not read by {self.command}")


config_from_dict = partial(spec_from_dict, RunConfig)
domain_from_dict = partial(spec_from_dict, DomainSpec, path="domain")
inclusion_from_dict = partial(spec_from_dict, DomainSpec, path="inclusion")


def _read_config(path):
    """The JSON value in the config file at path, not yet decoded."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON: {exc}") from exc


def load_config(path) -> RunConfig:
    return config_from_dict(_read_config(path))


# -- artifact writers ---------------------------------------------------------


def _write_csv(path, rows):
    """The keys of rows[0] as header, then the values of each row (a dict):
    numbers as repr(float), text quoted only when it contains a comma or a
    quote."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow(repr(float(v)) if isinstance(v, (int, float, np.floating))
                            and not isinstance(v, bool) else str(v) for v in row.values())


def _fit_json(sweep: SweepResult) -> dict:
    """fit.json: every field of the sweep but its per-row data."""
    d = asdict(sweep)
    for key in ("rows", "points"):
        del d[key]
    return d


def emit_plot(sweep: SweepResult, path) -> bool:
    """Standalone log-log SVG scatter of sweep.points (excluded ones grey) with
    the fitted line and slope label.

    Byte-deterministic for a fixed sweep; returns False (no file) when fewer
    than 2 positive points remain.
    """
    pts = [(x, y, ex) for (x, y), ex in zip(sweep.points, sweep.excluded)
           if x > 0 and y > 0]
    if len(pts) < 2:
        return False
    W, H, ML, MB, MT, MR = 640, 480, 70, 50, 30, 30
    lx = [math.log10(p[0]) for p in pts]
    ly = [math.log10(p[1]) for p in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    padx = 0.05 * max(x1 - x0, 1e-9)
    pady = 0.05 * max(y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(v):
        return ML + (v - x0) / (x1 - x0) * (W - ML - MR)

    def sy(v):
        return H - MB - (v - y0) / (y1 - y0) * (H - MB - MT)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{ML}" y="20" font-family="monospace" font-size="14">'
             f'{sweep.kind} sweep (log-log)</text>']
    # decade ticks
    for d in range(math.floor(x0), math.ceil(x1) + 1):
        if x0 <= d <= x1:
            parts.append(f'<line x1="{sx(d):.2f}" y1="{H-MB}" x2="{sx(d):.2f}" '
                         f'y2="{MT}" stroke="#dddddd"/>')
            parts.append(f'<text x="{sx(d):.2f}" y="{H-MB+18}" font-family="monospace" '
                         f'font-size="11" text-anchor="middle">1e{d}</text>')
    for d in range(math.floor(y0), math.ceil(y1) + 1):
        if y0 <= d <= y1:
            parts.append(f'<line x1="{ML}" y1="{sy(d):.2f}" x2="{W-MR}" '
                         f'y2="{sy(d):.2f}" stroke="#dddddd"/>')
            parts.append(f'<text x="{ML-8}" y="{sy(d)+4:.2f}" font-family="monospace" '
                         f'font-size="11" text-anchor="end">1e{d}</text>')
    parts.append(f'<rect x="{ML}" y="{MT}" width="{W-ML-MR}" height="{H-MB-MT}" '
                 f'fill="none" stroke="black"/>')
    if sweep.fit is not None:
        ln10 = math.log(10.0)
        ya = (sweep.fit.intercept + sweep.fit.slope * x0 * ln10) / ln10
        yb = (sweep.fit.intercept + sweep.fit.slope * x1 * ln10) / ln10
        parts.append(f'<line x1="{sx(x0):.2f}" y1="{sy(ya):.2f}" x2="{sx(x1):.2f}" '
                     f'y2="{sy(yb):.2f}" stroke="#cc3333" stroke-width="1.5"/>')
        parts.append(f'<text x="{W-MR-10}" y="{MT+20}" font-family="monospace" '
                     f'font-size="13" text-anchor="end">slope={sweep.fit.slope:.2f}</text>')
    for x, y, ex in pts:
        fill = "#bbbbbb" if ex else "#3355cc"
        parts.append(f'<circle cx="{sx(math.log10(x)):.2f}" cy="{sy(math.log10(y)):.2f}" '
                     f'r="4" fill="{fill}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return True


def _write_field(path, f):
    """field.txt of the Field f: its mesh's VERTICES, TRIANGLES tagged
    inside_D/outside_D and BOUNDARY_EDGES with outward normals, then VALUES;
    one record per line, floats at 17 significant digits."""
    mesh = f.mesh
    loop = mesh.boundary_loop
    with open(path, "w", newline="\n") as fh:
        fh.write("VERTICES\n")
        fh.writelines(f"{x:.17g} {y:.17g}\n" for x, y in mesh.vertices)
        fh.write("TRIANGLES\n")
        fh.writelines(f"{a} {b} {c} {'inside_D' if r else 'outside_D'}\n"
                      for (a, b, c), r in zip(mesh.triangles, mesh.region))
        fh.write("BOUNDARY_EDGES\n")
        fh.writelines(f"{a} {b} {nx:.17g} {ny:.17g}\n"
                      for a, b, (nx, ny) in zip(loop, np.roll(loop, -1), mesh.boundary_normals))
        fh.write("VALUES\n")
        fh.writelines(f"{v:.17g}\n" for v in f.values)


# -- command execution ---------------------------------------------------------


def _solve(cfg, outdir, jobs):
    mesh = generate(cfg.domain, cfg.inclusion, cfg.target_h)
    for _ in range(cfg.refine_levels):
        mesh = refine(mesh)
    u = solve_two_phase(mesh, cfg.sigma_c)
    tr = normal_derivative(mesh, u)
    center_val = evaluate(mesh, u, cfg.domain.center)
    _write_csv(outdir / "report.csv", [{
        "center_value": center_val, "min_value": float(u.values.min()),
        "max_value": float(u.values.max()), "boundary_flux_total": tr.values @ tr.weights,
        "h_max": mesh.h_max}])
    _write_field(outdir / "field.txt", u)
    return {"center_value": center_val}


def _diagnose(cfg, outdir, jobs):
    rep = full_report(cfg.domain, cfg.inclusion, cfg.sigma_c, cfg.target_h,
                      eta=cfg.eta, refine_levels=cfg.refine_levels, jobs=jobs)
    _write_csv(outdir / "report.csv", [asdict(rep)])
    return {"gap": rep.gap}


def _identity_report(cfg, jobs, level):
    return full_report(cfg.domain, cfg.inclusion, cfg.sigma_c, cfg.target_h,
                       refine_levels=level, jobs=jobs)


def _verify_identity(cfg, outdir, jobs):
    """Level 0's report, then level 1's; with jobs > 1 level 0 runs in one pool
    worker while this process runs level 1, and level 0's error wins."""
    rep0, rep1 = _parallel_map([partial(_identity_report, cfg, jobs, level)
                                for level in (0, 1)], jobs)
    ratio = rep0.FI_gap / max(rep1.FI_gap, 1e-300)
    _write_csv(outdir / "report.csv", [
        {"level": level, "h_max": rep.h_max, "FI_lhs": rep.FI_lhs,
         "FI_rhs": rep.FI_rhs, "FI_gap": rep.FI_gap, "gap_reduction": reduction}
        for level, rep, reduction in ((0, rep0, 1.0), (1, rep1, ratio))])
    return {"FI_gap": rep1.FI_gap}


def _nonexistence(cfg, outdir, jobs):
    th = nonexistence_threshold(cfg.domain, cfg.fitted_C2, cfg.fitted_C3, cfg.target_h)
    _write_csv(outdir / "report.csv", [asdict(th)])
    return {"sigma_threshold": th.sigma_threshold}


def _write_sweep(cfg, outdir, sweep: SweepResult) -> dict:
    """report.csv, fit.json and, when cfg.plot, plot.svg of a sweep; its summary."""
    _write_csv(outdir / "report.csv", [dict(row, status="excluded" if ex else "kept")
                                       for row, ex in zip(sweep.rows, sweep.excluded)])
    (outdir / "fit.json").write_text(
        json.dumps(_fit_json(sweep), indent=2, sort_keys=True) + "\n", newline="\n")
    summary = {"status": sweep.status}
    if cfg.plot and not emit_plot(sweep, outdir / "plot.svg"):
        summary["plot"] = "skipped: fewer than 2 positive points"
    if sweep.fit is not None:
        summary["slope"] = sweep.fit.slope
    return summary


def _sweep_sigma(cfg, outdir, jobs):
    return _write_sweep(cfg, outdir, sigma_sweep(
        cfg.domain, cfg.inclusion, cfg.t_values, cfg.target_h, window=cfg.window, jobs=jobs))


def _sweep_inclusion(cfg, outdir, jobs):
    return _write_sweep(cfg, outdir, inclusion_sweep(
        cfg.domain, cfg.sigma_c, cfg.inclusion_radii, cfg.target_h, window=cfg.window, jobs=jobs))


def _sweep_stability(cfg, outdir, jobs):
    return _write_sweep(cfg, outdir, one_phase_stability_sweep(
        cfg.family, cfg.target_h, window=cfg.window, jobs=jobs))


def _frechet_check(cfg, outdir, jobs):
    return _write_sweep(cfg, outdir, frechet_check(
        cfg.domain, cfg.inclusion, cfg.t0, cfg.epsilon_values, cfg.target_h, window=cfg.window))


# command -> (runner, required fields, optional fields it reads); every command
# also reads command, name, output_dir and target_h
_SWEEP = ("window", "plot")
COMMANDS = {
    "solve": (_solve, ("domain",), ("inclusion", "sigma_c", "refine_levels")),
    "diagnose": (_diagnose, ("domain",), ("inclusion", "sigma_c", "refine_levels", "eta")),
    "sweep-sigma": (_sweep_sigma, ("domain", "t_values"), ("inclusion", *_SWEEP)),
    "sweep-inclusion": (_sweep_inclusion, ("domain", "inclusion_radii"), ("sigma_c", *_SWEEP)),
    "sweep-stability": (_sweep_stability, ("family",), _SWEEP),
    "frechet-check": (_frechet_check, ("domain", "t0", "epsilon_values"),
                      ("inclusion", *_SWEEP)),
    "verify-identity": (_verify_identity, ("domain",), ("inclusion", "sigma_c")),
    "nonexistence": (_nonexistence, ("domain", "fitted_C2", "fitted_C3"), ()),
}


def _run_dir(output_dir, name) -> Path:
    return Path(os.environ.get("SERRIN_LAB_OUT") or output_dir or "outputs") / name


def run_dir(cfg: RunConfig) -> Path:
    """<root>/<name>: root is SERRIN_LAB_OUT, else output_dir, else outputs;
    name is the config's name, else its command."""
    return _run_dir(cfg.output_dir, cfg.name or cfg.command)


def _undecoded_run_dir(raw) -> Path:
    """run_dir of a config that did not decode, from the raw JSON: its
    output_dir where that is a string, and its name, else its command, where
    either is valid; <root>/invalid-config when no name resolves."""
    d = raw if isinstance(raw, dict) else {}
    output_dir = d.get("output_dir") if isinstance(d.get("output_dir"), str) else None
    name = d.get("name") if _is_component(d.get("name")) else None
    if name is None and d.get("command") in tuple(COMMANDS):
        name = d["command"]
    return _run_dir(output_dir, name or "invalid-config")


def _write_manifest(outdir, manifest):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(cfg: RunConfig, jobs: int = 1) -> int:
    """Execute one config; returns the process exit code."""
    outdir = run_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"config": spec_to_dict(cfg), "version": __version__}
    t0 = time.perf_counter()
    try:
        summary = COMMANDS[cfg.command][0](cfg, outdir, jobs)
    except ValidationError as exc:
        manifest.update(status="validation-error", error=str(exc))
        code = 2
    except (SolverError, MeshQualityError) as exc:
        manifest.update(status="solver-failure", error=str(exc))
        code = 3
    except Exception as exc:
        manifest.update(status="internal-error", error=repr(exc),
                        traceback=traceback.format_exc())
        code = 4
    else:
        manifest.update(status="ok", summary=summary)
        code = 0
    manifest["wall_time_s"] = time.perf_counter() - t0
    _write_manifest(outdir, manifest)
    return code


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the platform
    has one, which a cpuset or taskset narrows, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="serrin-lab",
        description="two-phase Serrin laboratory: JSON config in, CSV/JSON/SVG out")
    parser.add_argument("--config", required=True,
                        help="path to a JSON run config, which names its command")
    parser.add_argument("--jobs", type=int, default=_usable_cores(),
                        help="parallel workers: sweep members and verify-identity's "
                             "level 0 in processes; in diagnose and verify-identity one "
                             "solve stage on a thread beside the caller's work (the "
                             "two-phase solve beside the one-phase solve with an "
                             "inclusion and sigma_c != 1, else the one-phase solve "
                             "beside recovery set-up); at least 1 (default: the cores "
                             "this process may run on)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs: must be at least 1", file=sys.stderr)
        return 2
    raw = None
    try:
        raw = _read_config(args.config)
        cfg = config_from_dict(raw)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_manifest(_undecoded_run_dir(raw), {
            "config": raw, "version": __version__, "status": "validation-error",
            "error": str(exc)})
        return 2
    code = run(cfg, jobs=args.jobs)
    if code != 0:
        error = json.loads((run_dir(cfg) / "manifest.json").read_text())["error"]
        print(f"error: {error} (exit {code}, see manifest.json)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
