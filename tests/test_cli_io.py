import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrinlab.cli_io import (
    RunConfig,
    config_from_dict,
    domain_from_dict,
    emit_plot,
    main,
    run,
    spec_to_dict,
)
from serrinlab import cli_io, experiments, meshgen, serrin_diagnostics
from serrinlab.errors import SolverError, ValidationError
from serrinlab.experiments import FitResult, SweepResult
from serrinlab.fem_core import hessian_recovery, solve_two_phase
from serrinlab.geometry import DomainSpec
from serrinlab.serrin_diagnostics import EtaSpec, SerrinReport


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


DIAG_CFG = {"command": "diagnose",
            "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
            "inclusion": {"kind": "none"}, "target_h": 0.08}
SIGMA_CFG = {"command": "sweep-sigma", "domain": DIAG_CFG["domain"],
             "inclusion": {"kind": "disk", "radius": 0.3},
             "t_values": [0.4, 0.2, 0.1], "target_h": 0.08}
INCLUSION_CFG = {"command": "sweep-inclusion", "domain": DIAG_CFG["domain"],
                 "sigma_c": 2.0, "inclusion_radii": [0.3, 0.2, 0.1], "target_h": 0.1}
FRECHET_CFG = {"command": "frechet-check", "domain": DIAG_CFG["domain"],
               "inclusion": {"kind": "disk", "radius": 0.3}, "t0": 0.5,
               "epsilon_values": [0.2, 0.1, 0.05], "target_h": 0.1}
STABILITY_CFG = {"command": "sweep-stability", "target_h": 0.1,
                 "family": [{"kind": "ellipse", "a": 1.2, "b": 1.0},
                            {"kind": "ellipse", "a": 1.1, "b": 1.0}]}


class TestConfigRoundTrip:
    def test_identity_on_examples(self):
        cfgs = [
            RunConfig("diagnose", domain=DomainSpec("ellipse", a=1.2, b=1.0)),
            RunConfig("solve", domain=DomainSpec("disk", radius=1.0),
                      inclusion=DomainSpec("disk", radius=0.5), sigma_c=2.0,
                      target_h=0.05, name="conc"),
            RunConfig("sweep-sigma", domain=DomainSpec("star", r0=1.0, eps=0.05, k=3),
                      t_values=[0.4, 0.2, 0.1], plot=True),
            RunConfig("frechet-check", domain=DomainSpec("disk", radius=1.0),
                      t0=0.5, epsilon_values=[0.2, 0.1, 0.05]),
            RunConfig("sweep-stability",
                      family=[DomainSpec("ellipse", a=1.1, b=1.0),
                              DomainSpec("ellipse", a=1.05, b=1.0)]),
            RunConfig("diagnose", domain=DomainSpec("disk", radius=1.0),
                      eta=EtaSpec(0.01, 2, 0.3)),
            RunConfig("nonexistence", domain=DomainSpec("ellipse", a=1.3, b=1.0),
                      fitted_C2=4.0, fitted_C3=2.0),
        ]
        for cfg in cfgs:
            assert config_from_dict(spec_to_dict(cfg)) == cfg

    def test_json_round_trip_through_text(self):
        cfg = RunConfig("diagnose", domain=DomainSpec("ellipse", a=1.2, b=1.0),
                        inclusion=DomainSpec("disk", center=(0.1, 0.0), radius=0.2),
                        sigma_c=3.0)
        text = json.dumps(spec_to_dict(cfg), sort_keys=True)
        assert config_from_dict(json.loads(text)) == cfg

    @given(kind=st.sampled_from(["disk", "ellipse", "star"]),
           size=st.floats(0.5, 2.0), cx=st.floats(-1, 1))
    @settings(max_examples=30)
    def test_domain_round_trip(self, kind, size, cx):
        if kind == "disk":
            spec = DomainSpec("disk", center=(cx, 0.0), radius=size)
        elif kind == "ellipse":
            spec = DomainSpec("ellipse", center=(cx, 0.0), a=size + 0.5, b=size)
        else:
            spec = DomainSpec("star", center=(cx, 0.0), r0=size, eps=0.1, k=4)
        assert domain_from_dict(spec_to_dict(spec)) == spec

    def test_missing_command(self):
        with pytest.raises(ValidationError, match="command: required"):
            config_from_dict({"domain": {"kind": "disk", "radius": 1.0}})

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            config_from_dict({"command": "frobnicate"})

    def test_unknown_field_named(self):
        with pytest.raises(ValidationError, match="wibble: unknown field"):
            config_from_dict(dict(DIAG_CFG, wibble=1))

    def test_missing_required_lists(self):
        with pytest.raises(ValidationError, match="t_values"):
            config_from_dict({"command": "sweep-sigma",
                              "domain": {"kind": "disk", "radius": 1.0}})


DISK = {"kind": "disk", "radius": 1.0}

# every field set, each to a valid value of its type
FULL_CFG = {
    "command": "sweep-sigma", "name": "typed", "output_dir": "out", "plot": False,
    "domain": {"kind": "star", "center": [0.0, 0.0], "r0": 1.0, "eps": 0.1, "k": 3},
    "inclusion": {"kind": "disk", "center": [0.1, 0.0], "radius": 0.3},
    "sigma_c": 2.0, "target_h": 0.05, "refine_levels": 0, "window": 4,
    "t_values": [0.2, 0.1], "t0": 0.5, "epsilon_values": [0.1, 0.05],
    "inclusion_radii": [0.3, 0.2],
    "family": [dict(DISK, center=[0.0, 0.0]),
               {"kind": "ellipse", "center": [0.0, 0.0], "a": 1.2, "b": 1.0}],
    "eta": {"amplitude": 0.01, "mode": 2, "phase": 0.0},
    "fitted_C2": 4.0, "fitted_C3": 2.0}


def _leaves(obj, keys=()):
    """(key path, value) of every field and list element in a JSON value."""
    for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield keys + (k,), v
        if isinstance(v, (dict, list)):
            yield from _leaves(v, keys + (k,))


def _json_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def _wrong_values(valid):
    """JSON values of the wrong type for a field holding `valid`."""
    if isinstance(valid, bool):
        return [1, "true", 0.0]
    if isinstance(valid, int):
        return [1.5, "3", True]  # float-for-int, string, bool
    if isinstance(valid, float):
        return ["1.0", True, [1.0]]
    if isinstance(valid, str):
        return [1, True, [valid]]
    if isinstance(valid, list):
        return [0.1, "abc", True]  # scalar-for-list
    return [1.0, "disk", []]


# ill-typed configs that once escaped as TypeError/KeyError/ValueError tracebacks
ILL_TYPED = [
    ({"command": "solve", "domain": {"kind": "disk", "radius": "1"}}, "domain.radius"),
    (dict(DIAG_CFG, eta={}), "eta.amplitude"),
    ({"command": "solve", "domain": DISK, "target_h": "0.05"}, "target_h"),
    ({"command": "solve", "domain": DISK, "refine_levels": 1.5}, "refine_levels"),
    ({"command": "sweep-sigma", "domain": DISK, "t_values": "abc"}, "t_values"),
    ({"command": "solve", "domain": dict(DISK, center=[0])}, "domain.center"),
]
# a star whose perimeter the periodic trapezoid rule cannot resolve
UNRESOLVED_STAR = {"kind": "star", "r0": 0.3, "eps": 0.999, "k": 60}
# well-typed configs that once ran or named the wrong field: a negative level
# count ran level 0, a name that is not one path component wrote outside the
# output root, domain.boundary_samples was a field no reader honoured below 256
# samples, a family member's axes were reported as domain.a/b, an
# inclusion of kind "none" dropped its other fields, and a star inclusion or
# family member that the perimeter rule could not resolve was reported as
# domain.eps
BAD_VALUES = {
    "refine_levels-negative": (dict(DIAG_CFG, refine_levels=-2), "refine_levels"),
    "name-parent": (dict(DIAG_CFG, name="../escaped"), "name"),
    "name-dotdot": (dict(DIAG_CFG, name=".."), "name"),
    "name-nested": (dict(DIAG_CFG, name="a/b"), "name"),
    "name-absolute": (dict(DIAG_CFG, name=str(Path(tempfile.gettempdir()) / "escaped")),
                      "name"),
    "boundary_samples-unknown": (
        dict(DIAG_CFG, domain=dict(DIAG_CFG["domain"], boundary_samples=256)),
        "domain.boundary_samples"),
    "family-a-below-b": ({"command": "sweep-stability",
                          "family": [DISK, {"kind": "ellipse", "a": 1.0, "b": 1.2}]},
                         "family[1].a/b"),
    "inclusion-radius-negative": (dict(DIAG_CFG, inclusion={"kind": "disk", "radius": -0.3}),
                                  "inclusion.radius"),
    "inclusion-none-with-radius": (dict(DIAG_CFG, inclusion={"kind": "none", "radius": 0.3}),
                                   "inclusion.kind"),
    "inclusion-star-unresolved": (dict(DIAG_CFG, domain=DISK, inclusion=UNRESOLVED_STAR),
                                  "inclusion.eps"),
    "family-star-unresolved": ({"command": "sweep-stability",
                                "family": [DISK, dict(UNRESOLVED_STAR, r0=1.0)]},
                               "family[1].eps"),
}


class TestTypedConfig:
    def test_full_config_decodes(self):
        # per command, FULL_CFG restricted to the fields the command reads
        for command, (_, required, optional) in cli_io.COMMANDS.items():
            read = {"name", "output_dir", "target_h", *required, *optional}
            d = dict({k: v for k, v in FULL_CFG.items() if k in read}, command=command)
            cfg = config_from_dict(d)
            assert cfg.domain is None or cfg.domain.center == (0.0, 0.0)
            assert cfg.family is None or cfg.family[1].a == 1.2
            assert cfg.eta is None or cfg.eta == EtaSpec(0.01, 2, 0.0)
            encoded = spec_to_dict(cfg)
            assert {k: encoded[k] for k in d} == d

    def test_int_accepted_for_float(self):
        cfg = config_from_dict({"command": "solve", "sigma_c": 2,
                                "domain": {"kind": "disk", "radius": 1, "center": [0, 1]}})
        assert type(cfg.sigma_c) is float and type(cfg.domain.radius) is float
        assert cfg.domain.center == (0.0, 1.0)

    def test_null_only_where_optional(self):
        assert config_from_dict(dict(DIAG_CFG, eta=None, name=None)).eta is None
        with pytest.raises(ValidationError, match="^target_h: expected a number, got null"):
            config_from_dict(dict(DIAG_CFG, target_h=None))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_number_rejected(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        p = _write(tmp_path, "c.json", dict(DIAG_CFG, domain=dict(DISK, radius=value)))
        assert main(["--config", str(p)]) == 2
        assert "error: domain.radius: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,path", ILL_TYPED + list(BAD_VALUES.values()),
                             ids=[p for _, p in ILL_TYPED] + list(BAD_VALUES))
    def test_ill_typed_exit_2_names_field(self, cfg, path, tmp_path, capsys):
        p = _write(tmp_path, "c.json", dict(cfg, output_dir=str(tmp_path)))
        assert main(["--config", str(p), "--jobs", "1"]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_wrong_type_names_field(self, data):
        keys, valid = data.draw(st.sampled_from(list(_leaves(FULL_CFG))))
        cfg = copy.deepcopy(FULL_CFG)
        parent = cfg
        for k in keys[:-1]:
            parent = parent[k]
        parent[keys[-1]] = data.draw(st.sampled_from(_wrong_values(valid)))
        with pytest.raises(ValidationError) as exc:
            config_from_dict(cfg)
        assert str(exc.value).startswith(_json_path(keys) + ": expected ")

    def test_unknown_nested_field_named(self):
        bad = dict(FULL_CFG, family=[DISK, dict(DISK, wibble=1)])
        with pytest.raises(ValidationError, match=r"^family\[1\]\.wibble: unknown field"):
            config_from_dict(bad)


def _true_for_base_only():
    """deviation_norms that is right for the first trace it sees (a sigma
    sweep's base) and reports (1e3, 1e3) for every later one."""
    real = experiments.deviation_norms
    calls = []

    def fake(*args):
        calls.append(None)
        return real(*args) if len(calls) == 1 else (1e3, 1e3)
    return fake


class TestRun:
    def test_diagnose_artifacts(self, tmp_path):
        cfg = config_from_dict(dict(DIAG_CFG, name="diag",
                                    output_dir=str(tmp_path)))
        assert run(cfg) == 0
        report = (tmp_path / "diag" / "report.csv").read_text().splitlines()
        assert report[0].split(",") == [f.name for f in fields(SerrinReport)]
        row = dict(zip(report[0].split(","), map(float, report[1].split(","))))
        assert all(map(math.isfinite, row.values()))
        assert row["gap"] == pytest.approx(0.2, abs=2e-3)
        manifest = json.loads((tmp_path / "diag" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert "wall_time_s" in manifest

    @pytest.mark.parametrize("cfg", [
        SIGMA_CFG,
        {"command": "sweep-inclusion", "domain": DIAG_CFG["domain"], "sigma_c": 2.0,
         "inclusion_radii": [0.4, 0.3, 0.2], "target_h": 0.1, "window": 3},
        {"command": "sweep-stability", "target_h": 0.1,
         "family": [{"kind": "ellipse", "a": a, "b": 1.0} for a in (1.2, 1.1)]},
        {"command": "frechet-check", "domain": DIAG_CFG["domain"],
         "inclusion": {"kind": "disk", "radius": 0.3}, "t0": 0.5,
         "epsilon_values": [0.2, 0.1, 0.05], "target_h": 0.1},
    ], ids=lambda cfg: cfg["command"])
    def test_sweep_header_is_row_keys(self, cfg, tmp_path, monkeypatch):
        sweeps = []
        fit_json = cli_io._fit_json
        monkeypatch.setattr(cli_io, "_fit_json",
                            lambda sweep: sweeps.append(sweep) or fit_json(sweep))
        assert run(config_from_dict(dict(cfg, name="s", output_dir=str(tmp_path)))) == 0
        report = (tmp_path / "s" / "report.csv").read_text().splitlines()
        assert report[0].split(",") == list(sweeps[0].rows[0]) + ["status"]
        assert len(report) == len(sweeps[0].rows) + 1

    def test_diagnose_with_inclusion_does_not_depend_on_jobs(self, tmp_path):
        # at jobs > 1 u's solve runs on a second thread
        cfg = dict(DIAG_CFG, inclusion={"kind": "disk", "radius": 0.3}, sigma_c=2.0,
                   refine_levels=1, output_dir=str(tmp_path))
        reports = []
        for jobs in (1, 2):
            assert run(config_from_dict(dict(cfg, name=f"jobs{jobs}")), jobs=jobs) == 0
            reports.append((tmp_path / f"jobs{jobs}" / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cfg", [
        {"command": "verify-identity", "domain": DIAG_CFG["domain"], "target_h": 0.1},
        {"command": "verify-identity", "domain": DIAG_CFG["domain"], "target_h": 0.1,
         "inclusion": {"kind": "disk", "radius": 0.3}, "sigma_c": 2.0},
        {"command": "sweep-stability", "target_h": 0.1,
         "family": [{"kind": "ellipse", "a": a, "b": 1.0} for a in (1.2, 1.1, 1.05)]},
        {"command": "sweep-inclusion", "domain": DIAG_CFG["domain"], "sigma_c": 2.0,
         "inclusion_radii": [0.4, 0.3, 0.2], "target_h": 0.1, "window": 3},
        dict(SIGMA_CFG, target_h=0.1),
    ], ids=["identity", "identity-inclusion", "stability", "inclusion", "sigma"])
    def test_pooled_commands_do_not_depend_on_jobs(self, cfg, tmp_path):
        # at jobs > 1 verify-identity's level 0 and each sweep's members run in
        # worker processes while this process runs level 1 or the floor fixture
        artifacts = []
        for jobs in (1, 2):
            assert run(config_from_dict(dict(cfg, name=f"jobs{jobs}",
                                             output_dir=str(tmp_path))), jobs=jobs) == 0
            out = tmp_path / f"jobs{jobs}"
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()
                              if p.name in ("report.csv", "fit.json")})
        assert set(artifacts[0]) == ({"report.csv"} if cfg["command"] == "verify-identity"
                                     else {"report.csv", "fit.json"})
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("failing,want", [((0, 1), "level 0"), ((1,), "level 1")])
    def test_verify_identity_raises_level_0_error_first(self, failing, want, tmp_path,
                                                        monkeypatch):
        def report(*args, refine_levels, jobs):
            if refine_levels in failing:
                raise SolverError(f"level {refine_levels} in {os.getpid()}")
            return real(*args, refine_levels=refine_levels, jobs=jobs)

        real = cli_io.full_report
        monkeypatch.setattr(cli_io, "full_report", report)
        cfg = {"command": "verify-identity", "domain": DIAG_CFG["domain"], "target_h": 0.1,
               "output_dir": str(tmp_path)}
        errors = []
        for jobs in (1, 2):
            assert run(config_from_dict(dict(cfg, name=f"jobs{jobs}")), jobs=jobs) == 3
            manifest = json.loads((tmp_path / f"jobs{jobs}" / "manifest.json").read_text())
            errors.append(manifest["error"].split(" in "))
        assert [level for level, _ in errors] == [want, want]
        # at jobs 2 level 0 ran in a worker process, level 1 in this one
        assert (errors[1][1] == str(os.getpid())) == (want == "level 1")

    def test_solve_concentric_center_value(self, tmp_path):
        cfg = config_from_dict({
            "command": "solve", "domain": {"kind": "disk", "radius": 1.0},
            "inclusion": {"kind": "disk", "radius": 0.5}, "sigma_c": 2.0,
            "target_h": 0.05, "name": "conc", "output_dir": str(tmp_path)})
        assert run(cfg) == 0
        header, row = (tmp_path / "conc" / "report.csv").read_text().splitlines()
        center = float(row.split(",")[0])
        assert center == pytest.approx(0.21875, abs=5e-4)
        field_txt = (tmp_path / "conc" / "field.txt").read_text()
        assert "VALUES" in field_txt and "VERTICES" in field_txt

    def test_validation_failure_still_writes_manifest(self, tmp_path):
        cfg = RunConfig("diagnose", domain=DomainSpec("disk", radius=1.0),
                        inclusion=DomainSpec("disk", center=(0.5, 0.0), radius=0.6),
                        sigma_c=2.0, name="bad", output_dir=str(tmp_path))
        code = run(cfg)
        assert code == 2
        manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        assert manifest["status"] == "validation-error"
        assert "error" in manifest

    def test_determinism_byte_identical(self, tmp_path):
        cfg_dict = {"command": "frechet-check",
                    "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
                    "inclusion": {"kind": "disk", "radius": 0.3}, "t0": 0.5,
                    "epsilon_values": [0.2, 0.1, 0.05], "target_h": 0.1,
                    "name": "fr", "output_dir": str(tmp_path), "plot": True}
        run(config_from_dict(cfg_dict))
        first = {f.name: f.read_bytes() for f in (tmp_path / "fr").iterdir()
                 if f.name != "manifest.json"}
        run(config_from_dict(cfg_dict))
        second = {f.name: f.read_bytes() for f in (tmp_path / "fr").iterdir()
                  if f.name != "manifest.json"}
        assert set(first) == {"report.csv", "fit.json", "plot.svg"}
        assert first == second

    def test_env_var_overrides_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path / "envroot"))
        cfg = config_from_dict(dict(DIAG_CFG, name="envd"))
        assert run(cfg) == 0
        assert (tmp_path / "envroot" / "envd" / "report.csv").exists()

    def test_nonexistence_label_is_one_csv_field(self, tmp_path):
        cfg = config_from_dict({
            "command": "nonexistence", "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
            "fitted_C2": 4.0, "fitted_C3": 2.0, "target_h": 0.08, "name": "nonex",
            "output_dir": str(tmp_path)})
        assert run(cfg) == 0
        with open(tmp_path / "nonex" / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert list(rows[0]) == ["gap", "sigma_threshold", "area_threshold", "label"]
        assert rows[0]["label"] == "empirical, conditional on fitted constants"

    def test_all_zero_sweep_plot_skipped_exit_zero(self, tmp_path):
        # sigma_c = 1 makes every sweep value vanish: no plot, still exit 0
        cfg = config_from_dict({
            "command": "sweep-inclusion",
            "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
            "sigma_c": 1.0, "inclusion_radii": [0.3, 0.2, 0.1],
            "target_h": 0.1, "name": "zero", "output_dir": str(tmp_path),
            "plot": True, "window": 3})
        assert run(cfg) == 0
        assert not (tmp_path / "zero" / "plot.svg").exists()
        manifest = json.loads((tmp_path / "zero" / "manifest.json").read_text())
        assert "skipped" in manifest["summary"]["plot"]

    def test_sigma_plot_uses_abs_t(self, tmp_path):
        # all t < 0: only |t| on the x axis leaves points to fit and plot
        cfg = config_from_dict(dict(SIGMA_CFG, t_values=[-0.4, -0.2, -0.1], plot=True,
                                    name="neg", output_dir=str(tmp_path)))
        assert run(cfg, jobs=1) == 0
        svg = (tmp_path / "neg" / "plot.svg").read_text()
        assert svg.count("<circle ") == 3
        assert re.search(r">slope=-?\d+\.\d\d<", svg)

    @pytest.mark.parametrize("raw,fit_keys", [
        (SIGMA_CFG, {"intercept", "n_used", "r_squared", "slope", "used_indices"}),
        (dict(SIGMA_CFG, domain={"kind": "disk", "radius": 1.0},
              inclusion={"kind": "disk", "radius": 0.5}), None),
        (INCLUSION_CFG, None),
        (STABILITY_CFG, None),
        (FRECHET_CFG, {"intercept", "n_used", "r_squared", "slope", "used_indices"}),
    ], ids=["ok", "degenerate", "sweep-inclusion", "sweep-stability", "frechet-check"])
    def test_fit_json_keys(self, raw, fit_keys, tmp_path):
        # one run per sweep command; sweep-sigma once with a fit and once without
        cfg = config_from_dict(dict(raw, name="fit", output_dir=str(tmp_path)))
        assert run(cfg, jobs=1) == 0
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert set(fit) == {"constants", "excluded", "fit", "floors", "h_max", "kind",
                            "status", "window"}
        assert (fit["fit"] if fit_keys is None else set(fit["fit"])) == fit_keys


    # each fake makes one self-check fail; check names the function that
    # raises.  osc-bound: a diameter of 1e9 leaves the ellipse's gap 0.2
    # against the slack 10 h_max^2 (0.127 at target_h 0.08)
    @pytest.mark.parametrize("module,name,fake,cfg,check", [
        (serrin_diagnostics, "diameter", lambda *a: 1e9, DIAG_CFG, "osc_check"),
        (serrin_diagnostics, "deviation_norms", lambda *a: (1.0, 1e-6), DIAG_CFG,
         "stability_row"),
        (serrin_diagnostics, "deviation_norms", lambda *a: (1.0, 1e-6), STABILITY_CFG,
         "stability_row"),
        (serrin_diagnostics, "rho_bounds", lambda *a: (1.0, 0.5), DIAG_CFG,
         "stability_row"),
        (serrin_diagnostics, "hessian_recovery",
         lambda mesh, f: hessian_recovery(mesh, f) * math.nan, DIAG_CFG,
         "fundamental_identity"),
        (experiments, "deviation_norms", _true_for_base_only(),
         {"command": "sweep-sigma", "domain": DIAG_CFG["domain"], "target_h": 0.1,
          "t_values": [0.2, 0.1, 0.05]}, "sigma sweep"),
    ], ids=["osc-bound", "L2-Linf-bridge", "stability-L2-Linf-bridge", "gap-nonnegative",
            "FI-finite", "sigma-triangle"])
    def test_failed_self_check_exit_3_with_manifest(self, module, name, fake, cfg, check,
                                                    tmp_path, monkeypatch):
        monkeypatch.setattr(module, name, fake)
        cfg = config_from_dict(dict(cfg, name="check", output_dir=str(tmp_path)))
        assert run(cfg, jobs=1) == 3
        manifest = json.loads((tmp_path / "check" / "manifest.json").read_text())
        assert manifest["status"] == "solver-failure"
        assert manifest["error"].startswith(f"{check}: ")
        assert "violated" in manifest["error"]

    def test_internal_error_exit_4_with_traceback(self, tmp_path, monkeypatch):
        def broken(*args):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli_io.COMMANDS, "diagnose", (broken, ("domain",), ()))
        cfg = config_from_dict(dict(DIAG_CFG, name="oops", output_dir=str(tmp_path)))
        assert run(cfg) == 4
        manifest = json.loads((tmp_path / "oops" / "manifest.json").read_text())
        assert manifest["status"] == "internal-error"
        assert "wires crossed" in manifest["error"]
        assert "RuntimeError: wires crossed" in manifest["traceback"]
        assert "wall_time_s" in manifest


class TestMain:
    def test_missing_command_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        p = _write(tmp_path, "c.json", {"domain": {"kind": "disk", "radius": 1.0}})
        assert main(["--config", str(p)]) == 2
        assert "command: required" in capsys.readouterr().err

    def test_malformed_json_writes_manifest_to_invalid_config(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path / "root"))
        p = tmp_path / "c.json"
        p.write_text('{"command": "diagnose", "name": "m",')
        assert main(["--config", str(p)]) == 2
        assert "error: config: invalid JSON" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "root" / "invalid-config" / "manifest.json")
                              .read_text())
        assert manifest["status"] == "validation-error"
        assert manifest["error"].startswith("config: invalid JSON")
        assert manifest["config"] is None
        assert [d.name for d in (tmp_path / "root").iterdir()] == ["invalid-config"]

    @pytest.mark.parametrize("extra,subdir", [({"name": "typo"}, "typo"), ({}, "diagnose"),
                                               ({"name": "../up"}, "diagnose")])
    def test_string_radius_writes_manifest_to_run_dir(self, extra, subdir, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path / "root"))
        cfg = dict(DIAG_CFG, domain=dict(DISK, radius="1.0"), **extra)
        p = _write(tmp_path, "c.json", cfg)
        assert main(["--config", str(p)]) == 2
        assert "error: domain.radius: expected a number" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "root" / subdir / "manifest.json").read_text())
        assert manifest["status"] == "validation-error"
        assert manifest["error"].startswith("domain.radius: expected a number")
        assert manifest["config"] == cfg
        assert [d.name for d in (tmp_path / "root").iterdir()] == [subdir]

    def test_unparsed_config_honours_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SERRIN_LAB_OUT", raising=False)
        cfg = dict(DIAG_CFG, domain=dict(DISK, radius="1.0"), name="m",
                   output_dir=str(tmp_path))
        assert main(["--config", str(_write(tmp_path, "c.json", cfg))]) == 2
        assert json.loads((tmp_path / "m" / "manifest.json").read_text())["config"] == cfg

    def test_negative_window_exit_2(self, tmp_path, capsys):
        p = _write(tmp_path, "c.json", {
            "command": "sweep-sigma", "domain": DIAG_CFG["domain"], "target_h": 0.1,
            "t_values": [0.2, 0.1, 0.05], "window": -1, "output_dir": str(tmp_path)})
        assert main(["--config", str(p), "--jobs", "1"]) == 2
        assert "error: window: must be >= 0" in capsys.readouterr().err

    def test_zero_epsilon_exit_2_with_manifest(self, tmp_path):
        p = _write(tmp_path, "c.json", {
            "command": "frechet-check", "domain": DIAG_CFG["domain"], "target_h": 0.1,
            "inclusion": {"kind": "disk", "radius": 0.3}, "t0": 0.5,
            "epsilon_values": [0.1, 0.05, 0.0], "name": "fc",
            "output_dir": str(tmp_path)})
        assert main(["--config", str(p), "--jobs", "1"]) == 2
        manifest = json.loads((tmp_path / "fc" / "manifest.json").read_text())
        assert manifest["status"] == "validation-error"
        assert manifest["error"].startswith("epsilon_values: ")
        assert not (tmp_path / "fc" / "report.csv").exists()

    def test_ok_path(self, tmp_path):
        p = _write(tmp_path, "c.json",
                   dict(DIAG_CFG, name="m", output_dir=str(tmp_path)))
        assert main(["--config", str(p), "--jobs", "1"]) == 0

    def test_jobs_default_is_the_cores_this_process_may_use(self, tmp_path, monkeypatch):
        # under an affinity mask of one core the host's core count would
        # oversubscribe every pool
        seen = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli_io, "run", lambda cfg, jobs: seen.append(jobs) or 0)
        p = _write(tmp_path, "c.json", dict(DIAG_CFG, name="m", output_dir=str(tmp_path)))
        assert main(["--config", str(p)]) == 0
        assert seen == [1]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected_before_the_config_is_read(self, jobs, tmp_path,
                                                               capsys, monkeypatch):
        read = []
        monkeypatch.setattr(cli_io, "_read_config", lambda path: read.append(path) or {})
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path / "root"))
        assert main(["--config", str(tmp_path / "missing.json"), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: --jobs: must be at least 1\n"
        assert read == [] and not (tmp_path / "root").exists()


REQUIRED = [(command, name) for command, (_, required, _) in cli_io.COMMANDS.items()
            for name in required]

NONEXISTENCE_CFG = {"command": "nonexistence", "domain": DIAG_CFG["domain"],
                    "fitted_C2": 4.0, "fitted_C3": 2.0, "target_h": 0.1}
# well-typed values out of range: each once built meshes, ran to exit 0 or
# failed with a message that named no config field
OUT_OF_RANGE = {
    "inclusion_radii-zero": (dict(INCLUSION_CFG, inclusion_radii=[0.3, 0.2, 0.0]),
                             "inclusion_radii"),
    "inclusion_radii-negative": (dict(INCLUSION_CFG, inclusion_radii=[0.3, 0.2, -0.1]),
                                 "inclusion_radii"),
    "sweep-inclusion-sigma_c-zero": (dict(INCLUSION_CFG, sigma_c=0.0), "sigma_c"),
    "sweep-inclusion-sigma_c-negative": (dict(INCLUSION_CFG, sigma_c=-1.0), "sigma_c"),
    "diagnose-sigma_c-negative": (dict(DIAG_CFG, sigma_c=-1.0), "sigma_c"),
    "t_values-at-minus-1": (dict(SIGMA_CFG, t_values=[0.2, 0.1, -1.0]), "t_values"),
    "t0-below-minus-1": (dict(FRECHET_CFG, t0=-1.5), "t0"),
    "epsilon_values-past-minus-1": (dict(FRECHET_CFG, t0=-0.5,
                                         epsilon_values=[-0.6, -0.3, -0.1]),
                                    "epsilon_values"),
    "fitted_C2-zero": (dict(NONEXISTENCE_CFG, fitted_C2=0.0), "fitted_C2"),
    "fitted_C3-negative": (dict(NONEXISTENCE_CFG, fitted_C3=-2.0), "fitted_C3"),
    "inclusion_radii-exits-domain": (dict(INCLUSION_CFG, domain=DISK,
                                          inclusion_radii=[1.2, 0.5, 0.3]),
                                     "inclusion_radii[0]"),
}


def _spy_generate(monkeypatch):
    """The list of calls to meshgen.generate, through every serrinlab module
    that imported it."""
    calls, real = [], meshgen.generate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("serrinlab") and vars(module).get("generate") is real:
            monkeypatch.setattr(module, "generate", spy)
    return calls


class TestCommandContract:
    @pytest.mark.parametrize("value", ["absent", None])
    @pytest.mark.parametrize("command,name", REQUIRED, ids=[f"{c}-{n}" for c, n in REQUIRED])
    def test_missing_required_field_exit_2(self, command, name, value, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        cfg = dict(FULL_CFG, command=command, name="req")
        if value == "absent":
            del cfg[name]
        else:
            cfg[name] = value
        assert main(["--config", str(_write(tmp_path, "c.json", cfg))]) == 2
        assert f"error: {name}: required for {command}" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "req" / "manifest.json").read_text())
        assert manifest["error"] == f"{name}: required for {command}"

    @pytest.mark.parametrize("cfg,path", list(OUT_OF_RANGE.values()), ids=list(OUT_OF_RANGE))
    def test_out_of_range_exit_2_names_field_before_any_mesh(self, cfg, path, tmp_path,
                                                             capsys, monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        calls = _spy_generate(monkeypatch)
        p = _write(tmp_path, "c.json", dict(cfg, name="oor"))
        assert main(["--config", str(p), "--jobs", "1"]) == 2
        assert f"error: {path}: " in capsys.readouterr().err
        manifest = json.loads((tmp_path / "oor" / "manifest.json").read_text())
        assert manifest["status"] == "validation-error"
        assert manifest["error"].startswith(f"{path}: ")
        assert calls == []

    def test_ball_nonexistence_exit_2_names_domain(self, tmp_path, capsys, monkeypatch):
        # judged only after its mesh and solve, through the measured gap
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        cfg = dict(NONEXISTENCE_CFG, domain=DISK, name="ball")
        assert main(["--config", str(_write(tmp_path, "c.json", cfg)), "--jobs", "1"]) == 2
        assert "error: domain: " in capsys.readouterr().err
        manifest = json.loads((tmp_path / "ball" / "manifest.json").read_text())
        assert manifest["status"] == "validation-error"
        assert manifest["error"].startswith("domain: ")

    def test_unhashable_command_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        p = _write(tmp_path, "c.json", dict(DIAG_CFG, command=["diagnose"]))
        assert main(["--config", str(p)]) == 2
        assert "error: command: expected a string" in capsys.readouterr().err
        assert (tmp_path / "invalid-config" / "manifest.json").exists()


# RunConfig fields set to a valid value besides their default
NON_DEFAULT = dict(FULL_CFG, sigma_c=2.0, refine_levels=1, window=3, plot=True)
# (command, field) of every field a command does not read
UNREAD = [(command, f.name) for command, (_, required, optional) in cli_io.COMMANDS.items()
          for f in fields(RunConfig)
          if f.name not in {"command", "name", "output_dir", "target_h", *required, *optional}]


class TestUnreadFields:
    @pytest.mark.parametrize("command,name", UNREAD, ids=[f"{c}-{n}" for c, n in UNREAD])
    def test_unread_field_named(self, command, name):
        _, required, _ = cli_io.COMMANDS[command]
        cfg = dict({k: FULL_CFG[k] for k in required}, command=command)
        config_from_dict(cfg)
        with pytest.raises(ValidationError, match=f"^{name}: not read by {command}$"):
            config_from_dict(dict(cfg, **{name: NON_DEFAULT[name]}))

    def test_default_value_accepted(self):
        assert config_from_dict(dict(SIGMA_CFG, sigma_c=1.0, refine_levels=0)).sigma_c == 1.0

    @pytest.mark.parametrize("cfg,names", [
        ({"command": "sweep-stability", "family": FULL_CFG["family"], "refine_levels": 2,
          "eta": {"amplitude": 0.01}, "inclusion": {"kind": "disk", "radius": 0.3},
          "sigma_c": 3.0}, "inclusion/sigma_c/refine_levels/eta"),
        (dict(SIGMA_CFG, sigma_c=3.0), "sigma_c"),
    ], ids=["sweep-stability", "sweep-sigma"])
    def test_unread_fields_exit_2(self, cfg, names, tmp_path, capsys, monkeypatch):
        # each once ran to exit 0 and ignored its unread fields
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
        calls = _spy_generate(monkeypatch)
        p = _write(tmp_path, "c.json", dict(cfg, name="unread"))
        assert main(["--config", str(p), "--jobs", "1"]) == 2
        error = f"{names}: not read by {cfg['command']}"
        assert f"error: {error}" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "unread" / "manifest.json").read_text())
        assert manifest["status"] == "validation-error" and manifest["error"] == error
        assert calls == []


ROOT = Path(__file__).resolve().parents[1]


class TestProcess:
    """The program started as README tells users to start it."""

    @staticmethod
    def _env(**extra):
        return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(filter(None, [
            str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def _run(self, config, tmp_path):
        return subprocess.run([sys.executable, "-m", "serrinlab.cli_io", "--config",
                               str(config), "--jobs", "1"],
                              env=self._env(SERRIN_LAB_OUT=str(tmp_path / "out")), cwd=ROOT,
                              capture_output=True, text=True, timeout=300)

    def test_example_config_exit_0(self, tmp_path):
        proc = self._run(ROOT / "configs" / "diagnose_ellipse.json", tmp_path)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(
            (tmp_path / "out" / "diagnose-ellipse" / "manifest.json").read_text())
        assert manifest["status"] == "ok"

    def test_string_radius_exit_2(self, tmp_path):
        cfg = dict(DIAG_CFG, domain=dict(DISK, radius="1.0"))
        proc = self._run(_write(tmp_path, "c.json", cfg), tmp_path)
        assert proc.returncode == 2
        assert "error: domain.radius: " in proc.stderr

    def test_import_leaves_heavy_scipy_submodules_unloaded(self):
        """Every process pays for what importing the CLI loads.  A heavy scipy
        submodule that a single command needs (such as scipy.optimize.linprog
        for a linear program) is imported inside that command."""
        probe = ("import sys, serrinlab.cli_io; "
                 "print(' '.join(m for m in ('scipy.integrate', 'scipy.optimize') "
                 "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], env=self._env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    UNEXECUTED_NUMPY = ("f2py", "testing", "polynomial", "ctypeslib", "char", "rec")
    UNLOADED = ("scipy.spatial", "scipy.spatial.distance", "scipy.spatial.transform",
                "scipy.spatial._ckdtree", "scipy.special", "scipy.linalg", "scipy.sparse",
                "scipy.sparse.linalg", "scipy._lib._array_api", "numpy.random", "_hashlib")
    POOL_MODULES = ("concurrent.futures.process", "multiprocessing")
    STAGES = ("import", "diagnose", "solve", "sweep-sigma")

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """Per stage of one fresh process (importing the CLI, then a diagnose,
        a solve and a sweep-sigma run at two jobs): the unloaded modules and
        unexecuted numpy submodules that are loaded, and the process-pool
        modules imported."""
        tmp_path = tmp_path_factory.mktemp("process")
        for cfg in (DIAG_CFG, dict(DIAG_CFG, command="solve", sigma_c=2.0,
                                   inclusion={"kind": "disk", "radius": 0.3}), SIGMA_CFG):
            _write(tmp_path, f"{cfg['command']}.json", cfg)
        probe = f"""if True:
            import sys
            import serrinlab.cli_io as cli_io

            def loaded():
                unloaded = [m for m in {self.UNLOADED!r} if m in sys.modules]
                unexecuted = [m for m in {self.UNEXECUTED_NUMPY!r}
                              if 'numpy.' + m in sys.modules]
                pool = [m for m in {self.POOL_MODULES!r} if m in sys.modules]
                print(','.join(unloaded + unexecuted) + ';' + ','.join(pool))

            loaded()
            for command in {self.STAGES[1:]!r}:
                assert cli_io.main(['--config', sys.argv[1] + '/' + command + '.json',
                                    '--jobs', '2']) == 0
                loaded()
            """
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                              env=self._env(SERRIN_LAB_OUT=str(tmp_path / "out")), cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return dict(zip(self.STAGES, (line.split(";") for line in proc.stdout.splitlines())))

    def test_no_command_loads_the_deferred_modules(self, loaded):
        """Importing the CLI leaves scipy.spatial's and scipy.sparse's packages,
        cKDTree's module, scipy.special, scipy.linalg, scipy's array-API layer,
        numpy.random and OpenSSL's _hashlib unimported and numpy's unused
        submodules unexecuted, and so do a diagnose, a solve and a sweep-sigma
        run at two jobs in the same process."""
        assert {stage: unloaded for stage, (unloaded, _) in loaded.items()} \
            == dict.fromkeys(self.STAGES, "")

    def test_only_a_pool_loads_the_process_pool_modules(self, loaded):
        """concurrent.futures.process and multiprocessing are imported by the
        first run that starts worker processes (the sweep), not by import or
        by a run at two jobs that uses a thread at most."""
        assert {stage: pool for stage, (_, pool) in loaded.items()} \
            == dict(dict.fromkeys(self.STAGES, ""), **{"sweep-sigma": ",".join(self.POOL_MODULES)})

    def test_deferred_modules_work_on_first_use(self):
        """A later import of scipy.spatial, scipy.sparse or a package above
        them works and reuses the extension modules serrinlab loaded."""
        probe = """if True:
            import sys, numpy, serrinlab.cli_io
            from serrinlab import csr, meshgen
            loaded = {name: sys.modules[name] for name in (
                "scipy.linalg.cython_lapack", "scipy.spatial._qhull",
                "scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu")}
            numpy.testing.assert_allclose(numpy.ma.masked_array([1.0, 9.0], mask=[0, 1]).sum(), 1.0)
            assert numpy.polynomial.Polynomial([1, 2])(2) == 5
            import scipy.spatial
            assert scipy.spatial.Delaunay is meshgen.Delaunay
            assert scipy.spatial.cKDTree([[0.0, 0.0], [3.0, 4.0]]).query([3.0, 4.5])[1] == 1
            assert scipy.spatial.distance.euclidean([0, 0], [3, 4]) == 5
            import scipy.linalg, scipy.sparse, scipy.sparse.linalg
            assert scipy.sparse._coo.coo_tocsr is csr.coo_tocsr
            A = numpy.array([[4.0, 1.0], [1.0, 3.0]])
            numpy.testing.assert_allclose(scipy.sparse.coo_array(A).tocsr() @ [1.0, 2.0],
                                          A @ [1.0, 2.0])
            numpy.testing.assert_allclose(scipy.linalg.solve(A, [1.0, 2.0]) @ A, [1.0, 2.0])
            x = scipy.sparse.linalg.spsolve(scipy.sparse.csc_array(A), numpy.array([1.0, 2.0]))
            numpy.testing.assert_allclose(A @ x, [1.0, 2.0])
            assert all(sys.modules[name] is module for name, module in loaded.items())
            """
        proc = subprocess.run([sys.executable, "-c", probe], env=self._env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_modules_imported_before_serrinlab_are_kept(self):
        probe = """if True:
            import sys, types
            import numpy.testing
            import scipy.sparse.linalg
            before = numpy.testing
            lapack = sys.modules['scipy.linalg.cython_lapack']
            sparsetools = sys.modules['scipy.sparse._sparsetools']
            superlu = sys.modules['scipy.sparse.linalg._dsolve._superlu']
            import serrinlab.cli_io
            from serrinlab import csr, fem_core
            assert sys.modules['numpy.testing'] is before is numpy.testing
            assert type(before) is types.ModuleType
            assert sys.modules['scipy.linalg.cython_lapack'] is lapack
            assert sys.modules['scipy.sparse._sparsetools'] is sparsetools
            assert sys.modules['scipy.sparse.linalg._dsolve._superlu'] is superlu
            assert csr.coo_tocsr is sparsetools.coo_tocsr
            assert fem_core.gstrf is superlu.gstrf
            """
        proc = subprocess.run([sys.executable, "-c", probe], env=self._env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_readme_lists_every_command(self):
        text = (ROOT / "README.md").read_text()
        listed = re.search(r"^Commands: (.*?)\.$", text, re.M | re.S).group(1)
        assert re.findall(r"`([a-z-]+)`", listed) == list(cli_io.COMMANDS)


class TestFieldDump:
    def test_sections_in_order_and_exact(self, concentric_mesh, tmp_path):
        u = solve_two_phase(concentric_mesh, 2.0)
        path = tmp_path / "field.txt"
        cli_io._write_field(path, u)
        text = path.read_text()
        assert (text.index("VERTICES") < text.index("TRIANGLES")
                < text.index("BOUNDARY_EDGES") < text.index("VALUES"))
        first, *sections = re.split(r"^(?:VERTICES|TRIANGLES|BOUNDARY_EDGES|VALUES)\n", text,
                                    flags=re.M)
        assert first == ""
        vertices, triangles, edges, values = (part.splitlines() for part in sections)
        # 17-significant-digit floats reparse exactly
        assert [[float(t) for t in line.split()] for line in vertices] == \
            concentric_mesh.vertices.tolist()
        assert [line.split()[3] == "inside_D" for line in triangles] == \
            (concentric_mesh.region == 1).tolist()
        loop = concentric_mesh.boundary_loop
        assert [int(line.split()[0]) for line in edges] == loop.tolist()
        assert [[float(t) for t in line.split()[2:]] for line in edges] == \
            concentric_mesh.boundary_normals.tolist()
        assert [float(line) for line in values] == u.values.tolist()


def _synthetic_sweep(ys=None):
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = ys or [2.0, 4.0, 8.0, 16.0]
    rows = [{"epsilon": x, "fd_error_L2": y} for x, y in zip(xs, ys)]
    fit = FitResult(1.0, math.log(2.0), 1.0, 4, [0, 1, 2, 3])
    return SweepResult("frechet", rows, fit, 4, {}, [False] * 4, {}, "ok", 0.1,
                       list(zip(xs, ys)))


class TestEmitPlot:
    def test_slope_annotation(self, tmp_path):
        path = tmp_path / "p.svg"
        assert emit_plot(_synthetic_sweep(), path)
        svg = path.read_text()
        assert "slope=1.00" in svg
        assert svg.startswith("<svg")

    def test_empty_sweep_no_file(self, tmp_path):
        sweep = _synthetic_sweep()
        xs = [row["epsilon"] for row in sweep.rows]
        sweep.rows = [{"epsilon": x, "fd_error_L2": 0.0} for x in xs]
        sweep.points = [(x, 0.0) for x in xs]
        path = tmp_path / "p.svg"
        assert not emit_plot(sweep, path)
        assert not path.exists()

    def test_line_passes_through_points(self, tmp_path):
        # exact power-law data: the fitted line must hit every plotted point
        path = tmp_path / "p.svg"
        emit_plot(_synthetic_sweep(), path)
        svg = path.read_text()
        circles = [(float(m.group(1)), float(m.group(2))) for m in
                   re.finditer(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)]
        line = re.search(r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" '
                         r'y2="([-\d.]+)" stroke="#cc3333"', svg)
        x1, y1, x2, y2 = map(float, line.groups())
        for cx, cy in circles:
            t = (cx - x1) / (x2 - x1)
            assert cy == pytest.approx(y1 + t * (y2 - y1), abs=0.1)
