import csv
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrinlab.cli_io import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    domain_from_dict,
    domain_to_dict,
    emit_plot,
    main,
    run,
)
from serrinlab.errors import ValidationError
from serrinlab.experiments import FitResult, SweepResult
from serrinlab.geometry import DomainSpec, InclusionSpec
from serrinlab.serrin_diagnostics import CSV_HEADER, EtaSpec


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


DIAG_CFG = {"command": "diagnose",
            "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
            "inclusion": {"kind": "none"}, "target_h": 0.08}


class TestConfigRoundTrip:
    def test_identity_on_examples(self):
        cfgs = [
            RunConfig("diagnose", domain=DomainSpec("ellipse", a=1.2, b=1.0)),
            RunConfig("solve", domain=DomainSpec("disk", radius=1.0),
                      inclusion=InclusionSpec("disk", radius=0.5), sigma_c=2.0,
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
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_json_round_trip_through_text(self):
        cfg = RunConfig("diagnose", domain=DomainSpec("ellipse", a=1.2, b=1.0),
                        inclusion=InclusionSpec("disk", center=(0.1, 0.0), radius=0.2),
                        sigma_c=3.0)
        text = json.dumps(config_to_dict(cfg), sort_keys=True)
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
        assert domain_from_dict(domain_to_dict(spec)) == spec

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


class TestRun:
    def test_diagnose_artifacts(self, tmp_path):
        cfg = config_from_dict(dict(DIAG_CFG, name="diag",
                                    output_dir=str(tmp_path)))
        assert run(cfg) == 0
        report = (tmp_path / "diag" / "report.csv").read_text().splitlines()
        assert report[0] == CSV_HEADER
        row = dict(zip(report[0].split(","), map(float, report[1].split(","))))
        assert row["gap"] == pytest.approx(0.2, abs=2e-3)
        manifest = json.loads((tmp_path / "diag" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert "wall_time_s" in manifest

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
                        inclusion=InclusionSpec("disk", center=(0.5, 0.0), radius=0.6),
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


class TestMain:
    def test_missing_command_exit_2(self, tmp_path, capsys):
        p = _write(tmp_path, "c.json", {"domain": {"kind": "disk", "radius": 1.0}})
        assert main(["solve", "--config", str(p)]) == 2
        assert "command: required" in capsys.readouterr().err

    def test_command_mismatch_exit_2(self, tmp_path):
        p = _write(tmp_path, "c.json", dict(DIAG_CFG, output_dir=str(tmp_path)))
        assert main(["solve", "--config", str(p)]) == 2

    def test_ok_path(self, tmp_path):
        p = _write(tmp_path, "c.json",
                   dict(DIAG_CFG, name="m", output_dir=str(tmp_path)))
        assert main(["diagnose", "--config", str(p), "--jobs", "1"]) == 0


def _synthetic_sweep(ys=None):
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = ys or [2.0, 4.0, 8.0, 16.0]
    rows = [{"epsilon": x, "fd_error_L2": y} for x, y in zip(xs, ys)]
    fit = FitResult(1.0, math.log(2.0), 1.0, 4, [0, 1, 2, 3])
    return SweepResult("frechet", xs, rows, fit, 4, {}, [False] * 4, {}, "ok", 0.1)


class TestEmitPlot:
    def test_slope_annotation(self, tmp_path):
        path = tmp_path / "p.svg"
        assert emit_plot(_synthetic_sweep(), path)
        svg = path.read_text()
        assert "slope=1.00" in svg
        assert svg.startswith("<svg")

    def test_empty_sweep_no_file(self, tmp_path):
        sweep = _synthetic_sweep()
        sweep.rows = [{"epsilon": x, "fd_error_L2": 0.0} for x in sweep.parameters]
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
            expect = y1 + (cy - y1) * 0  # placeholder for clarity
            t = (cx - x1) / (x2 - x1)
            assert cy == pytest.approx(y1 + t * (y2 - y1), abs=0.1)
