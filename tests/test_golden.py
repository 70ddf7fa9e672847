"""Golden gate: every example config reproduces the committed outputs/.

Each config in configs/ is run serially into a temporary output root.  Every
artifact but manifest.json (which carries the wall time) is compared with its
committed copy: the numbers at rtol 1e-9 (atol 1e-14 for references near
zero), all other text exactly.  Byte equality is not asked for, since the
last digits of least-squares results vary across BLAS builds.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from serrinlab.cli_io import config_from_dict, load_config, run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b)")


def _split(text):
    """(text between numbers, numbers) of an artifact."""
    parts = NUMBER.split(text)
    return parts[0::2], np.array([float(p) for p in parts[1::2]])


def _artifacts(directory):
    return sorted(p.name for p in directory.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_example_config_matches_committed_outputs(config, tmp_path, monkeypatch):
    monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
    cfg = load_config(config)
    assert run(cfg, jobs=1) == 0
    fresh = tmp_path / cfg.name
    committed = ROOT / "outputs" / cfg.name
    assert _artifacts(fresh) == _artifacts(committed)
    for name in _artifacts(committed):
        text, numbers = _split((fresh / name).read_text())
        ref_text, ref_numbers = _split((committed / name).read_text())
        assert text == ref_text, f"{cfg.name}/{name}: text differs"
        assert len(numbers) == len(ref_numbers), f"{cfg.name}/{name}: number count"
        np.testing.assert_allclose(numbers, ref_numbers, rtol=1e-9, atol=1e-14,
                                   equal_nan=True, err_msg=f"{cfg.name}/{name}")


SWEEPS = [ROOT / "configs" / f"{stem}.json"
          for stem in ("sweep_inclusion", "sweep_sigma", "sweep_stability")]


@pytest.mark.parametrize("config", SWEEPS, ids=lambda p: p.stem)
def test_sweep_artifacts_independent_of_jobs(config, tmp_path, monkeypatch):
    """The process pool (jobs=2) writes the same bytes as the serial path."""
    cfg = load_config(config)
    artifacts = {}
    for jobs in (1, 2):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path / f"jobs{jobs}"))
        assert run(cfg, jobs=jobs) == 0
        out = tmp_path / f"jobs{jobs}" / cfg.name
        artifacts[jobs] = {name: (out / name).read_bytes()
                           for name in ("report.csv", "fit.json", "plot.svg")}
    assert artifacts[1] == artifacts[2]


INCLUSION_DIAGNOSE = {"command": "diagnose", "name": "diagnose-inclusion-refined",
                      "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
                      "inclusion": {"kind": "disk", "radius": 0.3}, "sigma_c": 2.0,
                      "target_h": 0.05, "refine_levels": 1}


@pytest.mark.parametrize("config", ["diagnose_ellipse", "verify_identity", "inclusion"])
def test_report_artifacts_independent_of_jobs(config, tmp_path, monkeypatch):
    """A second solve thread (jobs=2) writes the same bytes as the serial path."""
    cfg = (config_from_dict(INCLUSION_DIAGNOSE) if config == "inclusion"
           else load_config(ROOT / "configs" / f"{config}.json"))
    artifacts = {}
    for jobs in (1, 2):
        monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path / f"jobs{jobs}"))
        assert run(cfg, jobs=jobs) == 0
        out = tmp_path / f"jobs{jobs}" / cfg.name
        artifacts[jobs] = {name: (out / name).read_bytes() for name in _artifacts(out)}
    assert artifacts[1] == artifacts[2] and "report.csv" in artifacts[1]
