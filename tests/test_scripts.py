import importlib.util
import os
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stability_scalings_smoke(capsys):
    # reads the stability and sigma sweep constants for the threshold line
    assert _load("stability_scalings").main() == 0
    out = capsys.readouterr().out
    assert len(re.findall(r" slope +-?\d+\.\d{3} ", out)) == 4
    assert "no solution pair once" in out


def test_mesh_probe_grid_and_fingerprint():
    probe = _load("mesh_probe")
    labels = [label for label, *_ in probe.CASES]
    assert len(labels) == len(set(labels)) == 140
    label, domain, inclusion, target_h = probe.CASES[5]
    assert label == "disk disk-0.3 h=0.05"
    first = probe.probe(domain, inclusion, target_h)
    assert re.fullmatch(r"[0-9a-f]{40}", first)
    assert probe.probe(domain, inclusion, target_h) == first


def test_example_configs_use_the_clis_jobs_default(tmp_path, monkeypatch, capsys):
    # under an affinity mask of one core the host's core count would
    # oversubscribe every pool
    script = _load("run_example_configs")
    seen = []

    def run(cfg, jobs):
        seen.append(jobs)
        script.run_dir(cfg).mkdir(parents=True)
        (script.run_dir(cfg) / "manifest.json").write_text(
            '{"status": "ok", "wall_time_s": 0.0}')
        return 0

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(script, "run", run)
    monkeypatch.setenv("SERRIN_LAB_OUT", str(tmp_path))
    assert script.main() == 0
    assert seen and set(seen) == {1}
    assert len(capsys.readouterr().out.splitlines()) == len(seen)
