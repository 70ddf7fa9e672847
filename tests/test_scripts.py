import importlib.util
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
