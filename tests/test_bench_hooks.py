"""The traced benchmark (perfbench/bench_trace.py) wraps program functions by
module and name from outside the program, and its worker (perfbench/worker.py)
calls others directly; each name either one uses must still exist, and every
config its command workloads (perfbench/bench_cases.py) run must decode."""

import ast
import os
import importlib
import sys
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from serrinlab import cli_io, experiments, fem_core, serrin_diagnostics
from serrinlab.geometry import DomainSpec
from serrinlab.serrin_diagnostics import full_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("bench_trace").SPANS


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _ in _spans()]
                         + [("meshgen", "_generate_once")])
def test_traced_hook_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(f"serrinlab.{mod_name}"), attr, None))


def _worker_names():
    """(module, name) of every module.name in worker.py whose module it
    imports from serrinlab."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "serrinlab"
               for a in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


@pytest.mark.parametrize("mod_name,attr", _worker_names(),
                         ids=[f"{m}.{a}" for m, a in _worker_names()])
def test_worker_name_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(f"serrinlab.{mod_name}"), attr, None))


def test_pcg_returns_solution_iterations_residual():
    # the tracer sums result[1] of every _pcg call as the CG iteration count
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    b = np.array([1.0, 2.0, 3.0])
    result = fem_core._pcg(A, b, 1e-12, 50)
    assert len(result) == 3
    x, iterations, residual = result
    np.testing.assert_allclose(A @ x, b, rtol=1e-10)
    assert isinstance(iterations, int) and 1 <= iterations <= 3
    assert 0.0 <= residual <= 1e-12


@pytest.mark.parametrize("workload", ["diagnose-fine", "example-configs"])
@pytest.mark.parametrize("seed", range(4))
def test_bench_case_configs_decode(workload, seed):
    for case in _load("bench_cases").cases(workload, seed, PERFBENCH.parent):
        cli_io.config_from_dict(case)


def test_serial_report_solves_through_traced_names(monkeypatch):
    # at jobs 1 the tracer's fem_core.solve spans and CG counters come from
    # one call each to the module attributes solve_one_phase and
    # solve_two_phase (the latter only with an inclusion), and its recovery
    # and max_point spans from one call each to theirs; like the tracer, the
    # counters re-point every serrinlab binding of each function
    names = {"solve_one_phase": fem_core, "solve_two_phase": fem_core,
             "recovered_gradient": fem_core, "hessian_recovery": fem_core,
             "max_point": serrin_diagnostics}
    calls = dict.fromkeys(names, 0)
    for name, home in names.items():
        fn = getattr(home, name)
        counted = (lambda *a, _fn=fn, _name=name:
                   calls.__setitem__(_name, calls[_name] + 1) or _fn(*a))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("serrinlab") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    for inclusion in (DomainSpec("disk", radius=0.3), None):
        calls.update(dict.fromkeys(names, 0))
        full_report(DomainSpec("ellipse", a=1.2, b=1.0), inclusion, 2.0, 0.1, jobs=1)
        assert calls == {"solve_one_phase": 1, "solve_two_phase": int(inclusion is not None),
                         "recovered_gradient": 1, "hessian_recovery": 1, "max_point": 1}


def test_serial_runners_call_traced_names_in_serial_order(tmp_path, monkeypatch):
    # the traced run (jobs 1) wraps these names in this process, and its spans
    # rely on the order: verify-identity's level 0 report, then level 1; a
    # stability sweep's members, then its disk floor
    levels = []
    report = cli_io.full_report
    monkeypatch.setattr(cli_io, "full_report", lambda *a, refine_levels, jobs:
                        levels.append((os.getpid(), refine_levels))
                        or report(*a, refine_levels=refine_levels, jobs=jobs))
    cfg = cli_io.config_from_dict({"command": "verify-identity", "target_h": 0.1,
                                   "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
                                   "output_dir": str(tmp_path)})
    assert cli_io.run(cfg, jobs=1) == 0
    assert levels == [(os.getpid(), 0), (os.getpid(), 1)]

    meshed = []
    generate = experiments.generate
    monkeypatch.setattr(experiments, "generate",
                        lambda domain, *a: meshed.append(domain.kind) or generate(domain, *a))
    family = [DomainSpec("ellipse", a=a, b=1.0) for a in (1.2, 1.1)]
    experiments.one_phase_stability_sweep(family, 0.1, jobs=1)
    assert meshed == ["ellipse", "ellipse", "disk"]
