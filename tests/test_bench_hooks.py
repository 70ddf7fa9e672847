"""The traced benchmark (perfbench/bench_trace.py) wraps program functions by
module and name from outside the program, and its worker (perfbench/worker.py)
calls others directly; each name either one uses must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from serrinlab import fem_core

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_TRACE = PERFBENCH / "bench_trace.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


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
