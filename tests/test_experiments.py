import ast
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrinlab import experiments, fem_core
from serrinlab.cli_io import config_from_dict, run
from serrinlab.errors import ValidationError
from serrinlab.experiments import (
    frechet_check,
    inclusion_sweep,
    nonexistence_threshold,
    one_phase_stability_sweep,
    sigma_sweep,
    slope_fit,
)
from serrinlab.geometry import DomainSpec
from serrinlab.meshgen import Mesh

ELLIPSE = DomainSpec("ellipse", a=1.2, b=1.0)
DISK = DomainSpec("disk", radius=1.0)


class TestSlopeFit:
    def test_linear(self):
        fit = slope_fit([(1, 3), (2, 6), (4, 12), (8, 24)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)

    def test_quadratic(self):
        fit = slope_fit([(1, 2), (2, 8), (4, 32)], window=3)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)

    def test_noisy_linear(self):
        # frozen instance of "y = x + 0.001 noise"; oracle np.polyfit on logs
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [1.001, 1.999, 4.001, 7.999]
        fit = slope_fit(list(zip(xs, ys)))
        oracle = np.polyfit(np.log(xs), np.log(ys), 1)
        assert fit.slope == pytest.approx(oracle[0], abs=1e-12)
        assert 0.95 <= fit.slope <= 1.05
        assert fit.r_squared >= 0.99

    def test_nonpositive_points_excluded(self):
        fit = slope_fit([(1, 1), (2, 0.0), (4, 4), (8, 8), (16, 16)])
        assert 1 not in fit.used_indices
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            slope_fit([(1, 1), (2, 2)])
        with pytest.raises(ValidationError):
            slope_fit([(1, 1), (3, 2), (2, 3)])

    def test_negative_window_rejected(self):
        pts = [(1, 1), (2, 2), (4, 4), (8, 8)]
        with pytest.raises(ValidationError, match="^window: "):
            slope_fit(pts, window=-1)
        assert slope_fit(pts, window=0).used_indices == [0, 1, 2, 3]

    @given(c=st.floats(0.1, 10), k=st.floats(-2, 2))
    @settings(max_examples=40)
    def test_exact_power_laws(self, c, k):
        xs = [0.5, 1.0, 2.0, 4.0]
        fit = slope_fit([(x, c * x ** k) for x in xs])
        assert fit.slope == pytest.approx(k, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


class TestStabilitySweep:
    def test_ellipse_family_slope(self):
        family = [DomainSpec("ellipse", a=1 + e, b=1.0)
                  for e in (0.2, 0.1, 0.05)]
        sweep = one_phase_stability_sweep(family, 0.03, window=3)
        assert sweep.status == "ok"
        assert 0.9 <= sweep.fit.slope <= 1.1
        # bounded-ratio form of the linear stability statement
        assert sweep.constants["ratio_smallest"] <= 2 * sweep.constants["ratio_largest"]

    def test_single_disk_degenerate(self):
        sweep = one_phase_stability_sweep([DISK], 0.08)
        assert sweep.status.startswith("degenerate")
        assert sweep.fit is None
        assert all(sweep.excluded)

    def test_star_family_slope(self):
        family = [DomainSpec("star", r0=1.0, eps=e, k=3)
                  for e in (0.08, 0.04, 0.02)]
        sweep = one_phase_stability_sweep(family, 0.05, window=3)
        assert sweep.fit is not None
        assert 0.8 <= sweep.fit.slope <= 1.2

    def test_non_monotone_gaps_rejected_before_floor_member(self, monkeypatch):
        # the members' gaps are the sweep's parameters; the disk floor member
        # is not built once they fail
        family = [DomainSpec("ellipse", a=a, b=1.0) for a in (1.2, 1.05, 1.1)]
        meshed = []
        real_generate = experiments.generate

        def spy(*args):
            meshed.append(args)
            return real_generate(*args)

        monkeypatch.setattr(experiments, "generate", spy)
        with pytest.raises(ValidationError, match="^family:"):
            one_phase_stability_sweep(family, 0.1)
        assert len(meshed) == len(family)


class TestSigmaSweep:
    def test_ellipse_with_inclusion_slope(self):
        sweep = sigma_sweep(ELLIPSE, DomainSpec("disk", radius=0.3),
                            [0.4, 0.2, 0.1, 0.05, 0.025], 0.06)
        assert sweep.status == "ok"
        assert 0.9 <= sweep.fit.slope <= 1.1
        assert sweep.constants["C7_empirical"] > 0

    def test_concentric_degenerate(self):
        sweep = sigma_sweep(DISK, DomainSpec("disk", radius=0.5),
                            [0.4, 0.2, 0.1], 0.08)
        assert sweep.status == "degenerate: exact solution family"
        assert sweep.fit is None

    def test_no_inclusion_all_zero(self):
        sweep = sigma_sweep(DISK, None, [0.4, 0.2, 0.1], 0.1)
        assert all(r["delta_trace_Linf"] < 1e-9 for r in sweep.rows)

    def test_t_below_minus_one_rejected(self):
        with pytest.raises(ValidationError):
            sigma_sweep(DISK, None, [0.5, -1.5], 0.1)

    def test_triangle_inequality_rows(self):
        sweep = sigma_sweep(ELLIPSE, DomainSpec("disk", radius=0.3),
                            [0.4, 0.2, 0.1], 0.08)
        dev0 = sweep.constants["dev0_Linf"]
        for row in sweep.rows:
            # ||dn u(t) - c|| <= ||dn u(t) - dn u(0)|| + ||dn u(0) - c||,
            # exact in the discrete sup norm
            assert row["dev_Linf"] <= row["delta_trace_Linf"] + dev0 + 1e-12


@pytest.mark.parametrize("command,field,values", [
    ("sweep-sigma", "t_values", [0.1, 0.3, 0.2]),
    ("sweep-sigma", "t_values", [-0.1, 0.1, 0.2]),
    ("frechet-check", "epsilon_values", [0.1, 0.2, 0.05]),
])
def test_non_monotone_values_rejected_before_meshing(command, field, values, tmp_path,
                                                     monkeypatch):
    # the fit runs against |value|, so a list it cannot fit fails before any solve
    meshed = []
    monkeypatch.setattr(experiments, "generate", lambda *a: meshed.append(a))
    cfg = config_from_dict({
        "command": command, "name": "bad", "output_dir": str(tmp_path),
        "domain": {"kind": "ellipse", "a": 1.2, "b": 1.0},
        "inclusion": {"kind": "disk", "radius": 0.3}, "t0": 0.5,
        field: values, "target_h": 0.08})
    assert run(cfg) == 2
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["error"].startswith(f"{field}:")
    assert meshed == []


class TestFrechetCheck:
    def test_slope_near_one(self):
        sweep = frechet_check(ELLIPSE, DomainSpec("disk", radius=0.3), 0.5,
                              [0.2, 0.1, 0.05, 0.025], 0.08)
        assert 0.85 <= sweep.fit.slope <= 1.15

    def test_no_inclusion_identically_zero(self):
        sweep = frechet_check(DISK, None, 0.5, [0.2, 0.1, 0.05], 0.1)
        assert sweep.status == "degenerate: derivative vanishes"
        assert all(r["fd_error_L2"] == 0.0 for r in sweep.rows)

    def test_tiny_epsilon_flagged(self):
        sweep = frechet_check(ELLIPSE, DomainSpec("disk", radius=0.3), 0.0,
                              [0.1, 0.05, 0.025, 1e-9], 0.1)
        assert sweep.excluded[-1]

    def test_sigma_must_stay_positive(self):
        with pytest.raises(ValidationError):
            frechet_check(DISK, None, -1.5, [0.2, 0.1, 0.05], 0.1)
        with pytest.raises(ValidationError):
            frechet_check(DISK, None, -0.9, [-0.2, -0.1, -0.05], 0.1)


class TestInclusionSweep:
    def test_slope_above_half(self):
        sweep = inclusion_sweep(ELLIPSE, 2.0, [0.4, 0.3, 0.2], 0.06, window=3)
        assert sweep.status == "ok"
        assert sweep.fit.slope >= 0.5
        assert sweep.constants["slope_floor_coarse"] == 0.5
        assert sweep.constants["slope_improved"] == 1.0

    def test_sigma_one_w_vanishes(self):
        sweep = inclusion_sweep(ELLIPSE, 1.0, [0.3, 0.2, 0.1], 0.08, window=3)
        assert all(r["grad_w_boundary_Linf"] < 1e-9 for r in sweep.rows)
        assert sweep.status.startswith("degenerate")

    def test_concentric_degenerate(self):
        sweep = inclusion_sweep(DISK, 2.0, [0.3, 0.2, 0.1], 0.08, window=3)
        assert sweep.status.startswith("degenerate")

    def test_radii_must_decrease(self):
        with pytest.raises(ValidationError):
            inclusion_sweep(ELLIPSE, 2.0, [0.1, 0.2], 0.1)


# the fitted (x, y) pair of a row, per sweep kind
FIT_PAIRS = {
    "stability": lambda r: (r["dev_Linf"], r["gap"]),
    "sigma": lambda r: (abs(r["t"]), r["delta_trace_Linf"]),
    "frechet": lambda r: (abs(r["epsilon"]), r["fd_error_L2"]),
    "inclusion": lambda r: (r["area_D"], r["grad_w_boundary_Linf"]),
}


@pytest.mark.parametrize("make", [
    lambda: one_phase_stability_sweep([DomainSpec("star", r0=1.0, eps=e, k=3)
                                       for e in (0.08, 0.04, 0.02)], 0.05, window=3),
    lambda: sigma_sweep(ELLIPSE, DomainSpec("disk", radius=0.3),
                        [-0.4, -0.2, -0.1], 0.08),
    lambda: frechet_check(ELLIPSE, DomainSpec("disk", radius=0.3), 0.5,
                          [-0.2, -0.1, -0.05], 0.1),
    lambda: inclusion_sweep(ELLIPSE, 2.0, [0.4, 0.3, 0.2], 0.08, window=3),
], ids=["stability", "sigma", "frechet", "inclusion"])
def test_points_are_the_fitted_pairs(make):
    sweep = make()
    assert sweep.status == "ok"
    assert sweep.points == [FIT_PAIRS[sweep.kind](r) for r in sweep.rows]
    kept = [p for p, ex in zip(sweep.points, sweep.excluded) if not ex]
    assert sweep.fit == slope_fit(kept, sweep.window)


class TestNonexistence:
    def test_threshold_formula(self):
        th = nonexistence_threshold(ELLIPSE, 5.0, 2.0, 0.05)
        assert th.sigma_threshold == pytest.approx(th.gap / 5.0, rel=1e-12)
        assert th.area_threshold == pytest.approx((th.gap / 2.0) ** 2, rel=1e-12)
        assert th.label == "empirical, conditional on fitted constants"

    def test_disk_rejected(self):
        with pytest.raises(ValidationError):
            nonexistence_threshold(DISK, 5.0, 2.0, 0.05)

    def test_threshold_monotone_in_eccentricity(self):
        th_12 = nonexistence_threshold(ELLIPSE, 5.0, 2.0, 0.06)
        th_14 = nonexistence_threshold(DomainSpec("ellipse", a=1.4, b=1.0),
                                       5.0, 2.0, 0.06)
        assert th_14.sigma_threshold > th_12.sigma_threshold

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(ValidationError):
            nonexistence_threshold(ELLIPSE, 0.0, 2.0, 0.05)


def _blas_threads(_=None):
    """(pid, OpenBLAS thread count of every bundled library) in this process."""
    return os.getpid(), [get() for get, _ in fem_core._OPENBLAS]


needs_openblas = pytest.mark.skipif(not fem_core._OPENBLAS,
                                    reason="no bundled scipy-openblas library")
_SIGMA_MEMBER = experiments._sigma_member
_SET_CALLS = []


def _reporting_sigma_member(args):
    """The sigma sweep's member, plus this process's pid, thread counts and
    number of set_num_threads calls."""
    pid, counts = _blas_threads()
    return {**_SIGMA_MEMBER(args), "pid": pid, "counts": counts,
            "set_calls": len(_SET_CALLS)}


@needs_openblas
class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def _two_threads(self):
        """Start each test at two threads and restore the counts after it."""
        before = _blas_threads()[1]
        for _, set_threads in fem_core._OPENBLAS:
            set_threads(2)
        yield
        for (_, set_threads), n in zip(fem_core._OPENBLAS, before):
            set_threads(n)

    def test_pool_workers_use_one_blas_thread(self):
        results = experiments._parallel_map(_blas_threads, range(4), jobs=2)
        assert all(pid != os.getpid() for pid, _ in results)
        assert all(counts and set(counts) == {1} for _, counts in results)

    def test_sweep_solves_on_one_blas_thread_and_stays_pinned(self, monkeypatch):
        """The base solves of a sweep run in this process: it must match the
        pool workers, or results above ~10k unknowns would depend on jobs.
        Restoring the old count afterwards would restart OpenBLAS's pool."""
        seen = []
        parallel_map = experiments._parallel_map

        def spy(fn, items, jobs):
            seen.append(set(_blas_threads()[1]))
            return parallel_map(fn, items, jobs)

        monkeypatch.setattr(experiments, "_parallel_map", spy)
        sigma_sweep(DISK, DomainSpec("disk", radius=0.5), [0.4, 0.2, 0.1], 0.2)
        assert seen == [{1}]
        assert set(_blas_threads()[1]) == {1}


@needs_openblas
class TestBlasPin:
    def test_import_pins_every_bundled_library(self):
        src = str(Path(fem_core.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        out = subprocess.run(
            [sys.executable, "-c", "import serrinlab.fem_core as f; "
             "print([get() for get, _ in f._OPENBLAS])"],
            env=env, capture_output=True, text=True, check=True).stdout
        counts = ast.literal_eval(out)
        assert len(counts) == len(fem_core._OPENBLAS)
        assert set(counts) == {1}

    def test_pooled_sweep_in_pinned_process_sets_no_count(self, monkeypatch):
        assert set(_blas_threads()[1]) == {1}

        def counted(set_threads):
            def set_and_count(n):
                _SET_CALLS.append(n)
                return set_threads(n)
            return set_and_count

        _SET_CALLS.clear()
        monkeypatch.setattr(fem_core, "_OPENBLAS",
                            [(get, counted(set_)) for get, set_ in fem_core._OPENBLAS])
        monkeypatch.setattr(experiments, "_sigma_member", _reporting_sigma_member)
        result = sigma_sweep(DISK, DomainSpec("disk", radius=0.5),
                             [0.4, 0.2, 0.1], 0.2, jobs=2)
        assert _SET_CALLS == []
        assert all(row["pid"] != os.getpid() for row in result.rows)
        assert all(set(row["counts"]) == {1} and row["set_calls"] == 0
                   for row in result.rows)


class TestParallelMap:
    def test_starts_at_most_one_worker_per_item(self, monkeypatch):
        started = []

        class Spy(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Spy)
        assert experiments._parallel_map(abs, [-3, -2, -1], jobs=8) == [3, 2, 1]
        assert started == [3]

    def test_sigma_sweep_ships_its_mesh_once_per_worker(self, monkeypatch):
        """Each worker gets one chunk of members, which share one pickled mesh
        (one item per member would pickle it once per member, here 5 times)."""
        pickled = []
        getstate = Mesh.__getstate__

        def counted(mesh):
            pickled.append(mesh)
            return getstate(mesh)

        monkeypatch.setattr(Mesh, "__getstate__", counted)
        sigma_sweep(DISK, DomainSpec("disk", radius=0.5),
                    [0.4, 0.3, 0.2, 0.15, 0.1], 0.2, jobs=2)
        assert 1 <= len(pickled) <= 2
