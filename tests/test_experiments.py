import ast
import concurrent.futures
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrinlab import experiments, fem_core
from serrinlab.cli_io import config_from_dict, run
from serrinlab.errors import MeshQualityError, SolverError, ValidationError
from serrinlab.experiments import (
    frechet_check,
    inclusion_sweep,
    nonexistence_threshold,
    one_phase_stability_sweep,
    sigma_sweep,
    slope_fit,
)
from serrinlab.geometry import DomainSpec, inclusion_margin
from serrinlab.meshgen import Mesh
from serrinlab.serrin_diagnostics import full_report

ELLIPSE = DomainSpec("ellipse", a=1.2, b=1.0)
DISK = DomainSpec("disk", radius=1.0)


def accepted_fit(points, window=4):
    """slope_fit(points, window), or None if it refuses x whose logs leave no
    slope, the one refusal left for strictly monotone positive points."""
    try:
        return slope_fit(points, window)
    except ValidationError as exc:
        assert str(exc) == "slope_fit: log x must be strictly monotone"
        return None


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

    @given(xs=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                       min_size=3, max_size=8, unique=True),
           ys=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                       min_size=8, max_size=8),
           decreasing=st.booleans(), constant=st.booleans())
    @settings(max_examples=200)
    def test_r_squared_in_unit_interval(self, xs, ys, decreasing, constant):
        # 1.0 for constant log y, else max(0, 1 - ss_res/ss_tot) with ss_res >= 0
        xs = sorted(xs, reverse=decreasing)
        ys = [ys[0]] * len(xs) if constant else ys[:len(xs)]
        fit = accepted_fit(list(zip(xs, ys)))
        assert fit is None or 0.0 <= fit.r_squared <= 1.0

    def test_logs_that_round_equal_rejected(self):
        # three consecutive floats from 1000.0 are strictly increasing, but
        # their logs leave a zero denominator: the fit was inf and -inf
        xs = [1000.0]
        for _ in range(2):
            xs.append(math.nextafter(xs[-1], math.inf))
        with pytest.raises(ValidationError, match="^slope_fit: log x must be strictly monotone$"):
            slope_fit([(x, 2.0 * x) for x in xs])

    @given(x0=st.floats(1e-300, 1e290),
           steps=st.lists(st.one_of(st.integers(1, 4), st.floats(1.0, 10.0, exclude_min=True)),
                          min_size=2, max_size=7),
           ys=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                       min_size=8, max_size=8),
           window=st.sampled_from([0, 3, 4]))
    @settings(max_examples=300)
    def test_accepted_fits_are_finite(self, x0, steps, ys, window):
        # each step goes up from the last x by a few ulps (an int) or by a
        # factor (a float), at least one ulp
        xs = [x0]
        for step in steps:
            x = math.nextafter(xs[-1], math.inf)
            if isinstance(step, int):
                for _ in range(step - 1):
                    x = math.nextafter(x, math.inf)
            xs.append(x if isinstance(step, int) else max(x, xs[-1] * step))
        fit = accepted_fit(list(zip(xs, ys)), window)
        assert fit is None or (math.isfinite(fit.slope) and math.isfinite(fit.intercept))


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
        assert sweep.status == "degenerate: exact case"
        assert sweep.fit is None
        assert all(sweep.excluded)

    def test_two_members_too_few_points(self):
        # the 1.1/1 ellipse sits at the disk's floor at this mesh size
        family = [DomainSpec("ellipse", a=a, b=1.0) for a in (1.2, 1.1)]
        sweep = one_phase_stability_sweep(family, 0.1)
        assert sweep.excluded == [False, True]
        assert sweep.status == "degenerate: too few points"
        assert sweep.fit is None

    def test_star_family_slope(self):
        family = [DomainSpec("star", r0=1.0, eps=e, k=3)
                  for e in (0.08, 0.04, 0.02)]
        sweep = one_phase_stability_sweep(family, 0.05, window=3)
        assert sweep.fit is not None
        assert 0.8 <= sweep.fit.slope <= 1.2

    @pytest.mark.parametrize("domain", [ELLIPSE, DomainSpec("star", r0=1.0, eps=0.1, k=3)],
                             ids=["ellipse", "star"])
    def test_member_columns_match_full_report_bit_for_bit(self, domain):
        # the one-phase sweep and the two-phase report measure the same columns
        row, _ = experiments._stability_member(domain, 0.1)
        report = full_report(domain, None, 1.0, 0.1)
        assert {k: v.hex() for k, v in row.items()} == {
            k: getattr(report, k).hex() for k in ("gap", "dev_L2", "dev_Linf")}


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
        "inclusion": {"kind": "disk", "radius": 0.3}, field: values, "target_h": 0.08,
        **({"t0": 0.5} if command == "frechet-check" else {})})
    assert run(cfg) == 2
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["error"].startswith(f"{field}:")
    assert meshed == []


@pytest.mark.parametrize("field,sweep", [
    ("t_values", lambda: sigma_sweep(ELLIPSE, None, [], 0.1)),
    ("inclusion_radii", lambda: inclusion_sweep(ELLIPSE, 2.0, [], 0.1)),
    ("epsilon_values", lambda: frechet_check(ELLIPSE, None, 0.5, [], 0.1)),
    ("family", lambda: one_phase_stability_sweep([], 0.1)),
])
def test_empty_values_rejected_before_meshing(field, sweep, monkeypatch):
    meshed = []
    monkeypatch.setattr(experiments, "generate", lambda *a: meshed.append(a))
    with pytest.raises(ValidationError, match=f"^{field}: must not be empty$"):
        sweep()
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
        assert sweep.status == "degenerate: exact solution family"

    def test_concentric_degenerate(self):
        sweep = inclusion_sweep(DISK, 2.0, [0.3, 0.2, 0.1], 0.08, window=3)
        assert sweep.status == "degenerate: exact solution family"

    def test_radii_must_decrease(self):
        with pytest.raises(ValidationError):
            inclusion_sweep(ELLIPSE, 2.0, [0.1, 0.2], 0.1)

    def test_margins_measured_at_entry(self):
        # a centred disk's margin is dist(center, boundary) - r, so M is fixed
        # by the first, largest radius
        sweep = inclusion_sweep(ELLIPSE, 1.0, [0.3, 0.2, 0.1], 0.08, window=3)
        for row in sweep.rows:
            assert row["margin"] == inclusion_margin(
                ELLIPSE, DomainSpec("disk", radius=row["radius"]))
            assert row["margin"] == pytest.approx(1.0 - row["radius"], abs=1e-12)
        assert sweep.constants["M"] == max(1.0, 1.0 / sweep.rows[0]["margin"])


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


def _reporting_sigma_member(*args):
    """The sigma sweep's member, plus this process's pid, thread counts and
    number of set_num_threads calls."""
    pid, counts = _blas_threads()
    return {**_SIGMA_MEMBER(*args), "pid": pid, "counts": counts,
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
        # the last call runs in this process, the others in the workers
        results = experiments._parallel_map([_blas_threads] * 5, jobs=2)[:-1]
        assert all(pid != os.getpid() for pid, _ in results)
        assert all(counts and set(counts) == {1} for _, counts in results)

    def test_sweep_solves_on_one_blas_thread_and_stays_pinned(self, monkeypatch):
        """The base solves of a sweep run in this process: it must match the
        pool workers, or results above ~10k unknowns would depend on jobs.
        Restoring the old count afterwards would restart OpenBLAS's pool."""
        seen = []
        parallel_map = experiments._parallel_map

        def spy(calls, jobs):
            seen.append(set(_blas_threads()[1]))
            return parallel_map(calls, jobs)

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


def _failing_last_call():
    raise ValidationError("last call failed")


class TestParallelMap:
    @pytest.fixture
    def started(self, monkeypatch):
        """The max_workers of each pool _parallel_map starts."""
        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        # _parallel_map imports the executor from concurrent.futures where it builds the pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        return started

    def test_starts_at_most_one_worker_per_item(self, started):
        calls = [partial(abs, x) for x in (-3, -2, -1, 0)]
        assert experiments._parallel_map(calls, jobs=8) == [3, 2, 1, 0]
        assert started == [3]

    def test_last_call_runs_here_and_the_others_in_workers(self, started):
        for n, jobs, workers in ((2, 2, 1), (2, 8, 1), (5, 2, 2), (4, 8, 3)):
            started.clear()
            pids = experiments._parallel_map([os.getpid] * n, jobs=jobs)
            assert started == [workers]
            assert pids[-1] == os.getpid()
            assert os.getpid() not in pids[:-1] and len(set(pids[:-1])) <= workers

    def test_results_match_the_serial_list(self, started):
        calls = [partial(pow, x, 2) for x in range(-3, 4)]
        serial = [call() for call in calls]
        assert [experiments._parallel_map(calls, jobs=jobs) for jobs in (1, 2, 3, 4)] \
            == [serial] * 4
        assert experiments._parallel_map(calls[:1], jobs=4) == serial[:1]
        assert experiments._parallel_map([], jobs=4) == []
        assert started == [2, 3, 4]  # none at jobs 1 or for one call

    def test_pooled_error_wins_over_the_last_call(self):
        calls = [partial(math.sqrt, 1.0), partial(math.sqrt, -1.0), _failing_last_call]
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="math domain error"):
                experiments._parallel_map(calls, jobs=jobs)

    def test_last_call_error_raised_when_the_pooled_calls_succeed(self):
        calls = [partial(math.sqrt, 4.0), partial(math.sqrt, 1.0), _failing_last_call]
        for jobs in (1, 2):
            with pytest.raises(ValidationError, match="^last call failed$"):
                experiments._parallel_map(calls, jobs=jobs)

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


def _failing(real, kind, error):
    """real(mesh or domain, ...), except that a domain of this kind raises error,
    naming the kind; a forked pool worker inherits the patch."""
    def call(first, *args):
        domain = first if isinstance(first, DomainSpec) else first.domain
        if domain.kind == kind:
            raise error(f"{kind} failed")
        return real(first, *args)
    return call


class TestPooledErrorOrder:
    """Each sweep's floor fixture (on the unit disk) is its last call: at jobs
    > 1 it runs in this process while the pool solves the members.  At any
    jobs a member's error comes first, then the floor's, then the family
    check."""

    MONOTONE = [DomainSpec("ellipse", a=a, b=1.0) for a in (1.2, 1.1)]
    NON_MONOTONE = [DomainSpec("ellipse", a=a, b=1.0) for a in (1.2, 1.05, 1.1)]

    def test_non_monotone_family_same_error(self):
        messages = []
        for jobs in (1, 2):
            with pytest.raises(ValidationError, match="^family:") as exc:
                one_phase_stability_sweep(self.NON_MONOTONE, 0.1, jobs=jobs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_floor_error_before_family_check(self, monkeypatch):
        monkeypatch.setattr(experiments, "generate",
                            _failing(experiments.generate, "disk", MeshQualityError))
        for jobs in (1, 2):
            for family in (self.NON_MONOTONE, self.MONOTONE):
                with pytest.raises(MeshQualityError, match="^disk failed$"):
                    one_phase_stability_sweep(family, 0.1, jobs=jobs)

    @pytest.mark.parametrize("sweep,solve", [
        (lambda jobs: one_phase_stability_sweep(TestPooledErrorOrder.MONOTONE, 0.1,
                                                jobs=jobs), "solve_one_phase"),
        (lambda jobs: inclusion_sweep(ELLIPSE, 2.0, [0.4, 0.3, 0.2], 0.1, jobs=jobs),
         "solve_two_phase"),
        # the base's one-phase solve runs here before the pool starts
        (lambda jobs: sigma_sweep(ELLIPSE, DomainSpec("disk", radius=0.3), [0.4, 0.2, 0.1],
                                  0.1, jobs=jobs), "solve_two_phase"),
    ], ids=["stability", "inclusion", "sigma"])
    def test_member_error_before_floor_error(self, sweep, solve, monkeypatch):
        monkeypatch.setattr(experiments, "generate",
                            _failing(experiments.generate, "disk", MeshQualityError))
        monkeypatch.setattr(experiments, solve,
                            _failing(getattr(experiments, solve), "ellipse", SolverError))
        for jobs in (1, 2):
            with pytest.raises(SolverError, match="^ellipse failed$"):
                sweep(jobs)
