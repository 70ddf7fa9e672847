"""One workload in one fresh process: set up, run whole passes, check outputs.

Started by run.py.  Prints READY once imports and a coarse warm-up solve are
done (run.py times process start to READY as set-up), then runs passes over
the workload's case list until the next pass would end after --seconds, and
prints one JSON line with the pass results.

Every case is one operation and a pass is one round over all of them.  A case
whose program call fails (non-zero exit, MeshQualityError or any other
exception) is a failed operation; a case whose outputs fail a check is a
failed operation and makes the run incorrect.  Only the program calls are
timed: cleaning the output directory and checking outputs are not.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import bench_cases  # noqa: E402
import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
from serrinlab import cli_io, fem_core, geometry, meshgen  # noqa: E402


def _rows(path):
    """CSV rows keyed by header, numbers as floats.

    Fields past the header (key None) are dropped: the nonexistence label is
    written unquoted and contains a comma.
    """
    def value(v):
        try:
            return float(v)
        except ValueError:
            return v
    with open(path, newline="") as fh:
        return [{k: value(v) for k, v in rec.items() if k is not None}
                for rec in csv.DictReader(fh)]


class CliCase:
    """One JSON config through serrinlab.cli_io.run."""

    def __init__(self, cfg, jobs):
        self.cfg = cfg
        self.name = cfg.get("name") or cfg["command"]
        self.jobs = jobs
        self.outdir = Path(os.environ["SERRIN_LAB_OUT"]) / self.name

    def run(self):
        """(seconds, error message or None)."""
        cfg = cli_io.config_from_dict(json.loads(json.dumps(self.cfg)))
        t0 = time.perf_counter()
        try:
            code = cli_io.run(cfg, jobs=self.jobs)
        except Exception as exc:  # a crash fails the operation, not the run
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if code != 0:
            manifest = json.loads((self.outdir / "manifest.json").read_text())
            return elapsed, f"exit {code}: {manifest.get('error')}"
        return elapsed, None

    def check(self):
        """(problems, vertices of the meshes the command built)."""
        c, out = self.cfg, self.outdir
        cmd = c["command"]
        rows = _rows(out / "report.csv")

        def text(name):
            return (out / name).read_text() if (out / name).exists() else None

        if cmd == "diagnose":
            problems = bench_checks.check_diagnose(rows[0], c)
        elif cmd == "verify-identity":
            problems = bench_checks.check_identity_rows(rows, c)
        elif cmd == "nonexistence":
            problems = bench_checks.check_nonexistence(rows[0], c)
        elif cmd == "solve":
            problems = bench_checks.check_solve(rows[0], c, text("field.txt"))
        else:
            fit = json.loads((out / "fit.json").read_text())
            problems = bench_checks.check_sweep(cmd, fit, rows, c, text("plot.svg"))
        return problems, bench_cases.CLI_VERTICES[self.name]


class MeshCase:
    """generate -> refine -> validate_mesh on one (domain, inclusion, h)."""

    def __init__(self, spec):
        self.spec = spec
        self.name = spec["name"]
        self.meshes = ()

    def run(self):
        dom = cli_io.domain_from_dict(self.spec["domain"])
        inc = self.spec["inclusion"]
        inc = cli_io.inclusion_from_dict(inc) if inc else None
        self.meshes = ()
        t0 = time.perf_counter()
        try:
            mesh = meshgen.generate(dom, inc, self.spec["target_h"])
            fine = meshgen.refine(mesh)
            meshgen.validate_mesh(fine)
        except Exception as exc:  # MeshQualityError, or a crash
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.meshes = (mesh, fine)
        return elapsed, None

    def check(self):
        problems = []
        for m in self.meshes:
            problems += bench_checks.check_mesh(
                m.vertices, m.triangles, m.region, m.boundary_loop, m.target_h,
                self.spec["domain"], self.spec["inclusion"])
        vertices = sum(len(m.vertices) for m in self.meshes)
        self.meshes = ()
        return problems, vertices


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=bench_cases.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    warm = meshgen.generate(geometry.DomainSpec("disk", radius=1.0),
                            geometry.InclusionSpec("disk", radius=0.5), 0.2)
    fem_core.normal_derivative(warm, fem_core.solve_two_phase(warm, 2.0))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        tracer.install()
    # forked pool workers' spans do not come back, so the traced run is serial
    jobs = 1 if args.trace else (os.cpu_count() or 1)
    workdir = OUT / args.workload
    os.environ["SERRIN_LAB_OUT"] = str(workdir / "cases")
    specs = bench_cases.cases(args.workload, args.seed, ROOT)
    if args.workload == "mesh-shapes":
        cases = [MeshCase(s) for s in specs]
    else:
        cases = [CliCase(c, jobs) for c in specs]

    attempted = failed = 0
    correct = True
    pass_s, rates, layers, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        wall0 = time.perf_counter()
        shutil.rmtree(workdir / "cases", ignore_errors=True)
        mark = tracer.mark() if tracer else None
        timed = 0.0
        certified = 0
        case_s = []
        for case in cases:
            built = tracer.counters["meshgen.vertices"] if tracer else 0
            elapsed, error = case.run()
            timed += elapsed
            case_s.append(f"{case.name} {elapsed:.3f}")
            attempted += 1
            if error:
                failed += 1
                print(f"[{args.workload}] {case.name}: {error}", file=sys.stderr)
                continue
            problems, vertices = case.check()
            if tracer and isinstance(case, CliCase):
                # manifest.json carries a wall time, so its size varies
                tracer.counters["cli_io.artifact_bytes"] += sum(
                    f.stat().st_size for f in case.outdir.iterdir()
                    if f.name != "manifest.json")
                # the untraced run credits CLI_VERTICES; a stale table fails
                built = tracer.counters["meshgen.vertices"] - built
                if built != vertices:
                    problems.append(f"built {built} vertices, CLI_VERTICES "
                                    f"says {vertices}")
            for msg in problems:
                print(f"[{args.workload}] {case.name}: {msg}", file=sys.stderr)
            if problems:
                failed += 1
                correct = False
            else:
                certified += vertices
        pass_s.append(timed)
        rates.append(certified / timed)
        if tracer:
            layers.append(tracer.summary(mark))
        walls.append(time.perf_counter() - wall0)
        print(f"[{args.workload}] pass {len(pass_s)}: {timed:.3f} s, "
              f"{certified} certified vertices ({', '.join(case_s)})", file=sys.stderr)
        if time.perf_counter() - start + max(walls) > args.seconds:
            break

    if tracer:
        metrics = {name: {"value": statistics.median(p[name] for p in layers), "unit": unit}
                   for name, unit in bench_trace.per_layer_names()}
        metrics["trace.pass_s"] = {"value": statistics.median(pass_s), "unit": "s"}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "certified_vps": {"value": statistics.median(rates), "unit": "vertices/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
