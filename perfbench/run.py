#!/usr/bin/env python3
"""serrin-lab benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; nothing needs installing (the worker
puts src/ on its path).  Workloads: diagnose-fine, example-configs,
mesh-shapes (see perfbench/README.md).

The workload runs in its own fresh process (perfbench/worker.py), which uses
at most nproc pool workers.  Set-up time is process start to ready (imports
plus one coarse warm-up solve), measured on that process and on fresh
set-up-only processes, and reported as the median.  With --trace 1 the worker
runs serially under the span tracer and the result carries the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_cases import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# A run ends about --seconds after set-up, as the worker stops after whole
# passes.  The allowance covers the set-up processes and a first pass that
# alone outlasts --seconds.
TIMEOUT_ALLOWANCE_S = 130.0


def _spawn(args):
    # the caller's environment, unchanged: the figures are the program's as
    # shipped, BLAS threading included
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True)


def _until_ready(proc, deadline):
    """Seconds from now until the process prints READY (None if it never does)."""
    t0 = time.perf_counter()
    line = proc.stdout.readline()
    if line.strip() != "READY" or time.perf_counter() > deadline:
        return None
    return time.perf_counter() - t0


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    return out, proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description="serrin-lab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (Path.cwd() / "src" / "serrinlab" / "__init__.py").is_file():
        print("error: run from the root of a serrin-lab checkout (src/serrinlab "
              "not found)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds + TIMEOUT_ALLOWANCE_S

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc = _spawn(["--setup-only"])
            setup.append(_until_ready(proc, deadline))
            _, code = _finish(proc, deadline)
            if setup[-1] is None or code != 0:
                print(f"error: set-up process failed ({code})", file=sys.stderr)
                return 1

    proc = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
    ready = _until_ready(proc, deadline)
    out, code = _finish(proc, deadline)
    if ready is None or code != 0:
        print(f"error: workload process failed ({code})", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setup.append(ready)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
