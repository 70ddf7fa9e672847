#!/usr/bin/env python3
"""Run every example config in configs/ and summarize the artifacts.

Outputs land under outputs/<name>/ (override the root with SERRIN_LAB_OUT).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serrinlab.cli_io import _usable_cores, load_config, run, run_dir  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def main():
    jobs = _usable_cores()  # the CLI's default: cores in the affinity mask
    failures = 0
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(path)
        code = run(cfg, jobs=jobs)
        manifest = json.loads((run_dir(cfg) / "manifest.json").read_text())
        print(f"{path.name:28s} exit {code}  status {manifest['status']:18s} "
              f"wall {manifest['wall_time_s']:.1f}s")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
