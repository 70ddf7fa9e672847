#!/usr/bin/env python3
"""Desk-scale empirical check of the four stability scalings.

Runs the one-phase family, the contrast sweep, the derivative check and the
inclusion-size sweep of the example configs in configs/, then prints the
fitted slopes next to their theoretical targets and the non-existence
threshold of configs/nonexistence.json with its fitted_C2 replaced by the
product of the two fitted constants.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serrinlab.cli_io import load_config  # noqa: E402
from serrinlab.experiments import (  # noqa: E402
    frechet_check,
    inclusion_sweep,
    nonexistence_threshold,
    one_phase_stability_sweep,
    sigma_sweep,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def show(name, sweep, target):
    slope = f"{sweep.fit.slope:.3f}" if sweep.fit else "n/a"
    print(f"{name:24s} slope {slope:>6s}  target {target:12s} status {sweep.status}")
    return sweep


def main():
    stab_cfg, sig_cfg, fd_cfg, inc_cfg, ne_cfg = (
        load_config(CONFIG_DIR / f"{name}.json")
        for name in ("sweep_stability", "sweep_sigma", "frechet_check", "sweep_inclusion",
                     "nonexistence"))
    stab = show("one-phase stability",
                one_phase_stability_sweep(stab_cfg.family, stab_cfg.target_h),
                "1 (linear)")
    sig = show("contrast sweep", sigma_sweep(sig_cfg.domain, sig_cfg.inclusion,
                                             sig_cfg.t_values, sig_cfg.target_h),
               "1 (linear)")
    show("derivative check", frechet_check(fd_cfg.domain, fd_cfg.inclusion, fd_cfg.t0,
                                           fd_cfg.epsilon_values, fd_cfg.target_h),
         "1 (linear)")
    show("inclusion sweep", inclusion_sweep(inc_cfg.domain, inc_cfg.sigma_c,
                                            inc_cfg.inclusion_radii, inc_cfg.target_h),
         ">= 0.5")

    c6 = stab.constants["max_ratio_gap_over_dev"]
    c7 = sig.constants["C7_empirical"]
    th = nonexistence_threshold(ne_cfg.domain, c6 * c7, ne_cfg.fitted_C3, ne_cfg.target_h)
    print(f"\n{ne_cfg.name}: gap {th.gap:.3f}")
    print(f"no solution pair once |sigma_c - 1| < {th.sigma_threshold:.3f} "
          f"({th.label})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
