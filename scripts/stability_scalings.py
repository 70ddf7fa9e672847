#!/usr/bin/env python3
"""Desk-scale empirical check of the four stability scalings.

Runs the one-phase family, the contrast sweep, the inclusion-size sweep, and
the derivative check, then prints the fitted slopes next to their theoretical
targets and the resulting non-existence thresholds for the 1.2/1 ellipse.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from serrinlab.experiments import (  # noqa: E402
    frechet_check,
    inclusion_sweep,
    nonexistence_threshold,
    one_phase_stability_sweep,
    sigma_sweep,
)
from serrinlab.geometry import DomainSpec  # noqa: E402

ELLIPSE = DomainSpec("ellipse", a=1.2, b=1.0)
INCLUSION = DomainSpec("disk", radius=0.3)


def show(name, sweep, target):
    slope = f"{sweep.fit.slope:.3f}" if sweep.fit else "n/a"
    print(f"{name:24s} slope {slope:>6s}  target {target:12s} status {sweep.status}")
    return sweep


def main():
    h = 0.03
    family = [DomainSpec("ellipse", a=1 + e, b=1.0)
              for e in (0.2, 0.1, 0.05, 0.025)]
    stab = show("one-phase stability", one_phase_stability_sweep(family, h),
                "1 (linear)")
    sig = show("contrast sweep", sigma_sweep(ELLIPSE, INCLUSION,
                                             [0.4, 0.2, 0.1, 0.05, 0.025], 0.05),
               "1 (linear)")
    show("derivative check", frechet_check(ELLIPSE, INCLUSION, 0.5,
                                           [0.2, 0.1, 0.05, 0.025], 0.05),
         "1 (linear)")
    show("inclusion sweep", inclusion_sweep(ELLIPSE, 2.0,
                                            [0.3, 0.2, 0.1, 0.05], 0.05),
         ">= 0.5")

    c6 = stab.constants["max_ratio_gap_over_dev"]
    c7 = sig.constants["C7_empirical"]
    th = nonexistence_threshold(ELLIPSE, c6 * c7, 2.0, h)
    print(f"\nellipse 1.2/1: gap {th.gap:.3f}")
    print(f"no solution pair once |sigma_c - 1| < {th.sigma_threshold:.3f} "
          f"({th.label})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
