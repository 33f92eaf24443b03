#!/usr/bin/env python3
"""Compare all six coefficients across the synthetic families.

Prints one row per (family, seed) with the full panel, which makes the
qualitative story visible at a glance: the staircase blinds kappa but
not omega, the sinusoid blinds everything except omega, and the
heteroscedastic step blinds the grid coefficient while omega saturates.

Usage:
    python scripts/coefficient_comparison.py [--n 400] [--seeds 3]
"""

import argparse

from corrkit import CoefficientPanel, FamilySpec, RngSeed, compute_panel, generate
from corrkit.synth import FAMILY_DEFAULTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    names = CoefficientPanel.COLUMNS
    header = f"{'family':<16} {'seed':>4} " + " ".join(f"{n:>8}" for n in names)
    print(header)
    print("-" * len(header))
    for family in sorted(FAMILY_DEFAULTS):
        for seed in range(args.seeds):
            sample = generate(FamilySpec(family, args.n, RngSeed(seed)))
            panel = compute_panel(sample)
            cells = []
            for name in names:
                pv = panel.as_dict()[name]
                cells.append(f"{pv.value:>8.3f}" if pv.valid else f"{'--':>8}")
            print(f"{family:<16} {seed:>4} " + " ".join(cells))


if __name__ == "__main__":
    main()
