#!/usr/bin/env python3
"""Repeated train/eval protocol on a synthetic table, end to end.

Builds a 50-row table with five independents and three dependents,
runs the panel with the 30/20 split protocol, writes the csv report
and one SVG scatter per dependent against the strongest independent.

Usage:
    python scripts/split_protocol_demo.py [--out-dir out] [--iters 10000]
"""

import argparse
from pathlib import Path

import numpy as np

from corrkit import (
    ExperimentConfig,
    PairedSample,
    RngSeed,
    SplitPlan,
    fit_g,
    read_columns,
    render_report,
    render_scatter,
    run_panel,
)


def build_table(path: Path, seed: int) -> None:
    rng = np.random.default_rng([seed])
    n = 50
    feed = rng.uniform(0.1, 0.4, n)
    speed = rng.uniform(100, 300, n)
    rms = 4.0 - 6.0 * feed + 0.3 * rng.standard_normal(n)
    energy = rng.uniform(20, 80, n)
    counts = rng.uniform(5, 50, n)
    roughness_a = 2.0 + 9.0 * feed + 0.2 * rng.standard_normal(n)
    roughness_max = 8.0 + 25.0 * feed + 1.0 * rng.standard_normal(n)
    roughness_z = 5.0 + 15.0 * feed + 0.6 * rng.standard_normal(n)
    columns = {
        "speed": speed,
        "feed": feed,
        "rms": rms,
        "energy": energy,
        "counts": counts,
        "ra": roughness_a,
        "rmax": roughness_max,
        "rz": roughness_z,
    }
    lines = [",".join(columns)]
    for i in range(n):
        lines.append(",".join(repr(float(columns[name][i])) for name in columns))
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--iters", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / "table.csv"
    build_table(table, args.seed)

    cfg = ExperimentConfig(
        input=table,
        independents=("speed", "feed", "rms", "energy", "counts"),
        dependents=("ra", "rmax", "rz"),
        split=SplitPlan(30, 20, args.iters, RngSeed(args.seed)),
    )
    report = run_panel(cfg)
    report_path = out_dir / "report.csv"
    report_path.write_bytes(render_report(report, "csv"))
    print(f"wrote {report_path} ({len(report.rows)} rows, {args.iters} iterations)")

    columns = read_columns(table, columns=("feed", "ra", "rmax", "rz"))
    for dependent in ("ra", "rmax", "rz"):
        sample = PairedSample(columns["feed"], columns[dependent])
        svg = render_scatter(sample, fit_g(sample), title=f"feed vs {dependent}")
        svg_path = out_dir / f"feed_{dependent}.svg"
        svg_path.write_text(svg)
        print(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
