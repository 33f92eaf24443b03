"""Seeded benchmark inputs.

Every input is a file in the run's work directory, built from the
benchmark seed before any timing starts, so the program under test only
ever sees generated data and the same seed always gives the same bytes.
Each file is described by a manifest entry with its shape, byte count
and sha256 digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from corrkit import synth
from corrkit.core import PairedSample, RngSeed

# the 5x3 machining table of the paper's split-protocol run
INDEPENDENTS = ("speed", "feed", "rms", "energy", "counts")
DEPENDENTS = ("ra", "rmax", "rz")
TABLE_ROWS = 50
SPLIT_TRAIN = 30
SPLIT_EVAL = 20

FAMILIES = tuple(sorted(synth.FAMILY_DEFAULTS))
FAMILY_SIZES = (1_000, 10_000)

WIDE_ROWS = 100_000
WIDE_COLUMNS = ("x", "y", "z_norm", "z_lognorm", "z_count", "z_scaled", "z_step", "z_tiny")


def machining_columns(seed: int) -> dict[str, np.ndarray]:
    """Columns shaped like the split-protocol demo table: feed drives the
    three roughness responses and rms; speed, energy and counts are noise."""
    rng = np.random.default_rng([seed])
    n = TABLE_ROWS
    feed = rng.uniform(0.1, 0.4, n)
    speed = rng.uniform(100, 300, n)
    rms = 4.0 - 6.0 * feed + 0.3 * rng.standard_normal(n)
    energy = rng.uniform(20, 80, n)
    counts = rng.uniform(5, 50, n)
    return {
        "speed": speed,
        "feed": feed,
        "rms": rms,
        "energy": energy,
        "counts": counts,
        "ra": 2.0 + 9.0 * feed + 0.2 * rng.standard_normal(n),
        "rmax": 8.0 + 25.0 * feed + 1.0 * rng.standard_normal(n),
        "rz": 5.0 + 15.0 * feed + 0.6 * rng.standard_normal(n),
    }


def wide_columns(seed: int) -> dict[str, np.ndarray]:
    """A 10^5 x 8 table: a noisy monotone (x, y) pair plus six columns
    whose cells differ in magnitude, sign and text length, so the parser
    sees more than one shape of number."""
    rng = np.random.default_rng([seed, 1])
    n = WIDE_ROWS
    x = rng.uniform(0.0, 100.0, n)
    y = np.log1p(x) + 0.5 * rng.standard_normal(n)
    return {
        "x": x,
        "y": y,
        "z_norm": rng.standard_normal(n),
        "z_lognorm": rng.lognormal(3.0, 2.0, n),
        "z_count": rng.integers(0, 1000, n).astype(np.float64),
        "z_scaled": rng.uniform(-1e6, 1e6, n),
        "z_step": np.round(rng.uniform(0.0, 50.0, n), 1),
        "z_tiny": rng.uniform(0.0, 1e-6, n),
    }


def family_sample(family: str, n: int, seed: int) -> PairedSample:
    return synth.generate(synth.FamilySpec(family, n, RngSeed(seed)))


def csv_text(columns: dict[str, np.ndarray]) -> str:
    names = list(columns)
    lines = [",".join(names)]
    cols = [columns[name].tolist() for name in names]
    lines.extend(",".join(map(repr, row)) for row in zip(*cols))
    return "\n".join(lines) + "\n"


def jsonl_text(columns: dict[str, np.ndarray]) -> str:
    names = list(columns)
    cols = [columns[name].tolist() for name in names]
    return "".join(json.dumps(dict(zip(names, row))) + "\n" for row in zip(*cols))


def _entry(path: Path, rows: int, cols: int) -> dict:
    data = path.read_bytes()
    return {
        "file": path.name,
        "rows": rows,
        "cols": cols,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs into workdir; return the manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    if workload == "split_panel":
        path = workdir / "machining.csv"
        path.write_text(csv_text(machining_columns(seed)), encoding="utf-8")
        manifest.append(_entry(path, TABLE_ROWS, len(INDEPENDENTS) + len(DEPENDENTS)))
    elif workload == "wide_compute":
        for family in FAMILIES:
            for n in FAMILY_SIZES:
                s = family_sample(family, n, seed)
                path = workdir / f"{family}_{n}.npy"
                np.save(path, np.stack([s.xs, s.ys]))
                manifest.append(_entry(path, n, 2))
    elif workload == "ingest_compute":
        columns = wide_columns(seed)
        for name, text in (("wide.csv", csv_text(columns)), ("wide.jsonl", jsonl_text(columns))):
            path = workdir / name
            path.write_text(text, encoding="utf-8")
            manifest.append(_entry(path, WIDE_ROWS, len(WIDE_COLUMNS)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return manifest
