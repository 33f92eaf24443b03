"""Machine-speed probes.

On a shared virtual machine, such as the reference machine in
baseline.json, the same code runs up to 1.6x slower for a minute or so
while other tenants load the physical cores, which moves every
wall-clock median far more than any bound worth setting. So each op is
followed by a probe: fixed work of the same kind as the workload's hot
path, written here with numpy and the standard library only, so that no
change to corrkit can change it. An op's reported latency is its wall
time scaled by ``nominal / probe time``, where ``nominal`` is the probe's
time on the reference machine at its usual speed; on that machine, at
that speed, reported and wall-clock seconds agree.

Set-up time is scaled the same way by a fresh interpreter that imports
numpy alone (``SETUP_REFERENCE``).
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# Each entry builds its probe's fixed data only when asked, so that a
# workload process holds no other workload's probe data in memory.


def split_probe():
    """600 thirty-point fits on seeded permutations, the shape of one
    gcorr.estimate_g iteration."""
    rng = np.random.default_rng(1)
    x_all = rng.uniform(size=50)
    y_all = x_all + rng.standard_normal(50)

    def probe() -> float:
        best = 0.0
        for i in range(600):
            train = np.random.default_rng([7, i]).permutation(50)[:30]
            xs, ys = x_all[train], y_all[train]
            median = float(np.median(ys))
            order = np.argsort(xs, kind="stable")
            below = ys[order] < median
            cum_below = np.concatenate(([0], np.cumsum(below)))
            cum_above = np.concatenate(([0], np.cumsum(~below)))
            mids = 0.5 * (xs[order][:-1] + xs[order][1:])
            left = np.concatenate(([0], np.searchsorted(xs[order], mids, side="right")))
            diag = cum_below[left] + (int((~below).sum()) - cum_above[left])
            best = max(best, float(np.max(np.maximum(diag, 30 - diag))))
        return best

    return probe


def wide_probe():
    """Pairwise sign products over slices of a 2,500-point sample, the
    shape of the O(n^2) classic.kendall loop, plus a sort."""
    rng = np.random.default_rng(2)
    x = rng.uniform(size=2_500)
    y = x + rng.standard_normal(2_500)

    def probe() -> float:
        total = 0
        for i in range(x.shape[0] - 1):
            total += int(np.sum(np.sign(x[i + 1 :] - x[i]) * np.sign(y[i + 1 :] - y[i])))
        return total + float(np.sort(y)[0])

    return probe


def ingest_probe():
    """10,000 rows of an 8-column table parsed as csv and as jsonl, cell
    by cell through float(), as core.read_columns does."""
    names = [f"c{j}" for j in range(8)]
    rows = np.random.default_rng(3).standard_normal((10_000, 8)).tolist()
    csv_text = ",".join(names) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    jsonl_text = "".join(json.dumps(dict(zip(names, row))) + "\n" for row in rows)

    def probe() -> float:
        total = 0.0
        for record in csv.DictReader(io.StringIO(csv_text)):
            for name in names:
                total += float(record[name])
        for line in io.StringIO(jsonl_text):
            record = json.loads(line)
            for name in names:
                total += float(record[name])
        return total

    return probe


# probe factory and the probe's nominal seconds, per workload
PROBES = {
    "split_panel": (split_probe, 0.034),
    "wide_compute": (wide_probe, 0.023),
    "ingest_compute": (ingest_probe, 0.104),
}

SETUP_REFERENCE = "import numpy, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
SETUP_REFERENCE_NOMINAL_S = 0.09
