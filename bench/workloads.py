"""The three closed-loop workloads: what one op is, and how its output is
checked against the reference values from ``oracles``, which are
computed in the parent process so that scipy never enters the
workload process's memory.

Each workload is a class built from the run's work directory, seed and
reference values. ``op(k)`` is the timed call for the k-th op; ``check(k,
output)`` runs after timing and returns None or a failure message.
``cycle`` is the number of ops after which the op sequence repeats;
a run only ends on a cycle boundary, so every run holds the same mix.

Ops reach the program through module attributes (``cli.main``,
``harness.compute_panel``) so that the traced run's span wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from corrkit import cli, harness
from corrkit.core import PairedSample

import inputs

# split iterations per report: the run-length setting of split_panel,
# sized so that a run holds enough reports for a stable tail
SPLIT_ITERS = 200
# r, rho and tau are recomputed in another order by the oracles
COEF_TOL = 1e-9
# kappa, ncc and omega come from the same arithmetic on the same values
EXACT_TOL = 1e-12


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _mismatches(got: dict[str, float], want: dict[str, float], tol: float) -> list[str]:
    return [
        f"{name}={got[name]!r}, expected {value!r}"
        for name, value in want.items()
        if not abs(got[name] - value) <= tol
    ]


def _panel_values(panel) -> dict[str, float]:
    return {name: pv.value for name, pv in panel.as_dict().items()}


class SplitPanel:
    """`corrkit panel` on the 5x3 machining table with the 30/20 split;
    one op is one csv report."""

    cycle = 1

    def __init__(self, workdir: Path, seed: int, expected: dict):
        self.argv = [
            "panel",
            "--in", str(workdir / "machining.csv"),
            "--independents", ",".join(inputs.INDEPENDENTS),
            "--dependents", ",".join(inputs.DEPENDENTS),
            "--train", str(inputs.SPLIT_TRAIN),
            "--eval", str(inputs.SPLIT_EVAL),
            "--iters", str(SPLIT_ITERS),
            "--seed", str(seed),
            "--format", "csv",
        ]
        self.pairs = expected["pairs"]
        self.first: bytes | None = None

    def op(self, k: int):
        return run_cli(self.argv)

    def check(self, k: int, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        data = text.encode("utf-8")
        if self.first is None:
            self.first = data
        elif data != self.first:
            return "report bytes differ from the first op's"
        report = harness.parse_report(data, "csv")
        if harness.render_report(report, "csv") != data:
            return "report does not round-trip through parse_report"
        if len(report.rows) != len(self.pairs):
            return f"{len(report.rows)} rows, expected {len(self.pairs)}"
        for row, (independent, dependent, ref) in zip(report.rows, self.pairs):
            where = f"{row.independent},{row.dependent}"
            if (row.independent, row.dependent) != (independent, dependent):
                return f"row {where}, expected {independent},{dependent}"
            omega = row.panel.omega
            if not (omega.valid and 0.5 <= omega.value <= 1.0):
                return f"{where}: omega {omega.value!r} outside [0.5, 1]"
            bad = _mismatches(_panel_values(row.panel), ref, COEF_TOL)
            if bad:
                return f"{where}: " + "; ".join(bad)
        return None


class WideCompute:
    """`harness.compute_panel` with full-data omega; one op is the panel
    of one family at n = 10^3 followed by the same family at n = 10^4."""

    cycle = len(inputs.FAMILIES)

    def __init__(self, workdir: Path, seed: int, expected: dict):
        self.samples = []
        for family in inputs.FAMILIES:
            pairs = []
            for n in inputs.FAMILY_SIZES:
                xs, ys = np.load(workdir / f"{family}_{n}.npy")
                pairs.append((f"{family}_{n}", PairedSample(xs, ys)))
            self.samples.append(pairs)
        self.refs = expected["samples"]

    def op(self, k: int):
        return [harness.compute_panel(s) for _, s in self.samples[k % self.cycle]]

    def check(self, k: int, output) -> str | None:
        for (key, _), panel in zip(self.samples[k % self.cycle], output):
            invalid = [name for name, pv in panel.as_dict().items() if not pv.valid]
            if invalid:
                return f"{key}: invalid {invalid}"
            values = _panel_values(panel)
            bad = _mismatches(values, self.refs[key], COEF_TOL)
            if not 0.5 <= values["omega"] <= 1.0:
                bad.append(f"omega {values['omega']!r} outside [0.5, 1]")
            if not -1.0 <= values["kappa"] <= 1.0:
                bad.append(f"kappa {values['kappa']!r} outside [-1, 1]")
            if not 0.0 <= values["ncc"] <= 1.0:
                bad.append(f"ncc {values['ncc']!r} outside [0, 1]")
            if bad:
                return f"{key}: " + "; ".join(bad)
        return None


class IngestCompute:
    """`corrkit compute` on the 10^5 x 8 table, alternating its csv and
    jsonl copies; one op is one command."""

    cycle = 2
    COEFS = ("r", "rho", "kappa", "ncc", "omega")

    def __init__(self, workdir: Path, seed: int, expected: dict):
        flags = [arg for name in self.COEFS for arg in ("--coef", name)]
        self.argvs = [
            ["compute", "--in", str(workdir / name), "--x-col", "x", "--y-col", "y", *flags, "--json"]
            for name in ("wide.csv", "wide.jsonl")
        ]
        self.n = expected["n"]
        self.refs = expected["coefficients"]

    def op(self, k: int):
        return run_cli(self.argvs[k % self.cycle])

    def check(self, k: int, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        if payload["n"] != self.n:
            return f"n = {payload['n']}, expected {self.n}"
        if payload["notes"]:
            return f"unexpected notes {payload['notes']}"
        got = payload["coefficients"]
        if set(got) != set(self.COEFS):
            return f"coefficients {sorted(got)}, expected {sorted(self.COEFS)}"
        classic_refs = {name: self.refs[name] for name in ("r", "rho")}
        same_refs = {name: self.refs[name] for name in ("kappa", "ncc", "omega")}
        bad = _mismatches(got, classic_refs, COEF_TOL) + _mismatches(got, same_refs, EXACT_TOL)
        return "; ".join(bad) or None


WORKLOADS = {
    "split_panel": SplitPanel,
    "wide_compute": WideCompute,
    "ingest_compute": IngestCompute,
}
