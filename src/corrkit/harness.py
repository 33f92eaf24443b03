"""Batch experiment runner: one coefficient panel per variable pair,
optionally with the repeated train/eval protocol for omega, rendered as
deterministic csv or json reports.

Report layout mirrors the classic comparison table: one row per
(independent, dependent) pair, the six coefficients as columns in the
fixed order r, rho, tau, kappa, ncc, omega. Degenerate pairs land in the
report with validity flags instead of aborting the batch. Stored values
are always signed; any absolute-value view is a rendering concern.

Rendered bytes contain no timestamps, so a fixed seed and config always
produce bit-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .classic import fechner, kendall, pearson, spearman
from .core import CoefficientPanel, PairedSample, PanelValue, read_columns
from .errors import (
    AllTied,
    ConstantX,
    CorrkitError,
    DegenerateVariance,
    InvalidParams,
    TooFewPoints,
)
from .gcorr import SplitPlan, estimate_g, fit_g
from .ncc import DEFAULT_BINS, ncc

__all__ = [
    "ExperimentConfig",
    "PanelRow",
    "PanelReport",
    "compute_panel",
    "run_panel",
    "render_report",
    "parse_report",
]

SCHEMA_VERSION = "v1"

_CSV_HEADER = ("independent", "dependent", *CoefficientPanel.COLUMNS, "notes")


@dataclass(frozen=True)
class ExperimentConfig:
    input: str | Path
    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    split: SplitPlan | None = None
    b: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        object.__setattr__(self, "independents", tuple(self.independents))
        object.__setattr__(self, "dependents", tuple(self.dependents))
        if not self.independents or not self.dependents:
            raise InvalidParams("need at least one independent and one dependent column")


@dataclass(frozen=True)
class PanelRow:
    independent: str
    dependent: str
    panel: CoefficientPanel


@dataclass(frozen=True)
class PanelReport:
    rows: tuple[PanelRow, ...]
    seed: int | None = None
    iterations: int | None = None


# how each coefficient is computed from (sample, b, split); the lambdas look
# the functions up at call time, so a rebound module name takes effect
_COEFFICIENTS = {
    "r": lambda s, b, split: pearson(s),
    "rho": lambda s, b, split: spearman(s),
    "tau": lambda s, b, split: kendall(s),
    "kappa": lambda s, b, split: fechner(s).kappa,
    "ncc": lambda s, b, split: ncc(s, b),
    "omega": lambda s, b, split: estimate_g(s, split)[0] if split is not None else fit_g(s).omega,
}


def coefficient(
    name: str, s: PairedSample, b: int = DEFAULT_BINS, split: SplitPlan | None = None
) -> PanelValue:
    """One panel cell under the single degeneracy policy: a zero variance
    or too few points for the bins gives an invalid cell carrying the error
    text, a constant Y or X gives 0.5 (uncorrelated) with a note, and any
    other error, such as a bad bin count, propagates as a config error."""
    try:
        return PanelValue(float(_COEFFICIENTS[name](s, b, split)))
    except (DegenerateVariance, TooFewPoints) as exc:
        return PanelValue(float("nan"), valid=False, note=str(exc))
    except AllTied:
        return PanelValue(0.5, note="Y constant: uncorrelated")
    except ConstantX:
        return PanelValue(0.5, note="X constant: uncorrelated")


def compute_panel(
    s: PairedSample,
    b: int = DEFAULT_BINS,
    split: SplitPlan | None = None,
) -> CoefficientPanel:
    """All six coefficients for one pair, degeneracies flagged not raised.

    Every cell follows :func:`coefficient`; everything is computed on the
    full data except omega, which uses the split protocol when one is
    configured.
    """
    return CoefficientPanel(
        **{name: coefficient(name, s, b, split) for name in CoefficientPanel.COLUMNS}
    )


def run_panel(cfg: ExperimentConfig) -> PanelReport:
    """Load the input table and produce one panel row per pair.

    Row order is independents outer, dependents inner, matching the
    comparison-table convention. Config problems (missing columns, bad
    sizes) raise; per-pair degeneracies are recorded in the rows.
    """
    columns = read_columns(cfg.input, columns=(*cfg.independents, *cfg.dependents))
    for name in (*cfg.independents, *cfg.dependents):
        if name not in columns:
            raise InvalidParams(f"column {name!r} not present in {cfg.input}")
    rows = []
    for independent in cfg.independents:
        for dependent in cfg.dependents:
            pair = PairedSample(columns[independent], columns[dependent])
            panel = compute_panel(pair, b=cfg.b, split=cfg.split)
            rows.append(PanelRow(independent, dependent, panel))
    seed = cfg.split.seed.seed if cfg.split else None
    iterations = cfg.split.iterations if cfg.split else None
    return PanelReport(rows=tuple(rows), seed=seed, iterations=iterations)


# ---------------------------------------------------------------------------
# serialization


def _cell(pv: PanelValue) -> str:
    return repr(pv.value) if pv.valid else ""


def _notes(panel: CoefficientPanel) -> str:
    parts = []
    for name, pv in panel.as_dict().items():
        if pv.note:
            parts.append(f"{name}:{pv.note}")
        elif not pv.valid:
            parts.append(f"{name}:invalid")
    return "; ".join(parts)


def render_report(report: PanelReport, format: str = "csv") -> bytes:
    """Serialize a report; byte-identical for identical reports.

    csv: fixed header, one row per pair, invalid coefficients as empty
    cells, machine-readable notes in the last column. json: the documented
    v1 schema with per-coefficient value/valid/note objects.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for row in report.rows:
            panel = row.panel.as_dict()
            writer.writerow(
                [row.independent, row.dependent]
                + [_cell(panel[name]) for name in CoefficientPanel.COLUMNS]
                + [_notes(row.panel)]
            )
        return buf.getvalue().encode("utf-8")
    if format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "seed": report.seed,
            "iterations": report.iterations,
            "rows": [
                {
                    "independent": row.independent,
                    "dependent": row.dependent,
                    "coefficients": {
                        name: {
                            "value": pv.value if pv.valid else None,
                            "valid": pv.valid,
                            "note": pv.note,
                        }
                        for name, pv in row.panel.as_dict().items()
                    },
                }
                for row in report.rows
            ],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise InvalidParams(f"unknown report format {format!r}")


def _parse_notes(notes: str) -> dict[str, str]:
    parsed: dict[str, str] = {}
    for chunk in notes.split("; "):
        if ":" in chunk:
            name, note = chunk.split(":", 1)
            parsed[name] = note
    return parsed


def parse_report(data: bytes, format: str = "csv") -> PanelReport:
    """Inverse of :func:`render_report` (metadata defaults where the
    format does not carry it)."""
    text = data.decode("utf-8")
    if format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or tuple(header) != _CSV_HEADER:
            raise CorrkitError(f"unexpected csv header: {header!r}")
        rows = []
        for record in reader:
            independent, dependent, *cells, notes_cell = record
            notes = _parse_notes(notes_cell)
            values = {}
            for name, cell in zip(CoefficientPanel.COLUMNS, cells):
                if cell == "":
                    values[name] = PanelValue(
                        float("nan"), valid=False, note=notes.get(name, "invalid")
                    )
                else:
                    values[name] = PanelValue(float(cell), note=notes.get(name, ""))
            rows.append(PanelRow(independent, dependent, CoefficientPanel(**values)))
        return PanelReport(rows=tuple(rows))
    if format == "json":
        payload = json.loads(text)
        if payload.get("schema") != SCHEMA_VERSION:
            raise CorrkitError(f"unsupported schema {payload.get('schema')!r}")
        rows = []
        for row in payload["rows"]:
            values = {
                name: PanelValue(
                    float("nan") if entry["value"] is None else float(entry["value"]),
                    valid=bool(entry["valid"]),
                    note=entry.get("note", ""),
                )
                for name, entry in row["coefficients"].items()
            }
            rows.append(PanelRow(row["independent"], row["dependent"], CoefficientPanel(**values)))
        return PanelReport(
            rows=tuple(rows),
            seed=payload.get("seed"),
            iterations=payload.get("iterations"),
        )
    raise InvalidParams(f"unknown report format {format!r}")
