"""Batch experiment runner: one coefficient panel per variable pair,
optionally with the repeated train/eval protocol for omega, rendered as
deterministic csv or json reports.

Report layout mirrors the classic comparison table: one row per
(independent, dependent) pair, the six coefficients as columns in the
fixed order r, rho, tau, kappa, ncc, omega. Degenerate pairs land in the
report with validity flags instead of aborting the batch. Stored values
are always signed; any absolute-value view is a rendering concern.

A report is computed per table, one coefficient after another: the
registry maps each coefficient to its table function, which builds each
column's statistics once and then every pair's cell; the first that
needs a sort pass sorts every column of the table in one call (see
:class:`~corrkit.core.Table`). omega's, :func:`~corrkit.gcorr.omega_table`,
runs the split estimator for all pairs in one pass over the plan's
iterations, or each pair's full-data fit, ``fit_g``'s on the table's
columns. ``compute_panel`` and ``coefficient`` are the 1x1 case: they
pass the sample, a 1x1 table, to the same table functions.

Rendered bytes contain no timestamps, so a fixed seed and config always
produce bit-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .classic import fechner_table, kendall_table, pearson_table, spearman_table
from .core import (CoefficientPanel, PairedSample, PanelValue, RngSeed, Table, as_int, as_iterations, as_names,
                   read_columns)
from .errors import (
    AllTied,
    ConstantX,
    CorrkitError,
    DegenerateVariance,
    InvalidParams,
    ParseError,
    TooFewPoints,
)
from .gcorr import SplitPlan, omega_table
from .ncc import DEFAULT_BINS, ncc_table

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
    """The input table, the independent and the dependent column names
    (each a non-empty collection, not one string), omega's plan (a
    :class:`~corrkit.gcorr.SplitPlan` or None), ncc's bins (an integer
    >= 2), all checked here, before anything is read."""

    input: str | Path
    independents: tuple[str, ...]
    dependents: tuple[str, ...]
    split: SplitPlan | None = None
    b: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        for role in ("independents", "dependents"):
            object.__setattr__(self, role, as_names(getattr(self, role), role))
        if not self.independents or not self.dependents:
            raise InvalidParams("need at least one independent and one dependent column")
        if self.split is not None and not isinstance(self.split, SplitPlan):
            raise InvalidParams(f"split must be a SplitPlan or None, got {self.split!r}")
        object.__setattr__(self, "b", as_int(self.b, "bin count", 2))


@dataclass(frozen=True)
class PanelRow:
    independent: str
    dependent: str
    panel: CoefficientPanel


# a report's metadata: the check of each entry, which returns it as an int
_METADATA = {"seed": lambda v: RngSeed(v).seed, "iterations": as_iterations}


@dataclass(frozen=True)
class PanelReport:
    """The rows of a report, and the seed and iterations of its split
    plan: each None or an integer a plan takes, stored as an int."""

    rows: tuple[PanelRow, ...]
    seed: int | None = None
    iterations: int | None = None

    def __post_init__(self) -> None:
        for key, check in _METADATA.items():
            value = getattr(self, key)
            object.__setattr__(self, key, None if value is None else check(value))


# each coefficient's table function: (table, b, split) -> one cell per
# pair, a float or the error that makes it degenerate (see _panel_value)
_COEFFICIENTS = {
    "r": pearson_table,
    "rho": spearman_table,
    "tau": kendall_table,
    "kappa": fechner_table,
    "ncc": ncc_table,
    "omega": omega_table,
}


def _panel_value(cell) -> PanelValue:
    """The single degeneracy policy: a zero variance or too few points for
    the bins gives an invalid cell carrying the error text, a constant Y
    or X gives 0.5 (uncorrelated) with a note."""
    if isinstance(cell, (DegenerateVariance, TooFewPoints)):
        return PanelValue(float("nan"), valid=False, note=str(cell))
    if isinstance(cell, AllTied):
        return PanelValue(0.5, note="Y constant: uncorrelated")
    if isinstance(cell, ConstantX):
        return PanelValue(0.5, note="X constant: uncorrelated")
    return PanelValue(float(cell))


def coefficient(
    name: str, s: PairedSample, b: int = DEFAULT_BINS, split: SplitPlan | None = None
) -> PanelValue:
    """One panel cell under the single degeneracy policy (see
    :func:`_panel_value`); any other error, such as a bad bin count,
    propagates as a config error."""
    (cell,) = _COEFFICIENTS[name](s, b, split)
    return _panel_value(cell)


def _panels(table: Table, b: int, split: SplitPlan | None) -> list[CoefficientPanel]:
    """One panel per pair of the table, computed one coefficient at a time
    over all pairs."""
    columns = {
        name: [_panel_value(cell) for cell in _COEFFICIENTS[name](table, b, split)]
        for name in CoefficientPanel.COLUMNS
    }
    return [
        CoefficientPanel(**{name: cells[p] for name, cells in columns.items()})
        for p in range(len(table.pairs))
    ]


def compute_panel(
    s: PairedSample,
    b: int = DEFAULT_BINS,
    split: SplitPlan | None = None,
) -> CoefficientPanel:
    """All six coefficients for one pair, degeneracies flagged not raised.

    The 1x1 case of a table: every cell follows :func:`coefficient`;
    everything is computed on the full data except omega, which uses the
    split protocol when one is configured.
    """
    return _panels(s, b, split)[0]


def run_panel(cfg: ExperimentConfig) -> PanelReport:
    """Load the input table and produce one panel row per pair.

    Rows run independents outer, dependents inner, as in the comparison
    table; a repeated pair is computed once. Config problems (missing
    columns, bad sizes) raise; per-pair degeneracies are recorded in rows.
    """
    columns = read_columns(cfg.input, columns=(*cfg.independents, *cfg.dependents))
    for name in (*cfg.independents, *cfg.dependents):
        if name not in columns:
            raise InvalidParams(f"column {name!r} not present in {cfg.input}")
    names = list(columns)
    pairs = dict.fromkeys((x, y) for x in cfg.independents for y in cfg.dependents)
    table = Table(columns.values(), [(names.index(x), names.index(y)) for x, y in pairs])
    panels = dict(zip(pairs, _panels(table, cfg.b, cfg.split)))
    rows = [PanelRow(x, y, panels[x, y]) for x in cfg.independents for y in cfg.dependents]
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
    # a note may hold "; " itself, so a "name:note" part starts only where
    # a coefficient's name and ":" follow the "; " that joins the parts
    parts = re.split(f"; (?=(?:{'|'.join(CoefficientPanel.COLUMNS)}):)", notes)
    return dict(part.split(":", 1) for part in parts if ":" in part)


def _parsed_value(raw, row: int, name: str) -> float:
    """A stored coefficient value as a float, or a ParseError naming its
    row and coefficient."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(row, name, f"not a number: {raw!r}") from None


def _csv_rows(text: str) -> list[PanelRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != _CSV_HEADER:
        raise CorrkitError(f"unexpected csv header: {header!r}")
    rows = []
    for i, record in enumerate(reader, start=1):
        if len(record) != len(_CSV_HEADER):
            raise ParseError(i, "", f"expected {len(_CSV_HEADER)} cells, got {len(record)}")
        independent, dependent, *cells, notes_cell = record
        notes = _parse_notes(notes_cell)
        values = {}
        for name, cell in zip(CoefficientPanel.COLUMNS, cells):
            if cell == "":
                values[name] = PanelValue(float("nan"), valid=False, note=notes.get(name, "invalid"))
            else:
                values[name] = PanelValue(_parsed_value(cell, i, name), note=notes.get(name, ""))
        rows.append(PanelRow(independent, dependent, CoefficientPanel(**values)))
    return rows


def _json_row(row, i: int) -> PanelRow:
    if not isinstance(row, dict) or not isinstance(row.get("coefficients"), dict):
        raise ParseError(i, "", "row is not an object with a coefficients object")
    for key in ("independent", "dependent"):
        if not isinstance(row.get(key), str):
            raise ParseError(i, key, "missing or not a string")
    coefficients = row["coefficients"]
    if set(coefficients) != set(CoefficientPanel.COLUMNS):
        raise ParseError(i, "", f"coefficients must be {', '.join(CoefficientPanel.COLUMNS)}")
    values = {}
    for name in CoefficientPanel.COLUMNS:
        entry = coefficients[name]
        if not isinstance(entry, dict) or "value" not in entry or "valid" not in entry:
            raise ParseError(i, name, "entry needs a value and a valid flag")
        valid, note = entry["valid"], entry.get("note", "")
        if not isinstance(valid, bool):
            raise ParseError(i, name, f"valid flag is not a boolean: {valid!r}")
        if valid and entry["value"] is None:
            raise ParseError(i, name, "valid entry without a value")
        if not isinstance(note, str):
            raise ParseError(i, name, f"note is not a string: {note!r}")
        value = float("nan") if entry["value"] is None else _parsed_value(entry["value"], i, name)
        values[name] = PanelValue(value, valid=valid, note=note)
    return PanelRow(row["independent"], row["dependent"], CoefficientPanel(**values))


def parse_report(data: bytes, format: str = "csv") -> PanelReport:
    """Inverse of :func:`render_report` (metadata defaults where the
    format does not carry it).

    A malformed report raises a :class:`CorrkitError`: a ``ParseError``
    with the 1-based data row for a csv row without exactly one cell per
    column or with a non-numeric value, and for a json row that lacks a
    name, a coefficient, a value or a valid flag, whose valid flag is not
    a boolean, whose valid entry has a null value or whose note is not a
    string; row 0 where the bytes are not UTF-8, the json is not an
    object with a list of ``rows``, or its ``seed`` or ``iterations`` is
    neither null nor an integer a seed or plan takes; a plain
    ``CorrkitError`` for a wrong csv header or json schema.
    """
    if format not in ("csv", "json"):
        raise InvalidParams(f"unknown report format {format!r}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(0, "", f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    if format == "csv":
        try:
            return PanelReport(rows=tuple(_csv_rows(text)))
        except csv.Error as exc:
            raise ParseError(0, "", str(exc)) from None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ParseError(0, "", f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(0, "", "report is not a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise CorrkitError(f"unsupported schema {payload.get('schema')!r}")
    if not isinstance(payload.get("rows"), list):
        raise ParseError(0, "rows", "missing or not a list")
    metadata = {key: payload.get(key) for key in _METADATA}
    for key, value in metadata.items():
        try:  # one entry at a time, so that the error names it
            PanelReport((), **{key: value})
        except InvalidParams as exc:
            raise ParseError(0, key, str(exc)) from None
    return PanelReport(
        rows=tuple(_json_row(row, i) for i, row in enumerate(payload["rows"], start=1)),
        **metadata,
    )
