"""Sample containers, file ingestion, and the basic statistics every
other module leans on.

The containers hold read-only float64 copies of the caller's arrays,
so they can be shared freely across threads. Randomness throughout the
package flows through :class:`RngSeed` into ``numpy.random.default_rng``
(PCG64 seeded via ``SeedSequence``), which is portable and documented:
the same seed yields the same stream on every platform.

:meth:`RngSeed.permutations`, which draws the split estimator's
partitions one block of iterations at a time, derives the
``SeedSequence([seed, i])`` -> PCG64 state of every iteration i of the
block in one vectorised pass, equal to ``rng(i)``'s bit for bit, and
lets one generator shuffle each row. It relies on NEP 19, under which
``SeedSequence`` and PCG64 seeding are stable across numpy versions; the
shuffle itself stays numpy's.

A :class:`Table` holds the columns of one panel and the (x, y) column
pairs to correlate, its columns the rows of one (columns, n) matrix.
The coefficient engines take a table: each builds a per-column
statistic for all columns at once, as one array operation along the
matrix's rows, then computes every pair from them. The first engine
that needs a sort pass sorts every column of the table in one
:func:`stable_order` call; its block (orders and run ids, row k column
k's) is kept with the table as ``Table.sorted_all()``, and rho, tau,
ncc, omega and Fechner's trace read its rows. A :class:`PairedSample` is
the 1x1 table, x column 0 and y column 1, so a sample's coefficients are
the same engines' one cell.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CorrkitError,
    EmptyInput,
    InvalidParams,
    NonFiniteValue,
    ParseError,
    ShortSample,
)

__all__ = [
    "RngSeed",
    "PairedSample",
    "MultiSample",
    "PanelValue",
    "CoefficientPanel",
    "load_paired",
    "save_paired",
    "read_columns",
    "Table",
    "SortedColumn",
    "stable_order",
    "sample_mean",
    "sample_median",
]


def as_int(value, what: str, lo: int, hi: int | None = None, rule: str | None = None) -> int:
    """``value``, an int or numpy integer but no bool, in [lo, hi) (hi None:
    no bound) as an int; else InvalidParams: "{what} must be an integer" or
    "{what} must {rule}", rule defaulting to that range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParams(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if value < lo or (hi is not None and value >= hi):
        rule = rule or (f"be an integer >= {lo}" if hi is None else f"be an integer in [{lo}, {hi})")
        raise InvalidParams(f"{what} must {rule}, got {value}")
    return value


def as_names(names, what: str) -> tuple[str, ...]:
    """``names``, a collection of column names and not one string, as a tuple."""
    if isinstance(names, str) or not isinstance(names, Iterable):
        raise InvalidParams(f"{what} must be a collection of column names, got {names!r}")
    return tuple(names)


def _real(v) -> np.ndarray:
    """``v`` as a float64 array, ``v`` itself where it is one; values that
    are not real numbers, complex ones included, raise InvalidParams."""
    try:
        if getattr(getattr(v, "dtype", None), "kind", "") == "c":
            raise TypeError("complex values")
        return np.asarray(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"expected real numbers: {exc}") from None


def _freeze(a) -> np.ndarray:
    """A read-only float64 copy of ``a``, at least 1-D: the caller's array
    stays writeable, and no view of it can change the copy."""
    a = np.array(_real(a), order="C", ndmin=1)
    a.flags.writeable = False
    return a


def _check_finite(a: np.ndarray, what: str) -> None:
    if a.size and not np.all(np.isfinite(a)):
        # the first row (index along axis 0) that holds a non-finite value
        finite_rows = np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
        raise NonFiniteValue(int(np.argmin(finite_rows)) + 1, f"{what} contains a non-finite value")


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed, stored as an int; identical seeds produce identical streams."""

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_int(self.seed, "seed", 0, 2**64, "fit in 64 unsigned bits"))

    def rng(self, *stream: int) -> np.random.Generator:
        """Generator for this seed, optionally forked by stream tags.

        ``RngSeed(s).rng(i)`` and ``RngSeed(s).rng(j)`` are independent
        deterministic streams for i != j, which is how per-iteration
        randomness stays reproducible regardless of execution order.
        """
        return np.random.default_rng([self.seed, *stream])

    def permutations(self, count: int, n: int, start: int = 0) -> np.ndarray:
        """(count, n) matrix whose row k is ``self.rng(start + k).permutation(n)``,
        bit for bit and in its dtype, for rows start .. start + count <= 2**32.

        Every row's PCG64 state comes from :func:`_pcg64_states`; one
        generator takes each state in turn and shuffles ``arange(n)``.
        """
        if not (0 <= start and 0 <= count and start + count <= 2**32):
            raise InvalidParams(f"rows {start} .. {start} + {count} must lie in [0, 2**32]")
        gen = self.rng(0)
        bitgen = gen.bit_generator
        out = np.tile(np.arange(n), (count, 1))
        for row, (state, inc) in zip(out, _pcg64_states(self.seed, count, start)):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.shuffle(row)
        return out


# numpy's published SeedSequence and PCG64 constants (NEP 19 keeps both
# seeding algorithms stable across numpy versions)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hash_consts(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's running hash constant: the (xor, multiply) pair of
    each successive hash step, init * mult**k and init * mult**(k + 1)."""
    consts = itertools.accumulate(itertools.repeat(mult), lambda c, m: c * m & _MASK32, initial=init)
    return itertools.pairwise(consts)


def _hash(v: np.ndarray, consts: Iterator[tuple[int, int]]) -> np.ndarray:
    xor, mul = next(consts)
    v = (v ^ np.uint32(xor)) * np.uint32(mul)
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return v ^ v >> 16


def _pcg64_states(seed: int, count: int, start: int) -> Iterator[tuple[int, int]]:
    """The (state, inc) of ``default_rng([seed, i])``'s PCG64 for every
    i in start .. start + count <= 2**32.

    ``SeedSequence([seed, i])`` hashes the 32-bit words of seed, then i,
    into a pool of four words and draws ``generate_state(4, uint64)``
    from it. The hash constants do not depend on the data, so each step
    is one uint32 array operation over all i at once. PCG64 then seeds
    its 128-bit LCG from those four words.
    """
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    # each row's iteration; the range ends at 2**32 at most, past uint32
    index = np.arange(start, start + count, dtype=np.uint64).astype(np.uint32)
    entropy = [np.full(count, w, np.uint32) for w in words] + [index]
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(e, consts) for e in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    # eight 32-bit words, read pairwise little-endian as four 64-bit ones
    state = [_hash(pool[k % 4], consts).astype(np.uint64) for k in range(8)]
    w0, w1, w2, w3 = ((state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
    for a, b, c, d in zip(w0, w1, w2, w3):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        yield ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc


def as_seed(seed: "RngSeed | int") -> RngSeed:
    return seed if isinstance(seed, RngSeed) else RngSeed(seed)


def as_iterations(value) -> int:
    """A count of iterations: :meth:`RngSeed.permutations` tags each with 32 bits."""
    return as_int(value, "iterations", 1, 2**32, "be in [1, 2**32)")


class Table:
    """Columns of one table, as :func:`read_columns` returns them, and
    the (x column, y column) index pairs whose coefficients are wanted.

    The columns are copied into one frozen (columns, n) float64 matrix,
    ``values``, whose rows are ``columns[k]``, and checked once here: at
    least one, one-dimensional, real, finite, of equal length and at
    least 2 rows long; each pair is two :func:`as_int` indices in
    ``range(len(columns))``. ``sorted_all()`` is every column's
    :func:`stable_order` pass, orders and run ids, as one block whose row
    k is column k's. The first call sorts the whole matrix in one call and
    the table keeps the block, so each column is sorted once however many
    pairs share it.
    """

    def __init__(self, columns: Iterable[np.ndarray], pairs: Iterable[tuple[int, int]]):
        columns = [np.atleast_1d(_real(c)) for c in columns]
        if not columns:
            raise InvalidParams("a table needs at least one column")
        if any(c.ndim != 1 for c in columns):
            raise InvalidParams("columns must be one-dimensional")
        lengths = sorted({c.shape[0] for c in columns})
        if len(lengths) > 1:
            raise InvalidParams(f"length mismatch: columns of {lengths} rows")
        end = len(columns)
        try:
            pairs = tuple([(as_int(i, "pair index", 0, end), as_int(j, "pair index", 0, end)) for i, j in pairs])
        except (TypeError, ValueError):
            raise InvalidParams("each pair must be two column indices") from None
        values = np.array(columns)
        values.flags.writeable = False
        # through the instance dict, so that the frozen PairedSample can call this
        vars(self).update(values=values, columns=tuple(values), pairs=pairs)
        if self.n < 2:
            raise ShortSample(f"need at least 2 points, got {self.n}")
        try:
            _check_finite(values, "a column")
        except NonFiniteValue as exc:
            k = exc.row - 1  # the matrix's rows are the columns
            _check_finite(self.columns[k], f"column {k}")

    @property
    def n(self) -> int:
        return self.columns[0].shape[0]

    @functools.cached_property
    def _sort_pass(self) -> "SortedColumn":
        return stable_order(self.values)

    def sorted_all(self) -> "SortedColumn":
        """Every column's sort pass, from one :func:`stable_order` call on
        the matrix: row k is column k's."""
        return self._sort_pass

    def stacked(self, stats: np.ndarray, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the per-column ``stats`` (one row per column) of the
        x and of the y column of each pair in ``block``, as two arrays of
        one row per pair."""
        i, j = np.array(self.pairs[block], dtype=np.intp).reshape(-1, 2).T
        return stats[i], stats[j]


@dataclass(frozen=True, eq=False)
class PairedSample(Table):
    """n paired observations (x_i, y_i); the universal input, and the 1x1
    :class:`Table` whose one pair is (xs, ys), columns 0 and 1.

    Construction copies and checks both columns as a table does: equal
    lengths, n >= 2, every value real and finite. Every coefficient shares
    the one sort pass of ``sorted_all()``; ``x_order`` and ``y_order`` are
    its rows 0 and 1 of the order.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        super().__init__((self.xs, self.ys), ((0, 1),))
        vars(self).update(xs=self.columns[0], ys=self.columns[1])

    @property
    def x_order(self) -> np.ndarray:
        return self.sorted_all().order[0]

    @property
    def y_order(self) -> np.ndarray:
        return self.sorted_all().order[1]

    def swapped(self) -> "PairedSample":
        """The same observations with the roles of x and y exchanged, as a
        new sample that is checked and sorted on its own."""
        return PairedSample(self.ys, self.xs)


def single_cell(table_function, s: PairedSample, *params):
    """``table_function`` on the sample, a 1x1 table: the value of its one
    cell, or the error that cell holds, raised."""
    (cell,) = table_function(s, *params)
    if isinstance(cell, CorrkitError):
        raise cell
    return cell


# cells per block of stacked rows computed at once: bounds the temporaries
# of the split estimator and the coefficient engines to a few MB
BLOCK_CELLS = 1 << 16


def int_for(bound: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -bound .. bound."""
    return np.min_scalar_type(-bound - 1)


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows, each block at most
    BLOCK_CELLS // width rows (at least one)."""
    step = max(1, BLOCK_CELLS // width)
    return (slice(start, start + step) for start in range(0, rows, step))


@dataclass(frozen=True, eq=False)
class MultiSample:
    """n observations of M features paired with a scalar response."""

    x_rows: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        rows, ys = np.atleast_2d(_freeze(self.x_rows)), _freeze(self.ys)
        if rows.ndim != 2:
            raise InvalidParams("x_rows must be a 2-D array of shape (n, M)")
        if rows.shape[0] != ys.shape[0]:
            raise InvalidParams(
                f"length mismatch: {rows.shape[0]} rows vs {ys.shape[0]} ys"
            )
        if rows.shape[0] < 2:
            raise ShortSample(f"need at least 2 rows, got {rows.shape[0]}")
        if rows.shape[1] < 1:
            raise InvalidParams("need at least one feature column")
        _check_finite(rows, "x_rows")
        _check_finite(ys, "ys")
        object.__setattr__(self, "x_rows", rows)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.x_rows.shape[0]

    @property
    def m(self) -> int:
        return self.x_rows.shape[1]


@dataclass(frozen=True)
class PanelValue:
    """One coefficient paired with its validity flag and optional note."""

    value: float
    valid: bool = True
    note: str = ""


@dataclass(frozen=True)
class CoefficientPanel:
    """The six coefficients for one variable pair."""

    r: PanelValue
    rho: PanelValue
    tau: PanelValue
    kappa: PanelValue
    ncc: PanelValue
    omega: PanelValue

    COLUMNS = ("r", "rho", "tau", "kappa", "ncc", "omega")

    def as_dict(self) -> dict[str, PanelValue]:
        return {name: getattr(self, name) for name in self.COLUMNS}


# ---------------------------------------------------------------------------
# ingestion


def _infer_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in ("csv", "jsonl"):
            raise InvalidParams(f"unknown format {format!r} (expected csv or jsonl)")
        return format
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    raise InvalidParams(f"cannot infer format from {path.name!r}; pass format=")


def _requested(names: list[str], columns: tuple[str, ...] | None) -> list[str]:
    """The entries of ``names`` that ``columns`` asks for (all of them when
    it is None), in file order; a requested name may appear only once."""
    keep = set(names if columns is None else columns)
    wanted: list[str] = []
    for name in names:
        if name in keep:
            if name in wanted:
                raise ParseError(0, name, "duplicate column name")
            wanted.append(name)
    return wanted


def _parse_cell(raw: object, row: int, column: str) -> float:
    if isinstance(raw, bool) or raw is None:
        raise ParseError(row, column, f"not a number: {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(row, column, f"not a number: {raw!r}") from None
    except OverflowError:
        raise NonFiniteValue(row, f"column {column!r} is an integer beyond float range") from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, f"column {column!r} is {raw!r}")
    return value


def _read_cells(path: Path, fmt: str, columns: tuple[str, ...] | None) -> dict[str, np.ndarray]:
    """The per-cell reader: parses each requested cell on its own, so the
    first bad one raises with its 1-based data row, column and text.

    It defines what :func:`read_columns` accepts: the bulk path either
    returns exactly its arrays or hands the file over to it.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        if fmt == "csv":
            reader = csv.DictReader(handle)
            names, i = None, 0
            try:
                names = reader.fieldnames
                if not names:
                    raise ParseError(0, "", "missing header row")
                values: dict[str, list[float]] = {name: [] for name in _requested(names, columns)}
                for i, record in enumerate(reader, start=1):
                    for name in values:
                        raw = record.get(name)
                        if raw is None or raw == "":
                            raise ParseError(i, name, "missing value")
                        values[name].append(_parse_cell(raw, i, name))
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                raise ParseError(0 if names is None else i + 1, "", str(exc)) from None
        else:
            names, values = [], {}
            for i, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or int() refusing a literal
                    detail = getattr(exc, "msg", "integer literal too long")
                    raise ParseError(i, "", f"invalid JSON: {detail}") from None
                if not isinstance(record, Mapping):
                    raise ParseError(i, "", "record is not an object")
                if not names:
                    names = list(record)
                    values = {name: [] for name in _requested(names, columns)}
                for name in values:
                    if name not in record:
                        raise ParseError(i, name, "missing key")
                    values[name].append(_parse_cell(record[name], i, name))
    return {name: np.asarray(vals, dtype=np.float64) for name, vals in values.items()}


def _cells_at(rows: Iterable, keys: list) -> list[list]:
    """The cells at ``keys`` of every row, one list per key, in one pass."""
    if not keys:
        for _ in rows:  # still read every row, so a bad record fails here too
            pass
        return []
    get = operator.itemgetter(*keys)
    if len(keys) == 1:
        return [list(map(get, rows))]
    # one flat list of the picked cells, row after row, then a stride per key
    flat = list(itertools.chain.from_iterable(map(get, rows)))
    return [flat[k :: len(keys)] for k in range(len(keys))]


def _json_objects(handle) -> Iterator[dict]:
    """The object on each non-blank line. Each line is checked as JSON in
    full, integer literals included, but float literals stay text: only
    the requested ones reach ``_floats``, and ``float()`` gives them the
    bits ``json.loads`` would."""
    decode = json.JSONDecoder(parse_float=str).raw_decode
    for line in handle:
        text = line.strip(" \t\n\r")  # JSON whitespace, as json.loads skips
        try:
            record, end = decode(text)
        except ValueError:
            if line.strip():  # not blank under str.strip(), as _read_cells skips
                raise
            continue
        if end != len(text):
            raise ValueError("extra data after the record")
        if type(record) is not dict:
            raise TypeError("record is not an object")
        yield record


def _jsonl_columns(handle, columns: tuple[str, ...] | None) -> dict[str, np.ndarray]:
    """The requested columns of a jsonl file, named by its first non-empty
    record and converted one block of (BLOCK_CELLS / 8) // len(wanted)
    records at a time, so it holds one block's cell strings, about 1 MB,
    besides the float arrays. With no column wanted, one block reads
    every record."""
    records = _json_objects(handle)
    # records before the first non-empty one name no columns
    first = next(filter(None, records), {})
    wanted = _requested(list(first), columns)
    records = itertools.chain([first], records)
    step = max(1, (BLOCK_CELLS >> 3) // len(wanted)) if wanted else None
    blocks = iter(lambda: _cells_at(itertools.islice(records, step), wanted), [[] for _ in wanted])
    parts = zip(*([_floats(cells) for cells in block] for block in blocks))
    return {name: np.concatenate(part) for name, part in zip(wanted, parts)}


def _floats(cells: list) -> np.ndarray:
    """float() of every cell in one pass; raises wherever the per-cell
    reader would (a bool, a cell float() rejects, a non-finite value).

    A jsonl float literal arrives here as its text, so this is the one
    place it is converted: a requested column's cells, a block at a time.
    """
    if bool in set(map(type, cells)):
        raise TypeError("bool cell")
    values = np.fromiter(map(float, cells), np.float64, len(cells))
    if not np.isfinite(values).all():
        raise ValueError("non-finite cell")
    return values


def _check_csv_fields(path: Path) -> None:
    """Raise csv.Error where csv.reader would and np.loadtxt would not: at
    a field longer than csv.field_size_limit(), or at a NUL character,
    which csv.reader refuses before Python 3.11.

    A field over the limit lies on a line over it, or is quoted across
    lines, so csv.reader reads the file only when it holds a quote, a NUL
    or a line over the limit. The scans stream the file in blocks and in
    lines and never hold all of it.
    """
    with open(path, "rb") as raw:
        blocks = iter(functools.partial(raw.read, 1 << 16), b"")
        suspect = any(b'"' in block or b"\0" in block for block in blocks)
        limit = csv.field_size_limit()
        if not suspect and raw.tell() > limit:  # a shorter file has no line over it
            raw.seek(0)
            suspect = max(map(len, raw)) > limit
    if suspect:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            for _ in csv.reader(handle):
                pass


def _csv_columns(path: Path, columns: tuple[str, ...] | None) -> dict[str, np.ndarray]:
    """The requested csv columns, parsed by numpy's C reader; raises
    wherever the per-cell reader might give another result."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        names = next(reader, None)
        header_lines = reader.line_num  # physical lines: a quoted name may span two
        # blank rows hold no data, as csv.DictReader skips them; a file
        # without data goes no further, since np.loadtxt would warn
        empty = next(filter(None, reader), None) is None
    if not names:
        raise ParseError(0, "", "missing header row")
    wanted = _requested(names, columns)
    if empty:
        return {name: np.empty(0) for name in wanted}
    _check_csv_fields(path)
    if not wanted:
        return {}
    read = functools.partial(
        np.loadtxt,
        path,
        dtype=np.float64,
        delimiter=",",
        skiprows=header_lines,
        usecols=[names.index(name) for name in wanted],
        encoding="utf-8-sig",
        quotechar='"',
        comments=None,
        ndmin=2,
    )
    try:
        table = read()
    except ValueError:
        # loadtxt refuses some cells float() takes, such as 1_000 and
        # full-width digits; through float() it reads those too
        table = read(converters=float)
    if not np.isfinite(table).all():
        raise ValueError("non-finite cell")
    return {name: table[:, k].copy() for k, name in enumerate(wanted)}


def read_columns(
    path: str | Path,
    format: str | None = None,
    columns: Iterable[str] | None = None,
) -> dict[str, np.ndarray]:
    """Read named float columns from a csv/jsonl table, in file order.

    ``columns`` names the columns to read (default: all of them; see
    :func:`as_names`); a requested name the file lacks is left out of the
    result, and cells of columns not requested are never converted to
    numbers. A jsonl line is still checked as JSON in full, so an integer
    literal longer than ``int()`` accepts fails its line whichever column
    holds it. Every requested column must be present in every record and
    parse as a finite real; violations raise with the 1-based data row.

    A csv file's data rows go through one ``np.loadtxt`` call (numpy's C
    reader), made again with ``float()`` as converter where it refuses a
    cell; jsonl lines through one ``raw_decode`` each, their requested
    cells converted a block of records at a time. Either path returns
    exactly what :func:`_read_cells`, the per-cell reader, returns, or
    hands the file over to it, and it raises the error.
    """
    path = Path(path)
    fmt = _infer_format(path, format)
    columns = None if columns is None else as_names(columns, "columns")
    try:
        if fmt == "csv":
            return _csv_columns(path, columns)
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            return _jsonl_columns(handle, columns)
    except (ParseError, ValueError, TypeError, LookupError, OverflowError, csv.Error):
        # a bad header, cell or record, a short row or a missing key: the
        # per-cell reader raises it with its row, column and text
        return _read_cells(path, fmt, columns)


def load_paired(
    path: str | Path,
    format: str | None = None,
    x_col: str = "x",
    y_col: str = "y",
) -> PairedSample:
    """Load one (x, y) pair of columns from a csv or jsonl file.

    The csv dialect is fixed: comma separator, first-row header, '.'
    decimal point. Row order is preserved; non-finite values are hard
    errors rather than being dropped.
    """
    columns = read_columns(path, format, columns=(x_col, y_col))
    for col in (x_col, y_col):
        if col not in columns:
            raise ParseError(0, col, "column not present in file")
    return PairedSample(columns[x_col], columns[y_col])


def save_paired(
    sample: PairedSample,
    path: str | Path,
    x_col: str = "x",
    y_col: str = "y",
) -> None:
    """Write a sample as csv with round-trip-exact float formatting."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([x_col, y_col])
        for x, y in zip(sample.xs, sample.ys):
            writer.writerow([repr(float(x)), repr(float(y))])


# ---------------------------------------------------------------------------
# basic statistics


def as_vector(v: Iterable[float], check_finite: bool = True) -> np.ndarray:
    """``v`` as a float64 vector, not copied where it is one: a real value
    or a nonempty 1-D array of them, finite unless not ``check_finite``."""
    a = np.atleast_1d(_real(v))
    if a.ndim != 1:
        raise InvalidParams(f"expected a 1-D vector, got shape {a.shape}")
    if a.size == 0:
        raise EmptyInput("expected a nonempty vector")
    if check_finite:
        _check_finite(a, "vector")
    return a


def run_ids(sorted_v: np.ndarray) -> np.ndarray:
    """0-based index of the run of equal values that each element of a
    sorted vector belongs to, in each row of a block of them, in the
    narrowest integers that hold a row's size.

    Neighbours are compared, never subtracted, so values of opposite sign
    near float max cannot overflow, and -0.0 ties 0.0.
    """
    ids = np.zeros(sorted_v.shape, dtype=int_for(sorted_v.shape[-1]))
    np.add.accumulate(sorted_v[..., 1:] != sorted_v[..., :-1], axis=-1, dtype=ids.dtype, out=ids[..., 1:])
    return ids


@dataclass(frozen=True, eq=False)
class SortedColumn:
    """A column's one sort pass, read-only: its stable ``order``, the
    :func:`run_ids` of its sorted values, and whether no two values tie;
    or those of each row of a (rows, n) block, ``distinct`` one flag per row."""

    order: np.ndarray
    runs: np.ndarray
    distinct: np.ndarray

    def in_input_order(self, values: np.ndarray) -> np.ndarray:
        """``values``, one per sorted position (broadcast against the
        order), each placed at the input position that sorts there."""
        placed = np.empty(self.order.shape, dtype=values.dtype)
        per_row = values.ndim == placed.ndim == 2
        # row by row: numpy scatters through one index array faster than
        # through two, by about 1.5 times at 2 x 10^4 points
        for k, (row, order) in enumerate(zip(np.atleast_2d(placed), np.atleast_2d(self.order))):
            row[order] = values[k] if per_row else values
        return placed


def run_bounds(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each sorted position of each row of :func:`run_ids`, the first
    position of its run and one past the last (intp). Over the flat
    array, a run starts where the run id changes and at each row's start."""
    n = runs.shape[-1]
    new = np.ones(runs.shape, dtype=bool)
    np.not_equal(runs[..., 1:], runs[..., :-1], out=new[..., 1:])
    bounds = np.append(np.flatnonzero(new), new.size)
    sizes = bounds[1:] - bounds[:-1]
    row_start = bounds[:-1] // n * n  # of the row that holds each run
    return tuple(np.repeat(b - row_start, sizes).reshape(runs.shape) for b in (bounds[:-1], bounds[1:]))


def stable_order(v: np.ndarray) -> SortedColumn:
    """The :class:`SortedColumn` of v without NaN, a column or a (rows, n)
    block of them; its order is ``np.argsort(v, kind="stable")`` bit for
    bit: equal values keep input order.

    numpy's default sort is several times faster than its stable one on
    floats; it orders the values, which fixes the run ids, and one integer
    sort of run * n + index then puts each run of equal values in input
    order. Keys stay below n**2. A block takes one argsort, one run-id
    accumulation and one key sort, each along its rows.
    """
    order = np.argsort(v)
    n = order.shape[-1]
    runs = run_ids(np.take_along_axis(v, order, axis=-1))
    keys = np.multiply(runs, n, dtype=np.int64)
    keys += order
    keys.sort()
    keys %= n
    keys.flags.writeable = False
    runs.flags.writeable = False
    return SortedColumn(keys, runs, runs[..., -1] == n - 1)


def row_means(a: np.ndarray) -> np.ndarray:
    """Arithmetic mean of each row of ``a`` (of the whole vector when
    1-D), finite for any finite input.

    Where a row's plain mean overflows (or turns to NaN through inf -
    inf), it is the sum of row / n clamped to [min(row), max(row)], since
    the rounded sum can still step past float max; elsewhere it is
    ``np.mean``. A row with a non-finite value gets a non-finite mean.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.asarray(a.mean(axis=-1))
        wild = ~np.isfinite(means)
        if wild.any():
            rows = a[wild]
            means[wild] = np.clip(np.sum(rows / a.shape[-1], axis=-1), rows.min(axis=-1), rows.max(axis=-1))
    return means


def sample_mean(v: Iterable[float]) -> float:
    """Arithmetic mean of a nonempty vector, finite for any finite input
    (see :func:`row_means`). Only a non-finite mean can have a non-finite
    term, so only it looks for one."""
    a = as_vector(v, check_finite=False)
    m = float(row_means(a))
    if not math.isfinite(m):
        _check_finite(a, "vector")
    return m


def unit_scaled(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row of v (v itself when 1-D) times the power of two that
    brings its max|v| into [0.5, 1), into ``out`` where given; a row of
    zeros stays as it is.

    Scaling by a power of two is exact while values stay in the normal
    range, so Pearson's r keeps its bits; it keeps sums and products of
    squares from overflowing or underflowing at extreme magnitudes.
    """
    peak = np.maximum(v.max(axis=-1, keepdims=True), -v.min(axis=-1, keepdims=True))
    return np.ldexp(v, -np.frexp(peak)[1], out=out)


def halfway(lo, hi):
    """0.5*lo + 0.5*hi clamped to [lo, hi] (lo <= hi): it cannot overflow,
    and equals (lo + hi) / 2 wherever that is finite and normal."""
    return np.minimum(np.maximum(0.5 * lo + 0.5 * hi, lo), hi)


def row_medians(a: np.ndarray) -> np.ndarray:
    """Median of each row of ``a`` (of the whole vector when 1-D): the
    :func:`halfway` point of the two middle order statistics, which equals
    ``np.median`` wherever their mean is finite and normal; a zero median
    is +0.0. One select puts the upper one at n // 2 and no larger value
    before it, so the lower one is the largest of the first (n + 1) // 2
    (for odd n, which end at n // 2, the upper one itself)."""
    n = a.shape[-1]
    part = np.partition(a, n // 2, axis=-1)
    return halfway(part[..., : (n + 1) // 2].max(axis=-1), part[..., n // 2]) + 0.0


def sample_median(v: Iterable[float]) -> float:
    """Middle order statistic (odd n) or the mean of the two middle order
    statistics (even n) of a vector :func:`as_vector` takes; +0.0 if zero."""
    return float(row_medians(as_vector(v)))
