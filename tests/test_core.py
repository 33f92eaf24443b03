import csv
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrkit import (
    CorrkitError,
    EmptyInput,
    InvalidParams,
    NonFiniteValue,
    PairedSample,
    ParseError,
    RngSeed,
    ShortSample,
    load_paired,
    read_columns,
    sample_mean,
    sample_median,
    save_paired,
)
from corrkit import core
from corrkit.classic import fechner_predict, rank_with_average_ties, spearman, spearman_table
from corrkit.core import MultiSample, Table, halfway, row_medians
from corrkit.gcorr import SplitPlan, fit_g, g_predict
from corrkit.harness import ExperimentConfig, PanelReport, parse_report, render_report, run_panel
from corrkit.ncc import ncc
from corrkit.synth import FAMILY_DEFAULTS, FamilySpec, generate

from conftest import count_calls, count_stable_order, seeded_rng


class TestPairedSample:
    def test_basic_construction(self):
        s = PairedSample([1, 2], [3, 4])
        assert s.n == 2
        np.testing.assert_array_equal(s.xs, [1.0, 2.0])

    def test_arrays_are_read_only(self):
        s = PairedSample([1, 2], [3, 4])
        with pytest.raises(ValueError):
            s.xs[0] = 9.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidParams):
            PairedSample([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ShortSample):
            PairedSample([1], [2])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            PairedSample([1, float("nan")], [1, 2])
        with pytest.raises(NonFiniteValue):
            PairedSample([1, 2], [1, float("inf")])

    def test_swapped(self):
        s = PairedSample([1, 2], [3, 4])
        np.testing.assert_array_equal(s.swapped().xs, s.ys)

    def test_construction_copies_the_callers_arrays(self):
        # the caller's arrays stay writeable, and a write through a view
        # taken before construction changes no container or cached sort
        x, y = np.array([3.0, 1.0, 2.0, 5.0, 4.0]), np.arange(1.0, 6.0)
        rows = np.column_stack([x, y])
        x_view, rows_view = x[:], rows[:]
        s, table, multi = PairedSample(x, y), Table([x, y], [(0, 1)]), MultiSample(rows, y)
        assert spearman(s) == spearman_table(table)[0] == pytest.approx(0.6)
        x_view[:] = [5.0, 4.0, 3.0, 2.0, 1.0]
        rows_view[:] = 0.0
        assert x.flags.writeable and y.flags.writeable and rows.flags.writeable
        for kept in (s.xs, table.columns[0], multi.x_rows[:, 0]):
            np.testing.assert_array_equal(kept, [3.0, 1.0, 2.0, 5.0, 4.0])
        assert spearman(s) == spearman_table(table)[0] == pytest.approx(0.6)
        assert spearman(PairedSample(x, y)) == -1.0


class TestLoadPaired:
    def test_csv_direct_parse(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\n2,4\n")
        s = load_paired(path)
        np.testing.assert_array_equal(s.xs, [1.0, 2.0])
        np.testing.assert_array_equal(s.ys, [2.0, 4.0])

    def test_nan_in_row_3(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\n2,4\n3,NaN\n4,5\n")
        with pytest.raises(NonFiniteValue) as err:
            load_paired(path)
        assert err.value.row == 3

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\nfoo,4\n")
        with pytest.raises(ParseError) as err:
            load_paired(path)
        assert err.value.row == 2
        assert err.value.column == "x"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\n2,4\n")
        with pytest.raises(ParseError) as err:
            load_paired(path, x_col="z")
        assert err.value.column == "z"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_paired(tmp_path / "nope.csv")

    def test_short_sample(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ShortSample):
            load_paired(path)

    def test_jsonl_five_feature_keys(self, data_dir):
        features = ("speed", "feed", "rms", "energy", "counts")
        samples = [
            load_paired(data_dir / "features.jsonl", "jsonl", x_col=key, y_col="ra")
            for key in features
        ]
        assert len(samples) == 5
        assert all(s.n == 50 for s in samples)
        # same target column in every pair
        for s in samples[1:]:
            np.testing.assert_array_equal(s.ys, samples[0].ys)

    def test_jsonl_round_trip_exact(self, data_dir, tmp_path):
        s = load_paired(data_dir / "features.jsonl", "jsonl", x_col="feed", y_col="ra")
        out = tmp_path / "again.csv"
        save_paired(s, out)
        again = load_paired(out)
        np.testing.assert_array_equal(again.xs, s.xs)
        np.testing.assert_array_equal(again.ys, s.ys)

    def test_csv_round_trip_non_decimal_values(self, tmp_path):
        rng = seeded_rng(1)
        s = PairedSample(rng.normal(size=20), rng.normal(size=20))
        out = tmp_path / "pair.csv"
        save_paired(s, out)
        again = load_paired(out)
        np.testing.assert_array_equal(again.xs, s.xs)
        np.testing.assert_array_equal(again.ys, s.ys)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidParams):
            load_paired(tmp_path / "pair.xlsx")


# --- the bulk reader against the per-cell reader ----------------------------

_SPACE = st.sampled_from(["", " ", "\t", "  "])
_NUMBER = st.builds(
    "".join,
    st.tuples(
        _SPACE,
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["0", "7", "12", "1.5", ".5", "5.", "007", "1_000", "1__0", "１２", "0x10"]),
        st.sampled_from(["", "", "", "e5", "E-3", "e+2", "e400", "e-400", "e"]),
        _SPACE,
    ),
)
_SPECIAL = st.sampled_from(
    ["inf", "-Infinity", "+infinity", "INF", "nan", "NaN", "-nan", "", " ", "foo", "1,5", "true", "null"]
)
# about one cell in ten from the special list, the rest numbers of either grammar
_CELL = st.integers(0, 9).flatmap(
    lambda k: _SPECIAL if k == 0 else _NUMBER if k < 5 else st.floats().map(repr)
)
_COLUMNS = st.sampled_from([None, ("x",), ("y",), ("x", "y"), ("y", "z"), ("x", "q")])
_HEADER = st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True).flatmap(
    lambda names: st.sampled_from([names, names, names, names + names[:1]])
)


@st.composite
def csv_tables(draw) -> str:
    header = draw(_HEADER)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " "])))  # blank or whitespace-only line
            continue
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        cells = [draw(_CELL) for _ in range(max(width, 0))]
        quoted = [f'"{c}"' if draw(st.integers(0, 4)) == 0 else c for c in cells]
        lines.append(",".join(quoted))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "", "", "\ufeff"])) + end.join(lines) + end


_JSON_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity", "1e400", "[1]", "1" + "0" * 400]),
    _CELL.map(json.dumps),  # numeric strings and every other cell text, as a JSON string
)


_JSON_SPACE = st.sampled_from(["", " ", "\t", " \t  ", "\r"])


@st.composite
def jsonl_tables(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "[1, 2]", "3", '{"x": 1', "{}"])))
            continue
        if kind == 16:
            # blank under str.strip(), but not JSON whitespace
            lines.append(draw(st.sampled_from(["\x0c", "\xa0", "\u3000", " \x0b ", "\x1c\t"])))
            continue
        keys = draw(st.sampled_from([("x", "y", "z"), ("x", "y"), ("y", "x", "z"), ("z", "x", "y")]))
        if kind == 1:
            keys = keys[1:]  # a missing key
        record = "{" + ", ".join(f'"{k}": {draw(_JSON_VALUE)}' for k in keys) + "}"
        if kind == 17:
            record = draw(_JSON_SPACE) + record + draw(_JSON_SPACE)
        elif kind == 18:  # data after the object
            record += draw(st.sampled_from([" 1", "{}", " {}", ",", "\x0c"]))
        elif kind == 19:  # a byte order mark not at the start of the file
            record = "\ufeff" + record
        lines.append(record)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "", "", "\ufeff"])) + end.join(lines) + end


# cells that test the csv tokenizer more than the number grammar: quotes in
# mid-cell, "" escapes, quoted commas and line breaks, unbalanced quotes
_QUOTE_PIECE = st.sampled_from(["1", "5", ".5", "e3", "-", " ", '"', '""', ",", "\n", "\r\n", "\r", "z", "\x00"])
_HOSTILE = st.lists(_QUOTE_PIECE, min_size=1, max_size=5).map("".join)
_DIGITS = st.sampled_from(["1", "25", "-3", ".5", "7e1", ""])
_QUOTED_CELL = st.integers(0, 9).flatmap(
    lambda k: [
        _NUMBER,
        _NUMBER,
        _NUMBER.map(lambda c: f'"{c}"'),
        st.tuples(_NUMBER, st.sampled_from(["\n", "\r\n", '""', ","])).map(lambda t: f'"{t[0]}{t[1]}"'),
        st.tuples(_DIGITS, _DIGITS).map(lambda t: f'"{t[0]}"{t[1]}'),
        st.tuples(_DIGITS, _DIGITS).map(lambda t: f'{t[0]}"{t[1]}"'),
        st.sampled_from(['"1"5"2"', '""1', '1""', '"1""5"', '""', '""""', '"1,5"', '" 1"', ' "1"', '"1" ']),
        _HOSTILE.map(lambda c: f'"{c}"'),
        _HOSTILE.map(lambda c: f'"{c}"'),
        _HOSTILE,
    ][k]
)


@st.composite
def hostile_csv_tables(draw) -> str:
    header = [f'"{name}"' if draw(st.booleans()) else name for name in draw(_HEADER)]
    if draw(st.booleans()):  # a quoted line break in a name, so the header spans two lines
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(['"w\nv"', '"w\r\nv"'])))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 7)) == 0:
            lines.append("")
            continue
        width = len(header) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        lines.append(",".join(draw(_QUOTED_CELL) for _ in range(max(width, 0))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + end.join(lines) + end


def _outcome(read):
    """Arrays as (name, bytes) in result order, or the error's identity."""
    try:
        return [(name, a.dtype.str, a.tobytes()) for name, a in read().items()]
    except (ParseError, NonFiniteValue) as exc:
        return (type(exc), exc.row, getattr(exc, "column", None), str(exc))


class TestReadColumns:
    def test_reads_only_the_requested_columns_in_file_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        columns = read_columns(path, columns=("c", "a"))
        assert list(columns) == ["a", "c"]
        np.testing.assert_array_equal(columns["c"], [3.0, 6.0])

    def test_requested_names_the_file_lacks_are_left_out(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        assert list(read_columns(path, columns=("b", "zz"))) == ["b"]

    def test_columns_may_be_any_iterable_but_not_one_string(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        assert list(read_columns(path, columns=(n for n in ["b"]))) == ["b"]
        with pytest.raises(InvalidParams):
            read_columns(path, columns="ab")

    def test_jsonl_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text('{"x": 1, "y": 2}\n{"x": 1' + "0" * 400 + ', "y": 3}\n')
        with pytest.raises(NonFiniteValue) as err:
            read_columns(path)
        assert err.value.row == 2
        assert "column 'x'" in str(err.value)

    def test_jsonl_integer_literal_too_long_for_int(self, tmp_path):
        # json reads integer literals with int(), which refuses more than
        # 4300 digits with a bare ValueError
        path = tmp_path / "long.jsonl"
        path.write_text('{"x": 1, "y": 2}\n{"x": 1' + "0" * 5000 + ', "y": 3}\n')
        for columns in (None, ("y",)):
            with pytest.raises(ParseError) as err:
                read_columns(path, columns=columns)
            assert isinstance(err.value, CorrkitError)
            assert err.value.row == 2
            assert "integer literal too long" in str(err.value)

    def test_jsonl_float_literals_read_exactly(self, tmp_path):
        # the bulk path keeps float literals as text until float(); that
        # must give the bits json.loads gives, the per-cell reader's source
        rng = seeded_rng(60)
        doubles = rng.integers(0, 2**64, size=400, dtype=np.uint64).view(np.float64)
        literals = [repr(float(v)) for v in doubles[np.isfinite(doubles)]]
        for _ in range(200):  # mantissas longer than 17 digits
            tail = rng.integers(0, 10, size=int(rng.integers(17, 40)))
            digits = "".join(map(str, [rng.integers(1, 10), *tail]))
            point = int(rng.integers(1, len(digits)))
            exponent = int(rng.integers(-330, 300 - point))  # finite, subnormals and underflow included
            literals.append(f"{'-' if rng.integers(2) else ''}{digits[:point]}.{digits[point:]}e{exponent}")
        literals += [
            "5e-324", "2.2250738585072014e-308", "-0.0", "1E5", "1e-400",
            "2.2250738585072011e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
            "9007199254740993.0", "1.7976931348623157e308", "0.1", "1e23", "8.98846567431158e307",
        ]
        expected = np.array([float(json.loads(lit)) for lit in literals])
        path = tmp_path / "literals.jsonl"
        path.write_text("".join(f'{{"x": {lit}, "y": 1, "z": {lit}}}\n' for lit in literals))
        with mock.patch.object(core, "_read_cells", wraps=core._read_cells) as fallback:
            for columns in (None, ("x",), ("z", "y")):
                for name, values in read_columns(path, columns=columns).items():
                    want = expected if name != "y" else np.ones(len(literals))
                    assert values.tobytes() == want.tobytes(), name
        assert not fallback.called

    def test_jsonl_float_literal_beyond_float_range(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"x": 1, "y": 2, "z": 3}\n{"x": 2, "y": 5, "z": 1e400}\n{"x": 3, "y": 4, "z": -1E+999}\n'
        )
        s = load_paired(path)  # nobody asked for z
        np.testing.assert_array_equal(s.ys, [2.0, 5.0, 4.0])
        for columns in (None, ("z",), ("y", "z")):
            with pytest.raises(NonFiniteValue) as err:
                read_columns(path, columns=columns)
            assert err.value.row == 2
            assert "column 'z'" in str(err.value)
        with pytest.raises(NonFiniteValue) as err:
            load_paired(path, x_col="z")
        assert err.value.row == 2

    def test_jsonl_lines_blank_only_to_str_strip_are_skipped(self, tmp_path):
        # "\x0c" and "\xa0" are not JSON whitespace, but the line is blank
        path = tmp_path / "t.jsonl"
        path.write_text('{"x": 1, "y": 2}\n\x0c\n \xa0\t\n{"x": 3, "y": 5}\n')
        with mock.patch.object(core, "_read_cells", wraps=core._read_cells) as fallback:
            np.testing.assert_array_equal(read_columns(path)["y"], [2.0, 5.0])
        assert not fallback.called

    @pytest.mark.parametrize(
        "lines, message",
        [
            (['{"x": 1, "y": 2}', '{"x": 3, "y": 5} 1'], "invalid JSON"),
            (['{"x": 1, "y": 2}', '{"x": 3, "y": 5}{}'], "invalid JSON"),
            (['{"x": 1, "y": 2}', '\ufeff{"x": 3, "y": 5}'], "invalid JSON"),
            (['{"x": 1, "y": 2}', '{"x": 3, "y": 5}\x0c'], "invalid JSON"),
            (['{"x": 1, "y": 2}', '\xa0{"x": 3, "y": 5}'], "invalid JSON"),
            (['{"x": 1, "y": 2}', '[1, 2]'], "not an object"),
            (['[1, 2]', '{"x": 1, "y": 2}'], "not an object"),
        ],
    )
    def test_jsonl_line_that_is_not_one_object(self, tmp_path, lines, message):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        bad = next(i for i, line in enumerate(lines, start=1) if not line.startswith('{"x": 1'))
        with pytest.raises(ParseError) as err:
            read_columns(path, columns=("y",))
        assert err.value.row == bad
        assert message in str(err.value)

    def test_csv_field_over_the_tokenizer_limit(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x,y\n1" + "0" * 139_999 + ",2\n3,4\n")
        limit = csv.field_size_limit()
        for columns in (None, ("y",)):
            with pytest.raises(ParseError) as err:
                read_columns(path, columns=columns)
            assert err.value.row == 1
            assert "field limit" in str(err.value)
        assert csv.field_size_limit() == limit  # the process-wide limit is left alone
        path.write_text("x" + "0" * 139_999 + ",y\n1,2\n")
        with pytest.raises(ParseError) as err:
            read_columns(path)
        assert err.value.row == 0

    @pytest.mark.parametrize(
        "name, text",
        [("bom.csv", "\ufeffx,y\n1,2\n3,5\n"), ("bom.jsonl", '\ufeff{"x": 1, "y": 2}\n{"x": 3, "y": 5}\n')],
    )
    def test_utf8_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, name, text):
        # spreadsheet "CSV UTF-8" exports start with one
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        s = load_paired(path)
        np.testing.assert_array_equal(s.xs, [1.0, 3.0])
        np.testing.assert_array_equal(s.ys, [2.0, 5.0])
        assert list(read_columns(path)) == ["x", "y"]
        assert list(core._read_cells(path, name.split(".")[1], None)) == ["x", "y"]

    def test_jsonl_names_come_from_the_first_non_empty_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{}\n\n{}\n{"x": 1, "y": 2}\n{"y": 4, "x": 3, "z": 0}\n')
        columns = read_columns(path, columns=("x", "y", "z"))
        assert list(columns) == ["x", "y"]
        np.testing.assert_array_equal(columns["x"], [1.0, 3.0])

    def test_repeated_requested_header_name(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x,y,x\n1,2,3\n2,4,6\n3,6,9\n")
        with pytest.raises(ParseError) as err:
            load_paired(path)
        assert (err.value.row, err.value.column) == (0, "x")
        assert "duplicate column name" in str(err.value)
        # a repeated name nobody asked for is not an error
        np.testing.assert_array_equal(read_columns(path, columns=("y",))["y"], [2.0, 4.0, 6.0])

    def test_bad_cell_in_an_unrequested_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,junk,y\n1,oops,2\n2,,4\n3,nan,5\n")
        s = load_paired(path)
        np.testing.assert_array_equal(s.ys, [2.0, 4.0, 5.0])
        with pytest.raises(ParseError) as err:
            read_columns(path)
        assert (err.value.row, err.value.column) == (1, "junk")

    @given(csv_tables(), _COLUMNS)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_csv_bulk_path_matches_per_cell_reader(self, tmp_path_factory, text, columns):
        self.check_against_per_cell_reader(tmp_path_factory, "t.csv", text, columns)

    @given(hostile_csv_tables(), _COLUMNS)
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_csv_hostile_quoting_matches_per_cell_reader(self, tmp_path_factory, text, columns):
        self.check_csv(tmp_path_factory, text, columns)

    @given(jsonl_tables(), _COLUMNS)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_jsonl_bulk_path_matches_per_cell_reader(self, tmp_path_factory, text, columns):
        self.check_against_per_cell_reader(tmp_path_factory, "t.jsonl", text, columns)

    def check_csv(self, tmp_path_factory, text, columns=None) -> list[dict]:
        """check_against_per_cell_reader with every warning an error; the
        keyword arguments of each np.loadtxt call the bulk path made."""
        with warnings.catch_warnings(), mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            warnings.simplefilter("error")
            self.check_against_per_cell_reader(tmp_path_factory, "t.csv", text, columns)
        return [call.kwargs for call in loadtxt.call_args_list]

    def test_csv_header_only(self, tmp_path_factory):
        for text in ("x,y\n", "x,y", "\ufeffx,y\r\n\r\n\n"):
            for columns in (None, ("y",), ("q",)):
                self.check_csv(tmp_path_factory, text, columns)
        path = tmp_path_factory.getbasetemp() / "t.csv"
        assert {name: a.shape for name, a in read_columns(path).items()} == {"x": (0,), "y": (0,)}

    def test_csv_cells_loadtxt_refuses_take_the_converter_retry(self, tmp_path_factory):
        text = "x,y,z\n1_000,\uff11\uff12,5\n2.5,-3,0x10\n"
        calls = self.check_csv(tmp_path_factory, text, ("x", "y"))
        assert [call.get("converters") for call in calls] == [None, float]
        columns = read_columns(tmp_path_factory.getbasetemp() / "t.csv", columns=("x", "y"))
        assert columns["x"].tolist() == [1000.0, 2.5] and columns["y"].tolist() == [12.0, -3.0]
        self.check_csv(tmp_path_factory, text)  # z's 0x10 fails the retry too

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_csv_quoted_line_break_in_a_header_name(self, tmp_path_factory, end):
        text = f'"x{end}w",y{end}1,2{end}3,4{end}'
        for columns in (None, ("y",), (f"x{end}w",)):
            self.check_csv(tmp_path_factory, text, columns)
        columns = read_columns(tmp_path_factory.getbasetemp() / "t.csv")
        assert {name: a.tolist() for name, a in columns.items()} == {f"x{end}w": [1.0, 3.0], "y": [2.0, 4.0]}

    def test_csv_long_line_of_short_fields_stays_on_the_bulk_path(self, tmp_path_factory):
        width = 40_001
        row = ",".join(["12.5"] * width)
        assert len(row) == 200_004 > csv.field_size_limit()
        text = ",".join(f"c{k}" for k in range(width)) + "\n" + row + "\n" + row + "\n"
        calls = self.check_csv(tmp_path_factory, text, ("c0", f"c{width - 1}"))
        assert len(calls) == 1
        columns = read_columns(tmp_path_factory.getbasetemp() / "t.csv", columns=("c7",))
        assert columns["c7"].tolist() == [12.5, 12.5]

    def test_csv_field_over_the_limit_in_a_later_row(self, tmp_path_factory):
        # in a column nobody asked for, on one line or quoted across many short ones
        for field in ("1" + "0" * 139_999, '"' + ("7" * 999 + "\n") * 140 + '"'):
            text = f"x,junk,y\n1,0,2\n3,0,4\n5,{field},6\n7,0,8\n"
            for columns in (("y",), ("x", "y"), None):
                self.check_csv(tmp_path_factory, text, columns)
                with pytest.raises(ParseError) as err:
                    read_columns(tmp_path_factory.getbasetemp() / "t.csv", columns=columns)
                assert err.value.row == 3
                assert "field limit" in str(err.value)

    def test_csv_quoted_line_break_in_an_unrequested_column(self, tmp_path_factory):
        text = 'x,note,y\n1,"a\nb",2\n3,"c\r\nd, e",4\r\n5,"",6\n'
        for columns in (("x", "y"), ("y",), None, ("note",)):
            self.check_csv(tmp_path_factory, text, columns)
        columns = read_columns(tmp_path_factory.getbasetemp() / "t.csv", columns=("x", "y"))
        assert columns["x"].tolist() == [1.0, 3.0, 5.0] and columns["y"].tolist() == [2.0, 4.0, 6.0]

    def test_csv_float_literals_read_exactly(self, tmp_path):
        # numpy's C reader must give every literal the bits float() gives it
        rng = seeded_rng(63)
        doubles = rng.integers(0, 2**64, size=400, dtype=np.uint64).view(np.float64)
        literals = [repr(float(v)) for v in doubles[np.isfinite(doubles)]]
        for _ in range(200):  # mantissas longer than 17 digits, subnormals and underflow included
            digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(18, 40)))))
            literals.append(f"{'-' if rng.integers(2) else ''}{digits[:3]}.{digits[3:]}e{int(rng.integers(-330, 300))}")
        literals += ["5e-324", "2.4703282292062328e-324", "9007199254740993.0", "1.7976931348623157e308", "0.1", "1e23"]
        path = tmp_path / "literals.csv"
        path.write_text("x,y\n" + "".join(f"{lit},{lit.upper()}\n" for lit in literals))
        expected = np.array([float(lit) for lit in literals])
        with mock.patch.object(core, "_read_cells", wraps=core._read_cells) as fallback:
            for values in read_columns(path).values():
                assert values.tobytes() == expected.tobytes()
        assert not fallback.called

    def test_csv_shaped_like_the_benchmark_takes_one_plain_loadtxt_call(self, tmp_path):
        # 8 columns of repr floats from 1e-6 to 1e6 in magnitude, both signs,
        # and 123.0-style integers: a numpy whose loadtxt refuses them fails here
        rng = seeded_rng(62)
        values = rng.standard_normal((1000, 8)) * 10.0 ** rng.integers(-6, 7, (1000, 8))
        values[::5] = np.round(values[::5] * 1e3)
        names = [f"c{k}" for k in range(8)]
        path = tmp_path / "wide.csv"
        path.write_text(",".join(names) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
        for columns in (("c0", "c1"), None):
            with (
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
                mock.patch.object(core, "_read_cells", wraps=core._read_cells) as fallback,
            ):
                read = read_columns(path, columns=columns)
            assert loadtxt.call_count == 1 and "converters" not in loadtxt.call_args.kwargs
            assert not fallback.called
            for name, a in read.items():
                assert a.tobytes() == values[:, names.index(name)].tobytes(), name

    @staticmethod
    def check_against_per_cell_reader(tmp_path_factory, name, text, columns):
        path = tmp_path_factory.getbasetemp() / name
        path.write_bytes(text.encode("utf-8"))
        fmt = "csv" if name.endswith(".csv") else "jsonl"
        expected = _outcome(lambda: core._read_cells(path, fmt, columns))
        with mock.patch.object(core, "_read_cells", wraps=core._read_cells) as fallback:
            assert _outcome(lambda: read_columns(path, columns=columns)) == expected
        # the per-cell reader runs only where it has an error to report
        assert fallback.called == isinstance(expected, tuple)


class TestRngSeed:
    def test_same_seed_same_stream(self):
        a = RngSeed(7).rng().random(5)
        b = RngSeed(7).rng().random(5)
        np.testing.assert_array_equal(a, b)

    def test_stream_tags_fork(self):
        a = RngSeed(7).rng(0).random(5)
        b = RngSeed(7).rng(1).random(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "x"])
    def test_rejects_bad_seeds(self, bad):
        with pytest.raises(InvalidParams):
            RngSeed(bad)


def permutations_oracle(seed, count, n, start=0):
    """One ``default_rng([seed, i])`` per row i from start on: the slow reference."""
    return np.stack([RngSeed(seed).rng(start + k).permutation(n) for k in range(count)])


# one- and two-word seeds, with every 32-bit word at its extremes
_EDGE_SEEDS = [0, 1, 9, 501, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]


class TestPermutations:
    """The vectorised seeding against one SeedSequence per row."""

    def check(self, seed, count, n, start=0):
        got, expected = RngSeed(seed).permutations(count, n, start), permutations_oracle(seed, count, n, start)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_rows_are_the_seeded_streams_at_edge_seeds(self, seed):
        self.check(seed, 300, 50)
        self.check(seed, 1, 2)

    def test_ten_thousand_rows(self):
        self.check(9, 10_000, 13)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 3000), st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_seeded_streams(self, seed, count, n):
        self.check(seed, count, n)

    def test_count_beyond_one_entropy_word_rejected(self):
        # row 2**32 would need a second entropy word; nothing is allocated
        with pytest.raises(InvalidParams):
            RngSeed(0).permutations(2**32 + 1, 50)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63 + 12345])
    def test_rows_from_a_start_are_the_seeded_streams(self, seed):
        for start, count in ((1, 4), (1310, 300), (2**31 - 7, 20), (2**32 - 3, 3)):
            self.check(seed, count, 50, start)
        # a block of rows is that slice of one draw from row 0
        whole = RngSeed(seed).permutations(1300, 13)
        np.testing.assert_array_equal(RngSeed(seed).permutations(300, 13, 1000), whole[1000:])

    def test_the_last_row_is_two_to_the_32_minus_one(self):
        self.check(9, 1, 50, 2**32 - 1)
        self.check(2**64 - 1, 1, 2, 2**32 - 1)
        assert RngSeed(9).permutations(0, 50, 2**32).shape == (0, 50)

    def test_a_range_past_two_to_the_32_is_rejected_before_any_allocation(self):
        # at n = 10**6 one row is 8 MB; a rejected call allocates none
        tracemalloc.start()
        try:
            for count, start in ((2, 2**32 - 1), (1, 2**32), (2**32, 1), (-1, 5), (1, -1)):
                with pytest.raises(InvalidParams):
                    RngSeed(0).permutations(count, 10**6, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


_FLOAT_MAX = float(np.finfo(np.float64).max)
_EDGE_VALUES = [-0.0, 0.0, _FLOAT_MAX, -_FLOAT_MAX, 5e-324, -5e-324]


@st.composite
def order_vectors(draw) -> np.ndarray:
    """n in 1..200, each value at random one of: a small integer of width
    0-6 (so all-tied vectors occur), -0.0 or 0.0, an extreme, or any
    finite float (random bits)."""
    n, width = draw(st.integers(1, 200)), draw(st.integers(0, 6))
    rng = seeded_rng(91, draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    candidates = np.stack([
        rng.integers(0, width + 1, n).astype(np.float64),
        rng.choice([-0.0, 0.0], n),
        rng.choice(_EDGE_VALUES, n),
        np.where(np.isfinite(bits), bits, 1.0),
    ])
    weights = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
    kind = rng.choice(4, n, p=np.array(weights) / sum(weights))
    return candidates[kind, np.arange(n)]


class TestStableOrder:
    """The shared column sort pass: its order against numpy's stable
    argsort, its run ids against the dense ranks of ``np.unique``."""

    @staticmethod
    def check(v):
        got, expected = core.stable_order(v), np.argsort(v, kind="stable")
        assert got.order.dtype == expected.dtype
        np.testing.assert_array_equal(got.order, expected)
        distinct_values, dense_ranks = np.unique(v, return_inverse=True)
        assert got.runs.dtype == core.int_for(v.shape[0])
        np.testing.assert_array_equal(got.runs, dense_ranks.reshape(-1)[expected])
        assert got.distinct == (distinct_values.shape[0] == v.shape[0])
        assert not got.order.flags.writeable and not got.runs.flags.writeable

    @given(order_vectors())
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort(self, v):
        self.check(v)

    def test_signed_zeros_tie(self):
        v = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
        np.testing.assert_array_equal(core.stable_order(v).order, [5, 0, 1, 3, 4, 2])
        np.testing.assert_array_equal(core.stable_order(v).runs, [0, 1, 1, 1, 1, 2])

    def test_one_hundred_thousand_values(self):
        rng = seeded_rng(90)
        v = rng.normal(size=100_000)
        v[rng.integers(0, v.shape[0], 30_000)] = rng.integers(-3, 4, 30_000)
        self.check(v)

    def test_sample_orders_are_read_only_and_built_once(self, monkeypatch):
        calls = count_calls(monkeypatch, core, "stable_order")
        s = PairedSample([3.0, 1.0, 3.0, 2.0], [0.0, -0.0, 1.0, 0.0])
        assert calls == []
        order = s.x_order
        # the first order asked for sorts both columns, the sample's matrix, in one call
        assert len(calls) == 1 and calls[0][0] is s.values
        assert s.x_order is order and s.y_order is s.y_order
        assert s.x_sorted is s.sorted(0) and s.y_sorted is s.sorted(1)
        assert len(calls) == 1
        with pytest.raises(ValueError):
            order[0] = 0
        np.testing.assert_array_equal(order, [1, 3, 0, 2])
        np.testing.assert_array_equal(s.y_order, [0, 1, 3, 2])


class TestSampleMean:
    def test_simple(self):
        assert sample_mean([1, 2, 3]) == 2.0

    def test_singleton(self):
        assert sample_mean([5]) == 5.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            sample_mean([])

    def test_pair_at_float_max_does_not_overflow(self):
        assert sample_mean([1.7e308, 1.7e308]) == 1.7e308

    def test_overflowing_fallback_stays_inside_the_values(self):
        # the sum of v / n rounds past float max for three copies of it
        big = float(np.finfo(np.float64).max)
        assert sample_mean([big] * 3) == big
        assert sample_mean([-big] * 9) == -big

    @given(
        st.lists(
            st.sampled_from([1.7976931348623157e308, 1.7e308, 1e308, 1e300, 1.0, 0.0, 5e-324]),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.booleans(), min_size=40, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_and_within_the_values_at_extremes(self, magnitudes, negate):
        values = [-v if neg else v for v, neg in zip(magnitudes, negate)]
        m = sample_mean(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_equals_np_mean_where_that_is_finite(self, values):
        assert sample_mean(values) == float(np.mean(values))

    def test_against_compensated_summation_oracle(self):
        draws = RngSeed(7).rng().uniform(0.0, 1.0, 100)
        oracle = math.fsum(float(v) for v in draws) / 100
        assert abs(sample_mean(draws) - oracle) <= 1e-12

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_property(self, values, a, d):
        lhs = sample_mean([a * v + d for v in values])
        rhs = a * sample_mean(values) + d
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestSampleMedian:
    def test_odd(self):
        assert sample_median([3, 1, 2]) == 2.0

    def test_even(self):
        assert sample_median([4, 1, 2, 3]) == 2.5

    def test_empty(self):
        with pytest.raises(EmptyInput):
            sample_median([])

    def test_against_sort_oracle(self):
        values = seeded_rng(2).normal(size=999)
        ordered = sorted(float(v) for v in values)
        assert sample_median(values) == ordered[499]

    def test_even_oracle(self):
        values = seeded_rng(3).normal(size=500)
        ordered = sorted(float(v) for v in values)
        assert sample_median(values) == (ordered[249] + ordered[250]) / 2

    @given(st.permutations(list(range(9))))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, perm):
        assert sample_median(perm) == 4.0

    def test_two_middle_values_near_float_max(self):
        # (a + b) / 2 overflows to inf here
        assert sample_median([1.7e308, 1.7e308]) == 1.7e308
        assert sample_median([1.0, 1.7e308, 1.7e308, 1.7e308]) == 1.7e308
        assert sample_median([-1.7e308, -1.5e308]) == -1.6e308

    @given(
        st.lists(
            # normal range, where 0.5*a + 0.5*b rounds exactly as (a + b) / 2 does
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-300, max_value=1e300),
                st.floats(min_value=-1e300, max_value=-1e-300),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_median_oracle(self, values):
        assert sample_median(values) == float(np.median(values))

    def test_rows_match_numpy_median_oracle(self):
        rng = seeded_rng(4)
        for n in (1, 2, 7, 30):
            a = rng.normal(size=(50, n)) * 10.0 ** rng.integers(-200, 200, size=(50, 1))
            np.testing.assert_array_equal(row_medians(a), np.median(a, axis=1))

    def test_a_zero_median_is_positive_zero(self):
        # 0.5 * -0.0 + 0.5 * -0.0 is -0.0: without the rule, which zeros
        # the select leaves in the middle would decide the sign
        for values in ([0.0, -0.0], [-0.0, 0.0], [-0.0] * 5, [-0.0] * 4, [-1.0, -0.0, 0.0, -0.0, 2.0]):
            assert_positive_zero(sample_median(values))
        block = np.array([[0.0, -0.0, -0.0], [-0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [-0.0, 1.0, -0.0]])
        for median in row_medians(block):
            assert_positive_zero(median)
        assert_positive_zero(float(row_medians(np.full(6, -0.0))))


def assert_positive_zero(value):
    assert value == 0.0 and math.copysign(1.0, value) == 1.0, value


def two_kth_row_medians_oracle(a):
    """The former median: one partition for both middle order statistics."""
    n = a.shape[-1]
    part = np.partition(a, [(n - 1) // 2, n // 2], axis=-1)
    return halfway(part[..., (n - 1) // 2], part[..., n // 2])


def assert_medians_match_the_two_kth_oracle(a):
    """row_medians of ``a`` equals the two-kth oracle bit for bit on
    every nonzero median and is +0.0 on every zero one."""
    got, want = np.asarray(row_medians(a)), np.asarray(two_kth_row_medians_oracle(a))
    assert got.dtype == want.dtype and got.shape == want.shape
    nonzero = want != 0.0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()
    assert not np.any(np.signbit(got[~nonzero])) and np.all(got[~nonzero] == 0.0)


class TestSingleSelectMedian:
    """The one-select median against the two-kth partition it replaced."""

    def test_matches_the_two_kth_oracle_on_tie_heavy_samples(self, tie_heavy_corpus):
        for s, _ in tie_heavy_corpus:
            for v in (s.xs, s.ys):
                assert_medians_match_the_two_kth_oracle(v)

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("family", sorted(FAMILY_DEFAULTS))
    def test_matches_the_two_kth_oracle_on_the_synth_families(self, family, n):
        for seed in (9011, 9111):
            s = generate(FamilySpec(family, n, RngSeed(seed)))
            for v in (s.xs, s.ys, np.stack([s.xs, s.ys])):
                assert_medians_match_the_two_kth_oracle(v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 31, 32])
    def test_matches_the_two_kth_oracle_on_blocks_of_edge_values(self, n):
        rng = seeded_rng(97, n)
        edges = np.array([1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, 0.0, -0.0, 1.0, -2.5])
        blocks = [
            rng.choice(edges, (200, n)),  # heavy ties among the extremes
            rng.choice(edges[:4], (200, n)),
            rng.integers(-2, 3, (200, n)).astype(float),
            rng.normal(size=(200, n)) * 10.0 ** rng.integers(-300, 300, size=(200, 1)),
        ]
        for block in blocks:
            assert_medians_match_the_two_kth_oracle(block)
            for row in block[:20]:
                assert_medians_match_the_two_kth_oracle(row)


# ---------------------------------------------------------------------------
# the intake contract: what every entry point accepts from outside


def _table_csv(tmp_path):
    """A 50-row csv with columns x, y and z."""
    path = tmp_path / "t.csv"
    values = seeded_rng(97).normal(size=(50, 3))
    path.write_text("x,y,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    return path


def _config(tmp_path, independents=("x",), dependents=("y",), split=None):
    return ExperimentConfig(_table_csv(tmp_path), independents, dependents, split)


def _report(seed, iterations):
    text = json.dumps({"schema": "v1", "seed": seed, "iterations": iterations, "rows": []})
    return parse_report(text.encode(), "json")


_COLUMNS = [np.arange(5.0), np.arange(5.0) ** 2, np.ones(5)]
_LINE = PairedSample(np.arange(20.0), np.arange(20.0))
_FIT = fit_g(PairedSample(np.arange(6.0), [0.0, 1.0, 0.0, 1.0, 1.0, 1.0]))
_SQUARE = [[1.0, 2.0], [3.0, 4.0]]

# each entry point with a value it must refuse; every call gets tmp_path
_REFUSED = {
    "seed bool": lambda _: RngSeed(True),
    "seed float": lambda _: RngSeed(9.0),
    "seed str": lambda _: RngSeed("9"),
    "seed below range": lambda _: RngSeed(np.int64(-1)),
    "seed above range": lambda _: RngSeed(2**64),
    "train_size bool": lambda _: SplitPlan(True, 20, 20, 9),
    "train_size float": lambda _: SplitPlan(30.0, 20, 20, 9),
    "train_size 1": lambda _: SplitPlan(1, 20, 20, 9),
    "eval_size 0": lambda _: SplitPlan(30, np.int64(0), 20, 9),
    "eval_size above range": lambda _: SplitPlan(30, 2**32, 20, 9),
    "iterations str": lambda _: SplitPlan(30, 20, "20", 9),
    "iterations 0": lambda _: SplitPlan(30, 20, 0, 9),
    "iterations above range": lambda _: SplitPlan(30, 20, np.uint64(2**32), 9),
    "plan seed bool": lambda _: SplitPlan(30, 20, 20, False),
    "pair index bool": lambda _: Table(_COLUMNS, [(True, 1)]),
    "pair index float": lambda _: Table(_COLUMNS, [(0, 1.0)]),
    "pair index out of range": lambda _: Table(_COLUMNS, [(0, np.int64(3))]),
    "3-item pair": lambda _: Table(_COLUMNS, [(0, 1, 2)]),
    "bare index as a pair": lambda _: Table(_COLUMNS, [0]),
    "bin count bool": lambda _: ncc(_LINE, np.True_),
    "bin count float": lambda _: ncc(_LINE, 10.0),
    "bin count 1": lambda _: ncc(_LINE, np.int64(1)),
    "family n bool": lambda _: FamilySpec("noise", True, 1),
    "family n float": lambda _: FamilySpec("noise", 50.0, 1),
    "family n below range": lambda _: FamilySpec("noise", np.int64(3), 1),
    "columns str": lambda p: read_columns(_table_csv(p), columns="x"),
    "columns int": lambda p: read_columns(_table_csv(p), columns=5),
    "independents str": lambda p: _config(p, independents="x"),
    "dependents str": lambda p: _config(p, dependents="y"),
    "independents None": lambda p: _config(p, independents=None),
    "split 5": lambda p: _config(p, split=5),
    "median NaN": lambda _: sample_median([1.0, np.nan, 3.0]),
    "mean NaN": lambda _: sample_mean([1.0, np.nan]),
    "rank NaN": lambda _: rank_with_average_ties([1.0, np.nan]),
    "median 2-D": lambda _: sample_median(_SQUARE),
    "mean 2-D": lambda _: sample_mean(_SQUARE),
    "rank 2-D": lambda _: rank_with_average_ties(_SQUARE),
    "mean str": lambda _: sample_mean(["a"]),
    "rank complex": lambda _: rank_with_average_ties(np.array([1j, 2.0])),
    "sample str": lambda _: PairedSample(["a", "b"], [1.0, 2.0]),
    "sample complex": lambda _: PairedSample(np.array([1j, 2j]), [1.0, 2.0]),
    "table complex": lambda _: Table([np.arange(3.0), np.arange(3.0) * 1j], [(0, 1)]),
    "multi sample ragged": lambda _: MultiSample([[1.0, 2.0], [3.0]], [1.0, 2.0]),
    "g_predict NaN": lambda _: g_predict(np.nan, _FIT),
    "fechner_predict NaN": lambda _: fechner_predict(np.nan, 0.0, 0.0, 0.5),
    "report seed str": lambda _: _report("abc", None),
    "report seed bool": lambda _: _report(True, None),
    "report seed below range": lambda _: _report(-1, 20),
    "report iterations below range": lambda _: _report(9, -3),
    "report iterations float": lambda _: _report(9, 20.0),
    "report iterations bool": lambda _: _report(None, False),
    "built report seed str": lambda _: PanelReport((), seed="abc"),
    "built report seed bool": lambda _: PanelReport((), seed=np.True_),
    "built report iterations below range": lambda _: PanelReport((), iterations=-3),
    "built report iterations float": lambda _: PanelReport((), seed=9, iterations=20.0),
    # the input does not exist: the bin count is refused before any read
    "config bin count 1": lambda p: ExperimentConfig(p / "missing.csv", ("x",), ("y",), b=1),
    "config bin count float": lambda p: ExperimentConfig(p / "missing.csv", ("x",), ("y",), b=10.0),
}


@pytest.mark.parametrize("call", _REFUSED.values(), ids=_REFUSED.keys())
def test_every_entry_point_refuses_bad_input_with_a_corrkit_error(call, tmp_path):
    # pytest.raises lets any other exception through, so a bare
    # TypeError, ValueError or AttributeError fails the test
    with pytest.raises(CorrkitError):
        call(tmp_path)


def test_report_metadata_errors_name_their_key():
    for seed, iterations, key in (("abc", -3, "seed"), (9, -3, "iterations"), (None, True, "iterations")):
        with pytest.raises(ParseError) as err:
            _report(seed, iterations)
        assert (err.value.row, err.value.column) == (0, key)
    assert (_report(None, None).seed, _report(2**64 - 1, 2**32 - 1).iterations) == (None, 2**32 - 1)


# each entry point given numpy integers, and the values it stores from them
_ACCEPTED = {
    "seed": lambda: [RngSeed(np.uint64(9)).seed],
    "plan": lambda: [
        getattr(SplitPlan(np.int64(30), np.int32(20), np.uint16(20), np.int64(9)), name)
        for name in ("train_size", "eval_size", "iterations")
    ],
    "plan seed": lambda: [SplitPlan(30, 20, 20, np.int64(9)).seed.seed],
    "pair indices": lambda: list(Table(_COLUMNS, [(np.int64(2), np.uint8(0))]).pairs[0]),
    "family n": lambda: [FamilySpec("noise", np.int64(50), 1).n],
    "family seed": lambda: [FamilySpec("noise", 50, np.uint32(1)).seed.seed],
    "report": lambda: [getattr(PanelReport((), np.uint64(9), np.int32(20)), key) for key in ("seed", "iterations")],
    "config bin count": lambda: [ExperimentConfig("missing.csv", ("x",), ("y",), b=np.int64(5)).b],
}


@pytest.mark.parametrize("stored", _ACCEPTED.values(), ids=_ACCEPTED.keys())
def test_every_entry_point_takes_numpy_integers_and_stores_ints(stored):
    assert all(type(v) is int for v in stored())


def test_a_config_refuses_its_bin_count_before_reading_the_input(tmp_path):
    with pytest.raises(InvalidParams, match="bin count must be an integer >= 2, got 1"):
        ExperimentConfig(tmp_path / "missing.csv", ("x",), ("y",), b=1)


def test_a_report_of_numpy_integers_renders_the_same_json_bytes(tmp_path):
    rows = run_panel(_config(tmp_path)).rows
    assert render_report(PanelReport(rows, np.int64(9), np.uint32(20)), "json") == render_report(
        PanelReport(rows, 9, 20), "json"
    )


def test_a_plan_of_numpy_integers_renders_the_same_json_report(tmp_path):
    def report(plan):
        return render_report(run_panel(_config(tmp_path, ("x", "z"), ("y",), plan)), "json")

    assert report(SplitPlan(30, 20, np.int64(20), np.uint64(9))) == report(SplitPlan(30, 20, 20, 9))
