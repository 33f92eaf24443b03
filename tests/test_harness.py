import json

import numpy as np
import pytest

from corrkit import (
    ExperimentConfig,
    FamilySpec,
    InvalidParams,
    PairedSample,
    PanelReport,
    PanelValue,
    RngSeed,
    SplitPlan,
    compute_panel,
    estimate_g,
    fechner,
    fit_g,
    generate,
    kendall,
    ncc,
    parse_report,
    pearson,
    render_report,
    run_panel,
    spearman,
)
from corrkit import core, gcorr
from corrkit.errors import CorrkitError, ParseError
from corrkit.harness import PanelRow, coefficient
from corrkit.synth import FAMILY_DEFAULTS

from conftest import DATA_DIR, count_calls, count_column_run_ids, count_stable_order, seeded_rng
from test_classic import opposite_extremes_sample


def write_table(path, columns):
    names = list(columns)
    n = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(repr(float(columns[name][i])) for name in names))
    path.write_text("\n".join(lines) + "\n")


# the paper's comparison: every synth family at two sample sizes of the
# benchmark and one whose Kendall keys need 64 bits for one pair
FAMILY_PANEL_SIZES = (1_000, 10_000, 50_000)


def family_panels_text() -> str:
    """The repr of every ``compute_panel`` cell of each family, n in
    FAMILY_PANEL_SIZES and seeds 0 and 1, one line per cell."""
    lines = []
    for family in sorted(FAMILY_DEFAULTS):
        for n in FAMILY_PANEL_SIZES:
            for seed in (0, 1):
                panel = compute_panel(generate(FamilySpec(family, n, RngSeed(seed))))
                lines += [f"{family} {n} {seed} {name} {pv!r}" for name, pv in panel.as_dict().items()]
    return "\n".join(lines) + "\n"


@pytest.fixture
def synthetic_table(tmp_path):
    """5 independents x 3 dependents, 50 rows."""
    rng = seeded_rng(60)
    columns = {f"ind{i}": rng.normal(size=50) for i in range(5)}
    columns.update({f"dep{j}": rng.normal(size=50) for j in range(3)})
    path = tmp_path / "table.csv"
    write_table(path, columns)
    return path


class TestComputePanel:
    def test_line_pair(self):
        xs = seeded_rng(61).uniform(0, 10, 50)
        panel = compute_panel(PairedSample(xs, 2 * xs + 1))
        assert panel.r.value == pytest.approx(1.0, abs=1e-9)
        assert panel.kappa.value == 1.0
        assert panel.omega.value == 1.0
        assert all(pv.valid for pv in panel.as_dict().values())

    def test_degenerate_pair_flagged_not_raised(self):
        panel = compute_panel(PairedSample([1, 2, 3, 4], [5, 5, 5, 5]))
        assert not panel.r.valid
        assert not panel.rho.valid
        assert panel.tau.valid and panel.tau.value == 0.0
        assert panel.omega.value == 0.5
        assert "constant" in panel.omega.note

    def test_median_near_float_max_gives_constant_x(self):
        panel = compute_panel(PairedSample([1, 2, 3, 4], [1.7e308, 1.7e308, 1.7e308, 1.0]))
        assert panel.omega == PanelValue(0.5, note="X constant: uncorrelated")

    def test_degeneracy_policy(self):
        # zero variance and too few points: invalid cells carrying the error
        r = coefficient("r", PairedSample([1, 2, 3], [4, 4, 4]))
        assert not r.valid and r.note == "ys is constant; r undefined"
        assert not coefficient("ncc", PairedSample([1, 2, 3], [3, 1, 2]), b=4).valid
        # constant Y or X: omega is 0.5 with a note
        y_constant = coefficient("omega", PairedSample(range(5), [2] * 5))
        assert y_constant == PanelValue(0.5, note="Y constant: uncorrelated")
        x_constant = coefficient("omega", PairedSample([2] * 5, range(5)))
        assert x_constant == PanelValue(0.5, note="X constant: uncorrelated")
        # the split estimator scores degenerate partitions 0.5 itself
        split = SplitPlan(3, 2, 5, RngSeed(1))
        assert coefficient("omega", PairedSample(range(5), [2] * 5), split=split) == PanelValue(0.5)
        # anything else is a configuration error
        with pytest.raises(InvalidParams):
            coefficient("ncc", PairedSample(range(20), range(20)), b=1)

    def test_kappa_of_opposite_extremes_is_a_valid_zero(self):
        assert coefficient("kappa", opposite_extremes_sample()) == PanelValue(0.0)

    def test_values_match_direct_module_calls(self):
        rng = seeded_rng(62)
        s = PairedSample(rng.normal(size=60), rng.normal(size=60))
        panel = compute_panel(s)
        assert panel.r.value == pearson(s)
        assert panel.rho.value == spearman(s)
        assert panel.tau.value == kendall(s)
        assert panel.kappa.value == fechner(s).kappa
        assert panel.ncc.value == ncc(s)
        assert panel.omega.value == fit_g(s).omega

    def test_pearson_alone_sorts_nothing(self, monkeypatch):
        calls = count_stable_order(monkeypatch)
        s = PairedSample(seeded_rng(63).normal(size=30), seeded_rng(64).normal(size=30))
        pearson(s)
        assert calls == []
        spearman(s)  # the counter sees the sorts a rank coefficient needs
        assert len(calls) == 2

    @pytest.mark.parametrize("split", [None, SplitPlan(30, 20, 20, RngSeed(5))])
    def test_each_column_is_sorted_once_per_sample(self, monkeypatch, split):
        calls = count_stable_order(monkeypatch)
        run_id_calls = count_column_run_ids(monkeypatch)
        rng = seeded_rng(65)
        s = PairedSample(np.round(rng.normal(size=50), 1), rng.integers(0, 4, 50).astype(float))
        compute_panel(s, split=split)
        # x, then y, each once: the rows of one block, or two calls
        assert [v.tobytes() for v in calls] == [s.xs.tobytes(), s.ys.tobytes()]
        # the sort pass finds each column's runs; no rank statistic again
        assert len(run_id_calls) == 2

    def test_numpy_integer_bin_count(self):
        s = PairedSample(np.arange(30.0), np.arange(30.0) % 7)
        assert coefficient("ncc", s, np.int64(10)) == coefficient("ncc", s, 10)
        for bad in (np.int64(1), True, np.bool_(True), 10.0):
            with pytest.raises(InvalidParams):
                coefficient("ncc", s, bad)

    def test_every_family_matches_the_golden_panels(self):
        # written before Kendall's keys were narrowed; every cell keeps its bits
        golden = (DATA_DIR / "family_panels.txt").read_text(encoding="utf-8")
        assert family_panels_text() == golden

    def test_split_mode_matches_estimate_g(self):
        s = generate(FamilySpec("coarse_monotone", 50, RngSeed(8)))
        plan = SplitPlan(30, 20, 50, RngSeed(9))
        panel = compute_panel(s, split=plan)
        assert panel.omega.value == estimate_g(s, plan)[0]


class TestRunPanel:
    def test_fifteen_rows_in_table_order(self, synthetic_table):
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
        )
        report = run_panel(cfg)
        assert len(report.rows) == 15
        assert [(r.independent, r.dependent) for r in report.rows[:4]] == [
            ("ind0", "dep0"),
            ("ind0", "dep1"),
            ("ind0", "dep2"),
            ("ind1", "dep0"),
        ]

    def test_permutation_matrix_built_once_per_report(self, synthetic_table, monkeypatch):
        calls = []
        rng = RngSeed.rng

        def counting_rng(self, *stream):
            calls.append(stream)
            return rng(self, *stream)

        monkeypatch.setattr(RngSeed, "rng", counting_rng)
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
            split=SplitPlan(30, 20, 40, RngSeed(2)),
        )
        assert len(run_panel(cfg).rows) == 15
        # one build for the report takes one generator; a build per pair
        # would take 15
        assert len(calls) == 1

    @pytest.mark.parametrize("iterations, draws", [(200, 1), (10_000, 8)])
    def test_each_block_is_drawn_once_per_table(self, synthetic_table, monkeypatch, iterations, draws):
        calls = count_calls(monkeypatch, RngSeed, "permutations")
        signs = count_calls(monkeypatch, gcorr, "_training_signs")
        by_x = count_calls(monkeypatch, gcorr, "_by_x")
        sweeps = count_calls(monkeypatch, gcorr, "_sweep")
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
            split=SplitPlan(30, 20, iterations, RngSeed(2)),
        )
        assert len(run_panel(cfg).rows) == 15
        # blocks of 1,310 iterations of n = 50, each drawn for all 15 pairs
        blocks = [(b.start, len(range(iterations)[b])) for b in core.row_blocks(iterations, 50)]
        assert [(start, count) for _, count, _, start in calls] == blocks and len(calls) == draws
        # per block one sign pass per dependent (3, not one per pair, 15),
        # and per panel one x pass per independent (5, not 15)
        assert len(signs) == 3 * draws and [k for _, k, *_ in signs[:3]] == [5, 6, 7]
        assert [k for _, k in by_x] == [0, 1, 2, 3, 4]
        # per block one sweep per independent and chunk of its dependents,
        # a chunk at most 65,536 // (50 * block) of them: at 200 iterations
        # all 3 (5 sweeps, not 15); at 10,000 one in each block (1,310 rows,
        # the last 830), where the cap binds
        if iterations == 200:
            assert [train.shape for *_, train in sweeps] == [(50, 3 * 200)] * 5
        else:
            assert blocks[0][1] == 1310 and len(sweeps) == 15 * draws
            assert [train.shape for *_, train in sweeps] == [(50, count) for _, count in blocks for _ in range(15)]

    @pytest.mark.parametrize("split", [None, SplitPlan(30, 20, 20, RngSeed(5))])
    def test_each_column_is_sorted_once_per_table(self, synthetic_table, monkeypatch, split):
        calls = count_stable_order(monkeypatch)
        run_id_calls = count_column_run_ids(monkeypatch)
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
            split=split,
        )
        assert len(run_panel(cfg).rows) == 15
        # 8 columns; one sort per pair and column would be 30
        assert len(calls) == 8
        assert len({id(v) for v in calls}) == 8
        # one run-id pass per column, inside its sort
        assert len(run_id_calls) == 8

    @pytest.mark.parametrize("split", [None, SplitPlan(30, 20, 20, RngSeed(5))])
    def test_a_5x3_panel_sorts_its_8_columns_in_one_call(self, synthetic_table, monkeypatch, split):
        calls = count_calls(monkeypatch, core, "stable_order")
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
            split=split,
        )
        assert len(run_panel(cfg).rows) == 15
        (block,) = (args[0] for args in calls)
        assert block.ndim == 2 and block.shape[0] == 8

    @pytest.mark.parametrize("split", [None, SplitPlan(30, 20, 20, RngSeed(5))])
    def test_each_column_is_checked_finite_once_per_table(self, synthetic_table, monkeypatch, split):
        calls = []
        check_finite = core._check_finite
        monkeypatch.setattr(core, "_check_finite", lambda a, what: calls.append(a) or check_finite(a, what))
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
            split=split,
        )
        assert len(run_panel(cfg).rows) == 15
        # 8 columns, checked as one (8, n) matrix; a check per pair and
        # column would be 30
        assert [(a.ndim, a.shape[0]) for a in calls] == [(2, 8)]

    def test_missing_column_is_fatal(self, synthetic_table):
        cfg = ExperimentConfig(
            input=synthetic_table, independents=("nope",), dependents=("dep0",)
        )
        with pytest.raises(InvalidParams):
            run_panel(cfg)

    def test_needs_columns(self, synthetic_table):
        with pytest.raises(InvalidParams):
            ExperimentConfig(input=synthetic_table, independents=(), dependents=("a",))
        # one string is not a collection of names: "ind0" is not ("i", "n", "d", "0")
        with pytest.raises(InvalidParams, match="independents must be a collection of column names"):
            ExperimentConfig(input=synthetic_table, independents="ind0", dependents=("dep0",))
        with pytest.raises(InvalidParams, match="dependents must be a collection of column names"):
            ExperimentConfig(input=synthetic_table, independents=("ind0",), dependents="dep0")
        assert ExperimentConfig(synthetic_table, ["ind0"], iter(["dep0"])).dependents == ("dep0",)

    def test_deterministic_report_bytes(self, synthetic_table):
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=("dep0",),
            split=SplitPlan(30, 20, 100, RngSeed(9)),
        )
        first = render_report(run_panel(cfg), "csv")
        second = render_report(run_panel(cfg), "csv")
        assert first == second
        assert render_report(run_panel(cfg), "json") == render_report(run_panel(cfg), "json")

    def test_degenerate_column_keeps_batch_alive(self, tmp_path):
        rng = seeded_rng(63)
        columns = {
            "flat": np.full(30, 2.0),
            "a": rng.normal(size=30),
            "dep": rng.normal(size=30),
        }
        path = tmp_path / "degenerate.csv"
        write_table(path, columns)
        cfg = ExperimentConfig(input=path, independents=("flat", "a"), dependents=("dep",))
        report = run_panel(cfg)
        assert len(report.rows) == 2
        flat_row = report.rows[0]
        assert not flat_row.panel.r.valid
        assert flat_row.panel.omega.value == 0.5
        assert report.rows[1].panel.r.valid


class TestRendering:
    def test_empty_report_is_header_only(self):
        data = render_report(PanelReport(rows=()), "csv")
        assert data.decode().strip() == "independent,dependent,r,rho,tau,kappa,ncc,omega,notes"

    def test_fifteen_rows_give_sixteen_lines(self, synthetic_table):
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=tuple(f"ind{i}" for i in range(5)),
            dependents=tuple(f"dep{j}" for j in range(3)),
        )
        data = render_report(run_panel(cfg), "csv")
        assert len(data.decode().strip().split("\n")) == 16

    def test_json_csv_json_round_trip(self, synthetic_table):
        cfg = ExperimentConfig(
            input=synthetic_table,
            independents=("ind0", "ind1"),
            dependents=("dep0", "dep1"),
        )
        report = run_panel(cfg)
        via_json = parse_report(render_report(report, "json"), "json")
        via_csv = parse_report(render_report(via_json, "csv"), "csv")
        assert [r.independent for r in via_csv.rows] == [r.independent for r in report.rows]
        for original, round_tripped in zip(report.rows, via_csv.rows):
            for name, pv in original.panel.as_dict().items():
                rt = round_tripped.panel.as_dict()[name]
                assert rt.valid == pv.valid
                if pv.valid:
                    assert rt.value == pv.value  # bit-exact through repr()

    def test_round_trip_preserves_invalid_and_notes(self):
        panel = compute_panel(PairedSample([1, 2, 3, 4], [5, 5, 5, 5]))
        report = PanelReport(rows=(PanelRow("x", "flat", panel),))
        rt = parse_report(render_report(report, "csv"), "csv")
        row = rt.rows[0].panel
        assert not row.r.valid
        assert row.omega.value == 0.5
        assert row.omega.note == "Y constant: uncorrelated"

    @pytest.mark.parametrize(
        "xs, ys, notes",
        [
            (np.full(20, 3.0), np.arange(20.0), {"r": "xs is constant; r undefined", "omega": "X constant: uncorrelated"}),
            (np.arange(20.0), np.full(20, 3.0), {"r": "ys is constant; r undefined", "omega": "Y constant: uncorrelated"}),
            (np.arange(5.0), np.arange(5.0) ** 2, {"ncc": "need at least b=10 points, got 5"}),
        ],
        ids=["constant-x", "constant-y", "n-below-b"],
    )
    def test_csv_notes_round_trip_byte_for_byte(self, xs, ys, notes):
        # a note may hold "; ", the separator of the notes cell
        report = PanelReport(rows=(PanelRow("x", "y", compute_panel(PairedSample(xs, ys))),))
        rendered = render_report(report, "csv")
        parsed = parse_report(rendered, "csv")
        assert render_report(parsed, "csv") == rendered
        got = {name: pv.note for name, pv in parsed.rows[0].panel.as_dict().items()}
        assert got == {name: pv.note for name, pv in report.rows[0].panel.as_dict().items()}
        assert {name: got[name] for name in notes} == notes

    def test_signed_values_stored(self):
        xs = seeded_rng(64).uniform(0, 10, 40)
        s = PairedSample(xs, -2 * xs + 3)
        report = PanelReport(rows=(PanelRow("x", "y", compute_panel(s)),))
        parsed = parse_report(render_report(report, "csv"), "csv")
        assert parsed.rows[0].panel.r.value == pytest.approx(-1.0, abs=1e-9)

    def test_unknown_format(self):
        with pytest.raises(InvalidParams):
            render_report(PanelReport(rows=()), "xml")


class TestParseReport:
    """A malformed report raises a typed error, with its 1-based row."""

    @pytest.fixture
    def report(self):
        xs = seeded_rng(65).normal(size=30)
        panels = [compute_panel(PairedSample(xs, xs * k + seeded_rng(66, k).normal(size=30))) for k in (1, 2)]
        return PanelReport(rows=tuple(PanelRow("x", f"y{k}", panel) for k, panel in enumerate(panels)))

    def csv_lines(self, report):
        return render_report(report, "csv").decode().splitlines()

    def parse_lines(self, lines):
        return parse_report(("\n".join(lines) + "\n").encode(), "csv")

    def json_payload(self, report):
        return json.loads(render_report(report, "json"))

    def parse_json(self, payload):
        return parse_report(json.dumps(payload).encode(), "json")

    def test_valid_reports_round_trip(self, report):
        for fmt in ("csv", "json"):
            data = render_report(report, fmt)
            assert render_report(parse_report(data, fmt), fmt) == data

    def test_short_csv_row(self, report):
        lines = self.csv_lines(report)
        lines[2] = ",".join(lines[2].split(",")[:5])
        with pytest.raises(ParseError, match="expected 9 cells, got 5") as info:
            self.parse_lines(lines)
        assert info.value.row == 2

    def test_csv_row_with_an_extra_cell(self, report):
        lines = self.csv_lines(report)
        lines[1] += ",extra"
        with pytest.raises(ParseError, match="expected 9 cells, got 10") as info:
            self.parse_lines(lines)
        assert info.value.row == 1

    def test_non_numeric_csv_cell(self, report):
        lines = self.csv_lines(report)
        cells = lines[2].split(",")
        cells[4] = "high"  # tau
        lines[2] = ",".join(cells)
        with pytest.raises(ParseError, match="not a number: 'high'") as info:
            self.parse_lines(lines)
        assert (info.value.row, info.value.column) == (2, "tau")

    def test_json_without_rows(self, report):
        payload = self.json_payload(report)
        del payload["rows"]
        with pytest.raises(ParseError) as info:
            self.parse_json(payload)
        assert (info.value.row, info.value.column) == (0, "rows")

    def test_json_row_without_coefficients(self, report):
        payload = self.json_payload(report)
        del payload["rows"][1]["coefficients"]
        with pytest.raises(ParseError, match="coefficients") as info:
            self.parse_json(payload)
        assert info.value.row == 2

    def test_json_array_payload(self, report):
        payload = self.json_payload(report)
        with pytest.raises(ParseError, match="not a JSON object"):
            self.parse_json(payload["rows"])

    def test_bytes_that_are_not_utf8(self, report):
        data = render_report(report, "csv").replace(b"x,y0", b"\xff,y0")
        for fmt in ("csv", "json"):
            with pytest.raises(ParseError, match="not UTF-8"):
                parse_report(data, fmt)

    def test_every_failure_is_a_corrkit_error(self, report):
        bad = [
            (b"independent,dependent\n", "csv"),
            (b"{not json", "json"),
            (json.dumps({"schema": "v0", "rows": []}).encode(), "json"),
            (json.dumps({"schema": "v1", "rows": [{"coefficients": {}}]}).encode(), "json"),
            (json.dumps({"schema": "v1", "rows": ["row"]}).encode(), "json"),
        ]
        for data, fmt in bad:
            with pytest.raises(CorrkitError):
                parse_report(data, fmt)
        # a json entry with a malformed flag, value or note: a ParseError
        # at its row and coefficient
        entries = [
            ({"valid": "false"}, "valid flag is not a boolean"),
            ({"valid": 1}, "valid flag is not a boolean"),
            ({"value": None}, "valid entry without a value"),
            ({"note": 7}, "note is not a string"),
            ({"note": None}, "note is not a string"),
        ]
        for edit, message in entries:
            payload = self.json_payload(report)
            payload["rows"][1]["coefficients"]["rho"].update(edit)
            with pytest.raises(ParseError, match=message) as info:
                self.parse_json(payload)
            assert (info.value.row, info.value.column) == (2, "rho"), edit
