import numpy as np
import pytest

from corrkit import (
    ExperimentConfig,
    FamilySpec,
    InvalidParams,
    PairedSample,
    PanelReport,
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
from corrkit.harness import PanelRow

from conftest import seeded_rng


def write_table(path, columns):
    names = list(columns)
    n = len(next(iter(columns.values())))
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(repr(float(columns[name][i])) for name in names))
    path.write_text("\n".join(lines) + "\n")


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
        assert len(calls) == 40

    def test_missing_column_is_fatal(self, synthetic_table):
        cfg = ExperimentConfig(
            input=synthetic_table, independents=("nope",), dependents=("dep0",)
        )
        with pytest.raises(InvalidParams):
            run_panel(cfg)

    def test_needs_columns(self, synthetic_table):
        with pytest.raises(InvalidParams):
            ExperimentConfig(input=synthetic_table, independents=(), dependents=("a",))

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

    def test_signed_values_stored(self):
        xs = seeded_rng(64).uniform(0, 10, 40)
        s = PairedSample(xs, -2 * xs + 3)
        report = PanelReport(rows=(PanelRow("x", "y", compute_panel(s)),))
        parsed = parse_report(render_report(report, "csv"), "csv")
        assert parsed.rows[0].panel.r.value == pytest.approx(-1.0, abs=1e-9)

    def test_unknown_format(self):
        with pytest.raises(InvalidParams):
            render_report(PanelReport(rows=()), "xml")
