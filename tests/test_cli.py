import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from corrkit import (
    FamilySpec,
    PairedSample,
    RngSeed,
    SplitPlan,
    estimate_g,
    fit_g,
    generate,
    load_paired,
    save_paired,
)
from corrkit.cli import DEFAULT_SEED, main

from conftest import seeded_rng

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def line_csv(tmp_path):
    xs = seeded_rng(70).uniform(0, 10, 50)
    path = tmp_path / "line.csv"
    save_paired(PairedSample(xs, 2 * xs + 1), path)
    return path


@pytest.fixture
def noise_csv(tmp_path):
    path = tmp_path / "noise.csv"
    save_paired(generate(FamilySpec("noise", 50, RngSeed(3))), path)
    return path


@pytest.fixture
def const_y_csv(tmp_path):
    path = tmp_path / "const_y.csv"
    path.write_text("x,y\n" + "".join(f"{i},5\n" for i in range(10)))
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, line_csv, capsys):
        assert main(["compute", "--in", str(line_csv), "--bogus"]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["compute", "--in", str(tmp_path / "nope.csv"), "--all"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_degenerate_input_names_coefficient(self, const_y_csv, capsys):
        code = main(["compute", "--in", str(const_y_csv), "--coef", "r"])
        assert code == 2
        assert "r:" in capsys.readouterr().err


class TestCompute:
    def test_all_panel_on_line(self, line_csv, capsys):
        assert main(["compute", "--in", str(line_csv), "--all"]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().split("\n"):
            name, rest = line.split("=", 1)
            values[name.strip()] = float(rest.strip().split()[0])
        assert values["r"] == pytest.approx(1.0, abs=1e-9)
        assert values["kappa"] == 1.0
        assert values["omega"] == 1.0

    def test_json_output_schema(self, line_csv, capsys):
        assert main(["compute", "--in", str(line_csv), "--all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "v1"
        assert payload["n"] == 50
        assert payload["coefficients"]["omega"] == 1.0

    def test_split_flags_match_estimate_g(self, noise_csv, capsys):
        code = main(
            [
                "compute", "--in", str(noise_csv), "--coef", "omega",
                "--train", "30", "--eval", "20", "--iters", "200", "--seed", "9",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sample = load_paired(noise_csv)
        expected = estimate_g(sample, SplitPlan(30, 20, 200, RngSeed(9)))
        assert payload["coefficients"]["omega_mean"] == expected[0]
        assert payload["coefficients"]["omega_stddev"] == expected[1]

    def test_constant_y_omega_is_half_with_note(self, const_y_csv, capsys):
        assert main(["compute", "--in", str(const_y_csv), "--coef", "omega"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out
        assert "Y constant: uncorrelated" in out


class TestPanel:
    def test_csv_report_to_stdout(self, tmp_path, capsys):
        rng = seeded_rng(71)
        path = tmp_path / "table.csv"
        lines = ["a,b,target"]
        for i in range(40):
            lines.append(f"{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}")
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["panel", "--in", str(path), "--independents", "a,b", "--dependents", "target"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("independent,dependent,r,rho,tau,kappa,ncc,omega,notes")
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_split_demo_report_matches_golden_bytes(self, tmp_path, data_dir, fmt):
        spec = importlib.util.spec_from_file_location(
            "split_protocol_demo", SCRIPTS_DIR / "split_protocol_demo.py"
        )
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        table = tmp_path / "table.csv"
        demo.build_table(table, seed=9)
        out = tmp_path / f"report.{fmt}"
        argv = [
            "panel", "--in", str(table),
            "--independents", "speed,feed,rms,energy,counts", "--dependents", "ra,rmax,rz",
            "--train", "30", "--eval", "20", "--iters", "1000", "--seed", "9",
            "--format", fmt, "--out", str(out),
        ]
        assert main(argv) == 0
        assert out.read_bytes() == (data_dir / f"split_demo_panel.{fmt}").read_bytes()

    def test_abs_flag_changes_view_only(self, tmp_path, capsys):
        xs = seeded_rng(72).uniform(0, 10, 30)
        path = tmp_path / "neg.csv"
        lines = ["x,y"] + [f"{float(x)!r},{float(-2 * x + 1)!r}" for x in xs]
        path.write_text("\n".join(lines) + "\n")
        main(["panel", "--in", str(path), "--independents", "x", "--dependents", "y"])
        plain = capsys.readouterr().out
        main(["panel", "--in", str(path), "--independents", "x", "--dependents", "y", "--abs"])
        absolute = capsys.readouterr().out
        assert "-1.0" in plain
        assert "-1.0" not in absolute

    def test_out_file(self, tmp_path, line_csv):
        out = tmp_path / "report.json"
        code = main(
            [
                "panel", "--in", str(line_csv), "--independents", "x",
                "--dependents", "y", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "v1"


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "line.csv"
        code = main(
            ["synth", "--family", "line", "--n", "20", "--seed", "1",
             "--param", "a=2", "--param", "b=1", "--out", str(out)]
        )
        assert code == 0
        sample = load_paired(out)
        expected = generate(FamilySpec("line", 20, RngSeed(1), {"a": 2.0, "b": 1.0}))
        np.testing.assert_array_equal(sample.xs, expected.xs)
        np.testing.assert_array_equal(sample.ys, expected.ys)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRKIT_SEED", "77")
        out = tmp_path / "noise.csv"
        assert main(["synth", "--family", "noise", "--n", "16", "--out", str(out)]) == 0
        sample = load_paired(out)
        expected = generate(FamilySpec("noise", 16, RngSeed(77)))
        np.testing.assert_array_equal(sample.xs, expected.xs)

    def test_default_seed_documented_constant(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CORRKIT_SEED", raising=False)
        out = tmp_path / "noise.csv"
        assert main(["synth", "--family", "noise", "--n", "16", "--out", str(out)]) == 0
        expected = generate(FamilySpec("noise", 16, RngSeed(DEFAULT_SEED)))
        np.testing.assert_array_equal(load_paired(out).xs, expected.xs)

    def test_bad_param_is_data_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["synth", "--family", "line", "--n", "8", "--param", "a", "--out", str(out)]) == 2


class TestPlot:
    def test_svg_has_exactly_two_separator_lines(self, tmp_path):
        out = tmp_path / "sin.svg"
        code = main(
            ["plot", "--family", "sinusoid", "--n", "200", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.count("<line") == 2
        assert svg.count("<circle") == 200

    def test_hetero_annotation_shows_empty_quadrant_pair(self, tmp_path):
        out = tmp_path / "hetero.svg"
        assert main(
            ["plot", "--family", "hetero_step", "--n", "200", "--seed", "11", "--out", str(out)]
        ) == 0
        svg = out.read_text()
        fit = fit_g(generate(FamilySpec("hetero_step", 200, RngSeed(11))))
        assert fit.counts.c1_minus == 0 and fit.counts.c2_plus == 0
        assert "C1-: 0" in svg
        assert "C2+: 0" in svg

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            main(["plot", "--family", "noise", "--n", "64", "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_constant_y_after_tie_removal_exits_2(self, const_y_csv, tmp_path, capsys):
        out = tmp_path / "flat.svg"
        assert main(["plot", "--in", str(const_y_csv), "--out", str(out)]) == 2

    def test_plot_from_file(self, line_csv, tmp_path):
        out = tmp_path / "line.svg"
        assert main(["plot", "--in", str(line_csv), "--out", str(out)]) == 0
        assert out.read_text().count("<line") == 2
