import argparse
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
from corrkit import classic, core, harness
from corrkit.synth import FAMILY_DEFAULTS
from corrkit.cli import DEFAULT_SEED, build_parser, main

from conftest import count_calls, count_stable_order, seeded_rng
from test_classic import (
    kendall_comparison_oracle,
    opposite_extremes_sample,
    rank_while_loop_oracle,
)

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    def test_constant_column_leaves_ncc_undefined(self, const_y_csv, capsys):
        assert main(["compute", "--in", str(const_y_csv), "--coef", "ncc"]) == 2
        assert capsys.readouterr().err == "ncc: ys is constant; ncc undefined\n"

    def test_jsonl_integer_beyond_float_range_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.jsonl"
        path.write_text('{"x": 1' + "0" * 400 + ', "y": 3}\n{"x": 2, "y": 5}\n')
        assert main(["compute", "--in", str(path), "--coef", "r"]) == 2
        assert capsys.readouterr().err.startswith("corrkit: row 1: column 'x'")

    def test_jsonl_integer_literal_too_long_for_int_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "long.jsonl"
        path.write_text('{"x": 1' + "0" * 5000 + ', "y": 3}\n{"x": 2, "y": 5}\n')
        assert main(["compute", "--in", str(path), "--coef", "r"]) == 2
        assert capsys.readouterr().err.startswith("corrkit: row 1, column '': invalid JSON")

    def test_csv_field_over_the_tokenizer_limit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("x,y\n1,2\n2" + "0" * 139_999 + ",3\n")
        assert main(["compute", "--in", str(path), "--coef", "r"]) == 2
        assert capsys.readouterr().err.startswith("corrkit: row 2, column '': field larger")

    def test_repeated_header_name_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x,y,x\n1,2,3\n2,4,6\n3,6,9\n")
        assert main(["compute", "--in", str(path), "--coef", "r"]) == 2
        assert "duplicate column name" in capsys.readouterr().err


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

    def test_bad_cell_in_an_unrequested_column_is_not_read(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,junk,y\n1,oops,2\n2,,4\n3,nan,7\n")
        assert main(["compute", "--in", str(path), "--coef", "r", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_utf8_byte_order_mark_before_the_header(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffx,y\n1,2\n2,4\n3,5\n".encode("utf-8"))
        assert main(["compute", "--in", str(path), "--coef", "rho"]) == 0
        assert "rho" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "flags, golden",
        [
            (["--all"], "noise_compute_all.txt"),
            (["--all", "--json"], "noise_compute_all.json"),
            (
                ["--coef", "omega", "--train", "30", "--eval", "20", "--iters", "200",
                 "--seed", "9", "--json"],
                "noise_compute_omega_split.json",
            ),
        ],
    )
    def test_output_matches_golden_bytes(self, noise_csv, data_dir, capsys, flags, golden):
        assert main(["compute", "--in", str(noise_csv), *flags]) == 0
        assert capsys.readouterr().out == (data_dir / golden).read_text()

    def test_computes_only_the_requested_coefficients(self, noise_csv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("tau ran although it was not requested")

        # the registry entry is what computes tau for a cell
        monkeypatch.setitem(harness._COEFFICIENTS, "tau", refuse)
        assert main(["compute", "--in", str(noise_csv), "--coef", "r", "--coef", "omega"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["r", "omega"]

    @pytest.mark.parametrize("coefs, sorted_columns", [(["r"], 0), (["r", "omega"], 2), (["rho"], 2)])
    def test_sorts_only_the_columns_the_requested_coefficients_need(
        self, noise_csv, monkeypatch, capsys, coefs, sorted_columns
    ):
        calls = count_stable_order(monkeypatch)
        flags = [flag for name in coefs for flag in ("--coef", name)]
        assert main(["compute", "--in", str(noise_csv), *flags]) == 0
        assert len(calls) == sorted_columns

    def test_r_and_omega_sort_both_columns_in_one_call(self, noise_csv, monkeypatch, capsys):
        calls = count_calls(monkeypatch, core, "stable_order")
        assert main(["compute", "--in", str(noise_csv), "--coef", "r", "--coef", "omega"]) == 0
        assert [args[0].shape for args in calls] == [(2, 50)]

    def test_kappa_of_opposite_extremes(self, tmp_path, capsys):
        path = tmp_path / "extremes.csv"
        save_paired(opposite_extremes_sample(), path)
        assert main(["compute", "--in", str(path), "--coef", "kappa"]) == 0
        assert capsys.readouterr().out == "kappa = 0.0\n"

    def test_short_file_names_points(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        path.write_text("x,y\n1,2\n")
        assert main(["compute", "--in", str(path), "--coef", "r"]) == 2
        assert capsys.readouterr().err == "corrkit: need at least 2 points, got 1\n"

    def test_bad_bin_count_is_config_error(self, noise_csv, capsys):
        assert main(["compute", "--in", str(noise_csv), "--all", "--b", "1"]) == 2
        assert capsys.readouterr().err == "corrkit: bin count must be an integer >= 2, got 1\n"

    def test_rank_coefficients_on_twenty_thousand_rows(self, tmp_path, capsys):
        # the former O(n^2) tau needed seconds at this size; it now takes milliseconds
        rng = seeded_rng(72)
        xs = np.round(rng.normal(size=20_000), 2)  # ties in both columns
        ys = np.round(xs + rng.normal(size=20_000), 2)
        path = tmp_path / "large.csv"
        save_paired(PairedSample(xs, ys), path)
        code = main(["compute", "--in", str(path), "--coef", "tau", "--coef", "rho", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 20_000
        ranks = PairedSample(rank_while_loop_oracle(xs), rank_while_loop_oracle(ys))
        assert payload["coefficients"] == {
            "tau": kendall_comparison_oracle(xs, ys),
            "rho": classic.pearson(ranks),
        }

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

    def test_bad_cell_in_an_unrequested_column_is_not_read(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        rows = [{"a": float(i), "junk": "oops" if i == 2 else None, "t": float(i % 3)} for i in range(6)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code = main(["panel", "--in", str(path), "--independents", "a", "--dependents", "t"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 2

    @pytest.mark.parametrize(
        "fmt, iters, golden",
        [
            pytest.param("csv", 1000, "split_demo_panel.csv", id="csv"),
            pytest.param("json", 1000, "split_demo_panel.json", id="json"),
            # the demo's and the CLI's default run: its 10,000 iterations
            # span several blocks of the split engine
            pytest.param("csv", 10_000, "split_demo_panel_10k.csv", id="csv-10k"),
        ],
    )
    def test_split_demo_report_matches_golden_bytes(self, tmp_path, data_dir, fmt, iters, golden):
        demo = load_script("split_protocol_demo")
        table = tmp_path / "table.csv"
        demo.build_table(table, seed=9)
        out = tmp_path / f"report.{fmt}"
        argv = [
            "panel", "--in", str(table),
            "--independents", "speed,feed,rms,energy,counts", "--dependents", "ra,rmax,rz",
            "--train", "30", "--eval", "20", "--iters", str(iters), "--seed", "9",
            "--format", fmt, "--out", str(out),
        ]
        assert main(argv) == 0
        assert out.read_bytes() == (data_dir / golden).read_bytes()

    def test_iterations_beyond_one_entropy_word_are_a_data_error(self, line_csv, capsys):
        argv = [
            "panel", "--in", str(line_csv), "--independents", "x", "--dependents", "y",
            "--train", "30", "--eval", "20", "--iters", str(2**32),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("corrkit: iterations must be in [1, 2**32)")

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

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-1", "CORRKIT_SEED: seed must fit in 64 unsigned bits, got -1"),
            (
                "18446744073709551616",
                "CORRKIT_SEED: seed must fit in 64 unsigned bits, got 18446744073709551616",
            ),
            ("abc", "CORRKIT_SEED must be an integer, got 'abc'"),
        ],
    )
    def test_bad_env_seed_is_data_error(self, tmp_path, monkeypatch, capsys, value, message):
        monkeypatch.setenv("CORRKIT_SEED", value)
        out = tmp_path / "noise.csv"
        assert main(["synth", "--family", "noise", "--n", "16", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"corrkit: {message}\n"
        assert not out.exists()

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


class TestParserReuse:
    def test_a_shared_parser_answers_like_a_fresh_one(
        self, noise_csv, tmp_path, data_dir, monkeypatch, capsys
    ):
        table = tmp_path / "table.csv"
        load_script("split_protocol_demo").build_table(table, seed=9)
        panel = [
            "panel", "--in", str(table),
            "--independents", "speed,feed,rms,energy,counts", "--dependents", "ra,rmax,rz",
            "--train", "30", "--eval", "20", "--iters", "1000", "--seed", "9",
        ]
        steps = [
            (None, ["compute", "--in", str(noise_csv), "--coef", "r"]),
            (None, ["compute", "--in", str(noise_csv)]),
            (None, ["synth", "--family", "line", "--n", "8", "--seed", "1",
                    "--param", "a=2", "--param", "b=1", "--out", "{dir}/p.csv"]),
            (None, ["synth", "--family", "line", "--n", "8", "--seed", "1", "--out", "{dir}/d.csv"]),
            (None, ["compute", "--in", str(noise_csv), "--bogus"]),
            (None, ["--version"]),
            (None, ["compute", "--in", str(tmp_path / "nope.csv")]),
            ("60", ["-h"]),
            ("120", ["-h"]),
            (None, [*panel, "--out", "{dir}/panel.csv"]),
        ]

        def run(columns, argv, out_dir):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            code = main([arg.format(dir=out_dir) for arg in argv])
            return (code, *capsys.readouterr())

        shared_dir, fresh_dir = tmp_path / "shared", tmp_path / "fresh"
        shared_dir.mkdir()
        fresh_dir.mkdir()
        build_parser()
        shared = [run(columns, argv, shared_dir) for columns, argv in steps]
        fresh = []
        for columns, argv in steps:
            build_parser.cache_clear()
            fresh.append(run(columns, argv, fresh_dir))
        assert shared == fresh

        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 0, 0, 1, 0, 2, 0, 0, 0]
        # without --coef, all six print: the append list did not leak
        assert shared[1][1] == (data_dir / "noise_compute_all.txt").read_text()
        # without --param, the family's defaults
        expected = generate(FamilySpec("line", 8, RngSeed(1)))
        np.testing.assert_array_equal(load_paired(shared_dir / "d.csv").ys, expected.ys)
        # help is wrapped to the width at the time of each call
        assert shared[7][1] != shared[8][1]
        for name in ("p.csv", "d.csv"):
            assert (fresh_dir / name).read_bytes() == (shared_dir / name).read_bytes()
        golden = (data_dir / "split_demo_panel.csv").read_bytes()
        for out_dir in (shared_dir, fresh_dir):
            assert (out_dir / "panel.csv").read_bytes() == golden

    def test_one_parser_per_process(self, noise_csv, tmp_path, monkeypatch, capsys):
        build_parser.cache_clear()
        inits = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
        assert main(["compute", "--in", str(noise_csv), "--coef", "r"]) == 0
        assert main(["synth", "--family", "noise", "--n", "8", "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["compute", "--in", str(noise_csv), "--coef", "kappa"]) == 0
        # the top-level parser and its four subcommands, built once
        assert len(inits) == 5
        assert build_parser() is build_parser()


class TestScripts:
    def test_coefficient_comparison_prints_one_row_per_family(self, monkeypatch, capsys):
        comparison = load_script("coefficient_comparison")
        monkeypatch.setattr("sys.argv", ["coefficient_comparison.py", "--n", "40", "--seeds", "1"])
        comparison.main()
        header, rule, *rows = capsys.readouterr().out.rstrip("\n").split("\n")
        assert header.split() == ["family", "seed", "r", "rho", "tau", "kappa", "ncc", "omega"]
        assert rule == "-" * len(header)
        assert len(rows) == 7
        assert sorted(row.split()[0] for row in rows) == sorted(FAMILY_DEFAULTS)
