"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Banded expectations were verified against independent oracles and
Monte-Carlo sweeps before being frozen here; exact expectations (== 1.0,
bit-identical reports) are asserted without tolerance.
"""

import time

import numpy as np
import pytest

from corrkit import (
    AllTied,
    ConstantX,
    ExperimentConfig,
    FamilySpec,
    MultiSample,
    PairedSample,
    RngSeed,
    SplitPlan,
    estimate_g,
    fechner,
    fit_g,
    fit_g_multi,
    g_objective,
    generate,
    kendall,
    ncc,
    pearson,
    preprocess_ties,
    rank_with_average_ties,
    render_report,
    run_panel,
    spearman,
)
from corrkit.errors import ShortSample

from test_classic import (
    kendall_enumeration_oracle,
    pearson_fraction_oracle,
    rank_oracle,
)
from test_gcorr import exhaustive_fit_oracle
from test_harness import write_table

ALL_FAMILIES = (
    "noise",
    "line",
    "curvilinear",
    "coarse_monotone",
    "sinusoid",
    "hetero_step",
    "step_plateau",
)


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:>2}: PASS — {message}")


def test_criterion_01_lemma4_range_suite():
    start = time.perf_counter()
    checked = 0
    for case in range(1000):
        rng = np.random.default_rng([1001, case])
        family = ALL_FAMILIES[case % len(ALL_FAMILIES)]
        n = int(rng.integers(4, 501))
        sample = generate(FamilySpec(family, n, RngSeed(case)))
        try:
            omega = fit_g(sample).omega
        except (AllTied, ConstantX, ShortSample):
            continue
        assert 0.5 <= omega <= 1.0, (family, n, case)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 990
    assert elapsed < 10.0
    _report(1, f"omega in [0.5, 1] on {checked} datasets in {elapsed:.2f}s")


def test_criterion_02_lemma6_strictly_monotonic():
    for case in range(100):
        rng = np.random.default_rng([1002, case])
        n = int(rng.integers(5, 300))
        xs = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.normal()
        slopes = rng.uniform(0.05, 5.0, n)
        ys = np.cumsum(slopes * np.diff(xs, prepend=xs[0] - 1.0))
        if case % 2:
            ys = -ys  # decreasing branch
        assert fit_g(PairedSample(xs, ys)).omega == 1.0, case
    _report(2, "omega == 1 exactly on 100 strictly monotonic functions")


def test_criterion_03_sweep_oracle_equivalence():
    checked = 0
    for case in range(500):
        rng = np.random.default_rng([1003, case])
        n = int(rng.integers(4, 201))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        if case % 3 == 0:
            xs = np.round(xs, 1)
        if case % 4 == 0:
            ys = np.round(ys, 1)
        sample = PairedSample(xs, ys)
        try:
            fit = fit_g(sample)
        except (AllTied, ConstantX):
            continue
        oracle_omega, oracle_c = exhaustive_fit_oracle(sample)
        assert fit.omega == oracle_omega, case
        assert fit.c == oracle_c, case
        checked += 1
    assert checked >= 480
    _report(3, f"fit matches exhaustive objective argmax on {checked} fuzz cases")


def test_criterion_04_straight_line_panel():
    up = generate(FamilySpec("line", 50, RngSeed(4), {"a": 2.0, "b": 1.0}))
    assert pearson(up) == pytest.approx(1.0, abs=1e-9)
    assert spearman(up) == 1.0
    assert kendall(up) == 1.0
    assert fechner(up).kappa == 1.0
    assert fit_g(up).omega == 1.0
    down = generate(FamilySpec("line", 50, RngSeed(4), {"a": -3.0, "b": 1.0}))
    assert pearson(down) == pytest.approx(-1.0, abs=1e-9)
    assert fechner(down).kappa == -1.0
    assert fit_g(down).omega == 1.0
    _report(4, "line panels: r=+/-1, rho=tau=kappa=+/-1, omega=1")


def test_criterion_05_fechner_blind_spot():
    worst_kappa = 0.0
    for seed in range(50):
        sample = generate(FamilySpec("step_plateau", 200, RngSeed(seed)))
        kappa = fechner(sample).kappa
        worst_kappa = max(worst_kappa, abs(kappa))
        assert abs(kappa) <= 0.1, seed
        assert fit_g(sample).omega == 1.0, seed
    _report(5, f"staircase: |kappa| <= {worst_kappa:.3f} while omega == 1, 50 seeds")


def test_criterion_06_sinusoid_contrast():
    worst = 0.0
    omega_min = 1.0
    for seed in range(20):
        sample = generate(FamilySpec("sinusoid", 400, RngSeed(seed)))
        values = (
            pearson(sample),
            spearman(sample),
            kendall(sample),
            fechner(sample).kappa,
        )
        worst = max(worst, max(abs(v) for v in values))
        assert all(abs(v) <= 0.15 for v in values), seed
        omega = fit_g(sample).omega
        omega_min = min(omega_min, omega)
        assert omega >= 0.65, seed
    _report(6, f"sinusoid: classic |coef| <= {worst:.3f}, omega >= {omega_min:.3f}, 20 seeds")


def test_criterion_07_heteroscedastic_contrast():
    ncc_max = 0.0
    for seed in range(20):
        sample = generate(FamilySpec("hetero_step", 200, RngSeed(seed)))
        assert fit_g(sample).omega == 1.0, seed
        value = ncc(sample)
        ncc_max = max(ncc_max, value)
        assert value <= 0.6, seed
    _report(7, f"hetero step: omega == 1 with NCC <= {ncc_max:.3f}, 20 seeds")


def test_criterion_08_ncc_endpoints_and_range():
    xs = np.arange(100.0)
    diagonal = PairedSample(xs, xs.copy())
    assert ncc(diagonal) == pytest.approx(1.0, abs=1e-12)
    uniform = PairedSample(xs, (xs % 10) * 10 + xs // 10)
    assert ncc(uniform) == pytest.approx(0.0, abs=1e-12)
    for case in range(1000):
        rng = np.random.default_rng([1008, case])
        n = int(rng.integers(10, 400))
        sample = PairedSample(rng.normal(size=n), rng.normal(size=n))
        value = ncc(sample)
        assert 0.0 <= value <= 1.0, case
    _report(8, "NCC endpoints exact to 1e-12; range held on 1000 fuzz datasets")


def test_criterion_09_affine_invariance_suite():
    for case in range(200):
        rng = np.random.default_rng([1009, case])
        n = int(rng.integers(10, 200))
        sample = PairedSample(rng.normal(size=n), rng.normal(size=n))
        a, d = float(rng.uniform(0.1, 6)), float(rng.uniform(-20, 20))
        a2, d2 = float(rng.uniform(0.1, 6)), float(rng.uniform(-20, 20))
        mapped = PairedSample(a * sample.xs + d, a2 * sample.ys + d2)
        assert abs(pearson(mapped) - pearson(sample)) <= 1e-9
        assert abs(spearman(mapped) - spearman(sample)) <= 1e-9
        assert abs(kendall(mapped) - kendall(sample)) <= 1e-9
        assert abs(fechner(mapped).kappa - fechner(sample).kappa) <= 1e-9
        assert abs(ncc(mapped) - ncc(sample)) <= 1e-9
        assert fit_g(mapped).omega == fit_g(sample).omega
    _report(9, "r, rho, tau, kappa, NCC within 1e-9 and omega exact on 200 affine maps")


def test_criterion_10_tie_handling():
    for case in range(50):
        rng = np.random.default_rng([1010, case])
        n = int(rng.integers(5, 60))
        xs = np.round(rng.normal(size=n), 1)
        ys = np.round(rng.normal(size=n), 1)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        sample = PairedSample(xs, ys)
        alpha = rank_oracle(list(xs))
        beta = rank_oracle(list(ys))
        np.testing.assert_array_equal(rank_with_average_ties(xs).ranks, alpha)
        expected_rho = pearson_fraction_oracle(alpha, beta)
        assert spearman(sample) == pytest.approx(expected_rho, abs=1e-12)
        assert kendall(sample) == kendall_enumeration_oracle(list(xs), list(ys))
    _report(10, "tied spearman matches rank-Pearson oracle; tied kendall exact")


def test_criterion_11_split_protocol_determinism_and_sanity():
    start = time.perf_counter()
    plan = SplitPlan(30, 20, 1000, RngSeed(9))

    xs = np.random.default_rng([1011]).uniform(0, 1, 50)
    monotone = PairedSample(xs, xs.copy())
    first = estimate_g(monotone, plan)
    second = estimate_g(monotone, plan)
    # an equal plan built afresh draws its own permutation matrix
    rebuilt = estimate_g(monotone, SplitPlan(30, 20, 1000, RngSeed(9)))
    assert first == second == rebuilt
    assert first[0] >= 0.95

    noise = generate(FamilySpec("noise", 50, RngSeed(3)))
    noise_mean, _ = estimate_g(noise, plan)
    assert estimate_g(noise, plan) == estimate_g(noise, SplitPlan(30, 20, 1000, RngSeed(9)))
    assert noise_mean <= 0.62
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        11,
        f"split protocol bit-identical across runs and rebuilt plans; "
        f"monotone mean {first[0]:.3f}, noise mean {noise_mean:.3f}, {elapsed:.2f}s",
    )


def test_criterion_12_multidimensional_reduction():
    checked = 0
    for case in range(200):
        rng = np.random.default_rng([1012, case])
        n = int(rng.integers(6, 150))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        try:
            expected = fit_g(PairedSample(xs, ys)).omega
        except (AllTied, ConstantX):
            continue
        assert fit_g_multi(MultiSample(xs.reshape(-1, 1), ys)).omega == expected
        checked += 1
    assert checked >= 190

    grid = np.arange(6.0)
    x1, x2 = np.meshgrid(grid, grid)
    rows = np.column_stack([x1.ravel(), x2.ravel()])
    separable = fit_g_multi(MultiSample(rows, rows.sum(axis=1)))
    assert separable.omega == 1.0
    _report(12, f"M=1 reduction exact on {checked} cases; separable plane omega == 1")


def test_criterion_13_harness_shape(tmp_path):
    rng = np.random.default_rng([1013])
    columns = {f"ind{i}": rng.normal(size=50) for i in range(5)}
    columns.update({f"dep{j}": rng.normal(size=50) for j in range(3)})
    path = tmp_path / "table.csv"
    write_table(path, columns)
    cfg = ExperimentConfig(
        input=path,
        independents=tuple(f"ind{i}" for i in range(5)),
        dependents=tuple(f"dep{j}" for j in range(3)),
        split=SplitPlan(30, 20, 100, RngSeed(9)),
    )
    report = run_panel(cfg)
    assert len(report.rows) == 15
    rendered = render_report(report, "csv")
    header = rendered.decode().split("\n", 1)[0]
    assert header == "independent,dependent,r,rho,tau,kappa,ncc,omega,notes"
    assert rendered == render_report(run_panel(cfg), "csv")
    _report(13, "5x3 table gives a deterministic 15-row report in table layout")
