import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkit import (
    AllTied,
    ConstantX,
    Diagonal,
    FamilySpec,
    InvalidParams,
    MedianSide,
    PairedSample,
    RngSeed,
    SplitPlan,
    estimate_g,
    fit_g,
    g_objective,
    g_predict,
    generate,
    preprocess_ties,
    sample_median,
)
from corrkit.errors import ShortSample

from conftest import seeded_rng


# --- oracles -------------------------------------------------------------------


def quadrant_count_oracle(xs, ys, c, y_median):
    """Naive point-by-point classification."""
    c1p = c1m = c2p = c2m = 0
    for x, y in zip(xs, ys):
        if y > y_median:
            if x > c:
                c1p += 1
            else:
                c1m += 1
        elif y < y_median:
            if x > c:
                c2p += 1
            else:
                c2m += 1
    return c1p, c1m, c2p, c2m


def objective_oracle(xs, ys, c, y_median):
    c1p, c1m, c2p, c2m = quadrant_count_oracle(xs, ys, c, y_median)
    return max(c1p + c2m, c1m + c2p) / len(xs)


def exhaustive_fit_oracle(sample):
    """Evaluate g_objective at the sentinel and every successive midpoint;
    first maximum wins (candidates are scanned in increasing c order)."""
    reduced, _, y_median = preprocess_ties(sample)
    xs = np.sort(reduced.xs, kind="stable")
    candidates = [2.0 * xs[0] - xs[-1]] + list(0.5 * (xs[:-1] + xs[1:]))
    best_g, best_c = -1.0, None
    for c in candidates:
        g, _, _ = g_objective(reduced, float(c), y_median)
        if g > best_g:
            best_g, best_c = g, float(c)
    return best_g, best_c


def scalar_fit_reference(xs, ys):
    """The scalar fit the batched sweep replaced: tie removal, stable sort,
    searchsorted left counts. Returns (c, y_median)."""
    y_median = sample_median(ys)
    keep = ys != y_median
    if not keep.any():
        raise AllTied("every y equals the median")
    xs, ys = xs[keep], ys[keep]
    if xs.shape[0] < 2 or np.all(xs == xs[0]):
        raise ConstantX("x carries no variation")
    n = xs.shape[0]
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    below = ys[order] < y_median
    n_above = int((~below).sum())
    cum_below = np.concatenate(([0], np.cumsum(below)))
    cum_above = np.concatenate(([0], np.cumsum(~below)))
    midpoints = 0.5 * (xs_sorted[:-1] + xs_sorted[1:])
    candidates = np.concatenate(([2.0 * xs_sorted[0] - xs_sorted[-1]], midpoints))
    left = np.concatenate(([0], np.searchsorted(xs_sorted, midpoints, side="right")))
    diag_main = cum_below[left] + (n_above - cum_above[left])
    best = int(np.argmax(np.maximum(diag_main, n - diag_main)))
    return float(candidates[best]), y_median


def estimate_iteration_reference(xs, ys, q, seed, i):
    """One split iteration, fitted and scored one point at a time."""
    perm = seed.rng(i).permutation(xs.shape[0])
    train, evaluation = perm[:q], perm[q:]
    try:
        c, y_median = scalar_fit_reference(xs[train], ys[train])
    except (AllTied, ConstantX):
        # degenerate training partition: uncorrelated for sure
        return 0.5
    return objective_oracle(xs[evaluation], ys[evaluation], c, y_median)


def estimate_g_reference(s, plan):
    values = [
        estimate_iteration_reference(s.xs, s.ys, plan.train_size, plan.seed, i)
        for i in range(plan.iterations)
    ]
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=0))


def random_fuzz_sample(case, max_n=200):
    rng = seeded_rng(40, case)
    n = int(rng.integers(4, max_n + 1))
    xs = rng.normal(size=n)
    ys = rng.normal(size=n)
    if case % 3 == 0:
        xs = np.round(xs, 1)
    if case % 4 == 0:
        ys = np.round(ys, 1)
    return PairedSample(xs, ys)


# --- preprocessing -------------------------------------------------------------


class TestPreprocessTies:
    def test_odd_n_removes_middle(self):
        reduced, removed, y_median = preprocess_ties(PairedSample([1, 2, 3], [1, 2, 3]))
        assert removed == 1
        assert y_median == 2.0
        np.testing.assert_array_equal(reduced.ys, [1.0, 3.0])

    def test_even_n_removes_nothing(self):
        reduced, removed, y_median = preprocess_ties(
            PairedSample([1, 2, 3, 4], [1, 2, 3, 4])
        )
        assert removed == 0
        assert y_median == 2.5
        assert reduced.n == 4

    def test_all_tied(self):
        with pytest.raises(AllTied):
            preprocess_ties(PairedSample([1, 2, 3], [7, 7, 7]))

    def test_median_from_original_sample(self):
        # median of [1, 2, 2, 9] = 2; both 2s go, remaining ys [1, 9]
        reduced, removed, y_median = preprocess_ties(
            PairedSample([1, 2, 3, 4], [1, 2, 2, 9])
        )
        assert y_median == 2.0
        assert removed == 2
        np.testing.assert_array_equal(reduced.ys, [1.0, 9.0])

    def test_single_survivor_raises_short_sample(self):
        with pytest.raises(ShortSample):
            preprocess_ties(PairedSample([1, 2, 3], [5, 5, 9]))


# --- objective ------------------------------------------------------------------


class TestGObjective:
    def test_monotone_crossing_cut_gives_one(self):
        xs = np.arange(1.0, 21.0)
        s = PairedSample(xs, xs.copy())
        reduced, _, y_median = preprocess_ties(s)
        g, counts, diagonal = g_objective(reduced, 10.5, y_median)
        assert g == 1.0
        assert diagonal is Diagonal.MAIN
        assert counts.c1_minus == 0 and counts.c2_plus == 0

    def test_empty_left_split_gives_half(self):
        xs = np.arange(1.0, 21.0)
        s = PairedSample(xs, xs.copy())
        reduced, _, y_median = preprocess_ties(s)
        g, _, _ = g_objective(reduced, 0.0, y_median)
        assert g == 0.5

    def test_matches_counting_oracle(self):
        rng = seeded_rng(41)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        s = PairedSample(xs, ys)
        y_median = sample_median(ys)
        for c in [-2.0, -0.5, 0.0, 0.3, 1.7, float(xs.min()) - 1]:
            g, counts, _ = g_objective(s, c, y_median)
            oc1p, oc1m, oc2p, oc2m = quadrant_count_oracle(xs, ys, c, y_median)
            assert (counts.c1_plus, counts.c1_minus, counts.c2_plus, counts.c2_minus) == (
                oc1p,
                oc1m,
                oc2p,
                oc2m,
            )
            assert g == objective_oracle(xs, ys, c, y_median)

    def test_boundary_point_goes_left(self):
        s = PairedSample([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 1.0, 2.0])
        _, counts, _ = g_objective(s, 2.0, 3.5)
        # x == 2.0 is on the left side
        assert counts.c1_minus == 2
        assert counts.c2_plus == 2

    def test_tie_between_sums_reports_main(self):
        s = PairedSample([1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 6.0, 2.0])
        g, _, diagonal = g_objective(s, 2.5, 3.5)
        assert g == 0.5
        assert diagonal is Diagonal.MAIN

    def test_range_lemma_on_preprocessed_samples(self):
        for case in range(50):
            s = random_fuzz_sample(case, max_n=80)
            try:
                reduced, _, y_median = preprocess_ties(s)
            except (AllTied, ShortSample):
                continue
            rng = seeded_rng(42, case)
            for c in rng.uniform(reduced.xs.min() - 1, reduced.xs.max() + 1, 5):
                g, _, _ = g_objective(reduced, float(c), y_median)
                assert 0.5 <= g <= 1.0

    def test_complement_identity(self):
        for case in range(30):
            s = random_fuzz_sample(case, max_n=60)
            try:
                reduced, _, y_median = preprocess_ties(s)
            except (AllTied, ShortSample):
                continue
            if reduced.n % 2:
                continue
            rng = seeded_rng(43, case)
            c = float(rng.uniform(reduced.xs.min(), reduced.xs.max()))
            counts = g_objective(reduced, c, y_median)[1]
            n = reduced.n
            main = (counts.c1_plus + counts.c2_minus) / n
            anti = (counts.c1_minus + counts.c2_plus) / n
            assert main == pytest.approx(1.0 - anti, abs=1e-12)


# --- fitting --------------------------------------------------------------------


class TestFitG:
    def test_identity_line(self):
        xs = np.arange(1.0, 21.0)
        fit = fit_g(PairedSample(xs, xs.copy()))
        assert fit.omega == 1.0
        assert fit.c == 10.5  # between the 10th and 11th x order statistics
        assert fit.dominant_diagonal is Diagonal.MAIN
        assert fit.removed_ties == 0

    def test_decreasing_line(self):
        xs = np.arange(1.0, 21.0)
        fit = fit_g(PairedSample(xs, -xs))
        assert fit.omega == 1.0
        assert fit.dominant_diagonal is Diagonal.ANTI

    def test_independent_noise_band(self):
        # Monte-Carlo band [0.5, 0.58] verified over 200 seeds of this family
        s = generate(FamilySpec("noise", 500, RngSeed(3)))
        assert 0.5 <= fit_g(s).omega <= 0.58

    def test_heteroscedastic_step_is_one(self):
        s = generate(FamilySpec("hetero_step", 200, RngSeed(11)))
        assert fit_g(s).omega == 1.0

    def test_sinusoid_band(self):
        s = generate(FamilySpec("sinusoid", 400, RngSeed(0)))
        assert fit_g(s).omega >= 0.65

    def test_constant_x(self):
        with pytest.raises(ConstantX):
            fit_g(PairedSample([2, 2, 2, 2], [1, 2, 3, 4]))

    def test_cut_near_float_max_does_not_overflow(self):
        # 0.5 * (a + b) overflowed here, giving c = inf and omega = 0.5
        fit = fit_g(PairedSample([1.0e308, 1.5e308, 1.7e308, 1.75e308], [1, 2, 3, 4]))
        assert fit.omega == 1.0
        assert 1.5e308 < fit.c < 1.7e308

    def test_overflowing_sentinel_stays_finite_below_min(self):
        # every cut scores 0.5, so the sentinel wins; 2*min - max overflows
        xs = [-1.7e308, -1.7e308, 1.7e308, 1.7e308]
        fit = fit_g(PairedSample(xs, [1, 4, 2, 3]))
        assert fit.omega == 0.5
        assert np.isfinite(fit.c) and fit.c < min(xs)
        assert fit.counts.c1_minus + fit.counts.c2_minus == 0

    def test_constant_y_propagates_all_tied(self):
        with pytest.raises(AllTied):
            fit_g(PairedSample([1, 2, 3, 4], [5, 5, 5, 5]))

    def test_matches_exhaustive_oracle(self):
        checked = 0
        for case in range(120):
            s = random_fuzz_sample(case)
            try:
                fit = fit_g(s)
            except (AllTied, ConstantX):
                continue
            og, oc = exhaustive_fit_oracle(s)
            assert fit.omega == og, case
            assert fit.c == oc, case
            checked += 1
        assert checked > 100

    def test_counts_consistent_with_objective(self):
        for case in range(20):
            s = random_fuzz_sample(case, max_n=60)
            try:
                fit = fit_g(s)
            except (AllTied, ConstantX):
                continue
            reduced, _, _ = preprocess_ties(s)
            g, counts, diagonal = g_objective(reduced, fit.c, fit.y_median)
            assert g == fit.omega
            assert counts == fit.counts
            assert diagonal is fit.dominant_diagonal

    def test_lemma_range_on_fuzz(self):
        for case in range(150):
            s = random_fuzz_sample(case, max_n=120)
            try:
                fit = fit_g(s)
            except (AllTied, ConstantX):
                continue
            assert 0.5 <= fit.omega <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_strictly_monotone_gives_one(self, seed):
        # random strictly monotone piecewise-linear function of random x
        rng = np.random.default_rng([555, seed])
        n = int(rng.integers(4, 120))
        xs = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.normal()
        slopes = rng.uniform(0.1, 3.0, n)
        increments = slopes * np.diff(xs, prepend=xs[0] - 1.0)
        ys = np.cumsum(increments)
        if seed % 2:
            ys = -ys
        fit = fit_g(PairedSample(xs, ys))
        assert fit.omega == 1.0
        # fitted cut brackets the median crossing
        below = xs[ys < fit.y_median] if seed % 2 == 0 else xs[ys > fit.y_median]
        above = xs[ys > fit.y_median] if seed % 2 == 0 else xs[ys < fit.y_median]
        assert below.max() <= fit.c <= above.min()

    def test_asymmetry_witness_on_hetero_step(self):
        for seed in (1, 11, 25):
            s = generate(FamilySpec("hetero_step", 200, RngSeed(seed)))
            assert fit_g(s).omega == 1.0
            assert fit_g(s.swapped()).omega < 1.0

    def test_affine_invariance_exact_omega(self):
        for case in range(40):
            s = random_fuzz_sample(case, max_n=100)
            rng = seeded_rng(44, case)
            a, d = float(rng.uniform(0.1, 5)), float(rng.uniform(-10, 10))
            a2, d2 = float(rng.uniform(0.1, 5)), float(rng.uniform(-10, 10))
            mapped = PairedSample(a * s.xs + d, a2 * s.ys + d2)
            try:
                fit = fit_g(s)
            except (AllTied, ConstantX):
                continue
            mapped_fit = fit_g(mapped)
            assert mapped_fit.omega == fit.omega
            expected_c = a * fit.c + d
            assert mapped_fit.c == pytest.approx(expected_c, rel=1e-9, abs=1e-9)


# --- estimation ------------------------------------------------------------------


class TestEstimateG:
    def test_monotone_data_high_mean(self):
        xs = seeded_rng(45).uniform(0, 1, 50)
        s = PairedSample(xs, xs.copy())
        mean, stddev = estimate_g(s, SplitPlan(30, 20, 100, RngSeed(9)))
        assert mean >= 0.95

    def test_noise_band(self):
        # verified band over seeds 0..11 of this construction: [0.57, 0.61]
        s = generate(FamilySpec("noise", 50, RngSeed(3)))
        mean, stddev = estimate_g(s, SplitPlan(30, 20, 1000, RngSeed(3)))
        assert 0.5 <= mean <= 0.62
        assert stddev > 0.0

    def test_train_size_equal_to_n_rejected(self):
        s = PairedSample(np.arange(10.0), np.arange(10.0))
        with pytest.raises(InvalidParams):
            estimate_g(s, SplitPlan(10, 1, 10, RngSeed(0)))

    def test_plan_must_cover_sample(self):
        s = PairedSample(np.arange(10.0), np.arange(10.0))
        with pytest.raises(InvalidParams):
            estimate_g(s, SplitPlan(5, 3, 10, RngSeed(0)))

    @given(
        st.integers(4, 80).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_scalar_reference_on_heavy_ties(self, columns, seed):
        s = PairedSample(*columns)
        for q in range(2, s.n):
            plan = SplitPlan(q, s.n - q, 6, RngSeed(seed))
            assert estimate_g(s, plan) == estimate_g_reference(s, plan), q
        try:
            expected = scalar_fit_reference(s.xs, s.ys)
        except (AllTied, ConstantX) as exc:
            with pytest.raises(type(exc)):
                fit_g(s)
        else:
            fit = fit_g(s)
            assert (fit.c, fit.y_median) == expected

    def test_matches_scalar_reference_at_the_30_20_split(self):
        for case in range(6):
            s = generate(FamilySpec("coarse_monotone", 50, RngSeed(case)))
            plan = SplitPlan(30, 20, 300, RngSeed(case))
            assert estimate_g(s, plan) == estimate_g_reference(s, plan)

    def test_permutation_matrix_rows_are_the_seeded_streams(self):
        plan = SplitPlan(3, 2, 7, RngSeed(5))
        perms = plan.permutations
        assert perms.shape == (7, 5)
        for i, row in enumerate(perms):
            np.testing.assert_array_equal(row, RngSeed(5).rng(i).permutation(5))
        assert not perms.flags.writeable
        assert plan.permutations is perms

    def test_deterministic_across_runs_and_workers(self):
        s = generate(FamilySpec("coarse_monotone", 50, RngSeed(4)))
        plan = SplitPlan(30, 20, 200, RngSeed(7))
        first = estimate_g(s, plan)
        second = estimate_g(s, plan)
        threaded = estimate_g(s, plan, workers=4)
        assert first == second == threaded

    def test_degenerate_training_partitions_contribute_half(self):
        # constant y: every training fit degenerates, so the mean is 0.5
        s = PairedSample(np.arange(10.0), np.full(10, 3.0))
        mean, stddev = estimate_g(s, SplitPlan(6, 4, 50, RngSeed(1)))
        assert mean == 0.5
        assert stddev == 0.0

    def test_plan_validation(self):
        with pytest.raises(InvalidParams):
            SplitPlan(0, 5, 10, RngSeed(0))
        with pytest.raises(InvalidParams):
            SplitPlan(5, 5, 0, RngSeed(0))


class TestGPredict:
    def test_main_diagonal(self):
        fit = fit_g(PairedSample(np.arange(-5.0, 5.0), np.arange(-5.0, 5.0)))
        assert g_predict(fit.c + 1.0, fit) is MedianSide.ABOVE_MEDIAN
        assert g_predict(fit.c - 1.0, fit) is MedianSide.BELOW_MEDIAN

    def test_anti_diagonal(self):
        fit = fit_g(PairedSample(np.arange(-5.0, 5.0), -np.arange(-5.0, 5.0)))
        assert g_predict(fit.c + 1.0, fit) is MedianSide.BELOW_MEDIAN
        assert g_predict(fit.c - 1.0, fit) is MedianSide.ABOVE_MEDIAN

    def test_perfect_accuracy_on_monotone_fit(self):
        xs = seeded_rng(46).uniform(0, 10, 40)
        s = PairedSample(xs, xs.copy())
        fit = fit_g(s)
        reduced, _, _ = preprocess_ties(s)
        for x, y in zip(reduced.xs, reduced.ys):
            predicted = g_predict(float(x), fit)
            actual = (
                MedianSide.ABOVE_MEDIAN if y > fit.y_median else MedianSide.BELOW_MEDIAN
            )
            assert predicted is actual
