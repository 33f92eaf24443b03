import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkit import (
    DegenerateVariance,
    MeanSide,
    PairedSample,
    UndefinedDirection,
    fechner,
    fechner_predict,
    kendall,
    pearson,
    rank_with_average_ties,
    spearman,
)
from corrkit import classic
from corrkit.classic import fechner_table
from corrkit.errors import EmptyInput

from conftest import seeded_rng


# --- independent oracles -----------------------------------------------------


def pearson_fraction_oracle(xs, ys):
    """Direct-formula evaluation in exact rational arithmetic."""
    fx = [Fraction(v) for v in xs]
    fy = [Fraction(v) for v in ys]
    n = len(fx)
    mx = sum(fx) / n
    my = sum(fy) / n
    num = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    dx = sum((a - mx) ** 2 for a in fx)
    dy = sum((b - my) ** 2 for b in fy)
    return float(num) / math.sqrt(float(dx) * float(dy))


def rank_oracle(values):
    """Sort positions, then average positions across each tie group."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(indexed):
        end = pos
        while end < len(indexed) and values[indexed[end]] == values[indexed[pos]]:
            end += 1
        avg = sum(range(pos + 1, end + 1)) / (end - pos)
        for k in range(pos, end):
            ranks[indexed[k]] = avg
        pos = end
    return ranks


def kendall_enumeration_oracle(xs, ys):
    n = len(xs)
    total = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            prod = (xs[j] - xs[i]) * (ys[j] - ys[i])
            total += 1 if prod > 0 else (-1 if prod < 0 else 0)
    return 2.0 * total / (n * (n - 1))


def kendall_sign_loop_oracle(xs, ys):
    """The former O(n^2) ``kendall``: one row of sign products per point."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.shape[0]
    total = 0
    for i in range(n - 1):
        dx = np.sign(xs[i + 1 :] - xs[i])
        dy = np.sign(ys[i + 1 :] - ys[i])
        total += int(np.sum(dx * dy))
    return 2.0 * total / (n * (n - 1))


def kendall_comparison_oracle(xs, ys):
    """Sign products from comparisons, (a > b) - (a < b), one row per
    point: no subtraction, so it holds at any finite magnitude."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.shape[0]
    total = 0
    for i in range(n - 1):
        sx = (xs[i + 1 :] > xs[i]).astype(np.int64) - (xs[i + 1 :] < xs[i])
        sy = (ys[i + 1 :] > ys[i]).astype(np.int64) - (ys[i + 1 :] < ys[i])
        total += int(sx @ sy)
    return 2.0 * total / (n * (n - 1))


def rank_while_loop_oracle(values):
    """The former ``rank_with_average_ties``: a stable sort, then one
    Python while-loop step per tie group."""
    a = np.atleast_1d(np.asarray(values, dtype=np.float64))
    n = a.shape[0]
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i + 1
        while j < n and sorted_a[j] == sorted_a[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return ranks


@st.composite
def tie_heavy_pairs(draw):
    """Small-integer x and y, n 2-80; a width of 0 makes a column all tied."""
    n = draw(st.integers(2, 80))
    columns = []
    for _ in range(2):
        width = draw(st.integers(0, 6))
        columns.append(draw(st.lists(st.integers(0, width), min_size=n, max_size=n)))
    return columns


FLOAT_MAX = np.finfo(np.float64).max
EXTREMES = [-FLOAT_MAX, -1.7e308, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 1.0,
            1e308, 1.7e308, FLOAT_MAX]


@st.composite
def extreme_pairs(draw):
    n = draw(st.integers(2, 40))
    values = st.lists(st.sampled_from(EXTREMES), min_size=n, max_size=n)
    return draw(values), draw(values)


def fechner_direct_oracle(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sign = lambda u: 1.0 if u >= 0 else -1.0
    return sum(sign(x - mx) * sign(y - my) for x, y in zip(xs, ys)) / len(xs)


def pearson_of_ranks_oracle(xs, ys):
    return pearson_fraction_oracle(rank_oracle(list(xs)), rank_oracle(list(ys)))


# --- pearson -----------------------------------------------------------------


class TestPearson:
    def test_positive_line(self):
        xs = np.arange(1.0, 11.0)
        assert pearson(PairedSample(xs, 2 * xs + 1)) == pytest.approx(1.0, abs=1e-9)

    def test_negative_line(self):
        xs = np.arange(1.0, 11.0)
        assert pearson(PairedSample(xs, -3 * xs)) == pytest.approx(-1.0, abs=1e-9)

    def test_against_direct_formula_oracle(self):
        s = PairedSample([1, 2, 3, 4], [2, 1, 4, 3])
        # exact rational evaluation of the defining formula gives 3/5
        assert pearson_fraction_oracle([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)
        assert pearson(s) == pytest.approx(0.6, abs=1e-12)

    def test_random_against_oracle(self):
        rng = seeded_rng(10)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        expected = pearson_fraction_oracle(list(xs), list(ys))
        assert pearson(PairedSample(xs, ys)) == pytest.approx(expected, abs=1e-12)

    def test_constant_x(self):
        with pytest.raises(DegenerateVariance):
            pearson(PairedSample([1, 1, 1], [1, 2, 3]))

    def test_constant_y(self):
        with pytest.raises(DegenerateVariance):
            pearson(PairedSample([1, 2, 3], [5, 5, 5]))

    def test_huge_magnitudes_do_not_overflow(self):
        # dx @ dx overflowed to inf here and the NaN ratio was clamped to -1
        xs = [1e200, 2e200, 3e200]
        assert pearson(PairedSample(xs, xs)) == 1.0

    def test_tiny_magnitudes_do_not_underflow(self):
        # the products underflowed to zero and raised DegenerateVariance
        assert pearson(PairedSample([1e-200, 2e-200, 3e-200], [1, 2, 3])) == 1.0

    def test_values_near_float_max_match_exact_value(self):
        # the sum for the mean overflowed and r came back as a clamped NaN
        xs, ys = [1.7e308, 1.6e308, -1.7e308, 1.0], [1.0, 2.0, 3.0, 5.0]
        fx, fy = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
        mx, my = sum(fx) / 4, sum(fy) / 4
        num = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
        den = sum((a - mx) ** 2 for a in fx) * sum((b - my) ** 2 for b in fy)
        expected = math.sqrt(num**2 / den) * (1.0 if num > 0 else -1.0)
        assert pearson(PairedSample(xs, ys)) == pytest.approx(expected, abs=1e-12)


# --- ranks -------------------------------------------------------------------


class TestRanks:
    def test_no_ties(self):
        np.testing.assert_array_equal(
            rank_with_average_ties([10, 20, 30]).ranks, [1.0, 2.0, 3.0]
        )

    def test_two_way_tie(self):
        np.testing.assert_array_equal(
            rank_with_average_ties([5, 5, 7]).ranks, [1.5, 1.5, 3.0]
        )

    def test_empty(self):
        with pytest.raises(EmptyInput):
            rank_with_average_ties([])

    def test_against_brute_force_oracle(self):
        rng = seeded_rng(11)
        values = list(np.round(rng.normal(size=60), 1))  # plenty of duplicates
        np.testing.assert_array_equal(
            rank_with_average_ties(values).ranks, rank_oracle(values)
        )

    def test_all_tied_and_float_max(self):
        np.testing.assert_array_equal(rank_with_average_ties([FLOAT_MAX] * 5).ranks, [3.0] * 5)
        values = [FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, 0.0, -FLOAT_MAX]
        np.testing.assert_array_equal(
            rank_with_average_ties(values).ranks, [4.5, 1.5, 4.5, 3.0, 1.5]
        )

    @given(tie_heavy_pairs())
    @settings(max_examples=80, deadline=None)
    def test_matches_while_loop_oracle_exactly(self, pair):
        for values in pair:
            np.testing.assert_array_equal(
                rank_with_average_ties(values).ranks, rank_while_loop_oracle(values)
            )

    @given(extreme_pairs())
    @settings(max_examples=80, deadline=None)
    def test_extreme_magnitudes_match_while_loop_oracle(self, pair):
        for values in pair:
            np.testing.assert_array_equal(
                rank_with_average_ties(values).ranks, rank_while_loop_oracle(values)
            )

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_rank_sum_invariant(self, values):
        n = len(values)
        total = float(np.sum(rank_with_average_ties(values).ranks))
        assert abs(total - n * (n + 1) / 2) <= 1e-9


# --- spearman ----------------------------------------------------------------


class TestSpearman:
    def test_monotone_is_one(self):
        xs = np.array([0.3, 1.2, 5.0, 9.1])
        assert spearman(PairedSample(xs, np.exp(xs))) == pytest.approx(1.0, abs=1e-12)

    def test_reversed_is_minus_one(self):
        xs = np.array([0.3, 1.2, 5.0, 9.1])
        assert spearman(PairedSample(xs, -xs)) == pytest.approx(-1.0, abs=1e-12)

    def test_no_ties_matches_displayed_formula(self):
        rng = seeded_rng(12)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        alpha = rank_oracle(list(xs))
        beta = rank_oracle(list(ys))
        n = 30
        displayed = 1 - 6 * sum((a - b) ** 2 for a, b in zip(alpha, beta)) / (
            n * (n**2 - 1)
        )
        assert spearman(PairedSample(xs, ys)) == pytest.approx(displayed, abs=1e-12)

    def test_ties_match_pearson_of_ranks_oracle(self):
        rng = seeded_rng(13)
        xs = np.round(rng.normal(size=20), 0)  # three-ish tie groups
        ys = np.round(rng.normal(size=20), 0)
        expected = pearson_of_ranks_oracle(xs, ys)
        assert spearman(PairedSample(xs, ys)) == pytest.approx(expected, abs=1e-12)

    def test_all_tied_raises(self):
        with pytest.raises(DegenerateVariance):
            spearman(PairedSample([1, 1, 1], [1, 2, 3]))

    @given(tie_heavy_pairs())
    @settings(max_examples=80, deadline=None)
    def test_equals_pearson_of_while_loop_ranks_exactly(self, pair):
        xs, ys = pair
        try:
            expected = pearson(
                PairedSample(rank_while_loop_oracle(xs), rank_while_loop_oracle(ys))
            )
        except DegenerateVariance:
            with pytest.raises(DegenerateVariance):
                spearman(PairedSample(xs, ys))
            return
        assert spearman(PairedSample(xs, ys)) == expected


# --- kendall -----------------------------------------------------------------


class TestKendall:
    def test_concordant_sequence(self):
        xs = np.arange(10.0)
        assert kendall(PairedSample(xs, xs**3)) == 1.0

    def test_all_y_equal_is_zero(self):
        assert kendall(PairedSample([1, 2, 3, 4], [7, 7, 7, 7])) == 0.0

    def test_random_against_enumeration_oracle(self):
        rng = seeded_rng(14)
        xs = rng.normal(size=50)
        ys = rng.normal(size=50)
        assert kendall(PairedSample(xs, ys)) == kendall_enumeration_oracle(
            list(xs), list(ys)
        )

    def test_fuzz_with_ties_matches_oracle(self):
        for case in range(30):
            rng = seeded_rng(15, case)
            n = int(rng.integers(2, 61))
            xs = np.round(rng.normal(size=n), 1)
            ys = np.round(rng.normal(size=n), 1)
            assert kendall(PairedSample(xs, ys)) == kendall_enumeration_oracle(
                list(xs), list(ys)
            )

    def test_opposite_extremes_do_not_overflow(self):
        # the sign of xs[j] - xs[i] came from a subtraction that overflowed
        assert kendall(PairedSample([-1.7e308, 1.7e308, 0.0], [1, 2, 3])) == 1 / 3

    @given(tie_heavy_pairs())
    @settings(max_examples=120, deadline=None)
    def test_matches_sign_loop_oracle_exactly(self, pair):
        xs, ys = pair
        assert kendall(PairedSample(xs, ys)) == kendall_sign_loop_oracle(xs, ys)

    @given(extreme_pairs())
    @settings(max_examples=100, deadline=None)
    def test_extreme_magnitudes_match_comparison_oracle(self, pair):
        xs, ys = pair
        assert kendall(PairedSample(xs, ys)) == kendall_comparison_oracle(xs, ys)

    def test_large_n_matches_scipy_tau_rescaled_to_tau_a(self):
        stats = pytest.importorskip("scipy.stats")
        rng = seeded_rng(24)
        n = 10**5
        xs = np.round(rng.normal(size=n), 2)  # ties in both columns
        ys = np.round(xs + rng.normal(size=n), 2)

        def tied_pairs(v):
            _, counts = np.unique(v, return_counts=True)
            return int(counts @ (counts - 1)) // 2

        # tau-b = (C - D) / sqrt((n0 - t_x)(n0 - t_y)); tau here is (C - D) / n0
        n0 = n * (n - 1) // 2
        denom = (n0 - tied_pairs(xs)) * (n0 - tied_pairs(ys))
        expected = float(stats.kendalltau(xs, ys).statistic) * math.sqrt(denom) / n0
        assert kendall(PairedSample(xs, ys)) == pytest.approx(expected, abs=1e-12)


# --- fechner -----------------------------------------------------------------


def opposite_extremes_sample():
    """xs 0..15 against ys whose pairwise sum meets inf - inf: the y mean is 0."""
    big = float(np.finfo(np.float64).max)
    ys = [big, -big] + [0.0] * 6
    return PairedSample(np.arange(16.0), ys + ys)


class TestFechner:
    def test_positive_line_is_one(self):
        xs = seeded_rng(16).uniform(0, 10, 30)
        trace = fechner(PairedSample(xs, 2.5 * xs + 1))
        assert trace.kappa == 1.0

    def test_negative_slope_is_minus_one(self):
        xs = seeded_rng(17).uniform(0, 10, 30)
        assert fechner(PairedSample(xs, -0.5 * xs + 4)).kappa == -1.0

    def test_step_formula_equals_direct_sum_bit_exactly(self):
        for case in range(20):
            rng = seeded_rng(18, case)
            xs = rng.normal(size=30)
            ys = rng.normal(size=30)
            trace = fechner(PairedSample(xs, ys))
            assert trace.kappa == fechner_direct_oracle(list(xs), list(ys))

    def test_trace_contents(self):
        # x sorted: [1, 2, 3, 4], means: x=2.5, y=2.5
        trace = fechner(PairedSample([3, 1, 4, 2], [4, 1, 3, 2]))
        assert trace.i0 == 2
        np.testing.assert_array_equal(trace.binary_seq, [0, 0, 1, 1])
        assert trace.kappa == 1.0

    def test_sign_zero_counts_as_positive(self):
        # second point sits exactly on both means
        trace = fechner(PairedSample([0, 1, 2], [0, 1, 2]))
        assert trace.kappa == 1.0
        np.testing.assert_array_equal(trace.binary_seq, [0, 1, 1])

    def test_mean_near_float_max_does_not_overflow(self):
        # the plain sum of ys overflowed, putting every y below an infinite mean
        trace = fechner(PairedSample([1, 2, 3, 4], [1.7e308, 1.7e308, 1.7e308, 1.0]))
        np.testing.assert_array_equal(trace.binary_seq, [1, 1, 1, 0])
        assert trace.kappa == -0.5

    def test_means_of_opposite_extremes_stay_finite(self):
        # the pairwise sum of ys met inf - inf and leaked "invalid value"
        trace = fechner(opposite_extremes_sample())
        assert trace.kappa == 0.0
        assert trace.i0 == 8

    def test_each_mean_is_taken_once(self, monkeypatch):
        calls = []
        sample_mean = classic.sample_mean
        monkeypatch.setattr(classic, "sample_mean", lambda v: calls.append(v) or sample_mean(v))
        rng = seeded_rng(19)
        for n in (2, 7, 40):
            calls.clear()
            fechner(PairedSample(rng.normal(size=n), rng.normal(size=n)))
            assert len(calls) == 2

    @given(extreme_pairs())
    @settings(max_examples=80, deadline=None)
    def test_trace_kappa_is_the_table_cell_on_extremes(self, columns):
        s = PairedSample(*columns)
        assert fechner(s).kappa == fechner_table(s)[0]


class TestFechnerPredict:
    def test_above(self):
        assert fechner_predict(3.0, 0.0, 0.0, 1.0) is MeanSide.ABOVE_MEAN

    def test_below_for_negative_kappa(self):
        assert fechner_predict(3.0, 0.0, 0.0, -1.0) is MeanSide.BELOW_MEAN

    def test_at_mean(self):
        assert fechner_predict(0.0, 0.0, 5.0, 0.0) is MeanSide.AT_MEAN

    def test_zero_kappa_off_mean_raises(self):
        with pytest.raises(UndefinedDirection):
            fechner_predict(1.0, 0.0, 0.0, 0.0)

    def test_perfect_accuracy_on_line(self):
        xs = seeded_rng(19).uniform(0, 10, 40)
        ys = 2.0 * xs
        s = PairedSample(xs, ys)
        x_mean = float(xs.mean())
        y_mean = float(ys.mean())
        kappa = fechner(s).kappa
        for x, y in zip(xs, ys):
            if x == x_mean:
                continue
            predicted = fechner_predict(float(x), x_mean, y_mean, kappa)
            actual = MeanSide.ABOVE_MEAN if y > y_mean else MeanSide.BELOW_MEAN
            assert predicted is actual


# --- shared coefficient properties --------------------------------------------


COEFFICIENTS = {
    "pearson": pearson,
    "spearman": spearman,
    "kendall": kendall,
    "fechner": lambda s: fechner(s).kappa,
}


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_symmetry(name):
    fn = COEFFICIENTS[name]
    rng = seeded_rng(20)
    s = PairedSample(rng.normal(size=30), rng.normal(size=30))
    assert fn(s) == fn(s.swapped())


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_permutation_invariance(name):
    fn = COEFFICIENTS[name]
    rng = seeded_rng(21)
    xs = rng.normal(size=25)
    ys = rng.normal(size=25)
    perm = rng.permutation(25)
    assert fn(PairedSample(xs, ys)) == pytest.approx(
        fn(PairedSample(xs[perm], ys[perm])), abs=1e-12
    )


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_affine_invariance(name):
    fn = COEFFICIENTS[name]
    for case in range(10):
        rng = seeded_rng(22, case)
        s = PairedSample(rng.normal(size=30), rng.normal(size=30))
        a, d = rng.uniform(0.5, 4), rng.uniform(-5, 5)
        a2, d2 = rng.uniform(0.5, 4), rng.uniform(-5, 5)
        mapped = PairedSample(a * s.xs + d, a2 * s.ys + d2)
        assert fn(mapped) == pytest.approx(fn(s), abs=1e-9)


def test_range_containment_over_seeded_datasets():
    for case in range(250):
        rng = seeded_rng(23, case)
        n = int(rng.integers(2, 80))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        if case % 5 == 0:
            xs = np.round(xs, 1)
            ys = np.round(ys, 1)
        s = PairedSample(xs, ys)
        for name, fn in COEFFICIENTS.items():
            try:
                value = fn(s)
            except DegenerateVariance:
                continue
            assert -1.0 <= value <= 1.0, (name, case)
