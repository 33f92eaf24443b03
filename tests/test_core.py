import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkit import (
    EmptyInput,
    InvalidParams,
    NonFiniteValue,
    PairedSample,
    ParseError,
    RngSeed,
    ShortSample,
    load_paired,
    sample_mean,
    sample_median,
    save_paired,
)
from corrkit.core import row_medians

from conftest import seeded_rng


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
