import math
from collections import Counter

import numpy as np
import pytest

from corrkit import (
    FamilySpec,
    InvalidParams,
    PairedSample,
    RngSeed,
    TooFewPoints,
    build_bin_grid,
    fit_g,
    generate,
    ncc,
)
from corrkit.ncc import _entropy_base_b, bin_boundaries

from conftest import seeded_rng


# --- independent oracle: raw pairs -> bins -> entropies ------------------------


def ncc_raw_pairs_oracle(xs, ys, b):
    """Recompute from scratch: sort positions, floor boundaries, Counter."""
    n = len(xs)
    bounds = [(k * n) // b for k in range(b + 1)]

    def bin_of(position):
        for k in range(b):
            if bounds[k] <= position < bounds[k + 1]:
                return k
        raise AssertionError("position outside all bins")

    def positions(values):
        order = sorted(range(n), key=lambda i: (values[i], i))
        pos = [0] * n
        for p, i in enumerate(order):
            pos[i] = p
        return pos

    col = [bin_of(p) for p in positions(xs)]
    row = [bin_of(p) for p in positions(ys)]
    joint = Counter(zip(row, col))
    rows = Counter(row)
    cols = Counter(col)

    def entropy(counter):
        return -sum(
            (c / n) * math.log(c / n, b) for c in counter.values() if c > 0
        )

    return entropy(rows) + entropy(cols) - entropy(joint)


def diagonal_sample(n=100):
    xs = np.arange(float(n))
    return PairedSample(xs, xs.copy())


def uniform_grid_sample(n=100, b=10):
    # x-rank i lands in column i//b, and y = (i%b)*b + i//b permutes the
    # ranks so every (row, column) cell receives exactly one point
    xs = np.arange(float(n))
    ys = (xs % b) * b + xs // b
    return PairedSample(xs, ys)


class TestBinGrid:
    def test_diagonal_grid(self):
        grid = build_bin_grid(diagonal_sample(), 10)
        np.testing.assert_array_equal(grid.counts, np.eye(10) * 10)

    def test_uniform_grid(self):
        grid = build_bin_grid(uniform_grid_sample(), 10)
        np.testing.assert_array_equal(grid.counts, np.ones((10, 10)))

    def test_row_and_column_sums(self):
        rng = seeded_rng(30)
        s = PairedSample(rng.normal(size=100), rng.normal(size=100))
        grid = build_bin_grid(s, 10)
        assert grid.counts.sum() == 100
        np.testing.assert_array_equal(grid.row_counts, np.full(10, 10))
        np.testing.assert_array_equal(grid.col_counts, np.full(10, 10))

    def test_uneven_bins_match_floor_boundary_oracle(self):
        rng = seeded_rng(31)
        s = PairedSample(rng.normal(size=103), rng.normal(size=103))
        grid = build_bin_grid(s, 10)
        bounds = bin_boundaries(103, 10)
        expected_sizes = np.diff(bounds)
        np.testing.assert_array_equal(grid.col_counts, expected_sizes)
        np.testing.assert_array_equal(grid.row_counts, expected_sizes)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_bin_grid(PairedSample([1, 2, 3], [1, 2, 3]), 10)

    def test_bad_bin_count(self):
        for bad in (1, np.int64(1), 0, -3, True, np.bool_(True), 2.0, "10"):
            with pytest.raises(InvalidParams):
                build_bin_grid(diagonal_sample(), bad)

    @pytest.mark.parametrize("b", [np.int64(10), np.int32(7), np.uint8(2)])
    def test_numpy_integer_bin_count(self, b):
        s = diagonal_sample()
        grid = build_bin_grid(s, b)
        assert type(grid.b) is int and grid.b == int(b)
        np.testing.assert_array_equal(grid.counts, build_bin_grid(s, int(b)).counts)
        assert ncc(s, b) == ncc(s, int(b))


class TestNcc:
    def test_diagonal_is_one(self):
        assert ncc(diagonal_sample()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_grid_is_zero(self):
        assert ncc(uniform_grid_sample()) == pytest.approx(0.0, abs=1e-12)

    def test_matches_raw_pairs_oracle(self):
        for case in range(20):
            rng = seeded_rng(32, case)
            n = int(rng.integers(10, 200))
            b = int(rng.integers(2, 11))
            if n < b:
                continue
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            expected = ncc_raw_pairs_oracle(list(xs), list(ys), b)
            assert ncc(PairedSample(xs, ys), b) == pytest.approx(expected, abs=1e-12)

    def test_range_on_fuzz(self):
        for case in range(200):
            rng = seeded_rng(33, case)
            n = int(rng.integers(10, 300))
            s = PairedSample(rng.normal(size=n), rng.normal(size=n))
            assert 0.0 <= ncc(s) <= 1.0

    def test_monotone_transform_invariance(self):
        rng = seeded_rng(34)
        s = PairedSample(rng.uniform(1, 2, 120), rng.uniform(1, 2, 120))
        transformed = PairedSample(np.exp(s.xs), s.ys**3)
        assert ncc(transformed) == ncc(s)

    def test_symmetry(self):
        rng = seeded_rng(35)
        s = PairedSample(rng.normal(size=90), rng.normal(size=90))
        assert ncc(s) == ncc(s.swapped())

    def test_swap_changes_only_the_joint_summation_order(self):
        # the swapped grid is the transpose, and the joint entropy sums its
        # (identical) terms in row-major order; so ncc(s.swapped()) is s's
        # ncc with the joint sum taken column by column, bit for bit, and
        # the two differ by at most what two summation orders of the k
        # nonnegative joint terms can: 2 (k - 1) 2**-53 H(X, Y) to first
        # order, plus the rounding of the final subtraction
        differ = 0
        for case in range(600):
            rng = seeded_rng(37, case)
            n = int(rng.integers(10, 300))
            b = int(rng.integers(2, 11))
            s = PairedSample(rng.normal(size=n), rng.normal(size=n))
            grid = build_bin_grid(s, b)
            h_rows = _entropy_base_b(grid.row_counts, n, b)
            h_cols = _entropy_base_b(grid.col_counts, n, b)
            h_joint = _entropy_base_b(grid.counts.ravel(), n, b)
            column_major = h_rows + h_cols - _entropy_base_b(grid.counts.T.ravel(), n, b)
            forward, swapped = ncc(s, b), ncc(s.swapped(), b)
            assert forward == h_rows + h_cols - h_joint, case
            assert swapped == column_major, case
            k = int(np.count_nonzero(grid.counts))
            bound = 2.01 * (k - 1) * 2**-53 * h_joint + math.ulp(max(forward, swapped))
            assert abs(forward - swapped) <= bound, case
            differ += forward != swapped
        assert differ > 0  # the asymmetry is real, so the check above is not vacuous

    def test_known_asymmetric_case(self):
        # n = 12, b = 10: the two joint sums differ in their last bit, one
        # ulp of H(X, Y) in [1, 2), which is two ulps of ncc in [0.5, 1)
        s = PairedSample(np.arange(12.0), [3, 1, 9, 2, 11, 10, 7, 6, 5, 8, 4, 0])
        assert ncc(s) == 0.9286662482156338
        assert ncc(s.swapped()) == 0.928666248215634
        assert ncc(s.swapped()) - ncc(s) == math.ulp(1.0) == 2 * math.ulp(ncc(s))

    def test_grid_transpose_under_swap(self):
        rng = seeded_rng(36)
        s = PairedSample(rng.normal(size=90), rng.normal(size=90))
        np.testing.assert_array_equal(
            build_bin_grid(s, 9).counts, build_bin_grid(s.swapped(), 9).counts.T
        )

    def test_heteroscedastic_family_low_ncc_high_omega(self):
        s = generate(FamilySpec("hetero_step", 200, RngSeed(11)))
        assert ncc(s) < 0.6
        assert fit_g(s).omega == 1.0
