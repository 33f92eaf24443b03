import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from corrkit import (
    AllTied,
    ConstantX,
    ConstantY,
    InvalidParams,
    MAX_FEATURES,
    MultiSample,
    NonFiniteValue,
    PairedSample,
    fit_g,
    fit_g_multi,
)

from conftest import seeded_rng


def random_multi(case, max_n=120, m=None):
    rng = seeded_rng(50, case)
    n = int(rng.integers(6, max_n + 1))
    m = m if m is not None else int(rng.integers(1, 5))
    return MultiSample(rng.normal(size=(n, m)), rng.normal(size=n)), rng


class TestReduction:
    def test_matches_fit_g_exactly_on_fuzz(self):
        checked = 0
        for case in range(200):
            sample, _ = random_multi(case, max_n=200, m=1)
            xs = sample.x_rows[:, 0]
            try:
                one_d = fit_g(PairedSample(xs, sample.ys))
            except (AllTied, ConstantX):
                continue
            multi = fit_g_multi(sample)
            assert multi.omega == one_d.omega, case
            assert multi.offset == one_d.c, case
            np.testing.assert_array_equal(multi.normal, [1.0])
            checked += 1
        assert checked > 150

    def test_reduction_with_anticorrelated_data(self):
        xs = np.arange(20.0)
        sample = MultiSample(xs.reshape(-1, 1), -xs)
        fit = fit_g_multi(sample)
        assert fit.omega == 1.0
        assert fit.omega == fit_g(PairedSample(xs, -xs)).omega


def unscaled_fisher_normal(rows, ys):
    """Canonical unit Fisher normal computed on the rows as given, with
    no power-of-two scaling."""
    median = float(np.median(ys))
    keep = ys != median
    rows, above = rows[keep], ys[keep] > median
    x1, x2 = rows[above], rows[~above]
    d1, d2 = x1 - x1.mean(axis=0), x2 - x2.mean(axis=0)
    w = np.linalg.solve(d1.T @ d1 + d2.T @ d2, x1.mean(axis=0) - x2.mean(axis=0))
    w = w / np.linalg.norm(w)
    return -w if w[np.flatnonzero(w)[0]] < 0 else w


def exact_fisher_normal(rows, ys):
    """Canonical unit Fisher normal, solved in rational arithmetic and
    rounded only when normalised."""
    ys = [Fraction(v) for v in ys]
    middle = sorted(ys)[(len(ys) - 1) // 2 : len(ys) // 2 + 1]
    median = sum(middle) / len(middle)
    classes = [
        [[Fraction(v) for v in row] for row, y in zip(rows, ys) if side * (y - median) > 0]
        for side in (1, -1)
    ]
    m = len(classes[0][0])
    means = [[sum(row[j] for row in c) / len(c) for j in range(m)] for c in classes]
    scatter = [
        [sum((r[i] - mu[i]) * (r[j] - mu[j]) for c, mu in zip(classes, means) for r in c) for j in range(m)]
        for i in range(m)
    ]
    # Gauss-Jordan on [scatter | mean difference]
    a = [scatter[i] + [means[0][i] - means[1][i]] for i in range(m)]
    for col in range(m):
        pivot = next(i for i in range(col, m) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for i in range(m):
            if i != col:
                f = a[i][col] / a[col][col]
                a[i] = [u - f * v for u, v in zip(a[i], a[col])]
    w = [a[i][m] / a[i][i] for i in range(m)]
    lead = max(w, key=abs)
    ratios = np.array([float(v / lead) for v in w])  # in [-1, 1], exact up to rounding
    w = ratios / np.linalg.norm(ratios)
    return -w if w[np.flatnonzero(w)[0]] < 0 else w


class TestScaling:
    def test_normal_range_fits_keep_their_bits(self):
        checked = 0
        for case in range(120):
            sample, rng = random_multi(case, m=int(2 + case % 3))
            rows = sample.x_rows * 10.0 ** int(rng.integers(-6, 7))
            try:
                fit = fit_g_multi(MultiSample(rows, sample.ys))
            except (ConstantY, ConstantX):
                continue
            normal = unscaled_fisher_normal(rows, sample.ys)
            assert fit.normal.tobytes() == normal.tobytes(), case
            one_d = fit_g(PairedSample(rows @ normal, sample.ys))
            assert (fit.offset, fit.omega) == (one_d.c, one_d.omega), case
            checked += 1
        assert checked > 100

    def test_values_near_float_max_give_a_finite_fit(self):
        # the class means and scatter overflowed in the Fisher direction
        rows = [[-1.7e308, 1], [1.7e308, 2], [1e308, 3], [-1e308, 0.5], [0, 1.5], [5, 2.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_g_multi(MultiSample(rows, [1, 2, 3, 4, 5, 6]))
        assert np.all(np.isfinite(fit.normal)) and math.isfinite(fit.offset)
        assert np.linalg.norm(fit.normal) == pytest.approx(1.0, abs=1e-12)
        assert 0.5 <= fit.omega <= 1.0

    def test_small_column_beside_one_near_float_max_keeps_its_direction(self):
        # one power of two for every column made the second column
        # subnormal and its scatter zero: the normal came out as [1, 4.6e-300]
        rows = [[-1.7e308, 1], [1.7e308, 2], [1e308, 3], [-1e308, 0.5], [0, 1.5], [5, 2.5]]
        ys = [1, 2, 3, 4, 5, 6]
        fit = fit_g_multi(MultiSample(rows, ys))
        exact = exact_fisher_normal(rows, ys)
        assert exact[0] == pytest.approx(7.4923547e-309, rel=1e-7) and exact[1] == 1.0
        np.testing.assert_allclose(fit.normal, exact, rtol=0, atol=1e-12)
        assert fit.normal[1] == pytest.approx(1.0, abs=1e-12)

    def test_columns_of_very_different_magnitudes_match_the_exact_direction(self):
        # columns up to 2**1000 apart, so some share the largest column's
        # scale and some take their own
        for case in range(40):
            rng = seeded_rng(56, case)
            n, m = int(rng.integers(8, 25)), int(rng.integers(2, 4))
            rows = np.ldexp(rng.normal(size=(n, m)), rng.integers(-500, 501, size=m))
            ys = rng.normal(size=n)
            fit = fit_g_multi(MultiSample(rows, ys))
            exact = exact_fisher_normal(rows.tolist(), ys.tolist())
            np.testing.assert_allclose(fit.normal, exact, rtol=0, atol=1e-12, err_msg=str(case))

    def test_projection_past_float_max_is_a_typed_error(self):
        # the direction is (1, 1)/sqrt(2) and 6e307 * 5 + 6e307 * 6 overflows,
        # first at row 4; a NaN input at row 4, column 2 is refused at its row
        overflow = 2.5e307 * np.array([[0, 1], [1, 0], [0, 0], [5, 6], [6, 5], [6, 6]])
        nan_input = np.arange(18.0).reshape(6, 3)
        nan_input[3, 1] = np.nan
        for rows in (overflow, nan_input):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteValue) as err:
                    fit_g_multi(MultiSample(rows, [1, 2, 3, 4, 5, 6]))
            assert err.value.row == 4

    def test_tied_rows_are_never_projected(self):
        # the row at 1.7e308 ties the y median; projecting it would overflow
        rows = [[0, 1], [1, 0], [2, 3], [3, 2], [1.7e308, 1.7e308], [4, 5], [5, 4]]
        fit = fit_g_multi(MultiSample(rows, [1, 2, 3, 4, 4, 5, 6]))
        # (5, 1) / sqrt(26) = (0.98058068, 0.19611614)
        np.testing.assert_allclose(fit.normal, np.array([5, 1]) / math.sqrt(26), rtol=1e-12)
        assert fit.offset == pytest.approx(3.7262, abs=1e-4)
        assert fit.omega == 1.0


class TestSeparablePlane:
    def test_grid_sum_is_separable(self):
        g = np.arange(6.0)
        x1, x2 = np.meshgrid(g, g)
        rows = np.column_stack([x1.ravel(), x2.ravel()])
        ys = rows.sum(axis=1)
        fit = fit_g_multi(MultiSample(rows, ys))
        assert fit.omega == 1.0
        np.testing.assert_allclose(fit.normal, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_two_gaussian_blobs(self):
        rng = np.random.default_rng([5])
        n = 200
        rows = np.vstack(
            [rng.normal(0.0, 1.0, (n, 2)), rng.normal(4.0, 1.0, (n, 2))]
        )
        ys = np.concatenate([rng.uniform(0, 1, n), rng.uniform(2, 3, n)])
        fit = fit_g_multi(MultiSample(rows, ys))
        # oracle: best separability along the known optimal direction (1,1)/sqrt(2)
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        projected = rows @ direction
        oracle = fit_g(PairedSample(projected, ys)).omega
        assert fit.omega >= 0.95
        assert fit.omega >= oracle - 0.01


class TestInvariances:
    def test_rotation_equivariance(self):
        for case in range(15):
            sample, rng = random_multi(case, max_n=80, m=3)
            theta = float(rng.uniform(0, 2 * np.pi))
            # random orthogonal matrix via QR of a gaussian draw
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q @ np.diag(np.sign(np.diag(r)))
            rotated = MultiSample(sample.x_rows @ q.T, sample.ys)
            try:
                base = fit_g_multi(sample)
            except (ConstantY, ConstantX):
                continue
            turned = fit_g_multi(rotated)
            assert turned.omega == pytest.approx(base.omega, abs=1e-9)

    def test_range_on_fuzz(self):
        for case in range(100):
            sample, _ = random_multi(case)
            try:
                fit = fit_g_multi(sample)
            except (ConstantY, ConstantX):
                continue
            assert 0.5 <= fit.omega <= 1.0
            assert np.linalg.norm(fit.normal) == pytest.approx(1.0, abs=1e-12)


class TestDegeneracies:
    def test_too_many_features(self):
        rng = seeded_rng(51)
        with pytest.raises(InvalidParams):
            fit_g_multi(MultiSample(rng.normal(size=(40, MAX_FEATURES + 1)), rng.normal(size=40)))

    def test_constant_y(self):
        rng = seeded_rng(52)
        with pytest.raises(ConstantY):
            fit_g_multi(MultiSample(rng.normal(size=(10, 2)), np.full(10, 2.0)))

    def test_constant_features(self):
        ys = np.arange(10.0)
        with pytest.raises(ConstantX):
            fit_g_multi(MultiSample(np.ones((10, 2)), ys))

    def test_duplicated_column_regularizes_instead_of_failing(self):
        # second column is an exact copy: the scatter matrix is singular,
        # but the regularized solve still produces a usable direction
        rng = seeded_rng(53)
        col = rng.normal(size=60)
        rows = np.column_stack([col, col])
        ys = col + 0.1 * rng.normal(size=60)
        fit = fit_g_multi(MultiSample(rows, ys))
        assert 0.5 <= fit.omega <= 1.0

    def test_short_after_tie_removal(self):
        from corrkit import ShortSample

        rows = seeded_rng(54).normal(size=(5, 3))
        ys = np.array([1.0, 1.0, 1.0, 1.0, 9.0])
        # median is 1.0, four rows drop, one row cannot satisfy n >= M + 2
        with pytest.raises(ShortSample):
            fit_g_multi(MultiSample(rows, ys))

    def test_one_sided_classes_raise_constant_y(self):
        rows = seeded_rng(55).normal(size=(10, 2))
        ys = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 4.0, 5.0, 6.0])
        # median 1.0: the whole lower class is removed with the ties and
        # only above-median rows survive
        with pytest.raises(ConstantY):
            fit_g_multi(MultiSample(rows, ys))
