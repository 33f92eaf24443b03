import copy
import dataclasses
import functools
import re
import tracemalloc

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
    QuadrantCounts,
    RngSeed,
    SplitPlan,
    estimate_g,
    fit_g,
    g_objective,
    g_predict,
    generate,
    preprocess_ties,
    render_scatter,
    sample_median,
)
from corrkit import core
from corrkit.core import Table, halfway, row_medians
from corrkit.errors import ShortSample
from corrkit.gcorr import _split_iterations, _training_members

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


_LOWEST = float(np.finfo(np.float64).min)


def documented_cuts(xs_sorted):
    """The documented candidate cuts of sorted x. First the sentinel:
    2*min - max (as min + (min - max) where 2*min alone overflows), the
    lowest float where that overflows, and the float next below min where
    it is not below min. Then one cut per pair of neighbours a <= b: their
    halfway point where that lies below b, and a otherwise, so a itself
    where a == b."""
    lo, hi = xs_sorted[0], xs_sorted[-1]
    with np.errstate(over="ignore"):
        sentinel = 2.0 * lo - hi if np.isfinite(2.0 * lo) else lo + (lo - hi)
        if not np.isfinite(sentinel):
            sentinel = _LOWEST
        if not sentinel < xs_sorted[0]:
            sentinel = np.nextafter(xs_sorted[0], -np.inf)
    a, b = xs_sorted[:-1], xs_sorted[1:]
    mid = halfway(a, b)
    return np.concatenate(([sentinel], np.where(mid < b, mid, a)))


def exhaustive_fit_oracle(sample):
    """Evaluate g_objective at the sentinel and every successive midpoint;
    first maximum wins (candidates are scanned in increasing c order)."""
    reduced, _, y_median = preprocess_ties(sample)
    candidates = documented_cuts(np.sort(reduced.xs, kind="stable"))
    best_g, best_c = -1.0, None
    for c in candidates:
        g, _, _ = g_objective(reduced, float(c), y_median)
        if g > best_g:
            best_g, best_c = g, float(c)
    return best_g, best_c


def signed_walk_omega_oracle(xs, ys):
    """Full-data omega from integer counts alone: drop the ys equal to the
    median, sign each kept point +1 below it (b points) and -1 above it
    (a points), and walk the sign sum W left of each candidate cut (the
    empty prefix and the end of each run of tied x). The best cut puts
    (kept + |2W - (b - a)|) / 2 points on a diagonal. Returns AllTied or
    ConstantX where fit_g must raise it."""
    ys_sorted = sorted(float(y) for y in ys)
    mid = len(ys_sorted) // 2
    if len(ys_sorted) % 2:
        median = ys_sorted[mid]
    else:
        median = (ys_sorted[mid - 1] + ys_sorted[mid]) / 2
    kept = sorted((float(x), 1 if y < median else -1) for x, y in zip(xs, ys) if y != median)
    if not kept:
        return AllTied
    if all(x == kept[0][0] for x, _ in kept):
        return ConstantX
    b_minus_a = sum(sign for _, sign in kept)
    walk, best = 0, abs(b_minus_a)
    for i, (x, sign) in enumerate(kept):
        walk += sign
        if i + 1 == len(kept) or kept[i + 1][0] != x:
            best = max(best, abs(2 * walk - b_minus_a))
    return ((len(kept) + best) // 2) / len(kept)


def scalar_fit_reference(xs, ys):
    """The scalar fit the batched sweep replaced: tie removal, stable sort,
    the documented cuts, and searchsorted left counts, so that a cut on a
    run of tied x has that whole run on its left. Returns (c, y_median)."""
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
    candidates = documented_cuts(xs_sorted)
    left = np.searchsorted(xs_sorted, candidates, side="right")
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


def sweep_rows_oracle(xs, ys, y_median):
    """The argsort sweep the rank-space engine replaced, its logic kept as
    it was: fit every row of the (rows, m) arrays after a stable row sort.
    Returns (kept, constant, c, score, main) per row, as the engine does."""
    rows, m = xs.shape
    ym = y_median[:, None]
    keep = ys != ym
    kept = np.count_nonzero(keep, axis=1)
    # kept points first in stable x order, removed ones last as +inf
    masked = np.where(keep, xs, np.inf)
    order = np.argsort(masked, axis=1, kind="stable")
    row = np.arange(rows)
    cells = (row[:, None], order)
    x = masked[cells]
    lo = x[:, 0]
    hi = x[row, np.maximum(kept - 1, 0)]
    constant = lo == hi  # also true for kept < 2, where lo is hi
    # zero the unfittable rows, whose +inf bounds would give inf - inf
    lo = np.where(constant, 0.0, lo)
    hi = np.where(constant, 0.0, hi)
    with np.errstate(over="ignore"):
        sentinel = np.where(np.isfinite(2.0 * lo), 2.0 * lo - hi, lo + (lo - hi))
        sentinel = np.where(np.isfinite(sentinel), sentinel, _LOWEST)
        sentinel = np.where(sentinel < lo, sentinel, np.nextafter(lo, -np.inf))
    a, b = x[:, :-1], x[:, 1:]
    mid = 0.5 * a + 0.5 * b
    np.minimum(np.maximum(mid, a, out=mid), b, out=mid)
    mid = np.where(mid < b, mid, a)

    # left count of each cut = kept x <= cut, as searchsorted(side="right")
    ends = np.ones((rows, m), dtype=bool)
    np.not_equal(a, b, out=ends[:, :-1])
    run_end = np.where(ends, np.arange(1, m + 1), m)
    run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    left = np.empty((rows, m), dtype=np.intp)
    left[:, 0] = np.where(sentinel < x[:, 0], 0, run_end[:, 0])
    left[:, 1:] = np.where(mid < b, np.arange(1, m), run_end[:, 1:])

    below = np.zeros((rows, m + 1), dtype=np.intp)
    np.cumsum(ys[cells] < ym, axis=1, out=below[:, 1:])
    left_below = below[row[:, None], left]
    main = 2 * left_below - left + (kept - below[:, -1])[:, None]
    score = np.maximum(main, kept[:, None] - main)
    score[np.arange(m) >= kept[:, None]] = -1
    best = np.argmax(score, axis=1)
    c = np.where(best == 0, sentinel, mid[row, np.maximum(best - 1, 0)])
    return kept, constant, c, score[row, best], main[row, best]


def fit_g_oracle(s):
    """(c, y_median, omega, main >= anti, removed_ties) of the argsort fit,
    or the error it raises."""
    y_median = sample_median(s.ys)
    kept, constant, c, score, main = sweep_rows_oracle(s.xs[None], s.ys[None], np.array([y_median]))
    n = int(kept[0])
    if n == 0:
        raise AllTied("every y equals the median")
    if constant[0]:
        raise ConstantX("x carries no variation")
    return float(c[0]), y_median, float(score[0] / n), bool(main[0] >= n - main[0]), s.n - n


def order_only_fit_oracle(s):
    """(omega, main >= anti, counts, removed_ties) of the best split of the
    kept points by x order alone, or the error fit_g raises. The left side
    is the first k runs of equal sorted x, for k from 0 (the empty left
    side) to one short of all runs; the first maximum wins. No cut value
    is computed."""
    y_median = sample_median(s.ys)
    keep = s.ys != y_median
    if not keep.any():
        raise AllTied("every y equals the median")
    run = np.unique(s.xs[keep], return_inverse=True)[1].reshape(-1)
    if run.max() == 0:
        raise ConstantX("x carries no variation")
    above, below = s.ys[keep] > y_median, s.ys[keep] < y_median
    best = None
    for k in range(run.max() + 1):
        right = run >= k
        counts = QuadrantCounts(
            int(np.sum(right & above)), int(np.sum(~right & above)),
            int(np.sum(right & below)), int(np.sum(~right & below)),
        )
        main, anti = counts.c1_plus + counts.c2_minus, counts.c1_minus + counts.c2_plus
        if best is None or max(main, anti) > best[0]:
            best = (max(main, anti), main >= anti, counts)
    score, main, counts = best
    return score / run.shape[0], main, counts, s.n - run.shape[0]


@functools.lru_cache(maxsize=64)
def plan_permutations(plan):
    """The plan's (iterations, n) permutation rows, drawn once per plan for
    the oracles, read-only."""
    perms = plan.seed.permutations(plan.iterations, plan.train_size + plan.eval_size)
    perms.flags.writeable = False
    return perms


def estimate_g_oracle(s, plan):
    """The argsort split engine: gather each permuted row, take its
    training median by partition, fit it with the argsort sweep."""
    q = plan.train_size
    perms = plan_permutations(plan)
    xs, ys = s.xs[perms], s.ys[perms]
    ym = row_medians(ys[:, :q])
    _, constant, c, _, _ = sweep_rows_oracle(xs[:, :q], ys[:, :q], ym)
    held_x, held_y = xs[:, q:], ys[:, q:]
    right = held_x > c[:, None]
    above, below = held_y > ym[:, None], held_y < ym[:, None]
    c1_plus = np.count_nonzero(right & above, axis=1)
    c2_plus = np.count_nonzero(right & below, axis=1)
    c1_minus = np.count_nonzero(above, axis=1) - c1_plus
    c2_minus = np.count_nonzero(below, axis=1) - c2_plus
    values = np.maximum(c1_plus + c2_minus, c1_minus + c2_plus) / (s.n - q)
    values[constant] = 0.5
    return float(values.mean()), float(values.std(ddof=0))


def by_x_oracle(s):
    """The sample in its stable x order: the sorted x, the y of each x
    rank, and for each rank one past the end of its run of tied x, or
    None where x is distinct."""
    x, y = s.xs[s.x_order], s.ys[s.x_order]
    if (x[:-1] < x[1:]).all():
        return x, y, None
    ends = np.append(np.flatnonzero(x[1:] != x[:-1]) + 1, x.shape[0])
    return x, y, np.repeat(ends, np.diff(ends, prepend=0))


def sweep_ranks_oracle(x, y, run_end, member, y_median):
    """The rank-space sweep the iteration-minor kernel replaced, its logic
    kept as it was: fit each row of the (rows, n) boolean ``member`` on
    the points it marks (``x``, ``y`` and ``run_end`` from
    :func:`by_x_oracle`) whose y is not the row's ``y_median``. Returns
    per row (kept, constant, c, score, main)."""
    rows, n = member.shape
    row = np.arange(rows)
    ym = y_median[:, None]
    keep = member & (y != ym)
    kept = np.count_nonzero(keep, axis=1)
    first = np.argmax(keep, axis=1)
    lo, hi = x[first], x[n - 1 - np.argmax(keep[:, ::-1], axis=1)]
    constant = (kept < 2) | (lo == hi)
    signs = (member & (y < ym)).view(np.int8) * np.int8(2) - keep.view(np.int8)
    balance = np.zeros((rows, n + 1), dtype=np.intp)
    np.cumsum(signs, axis=1, out=balance[:, 1:])
    main = balance[:, :-1]
    if run_end is not None:
        prev = np.zeros((rows, n), dtype=np.intp)
        np.maximum.accumulate(np.where(keep, np.arange(n), 0)[:, :-1], axis=1, out=prev[:, 1:])
        tied = (x[prev] == x) & (np.arange(n) > first[:, None])
        main = np.where(tied, balance[:, run_end], main)
    main = main + ((kept - balance[:, -1]) // 2)[:, None]
    score = np.maximum(main, kept[:, None] - main)
    score *= keep
    best = np.argmax(score, axis=1)
    a = x[n - 1 - np.argmax((keep & (np.arange(n) < best[:, None]))[:, ::-1], axis=1)]
    b = x[best]
    mid = halfway(a, b)
    with np.errstate(over="ignore"):
        twice = 2.0 * lo
        sentinel = np.where(np.isfinite(twice), twice - hi, lo + (lo - hi))
        sentinel = np.where(np.isfinite(sentinel), sentinel, _LOWEST)
        sentinel = np.where(sentinel < lo, sentinel, np.nextafter(lo, -np.inf))
    c = np.where(best == first, sentinel, np.where(mid < b, mid, a))
    return kept, constant, c, score[row, best], main[row, best]


def split_iterations_oracle(s, plan):
    """Per iteration (constant, c, score) of the rows-layout split engine
    the iteration-minor kernel replaced: membership rows, training medians
    from the y ranks of each row's two middle members, the rank sweep, and
    the held-out points gathered as floats and counted by quadrant."""
    n, q = s.n, plan.train_size
    x, y, run_end = by_x_oracle(s)
    perms = plan_permutations(plan)
    member = np.zeros(perms.shape, dtype=bool)
    np.put_along_axis(member, perms[:, :q], True, axis=1)
    held = perms[:, q:]
    rows = plan.iterations
    ranks = np.flatnonzero(member[:, s.y_order]).reshape(rows, q)[:, [(q - 1) // 2, q // 2]]
    ym = halfway(*s.ys[s.y_order[ranks % n]].T)
    _, constant, c, _, _ = sweep_ranks_oracle(x, y, run_end, member[:, s.x_order], ym)
    held_x, held_y = s.xs[held], s.ys[held]
    right = held_x > c[:, None]
    above, below = held_y > ym[:, None], held_y < ym[:, None]
    c1_plus = np.count_nonzero(right & above, axis=1)
    c2_plus = np.count_nonzero(right & below, axis=1)
    c1_minus = np.count_nonzero(above, axis=1) - c1_plus
    c2_minus = np.count_nonzero(below, axis=1) - c2_plus
    scores = np.maximum(c1_plus + c2_minus, c1_minus + c2_plus) / (n - q)
    return constant, c, np.where(constant, 0.5, scores)


def assert_split_iterations_match(s, plan, case=None):
    """Constant flags, cut bits where fitted, and scores of every
    iteration, against the replaced rows-layout engine."""
    (constant,), (c,), (scores,) = _split_iterations(s, plan)
    expected_constant, expected_c, expected_scores = split_iterations_oracle(s, plan)
    assert constant.tolist() == expected_constant.tolist(), case
    fitted = ~constant
    assert c[fitted].tobytes() == expected_c[fitted].tobytes(), case
    assert scores.tolist() == expected_scores.tolist(), case


@functools.lru_cache(maxsize=None)
def corpus_plan(train, evaluation):
    """One 8-iteration plan per shape, so each permutation matrix is built once."""
    return SplitPlan(train, evaluation, 8, RngSeed(train * 100 + evaluation))


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

    def test_sentinel_where_only_twice_min_overflows(self):
        # 2*min overflows but 2*min - max does not: the sentinel is that
        # value, as for the same x scaled down, not the lowest float
        s = PairedSample([1e308, 1e308, 1.7e308, 1.7e308], [1, 4, 2, 3])
        fit = fit_g(s)
        assert fit.omega == 0.5
        assert np.isfinite(fit.c) and fit.c < 1e308
        assert fit.c == 1e308 + (1e308 - 1.7e308)
        lo, hi = 1e308 * 1e-308, 1.7e308 * 1e-308
        assert fit_g(PairedSample(s.xs * 1e-308, s.ys)).c == 2.0 * lo - hi
        # the plot's frame spans the cut and the points, so they spread out
        cx = [float(v) for v in re.findall(r'<circle cx="([^"]*)"', render_scatter(s, fit))]
        assert len(cx) == 4 and max(cx) - min(cx) > 200.0

    def test_median_near_float_max_removes_the_ties(self):
        # (a + b) / 2 overflowed here: y_median = inf, no ties removed, omega 1.0
        s = PairedSample([1, 2, 3, 4], [1.7e308, 1.7e308, 1.7e308, 1.0])
        with pytest.raises(ConstantX):
            fit_g(s)
        reduced, removed, y_median = preprocess_ties(
            PairedSample(range(6), [1.0, 2.0] + [1.7e308] * 4)
        )
        assert (reduced.n, removed, y_median) == (2, 4, 1.7e308)

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

    def test_matches_the_signed_walk_oracle_exactly(self):
        # 6 kinds x n from 2 to 119: distinct x, x rounded to 0.1 or on 4
        # levels, each with ys as drawn or rounded to even integers
        outcomes = {AllTied: 0, ConstantX: 0, float: 0}
        for case in range(6 * 118):
            rng = seeded_rng(48, case)
            n = 2 + case // 6
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            if case % 3 == 1:
                xs = np.round(xs, 1)
            elif case % 3 == 2:
                xs = rng.integers(0, 4, n).astype(float)
            if case % 6 >= 3:
                ys = 2 * np.round(ys / 2)
            expected = signed_walk_omega_oracle(xs, ys)
            s = PairedSample(xs, ys)
            if expected in (AllTied, ConstantX):
                with pytest.raises(expected):
                    fit_g(s)
                outcomes[expected] += 1
            else:
                assert fit_g(s).omega == expected, case
                outcomes[float] += 1
        assert min(outcomes.values()) > 0, outcomes

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

    def test_held_out_median_ties_pull_the_mean_below_one_half(self):
        # y is 2.0 on three rows in four, so the training median is nearly
        # always 2.0 and the held-out 2.0s count toward neither diagonal
        xs = seeded_rng(60).uniform(0, 10, 50)
        ys = np.where(np.arange(50) % 4 == 0, 1.0, 2.0)
        mean, stddev = estimate_g(PairedSample(xs, ys), SplitPlan(30, 20, 200, RngSeed(3)))
        assert mean == 0.2535
        assert stddev == pytest.approx(0.0720260, abs=1e-7)

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

    def test_batched_matches_scalar_reference_near_float_max_y(self):
        ys = np.where(np.arange(20) % 3 == 0, 1.0, 1.7e308)
        s = PairedSample(seeded_rng(45).normal(size=20), ys)
        plan = SplitPlan(12, 8, 100, RngSeed(6))
        assert estimate_g(s, plan) == estimate_g_reference(s, plan)

    def test_membership_caches_no_permutations(self, monkeypatch):
        s = generate(FamilySpec("coarse_monotone", 50, RngSeed(8)))
        calls = []
        rng = RngSeed.rng
        monkeypatch.setattr(RngSeed, "rng", lambda self, *stream: calls.append(stream) or rng(self, *stream))
        # a cell budget of 10,000 fits 200 iterations of n = 50 per block
        monkeypatch.setattr(core, "BLOCK_CELLS", 10_000)
        plan = SplitPlan(30, 20, 300, RngSeed(8))
        got = estimate_g(s, plan)
        # the plan keeps its fields and nothing else; one draw per block
        assert set(vars(plan)) == {f.name for f in dataclasses.fields(plan)}
        assert len(calls) == 2
        assert got == estimate_g_oracle(s, plan)
        # each block's membership: the bits scattered from the seeded permutations
        perms = RngSeed(8).permutations(300, 50)
        expected = np.zeros((50, 300), dtype=bool)
        expected[perms[:, :30], np.arange(300)[:, None]] = True
        blocks = list(core.row_blocks(300, 50))
        assert [(b.start, b.stop) for b in blocks] == [(0, 200), (200, 400)]
        for block in blocks:
            np.testing.assert_array_equal(_training_members(plan, block), expected[:, block])

    def test_memory_does_not_grow_with_a_whole_plan_matrix(self):
        # the scores, cuts and flags of 5,000 iterations take 85 kB; a
        # (iterations, n) int64 permutation draw alone would take 8 MB
        rng = seeded_rng(80)
        s = PairedSample(rng.normal(size=200), rng.normal(size=200))
        s.x_order, s.y_order  # the sort passes, built before tracing
        plan = SplitPlan(120, 80, 5000, RngSeed(5))
        tracemalloc.start()
        try:
            estimate_g(s, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_deterministic_across_runs_and_workers(self):
        s = generate(FamilySpec("coarse_monotone", 50, RngSeed(4)))
        plan = SplitPlan(30, 20, 200, RngSeed(7))
        first = estimate_g(s, plan)
        second = estimate_g(s, plan)
        rebuilt = estimate_g(s, SplitPlan(30, 20, 200, RngSeed(7)))
        assert first == second == rebuilt

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
        for bad in (5.0, True, "5"):
            for sizes in ((bad, 5, 10), (5, bad, 10), (5, 5, bad)):
                with pytest.raises(InvalidParams):
                    SplitPlan(*sizes, RngSeed(0))
        plan = SplitPlan(np.int64(5), 5, np.int64(10), RngSeed(0))
        s = PairedSample(np.arange(10.0), np.arange(10.0) % 3)
        assert estimate_g(s, plan) == estimate_g_oracle(s, plan)

    def test_iterations_beyond_one_entropy_word_rejected(self):
        # iteration 2**32 would need a second entropy word; construction
        # fails before any permutation is built
        with pytest.raises(InvalidParams):
            SplitPlan(30, 20, 2**32, RngSeed(0))
        assert SplitPlan(30, 20, 2**32 - 1, RngSeed(0)).iterations == 2**32 - 1


_EPS = float(np.finfo(np.float64).eps)
_TINY = 5e-324  # the smallest subnormal
# x values whose candidate cuts exercise every rule of the sweep
_EXTREME_X = np.array([_LOWEST, -1.7e308, -1.0, np.nextafter(-1.0, 0.0), -0.0, 0.0, _TINY,
                       2 * _TINY, 3 * _TINY, 1.0, 1.0 + _EPS, 1.0 + 2 * _EPS, 1.7e308, -_LOWEST])
# distinct x where no midpoint rounds up but 2*min - max can round onto min:
# negative powers of two next to their upper neighbours
_BOUNDARY_X = np.array([v for p in (-8.0, -2.0, -1.0, -0.5) for v in (p, np.nextafter(p, 0.0))]
                       + [3.0, 5.0, 7.0, 11.0])


def tie_heavy_sample(case):
    """Seeded sample with heavy ties in x and y; x cycles through small
    integers, adjacent floats, subnormals, extreme values and distinct
    values next to negative powers of two."""
    rng = seeded_rng(70, case)
    n = int(rng.integers(2, 41))
    kind = case % 4
    if kind == 0:
        xs = rng.integers(0, 4, n).astype(float)
    elif kind == 1:
        # adjacent floats above 1, or above -1, where 2*min - max rounds to min
        steps = rng.integers(0, 6, n)
        xs = 1.0 + _EPS * steps if case % 8 == 1 else -1.0 + _EPS / 2 * steps
    elif kind == 2:
        xs = _TINY * rng.integers(0, 6, n)
    elif case % 8 == 3:
        xs = rng.choice(_EXTREME_X, n)
    else:
        n = min(n, 6)
        xs = rng.choice(_BOUNDARY_X, n, replace=False)
    ys = rng.integers(0, 3, n).astype(float)
    if case % 5 == 0:
        ys = np.where(ys == 2, 1.7e308, ys)
    return PairedSample(xs, ys), rng


class TestRankSpaceEngine:
    """The rank-space sweep against the argsort sweep it replaced, the
    scalar reference and the order-only oracle, on the inputs where its
    rules differ most."""

    def check(self, s, plan):
        assert estimate_g(s, plan) == estimate_g_reference(s, plan), plan.train_size
        assert estimate_g(s, plan) == estimate_g_oracle(s, plan), plan.train_size

    def test_matches_argsort_oracle_on_tie_heavy_samples(self, tie_heavy_corpus):
        for case, (s, rng) in enumerate(tie_heavy_corpus):
            rng = copy.deepcopy(rng)
            try:
                expected = fit_g_oracle(s)
            except (AllTied, ConstantX) as exc:
                with pytest.raises(type(exc)):
                    fit_g(s)
                with pytest.raises(type(exc)):
                    order_only_fit_oracle(s)
            else:
                fit = fit_g(s)
                main = fit.dominant_diagonal is Diagonal.MAIN
                got = (fit.c.hex(), fit.y_median, fit.omega, main, fit.removed_ties)
                assert got == (expected[0].hex(), *expected[1:]), case
                assert fit.counts == g_objective(s, expected[0], expected[1])[1], case
                got = (fit.omega, main, fit.counts, fit.removed_ties)
                assert got == order_only_fit_oracle(s), case
            if s.n >= 3:
                q = int(rng.integers(2, s.n))
                plan = SplitPlan(q, s.n - q, 5, RngSeed(case))
                assert estimate_g(s, plan) == estimate_g_oracle(s, plan), case

    def test_matches_the_rows_layout_engine_on_tie_heavy_samples(self, tie_heavy_corpus):
        # every iteration against the engine the iteration-minor kernel
        # replaced: flags, cut bits and scores, every train size in turn
        for case, (s, _) in enumerate(tie_heavy_corpus):
            if s.n >= 3:
                q = 2 + case % (s.n - 2)
                assert_split_iterations_match(s, corpus_plan(q, s.n - q), case)

    def test_tables_of_the_corpus_match_both_oracles_per_pair(self, tie_heavy_corpus):
        # every third corpus sample, those of one n as the columns of one
        # table: each sample's own pair and its x against the next one's y
        by_n = {}
        for s, _ in tie_heavy_corpus[::3]:
            if s.n >= 3:
                by_n.setdefault(s.n, []).append(s)
        for n, samples in sorted(by_n.items()):
            k = len(samples)
            columns = [s.xs for s in samples] + [s.ys for s in samples]
            pairs = [(a, k + a) for a in range(k)] + [(a, k + (a + 1) % k) for a in range(k)]
            q = 2 + n % (n - 2)
            plan = corpus_plan(q, n - q)
            constant, c, scores = _split_iterations(Table(columns, pairs), plan)
            for p, (i, j) in enumerate(pairs):
                s = PairedSample(columns[i], columns[j])
                expected_constant, expected_c, expected_scores = split_iterations_oracle(s, plan)
                assert constant[p].tolist() == expected_constant.tolist(), (n, i, j)
                fitted = ~constant[p]
                assert c[p][fitted].tobytes() == expected_c[fitted].tobytes(), (n, i, j)
                assert scores[p].tolist() == expected_scores.tolist(), (n, i, j)
                mean = float(scores[p].mean()), float(scores[p].std(ddof=0))
                assert mean == estimate_g_oracle(s, plan), (n, i, j)

    def test_blocks_of_iterations_and_a_short_last_block(self, monkeypatch):
        # a cell budget of 100 fits 5 iterations of n = 20 per block, so 23
        # iterations run as blocks of 5, 5, 5, 5 and 3
        monkeypatch.setattr(core, "BLOCK_CELLS", 100)
        rng = seeded_rng(75)
        distinct = rng.normal(size=20)
        for xs in (distinct, np.round(distinct, 0)):
            s = PairedSample(xs, xs + rng.normal(0.0, 1.0, 20))
            for q in (2, 9, 12, 19):
                plan = SplitPlan(q, 20 - q, 23, RngSeed(q))
                assert [len(range(23)[b]) for b in core.row_blocks(23, 20)] == [5, 5, 5, 5, 3]
                assert estimate_g(s, plan) == estimate_g_reference(s, plan), q
                assert_split_iterations_match(s, plan, q)
        # fit_g is one column of n > BLOCK_CELLS cells: one block
        s = PairedSample(np.round(rng.normal(size=150), 1), rng.normal(size=150))
        fit, expected = fit_g(s), fit_g_oracle(s)
        assert (fit.c.hex(), fit.omega) == (expected[0].hex(), expected[2])

    @pytest.mark.parametrize("n", [10, 11, 127, 128, 180, 181, 32767, 32768, 46339, 46340])
    def test_fit_on_both_sides_of_every_integer_width(self, n):
        # counts and ranks widen past n = 127 and 32767, the packed keys
        # dev * (n + 1) + (n - rank) past n = 10, 180 and 46339; a monotone
        # sample puts the best cut mid-sample at dev = kept, the largest key
        # it can reach, which a key too narrow would wrap without a warning
        xs = np.arange(n, dtype=np.float64)
        assert fit_g(PairedSample(xs, xs)).omega == 1.0
        for s in (PairedSample(xs, xs), PairedSample(np.floor(xs / 3), xs)):
            fit, expected = fit_g(s), fit_g_oracle(s)
            main = fit.dominant_diagonal is Diagonal.MAIN
            assert (fit.c.hex(), fit.y_median, fit.omega, main, fit.removed_ties) == (
                expected[0].hex(), *expected[1:]
            )
            if n <= 181:
                q = 3 * n // 5
                assert_split_iterations_match(s, SplitPlan(q, n - q, 40, RngSeed(n)), n)

    def test_adjacent_float_midpoints_that_round_up(self):
        # consecutive floats above 1; the midpoint of an odd and the next
        # even one rounds to the even one, so that cut falls back to the odd
        # one, its left neighbour, and still separates the two
        xs = 1.0 + _EPS * np.arange(40)
        assert 0.5 * xs[1] + 0.5 * xs[2] == xs[2]
        rng = seeded_rng(71)
        ys = np.arange(40) + rng.integers(-6, 7, 40)
        order = rng.permutation(40)
        s = PairedSample(xs[order], ys[order].astype(float))
        for q in (2, 15, 24, 39):
            self.check(s, SplitPlan(q, 40 - q, 60, RngSeed(q)))

    def test_subnormal_x(self):
        rng = seeded_rng(72)
        steps = rng.integers(0, 12, 36)
        ys = (steps + rng.integers(-3, 4, 36)).astype(float)
        even = PairedSample(_TINY * 2 * steps, ys)
        # at odd multiples of the smallest subnormal 0.5*a + 0.5*b rounds
        # twice and the clamp acts, where 0.5*(a + b) would round once
        odd = PairedSample(_TINY * (2 * steps + 1), ys)
        assert 0.5 * _TINY + 0.5 * _TINY < _TINY < 0.5 * (3 * _TINY) + 0.5 * (3 * _TINY)
        for q in (2, 17, 30, 35):
            plan = SplitPlan(q, 36 - q, 60, RngSeed(q))
            self.check(even, plan)
            self.check(odd, plan)
        fit, expected = fit_g(odd), fit_g_oracle(odd)
        assert (fit.c.hex(), fit.omega) == (expected[0].hex(), expected[2])
        assert (fit.c, fit.y_median) == scalar_fit_reference(odd.xs, odd.ys)

    def test_odd_train_size_drops_a_median_tie_in_every_row(self):
        rng = seeded_rng(73)
        s = PairedSample(rng.normal(size=50), rng.integers(0, 5, 50).astype(float))
        plan = SplitPlan(29, 21, 300, RngSeed(4))
        train_ys = s.ys[plan.seed.permutations(plan.iterations, 50)[:, :29]]
        # an odd partition's median is one of its own ys
        assert np.all(np.any(train_ys == row_medians(train_ys)[:, None], axis=1))
        self.check(s, plan)

    def test_tied_x_runs_at_the_winning_cut(self):
        rng = seeded_rng(74)
        xs = np.repeat(np.arange(5.0), 10)
        s = PairedSample(xs, xs + rng.normal(0.0, 0.8, 50))
        # among equal scores the cut on a tied x precedes the midpoint
        # after it, so the winning cut sits on a run of tied x
        assert fit_g(s).c in xs
        for q in (2, 3, 29, 30, 49):
            self.check(s, SplitPlan(q, 50 - q, 200, RngSeed(q)))

    def test_smallest_and_largest_train_sizes(self):
        for case in range(40):
            s, _ = tie_heavy_sample(4 * case)  # small integer x
            if s.n < 3:
                continue
            for q in (2, s.n - 1):
                self.check(s, SplitPlan(q, s.n - q, 20, RngSeed(case)))

    def test_sentinel_rounding_onto_a_negative_power_of_two(self):
        # 2*(-1) - nextafter(-1, 0) lies halfway between -1 and the float
        # below it and rounds to even, -1 itself: the sentinel falls back to
        # the float below -1, with nothing on its left
        x = np.array([-1.0, np.nextafter(-1.0, 0.0), 5.0, 6.0, 7.0])
        s = PairedSample(x, np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
        assert 2.0 * x[0] - x[1] == x[0]
        fit = fit_g(s)
        below = np.nextafter(-1.0, -np.inf)
        assert (fit.c, fit.omega, fit.dominant_diagonal) == (below, 1.0, Diagonal.ANTI)
        expected = fit_g_oracle(s)
        assert (fit.c.hex(), fit.omega) == (expected[0].hex(), expected[2])
        assert (fit.c, fit.y_median) == scalar_fit_reference(s.xs, s.ys)
        for q in (2, 3, 4):
            self.check(s, SplitPlan(q, 5 - q, 40, RngSeed(q)))
        # the fit's own counts: both kept points right of the cut, below the median
        assert g_objective(s, fit.c, fit.y_median)[1] == fit.counts == QuadrantCounts(0, 0, 2, 0)

    def test_lowest_float_x_puts_the_sentinel_at_minus_inf(self):
        # 2*min - max overflows, so the sentinel would be the lowest float,
        # which here is also the least x: the one value below it is -inf
        xs = np.array([_LOWEST, _LOWEST, 0.0, 1.0, 2.0, -_LOWEST] * 4)
        s = PairedSample(xs, np.arange(24.0) % 5)
        fit, expected = fit_g(s), fit_g_oracle(s)
        assert (fit.c.hex(), fit.omega) == (expected[0].hex(), expected[2])
        assert (fit.c, fit.y_median) == scalar_fit_reference(s.xs, s.ys)
        for q in (2, 7, 12, 23):
            self.check(s, SplitPlan(q, 24 - q, 100, RngSeed(q)))
        # every cut scores 0.5, so the sentinel wins, with nothing on its left
        fit = fit_g(PairedSample([_LOWEST, _LOWEST, -_LOWEST, -_LOWEST], [1, 4, 2, 3]))
        assert (fit.c, fit.omega) == (-np.inf, 0.5)
        assert fit.counts.c1_minus + fit.counts.c2_minus == 0
        assert g_predict(_LOWEST, fit) is g_predict(-_LOWEST, fit)


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
