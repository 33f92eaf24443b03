"""Every coefficient that sorts a column reads the sample's shared stable
order. Checked here against the sorts it replaced, kept as oracles, and
through the invariances an order-only coefficient must keep."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkit import (
    AllTied,
    ConstantX,
    DegenerateVariance,
    PairedSample,
    RngSeed,
    SplitPlan,
    build_bin_grid,
    estimate_g,
    fechner,
    fit_g,
    kendall,
    ncc,
    pearson,
    rank_with_average_ties,
    sample_mean,
    spearman,
)
from corrkit.ncc import bin_boundaries

from test_classic import EXTREMES, FLOAT_MAX, kendall_comparison_oracle
from test_gcorr import estimate_g_oracle


# --- the replaced sorts, kept as oracles -----------------------------------------


def fechner_oracle(s):
    """(i0, binary_seq, kappa) of the Fechner trace after its own stable sort."""
    order = np.argsort(s.xs, kind="stable")
    i0 = int(np.sum(s.xs[order] < sample_mean(s.xs)))
    binary = (s.ys[order] >= sample_mean(s.ys)).astype(np.int8)
    terms = np.where(np.arange(s.n) < i0, 1 - 2 * binary, 2 * binary - 1)
    return i0, binary, float(np.sum(terms)) / s.n


def bin_counts_oracle(s, b):
    """Grid counts from rank positions of each column's own stable sort."""
    def positions(v):
        out = np.empty(v.shape[0], dtype=np.int64)
        out[np.argsort(v, kind="stable")] = np.arange(v.shape[0])
        return out

    bounds = bin_boundaries(s.n, b)[1:]
    cols = np.searchsorted(bounds, positions(s.xs), side="right")
    rows = np.searchsorted(bounds, positions(s.ys), side="right")
    return np.bincount(rows * b + cols, minlength=b * b).reshape(b, b)


def spearman_oracle(s):
    """Pearson r of the two rank vectors, each ranked with its own sort."""
    ranks = PairedSample(rank_with_average_ties(s.xs).ranks, rank_with_average_ties(s.ys).ranks)
    return pearson(ranks)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (AllTied, ConstantX, DegenerateVariance) as exc:
        return type(exc)


@functools.lru_cache(maxsize=None)
def split_plan(train, evaluation):
    # one plan per shape, so each permutation matrix is built once
    return SplitPlan(train, evaluation, 200, RngSeed(train * 100 + evaluation))


def test_every_consumer_matches_the_replaced_sorts_on_tie_heavy_samples(tie_heavy_corpus):
    # fit_g is checked on the same corpus, against the argsort fit and the
    # order-only oracle, in test_gcorr.py's TestRankSpaceEngine
    for case, (s, rng) in enumerate(tie_heavy_corpus):
        rng = copy.deepcopy(rng)
        trace, (i0, binary, kappa) = fechner(s), fechner_oracle(s)
        assert (trace.i0, trace.kappa) == (i0, kappa), case
        np.testing.assert_array_equal(trace.binary_seq, binary)
        b = int(rng.integers(2, s.n + 1))
        np.testing.assert_array_equal(build_bin_grid(s, b).counts, bin_counts_oracle(s, b))
        assert outcome(spearman, s) == outcome(spearman_oracle, s), case
        assert kendall(s) == kendall_comparison_oracle(s.xs, s.ys), case
        if s.n >= 3:
            q = min(max(2, 3 * s.n // 5), s.n - 1)  # the paper's 30/20 ratio
            plan = split_plan(q, s.n - q)
            assert estimate_g(s, plan) == estimate_g_oracle(s, plan), case


# --- invariances of the order-only coefficients ----------------------------------


@st.composite
def tie_heavy_extreme_pairs(draw):
    """n 10..60 of extreme values, or of small integers with heavy ties."""
    n = draw(st.integers(10, 60))
    width = draw(st.integers(1, 6))
    ints = st.integers(0, width).map(float)
    xs = draw(st.lists(st.one_of(st.sampled_from(EXTREMES), ints), min_size=n, max_size=n))
    ys = draw(st.lists(st.one_of(st.sampled_from(EXTREMES), ints), min_size=n, max_size=n))
    return PairedSample(xs, ys)


def dense_ranks(v):
    """v's dense ranks as floats: a strictly increasing, exact map."""
    return np.unique(v, return_inverse=True)[1].reshape(-1).astype(np.float64)


ORDER_ONLY = {"rho": spearman, "tau": kendall, "ncc": ncc}


@given(tie_heavy_extreme_pairs())
@settings(max_examples=60, deadline=None)
def test_rank_coefficients_ignore_strictly_increasing_maps(s):
    for mapped in (PairedSample(dense_ranks(s.xs), s.ys), PairedSample(s.xs, dense_ranks(s.ys))):
        for name, fn in ORDER_ONLY.items():
            assert outcome(fn, mapped) == outcome(fn, s), name


def order_only_fit(s):
    """What of a fit may depend on x only through its order."""
    fit = outcome(fit_g, s)
    if isinstance(fit, type):
        return fit
    return fit.omega, fit.dominant_diagonal, fit.counts, fit.removed_ties


@given(tie_heavy_extreme_pairs())
@settings(max_examples=60, deadline=None)
def test_omega_ignores_strictly_increasing_maps_of_x(s):
    assert order_only_fit(PairedSample(dense_ranks(s.xs), s.ys)) == order_only_fit(s)


def test_omega_of_a_subnormal_next_to_zero_ignores_the_dense_rank_map():
    # halfway(-5e-324, 0.0) rounds onto 0.0, so the cut between them falls
    # back to -5e-324 and still separates them
    s = PairedSample([-5e-324, FLOAT_MAX, -1.0, 0.0], [2, 1, 2, 0])
    fit = fit_g(s)
    assert (fit.omega, fit.c) == (1.0, -5e-324)
    assert order_only_fit(s) == order_only_fit(PairedSample(dense_ranks(s.xs), s.ys))


SYMMETRIC = {"r": pearson, "rho": spearman, "tau": kendall, "kappa": lambda s: fechner(s).kappa}


@given(tie_heavy_extreme_pairs())
@settings(max_examples=60, deadline=None)
def test_symmetric_coefficients_under_swap(s):
    swapped = s.swapped()
    for name, fn in SYMMETRIC.items():
        assert outcome(fn, swapped) == outcome(fn, s), name
    # the swapped grid is the transpose; ncc sums its joint entropy in
    # row-major order, so the value may differ in the last bits
    if s.n >= 10:
        np.testing.assert_array_equal(build_bin_grid(swapped, 10).counts, build_bin_grid(s, 10).counts.T)
        if s.xs.min() == s.xs.max() or s.ys.min() == s.ys.max():  # a constant column: ncc undefined
            assert outcome(ncc, swapped) == outcome(ncc, s) == DegenerateVariance
        else:
            assert ncc(swapped) == pytest.approx(ncc(s), rel=0, abs=1e-15)
