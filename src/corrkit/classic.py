"""The four classical coefficients: Pearson r, Spearman rho, Kendall tau,
and the Fechner sign coefficient kappa, with explicit tie policies.

Conventions that matter for reproducibility:

* ``sign(0) = +1`` everywhere the Fechner coefficient looks at a sign,
  so a point sitting exactly on a mean line counts as "at or above".
* Spearman with ties is the Pearson coefficient of the average-tie rank
  vectors; without ties this equals the classical 1 - 6*sum(d^2)/(n(n^2-1))
  formula exactly.
* Kendall ties contribute zero to the pair sum and the denominator stays
  n(n-1); no tie-corrected variant is applied.
* rho, tau and the Fechner trace read the sample's shared column orders
  (``PairedSample.x_order`` / ``y_order``, one stable sort per column), so
  equal x values keep input order and the recorded binary sequence is
  deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample, run_ids, sample_mean, unit_scaled
from .errors import DegenerateVariance, EmptyInput, NonFiniteValue, UndefinedDirection

__all__ = [
    "RankVector",
    "FechnerTrace",
    "MeanSide",
    "pearson",
    "rank_with_average_ties",
    "spearman",
    "kendall",
    "fechner",
    "fechner_predict",
]


@dataclass(frozen=True, eq=False)
class RankVector:
    """Ranks with averaged ties: smallest value gets 1, equal values share
    the mean of the positions they occupy, so the total is n(n+1)/2."""

    ranks: np.ndarray

    @property
    def n(self) -> int:
        return self.ranks.shape[0]


@dataclass(frozen=True, eq=False)
class FechnerTrace:
    """Fechner coefficient plus the intermediates of its step form.

    ``i0`` is the number of x-sorted points strictly below the x mean
    (equivalently, the largest 1-based sorted index with x < x-bar, or 0).
    ``binary_seq[i]`` is 1 where the i-th x-sorted point has y >= y-bar.
    """

    i0: int
    binary_seq: np.ndarray
    kappa: float


class MeanSide(enum.Enum):
    BELOW_MEAN = "below_mean"
    AT_MEAN = "at_mean"
    ABOVE_MEAN = "above_mean"


def _pearson_arrays(xs: np.ndarray, ys: np.ndarray) -> float:
    xs, ys = unit_scaled(xs), unit_scaled(ys)
    dx = unit_scaled(xs - xs.mean())
    dy = unit_scaled(ys - ys.mean())
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        which = "xs" if sxx == 0.0 else "ys"
        raise DegenerateVariance(f"{which} is constant; r undefined")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    if math.isnan(r):  # clamping would turn it into -1
        raise NonFiniteValue(detail="r evaluated to NaN")
    return min(1.0, max(-1.0, r))


def pearson(s: PairedSample) -> float:
    """Pearson correlation coefficient; |r| = 1 exactly when the points
    lie on a non-degenerate straight line."""
    return _pearson_arrays(s.xs, s.ys)


def _tied_pairs(ids: np.ndarray) -> int:
    """Number of pairs inside the runs given by ``run_ids``."""
    sizes = np.bincount(ids)
    return int(sizes @ (sizes - 1)) // 2


def rank_with_average_ties(v) -> RankVector:
    """Ranks 1..n with tied values assigned the mean of their positions."""
    a = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if a.size == 0:
        raise EmptyInput("cannot rank an empty vector")
    return RankVector(_average_ranks(a, np.argsort(a)))


def _average_ranks(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Average-tie ranks of ``a`` given any order that sorts it: tied
    values share one rank whatever their order."""
    ids = run_ids(a[order])
    sizes = np.bincount(ids)
    ends = np.cumsum(sizes)
    # the run ending at 1-based position e holds positions e - size + 1 .. e;
    # the integer sum of the first and last is exact, so halving it is too
    ranks = np.empty(a.shape[0], dtype=np.float64)
    ranks[order] = (0.5 * (2 * ends - sizes + 1))[ids]
    return ranks


def spearman(s: PairedSample) -> float:
    """Spearman rank correlation with average-tie ranks.

    Computed as the Pearson coefficient of the two rank vectors, which
    reduces to the classical no-ties formula when all values differ.
    """
    alpha = _average_ranks(s.xs, s.x_order)
    beta = _average_ranks(s.ys, s.y_order)
    try:
        return _pearson_arrays(alpha, beta)
    except DegenerateVariance:
        raise DegenerateVariance("a rank vector is constant (all values tied)") from None


def _dense_ranks(v: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, int]:
    """0-based ranks of v's distinct values, given an order that sorts v,
    and the number of tied pairs."""
    ids = run_ids(v[order])
    ranks = np.empty_like(ids)
    ranks[order] = ids
    return ranks, _tied_pairs(ids)


def _discordant_pairs(a: np.ndarray) -> int:
    """Number of pairs i < j with a[i] > a[j], for integers 0 <= a < n.

    A bottom-up merge count (Knight 1966, JASA 61:436) in log2(n) flat
    sorts. Level k merges each pair of neighbouring sorted runs of width
    2^k: the key ((block * n + a) << 1) | side keeps every pair of runs in
    its own block and puts a left value before an equal right one. A
    right element that moves d places to the left passes exactly the d
    larger left values of its block, so the level's count is how far the
    right elements move in total. Keys stay below n^2 + 2n.
    """
    n = a.shape[0]
    pos = np.arange(n)
    count = 0
    level = 0
    while (1 << level) < n:
        base = (pos >> (level + 1)) * n
        side = (pos >> level) & 1
        keys = base + a
        keys <<= 1
        keys |= side
        keys.sort()
        count += int(side @ pos) - int((keys & 1) @ pos)
        keys >>= 1
        keys -= base
        a = keys
        level += 1
    return count


def kendall(s: PairedSample) -> float:
    """Kendall tau over all n(n-1)/2 pairs; tied pairs contribute zero.

    O(n log n) and exact: of the n0 pairs, n1 tie in x, n2 in y and n3 in
    both, so concordant plus discordant pairs number n0 - n1 - n2 + n3,
    and the discordant ones D are the strict inversions of the y ranks in
    (x, y) order. The integer sum C - D = n0 - n1 - n2 + n3 - 2D is the
    pairwise sign-product sum.
    """
    n = s.n
    x_rank, x_ties = _dense_ranks(s.xs, s.x_order)
    y_rank, y_ties = _dense_ranks(s.ys, s.y_order)
    # one integer key per point sorts by (x, y); the key mod n is y's rank
    joint = x_rank * n
    joint += y_rank
    joint.sort()
    total = (
        n * (n - 1) // 2
        - x_ties
        - y_ties
        + _tied_pairs(run_ids(joint))
        - 2 * _discordant_pairs(joint % n)
    )
    return 2.0 * total / (n * (n - 1))


def fechner(s: PairedSample) -> FechnerTrace:
    """Fechner coefficient: mean of products of deviation signs about the
    sample means, with sign(0) = +1.

    The returned trace carries the x-sorted binary sequence and the split
    index i0; kappa is computed from them and agrees bit-exactly with the
    direct sign-product sum.
    """
    x_mean = sample_mean(s.xs)
    y_mean = sample_mean(s.ys)
    xs_sorted = s.xs[s.x_order]
    ys_sorted = s.ys[s.x_order]
    i0 = int(np.sum(xs_sorted < x_mean))
    binary = (ys_sorted >= y_mean).astype(np.int8)
    terms = np.where(np.arange(s.n) < i0, 1 - 2 * binary, 2 * binary - 1)
    kappa = float(np.sum(terms)) / s.n
    binary = binary.copy()
    binary.flags.writeable = False
    return FechnerTrace(i0=i0, binary_seq=binary, kappa=kappa)


def fechner_predict(x: float, x_mean: float, y_mean: float, kappa: float) -> MeanSide:
    """Classify where y should fall relative to y_mean, given x.

    Returns BELOW_MEAN iff (x - x_mean) * sign(kappa) < 0, AT_MEAN iff
    x == x_mean, ABOVE_MEAN otherwise. A zero kappa carries no direction,
    so it can only answer the x == x_mean case.
    """
    if x == x_mean:
        return MeanSide.AT_MEAN
    if kappa == 0.0:
        raise UndefinedDirection("kappa is 0; no directional prediction")
    signed = (x - x_mean) * (1.0 if kappa > 0 else -1.0)
    return MeanSide.BELOW_MEAN if signed < 0 else MeanSide.ABOVE_MEAN
