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
* The Fechner trace sorts by x with a stable sort, so equal x values keep
  input order and the recorded binary sequence is deterministic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample
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


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings max|v| into [0.5, 1).

    Scaling by a power of two is exact while values stay in the normal
    range, so r keeps its bits; it keeps sums and products of squares
    from overflowing or underflowing at extreme magnitudes.
    """
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return v
    return np.ldexp(v, -np.frexp(peak)[1])


def _pearson_arrays(xs: np.ndarray, ys: np.ndarray) -> float:
    xs, ys = _unit_scaled(xs), _unit_scaled(ys)
    dx = _unit_scaled(xs - xs.mean())
    dy = _unit_scaled(ys - ys.mean())
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


def rank_with_average_ties(v) -> RankVector:
    """Ranks 1..n with tied values assigned the mean of their positions."""
    a = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if a.size == 0:
        raise EmptyInput("cannot rank an empty vector")
    n = a.shape[0]
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i + 1
        while j < n and sorted_a[j] == sorted_a[i]:
            j += 1
        # positions i+1 .. j share their average rank
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return RankVector(ranks)


def spearman(s: PairedSample) -> float:
    """Spearman rank correlation with average-tie ranks.

    Computed as the Pearson coefficient of the two rank vectors, which
    reduces to the classical no-ties formula when all values differ.
    """
    alpha = rank_with_average_ties(s.xs).ranks
    beta = rank_with_average_ties(s.ys).ranks
    try:
        return _pearson_arrays(alpha, beta)
    except DegenerateVariance:
        raise DegenerateVariance("a rank vector is constant (all values tied)") from None


def kendall(s: PairedSample) -> float:
    """Kendall tau over all n(n-1)/2 pairs; tied pairs contribute zero."""
    xs, ys = s.xs, s.ys
    n = s.n
    total = 0
    for i in range(n - 1):
        dx = np.sign(xs[i + 1 :] - xs[i])
        dy = np.sign(ys[i + 1 :] - ys[i])
        total += int(np.sum(dx * dy))
    return 2.0 * total / (n * (n - 1))


def _mean(v: np.ndarray) -> float:
    """Sample mean; where the plain sum overflows, the sum of v / n."""
    with np.errstate(over="ignore"):
        m = float(v.mean())
    return m if math.isfinite(m) else float(np.sum(v / v.shape[0]))


def fechner(s: PairedSample) -> FechnerTrace:
    """Fechner coefficient: mean of products of deviation signs about the
    sample means, with sign(0) = +1.

    The returned trace carries the x-sorted binary sequence and the split
    index i0; kappa is computed from them and agrees bit-exactly with the
    direct sign-product sum.
    """
    x_mean = _mean(s.xs)
    y_mean = _mean(s.ys)
    order = np.argsort(s.xs, kind="stable")
    xs_sorted = s.xs[order]
    ys_sorted = s.ys[order]
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
