"""The quadrant-split correlation coefficient omega.

The plane is divided by the horizontal line y = y_median and a vertical
line x = c into four classes::

    C1+ : x >  c and y > y_median        C1- : x <= c and y > y_median
    C2+ : x >  c and y < y_median        C2- : x <= c and y < y_median

For a candidate cut c the objective is the larger of the two diagonal
probability sums, g(c) = max{P(C1+) + P(C2-), P(C1-) + P(C2+)}, and
omega is the maximum of g over all cuts. Boundary points x == c belong
to the left side, exactly as the class conditions are written.

Before fitting, the y median is taken on the original sample and every
point with y exactly equal to it is removed; if that removes everything,
Y is constant and the pair is uncorrelated (omega = 0.5 by convention at
the caller). The same convention applies when X is constant.

The fit sweeps, in rank space over the shared stable x order and runs
(``PairedSample.x_sorted``, the sample's ``sorted(0)`` as a 1x1 table),
one candidate cut between each two successive sorted x plus a sentinel
below min(x), which keeps the "everything on one side" split (objective
exactly 0.5 on balanced classes) available. The
diagonal counts are prefix sums over the x ranks; the smallest of equally
good cuts wins. Each cut lies at or above its left neighbour and, where
they differ, strictly below its right one, so omega, the dominant
diagonal and the counts depend on x only through its order. Between
a < b it is their :func:`~corrkit.core.halfway` point, or a where that
rounds onto b; between tied neighbours it is their x, so their run goes
left. The sentinel is 2*min(x) - max(x), exact under affine maps of x
(taken as min + (min - max) where 2*min alone overflows); the lowest
float where the result overflows; and the float next below min(x)
where it is not below min(x), so -inf only at min(x) = -float max.

One sweep serves the full-data fit and every split iteration. Its input
is an (n, columns) int8 matrix of each point's side of a column's
median, rows in x rank order: a column per split iteration, or the one
column of :func:`fit_g`. Prefix sums and reductions run down the
columns, in the narrowest integers that hold n.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .core import PairedSample, RngSeed, as_seed, halfway, int_for, row_blocks, sample_median
from .errors import AllTied, ConstantX, InvalidParams, ShortSample

__all__ = [
    "Diagonal",
    "MedianSide",
    "QuadrantCounts",
    "GCorrFit",
    "SplitPlan",
    "preprocess_ties",
    "g_objective",
    "fit_g",
    "estimate_g",
    "g_predict",
]


class Diagonal(enum.Enum):
    MAIN = "main"  # C1+ with C2-: right side sits above the median
    ANTI = "anti"  # C1- with C2+: right side sits below the median


class MedianSide(enum.Enum):
    ABOVE_MEDIAN = "above_median"
    BELOW_MEDIAN = "below_median"


@dataclass(frozen=True)
class QuadrantCounts:
    c1_plus: int
    c1_minus: int
    c2_plus: int
    c2_minus: int

    @property
    def total(self) -> int:
        return self.c1_plus + self.c1_minus + self.c2_plus + self.c2_minus


@dataclass(frozen=True)
class GCorrFit:
    """Fitted separators and the achieved objective.

    ``c`` is the cut, x <= c on its left: finite, or -inf where the empty
    left side wins and min(x) after tie removal is -float max.
    ``dominant_diagonal`` records which diagonal sum attained the max at
    the stored cut (ties report MAIN). ``removed_ties`` counts the points
    dropped because their y equalled the sample median.
    """

    c: float
    y_median: float
    omega: float
    dominant_diagonal: Diagonal
    counts: QuadrantCounts
    removed_ties: int


@dataclass(frozen=True)
class SplitPlan:
    """Seeded specification of repeated train/eval partitions.

    It caches ``membership`` (n x iterations booleans), built on first use
    and shared by every sample the plan is applied to: 1 byte per cell.
    The permutation rows it is scattered from are drawn for it and let
    go; ``seed.permutations(iterations, n)`` draws them again.
    """

    train_size: int
    eval_size: int
    iterations: int
    seed: RngSeed

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_seed(self.seed))
        for name in ("train_size", "eval_size", "iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
        if self.train_size < 1 or self.eval_size < 1:
            raise InvalidParams(
                f"train and eval sizes must be >= 1, got "
                f"{self.train_size}/{self.eval_size}"
            )
        if not 1 <= self.iterations < 2**32:
            raise InvalidParams(f"iterations must be in [1, 2**32), got {self.iterations}")

    @functools.cached_property
    def membership(self) -> np.ndarray:
        """Read-only (train_size + eval_size, iterations) boolean matrix
        whose column i marks what iteration i trains on: the first
        train_size entries of ``seed.rng(i).permutation(n)``, drawn in one
        :meth:`RngSeed.permutations` pass. Rows are points, so a sample's x
        or y order picks its rows as one gather, and the split sweep
        reduces down contiguous columns. Built on first use and shared by
        every sample of the plan; the permutation rows are not kept."""
        n = self.train_size + self.eval_size
        perms = self.seed.permutations(self.iterations, n)
        member = np.zeros((n, self.iterations), dtype=bool)
        member[perms[:, : self.train_size], np.arange(self.iterations)[:, None]] = True
        member.flags.writeable = False
        return member


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_ties(s: PairedSample) -> tuple[PairedSample, int, float]:
    """Drop rows whose y equals the sample median of the original data.

    Returns the reduced sample, the number of removed rows, and the
    median itself. Removing all rows means Y is constant (AllTied); a
    single surviving row cannot form a sample (ShortSample).
    """
    y_median = sample_median(s.ys)
    keep = s.ys != y_median
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        raise AllTied("every y equals the median; Y is constant")
    if kept < 2:
        raise ShortSample("fewer than 2 points remain after tie removal")
    return PairedSample(s.xs[keep], s.ys[keep]), s.n - kept, y_median


# ---------------------------------------------------------------------------
# objective


def g_objective(
    s: PairedSample, c: float, y_median: float
) -> tuple[float, QuadrantCounts, Diagonal]:
    """Evaluate the diagonal objective at one cut.

    On a tie-preprocessed sample the value lies in [0.5, 1] because the
    two diagonal sums are complements.
    """
    right = s.xs > c
    above, below = s.ys > y_median, s.ys < y_median
    c1_plus = int(np.count_nonzero(right & above))
    c2_plus = int(np.count_nonzero(right & below))
    c1_minus = int(np.count_nonzero(above)) - c1_plus
    c2_minus = int(np.count_nonzero(below)) - c2_plus
    counts = QuadrantCounts(c1_plus, c1_minus, c2_plus, c2_minus)
    main = counts.c1_plus + counts.c2_minus
    anti = counts.c1_minus + counts.c2_plus
    # points with y == y_median (possible when the median came from a
    # different partition) sit in neither sum but stay in the denominator
    if main >= anti:
        return main / s.n, counts, Diagonal.MAIN
    return anti / s.n, counts, Diagonal.ANTI


# ---------------------------------------------------------------------------
# fitting

_LOWEST = float(np.finfo(np.float64).min)


def _by_x(s: PairedSample):
    """The sample's x in its stable x order, and for each x rank the start
    and one past the end of its run of tied x, or None where x is
    distinct."""
    return s.xs[s.x_order], None if s.x_sorted.distinct else s.x_sorted.run_bounds()


def _signs(y_rank: np.ndarray, y_sorted: np.ndarray, y_median: np.ndarray):
    """The (n, columns) int8 side of each point, rows as in ``y_rank``
    (each point's y rank), of each column's ``y_median``: +1 below, -1
    above, 0 on it; and per column the numbers of ys below and above. A y
    is below iff its rank in the sorted ``y_sorted`` is below
    ``searchsorted(.., "left")``, above iff it is at or beyond
    ``searchsorted(.., "right")``."""
    count_t = y_rank.dtype
    below = np.searchsorted(y_sorted, y_median, "left").astype(count_t)
    first_above = np.searchsorted(y_sorted, y_median, "right").astype(count_t)
    rank = y_rank[:, None]
    signs = (rank < below).view(np.int8) - (rank >= first_above).view(np.int8)
    return signs, below.astype(np.intp), y_rank.shape[0] - first_above.astype(np.intp)


def _sweep(x: np.ndarray, runs, train: np.ndarray):
    """Fit each column of the (n, columns) int8 ``train``, rows in x rank
    order (``x`` and ``runs`` from :func:`_by_x`): +1 marks a kept point
    below the column's median, -1 a kept point above it, 0 a point the fit
    leaves out. Returns per column ``kept`` (points left), ``constant``
    (kept < 2 or all kept x equal; kept == 0: y tied) and, meaningless
    where constant, the best cut and its larger diagonal count; and the
    (n + 1, columns) prefix sums of ``train``.

    The candidate at the first kept rank is the sentinel, with nothing on
    its left; at a later kept rank p, every kept rank below p is on its
    left, and so is p's run of tied x where x[p] ties the last kept x
    before it. With ``before`` the signs summed on a candidate's left and
    ``total`` the column's sum, its main-diagonal count is ``before +
    (kept - total) / 2`` and its larger diagonal ``(kept + |2 * before -
    total|) / 2``. Counts and ranks stay in the narrowest integers that
    hold n, the packed keys of the best cut in those that hold n * (n + 2).
    """
    n, columns = train.shape
    count_t, key_t = int_for(n), int_for(n * (n + 2))
    rank = np.arange(n, dtype=count_t)[:, None]
    keep = train != 0
    kept = keep.sum(axis=0, dtype=count_t).astype(np.intp)
    balance = np.zeros((n + 1, columns), dtype=count_t)
    np.cumsum(train, axis=0, dtype=count_t, out=balance[1:])
    before, total = balance[:-1], balance[n]
    # 1 + each kept rank, 0 elsewhere: its max is 1 + the last kept rank
    place = (rank + 1) * keep
    last = place.max(axis=0).astype(np.intp) - 1
    constant = kept < 2
    if runs is not None:
        run_start, run_end = runs
        seen = np.zeros((n + 1, columns), dtype=count_t)
        np.cumsum(keep, axis=0, dtype=count_t, out=seen[1:])
        # all kept x are equal where nothing is kept before the last one's run
        constant |= seen[run_start[last], np.arange(columns)] == 0
        # after a kept rank of equal x, the whole run of tied x goes left
        before = np.where(seen[:-1] > seen[run_start], balance[run_end], before)
    # each kept rank's key: |2 * before - total| first, then the lower rank
    key = np.abs(before - (total - before)).astype(key_t)
    key *= n + 1
    key += n - np.arange(n, dtype=key_t)[:, None]
    key *= keep
    top = key.max(axis=0).astype(np.intp)
    best = np.minimum(n - top % (n + 1), n - 1)  # n - 1 where nothing is kept
    score = (kept + top // (n + 1)) // 2
    # the kept rank before the best, -1 where the best is the first
    prev = (place * (place <= best.astype(count_t))).max(axis=0).astype(np.intp) - 1
    a, b = x[prev], x[best]
    mid = halfway(a, b)
    # the sentinel's lo and hi: the first and the last kept x
    lo, hi = b, x[last]
    with np.errstate(over="ignore"):
        twice = 2.0 * lo
        # lo + (lo - hi) is 2*lo - hi where 2*lo alone overflows
        sentinel = np.where(np.isfinite(twice), twice - hi, lo + (lo - hi))
        sentinel = np.where(np.isfinite(sentinel), sentinel, _LOWEST)
        sentinel = np.where(sentinel < lo, sentinel, np.nextafter(lo, -np.inf))
    c = np.where(prev < 0, sentinel, np.where(mid < b, mid, a))
    return kept, constant, c, score, balance


def fit_g(s: PairedSample) -> GCorrFit:
    """Fit the two separators on the full sample and report omega.

    Equivalent to evaluating :func:`g_objective` at every candidate cut
    and keeping the best (smallest c on ties); it runs as the one-column
    case, every point a member, of the sweep behind the split estimator.
    """
    y_median = sample_median(s.ys)
    y = s.ys[s.x_order][:, None]
    signs = (y < y_median).view(np.int8) - (y > y_median).view(np.int8)
    kept, constant, c, score, _ = _sweep(*_by_x(s), signs)
    n = int(kept[0])
    if n == 0:
        raise AllTied("every y equals the median; Y is constant")
    if constant[0]:
        raise ConstantX("x carries no variation after tie removal")
    c = float(c[0])
    # rows removed as ties sit in no quadrant, so the full sample counts
    # and picks the diagonal alike
    _, counts, diagonal = g_objective(s, c, y_median)
    return GCorrFit(c, y_median, float(score[0] / n), diagonal, counts, s.n - n)


# ---------------------------------------------------------------------------
# train/eval estimation


def _split_iterations(s: PairedSample, plan: SplitPlan):
    """Each iteration of ``plan`` on ``s``: whether its training partition
    is degenerate, its fitted cut (meaningless where degenerate) and its
    held-out score (0.5 where degenerate)."""
    n, q = s.n, plan.train_size
    x, runs = _by_x(s)
    y_sorted = s.ys[s.y_order]
    count_t = int_for(n)
    # each x rank's y rank: its place in the stable y order
    y_rank = np.empty(n, dtype=count_t)
    y_rank[s.y_order] = np.arange(n)
    y_rank = y_rank[s.x_order]
    rank = np.arange(n, dtype=count_t)[:, None]
    constant = np.empty(plan.iterations, dtype=bool)
    cuts = np.empty(plan.iterations, dtype=np.float64)
    values = np.empty(plan.iterations, dtype=np.float64)
    for block in row_blocks(plan.iterations, n):
        # the count of training points up to each y rank locates the two
        # middle training ys, whose halfway point is the median
        seen = np.cumsum(plan.membership[s.y_order, block], axis=0, dtype=count_t)
        lower = (seen <= (q - 1) // 2).sum(axis=0, dtype=count_t)
        upper = (seen <= q // 2).sum(axis=0, dtype=count_t)
        y_median = halfway(y_sorted[lower], y_sorted[upper])
        signs, below, above = _signs(y_rank, y_sorted, y_median)
        train = signs * plan.membership[s.x_order, block]
        kept, flat, c, _, balance = _sweep(x, runs, train)
        # held out are the signs training leaves; x > c iff the x rank is
        # at or beyond cut, also on a run of tied x. The held-out points
        # off the median and their signs' sum, right of the cut and in all,
        # give the larger diagonal as (nonzero + |2 * right - total|) / 2
        cut = np.searchsorted(x, c, "right").astype(count_t)
        right = ((rank >= cut) * (signs - train)).sum(axis=0, dtype=count_t).astype(np.intp)
        total = below - above - balance[n]
        nonzero = below + above - kept
        scores = (nonzero + np.abs(2 * right - total)) // 2 / (n - q)
        constant[block], cuts[block] = flat, c
        # a degenerate training partition is uncorrelated for sure
        values[block] = np.where(flat, 0.5, scores)
    return constant, cuts, values


def estimate_g(s: PairedSample, plan: SplitPlan) -> tuple[float, float]:
    """Repeated-split estimate of omega.

    Each iteration fits the separators on a fresh training partition and
    scores the objective, with those parameters held fixed, on the
    held-out points (evaluation points whose y equals the training median
    count toward neither diagonal but stay in the denominator). A
    training partition with all y tied or no variation in x scores 0.5.
    Returns the mean and population standard deviation across iterations.

    Each score, and so the mean, lies in [0, 1]. It falls below 0.5 only
    when held-out ys tie the training median: without such ties the two
    diagonals share every held-out point and the better one holds at
    least half.

    The partitions are the columns of ``plan.membership``, built once per
    plan. Iterations run in blocks of columns, each an (n, block) array
    with the ranks on axis 0: the training median comes from y ranks,
    each point's side of it is an int8 sign from its y rank, one sweep
    fits every column, and the held-out points are scored from the same
    signs, in rank space, with no gather of their values.
    """
    if plan.train_size + plan.eval_size != s.n:
        raise InvalidParams(
            f"plan covers {plan.train_size + plan.eval_size} rows "
            f"but the sample has {s.n}"
        )
    if plan.train_size < 2:
        raise InvalidParams("train_size must be >= 2")
    values = _split_iterations(s, plan)[2]
    return float(values.mean()), float(values.std(ddof=0))


def g_predict(x: float, fit: GCorrFit) -> MedianSide:
    """Predict which side of the y median a response should fall on."""
    right = x > fit.c
    if fit.dominant_diagonal is Diagonal.MAIN:
        return MedianSide.ABOVE_MEDIAN if right else MedianSide.BELOW_MEDIAN
    return MedianSide.BELOW_MEDIAN if right else MedianSide.ABOVE_MEDIAN
