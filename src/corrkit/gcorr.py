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

The fit sweeps the n-1 midpoints of successive sorted x values plus one
sentinel cut below min(x) (so the "everything on one side" split, whose
objective is exactly 0.5 on balanced classes, is always representable),
maintaining the diagonal counts incrementally. Among equally good cuts
the smallest c wins. The sentinel sits at 2*min(x) - max(x), which maps
exactly under affine rescalings of x; where that overflows it is the
lowest finite float instead. Midpoints are 0.5*a + 0.5*b, which cannot
overflow and equals 0.5*(a + b) wherever that is finite and normal.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .core import PairedSample, RngSeed, as_seed, sample_median
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
    """Seeded specification of repeated train/eval partitions."""

    train_size: int
    eval_size: int
    iterations: int
    seed: RngSeed

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.train_size < 1 or self.eval_size < 1:
            raise InvalidParams(
                f"train and eval sizes must be >= 1, got "
                f"{self.train_size}/{self.eval_size}"
            )
        if self.iterations < 1:
            raise InvalidParams(f"iterations must be >= 1, got {self.iterations}")

    @functools.cached_property
    def permutations(self) -> np.ndarray:
        """Read-only (iterations, train_size + eval_size) matrix whose row
        i is ``seed.rng(i).permutation(n)``: iteration i trains on its
        first train_size entries and scores the rest. Built on first use
        and shared by every sample the plan is applied to."""
        n = self.train_size + self.eval_size
        perms = np.stack([self.seed.rng(i).permutation(n) for i in range(self.iterations)])
        perms.flags.writeable = False
        return perms


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


def _quadrant_counts(
    xs: np.ndarray, ys: np.ndarray, c: float, y_median: float
) -> QuadrantCounts:
    right = xs > c
    above = ys > y_median
    below = ys < y_median
    return QuadrantCounts(
        c1_plus=int(np.sum(right & above)),
        c1_minus=int(np.sum(~right & above)),
        c2_plus=int(np.sum(right & below)),
        c2_minus=int(np.sum(~right & below)),
    )


def g_objective(
    s: PairedSample, c: float, y_median: float
) -> tuple[float, QuadrantCounts, Diagonal]:
    """Evaluate the diagonal objective at one cut.

    On a tie-preprocessed sample the value lies in [0.5, 1] because the
    two diagonal sums are complements.
    """
    counts = _quadrant_counts(s.xs, s.ys, c, y_median)
    main = counts.c1_plus + counts.c2_minus
    anti = counts.c1_minus + counts.c2_plus
    # points with y == y_median (possible when the median came from a
    # different partition) sit in neither sum but stay in the denominator
    if main >= anti:
        return main / s.n, counts, Diagonal.MAIN
    return anti / s.n, counts, Diagonal.ANTI


# ---------------------------------------------------------------------------
# fitting

# cells per block of split rows fitted at once; bounds the temporaries of
# estimate_g to a few MB whatever the iteration count
_BLOCK_CELLS = 1 << 16
_LOWEST = float(np.finfo(np.float64).min)


def _sweep_rows(xs: np.ndarray, ys: np.ndarray, y_median: np.ndarray):
    """Fit every row of the (rows, m) arrays ``xs``, ``ys`` on its own.

    Per row: drop the points whose y equals that row's ``y_median``, then
    sweep the sentinel and the successive midpoints of the sorted kept x.
    Returns ``(kept, constant, c, score, main)`` per row: ``kept`` counts
    the points left after tie removal, ``constant`` marks rows that cannot
    be fitted (kept < 2, or all kept x equal; kept == 0 means all y tied),
    ``c`` is the winning cut, ``score`` its larger diagonal count and
    ``main`` its main-diagonal count. The last three mean nothing on
    constant rows.
    """
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
        sentinel = 2.0 * lo - hi
    # where 2*min - max overflows, the lowest finite value still lies below min
    sentinel = np.where(np.isfinite(sentinel), sentinel, _LOWEST)
    a, b = x[:, :-1], x[:, 1:]
    mid = 0.5 * a + 0.5 * b  # cannot overflow, unlike 0.5 * (a + b)
    # the two roundings can leave [a, b], but only for subnormal a and b
    np.minimum(np.maximum(mid, a, out=mid), b, out=mid)

    # left count of each cut = kept x <= cut, as searchsorted(side="right")
    # would give: a cut below its right neighbour has every earlier point on
    # its left; a cut equal to it also takes that neighbour's run of ties
    ends = np.ones((rows, m), dtype=bool)
    np.not_equal(a, b, out=ends[:, :-1])
    run_end = np.where(ends, np.arange(1, m + 1), m)
    run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    left = np.empty((rows, m), dtype=np.intp)
    # the sentinel fails to lie below min(x) only when min(x) is _LOWEST
    left[:, 0] = np.where(sentinel < x[:, 0], 0, run_end[:, 0])
    left[:, 1:] = np.where(mid < b, np.arange(1, m), run_end[:, 1:])

    below = np.zeros((rows, m + 1), dtype=np.intp)
    np.cumsum(ys[cells] < ym, axis=1, out=below[:, 1:])
    # below-median points on the left plus above-median points on the right;
    # a kept point that is not below is above, and the left side holds only
    # kept points wherever the candidate exists
    left_below = below[row[:, None], left]
    main = 2 * left_below - left + (kept - below[:, -1])[:, None]
    score = np.maximum(main, kept[:, None] - main)
    score[np.arange(m) >= kept[:, None]] = -1  # only kept - 1 midpoints exist
    best = np.argmax(score, axis=1)  # first max <=> smallest candidate c
    c = np.where(best == 0, sentinel, mid[row, np.maximum(best - 1, 0)])
    return kept, constant, c, score[row, best], main[row, best]


def _sweep(xs: np.ndarray, ys: np.ndarray, y_median: float):
    """The one-row case of :func:`_sweep_rows`.

    Returns (omega, c, diagonal, kept) and raises AllTied or ConstantX
    where the sample cannot be fitted.
    """
    kept, constant, c, score, main = _sweep_rows(xs[None], ys[None], np.array([y_median]))
    n = int(kept[0])
    if n == 0:
        raise AllTied("every y equals the median; Y is constant")
    if constant[0]:
        raise ConstantX("x carries no variation after tie removal")
    diagonal = Diagonal.MAIN if main[0] >= n - main[0] else Diagonal.ANTI
    return float(score[0] / n), float(c[0]), diagonal, n


def fit_g(s: PairedSample) -> GCorrFit:
    """Fit the two separators on the full sample and report omega.

    Equivalent to evaluating :func:`g_objective` at every candidate cut
    and keeping the best (smallest c on ties); the incremental sweep is
    just the fast path. It is the one-row case of the sweep the split
    estimator runs on every iteration at once.
    """
    y_median = sample_median(s.ys)
    omega, c, diagonal, n = _sweep(s.xs, s.ys, y_median)
    return GCorrFit(
        c=c,
        y_median=y_median,
        omega=omega,
        dominant_diagonal=diagonal,
        # rows removed as ties sit in no quadrant, so the full sample counts alike
        counts=_quadrant_counts(s.xs, s.ys, c, y_median),
        removed_ties=s.n - n,
    )


# ---------------------------------------------------------------------------
# train/eval estimation


def _split_values(xs: np.ndarray, ys: np.ndarray, q: int) -> np.ndarray:
    """Held-out objective of every row of permuted (rows, n) samples whose
    first q columns are the training partition; degenerate rows give 0.5."""
    ym = np.median(ys[:, :q], axis=1, keepdims=True)
    _, constant, c, _, _ = _sweep_rows(xs[:, :q], ys[:, :q], ym[:, 0])
    right = xs[:, q:] > c[:, None]
    above = ys[:, q:] > ym
    below = ys[:, q:] < ym
    right_above = np.count_nonzero(right & above, axis=1)
    right_below = np.count_nonzero(right & below, axis=1)
    main = right_above + np.count_nonzero(below, axis=1) - right_below
    anti = np.count_nonzero(above, axis=1) - right_above + right_below
    values = np.maximum(main, anti) / (xs.shape[1] - q)
    values[constant] = 0.5  # degenerate training partition: uncorrelated for sure
    return values


def estimate_g(
    s: PairedSample, plan: SplitPlan, workers: int = 1
) -> tuple[float, float]:
    """Repeated-split estimate of omega.

    Each iteration fits the separators on a fresh training partition and
    scores the objective, with those parameters held fixed, on the
    held-out points (evaluation points whose y equals the training median
    count toward neither diagonal but stay in the denominator). A
    training partition with all y tied or no variation in x scores 0.5.
    Returns the mean and population standard deviation across iterations.

    The partitions are the rows of ``plan.permutations``, built once per
    plan, and all iterations are fitted and scored as array rows at once.
    ``workers`` is accepted for compatibility and has no effect.
    """
    if plan.train_size + plan.eval_size != s.n:
        raise InvalidParams(
            f"plan covers {plan.train_size + plan.eval_size} rows "
            f"but the sample has {s.n}"
        )
    if plan.train_size < 2:
        raise InvalidParams("train_size must be >= 2")
    perms = plan.permutations
    values = np.empty(plan.iterations, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // s.n)
    for start in range(0, plan.iterations, step):
        block = perms[start : start + step]
        values[start : start + step] = _split_values(s.xs[block], s.ys[block], plan.train_size)
    return float(values.mean()), float(values.std(ddof=0))


def g_predict(x: float, fit: GCorrFit) -> MedianSide:
    """Predict which side of the y median a response should fall on."""
    right = x > fit.c
    if fit.dominant_diagonal is Diagonal.MAIN:
        return MedianSide.ABOVE_MEDIAN if right else MedianSide.BELOW_MEDIAN
    return MedianSide.BELOW_MEDIAN if right else MedianSide.ABOVE_MEDIAN
