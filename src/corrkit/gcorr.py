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

The fit sweeps, in rank space over the shared stable x order
(``PairedSample.x_order``), one candidate cut between each two successive
sorted x plus a sentinel below min(x), which keeps the "everything on one
side" split (objective exactly 0.5 on balanced classes) available. The
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
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .core import PairedSample, RngSeed, as_seed, halfway, row_blocks, sample_median
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
    """Seeded specification of repeated train/eval partitions."""

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
    def permutations(self) -> np.ndarray:
        """Read-only (iterations, train_size + eval_size) matrix whose row
        i is ``seed.rng(i).permutation(n)``: iteration i trains on its
        first train_size entries and scores the rest. Built on first use
        and shared by every sample the plan is applied to.

        :meth:`RngSeed.permutations` builds it: one vectorised pass derives
        every iteration's ``SeedSequence([seed, i])`` -> PCG64 state, equal
        to ``rng(i)``'s bit for bit (NEP 19 keeps both seeding algorithms
        stable), and one generator shuffles each row with numpy's shuffle."""
        n = self.train_size + self.eval_size
        perms = self.seed.permutations(self.iterations, n)
        perms.flags.writeable = False
        return perms

    @functools.cached_property
    def membership(self) -> np.ndarray:
        """Read-only (iterations, train_size + eval_size) boolean matrix
        whose row i marks what iteration i trains on: the first
        train_size entries of ``permutations`` row i. Built on first use
        and shared, like the permutations, by every sample of the plan."""
        member = np.zeros(self.permutations.shape, dtype=bool)
        np.put_along_axis(member, self.permutations[:, : self.train_size], True, axis=1)
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


def _quadrant_counts(
    xs: np.ndarray, ys: np.ndarray, c: float | np.ndarray, y_median: float | np.ndarray
):
    """C1+, C1-, C2+, C2- counts along the last axis of ``xs`` and ``ys``:
    of one row, or per row of (rows, m) arrays with a cut and median each."""
    ym = np.asarray(y_median)[..., None]
    right = xs > np.asarray(c)[..., None]
    above = ys > ym
    below = ys < ym
    c1_plus = np.count_nonzero(right & above, axis=-1)
    c2_plus = np.count_nonzero(right & below, axis=-1)
    c1_minus = np.count_nonzero(above, axis=-1) - c1_plus
    c2_minus = np.count_nonzero(below, axis=-1) - c2_plus
    return c1_plus, c1_minus, c2_plus, c2_minus


def g_objective(
    s: PairedSample, c: float, y_median: float
) -> tuple[float, QuadrantCounts, Diagonal]:
    """Evaluate the diagonal objective at one cut.

    On a tie-preprocessed sample the value lies in [0.5, 1] because the
    two diagonal sums are complements.
    """
    counts = QuadrantCounts(*map(int, _quadrant_counts(s.xs, s.ys, c, y_median)))
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
    """The sample in its stable x order: the sorted x, the y of each x
    rank, and for each rank one past the end of its run of tied x, or
    None where x is distinct."""
    x, y = s.xs[s.x_order], s.ys[s.x_order]
    if (x[:-1] < x[1:]).all():
        return x, y, None
    ends = np.append(np.flatnonzero(x[1:] != x[:-1]) + 1, x.shape[0])
    return x, y, np.repeat(ends, np.diff(ends, prepend=0))


def _sweep_ranks(x: np.ndarray, y: np.ndarray, run_end, member: np.ndarray, y_median):
    """Fit each row of the (rows, n) boolean ``member`` on the points it
    marks (``x``, ``y`` and ``run_end`` from :func:`_by_x`) whose y is not
    the row's ``y_median``. Returns per row ``kept`` (points left),
    ``constant`` (kept < 2 or all kept x equal; kept == 0: y tied) and,
    meaningless where constant, the best cut, its larger diagonal count
    and its main-diagonal count. The candidate at the first kept rank is
    the sentinel, with nothing on its left; at a later kept rank p, every
    kept rank below p is on its left, and so is p's run of tied x where
    x[p] ties the last kept x before it."""
    rows, n = member.shape
    row = np.arange(rows)
    ym = y_median[:, None]
    keep = member & (y != ym)
    kept = np.count_nonzero(keep, axis=1)
    first = np.argmax(keep, axis=1)
    lo, hi = x[first], x[n - 1 - np.argmax(keep[:, ::-1], axis=1)]
    constant = (kept < 2) | (lo == hi)
    # a candidate's main-diagonal count is the balance of +1 (kept, below
    # the median) / -1 (kept, above) on its left, plus all kept above
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
    # only kept ranks give candidates, and they score at least 1 where any
    # point is kept; first max <=> smallest candidate c
    score *= keep
    best = np.argmax(score, axis=1)
    a = x[n - 1 - np.argmax((keep & (np.arange(n) < best[:, None]))[:, ::-1], axis=1)]
    b = x[best]
    mid = halfway(a, b)
    with np.errstate(over="ignore"):
        twice = 2.0 * lo
        # lo + (lo - hi) is 2*lo - hi where 2*lo alone overflows
        sentinel = np.where(np.isfinite(twice), twice - hi, lo + (lo - hi))
        sentinel = np.where(np.isfinite(sentinel), sentinel, _LOWEST)
        sentinel = np.where(sentinel < lo, sentinel, np.nextafter(lo, -np.inf))
    c = np.where(best == first, sentinel, np.where(mid < b, mid, a))
    return kept, constant, c, score[row, best], main[row, best]


def fit_g(s: PairedSample) -> GCorrFit:
    """Fit the two separators on the full sample and report omega.

    Equivalent to evaluating :func:`g_objective` at every candidate cut
    and keeping the best (smallest c on ties); it runs as the one-row case,
    every point a member, of the sweep behind the split estimator.
    """
    y_median = sample_median(s.ys)
    every = np.ones((1, s.n), dtype=bool)
    kept, constant, c, score, main = _sweep_ranks(*_by_x(s), every, np.array([y_median]))
    n = int(kept[0])
    if n == 0:
        raise AllTied("every y equals the median; Y is constant")
    if constant[0]:
        raise ConstantX("x carries no variation after tie removal")
    c = float(c[0])
    # rows removed as ties sit in no quadrant, so the full sample counts alike
    _, counts, _ = g_objective(s, c, y_median)
    diagonal = Diagonal.MAIN if main[0] >= n - main[0] else Diagonal.ANTI
    return GCorrFit(c, y_median, float(score[0] / n), diagonal, counts, s.n - n)


# ---------------------------------------------------------------------------
# train/eval estimation


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

    The partitions are the rows of ``plan.permutations`` and of its
    ``membership`` matrix, both built once per plan, and all iterations
    are fitted and scored as array rows at once.
    """
    if plan.train_size + plan.eval_size != s.n:
        raise InvalidParams(
            f"plan covers {plan.train_size + plan.eval_size} rows "
            f"but the sample has {s.n}"
        )
    if plan.train_size < 2:
        raise InvalidParams("train_size must be >= 2")
    n, q = s.n, plan.train_size
    x, y, run_end = _by_x(s)
    values = np.empty(plan.iterations, dtype=np.float64)
    for block in row_blocks(plan.iterations, n):
        member, held = plan.membership[block], plan.permutations[block, q:]
        rows = member.shape[0]
        # per row, the y ranks of the two middle training ys: the median's
        ranks = np.flatnonzero(member[:, s.y_order]).reshape(rows, q)[:, [(q - 1) // 2, q // 2]]
        ym = halfway(*s.ys[s.y_order[ranks % n]].T)
        _, constant, c, _, _ = _sweep_ranks(x, y, run_end, member[:, s.x_order], ym)
        c1_plus, c1_minus, c2_plus, c2_minus = _quadrant_counts(s.xs[held], s.ys[held], c, ym)
        scores = np.maximum(c1_plus + c2_minus, c1_minus + c2_plus) / (n - q)
        # a degenerate training partition is uncorrelated for sure
        values[block] = np.where(constant, 0.5, scores)
    return float(values.mean()), float(values.std(ddof=0))


def g_predict(x: float, fit: GCorrFit) -> MedianSide:
    """Predict which side of the y median a response should fall on."""
    right = x > fit.c
    if fit.dominant_diagonal is Diagonal.MAIN:
        return MedianSide.ABOVE_MEDIAN if right else MedianSide.BELOW_MEDIAN
    return MedianSide.BELOW_MEDIAN if right else MedianSide.ABOVE_MEDIAN
