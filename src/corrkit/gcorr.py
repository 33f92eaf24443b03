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

The fit sweeps, in rank space over x's shared sort pass (its row of
``Table.sorted_all``), one candidate cut between each two successive
sorted x plus a sentinel below min(x), which keeps the "everything on
one side" split (objective exactly 0.5 on balanced classes) available. The
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
median, rows in x rank order: a column per dependent and split
iteration, or the one column of a full-data fit: of :func:`fit_g`, or of
a pair of :func:`omega_table` without a plan. Prefix sums and reductions
run down the columns, in the narrowest integers that hold n.
:func:`omega_table` runs the split estimator on every pair of a table in
one pass over the plan's iterations, a block at a time, with one sweep
per independent and chunk of its dependents; :func:`estimate_g` is its
1x1 case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (PairedSample, RngSeed, Table, as_int, as_iterations, as_seed, halfway, int_for, row_blocks,
                   row_medians, run_bounds)
from .errors import AllTied, ConstantX, InvalidParams, NonFiniteValue, ShortSample

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
    "omega_table",
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
    """Seeded specification of repeated train/eval partitions: iteration
    i trains on the first ``train_size`` entries of
    ``seed.rng(i).permutation(train_size + eval_size)``. It holds its four
    validated fields and no data; the split engine draws the partitions
    a block of iterations at a time, once per table it is applied to.
    It stores each count as an int; a fit needs ``train_size`` >= 2.
    """

    train_size: int
    eval_size: int
    iterations: int
    seed: RngSeed

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "train_size", as_int(self.train_size, "train_size", 2, 2**32, "be in [2, 2**32)"))
        object.__setattr__(self, "eval_size", as_int(self.eval_size, "eval_size", 1, 2**32, "be in [1, 2**32)"))
        object.__setattr__(self, "iterations", as_iterations(self.iterations))


# ---------------------------------------------------------------------------
# preprocessing


def preprocess_ties(s: PairedSample) -> tuple[PairedSample, int, float]:
    """Drop rows whose y equals the sample median of the original data.

    Returns the reduced sample, the number of removed rows, and the
    median itself. Removing all rows means Y is constant (AllTied); a
    single surviving row cannot form a sample (ShortSample).
    """
    y_median = float(row_medians(s.ys))
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


def _by_x(table: Table, k: int):
    """Column k of the table in its stable order, and for each rank the
    start and one past the end of its run of tied values, or None where
    the column is distinct."""
    passes = table.sorted_all()
    return table.columns[k][passes.order[k]], None if passes.distinct[k] else run_bounds(passes.runs[k])


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


def _fit(table: Table, i: int, j: int) -> tuple[float, float, int, int]:
    """The full-data fit of x column i and y column j: the cut, the y
    median, the larger diagonal count and the points off the median; AllTied
    where every y is on the median, ConstantX where those points' x are equal."""
    y_median = float(row_medians(table.columns[j]))
    y = table.columns[j][table.sorted_all().order[i]][:, None]
    signs = (y < y_median).view(np.int8) - (y > y_median).view(np.int8)
    kept, constant, c, score, _ = _sweep(*_by_x(table, i), signs)
    if kept[0] == 0:
        raise AllTied("every y equals the median; Y is constant")
    if constant[0]:
        raise ConstantX("x carries no variation after tie removal")
    return float(c[0]), y_median, int(score[0]), int(kept[0])


def fit_g(s: PairedSample) -> GCorrFit:
    """Fit the two separators on the full sample and report omega.

    Equivalent to evaluating :func:`g_objective` at every candidate cut
    and keeping the best (smallest c on ties); it runs as the one-column
    case, every point a member, of the sweep behind the split estimator.
    """
    c, y_median, score, kept = _fit(s, 0, 1)
    # rows removed as ties sit in no quadrant, so the full sample counts
    # and picks the diagonal alike
    _, counts, diagonal = g_objective(s, c, y_median)
    return GCorrFit(c, y_median, score / kept, diagonal, counts, s.n - kept)


# ---------------------------------------------------------------------------
# train/eval estimation


def _training_members(plan: SplitPlan, block: slice) -> np.ndarray:
    """The (n, rows) booleans of the plan's iterations in ``block``: column
    k marks what iteration block.start + k trains on, the first train_size
    entries of ``seed.rng(block.start + k).permutation(n)``."""
    n = plan.train_size + plan.eval_size
    rows = len(range(plan.iterations)[block])
    perms = plan.seed.permutations(rows, n, block.start)
    member = np.zeros((n, rows), dtype=bool)
    member[perms[:, : plan.train_size], np.arange(rows)[:, None]] = True
    return member


def _training_signs(table: Table, k: int, member: np.ndarray, q: int):
    """The (n, columns) int8 sides of column k's median over the training
    points of each ``member`` column, rows in point order: of the training
    points, then of the held-out points (+1 below, -1 above, 0 on it or in
    the other part); and per column the counts below and above. Training
    counts up to each rank find the two middle training values, whose
    halfway point is the median; a value is below iff its rank is below
    the median's ``searchsorted(.., "left")`` in the sorted column, above
    iff it is at or beyond its ``"right"`` one."""
    n, count_t = table.n, int_for(table.n)
    order = table.sorted_all().order[k]
    y_sorted = table.columns[k][order]
    seen = np.cumsum(member[order], axis=0, dtype=count_t)
    lower = (seen <= (q - 1) // 2).sum(axis=0, dtype=count_t)
    upper = (seen <= q // 2).sum(axis=0, dtype=count_t)
    y_median = halfway(y_sorted[lower], y_sorted[upper])
    below = np.searchsorted(y_sorted, y_median, "left").astype(count_t)
    first_above = np.searchsorted(y_sorted, y_median, "right").astype(count_t)
    rank = np.empty((n, 1), dtype=count_t)
    rank[order, 0] = np.arange(n)
    signs = (rank < below).view(np.int8) - (rank >= first_above).view(np.int8)
    train = signs * member
    return train, signs - train, below.astype(np.intp), n - first_above.astype(np.intp)


def _chunks(table: Table, sides: dict, width: int):
    """The sweeps of a block of ``width`` iterations: each distinct
    independent i with a chunk of its pairs, whose dependents' ``sides``
    (the arrays of :func:`_training_signs`) run side by side in one
    :func:`_sweep`. A chunk holds at most max(1, BLOCK_CELLS // (n *
    width)) pairs, so a sweep's temporaries stay in the cell budget.
    Yields i, the chunk's rows in ``table.pairs`` and its dependents'
    arrays, stacked along the iterations."""
    groups = {}
    for p, (i, j) in enumerate(table.pairs):
        groups.setdefault(i, []).append((p, j))
    for i, group in groups.items():
        for part in row_blocks(len(group), table.n * width):
            rows, chunk = zip(*group[part])
            parts = [sides[j] for j in chunk]
            yield i, rows, parts[0] if len(parts) == 1 else [np.concatenate(a, axis=-1) for a in zip(*parts)]


def _split_iterations(table: Table, plan: SplitPlan):
    """Each iteration of ``plan`` on each pair of ``table``, as (pairs,
    iterations) arrays: whether its training partition is degenerate, its
    fitted cut (meaningless where degenerate) and its held-out score (0.5
    where degenerate). Blocks of iterations run outside, pairs inside: per
    block the partitions are drawn once, each distinct dependent's
    training and held-out signs are found once, and each sweep of
    :func:`_chunks` is scored on its held-out points in one pass, its
    columns then copied to their pairs' rows."""
    n, q = table.n, plan.train_size
    if q + plan.eval_size != n:
        raise InvalidParams(f"plan covers {q + plan.eval_size} rows but the sample has {n}")
    count_t = int_for(n)
    rank = np.arange(n, dtype=count_t)[:, None]
    xs = {i: _by_x(table, i) for i in dict.fromkeys(i for i, _ in table.pairs)}
    dependents = dict.fromkeys(j for _, j in table.pairs)
    shape = (len(table.pairs), plan.iterations)
    constant, cuts, values = np.empty(shape, dtype=bool), np.empty(shape), np.empty(shape)
    for block in row_blocks(plan.iterations, n):
        member = _training_members(plan, block)
        width = member.shape[1]
        sides = {j: _training_signs(table, j, member, q) for j in dependents}
        for i, rows, (train, held, below, above) in _chunks(table, sides, width):
            x, runs = xs[i]
            order = table.sorted_all().order[i]
            kept, flat, c, _, balance = _sweep(x, runs, train[order])
            # held out are the signs training leaves; x > c iff the x rank is
            # at or beyond cut, also on tied x. The held-out points off the
            # median and their signs' sum, right of the cut and in all, give
            # the larger diagonal as (nonzero + |2 * right - total|) / 2
            cut = np.searchsorted(x, c, "right").astype(count_t)
            right = ((rank >= cut) * held[order]).sum(axis=0, dtype=count_t).astype(np.intp)
            total = below - above - balance[n]
            nonzero = below + above - kept
            scores = (nonzero + np.abs(2 * right - total)) // 2 / (n - q)
            # a degenerate training partition is uncorrelated for sure
            scores = np.where(flat, 0.5, scores)
            for k, p in enumerate(rows):
                part = slice(k * width, (k + 1) * width)
                constant[p, block], cuts[p, block], values[p, block] = flat[part], c[part], scores[part]
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

    It is the 1x1 case of :func:`omega_table`'s split engine, one sweep
    a block in rank space; its memory is a few blocks plus 17 bytes per
    iteration.
    """
    (values,) = _split_iterations(s, plan)[2]
    return float(values.mean()), float(values.std(ddof=0))


def omega_table(table: Table, b: int | None = None, split: SplitPlan | None = None) -> list:
    """omega of each pair of the table (a panel's bin count does not
    apply): with a plan, the split estimate's mean, every pair in one pass
    over the iterations; else each pair's full-data fit, :func:`fit_g`'s
    on the table's columns, its ``AllTied`` or ``ConstantX`` the pair's cell."""
    if split is not None:
        return [float(values.mean()) for values in _split_iterations(table, split)[2]]
    cells = []
    for i, j in table.pairs:
        try:
            _, _, score, kept = _fit(table, i, j)
            cells.append(score / kept)
        except (AllTied, ConstantX) as exc:
            cells.append(exc)
    return cells


def g_predict(x: float, fit: GCorrFit) -> MedianSide:
    """Predict which side of the y median a response should fall on; a
    non-finite x raises ``NonFiniteValue``."""
    if not math.isfinite(x):
        raise NonFiniteValue(detail=f"x is {x!r}")
    right = x > fit.c
    if fit.dominant_diagonal is Diagonal.MAIN:
        return MedianSide.ABOVE_MEDIAN if right else MedianSide.BELOW_MEDIAN
    return MedianSide.BELOW_MEDIAN if right else MedianSide.ABOVE_MEDIAN
