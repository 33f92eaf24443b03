"""The four classical coefficients: Pearson r, Spearman rho, Kendall tau,
and the Fechner sign coefficient kappa, with explicit tie policies.

Each coefficient is computed per :class:`~corrkit.core.Table`: its
``*_table`` function builds each statistic (deviations, ranks, signs)
for all columns at once, one array operation along the rows of the
table's (columns, n) matrix, and then every pair's value from those,
with one cell per pair: the value, or the ``CorrkitError`` that makes it
undefined. The integer work of all pairs (Kendall's sorts and counts,
kappa's sign agreements) runs as stacked array rows, exact in any order
and in any integer width; Kendall's keys are packed into the narrowest
signed type that holds them (``core.int_for``). The floating-point
reductions that BLAS sums (each column's sum of squares, each pair's
dot product) stay per column and per pair, and numpy's row means sum
each row as it sums a vector, so a table cell equals the sample's value
bit for bit. ``pearson``, ``spearman``, ``kendall`` and ``fechner`` are
the 1x1 case.

Conventions that matter for reproducibility:

* ``sign(0) = +1`` everywhere the Fechner coefficient looks at a sign,
  so a point sitting exactly on a mean line counts as "at or above".
* Spearman with ties is the Pearson coefficient of the average-tie rank
  vectors; without ties this equals the classical 1 - 6*sum(d^2)/(n(n^2-1))
  formula exactly.
* Kendall ties contribute zero to the pair sum and the denominator stays
  n(n-1); no tie-corrected variant is applied.
* rho, tau and the Fechner trace read each column's one sort pass
  (``Table.sorted_all``, or ``PairedSample.x_sorted`` and ``y_sorted``
  for a sample, the 1x1 table), so equal x values keep input order and
  the recorded binary sequence is deterministic; its run ids give the
  ranks and the tie counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (COLUMN_CELLS, PairedSample, SortedColumn, Table, as_vector, int_for, row_blocks, row_means,
                   run_bounds, run_ids, sample_mean, single_cell, stable_order, unit_scaled)
from .errors import DegenerateVariance, NonFiniteValue, UndefinedDirection

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
    "pearson_table",
    "spearman_table",
    "kendall_table",
    "fechner_table",
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


def _deviations(v: np.ndarray) -> tuple[np.ndarray, list]:
    """Each row of v as its deviations from its mean, scaled by powers of
    two (``unit_scaled`` before and after centring), and each row's sum of
    squares, a dot product of its own. The first scaling writes the one
    new array and the rest works in it, so v is left as it is and a large
    table allocates no other temporary as large as itself."""
    d = unit_scaled(v)
    d -= d.mean(axis=-1, keepdims=True)
    unit_scaled(d, out=d)
    return d, [float(row @ row) for row in d]


def _column_deviations(table: Table, rows_of) -> tuple[list, list]:
    """The :func:`_deviations` of the float rows that ``rows_of`` gives for
    each block of the table's columns, a block of at most COLUMN_CELLS
    values: all columns at once on a short table, one by one on a long
    one. Returns the rows and their sums of squares, one per column."""
    d, squares = [], []
    for block in row_blocks(len(table.columns), table.n, COLUMN_CELLS):
        block_d, block_squares = _deviations(rows_of(block))
        d += list(block_d)
        squares += block_squares
    return d, squares


def _pearson_cells(table: Table, d: list, squares: list, constant: str) -> list:
    """r of each pair from the rows of its columns' :func:`_deviations`; a
    pair with a zero sum of squares gets ``DegenerateVariance(constant)``
    as its cell, with ``{which}`` in ``constant`` naming "xs" or "ys"."""
    cells = []
    for i, j in table.pairs:
        sxx, syy = squares[i], squares[j]
        if sxx == 0.0 or syy == 0.0:
            cells.append(DegenerateVariance(constant.format(which="xs" if sxx == 0.0 else "ys")))
            continue
        r = float(d[i] @ d[j]) / math.sqrt(sxx * syy)
        if math.isnan(r):  # clamping would turn it into -1
            raise NonFiniteValue(detail="r evaluated to NaN")
        cells.append(min(1.0, max(-1.0, r)))
    return cells


def pearson_table(table: Table, *_) -> list:
    """Pearson r of each pair of the table (a panel's bin count and split
    plan, when passed, do not apply)."""
    deviations = _column_deviations(table, lambda block: table.values[block])
    return _pearson_cells(table, *deviations, "{which} is constant; r undefined")


def pearson(s: PairedSample) -> float:
    """Pearson correlation coefficient; |r| = 1 exactly when the points
    lie on a non-degenerate straight line."""
    return single_cell(pearson_table, s)


def _tied_pairs(ids: np.ndarray) -> np.ndarray:
    """Pairs inside the runs of each row of (rows, n) run ids that ascend
    over the flat array, no run spanning two rows: a row's runs begin at
    its first id, and may skip ids."""
    sizes = np.bincount(ids.reshape(-1))
    return np.add.reduceat(sizes * (sizes - 1), ids[:, 0]) // 2


def rank_with_average_ties(v) -> RankVector:
    """Ranks 1..n with tied values assigned the mean of their positions,
    of a vector :func:`~corrkit.core.as_vector` takes."""
    return RankVector(_average_ranks(stable_order(as_vector(v))))


def _average_ranks(column: SortedColumn) -> np.ndarray:
    """Average-tie ranks of a column, or of each row of a block, from its
    sort pass: tied values share the mean of the 1-based positions their
    run occupies."""
    positions = np.arange(1.0, column.order.shape[-1] + 1)
    tied = ~column.distinct  # the rows that have runs longer than one
    if np.any(tied):
        positions = np.tile(positions, column.order.shape[:-1] + (1,))
        starts, ends = run_bounds(column.runs[tied])
        # a run holds the 1-based positions starts + 1 .. ends; the integer
        # sum of the first and last is exact, so halving it is too
        positions[tied] = 0.5 * (starts + ends + 1)
    return column.in_input_order(positions)


def spearman_table(table: Table, *_) -> list:
    """Spearman rho of each pair: Pearson r of the columns' average-tie
    ranks, which reduces to the classical no-ties formula when all values
    differ."""
    passes = table.sorted_all()
    deviations = _column_deviations(
        table, lambda block: _average_ranks(SortedColumn(passes.order[block], passes.runs[block], passes.distinct[block]))
    )
    return _pearson_cells(table, *deviations, "a rank vector is constant (all values tied)")


def spearman(s: PairedSample) -> float:
    """Spearman rank correlation with average-tie ranks."""
    return single_cell(spearman_table, s)


def _key_type(rows: int, n: int) -> np.dtype:
    """The narrowest integer type that holds every key of
    :func:`_discordant_pairs` on (rows, n) values, the largest at level
    0. It also holds Kendall's joint keys, which stay below rows n^2."""
    levels = (n - 1).bit_length()
    top = ((rows - 1) << levels | (n - 1)) >> 1  # the largest block field
    return int_for((top * n + n - 1) * 2 + 1)


def _set_bit_position_sum(n: int) -> int:
    """The sum over p < n of p times the number of set bits of p: per
    bit, full stretches of 2^bit numbers with it set, then a partial one."""
    total = 0
    for bit in range((n - 1).bit_length()):
        half = 1 << bit
        full = n // (2 * half)
        start = (2 * full + 1) * half
        total += half * half * full * full + full * half * (half - 1) // 2
        total += max(0, n - start) * (start + n - 1) // 2
    return total


def _discordant_pairs(a: np.ndarray) -> np.ndarray:
    """Number of pairs i < j with a[i] > a[j] in each row of (rows, n)
    integers 0 <= a < n.

    A bottom-up merge count (Knight 1966, JASA 61:436) in log2(n) flat
    sorts of all rows at once. Level k merges each pair of neighbouring
    sorted runs of width 2^k. Position p of row r has the grid index
    q = r << levels | p, so the high bits q & ~(2^(k+1) - 1) name its
    block, a pair of runs within one row, and bit k of q its side. The
    key (q & ~(2^(k+1) - 1)) * n + (a << 1 | side) keeps each block in a
    range of its own and puts a left value before an equal right one. A
    right element that moves d places to the left passes exactly the d
    larger left values of its block, so the count is how far the right
    elements move in total: the sum of their original positions (p once
    per set bit of p) less the sum of the positions they land on, which
    a counter per position records.

    The keys are held in :func:`_key_type`'s integer type, the narrowest
    that holds them (int32 up to n = 46,340 for one row); level 0 holds
    the largest. Each level is the sort plus five in-place operations on
    buffers allocated once, which turn each sorted key into the next
    level's, and two that count the right elements: the position's next
    side bit b = bit k + 1 of q (from the grid shifted right once per
    level) leaves the key's block field 2^(k+1) n lower and its low bit
    b, so the next key is (key & ~1) - b * (2^(k+1) n - 1).
    """
    rows, n = a.shape
    levels = (n - 1).bit_length()
    key_t = _key_type(rows, n)
    # typed 0-d operands: numpy converts a scalar operand on every call
    one, not_one, n_t, levels_t = (np.array(v, dtype=key_t) for v in (1, ~1, n, levels))
    grid = np.arange(rows, dtype=key_t)[:, None] << levels_t
    grid = (grid | np.arange(n, dtype=key_t)).reshape(-1)
    keys = grid & not_one
    keys *= n_t
    keys += np.left_shift(a.reshape(-1), one, dtype=key_t)
    keys |= grid & one
    side = np.empty_like(grid)
    landed = np.zeros_like(grid)  # levels with a right element at each position
    for k in range(levels):
        if k:
            grid >>= one
            np.bitwise_and(grid, one, out=side)
            side *= np.array((n << k) - 1, dtype=key_t)
            keys &= not_one
            keys -= side
        keys.sort()
        np.bitwise_and(keys, one, out=side)
        landed += side
    return _set_bit_position_sum(n) - landed.reshape(rows, n) @ np.arange(n)


def kendall_table(table: Table, *_) -> list:
    """Kendall tau of each pair over all n(n-1)/2 point pairs; tied pairs
    contribute zero.

    O(n log n) per pair and exact: of the n0 point pairs, n1 tie in x, n2
    in y and n3 in both, so concordant plus discordant pairs number
    n0 - n1 - n2 + n3, and the discordant ones D are the strict inversions
    of the y ranks in (x, y) order. The integer sum C - D =
    n0 - n1 - n2 + n3 - 2D is the pairwise sign-product sum. Dense ranks
    (run ids) and n1, n2 come from the columns' sort passes, all columns
    at once; n3 and D for blocks of pairs as stacked rows in
    :func:`_key_type`'s type, n3 only on rows whose columns both tie (a
    pair tied in both is tied in each).
    """
    n = table.n
    columns = table.sorted_all()
    ranks = columns.in_input_order(columns.runs)
    ties = np.zeros(len(table.columns), dtype=np.intp)
    tied = ~columns.distinct
    if np.any(tied):
        runs = columns.runs[tied]
        ties[tied] = _tied_pairs(runs + np.arange(0, runs.size, n)[:, None])
    cells = []
    for block in row_blocks(len(table.pairs), n):
        # one integer key per point sorts a pair's points by (x, y), and
        # row r's keys start at r * n^2; the key mod n is y's rank
        x_rank, y_rank = table.stacked(ranks, block)
        rows = x_rank.shape[0]
        key_t = _key_type(rows, n)
        n_t = np.array(n, dtype=key_t)
        joint = np.add(x_rank, np.arange(0, rows * n, n, dtype=key_t)[:, None], dtype=key_t)
        joint *= n_t
        joint += y_rank
        joint.reshape(-1).sort()
        x_ties, y_ties = table.stacked(ties, block)
        both = (x_ties > 0) & (y_ties > 0)
        joint_ties = np.zeros(rows, dtype=np.intp)
        # each row's keys lie in a range of their own, so no run crosses rows
        joint_ties[both] = _tied_pairs(run_ids(joint[both].reshape(-1)).reshape(-1, n))
        totals = (
            n * (n - 1) // 2
            - x_ties
            - y_ties
            + joint_ties
            - 2 * _discordant_pairs(joint % n_t)
        )
        cells += [2.0 * int(total) / (n * (n - 1)) for total in totals]
    return cells


def kendall(s: PairedSample) -> float:
    """Kendall tau over all n(n-1)/2 pairs; tied pairs contribute zero."""
    return single_cell(kendall_table, s)


def fechner_table(table: Table, *_) -> list:
    """Fechner kappa of each pair: the mean of the products of deviation
    signs about the sample means, sign(0) = +1. All columns' signs come
    at once; each pair's product sum is n minus twice the number of points
    whose signs disagree, an exact integer."""
    n = table.n
    at_or_above = table.values >= row_means(table.values)[:, None]
    cells = []
    for block in row_blocks(len(table.pairs), n):
        signs_x, signs_y = table.stacked(at_or_above, block)
        disagree = np.count_nonzero(signs_x != signs_y, axis=1)
        cells += [float(n - 2 * int(d)) / n for d in disagree]
    return cells


def fechner(s: PairedSample) -> FechnerTrace:
    """Fechner coefficient: mean of products of deviation signs about the
    sample means, with sign(0) = +1.

    The returned trace carries the x-sorted binary sequence and the split
    index i0 of the step form; its kappa is the step-form sum over them,
    which equals the 1x1 cell of :func:`fechner_table` bit for bit.
    """
    n = s.n
    i0 = int(np.sum(s.xs[s.x_order] < sample_mean(s.xs)))
    binary = (s.ys[s.x_order] >= sample_mean(s.ys)).astype(np.int8)
    binary.flags.writeable = False
    # the first i0 x ranks lie below the x mean: their signs disagree where
    # y is at or above its mean, those of the other ranks where it is below
    disagree = int(np.count_nonzero(binary[:i0])) + (n - i0 - int(np.count_nonzero(binary[i0:])))
    return FechnerTrace(i0=i0, binary_seq=binary, kappa=float(n - 2 * disagree) / n)


def fechner_predict(x: float, x_mean: float, y_mean: float, kappa: float) -> MeanSide:
    """Classify where y should fall relative to y_mean, given x.

    Returns BELOW_MEAN iff (x - x_mean) * sign(kappa) < 0, AT_MEAN iff
    x == x_mean, ABOVE_MEAN otherwise. A zero kappa carries no direction,
    so it can only answer the x == x_mean case. A non-finite x raises
    ``NonFiniteValue``.
    """
    if not math.isfinite(x):
        raise NonFiniteValue(detail=f"x is {x!r}")
    if x == x_mean:
        return MeanSide.AT_MEAN
    if kappa == 0.0:
        raise UndefinedDirection("kappa is 0; no directional prediction")
    signed = (x - x_mean) * (1.0 if kappa > 0 else -1.0)
    return MeanSide.BELOW_MEAN if signed < 0 else MeanSide.ABOVE_MEAN
