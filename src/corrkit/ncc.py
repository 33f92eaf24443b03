"""Nonlinear correlation coefficient on a b-by-b grid of equal-frequency
rank bins.

Points are placed by rank position: the x-rank picks the column, the
y-rank picks the row. With b dividing n every bin holds exactly n/b
observations and the marginal entropies are exactly 1 in base b, so the
coefficient reduces to 2 + sum_ij p_ij log_b p_ij. When b does not divide
n, bin k covers rank positions floor(k*n/b) .. floor((k+1)*n/b) - 1 and
the coefficient is computed as H(X) + H(Y) - H(X,Y), which keeps the
value inside [0, 1] under the slightly unequal marginals.

Rank positions come from the shared column orders
(``Table.sorted_all``, which holds ``PairedSample.x_order`` and
``y_order`` for a sample, the 1x1 table), one stable sort per column,
so ties in x or y across a bin boundary are broken by input index and
grids are deterministic.

:func:`ncc_table` computes a whole :class:`~corrkit.core.Table`: the
rank bins of all columns at once, the marginal entropy once (every
column's bins hold the same counts), and the joint grids of a block of
pairs as one ``bincount`` with a b*b offset per pair. Each joint entropy is still
summed on its own, in row-major order, so a table cell equals the
sample's ncc bit for bit; :func:`ncc` is the 1x1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample, Table, as_int, int_for, row_blocks, single_cell
from .errors import TooFewPoints

__all__ = ["BinGrid", "build_bin_grid", "ncc", "ncc_table"]

DEFAULT_BINS = 10


@dataclass(frozen=True, eq=False)
class BinGrid:
    """Rank-region counts: counts[i][j] holds the points whose y-rank
    falls in row bin i and x-rank in column bin j."""

    b: int
    counts: np.ndarray
    row_counts: np.ndarray
    col_counts: np.ndarray

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def bin_boundaries(n: int, b: int) -> np.ndarray:
    """Rank-position cut points floor(k*n/b) for k = 0..b."""
    return np.array([(k * n) // b for k in range(b + 1)], dtype=np.int64)


def _bin_labels(sizes: np.ndarray) -> np.ndarray:
    """The bin of each rank position, in the narrowest integers that hold
    the bin count, given the bins' sizes."""
    return np.repeat(np.arange(sizes.shape[0], dtype=int_for(sizes.shape[0])), sizes)


def build_bin_grid(s: PairedSample, b: int) -> BinGrid:
    """Assign every point to its (row, column) rank region and count; the
    bin count b is an integer >= 2 (see :func:`~corrkit.core.as_int`)."""
    b, n = as_int(b, "bin count", 2), s.n
    if n < b:
        raise TooFewPoints(f"need at least b={b} points, got {n}")
    sizes = np.diff(bin_boundaries(n, b))
    x_bins, y_bins = s.sorted_all().in_input_order(_bin_labels(sizes))
    cells = np.multiply(y_bins, b, dtype=np.intp) + x_bins
    counts = np.bincount(cells, minlength=b * b).reshape(b, b)
    counts.flags.writeable = False
    row_counts = counts.sum(axis=1)
    col_counts = counts.sum(axis=0)
    row_counts.flags.writeable = False
    col_counts.flags.writeable = False
    return BinGrid(b=b, counts=counts, row_counts=row_counts, col_counts=col_counts)


def _entropy_base_b(counts: np.ndarray, n: int, b: int) -> float:
    """Base-b entropy of the nonzero counts, summed in the given order.

    ncc passes the joint grid in row-major order. Swapping x and y
    transposes the grid, so the same terms are summed in another order,
    and ``ncc(s.swapped())`` can differ from ``ncc(s)`` in the last few
    bits of H(X, Y): one such unit is one or more units in the last place
    of ncc, which never exceeds H(X, Y).
    """
    p = counts[counts > 0] / n
    return float(-np.sum(p * (np.log(p) / math.log(b))))


def ncc_table(table: Table, b: int = DEFAULT_BINS, *_) -> list:
    """ncc of each pair of the table as H(X) + H(Y) - H(X, Y); every cell
    is ``TooFewPoints`` when n < b, and a bad bin count raises (a panel's
    split plan, when passed, does not apply)."""
    b, n = as_int(b, "bin count", 2), table.n
    if n < b:
        return [TooFewPoints(f"need at least b={b} points, got {n}") for _ in table.pairs]
    sizes = np.diff(bin_boundaries(n, b))
    # a column's bins hold ``sizes`` points each, whatever the column
    h_marginal = _entropy_base_b(sizes, n, b)
    bins = table.sorted_all().in_input_order(_bin_labels(sizes))
    cells = []
    for block in row_blocks(len(table.pairs), n + b * b):
        # the y bin picks the grid row, the x bin the column, and each
        # pair's grid takes its own b*b slots of one bincount
        x_bins, y_bins = table.stacked(bins, block)
        rows = x_bins.shape[0]
        grid_cells = np.multiply(y_bins, b, dtype=np.intp)
        grid_cells += x_bins
        grid_cells += (np.arange(rows) * (b * b))[:, None]
        grids = np.bincount(grid_cells.reshape(-1), minlength=rows * b * b)
        for grid in grids.reshape(rows, b * b):
            cells.append(h_marginal + h_marginal - _entropy_base_b(grid, n, b))
    return cells


def ncc(s: PairedSample, b: int = DEFAULT_BINS) -> float:
    """Mutual information of the rank grid in base-b logarithms.

    Empty regions contribute zero (the 0*log 0 := 0 convention). The
    value lies in [0, 1]: 0 for an exactly uniform grid, 1 when the grid
    is a permutation matrix of full bins.
    """
    return single_cell(ncc_table, s, b)
