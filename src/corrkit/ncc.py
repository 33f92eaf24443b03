"""Nonlinear correlation coefficient on a b-by-b grid of equal-frequency
rank bins.

Points are placed by rank position: the x-rank picks the column, the
y-rank picks the row. With b dividing n every bin holds exactly n/b
observations and the marginal entropies are exactly 1 in base b, so the
coefficient reduces to 2 + sum_ij p_ij log_b p_ij. When b does not divide
n, bin k covers rank positions floor(k*n/b) .. floor((k+1)*n/b) - 1 and
the coefficient is computed as H(X) + H(Y) - H(X,Y), which keeps the
value inside [0, 1] under the slightly unequal marginals.

Rank positions come from the sample's shared column orders
(``PairedSample.x_order`` / ``y_order``, one stable sort per column), so
ties in x or y across a bin boundary are broken by input index and grids
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample
from .errors import InvalidParams, TooFewPoints

__all__ = ["BinGrid", "build_bin_grid", "ncc"]

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


def _rank_positions(order: np.ndarray) -> np.ndarray:
    # position of each input element in the sort ``order`` gives
    positions = np.empty(order.shape[0], dtype=np.int64)
    positions[order] = np.arange(order.shape[0])
    return positions


def build_bin_grid(s: PairedSample, b: int) -> BinGrid:
    """Assign every point to its (row, column) rank region and count."""
    if not isinstance(b, (int, np.integer)) or isinstance(b, bool) or b < 2:
        raise InvalidParams(f"bin count must be an integer >= 2, got {b!r}")
    b, n = int(b), s.n
    if n < b:
        raise TooFewPoints(f"need at least b={b} points, got {n}")
    bounds = bin_boundaries(n, b)
    cols = np.searchsorted(bounds[1:], _rank_positions(s.x_order), side="right")
    rows = np.searchsorted(bounds[1:], _rank_positions(s.y_order), side="right")
    counts = np.bincount(rows * b + cols, minlength=b * b).reshape(b, b)
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


def ncc(s: PairedSample, b: int = DEFAULT_BINS) -> float:
    """Mutual information of the rank grid in base-b logarithms.

    Empty regions contribute zero (the 0*log 0 := 0 convention). The
    value lies in [0, 1]: 0 for an exactly uniform grid, 1 when the grid
    is a permutation matrix of full bins.
    """
    grid = build_bin_grid(s, b)
    n = grid.n
    h_rows = _entropy_base_b(grid.row_counts, n, b)
    h_cols = _entropy_base_b(grid.col_counts, n, b)
    h_joint = _entropy_base_b(grid.counts.ravel(), n, b)
    return h_rows + h_cols - h_joint
