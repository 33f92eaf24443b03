"""Multidimensional quadrant-split correlation.

With M feature columns the horizontal median line becomes the hyperplane
y = y_median, and the vertical cut becomes a separating hyperplane in
feature space. The construction here is fixed: take the Fisher linear
discriminant direction between the feature rows of the two median
classes (y above vs below the median), project the rows that survive
tie removal onto it, and hand the projected scalar to ``fit_g``. The
degenerate cases past the Fisher step are therefore ``fit_g``'s: a
projection without variation raises ConstantX, and one that overflows
float64 raises NonFiniteValue from PairedSample. For M = 1 the
direction canonicalizes to +1, so the fit reduces exactly to the
one-dimensional one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MultiSample, PairedSample, row_medians
from .errors import ConstantX, ConstantY, InvalidParams, ShortSample, SingularScatter
from .gcorr import fit_g

__all__ = ["HyperplaneFit", "fit_g_multi", "MAX_FEATURES"]

MAX_FEATURES = 16
# feature columns within this many binades of the largest share its
# scale: their scaled products stay far above the subnormal range
_SHARED_SCALE_BITS = 256


@dataclass(frozen=True, eq=False)
class HyperplaneFit:
    """Unit normal, projected cut offset, and the achieved omega.

    The separating hyperplane is {x : normal . x = offset}: ``offset`` is
    the projected sweep's cut, -inf included, and points with
    normal . x <= offset fall on its left side.
    """

    normal: np.ndarray
    offset: float
    omega: float
    y_median: float


def _fisher_direction(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Within-class-scatter-whitened difference of class means."""
    mu1 = x1.mean(axis=0)
    mu2 = x2.mean(axis=0)
    d1 = x1 - mu1
    d2 = x2 - mu2
    scatter = d1.T @ d1 + d2.T @ d2
    diff = mu1 - mu2
    try:
        w = np.linalg.solve(scatter, diff)
        if not np.all(np.isfinite(w)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # degenerate scatter: regularize instead of aborting a batch run
        m = scatter.shape[0]
        trace = float(np.trace(scatter))
        eps = 1e-9 * (trace / m if trace > 0 else 1.0)
        try:
            w = np.linalg.solve(scatter + eps * np.eye(m), diff)
        except np.linalg.LinAlgError as exc:
            raise SingularScatter("scatter matrix unusable even after regularization") from exc
        if not np.all(np.isfinite(w)):
            raise SingularScatter("scatter matrix unusable even after regularization")
    return w


def fit_g_multi(s: MultiSample) -> HyperplaneFit:
    """Fit the separating hyperplane and report the projected omega."""
    if s.m > MAX_FEATURES:
        raise InvalidParams(f"at most {MAX_FEATURES} feature columns supported, got {s.m}")
    y_median = float(row_medians(s.ys))
    keep = s.ys != y_median
    rows = s.x_rows[keep]
    ys = s.ys[keep]
    if rows.shape[0] == 0:
        raise ConstantY("every y equals the median; Y is constant")
    if rows.shape[0] < s.m + 2:
        raise ShortSample(
            f"need at least M + 2 = {s.m + 2} rows after tie removal, got {rows.shape[0]}"
        )
    above = ys > y_median
    if not above.any() or above.all():
        raise ConstantY("one median class is empty after tie removal")
    if np.all(rows == rows[0]):
        raise ConstantX("all feature rows are identical")

    # column j is scaled by 2**-e[j], the power of two that brings the
    # largest column's peak into [0.5, 1), or its own peak where that lies
    # more than _SHARED_SCALE_BITS binades lower, so that the class means,
    # the scatter and the norm neither overflow nor underflow. One shared
    # scale is exact in the normal range and keeps LU's pivot order, so
    # there the unit normal keeps the bits of the unscaled solve
    peaks = np.frexp(np.max(np.abs(rows), axis=0))[1]
    e = np.where(peaks < peaks.max() - _SHARED_SCALE_BITS, peaks, peaks.max())
    scaled = np.ldexp(rows, -e)
    w = _fisher_direction(scaled[above], scaled[~above])
    if not w.any():
        # identical class means: fall back to the most spread feature axis,
        # its spans taken at the largest peak's scale
        spans = np.ptp(np.ldexp(rows, -peaks.max()), axis=0)
        w = np.zeros(s.m)
        w[int(np.argmax(spans))] = 1.0
    else:
        # the direction for the rows is w = D w' with D = diag(2**-e),
        # shifted as a whole so that its largest component is in [0.5, 1)
        lead = (np.frexp(w)[1] - e)[w != 0].max()
        w = np.ldexp(w, -e - lead)
        w = w / np.linalg.norm(w)
        # canonical sign: first nonzero component positive, so M = 1
        # projects onto +x and reduces exactly to the 1-D fit
        first = w[np.flatnonzero(w)[0]]
        if first < 0:
            w = -w

    # tied rows stay 0, never projected: fit_g drops them by the same median
    projected = np.zeros(s.n)
    with np.errstate(over="ignore"):
        projected[keep] = rows @ w
    fit = fit_g(PairedSample(projected, s.ys))
    w = np.ascontiguousarray(w)
    w.flags.writeable = False
    return HyperplaneFit(normal=w, offset=fit.c, omega=fit.omega, y_median=y_median)
