"""Dependency-free SVG scatter rendering.

One plot style only: the data points, a horizontal line at the fitted y
median, a vertical line at the fitted cut, and the four quadrant counts
annotated in the corners. The two separators are the only ``<line>``
elements in the document, so structural checks can count them. Output is
a pure function of the inputs (fixed float formatting, no timestamps).
"""

from __future__ import annotations

from .core import PairedSample
from .gcorr import GCorrFit

__all__ = ["render_scatter"]

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 40


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _axis(lo: float, hi: float, start: int, span: int):
    """Map [lo, hi] into the middle 1/1.1 of ``span`` pixels from ``start``.
    Values are halved first, which cannot overflow and is exact in the
    normal range; a zero range maps to the middle."""
    half_lo, half = 0.5 * lo, 0.5 * hi - 0.5 * lo
    return lambda v: start + (((0.5 * v - half_lo) / half if half else 0.5) + 0.05) / 1.1 * span


def render_scatter(sample: PairedSample, fit: GCorrFit, title: str = "") -> str:
    """Scatter plus separators for a fitted sample, as an SVG document."""
    # imported here: it imports urllib.request, which would add about 60 ms
    # to every start of the command line, not only to a plot's
    from xml.sax.saxutils import escape

    xs, ys = sample.xs, sample.ys
    x_lo, x_hi = float(xs.min()), float(xs.max())
    # the separators stay inside the frame; a -inf cut is on its left edge
    if fit.c > float("-inf"):
        x_lo, x_hi = min(x_lo, fit.c), max(x_hi, fit.c)
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN
    sx = _axis(x_lo, x_hi, _MARGIN, span_x)
    y_lo, y_hi = min(float(ys.min()), fit.y_median), max(float(ys.max()), fit.y_median)
    sy = _axis(y_lo, y_hi, _HEIGHT - _MARGIN, -span_y)

    cut_x = sx(fit.c) if fit.c > float("-inf") else _MARGIN
    med_y = sy(fit.y_median)
    counts = fit.counts

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{span_x}" height="{span_y}" '
        f'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{escape(title)}</text>'
        )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(sx(float(x)))}" cy="{_fmt(sy(float(y)))}" '
            f'r="2.5" fill="#1f77b4" fill-opacity="0.7"/>'
        )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_fmt(med_y)}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_fmt(med_y)}" stroke="#d62728" stroke-width="1.5" '
        f'stroke-dasharray="6,3"/>'
    )
    parts.append(
        f'<line x1="{_fmt(cut_x)}" y1="{_MARGIN}" x2="{_fmt(cut_x)}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="#2ca02c" stroke-width="1.5" '
        f'stroke-dasharray="6,3"/>'
    )
    labels = [
        (f"C1-: {counts.c1_minus}", _MARGIN + 6, _MARGIN + 16, "start"),
        (f"C1+: {counts.c1_plus}", _WIDTH - _MARGIN - 6, _MARGIN + 16, "end"),
        (f"C2-: {counts.c2_minus}", _MARGIN + 6, _HEIGHT - _MARGIN - 8, "start"),
        (f"C2+: {counts.c2_plus}", _WIDTH - _MARGIN - 6, _HEIGHT - _MARGIN - 8, "end"),
    ]
    for text, x, y, anchor in labels:
        parts.append(
            f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="12">{text}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN}" y="{_HEIGHT - 12}" font-family="monospace" '
        f'font-size="12">omega = {fit.omega:.6f}, c = {fit.c:.6g}, '
        f'y_median = {fit.y_median:.6g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
