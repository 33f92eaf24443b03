"""render_scatter draws every fitted sample inside its frame, whatever the
magnitudes: no coordinate is nan or infinite."""

import re
from xml.etree import ElementTree

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkit import AllTied, ConstantX, PairedSample, fit_g, render_scatter

from test_classic import EXTREMES, FLOAT_MAX

_X = re.compile(r' (?:cx|x1|x2)="([^"]*)"')
_Y = re.compile(r' (?:cy|y1|y2)="([^"]*)"')


def assert_drawable(svg):
    assert "nan" not in svg
    # the label reports the cut as it is, -inf included
    assert "inf" not in svg.replace("c = -inf", "")
    assert svg.count("<line") == 2
    assert all(40.0 <= float(v) <= 600.0 for v in _X.findall(svg))
    assert all(40.0 <= float(v) <= 440.0 for v in _Y.findall(svg))


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(*[st.lists(st.sampled_from(EXTREMES), min_size=n, max_size=n)] * 2)
    )
)
@settings(max_examples=100, deadline=None)
def test_extreme_samples_draw_inside_the_frame(columns):
    s = PairedSample(*columns)
    try:
        fit = fit_g(s)
    except (AllTied, ConstantX):
        return
    assert_drawable(render_scatter(s, fit))


def test_span_beyond_float_max():
    # x spans 3.4e308, beyond float max: unhalved, the span is inf and
    # every x coordinate nan
    s = PairedSample([-1.7e308, 0, 1, 1.7e308, 2, 3], [0, 1, 2, 3, 4, 5])
    assert_drawable(render_scatter(s, fit_g(s)))


def test_minus_inf_cut_on_the_left_edge():
    s = PairedSample([-FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, FLOAT_MAX], [1, 4, 2, 3])
    fit = fit_g(s)
    assert fit.c == -np.inf
    svg = render_scatter(s, fit)
    assert_drawable(svg)
    assert '<line x1="40.000" y1="40" x2="40.000" y2="440"' in svg
    assert "c = -inf" in svg


def test_a_zero_median_prints_without_a_sign():
    # the middle ys are -0.0 and 0.0 in either order
    for ys in ([-1.0, 0.0, -0.0, 2.0, -0.0], [-1.0, -0.0, -0.0, 2.0, 0.0]):
        s = PairedSample([1.0, 2.0, 3.0, 4.0, 5.0], ys)
        svg = render_scatter(s, fit_g(s))
        assert "y_median = 0<" in svg


def test_a_title_with_markup_characters_is_escaped():
    s = PairedSample([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    root = ElementTree.fromstring(render_scatter(s, fit_g(s), title="R&D <x>"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "R&D <x>"
