"""SVG plot rendering: series colours and the legend."""

import re

import numpy as np

from nvbath.svgplot import _PALETTE, render_plot


def _colours(svg):
    lines = re.findall(r'<polyline [^>]*stroke="([^"]+)"', svg)
    legend = re.findall(r'<line [^>]*stroke="([^"]+)" stroke-width="2"', svg)
    return lines, legend


def test_legend_colour_is_the_series_colour():
    # distinct numpy x arrays: comparing the series dicts is ambiguous
    distinct = [{"x": np.arange(4.0), "y": [1, 2, 3, 4], "label": "a"},
                {"x": np.arange(4.0) + 1, "y": [2, 3, 4, 5], "label": "b"}]
    # equal dicts: each legend entry still takes its own series' colour
    equal = [{"x": [1, 2, 3], "y": [1, 2, 3], "label": "same"}
             for _ in range(2)]
    unlabeled_first = [{"x": [1, 2], "y": [1, 2]},
                       {"x": [1, 2], "y": [2, 1], "label": "second"}]
    for series, want in ((distinct, _PALETTE[:2]), (equal, _PALETTE[:2]),
                         (unlabeled_first, _PALETTE[1:2])):
        lines, legend = _colours(render_plot(series))
        assert lines == list(_PALETTE[:len(series)])
        assert legend == list(want)


def test_an_empty_linear_range_is_widened_once():
    # a single x value spans [x, 2x] (or [0, 1] at 0); the ticks follow
    # the widened axis, so they sit inside the plot frame
    def ticks(svg, anchor):
        return re.findall(rf'text-anchor="{anchor}">([^<]*)</text>', svg)

    svg = render_plot([{"x": [2.0], "y": [5.0]}])
    assert ticks(svg, "middle") == ["2", "2.5", "3", "3.5", "4"]
    assert ticks(svg, "end") == ["4.8", "4.9", "5", "5.1", "5.2"]
    svg = render_plot([{"x": [0.0, 0.0], "y": [0.0, 0.0]}])
    assert ticks(svg, "middle") == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert ticks(svg, "end") == ["-0.04", "-0.02", "0", "0.02", "0.04"]
