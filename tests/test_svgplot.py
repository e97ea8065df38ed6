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
