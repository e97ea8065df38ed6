"""Minimal SVG line plots with no third-party plotting dependency.

Produces deterministic, self-contained SVG text: fixed canvas, numeric
ticks chosen from the data range, optional log axes, polyline series with
an inline legend. Enough for quick looks at spectra, linewidth curves and
decay envelopes; not a general plotting library.
"""

from __future__ import annotations

import math

from .errors import ValidationError

_PALETTE = ("#1f6fb2", "#d1495b", "#3a7d44", "#8e6fb8", "#c88b2e",
            "#2aa198", "#6c71c4")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 20, 36, 52


def _nice_ticks(lo: float, hi: float, target: int = 6):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("axis limits must be finite")
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float):
    ticks = []
    d = math.floor(math.log10(lo))
    while 10.0 ** d <= hi * (1 + 1e-12):
        if 10.0 ** d >= lo * (1 - 1e-12):
            ticks.append(10.0 ** d)
        d += 1
    if len(ticks) < 2:
        ticks = [lo, hi]
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2g}"
    return f"{v:g}"


class _Axis:
    def __init__(self, lo, hi, pix_lo, pix_hi, log):
        if log:
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            pad = abs(self.lo) if self.lo else 1.0
            self.hi = self.lo + pad
        self.pix_lo, self.pix_hi = pix_lo, pix_hi
        self.log = log

    def to_pix(self, v: float) -> float:
        x = math.log10(v) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def render_plot(series, xlabel: str = "", ylabel: str = "", title: str = "",
                logx: bool = False, logy: bool = False) -> str:
    """Render series to SVG text.

    series: iterable of dicts with keys x, y (sequences of equal length)
    and optional label and points (draw markers instead of a line).
    """
    series = list(series)
    if not series:
        raise ValidationError("nothing to plot")
    kept = []  # each series' points that a log axis can show
    for s in series:
        if len(s["x"]) != len(s["y"]):
            raise ValidationError("series x and y lengths differ")
        pairs = ((float(xv), float(yv)) for xv, yv in zip(s["x"], s["y"]))
        kept.append([(xv, yv) for xv, yv in pairs
                     if not ((logx and xv <= 0) or (logy and yv <= 0))])
    xs = [xv for pts in kept for xv, _ in pts]
    ys = [yv for pts in kept for _, yv in pts]
    if not xs:
        raise ValidationError("no plottable points")
    x_axis = _Axis(min(xs), max(xs), _ML, _W - _MR, logx)
    y_lo, y_hi = min(ys), max(ys)
    if not logy:
        pad = 0.05 * (y_hi - y_lo or abs(y_hi) or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    y_axis = _Axis(y_lo, y_hi, _H - _MB, _MT, logy)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    font = 'font-family="sans-serif"'

    xticks = (_log_ticks(min(xs), max(xs)) if logx
              else _nice_ticks(x_axis.lo, x_axis.hi))
    yticks = (_log_ticks(min(ys), max(ys)) if logy
              else _nice_ticks(y_axis.lo, y_axis.hi))
    for tv in xticks:
        px = x_axis.to_pix(tv)
        out.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" '
                   f'y2="{_H - _MB}" stroke="#dddddd"/>')
        out.append(f'<text x="{px:.1f}" y="{_H - _MB + 16}" {font} '
                   f'font-size="11" text-anchor="middle">{_fmt(tv)}</text>')
    for tv in yticks:
        py = y_axis.to_pix(tv)
        out.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" '
                   f'y2="{py:.1f}" stroke="#dddddd"/>')
        out.append(f'<text x="{_ML - 6}" y="{py + 4:.1f}" {font} '
                   f'font-size="11" text-anchor="end">{_fmt(tv)}</text>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#444444"/>')

    for k, (s, data) in enumerate(zip(series, kept)):
        color = _PALETTE[k % len(_PALETTE)]
        pts = [(x_axis.to_pix(xv), y_axis.to_pix(yv)) for xv, yv in data]
        if s.get("points"):
            for px, py in pts:
                out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                           f'fill="{color}"/>')
        else:
            coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')

    if title:
        out.append(f'<text x="{_W / 2:.0f}" y="{_MT - 12}" {font} '
                   f'font-size="14" text-anchor="middle">{title}</text>')
    if xlabel:
        out.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 14}" '
                   f'{font} font-size="12" text-anchor="middle">{xlabel}'
                   f'</text>')
    if ylabel:
        cy = (_MT + _H - _MB) / 2
        out.append(f'<text x="18" y="{cy:.0f}" {font} font-size="12" '
                   f'text-anchor="middle" transform="rotate(-90 18 '
                   f'{cy:.0f})">{ylabel}</text>')

    labeled = [(k, s) for k, s in enumerate(series) if s.get("label")]
    for row, (k, s) in enumerate(labeled):
        color = _PALETTE[k % len(_PALETTE)]
        ly = _MT + 14 + 16 * row
        out.append(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 96}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 90}" y="{ly}" {font} '
                   f'font-size="11">{s["label"]}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
