"""Tiny static SVG line plots for figure regeneration.

Deliberately minimal: axes, tick labels, polyline series and a legend,
written as a standalone SVG file.  Enough to eyeball the regenerated
curves without pulling in a plotting stack.
"""

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 460
_ML, _MR, _MT, _MB = 80, 24, 40, 60
_TICKS = 6  # ticks per axis aimed at before rounding the step


def _nice_ticks(lo, hi):
    """Round tick positions covering [lo, hi], about ``_TICKS`` of them."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICKS
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.floor(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step / 2:
        if t >= lo - step / 2:
            ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2g}"
    return f"{v:g}"


def line_plot(path, series, title="", xlabel="", ylabel=""):
    """Write a line plot to ``path``.

    ``series`` is a list of (x, y, label) triples of equal-length
    sequences of finite numbers; each series is drawn as one polyline.
    """
    if not series:
        raise ValueError("need at least one series")
    xs = [float(x) for s in series for x in s[0]]
    ys = [float(y) for s in series for y in s[1]]
    if not xs or not ys:
        raise ValueError("series contain no points")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("series points must be finite")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return _MT + ph * (1 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        px = sx(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT + ph}" x2="{px:.1f}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_ML + pw}" '
                     f'y2="{py:.1f}" stroke="#dddddd"/>')

    for i, (x, y, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(float(xi)):.1f},{sy(float(yi)):.1f}"
                       for xi, yi in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        lx = _ML + pw - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')

    if title:
        parts.append(f'<text x="{_W / 2}" y="22" text-anchor="middle" '
                     f'font-size="15">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 16}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="20" y="{_MT + ph / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 20 {_MT + ph / 2})">{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
