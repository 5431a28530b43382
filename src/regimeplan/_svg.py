"""Small deterministic SVG line plots.

Direct string generation, no plotting dependency: one polyline per series,
plain line axes with a handful of ticks, optional shaded x-spans (used for
regime bands) and a legend.  Output depends only on the inputs, so rerunning
a seeded experiment rewrites byte-identical files.
"""

from xml.sax.saxutils import escape

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#17becf", "#8c564b", "#7f7f7f")
_SHADES = ("#e8e8e8", "#d4dce8", "#e6d8d8")
_MAX_POINTS = 4000
_WIDTH, _HEIGHT = 720, 440
_N_TICKS = 5


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


def _ticks(lo: float, hi: float):
    # round step to 1/2/5 x 10^k so tick labels stay short
    span = hi - lo
    raw = span / (_N_TICKS - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    vals = []
    t = first
    while t <= hi + 1e-9 * span:
        vals.append(0.0 if abs(t) < 1e-12 * span else float(t))
        t += step
    return vals


def line_plot(series, *, title: str = "", xlabel: str = "", ylabel: str = "",
              spans=()) -> str:
    """Render (label, x, y) series to an SVG document string.

    spans is a sequence of (x0, x1, level) shaded vertical bands drawn behind
    the data, level picking one of a few light fill colors.  Series longer
    than a few thousand points are stride-subsampled; endpoints are kept.
    """
    if not series:
        raise ValueError("at least one series required")
    prepared = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
            raise ValueError(f"series {label!r} must be two equal 1-d arrays")
        if xs.size > _MAX_POINTS:
            stride = int(np.ceil(xs.size / _MAX_POINTS))
            keep = np.arange(0, xs.size, stride)
            if keep[-1] != xs.size - 1:
                keep = np.append(keep, xs.size - 1)
            xs, ys = xs[keep], ys[keep]
        prepared.append((str(label), xs, ys))

    x_lo = min(float(xs.min()) for _, xs, _ in prepared)
    x_hi = max(float(xs.max()) for _, xs, _ in prepared)
    y_lo = min(float(ys.min()) for _, _, ys in prepared)
    y_hi = max(float(ys.max()) for _, _, ys in prepared)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 1.0, x_lo + 1.0
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_lo + 1.0
    pad_y = 0.04 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    ml, mr, mt, mb = 62.0, 16.0, 30.0, 46.0
    pw = _WIDTH - ml - mr
    ph = _HEIGHT - mt - mb

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
               f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
               f'font-family="sans-serif" font-size="12">')
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')

    for x0, x1, level in spans:
        a = max(px(max(x0, x_lo)), ml)
        b = min(px(min(x1, x_hi)), ml + pw)
        if b <= a:
            continue
        fill = _SHADES[int(level) % len(_SHADES)]
        out.append(f'<rect x="{_fmt(a)}" y="{_fmt(mt)}" width="{_fmt(b - a)}" '
                   f'height="{_fmt(ph)}" fill="{fill}"/>')

    axis = 'stroke="#333333" stroke-width="1"'
    out.append(f'<line x1="{_fmt(ml)}" y1="{_fmt(mt + ph)}" x2="{_fmt(ml + pw)}" '
               f'y2="{_fmt(mt + ph)}" {axis}/>')
    out.append(f'<line x1="{_fmt(ml)}" y1="{_fmt(mt)}" x2="{_fmt(ml)}" '
               f'y2="{_fmt(mt + ph)}" {axis}/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(mt + ph)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(mt + ph + 5)}" {axis}/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(mt + ph + 18)}" '
                   f'text-anchor="middle">{format(t, ".6g")}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_fmt(ml - 5)}" y1="{_fmt(y)}" x2="{_fmt(ml)}" '
                   f'y2="{_fmt(y)}" {axis}/>')
        out.append(f'<text x="{_fmt(ml - 8)}" y="{_fmt(y + 4)}" '
                   f'text-anchor="end">{format(t, ".6g")}</text>')

    for k, (label, xs, ys) in enumerate(prepared):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(map("{:.2f},{:.2f}".format, px(xs).tolist(), py(ys).tolist()))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                   f'points="{pts}"/>')

    lx = ml + pw - 150.0
    ly = mt + 10.0
    for k, (label, _, _) in enumerate(prepared):
        color = _COLORS[k % len(_COLORS)]
        y = ly + 16.0 * k
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(y)}" x2="{_fmt(lx + 22)}" '
                   f'y2="{_fmt(y)}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(y + 4)}">{escape(label)}</text>')

    if title:
        out.append(f'<text x="{_fmt(ml + pw / 2)}" y="18" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    if xlabel:
        out.append(f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(_HEIGHT - 10.0)}" '
                   f'text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{_fmt(mt + ph / 2)}" text-anchor="middle" '
                   f'transform="rotate(-90 14 {_fmt(mt + ph / 2)})">{escape(ylabel)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
