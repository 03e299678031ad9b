"""Minimal deterministic SVG line plots for report bundles."""

from __future__ import annotations

from .ioutil import atomic_write_text

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_W, _H, _PAD = 640, 480, 60


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def svg_line_plot(path, series, title: str = "", xlabel: str = "",
                  ylabel: str = "") -> str:
    """series: (name, xs, ys) tuples; gives the sha256 of the SVG written."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(min(ys_all), 0.0), max(ys_all)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" '
        f'y2="{_H - _PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H - _PAD}" '
        f'stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{_H // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_H // 2})">{ylabel}</text>',
    ]
    for lab, x in ((x_lo, _PAD), (x_hi, _W - _PAD)):
        parts.append(f'<text x="{x}" '
                     f'y="{_H - _PAD + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{lab:.3g}</text>')
    for lab, y in ((y_lo, _H - _PAD), (y_hi, _PAD)):
        parts.append(f'<text x="{_PAD - 6}" y="{y + 4}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{lab:.3g}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        px = _scale(xs, x_lo, x_hi, _PAD, _W - _PAD)
        py = _scale(ys, y_lo, y_hi, _H - _PAD, _PAD)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _PAD + 4}" y="{_PAD + 14 * i + 10}" '
                     f'font-family="sans-serif" font-size="10" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return atomic_write_text(path, "\n".join(parts) + "\n")
