"""Minimal deterministic SVG line charts.

Hand-rolled rather than delegated to a plotting library so that the
output bytes depend only on the input data: fixed canvas, fixed number
formatting, no timestamps or generated ids.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 140, 40, 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    # a step below one ulp of the ticks would leave t += step where it is
    step = max(step, math.ulp(max(abs(lo), abs(hi))))
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def line_chart(series: list[tuple[str, list[float], list[float]]],
               title: str, xlabel: str, ylabel: str) -> str:
    """Render labelled (x, y) series as an SVG 1.1 line chart string."""
    if not series or not any(xs for _, xs, _ in series):
        raise ValueError("no data to plot")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B
    sx = lambda x: MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw
    sy = lambda y: MARGIN_T + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{WIDTH}" height="{HEIGHT}" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="16">{title}</text>')

    # axes
    x0, y0 = MARGIN_L, MARGIN_T + ph
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + pw}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 9}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{t:g}</text>')
    out.append(f'<text x="{x0 + pw / 2:.2f}" y="{HEIGHT - 10}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + ph / 2:.2f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {MARGIN_T + ph / 2:.2f})">{ylabel}</text>')

    # series + legend
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 14 + 18 * i
        lx = WIDTH - MARGIN_R + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
