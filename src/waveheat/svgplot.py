"""Minimal self-contained SVG writer for sweep and trajectory plots.

Produces standalone vector files with linear or logarithmic axes, decade
tick marks, polyline series and scatter markers.  Deliberately free of
plotting dependencies so CI artifacts need nothing beyond the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "svg_plot"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
_W, _H = 640, 460
_ML, _MR, _MT, _MB = 72, 20, 34, 52


@dataclass
class Series:
    x: list
    y: list
    label: str = ""
    marker: bool = False
    dashed: bool = False


def _ticks_linear(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def _ticks_log(lo: float, hi: float) -> list[float]:
    out = []
    d = math.floor(math.log10(lo))
    while 10.0**d <= hi * 1.0000001:
        if 10.0**d >= lo * 0.9999999:
            out.append(10.0**d)
        d += 1
    return out or [lo]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def svg_plot(
    path,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> None:
    xs = [float(x) for s in series for x in s.x if math.isfinite(x) and (not logx or x > 0)]
    ys = [float(y) for s in series for y in s.y if math.isfinite(y) and (not logy or y > 0)]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    if not logx:
        pad = 0.04 * (x_hi - x_lo)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if not logy:
        pad = 0.06 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def tx(x: float) -> float:
        a, b = (math.log10(x_lo), math.log10(x_hi)) if logx else (x_lo, x_hi)
        v = math.log10(x) if logx else x
        return _ML + (v - a) / (b - a) * (_W - _ML - _MR)

    def ty(y: float) -> float:
        a, b = (math.log10(y_lo), math.log10(y_hi)) if logy else (y_lo, y_hi)
        v = math.log10(y) if logy else y
        return _H - _MB - (v - a) / (b - a) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    xticks = _ticks_log(x_lo, x_hi) if logx else _ticks_linear(x_lo, x_hi)
    for t in xticks:
        px = tx(t)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" y2="{_H-_MB}" '
            'stroke="#ddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_H-_MB+16}" text-anchor="middle">{_fmt(t)}</text>'
        )
    yticks = _ticks_log(y_lo, y_hi) if logy else _ticks_linear(y_lo, y_hi)
    for t in yticks:
        py = ty(t)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W-_MR}" y2="{py:.1f}" '
            'stroke="#ddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{_ML-6}" y="{py+4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_W/2:.0f}" y="{_H-14}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text transform="translate(16,{_H/2:.0f}) rotate(-90)" '
            f'text-anchor="middle">{ylabel}</text>'
        )
    for idx, s in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = [
            (tx(float(x)), ty(float(y)))
            for x, y in zip(s.x, s.y)
            if math.isfinite(float(x)) and math.isfinite(float(y))
            and (not logy or y > 0) and (not logx or x > 0)
        ]
        if not pts:
            continue
        if s.marker:
            for px, py in pts:
                parts.append(
                    f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.4" fill="{color}"/>'
                )
        else:
            path_d = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            parts.append(
                f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )
        if s.label:
            ly = _MT + 16 + 16 * idx
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            parts.append(
                f'<line x1="{_W-_MR-150}" y1="{ly-4}" x2="{_W-_MR-126}" y2="{ly-4}" '
                f'stroke="{color}" stroke-width="2"{dash}/>'
            )
            parts.append(f'<text x="{_W-_MR-120}" y="{ly}">{s.label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
