"""Hand-rolled SVG rendering of transmission curves.

Pure string assembly, no plotting dependency: the same inputs always
produce byte-identical markup.  The polyline's coordinates are formatted
in numpy (_printf.f2_points), byte for byte as "%.2f".  Zones where a region of the structure
supports oscillatory negative-energy solutions are shaded so resonance
families are visually separated.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PotentialConfig, Zone, zone_interval

_WIDTH = 960
_HEIGHT = 540
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 24.0
_MARGIN_BOTTOM = 44.0

_ZONE_FILL = {
    Zone.LOWER_KLEIN: "#c8c8c8",
    Zone.HIGHER_KLEIN: "#c8c8c8",
    Zone.CONVENTIONAL: "#e6e6e6",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def render_curve_svg(energies: "np.ndarray | list[float]",
                     t2s: "np.ndarray | list[float]",
                     cfg: PotentialConfig, title: str | None = None) -> str:
    """SVG document for |T|^2 against E with shaded zones.

    energies and t2s are arrays, or anything np.asarray takes.
    """
    energies = np.asarray(energies, dtype=float)
    t2s = np.asarray(t2s, dtype=float)
    if len(energies) != len(t2s) or len(energies) < 2:
        raise ValueError("need two or more (E, |T|^2) samples of equal length")
    e_lo, e_hi = float(energies[0]), float(energies[-1])
    y_lo, y_hi = 0.0, 1.05
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(e: "float | np.ndarray") -> "float | np.ndarray":
        return _MARGIN_LEFT + (e - e_lo) / (e_hi - e_lo) * plot_w

    def py(v: "float | np.ndarray") -> "float | np.ndarray":
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    for zone, fill in _ZONE_FILL.items():
        zlo, zhi = zone_interval(zone, cfg)
        zlo, zhi = max(zlo, e_lo), min(zhi, e_hi)
        if zhi <= zlo:
            continue
        parts.append(
            f'<rect x="{_fmt(px(zlo))}" y="{_fmt(_MARGIN_TOP)}" '
            f'width="{_fmt(px(zhi) - px(zlo))}" height="{_fmt(plot_h)}" '
            f'fill="{fill}"/>'
        )
    xs = px(energies)
    ys = py(np.minimum(np.maximum(t2s, y_lo), y_hi))
    # imported on first use, as in emit.write_curve_csv
    from ._printf import f2_points

    points = f2_points(xs, ys)
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#202020" '
        f'stroke-width="1.2"/>'
    )
    axis_y = py(y_lo)
    parts.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" y2="{_fmt(axis_y)}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(_MARGIN_TOP)}" '
        f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(axis_y)}" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    for t in _ticks(e_lo, e_hi, 10):
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 5)}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 18)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{t:g}</text>'
        )
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(t)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(y)}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 9)}" y="{_fmt(y + 4)}" '
            f'font-size="11" font-family="sans-serif" '
            f'text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" '
        f'y="{_fmt(_HEIGHT - 8)}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle">E / m</text>'
    )
    if title is None:
        title = (
            f"|T|^2, v_plus={cfg.v_plus:g} v_minus={cfg.v_minus:g} "
            f"a_plus={cfg.a_plus:g} a_minus={cfg.a_minus:g} m={cfg.m:g}"
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP - 8)}" '
        f'font-size="12" font-family="sans-serif">{title}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
