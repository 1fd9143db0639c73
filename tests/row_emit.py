"""The row-at-a-time curve formatters, kept as test-side references.

Production formats a curve from its array columns in numpy, the CSV a
block of rows at a time and the SVG polyline in one expression.  These
are the loops they replaced, which visit one row or point at a time and
format every cell with its own f-string.  The columnar output must match
them byte for byte.
"""

from __future__ import annotations

from dirac_double_barrier.emit import CSV_HEADER

# the plot box of svg.render_curve_svg at its default 960 x 540 size
_LEFT, _TOP = 64.0, 24.0
_PLOT_W, _PLOT_H = 960 - 64.0 - 16.0, 540 - 24.0 - 44.0


def format_rows_csv(rows) -> str:
    """CSV text from rows that carry e, t2, r2, t and r one energy each."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(
            f"{v:.12g}" for v in
            (r.e, r.t2, r.r2, r.t.real, r.t.imag, r.r.real, r.r.imag)
        ))
    return "\n".join(lines) + "\n"


def polyline_points(energies, t2s) -> str:
    """The points attribute of the default-size SVG polyline."""
    e_lo, e_hi = energies[0], energies[-1]
    y_lo, y_hi = 0.0, 1.05

    def px(e):
        return _LEFT + (e - e_lo) / (e_hi - e_lo) * _PLOT_W

    def py(v):
        return _TOP + (y_hi - v) / (y_hi - y_lo) * _PLOT_H

    return " ".join(f"{px(e):.2f},{py(min(max(v, y_lo), y_hi)):.2f}"
                    for e, v in zip(energies, t2s))
