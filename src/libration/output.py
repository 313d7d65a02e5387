"""Deterministic CSV and SVG artifact writers used by the command line.

The CSV writer formats floats with ``repr`` so values survive a write/read
round trip bit-for-bit; rerunning a command on the same config always
produces byte-identical files.  The SVG charts are self-contained
hand-assembled documents (no plotting dependency) intended for quick visual
inspection of sweep and trace outputs.

Both writers are plain Python, taking arrays through ``tolist()`` and numpy
scalars through ``item()``, so ``derive`` and ``bistability`` write without
loading numpy.  A CSV column of one cell type (float, int, bool or str) is
formatted in one pass; mixed columns go cell by cell.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["write_csv", "svg_line_chart"]

# Colorblind-safe cycle (Okabe-Ito, minus the yellow that washes out on white).
_PALETTE = (
    "#0072b2", "#d55e00", "#009e73", "#cc79a7",
    "#56b4e9", "#e69f00", "#000000",
)
_WIDTH, _HEIGHT, _TICKS = 880, 540, 5  # every chart's size in px; the most ticks an axis takes


def _escape(text: str) -> str:
    """Escape &, > and < for XML character data (as ``xml.sax.saxutils.escape``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _write(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``, naming ``path`` in an OSError that names no file (a full disk)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def _plain(seq) -> list:
    """The Python scalars of a sequence or a numpy array."""
    return seq.tolist() if hasattr(seq, "tolist") else list(seq)


def _format_cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            raise ValueError(f"CSV cell may not contain separators: {value!r}")
        return value
    if hasattr(value, "item"):  # a numpy scalar
        value = value.item()
    if isinstance(value, int):  # bool included
        return str(int(value))
    return repr(float(value))


# the cell of a column whose cells are all of one of these types, as
# ``_format_cell`` writes it
_BULK = {float: float.__repr__, int: int.__repr__, bool: ("0", "1").__getitem__}


def write_csv(path: str | Path, columns: dict[str, object]) -> None:
    """Write named columns (equal-length sequences) as a CSV file.

    Formatting goes column by column.  ``_format_cell`` writes a cell as
    the ``repr`` of the float it holds, or as the int, bool (0/1) or string.
    A column of Python floats, ints or bools alone takes that text in one
    ``map``, and one of strings alone is written as it is once each distinct
    string has passed the separator check; any other column goes cell by
    cell.  The rows are joined once.
    """
    names = list(columns)
    if not names:
        raise ValueError("write_csv needs at least one column")
    cols = [_plain(columns[name]) for name in names]
    length = len(cols[0])
    for name, col in zip(names, cols):
        if len(col) != length:
            raise ValueError(
                f"column {name!r} has length {len(col)}, expected {length}"
            )
    cells = []
    for col in cols:
        kinds = set(map(type, col))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is str:
            for text in dict.fromkeys(col):  # the separator check, once per string
                _format_cell(text)
            cells.append(col)
        else:
            cells.append(map(_BULK.get(kind, _format_cell), col))
    _write(path, "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n")


def _ticks(lo: float, hi: float) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    if not (span / _TICKS > 0.0 and math.isfinite(span)):
        return [lo, hi]
    step = 10 ** math.floor(math.log10(span / _TICKS))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= _TICKS:
            step *= mult
            break
    if step <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
        # value += step would not advance: the axis has no room for ticks
        return [lo, hi]
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 0.5 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


def svg_line_chart(
    path: str | Path,
    series: list[tuple[str, object, object]],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    markers: bool = False,
) -> None:
    """Render (label, x, y) series as a line chart and write an SVG file."""
    margin_l, margin_r, margin_t, margin_b = 86, 24, 46, 64
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    # per series, its runs of finite (x, y) points: NaN gaps break the polyline
    cleaned: list[tuple[str, list[list[tuple[float, float]]]]] = []
    for label, x, y in series:
        x, y = _plain(x), _plain(y)
        if len(x) != len(y):
            raise ValueError(f"series {label!r}: x and y lengths differ")
        runs: list[list[tuple[float, float]]] = [[]]
        for xv, yv in zip(x, y):
            xv, yv = float(xv), float(yv)
            if math.isfinite(xv) and math.isfinite(yv):
                runs[-1].append((xv, yv))
            elif runs[-1]:
                runs.append([])
        cleaned.append((label, [run for run in runs if run]))
    points = [pt for _, runs in cleaned for run in runs for pt in run]
    if not points:
        raise ValueError("svg_line_chart needs at least one finite data point")
    x_lo = min(xv for xv, _ in points)
    x_hi = max(xv for xv, _ in points)
    y_lo = min(yv for _, yv in points)
    y_hi = max(yv for _, yv in points)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v: float) -> float:
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo + x_pad, x_hi - x_pad):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{margin_t}" x2="{px:.2f}" '
            f'y2="{margin_t + plot_h}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{margin_t + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" fill="#222">{_tick_label(tick)}</text>'
        )
    for tick in _ticks(y_lo + y_pad, y_hi - y_pad):
        py = sy(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{py:.2f}" x2="{margin_l + plot_w}" '
            f'y2="{py:.2f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end" fill="#222">{_tick_label(tick)}</text>'
        )
    for idx, (label, runs) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        for run in runs:
            if len(run) == 1 or markers:
                for xv, yv in run:
                    parts.append(
                        f'<circle cx="{sx(xv):.2f}" cy="{sy(yv):.2f}" '
                        f'r="2.2" fill="{color}"/>'
                    )
            if len(run) > 1:  # sx and sy written out: the runs hold most points
                pts = " ".join(f"{margin_l + (xv - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
                               f"{margin_t + (y_hi - yv) / (y_hi - y_lo) * plot_h:.2f}"
                               for xv, yv in run)
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    'stroke-width="1.6"/>'
                )
    legend_y = margin_t + 16
    for idx, (label, _) in enumerate(cleaned):
        if not label:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<line x1="{margin_l + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{margin_l + plot_w - 126}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2.4"/>'
        )
        parts.append(
            f'<text x="{margin_l + plot_w - 120}" y="{legend_y}" font-size="12" '
            f'fill="#222">{_escape(label)}</text>'
        )
        legend_y += 18
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="15" text-anchor="middle" '
            f'fill="#000">{_escape(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.0f}" y="{_HEIGHT - 16}" font-size="13" '
            f'text-anchor="middle" fill="#000">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="20" y="{margin_t + plot_h / 2:.0f}" font-size="13" '
            f'text-anchor="middle" fill="#000" '
            f'transform="rotate(-90 20 {margin_t + plot_h / 2:.0f})">{_escape(y_label)}</text>'
        )
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n")
