"""Dependency-free SVG rendering for the report bundle.

Charts are built by string concatenation with fixed float formatting, so the
same inputs always produce byte-identical files. Nothing here measures text
or does layout beyond simple arithmetic; these are diagnostic figures, not a
plotting library.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

SVG_SCHEMA_VERSION = 1

EASY_COLOR = "#4e9a62"
HARD_COLOR = "#c94f4f"
ABSENT_COLOR = "#e6e6e6"
AXIS_COLOR = "#444444"
SERIES_COLORS = ("#2c6fbb", "#d07c2e", "#4e9a62", "#9458a2", "#c94f4f", "#6b6b6b")


def _fmt(value: float) -> str:
    """Fixed two-decimal formatting with trailing zeros trimmed."""
    text = f"{value:.2f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


class _Canvas:
    def __init__(self, width: float, height: float) -> None:
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
            f"<!-- schema_version={SVG_SCHEMA_VERSION} -->",
            f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
        ]

    def rect(self, x: float, y: float, w: float, h: float, fill: str) -> None:
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"/>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str) -> None:
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], stroke: str) -> None:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def text(self, x: float, y: float, content: str, size: int = 10, anchor: str = "start") -> None:
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}" fill="#000000">{_escape(content)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>", ""])


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_raster(rows: Sequence[Sequence[str]], title: str = "easy/hard raster") -> str:
    """Grid of per-token difficulty cells, one episode per row.

    Green cells are easy tokens, red are hard, grey is the padding that marks
    an episode shorter than the widest one; any other flag is drawn grey too.

    The output is byte-identical to one ``_Canvas.rect`` per cell. A cell's
    x depends only on its column and its y only on its row, so each column's
    ``<rect x=".." y="`` prefix is formatted once, and each row's y joined
    with each color's tail once per row. A row is one string of its cells,
    so the document is never held as one string per cell; an empty row adds
    no line.
    """
    width = max((len(r) for r in rows), default=0)
    cell = max(1.0, min(8.0, 880.0 / max(1, width)))
    row_h = max(2.0, min(8.0, 400.0 / max(1, len(rows))))
    ox, oy = 10.0, 30.0
    canvas = _Canvas(ox * 2 + cell * width, oy + row_h * len(rows) + 10.0)
    canvas.text(ox, 14, title)
    canvas.text(ox, 24, "green=easy red=hard grey=absent", size=8)
    columns = [f'<rect x="{_fmt(ox + j * cell)}" y="' for j in range(width)]
    size = f'" width="{_fmt(cell)}" height="{_fmt(row_h)}" fill="'
    colors = {"easy": EASY_COLOR, "hard": HARD_COLOR}
    for i, row in enumerate(rows):
        if row:
            y = _fmt(oy + i * row_h) + size
            tails = {flag: f'{y}{color}"/>' for flag, color in colors.items()}
            absent = f'{y}{ABSENT_COLOR}"/>'
            canvas.parts.append("\n".join(map(str.__add__, columns, map(tails.get, row, repeat(absent)))))
    return canvas.render()


def _plot_frame(
    canvas: _Canvas,
    box: tuple[float, float, float, float],
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    x_label: str,
    y_label: str,
):
    """Draw axes plus min/mid/max ticks and return a data->pixel mapper."""
    x0, y0, w, h = box
    xmin, xmax = x_range
    ymin, ymax = y_range
    xspan = xmax - xmin or 1.0
    yspan = ymax - ymin or 1.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (x0 + (x - xmin) / xspan * w, y0 + h - (y - ymin) / yspan * h)

    canvas.line(x0, y0 + h, x0 + w, y0 + h, AXIS_COLOR)
    canvas.line(x0, y0, x0, y0 + h, AXIS_COLOR)
    for frac in (0.0, 0.5, 1.0):
        xv = xmin + frac * xspan
        yv = ymin + frac * yspan
        px, _ = to_px(xv, ymin)
        _, py = to_px(xmin, yv)
        canvas.line(px, y0 + h, px, y0 + h + 3, AXIS_COLOR)
        canvas.text(px, y0 + h + 13, _fmt(xv), size=8, anchor="middle")
        canvas.line(x0 - 3, py, x0, py, AXIS_COLOR)
        canvas.text(x0 - 5, py + 3, _fmt(yv), size=8, anchor="end")
    canvas.text(x0 + w / 2, y0 + h + 26, x_label, size=9, anchor="middle")
    canvas.text(x0 - 30, y0 - 6, y_label, size=9)
    return to_px


def render_step_cdfs(
    series: Sequence[tuple[str, Sequence[tuple[int, float]]]],
    title: str = "per-round length CDFs",
) -> str:
    """Step-function CDFs over per-round lengths, one labelled line each."""
    xmax = max((pt[0] for _, points in series for pt in points), default=1)
    canvas = _Canvas(520, 300)
    canvas.text(10, 16, title)
    to_px = _plot_frame(canvas, (50, 30, 440, 220), (0, float(xmax)), (0.0, 1.0), "length", "P(len <= x)")
    for idx, (label, points) in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        path = [to_px(0.0, 0.0)]
        prev = 0.0
        for value, frac in points:
            path.append(to_px(float(value), prev))
            path.append(to_px(float(value), frac))
            prev = frac
        path.append(to_px(float(xmax), prev))
        canvas.polyline(path, color)
        canvas.text(360, 44 + 12 * idx, label, size=9)
        canvas.rect(348, 37 + 12 * idx, 8, 8, color)
    return canvas.render()


def render_breakdown(
    entries: Sequence[tuple[str, float, float]],
    title: str = "latency breakdown",
) -> str:
    """One horizontal stacked bar (draft vs verify latency) per entry.

    Bars are normalized to the widest total; absolute values label each bar so
    the normalization loses nothing.
    """
    total_max = max((d + v for _, d, v in entries), default=1.0) or 1.0
    bar_h, gap, ox, oy = 18.0, 10.0, 160.0, 40.0
    canvas = _Canvas(640, oy + len(entries) * (bar_h + gap) + 20.0)
    canvas.text(10, 16, title)
    canvas.rect(10, 24, 8, 8, SERIES_COLORS[0])
    canvas.text(22, 31, "draft", size=8)
    canvas.rect(60, 24, 8, 8, SERIES_COLORS[1])
    canvas.text(72, 31, "verify", size=8)
    for i, (label, draft, verify) in enumerate(entries):
        y = oy + i * (bar_h + gap)
        scale = 380.0 / total_max
        canvas.text(ox - 6, y + bar_h - 5, label, size=9, anchor="end")
        canvas.rect(ox, y, draft * scale, bar_h, SERIES_COLORS[0])
        canvas.rect(ox + draft * scale, y, verify * scale, bar_h, SERIES_COLORS[1])
        canvas.text(
            ox + (draft + verify) * scale + 6,
            y + bar_h - 5,
            f"{draft:.2f} + {verify:.2f} = {draft + verify:.2f}",
            size=8,
        )
    return canvas.render()


def render_curves(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """Plain line chart for one or more (x, y) series with a legend."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    pad = 0.05 * ((max(ys) - min(ys)) or 1.0)
    canvas = _Canvas(560, 320)
    canvas.text(10, 16, title)
    to_px = _plot_frame(
        canvas,
        (55, 30, 460, 230),
        (min(xs), max(xs)),
        (min(ys) - pad, max(ys) + pad),
        x_label,
        y_label,
    )
    for idx, (label, points) in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        canvas.polyline([to_px(x, y) for x, y in points], color)
        canvas.rect(420, 37 + 12 * idx, 8, 8, color)
        canvas.text(432, 44 + 12 * idx, label, size=9)
    return canvas.render()
