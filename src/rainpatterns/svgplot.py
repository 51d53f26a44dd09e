"""Minimal deterministic SVG emitters for charts and pattern grids.

Hand-rolled on purpose: output must be byte-identical across reruns, so no
plotting library with embedded timestamps or ids is used.
"""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
            "#aa3377", "#bbbbbb"]
WET_COLOR = "#2166ac"
DRY_COLOR = "#a6dba0"
PER_ROW = 5  # a pattern grid's panels per row
CELL = 9.0  # the side of a location's square in a panel


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def grouped_bar_chart(path, title: str, categories: list[str],
                      series: list[tuple[str, np.ndarray]]) -> None:
    """Write a grouped bar chart, one group per category."""
    margin, bar_w, gap = 60.0, 18.0, 14.0
    n_series = max(len(series), 1)
    group_w = n_series * bar_w + gap
    width = margin * 2 + max(len(categories), 1) * group_w
    height = 320.0
    plot_h = height - 2 * margin

    vmax = 0.0
    for _, vals in series:
        if len(vals):
            vmax = max(vmax, float(np.max(vals)))
    if vmax <= 0:
        vmax = 1.0

    body = [f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{_esc(title)}</text>']
    base_y = height - margin
    body.append(f'<line x1="{_fmt(margin)}" y1="{_fmt(base_y)}" '
                f'x2="{_fmt(width - margin)}" y2="{_fmt(base_y)}" '
                f'stroke="#333" stroke-width="1"/>')
    for i, (name, vals) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<rect x="{_fmt(margin + 8 + i * 130)}" y="30" '
                    f'width="10" height="10" fill="{color}"/>')
        body.append(f'<text x="{_fmt(margin + 22 + i * 130)}" y="39" '
                    f'font-size="11" font-family="sans-serif">{_esc(name)}</text>')
        for c, v in enumerate(vals):
            h = plot_h * float(v) / vmax
            x = margin + c * group_w + i * bar_w
            body.append(f'<rect x="{_fmt(x)}" y="{_fmt(base_y - h)}" '
                        f'width="{_fmt(bar_w - 2)}" height="{_fmt(h)}" '
                        f'fill="{color}"/>')
    for c, cat in enumerate(categories):
        x = margin + c * group_w + (group_w - gap) / 2
        body.append(f'<text x="{_fmt(x)}" y="{_fmt(base_y + 16)}" '
                    f'text-anchor="middle" font-size="11" '
                    f'font-family="sans-serif">{_esc(cat)}</text>')
    body.append(f'<text x="{_fmt(margin - 6)}" y="{_fmt(margin)}" '
                f'text-anchor="end" font-size="11" '
                f'font-family="sans-serif">{_fmt(vmax)}</text>')
    with open(path, "w") as fh:
        fh.write(_svg(width, height, body))


def _ramp(v: float) -> str:
    """White-to-blue ramp for normalised values in [0, 1]."""
    v = min(max(v, 0.0), 1.0)
    r = round(255 + (33 - 255) * v)
    g = round(255 + (102 - 255) * v)
    b = round(255 + (172 - 255) * v)
    return f"#{r:02x}{g:02x}{b:02x}"


def pattern_grid(path, title: str, coords: np.ndarray, patterns: np.ndarray,
                 kind: str, annotations: list[str]) -> None:
    """Write one panel per pattern, a coloured lattice cell per location.

    ``kind`` is "state" (binary wet/dry colours) or "rain" (per-panel
    normalised blue ramp).
    """
    coords = np.asarray(coords)
    xs = coords[:, 0] - coords[:, 0].min()
    ys = coords[:, 1] - coords[:, 1].min()
    panel_w = (xs.max() + 1) * CELL + 16
    panel_h = (ys.max() + 1) * CELL + 34
    n = len(patterns)
    rows = math.ceil(n / PER_ROW)
    width = 20 + PER_ROW * panel_w
    height = 40 + rows * panel_h

    body = [f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{_esc(title)}</text>']
    for i, pat in enumerate(patterns):
        ox = 20 + (i % PER_ROW) * panel_w
        oy = 40 + (i // PER_ROW) * panel_h
        if kind == "rain":
            top = float(np.max(pat)) or 1.0
        for s in range(len(xs)):
            if kind == "state":
                color = WET_COLOR if pat[s] == 1 else DRY_COLOR
            else:
                color = _ramp(float(pat[s]) / top)
            x = ox + xs[s] * CELL
            y = oy + ys[s] * CELL
            body.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                        f'width="{_fmt(CELL - 1)}" height="{_fmt(CELL - 1)}" '
                        f'fill="{color}"/>')
        label = f"pattern {i + 1} ({annotations[i]})"
        body.append(f'<text x="{_fmt(ox)}" y="{_fmt(oy + (ys.max() + 1) * CELL + 14)}" '
                    f'font-size="11" font-family="sans-serif">{_esc(label)}</text>')
    with open(path, "w") as fh:
        fh.write(_svg(width, height, body))
