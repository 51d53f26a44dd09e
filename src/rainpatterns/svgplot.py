"""Minimal deterministic SVG emitters for charts and pattern grids.

Hand-rolled on purpose: output must be byte-identical across reruns, so no
plotting library with embedded timestamps or ids is used.
"""

from __future__ import annotations

import math

import numpy as np

from .model import HIGH

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
    """Write a grouped bar chart, one group per category, bars from 0."""
    margin, bar_w, gap = 60.0, 18.0, 14.0
    n_series = max(len(series), 1)
    group_w = n_series * bar_w + gap
    width = margin * 2 + max(len(categories), 1) * group_w
    height = 320.0
    plot_h = height - 2 * margin

    vmax = max((float(np.max(v)) for _, v in series if len(v)), default=0.0)
    if vmax <= 0:
        vmax = 1.0
    lo = min([0.0] + [float(np.min(v)) for _, v in series if len(v)])

    body = [f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{_esc(title)}</text>']
    base_y = height - margin + plot_h * lo / (vmax - lo)
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
            h = plot_h * float(v) / (vmax - lo)
            x = margin + c * group_w + i * bar_w
            body.append(f'<rect x="{_fmt(x)}" y="{_fmt(base_y - max(h, 0.0))}" '
                        f'width="{_fmt(bar_w - 2)}" height="{_fmt(abs(h))}" '
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


def _ramp(v: np.ndarray) -> list[str]:
    """White-to-blue ramp, one colour per value clamped to [0, 1]."""
    v = np.clip(v, 0.0, 1.0)[:, None]
    # np.round rounds halves to even, as Python's round does
    rgb = np.round(255 + (np.array([33, 102, 172]) - 255) * v)
    hexes = rgb.astype(np.uint8).tobytes().hex()
    return ["#" + hexes[i:i + 6] for i in range(0, len(hexes), 6)]


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
    width = 20 + PER_ROW * panel_w
    height = 40 + math.ceil(len(patterns) / PER_ROW) * panel_h
    # a panel has few distinct columns and rows: format each once
    (ux, xi), (uy, yi) = (np.unique(c, return_inverse=True) for c in (xs, ys))
    xi, yi, side = xi.tolist(), yi.tolist(), _fmt(CELL - 1)

    body = [f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{_esc(title)}</text>']
    for i, pat in enumerate(patterns):
        ox = 20 + (i % PER_ROW) * panel_w
        oy = 40 + (i // PER_ROW) * panel_h
        xt = [_fmt(v) for v in (ox + ux * CELL).tolist()]
        yt = [_fmt(v) for v in (oy + uy * CELL).tolist()]
        if kind == "state":
            colors = np.where(pat == HIGH, WET_COLOR, DRY_COLOR).tolist()
        else:
            colors = _ramp(pat / (float(np.max(pat)) or 1.0))
        body += [f'<rect x="{xt[a]}" y="{yt[b]}" width="{side}" '
                 f'height="{side}" fill="{c}"/>'
                 for a, b, c in zip(xi, yi, colors)]
        label = f"pattern {i + 1} ({annotations[i]})"
        body.append(f'<text x="{_fmt(ox)}" y="{_fmt(oy + (ys.max() + 1) * CELL + 14)}" '
                    f'font-size="11" font-family="sans-serif">{_esc(label)}</text>')
    with open(path, "w") as fh:
        fh.write(_svg(width, height, body))
