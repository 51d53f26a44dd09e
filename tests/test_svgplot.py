"""SVG emitters: the colour ramp and the pattern grid against per-cell
references."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rainpatterns.svgplot import (CELL, DRY_COLOR, PER_ROW, WET_COLOR, _esc,
                                  _fmt, _ramp, _svg, pattern_grid)


def scalar_ramp(v):
    """The reference ramp: one value, rounded by Python's round."""
    v = min(max(v, 0.0), 1.0)
    r = round(255 + (33 - 255) * v)
    g = round(255 + (102 - 255) * v)
    b = round(255 + (172 - 255) * v)
    return f"#{r:02x}{g:02x}{b:02x}"


def per_cell_grid(path, title, coords, patterns, kind, annotations):
    """The reference grid: each cell's coordinates and colour formatted on
    their own."""
    coords = np.asarray(coords)
    xs = coords[:, 0] - coords[:, 0].min()
    ys = coords[:, 1] - coords[:, 1].min()
    panel_w = (xs.max() + 1) * CELL + 16
    panel_h = (ys.max() + 1) * CELL + 34
    width = 20 + PER_ROW * panel_w
    height = 40 + math.ceil(len(patterns) / PER_ROW) * panel_h
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
                color = scalar_ramp(float(pat[s]) / top)
            body.append(f'<rect x="{_fmt(ox + xs[s] * CELL)}" '
                        f'y="{_fmt(oy + ys[s] * CELL)}" '
                        f'width="{_fmt(CELL - 1)}" height="{_fmt(CELL - 1)}" '
                        f'fill="{color}"/>')
        label = f"pattern {i + 1} ({annotations[i]})"
        body.append(f'<text x="{_fmt(ox)}" '
                    f'y="{_fmt(oy + (ys.max() + 1) * CELL + 14)}" '
                    f'font-size="11" font-family="sans-serif">{_esc(label)}</text>')
    with open(path, "w") as fh:
        fh.write(_svg(width, height, body))


def fills(path):
    """Every cell's colour, panel after panel, in location order."""
    rects = [e for e in ET.parse(path).getroot() if e.tag.endswith("rect")]
    return [r.get("fill") for r in rects]


class TestRamp:
    def test_endpoints(self):
        assert _ramp(np.array([0.0, 1.0])) == ["#ffffff", "#2166ac"]
        assert _ramp(np.array([1.0]))[0] == WET_COLOR

    def test_clamps_outside_the_unit_interval(self):
        v = np.array([-1e308, -2.0, -5e-324, -0.0, 1.0 + 2 ** -52, 7.0,
                      np.finfo(float).max])
        assert _ramp(v) == ["#ffffff"] * 4 + ["#2166ac"] * 3

    def test_halves_round_as_pythons_round(self):
        # values whose channel lands exactly on k + 0.5: for an even k,
        # rounding half up would give k + 1
        channels = [(33, 102, 172)[c] - 255 for c in range(3)]
        halves = [v for v in (np.arange(2 * 222 + 1) / (2 * 222)).tolist()
                  + [0.5, 0.25, 0.75]
                  if any((255 + d * v) % 1 == 0.5 for d in channels)]
        assert 0.5 in halves and len(halves) > 100
        assert _ramp(np.array(halves)) == [scalar_ramp(v) for v in halves]
        assert _ramp(np.array([0.5])) == ["#90b2d6"]  # 144, 178.5, 213.5

    def test_equals_the_scalar_ramp(self):
        v = np.random.default_rng(0).uniform(-0.25, 1.25, 2000)
        assert _ramp(v) == [scalar_ramp(x) for x in v.tolist()]


class TestPatternGrid:
    def grids(self, tmp_path, coords, patterns, kind):
        """The grid's file and the per-cell reference's, as bytes."""
        ann = [f"{k}.0 mm/day" for k in range(len(patterns))]
        got, want = tmp_path / "got.svg", tmp_path / "want.svg"
        pattern_grid(got, "maps: a<b & c", coords, patterns, kind, ann)
        per_cell_grid(want, "maps: a<b & c", coords, patterns, kind, ann)
        return got, want

    @pytest.mark.parametrize("kind", ["state", "rain"])
    def test_bytes_equal_the_per_cell_reference(self, tmp_path, kind):
        # a ragged lattice with negative coordinates, in shuffled order,
        # and 12 panels over three rows
        rng = np.random.default_rng(4)
        coords = np.array([(x, y) for y in range(-3, 9) for x in range(-5, 14)
                           if (x * y) % 7 != 3])
        coords = coords[rng.permutation(len(coords))]
        if kind == "state":
            patterns = rng.integers(1, 3, (12, len(coords))).astype(np.int8)
        else:
            patterns = rng.gamma(0.7, 4.0, (12, len(coords)))
            patterns[3] *= 1e-300
            patterns[5] = -patterns[5]
        got, want = self.grids(tmp_path, coords, patterns, kind)
        assert got.read_bytes() == want.read_bytes()

    def test_all_zero_rain_panel_is_white(self, tmp_path):
        coords = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
        patterns = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 4.0]])
        got, want = self.grids(tmp_path, coords, patterns, "rain")
        assert got.read_bytes() == want.read_bytes()
        # 0.25 and 0.5 of the way: 199.5, 216.75, 234.25 and 144, 178.5, 213.5
        assert fills(got) == ["#ffffff"] * 5 + ["#c8d9ea", "#90b2d6",
                                               "#2166ac"]

    def test_state_other_than_one_is_dry(self, tmp_path):
        coords = np.array([(0, 0), (1, 0), (2, 0), (3, 0)])
        patterns = np.array([[1, 2, 0, 3]], dtype=np.int8)
        got, want = self.grids(tmp_path, coords, patterns, "state")
        assert got.read_bytes() == want.read_bytes()
        assert fills(got) == [WET_COLOR] + [DRY_COLOR] * 3
