"""Evaluation metrics for one clustering run: prominence, fit, coherence.

All distance-style metrics are reported as per-day means and are invariant
under cluster relabelling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import _check_header
from .errors import ParseError, ValidationError
from .model import HIGH, RAIN_EPS, PatternSet

METRICS_HEADER = ["metric", "cluster_id", "value"]
MIN_YEARS = 5  # the distinct years a prominent cluster's days span
_DAY_BLOCK = 64  # days whose distances distance_report takes at once


class DistanceReport(NamedTuple):
    mean_l2: float
    mean_hamming: float
    mean_agg: float
    n_days_scored: int


def distance_report(rain: np.ndarray, states: np.ndarray,
                    day_labels: np.ndarray, patterns: PatternSet) -> DistanceReport:
    """Mean distances between daily vectors and their cluster's patterns.

    Reports the mean Euclidean distance of each day's rainfall vector to its
    rain pattern, the mean Hamming distance of its state vector to its state
    pattern, and the mean absolute error of its total rainfall against the
    pattern volume.  Days whose label has no pattern row (refit overflow) are
    skipped.
    """
    rows = day_labels - 1
    days = np.flatnonzero(rows < patterns.n_day_patterns)
    n = len(days)
    if n == 0:
        return DistanceReport(math.nan, math.nan, math.nan, 0)
    # per-day sums, a block of days at a time, so no (T, S) copy is made
    sq, y, ham = np.empty(n), np.empty(n), 0
    for i in range(0, n, _DAY_BLOCK):
        t = days[i:i + _DAY_BLOCK]
        x, r = rain[:, t], rows[t]
        diff = x.T - patterns.rain_patterns[r]
        sq[i:i + len(t)] = (diff * diff).sum(axis=1)
        ham += int((states[:, t].T != patterns.state_patterns[r]).sum())
        y[i:i + len(t)] = x.sum(axis=0)
    l2 = float(np.sqrt(sq).sum() / n)
    agg = float(np.abs(y - patterns.pattern_volume[rows[days]]).sum() / n)
    return DistanceReport(l2, ham / n, agg, n)


def cluster_homogeneity(y: np.ndarray, day_labels: np.ndarray):
    """Per-cluster population std of total rainfall and the day-weighted mean.

    Returns (per_cluster_std, pooled_std) with one entry per label 1..K.
    """
    K = int(day_labels.max())
    stds = np.empty(K)
    counts = np.empty(K)
    for u in range(1, K + 1):
        vals = y[day_labels == u]
        stds[u - 1] = float(vals.std())  # population convention
        counts[u - 1] = len(vals)
    pooled = float((stds * counts).sum() / counts.sum())
    return stds, pooled


def spatial_coherence(state_patterns: np.ndarray, rain_patterns: np.ndarray,
                      pairs) -> tuple[float, float]:
    """Mean neighbour disagreement of the (K, S) state and rain patterns.

    Both scores are normalised by the total number of (pattern, directed
    neighbour pair) terms, so a constant pattern scores 0 and i.i.d. random
    binary patterns score about 0.5.  Rain-pattern terms whose reference value
    is below the rainfall floor are skipped (counted as zero).  ``pairs`` is
    (src, dst) of the directed pairs, as ``RainfallDataset.pairs`` holds them.
    """
    ei, ej = pairs
    if not ei.size:
        return 0.0, 0.0
    total = len(state_patterns) * len(ei)

    cdp, crp = state_patterns, rain_patterns
    spch_state = float((cdp[:, ej] != cdp[:, ei]).sum() / total)

    ref = np.abs(crp[:, ei])
    okay = ref >= RAIN_EPS
    rel = np.zeros_like(ref)
    rel[okay] = np.abs(crp[:, ej] - crp[:, ei])[okay] / ref[okay]
    spch_rain = float(rel.sum() / total)
    return spch_state, spch_rain


def spell_stats(day_labels: np.ndarray, years: np.ndarray):
    """Spell counts and lengths per cluster.

    A spell is a maximal run of one label within a single year; year
    boundaries break runs.  Returns (spells_per_year, mean_length) arrays
    indexed by label - 1, with spells_per_year normalised by the number of
    distinct years in the record.
    """
    K = int(day_labels.max())
    n_years = np.count_nonzero(np.diff(np.sort(years))) + 1
    # a spell starts on the first day and wherever the label or year changes
    starts = np.ones(len(day_labels), dtype=bool)
    starts[1:] = ((day_labels[1:] != day_labels[:-1])
                  | (years[1:] != years[:-1]))
    runs = np.bincount(day_labels[starts] - 1, minlength=K).astype(float)
    days = np.bincount(day_labels - 1, minlength=K).astype(float)
    mean_len = np.divide(days, runs, out=np.zeros(K), where=runs > 0)
    return runs / n_years, mean_len


def wet_fraction(patterns: PatternSet) -> np.ndarray:
    """Fraction of locations in the high state, per state pattern."""
    return (patterns.state_patterns == HIGH).mean(axis=1)


def aic(n_clusters: int, mean_distance: float) -> float:
    """AIC, 2k + 2d, with the mean distance d standing in for -log(L)."""
    return 2.0 * n_clusters + 2.0 * mean_distance


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two labelings of the same items."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValidationError("labelings must have equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    table = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    n = comb2(len(a))
    expected = sum_a * sum_b / n if n > 0 else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


@dataclass
class MetricsReport:
    """Per-cluster and global evaluation quantities for one method run."""

    method: str
    n_clusters: int
    per_cluster: dict[str, np.ndarray] = field(default_factory=dict)
    global_values: dict[str, float] = field(default_factory=dict)

    def to_rows(self):
        rows = [(k, "", v) for k, v in sorted(self.global_values.items())]
        for name in sorted(self.per_cluster):
            arr = self.per_cluster[name]
            rows.extend((name, u + 1, float(arr[u])) for u in range(len(arr)))
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(METRICS_HEADER)
            for name, cid, val in self.to_rows():
                w.writerow([name, cid, repr(float(val))])

    def format_table(self) -> str:
        lines = [f"method: {self.method}", "", "global:"]
        for k, v in sorted(self.global_values.items()):
            lines.append(f"  {k:<22} {v:.6g}")
        if self.per_cluster:
            names = sorted(self.per_cluster)
            lines.append("")
            lines.append("  ".join(["cluster"] + [f"{n:>18}" for n in names]))
            for u in range(self.n_clusters):
                cells = [f"{self.per_cluster[n][u]:>18.6g}" for n in names]
                lines.append("  ".join([f"{u + 1:>7}"] + cells))
        return "\n".join(lines) + "\n"


def read_metrics_csv(path):
    """Load a metrics CSV back into (global_values, per_cluster) dicts.

    An empty table, a repeated (metric, cluster_id), a non-number or a
    non-finite per-cluster value (``compare`` charts those) fails; a global
    value may be nan, as a refit whose every day overflows writes it.
    """
    global_values: dict[str, float] = {}
    per_cluster: dict[str, dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        _check_header(path, fh, METRICS_HEADER)
        reader = csv.reader(fh)
        for row in reader:
            lineno = reader.line_num + 1  # a quoted field may span lines
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields")
            name, cid, val = row
            values = per_cluster.setdefault(name, {}) if cid else global_values
            try:
                name.encode()  # an undecodable byte is a lone surrogate
                key, value = (name if cid == "" else int(cid)), float(val)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: malformed field") from None
            if cid != "" and not math.isfinite(value):
                raise ValidationError(f"{path}:{lineno}: non-finite value")
            if key in values:
                raise ValidationError(f"{path}:{lineno}: repeated row")
            values[key] = value
    if not (global_values or per_cluster):
        raise ValidationError(f"{path}: no metric rows")
    return global_values, per_cluster


def build_report(data, states: np.ndarray, day_labels: np.ndarray,
                 patterns: PatternSet, method: str,
                 min_years: int = MIN_YEARS) -> MetricsReport:
    """Assemble the full evaluation report for one run.

    ``patterns`` are extracted from ``day_labels`` (dense labels 1..K), so
    their day and year counts are the clusters'; a cluster is prominent when
    its days span at least ``min_years`` distinct years.
    """
    y = data.aggregate
    K = patterns.n_day_patterns

    prominent = patterns.year_counts >= min_years
    dist = distance_report(data.rain, states, day_labels, patterns)
    stds, pooled = cluster_homogeneity(y, day_labels)
    spch_state, spch_rain = spatial_coherence(
        patterns.state_patterns, patterns.rain_patterns, data.pairs)
    spells, spell_len = spell_stats(day_labels, data.year_of_day)
    mean_y = np.array([y[day_labels == u].mean() for u in range(1, K + 1)])

    coverage = int(patterns.day_counts[prominent].sum())
    n_pc = int(prominent.sum())

    report = MetricsReport(method=method, n_clusters=K)
    report.per_cluster = {
        "n_days": patterns.day_counts.astype(float),
        "n_years": patterns.year_counts.astype(float),
        "prominent": prominent.astype(float),
        "mean_y": mean_y,
        "std_y": stds,
        "wet_fraction": wet_fraction(patterns),
        "spells_per_year": spells,
        "mean_spell_length": spell_len,
        "aggregate_mm": patterns.pattern_volume,
    }
    report.global_values = {
        "n_clusters": float(K),
        "n_prominent": float(n_pc),
        "pc_coverage": float(coverage),
        "avg_days_per_pc": coverage / n_pc if n_pc else 0.0,
        "mean_l2": dist.mean_l2,
        "mean_hamming": dist.mean_hamming,
        "mean_agg": dist.mean_agg,
        "pooled_std_y": pooled,
        "spch_cdp": spch_state,
        "spch_crp": spch_rain,
        "aic_gaussian": aic(K, dist.mean_l2),
        "aic_hamming": aic(K, dist.mean_hamming),
    }
    return report
