"""Evaluation metrics for one clustering run: prominence, fit, coherence.

All distance-style metrics are reported as per-day means and are invariant
under cluster relabelling.  A run's report is the two dicts that
``write_report`` writes and ``read_metrics_csv`` gives back.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .data import _check_header
from .errors import NumericError, ParseError, ValidationError
from .model import HIGH, RAIN_EPS, PatternSet

METRICS_HEADER = ["metric", "cluster_id", "value"]
MIN_YEARS = 5  # the distinct years a prominent cluster's days span
_DAY_BLOCK = 64  # days whose distances distance_report takes at once


def distance_report(rain: np.ndarray, states: np.ndarray,
                    day_labels: np.ndarray, patterns: PatternSet):
    """Mean distances between daily vectors and their cluster's patterns,
    ``(mean_l2, mean_hamming, mean_agg, n_days_scored)``.

    Each mean is over the scored days, of a day's Euclidean distance from
    its rain pattern, its states' Hamming distance from its state pattern
    and its total's (``rain.sum(axis=0)``) absolute error against the pattern
    volume.  Days whose label has no pattern row (refit overflow) are skipped.
    A day whose squared distance is not finite is a ``NumericError`` naming
    it and its cluster.
    """
    rows = day_labels - 1
    days = np.flatnonzero(rows < patterns.n_day_patterns)
    n = len(days)
    if n == 0:
        return math.nan, math.nan, math.nan, 0
    # per-day sums, a block of days at a time, so no (T, S) copy is made
    sq, ham = np.empty(n), 0
    for i in range(0, n, _DAY_BLOCK):
        t = days[i:i + _DAY_BLOCK]
        r = rows[t]
        with np.errstate(over="ignore"):
            diff = rain[:, t].T - patterns.rain_patterns[r]
            sq[i:i + len(t)] = (diff * diff).sum(axis=1)
        ham += int((states[:, t].T != patterns.state_patterns[r]).sum())
    finite = np.isfinite(sq)
    if not finite.all():
        t = days[finite.argmin()]
        raise NumericError(f"cluster {rows[t] + 1}, day {t}: the squared "
                           "distance from its rain pattern is not finite")
    l2 = float(np.sqrt(sq).sum() / n)
    y = rain.sum(axis=0)[days]
    agg = float(np.abs(y - patterns.pattern_volume[rows[days]]).sum() / n)
    return l2, ham / n, agg, n


def cluster_homogeneity(y: np.ndarray, day_labels: np.ndarray,
                        means: np.ndarray):
    """Per-cluster population std of the day totals ``y`` about each
    cluster's mean total ``means[u - 1]``, and their day-weighted mean, as
    (per_cluster_std, pooled_std) with one entry per label 1..K."""
    rows = day_labels - 1
    counts = np.bincount(rows, minlength=len(means))
    dev = y - means[rows]
    stds = np.sqrt(np.bincount(rows, weights=dev * dev,
                               minlength=len(means)) / counts)
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


def format_table(method: str, global_values: dict, per_cluster: dict) -> str:
    """``metrics.txt``'s text: the global values, then a row per cluster."""
    lines = [f"method: {method}", "", "global:"]
    for k, v in sorted(global_values.items()):
        lines.append(f"  {k:<22} {v:.6g}")
    if per_cluster:
        names = sorted(per_cluster)
        lines.append("")
        lines.append("  ".join(["cluster"] + [f"{n:>18}" for n in names]))
        for u in range(len(per_cluster[names[0]])):
            cells = [f"{per_cluster[n][u]:>18.6g}" for n in names]
            lines.append("  ".join([f"{u + 1:>7}"] + cells))
    return "\n".join(lines) + "\n"


def write_report(folder, method: str, global_values: dict, per_cluster={}):
    """Write a run's ``metrics.csv``, a row per global value and then one
    per (metric, cluster) in label order, and ``metrics.txt``."""
    with open(folder / "metrics.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_HEADER)
        for name, value in sorted(global_values.items()):
            w.writerow([name, "", repr(float(value))])
        for name, values in sorted(per_cluster.items()):
            for u, value in enumerate(values, 1):
                w.writerow([name, u, repr(float(value))])
    with open(folder / "metrics.txt", "w") as fh:
        fh.write(format_table(method, global_values, per_cluster))


def read_metrics_csv(path):
    """Load a metrics CSV back into ``build_report``'s (global_values,
    per_cluster): floats, and (K,) float arrays in label order.

    An empty table, a repeated (metric, cluster_id), a non-number, a
    non-finite per-cluster value (``compare`` charts those), a per-cluster
    metric whose ids are not 1..K or one whose K is not the first's fails;
    a global value may be nan, as a refit whose every day overflows writes
    it.
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
    first = next(iter(per_cluster), None)
    for name, values in per_cluster.items():
        K = len(values)
        if sorted(values) != list(range(1, K + 1)):
            raise ValidationError(f"{path}: {name}: cluster ids are not "
                                  f"1..{K}")
        if K != len(per_cluster[first]):
            raise ValidationError(f"{path}: {name} lists {K} clusters, "
                                  f"{first} {len(per_cluster[first])}")
        per_cluster[name] = np.array([values[u] for u in range(1, K + 1)])
    return global_values, per_cluster


def build_report(data, states: np.ndarray, day_labels: np.ndarray,
                 patterns: PatternSet, min_years: int = MIN_YEARS):
    """The evaluation report of one run, (global_values, per_cluster): a
    dict of floats and one of (K,) float arrays in label order.

    ``patterns`` are extracted from ``day_labels`` (dense labels 1..K), so
    their day and year counts are the clusters'; a cluster is prominent when
    its days span at least ``min_years`` distinct years.
    """
    K = patterns.n_day_patterns

    prominent = patterns.year_counts >= min_years
    l2, ham, agg, _ = distance_report(data.rain, states, day_labels, patterns)
    stds, pooled = cluster_homogeneity(data.aggregate, day_labels,
                                       patterns.pattern_volume)
    spch_state, spch_rain = spatial_coherence(
        patterns.state_patterns, patterns.rain_patterns, data.pairs)
    spells, spell_len = spell_stats(day_labels, data.year_of_day)

    coverage = int(patterns.day_counts[prominent].sum())
    n_pc = int(prominent.sum())

    return {
        "n_clusters": float(K),
        "n_prominent": float(n_pc),
        "pc_coverage": float(coverage),
        "avg_days_per_pc": coverage / n_pc if n_pc else 0.0,
        "mean_l2": l2,
        "mean_hamming": ham,
        "mean_agg": agg,
        "pooled_std_y": pooled,
        "spch_cdp": spch_state,
        "spch_crp": spch_rain,
        "aic_gaussian": aic(K, l2),
        "aic_hamming": aic(K, ham),
    }, {
        "n_days": patterns.day_counts.astype(float),
        "n_years": patterns.year_counts.astype(float),
        "prominent": prominent.astype(float),
        "mean_y": patterns.pattern_volume,
        "std_y": stds,
        "wet_fraction": wet_fraction(patterns),
        "spells_per_year": spells,
        "mean_spell_length": spell_len,
    }
