"""Command-line pipeline: synth, fit, baseline, compare, refit.

Configuration is one JSON file; command-line flags override it.  Every
command is deterministic given its config and seed, and emits no timestamps.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import reprlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, svgplot
from .data import (_WRITE_BLOCK, RainfallDataset, SyntheticSpec,
                   _cell_indices, _load_locations, _read_table, _repeats,
                   _write_blocks, _write_csv, compute_spatial_weights,
                   discretize_by_mean, generate_synthetic, load_dataset,
                   save_dataset, write_state)
from .errors import NumericError, ValidationError
from .inference import SamplerConfig, refit_frozen, run_gibbs
from .metrics import (MIN_YEARS, build_report, distance_report,
                      read_metrics_csv, spatial_coherence, write_report)
from .model import (HIGH, LOW, LatentState, ModelParams, PatternSet,
                    extract_patterns, pattern_columns)

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
# the longest file name of Linux and macOS in bytes, the bound of a map name
NAME_MAX = 255
# an i/o error echoes a file name of up to 72 characters whole
_PATH_REPR = reprlib.Repr()
_PATH_REPR.maxstring = 72

PATTERNS_SPATIAL_HEADER = ["cluster_id", "loc_id", "crp_value", "cdp_state"]
PATTERNS_TEMPORAL_HEADER = ["cluster_id", "day_index", "cts_value",
                            "cds_state"]
CLUSTER_SUMMARY_HEADER = ["cluster_id", "n_days", "n_years", "aggregate_mm"]

# the config sections that library dataclasses hold, as (class, key -> field);
# each field's default is its key's
SECTIONS = {
    "model": (ModelParams, {
        "gamma": "day_concentration", "lambda": "loc_concentration",
        "f": "temporal_factor", "eta": "day_align", "zeta": "loc_align",
        "sigma": "aggregate_sd"}),
    "sampler": (SamplerConfig, {"burnin": "n_burnin", "samples": "n_samples",
                                "seed": "seed", "init": "init"}),
    "synth": (SyntheticSpec, {
        "S": "n_locations", "T": "n_days", "K": "n_day_patterns",
        "L": "n_loc_groups", "wet_shape": "wet_shape", "wet_rate": "wet_rate",
        "dry_shape": "dry_shape", "dry_rate": "dry_rate",
        "noise": "flip_noise", "seed": "seed", "years": "n_years"}),
}
# params.json's estimated arrays; a refit reads the Gamma's, the first two
PARAM_ARRAYS = ("gamma_shape", "gamma_rate", "aggregate_mean")

DEFAULT_CONFIG = {
    "paths": {"locations": "locations.csv", "rainfall": "rainfall.csv",
              "out": "out"},
    **{name: {k: getattr(cls, f) for k, f in keys.items()}
       for name, (cls, keys) in SECTIONS.items()},
    "baseline": {"k": 10, "tau": None, "lasso_reg": 1.0},
    "metrics": {"min_years": MIN_YEARS},
}
DEFAULT_CONFIG["model"]["sigma"] = None  # the sd of the daily totals


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _read_json(path) -> dict:
    """A JSON object from a file; anything else is an error naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def load_config(path: str | None, seed: int | None, out: str | None) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        cfg = _merge(cfg, _read_json(path))
    if seed is not None:
        cfg = _merge(cfg, {"sampler": {"seed": seed}, "synth": {"seed": seed}})
    if out is not None:
        cfg = _merge(cfg, {"paths": {"out": out}})
    return cfg


def _convert(value, kind, where: str):
    """A JSON value converted by ``kind``; an error names ``where`` and
    echoes the value, a long one cut short by ``reprlib.repr``."""
    try:
        # a number takes no JSON boolean, an int no fraction
        if (kind in (int, float) and isinstance(value, bool)
                or kind is int and isinstance(value, float)
                and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: cannot use "
                              f"{reprlib.repr(value)}") from None


def _value(cfg: dict, section: str, key: str, kind=float, null_ok=False):
    """``cfg[section][key]`` converted by ``kind``; errors name both keys."""
    sec = cfg.get(section)
    if not isinstance(sec, dict):
        raise ValidationError(f"config: {section}: expected an object")
    value = sec.get(key)
    if value is None and null_ok:
        return None
    return _convert(value, kind, f"config: {section}.{key}")


def _checked(cfg: dict, section: str, key: str, ok, rule: str, kind=float,
             null_ok=False):
    """:func:`_value`, with an error stating ``rule`` unless ``ok(value)``;
    a null that ``null_ok`` admits is not checked."""
    value = _value(cfg, section, key, kind, null_ok)
    if value is not None and not ok(value):
        raise ValidationError(f"config: {section}.{key}: must be {rule}, "
                              f"got {reprlib.repr(value)}")
    return value


def _min_years(cfg: dict) -> int:
    """The years a cluster must span to be prominent, at least one."""
    return _checked(cfg, "metrics", "min_years", lambda v: v >= 1, ">= 1",
                    int)


def _out_dir(cfg: dict) -> Path:
    out = Path(_value(cfg, "paths", "out", os.fspath))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(cfg: dict) -> RainfallDataset:
    return load_dataset(_value(cfg, "paths", "locations", os.fspath),
                        _value(cfg, "paths", "rainfall", os.fspath))


def _section(cfg: dict, name: str, **defaults):
    """The config section ``name`` as its dataclass, checked: each key is
    converted to the type of its field's default, and a null ``model`` value
    keeps the default, ``defaults`` where it gives the field."""
    cls, keys = SECTIONS[name]
    given = {f: _value(cfg, name, k, type(getattr(cls, f)),
                       null_ok=name == "model") for k, f in keys.items()}
    obj = cls(**defaults | {f: v for f, v in given.items() if v is not None})
    obj.validate(f"config: {name}.", keys)
    return obj


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_config(cfg: dict, out: Path, extra: dict | None = None) -> None:
    _write_json(out / "config.json", _merge(cfg, extra or {}))


def _write_patterns(out: Path, patterns: PatternSet) -> None:
    spatial, temporal, summary = pattern_columns(patterns)
    _write_csv(out / "patterns_spatial.csv", PATTERNS_SPATIAL_HEADER, *spatial)
    _write_csv(out / "patterns_temporal.csv", PATTERNS_TEMPORAL_HEADER,
               *temporal)
    _write_csv(out / "cluster_summary.csv", CLUSTER_SUMMARY_HEADER, *summary)


def _model_section(params: ModelParams) -> dict:
    """The config's ``model`` section that gives ``params``' scalars."""
    return {k: getattr(params, f) for k, f in SECTIONS["model"][1].items()}


def _write_params(out: Path, params: ModelParams) -> None:
    _write_json(out / "params.json", {
        **_model_section(params),
        **{f: getattr(params, f).tolist() for f in PARAM_ARRAYS}})


def _floats(value, where: str):
    """Nested JSON lists of numbers as floats, each by the config's rule."""
    if isinstance(value, list):
        return [_floats(v, where) for v in value]
    return _convert(value, float, where)


def _load_params(path, patterns: PatternSet) -> ModelParams:
    """The frozen run's model scalars and Gamma, shaped to its locations;
    its numbers, also those within the arrays, read as a config's."""
    doc, keys = _read_json(path), SECTIONS["model"][1]
    try:
        scalars = {f: _convert(doc[k], float, f"{path}: {k}")
                   for k, f in keys.items()}
        arrays = {f: _floats(doc[f], f"{path}: {f}") for f in PARAM_ARRAYS[:2]}
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from None
    try:
        arrays = {f: np.array(a, dtype=float) for f, a in arrays.items()}
    except ValueError as exc:  # a ragged array
        raise ValidationError(f"{path}: malformed value ({exc})") from None
    params = ModelParams(**scalars, **arrays)
    shape = (patterns.rain_patterns.shape[1], 2)
    for f, a in arrays.items():
        if a.shape != shape:
            raise ValidationError(f"{path}: {f} must have shape {shape}")
    params.validate(f"{path}: ", keys)
    return params


def _load_patterns(run_dir: Path) -> PatternSet:
    """A run's day maps, ``patterns_spatial.csv``'s rain and state patterns.

    Clusters 1..K must each list every loc_id 0..S-1 once, with state 1 or
    2, so a truncated or edited file is rejected rather than padded.  Each
    map's sum, its volume and a refit's aggregate mean, must be finite.
    """
    path = run_dir / "patterns_spatial.csv"

    def checks(t):
        u, s, state = t["cluster_id"], t["loc_id"], t["cdp_state"]
        pair = (np.unique(u, return_inverse=True)[1] * len(t)
                + np.unique(s, return_inverse=True)[1])
        return [(_repeats(pair),
                 lambda r: f"repeated cluster {u[r]}, loc_id {s[r]}"),
                (~np.isfinite(t["crp_value"]),
                 lambda r: "non-finite crp_value"),
                ((state != HIGH) & (state != LOW),
                 lambda r: f"state {state[r]} is not 1 or 2")]

    table = _read_table(path, PATTERNS_SPATIAL_HEADER,
                        [np.int64, np.int64, float, np.int64], checks)
    if len(table) == 0:
        raise ValidationError(f"{path}: no pattern rows")
    u, s = table["cluster_id"], table["loc_id"]
    K, S = int(u.max()), int(s.max()) + 1
    # distinct (cluster, location) pairs fill 1..K x 0..S-1 only if K·S of them
    if u.min() < 1 or s.min() < 0 or len(table) != K * S:
        raise ValidationError(f"{path}: expected clusters 1..{K} each listing "
                              f"loc_id 0..{S - 1}")
    cells = np.empty((K, S), dtype=table.dtype)
    cells[u - 1, s] = table
    crp = cells["crp_value"].copy()
    with np.errstate(over="ignore"):
        overflows = np.flatnonzero(~np.isfinite(crp.sum(axis=1)))
    if len(overflows):
        raise ValidationError(f"{path}: cluster {overflows[0] + 1}'s "
                              "crp_value sum is not finite")
    return PatternSet(crp, cells["cdp_state"].astype(np.int8), None, None,
                      None, None)


def cmd_synth(cfg: dict) -> int:
    spec = _section(cfg, "synth")
    data, truth = generate_synthetic(spec)
    out = _out_dir(cfg)
    save_dataset(data, out / "locations.csv", out / "rainfall.csv")
    write_state(truth, out, "truth", "true")
    _dump_config(cfg, out, {"method": "synth"})
    print(f"wrote synthetic dataset ({spec.n_locations} locations, "
          f"{spec.n_days} days) to {out}")
    return 0


def cmd_fit(cfg: dict) -> int:
    sampler = _section(cfg, "sampler")
    min_years = _min_years(cfg)
    data = _load_data(cfg)
    weights = compute_spatial_weights(data)
    params = _section(cfg, "model",
                      aggregate_sd=float(data.aggregate.std()) or 1.0)
    mode, trace, patterns, fitted = run_gibbs(data, weights, params, sampler)

    out = _out_dir(cfg)
    write_state(mode, out, "assign", "mode")
    _write_patterns(out, patterns)
    _write_params(out, fitted)
    _write_csv(out / "trace.csv", ["sweep", "logp"], np.arange(len(trace)),
               trace)
    g, per = build_report(data, mode.states, mode.day_labels, patterns,
                          min_years)
    write_report(out, "mrf", g, per)
    _dump_config(cfg, out, {"method": "mrf", "model": _model_section(params)})
    print(f"fit: {patterns.n_day_patterns} day clusters, "
          f"{int(g['n_prominent'])} prominent; "
          f"outputs in {out}")
    return 0


def _baseline_clustering(cfg: dict, data: RainfallDataset, method: str,
                         states: np.ndarray):
    k = _value(cfg, "baseline", "k", int)
    if not 1 <= k <= data.n_days:
        raise ValidationError(f"config: baseline.k: the {method} baseline "
                              f"clusters {data.n_days} days, "
                              f"got k={reprlib.repr(k)}")
    seed = _value(cfg, "sampler", "seed", int)
    SamplerConfig(seed=seed).validate("config: sampler.")
    drvs = data.rain.T  # (T, S)
    if method == "kmeans":
        return baselines.kmeans(drvs, k, seed=seed)
    if method == "spect1":
        emb = baselines.laplacian_embedding(baselines.similarity_euclidean(
            drvs, _checked(cfg, "baseline", "tau", lambda v: 0 < v < math.inf,
                           "null or finite and > 0", null_ok=True)), k)
    else:
        emb = baselines.factor_embedding(baselines.similarity_hamming(
            states.T), k)
    return baselines.spectral_cluster(emb, k, seed=seed)


def baseline_patterns(data: RainfallDataset, states: np.ndarray,
                      labels: np.ndarray) -> PatternSet:
    """``extract_patterns`` of a day clustering (dense 1-based ``labels``) of
    the thresholded ``states``, all locations one series, but with the mean
    maps thresholded at each location's mean as its state patterns."""
    state = LatentState(states=states,
                        day_labels=np.asarray(labels, dtype=np.int64),
                        loc_labels=np.ones(data.n_locations, dtype=np.int64))
    pats = extract_patterns(data, state)
    return replace(pats, state_patterns=baselines.derive_state_patterns(
        pats.rain_patterns, data.rain.mean(axis=1)))


def cmd_baseline(cfg: dict, method: str) -> int:
    data = _load_data(cfg)
    with np.errstate(over="ignore"):  # (S + T)·Σx² bounds every sum taken
        sq = np.einsum("st,st->s", data.rain, data.rain)
        if not np.isfinite((data.n_locations + data.n_days) * sq.sum()):
            raise data.numeric_error(int(sq.argmax()), "overflows the "
                                     "baselines' sums of squares")
    out = _out_dir(cfg)
    if method == "eof":
        return _cmd_baseline_eof(cfg, data, out)
    min_years = _min_years(cfg)
    states = discretize_by_mean(data)
    labels = _baseline_clustering(cfg, data, method, states)
    patterns = baseline_patterns(data, states, labels)
    _write_csv(out / "assign_u.csv", ["day_index", "u_mode"],
               np.arange(len(labels)), labels)
    _write_patterns(out, patterns)
    g, per = build_report(data, states, labels, patterns, min_years)
    write_report(out, method, g, per)
    _dump_config(cfg, out, {"method": method})
    print(f"{method}: {patterns.n_day_patterns} clusters, "
          f"{int(g['n_prominent'])} prominent; "
          f"outputs in {out}")
    return 0


def _cmd_baseline_eof(cfg: dict, data: RainfallDataset, out: Path) -> int:
    S = data.n_locations
    k = _value(cfg, "baseline", "k", int)
    if not 1 <= k <= S:
        raise ValidationError(f"config: baseline.k: the EOF baseline has {S} "
                              f"modes, got k={reprlib.repr(k)}")
    reg = _checked(cfg, "baseline", "lasso_reg", lambda v: 0 <= v < math.inf,
                   "finite and >= 0")
    vectors, eigenvalues, mean = baselines.eof_decompose(data.rain)
    _write_csv(out / "eof_eigenvalues.csv", ["mode_id", "eigenvalue"],
               np.arange(S), eigenvalues)
    j, s = _cell_indices((S, S))
    _write_csv(out / "eof_vectors.csv", ["mode_id", "loc_id", "value"],
               j, s, vectors.T.ravel())
    _write_csv(out / "eof_mean.csv", ["loc_id", "mean_mm"], np.arange(S), mean)

    coefs = baselines.lasso_fit(data.rain, vectors, mean, reg)  # (modes, days)
    resid = data.rain - mean[:, None]
    resid -= vectors @ coefs
    days = max(1, _WRITE_BLOCK // S)  # whole days, at most _WRITE_BLOCK cells

    def day_blocks():
        for d in range(0, data.n_days, days):
            t, j = np.nonzero(coefs[:, d:d + days].T)
            yield t + d, j, coefs[j, t + d]
    _write_blocks(out / "lasso_coefs.csv", ["day_index", "mode_id", "coef"],
                  day_blocks())

    # leading modes, binarised by sign, stand in as the method's patterns
    lead = vectors[:, :k].T
    cdp = np.where(lead > 0, HIGH, LOW).astype(np.int8)
    spch_state, spch_rain = spatial_coherence(cdp, lead, data.pairs)
    explained = (float(eigenvalues[:k].sum() / eigenvalues.sum())
                 if eigenvalues.sum() > 0 else 1.0)
    write_report(out, "eof", {
        "n_clusters": float(k),
        "mean_l2": float(np.linalg.norm(resid, axis=0).mean()),
        "mean_sparsity": float((coefs != 0).sum(axis=0).mean()),
        "variance_explained": explained,
        "spch_cdp": spch_state,
        "spch_crp": spch_rain,
    })
    _dump_config(cfg, out, {"method": "eof"})
    print(f"eof: {k} leading modes, variance explained {explained:.3f}; "
          f"outputs in {out}")
    return 0


def cmd_compare(cfg: dict, run_dirs: list[str]) -> int:
    # every run and the maps' coordinates are loaded and checked before the
    # output directory is made
    locations = _value(cfg, "paths", "locations", os.fspath, null_ok=True)
    coords = (_load_locations(locations)
              if locations and os.path.exists(locations) else None)
    methods = []
    reports = []
    patterns = []
    for rd in run_dirs:
        rdp = Path(rd)
        try:
            method = _read_json(rdp / "config.json").get("method", rdp.name)
        except FileNotFoundError:
            method = rdp.name
        g, per = read_metrics_csv(rdp / "metrics.csv")
        # a label names the run's maps, so it must be a plain file name; a
        # repeated method is labelled mrf-2, mrf-3, ... in columns and maps
        label, n = str(method), 1
        if (label in ("", ".", "..") or "\0" in label
                or os.path.basename(label) != label):
            raise ValidationError(f"{rdp / 'config.json'}: method "
                                  f"{reprlib.repr(label)} is not a plain "
                                  "file name")
        while label in methods:
            n += 1
            label = f"{method}-{n}"
        if len(os.fsencode(f"cdp_{label}.svg")) > NAME_MAX:
            raise ValidationError(f"{rdp / 'config.json'}: method "
                                  f"{reprlib.repr(label)} is too long: its "
                                  f"map's file name is over {NAME_MAX} bytes")
        methods.append(label)
        reports.append((g, per))
        pat = None
        if (rdp / "patterns_spatial.csv").exists():
            pat = _load_patterns(rdp)
            S = pat.rain_patterns.shape[1]
            if coords is not None and S != len(coords):
                raise ValidationError(f"{locations}: {len(coords)} locations, "
                                      f"but {label}'s patterns have {S}")
        patterns.append(pat)

    out = _out_dir(cfg)
    metric_names = sorted({name for g, _ in reports for name in g})
    rows = []
    for name in metric_names:
        row = [name]
        for g, _ in reports:
            row.append(repr(g[name]) if name in g else "")
        rows.append(row)
    # run directory names may need csv quoting
    with open(out / "comparison.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["metric"] + methods] + rows)
    with open(out / "comparison.txt", "w") as fh:
        # the column fits its header too, so a table without rows works
        width = max(map(len, ["metric"] + metric_names))
        fh.write("  ".join(["metric".ljust(width)]
                           + [m.rjust(18) for m in methods]) + "\n")
        for row in rows:
            cells = [row[0].ljust(width)]
            for v in row[1:]:
                cells.append((f"{float(v):.6g}" if v else "-").rjust(18))
            fh.write("  ".join(cells) + "\n")

    # charts over per-cluster quantities, one series per method
    for metric, fname, title in [
            ("mean_y", "mean_y_per_cluster.svg", "mean daily total per cluster"),
            ("wet_fraction", "wet_fraction.svg", "wet fraction per pattern"),
            ("spells_per_year", "spells_per_year.svg", "spells per year"),
            ("mean_spell_length", "mean_spell_length.svg", "mean spell length")]:
        series = []
        n_max = 0
        for method, (_, per) in zip(methods, reports):
            if metric in per:
                series.append((method, per[metric]))
                n_max = max(n_max, len(per[metric]))
        if series:
            svgplot.grouped_bar_chart(out / fname, title,
                                      [str(u + 1) for u in range(n_max)],
                                      series)

    if coords is not None:
        for method, pat in zip(methods, patterns):
            if pat is None:
                continue
            ann = [f"{v:.1f} mm/day" for v in pat.pattern_volume]
            svgplot.pattern_grid(out / f"cdp_{method}.svg",
                                 f"state patterns: {method}", coords,
                                 pat.state_patterns, "state", ann)
            svgplot.pattern_grid(out / f"crp_{method}.svg",
                                 f"rain patterns: {method}", coords,
                                 pat.rain_patterns, "rain", ann)
    print(f"compared {len(methods)} runs into {out}")
    return 0


def cmd_refit(cfg: dict, frozen_dir: str) -> int:
    sampler = _section(cfg, "sampler")
    frozen = Path(frozen_dir)
    patterns = _load_patterns(frozen)
    params = _load_params(frozen / "params.json", patterns)
    data = _load_data(cfg)
    weights = compute_spatial_weights(data)
    mode = refit_frozen(data, weights, patterns, params, sampler)

    out = _out_dir(cfg)
    write_state(mode, out, "assign", "mode")
    l2, ham, agg, n_scored = distance_report(
        data.rain, mode.states, mode.day_labels, patterns)
    overflow = int((mode.day_labels > patterns.n_day_patterns).sum())
    write_report(out, "refit", {
        "n_clusters": float(patterns.n_day_patterns),
        "mean_l2": l2,
        "mean_hamming": ham,
        "mean_agg": agg,
        "n_days_scored": float(n_scored),
        "n_overflow_days": float(overflow),
    })
    # the model parameters are the frozen run's, whatever the config says
    _dump_config({**cfg, "model": _model_section(params)}, out,
                 {"method": "refit", "frozen_run": str(frozen)})
    print(f"refit: {n_scored} days scored against "
          f"{patterns.n_day_patterns} frozen patterns, {overflow} overflow; "
          f"outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument("--out", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="rainpatterns",
        description="Discover canonical spatio-temporal rainfall patterns.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's ``run(cfg, args)`` looks its function up when it runs,
    # so a wrapper set on this module after import is the one called
    sub.add_parser("synth", parents=[common],
                   help="generate a synthetic dataset with planted patterns"
                   ).set_defaults(run=lambda cfg, args: cmd_synth(cfg))
    sub.add_parser("fit", parents=[common],
                   help="fit the coupled state/cluster model"
                   ).set_defaults(run=lambda cfg, args: cmd_fit(cfg))
    p = sub.add_parser("baseline", parents=[common],
                       help="run a reference method")
    p.add_argument("--method", required=True,
                   choices=["kmeans", "spect1", "spect2", "eof"])
    p.set_defaults(run=lambda cfg, args: cmd_baseline(cfg, args.method))
    p = sub.add_parser("compare", parents=[common],
                       help="join run metrics into one table plus charts")
    p.add_argument("runs", nargs="+", help="run directories to compare")
    p.set_defaults(run=lambda cfg, args: cmd_compare(cfg, args.runs))
    p = sub.add_parser("refit", parents=[common],
                       help="re-infer new data against frozen patterns")
    p.add_argument("--frozen", required=True,
                   help="run directory holding the frozen patterns")
    p.set_defaults(run=lambda cfg, args: cmd_refit(cfg, args.frozen))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(load_config(args.config, args.seed, args.out), args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        # the system's message and the file name, a long name cut short
        name = ("" if exc.filename is None
                else f": {_PATH_REPR.repr(exc.filename)}")
        print(f"i/o error: {exc.strerror or exc}{name}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory in {args.command}: {exc}",
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
