"""Workload definitions: inputs, CLI commands, output checks and expected spans.

Each workload is a list of CLI commands run one after another, each in a
fresh interpreter (see ``run.py``).  The inputs are made from the workload
seed by ``prepare`` in an untimed child process; the program under test only
ever sees the CSV files and run directories written here.

``prepare`` imports rainpatterns and runs in a child; everything else in this
module is used by the harness and needs only numpy.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the paper's record: 357 locations, 8 years of 122 monsoon days (T = 976)
DAYS_PER_YEAR = 122


@dataclass(frozen=True)
class Scale:
    """Record size and sweep counts of one workload family."""

    locations: int
    years: int
    long_years: int
    patterns: int
    groups: int
    fit_burnin: int
    fit_samples: int
    refit_burnin: int
    refit_samples: int
    days_per_year: int = DAYS_PER_YEAR


PAPER = Scale(locations=357, years=8, long_years=24, patterns=8, groups=10,
              fit_burnin=20, fit_samples=10, refit_burnin=5, refit_samples=5)
# shrunken variant used by the self-test: same commands, seconds not minutes
SMALL = Scale(locations=100, years=8, long_years=16, patterns=4, groups=6,
              fit_burnin=6, fit_samples=4, refit_burnin=2, refit_samples=2,
              days_per_year=40)

MODEL = {"eta": 7.0, "zeta": 2.0}
FLIP_NOISE = 0.1
BASELINE_METHODS = ("kmeans", "spect2", "eof")

# directories under a workload's working directory
INPUTS = "inputs"
OUT = "out"

# quality floors against the planted truth (C3 asks ARI >= 0.9)
ARI_U_FLOOR = 0.9
Z_AGREE_FLOOR = 0.9


# spans a traced run of each workload must see fire
EXPECTED_SPANS = {
    "fit-paper": (
        "cli.cmd_fit", "data.load_dataset", "data.compute_spatial_weights",
        "inference.run_gibbs", "inference.run", "inference.sweep",
        "inference.z_sweep", "inference.u_sweep", "inference.v_sweep",
        "inference.merge_sweep", "inference.refresh",
        "inference.update_params_ml", "model.extract_patterns",
        "model.joint_log_density", "model.crp_log_prior_days",
        "metrics.build_report"),
    "refit-long": (
        "cli.cmd_refit", "data.load_dataset", "data.compute_spatial_weights",
        "inference.refit_frozen", "inference.run", "inference.sweep",
        "inference.z_sweep", "inference.u_sweep", "inference.v_sweep",
        "model.joint_log_density", "model.crp_log_prior_days",
        "metrics.distance_report"),
    "baselines-paper": (
        "cli.cmd_baseline", "cli.cmd_compare", "data.load_dataset",
        "baselines.kmeans", "baselines._lloyd", "baselines.spectral_cluster",
        "baselines.similarity_hamming", "baselines.eof_decompose",
        "baselines.lasso_fit", "model.extract_patterns", "metrics.build_report",
        "metrics.spatial_coherence", "metrics.read_metrics_csv",
        "svgplot.grouped_bar_chart", "svgplot.pattern_grid"),
}


def _spec(scale: Scale, seed: int, years: int):
    from rainpatterns import SyntheticSpec
    return SyntheticSpec(n_locations=scale.locations,
                         n_days=years * scale.days_per_year,
                         n_day_patterns=scale.patterns,
                         n_loc_groups=scale.groups, flip_noise=FLIP_NOISE,
                         seed=seed, n_years=years)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_frozen(run_dir: Path, data, truth) -> None:
    """A frozen run directory holding the planted patterns and their ML fit."""
    from rainpatterns import extract_patterns, update_params_ml
    from rainpatterns.model import patterns_to_rows

    run_dir.mkdir(parents=True)
    spatial, temporal, summary = patterns_to_rows(extract_patterns(data, truth))
    _write_csv(run_dir / "patterns_spatial.csv",
               ["cluster_id", "loc_id", "crp_value", "cdp_state"],
               ([u, s, repr(v), z] for u, s, v, z in spatial))
    _write_csv(run_dir / "patterns_temporal.csv",
               ["cluster_id", "day_index", "cts_value", "cds_state"],
               ([v, t, repr(x), z] for v, t, x, z in temporal))
    _write_csv(run_dir / "cluster_summary.csv",
               ["cluster_id", "n_days", "n_years", "aggregate_mm"],
               ([u, n, y, repr(a)] for u, n, y, a in summary))
    shape, rate, mu = update_params_ml(data, truth)
    params = {"gamma": 1.0, "lambda": 1.0, "f": 2.0, **MODEL,
              "sigma": float(data.aggregate.std()),
              "gamma_shape": shape.tolist(), "gamma_rate": rate.tolist(),
              "aggregate_mean": mu.tolist()}
    (run_dir / "params.json").write_text(json.dumps(params, indent=2) + "\n")


def prepare(name: str, seed: int, scale: Scale, work: Path) -> None:
    """Write the workload's inputs, truth and config under ``work/inputs``.

    Paths in the config and in ``command_argvs`` are relative to ``work``,
    the commands' working directory, so that the output bytes (config.json
    included) do not depend on where the checkout lives.
    """
    from rainpatterns import generate_synthetic, save_dataset

    inp = work / INPUTS
    inp.mkdir(parents=True)
    years = scale.long_years if name == "refit-long" else scale.years
    data, truth = generate_synthetic(_spec(scale, seed, years))
    save_dataset(data, inp / "locations.csv", inp / "rainfall.csv")
    np.save(inp / "truth_u.npy", truth.day_labels)
    np.save(inp / "truth_z.npy", truth.states)
    if name == "refit-long":
        # the same generator seed plants the same patterns at both lengths
        short, short_truth = generate_synthetic(_spec(scale, seed, scale.years))
        _write_frozen(inp / "frozen", short, short_truth)
        burnin, samples = scale.refit_burnin, scale.refit_samples
    else:
        burnin, samples = scale.fit_burnin, scale.fit_samples
    config = {"paths": {"locations": f"{INPUTS}/locations.csv",
                        "rainfall": f"{INPUTS}/rainfall.csv"},
              "model": MODEL,
              "sampler": {"burnin": burnin, "samples": samples, "seed": seed,
                          "schedule": "checkerboard", "init": "data"}}
    (inp / "config.json").write_text(json.dumps(config, indent=2) + "\n")


def command_argvs(name: str) -> list[tuple[str, list[str]]]:
    """(metric stem, CLI argv) for each timed command of a workload."""
    cfg = f"{INPUTS}/config.json"
    if name == "fit-paper":
        return [("fit", ["fit", "--config", cfg, "--out", f"{OUT}/fit"])]
    if name == "refit-long":
        return [("refit", ["refit", "--frozen", f"{INPUTS}/frozen",
                           "--config", cfg, "--out", f"{OUT}/refit"])]
    argvs = [(f"baseline_{m}", ["baseline", "--method", m, "--config", cfg,
                                "--out", f"{OUT}/{m}"])
             for m in BASELINE_METHODS]
    argvs.append(("compare", ["compare", *(f"{OUT}/{m}" for m in BASELINE_METHODS),
                              "--config", cfg, "--out", f"{OUT}/compare"]))
    return argvs


# ------------------------------------------------------------------ checks


class CheckError(Exception):
    """An output is missing, malformed, or below a quality floor."""


def _table(path: Path, header: list[str], rows: int | None) -> np.ndarray:
    """Parse a numeric CSV, checking its header, row count and finiteness."""
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    with open(path) as fh:
        first = fh.readline().strip().split(",")
    if first != header:
        raise CheckError(f"{path.name}: header {first} != {header}")
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if rows is not None and arr.shape[0] != rows:
        raise CheckError(f"{path.name}: {arr.shape[0]} rows, expected {rows}")
    if arr.size and not np.isfinite(arr).all():
        raise CheckError(f"{path.name}: non-finite value")
    return arr


def _json(path: Path) -> dict:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _svg(path: Path) -> None:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if not root.tag.endswith("svg"):
        raise CheckError(f"{path.name}: root element {root.tag}")


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """ARI of two labelings (Hubert and Arabie 1985), independent of the
    program's own implementation."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(x):
        return float((x * (x - 1.0) / 2.0).sum())

    index = pairs(table)
    sa, sb = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = sa * sb / pairs(np.array([float(len(a))]))
    top = (sa + sb) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


def _check_labels(run: Path, truth_u: np.ndarray, truth_z: np.ndarray,
                  quality: dict) -> None:
    """assign_u/v/z against the planted truth; fills ``quality``."""
    S, T = truth_z.shape
    u = _table(run / "assign_u.csv", ["day_index", "u_mode"], T)
    _table(run / "assign_v.csv", ["loc_id", "v_mode"], S)
    z = _table(run / "assign_z.csv", ["loc_id", "day_index", "z_mode"], S * T)
    z_mode = np.empty((S, T))
    z_mode[z[:, 0].astype(int), z[:, 1].astype(int)] = z[:, 2]
    quality["ari_u"] = adjusted_rand_index(truth_u, u[:, 1])
    quality["z_agree"] = float((z_mode == truth_z).mean())
    if quality["ari_u"] < ARI_U_FLOOR:
        raise CheckError(f"ari_u {quality['ari_u']:.4f} < {ARI_U_FLOOR}")
    if quality["z_agree"] < Z_AGREE_FLOOR:
        raise CheckError(f"z_agree {quality['z_agree']:.4f} < {Z_AGREE_FLOOR}")


def _check_patterns(run: Path, S: int) -> None:
    summary = _table(run / "cluster_summary.csv",
                     ["cluster_id", "n_days", "n_years", "aggregate_mm"], None)
    _table(run / "patterns_spatial.csv",
           ["cluster_id", "loc_id", "crp_value", "cdp_state"], len(summary) * S)
    _table(run / "patterns_temporal.csv",
           ["cluster_id", "day_index", "cts_value", "cds_state"], None)


def _check_report(run: Path) -> None:
    """metrics.csv (named rows, finite values), metrics.txt and config.json."""
    if not (run / "metrics.csv").is_file() or not (run / "metrics.txt").is_file():
        raise CheckError(f"{run.name}: metrics.csv/metrics.txt missing")
    with open(run / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["metric", "cluster_id", "value"]] or len(rows) < 2:
        raise CheckError(f"{run.name}/metrics.csv: bad header or no rows")
    for row in rows[1:]:
        try:
            finite = len(row) == 3 and math.isfinite(float(row[2]))
        except ValueError:
            finite = False
        if not finite:
            raise CheckError(f"{run.name}/metrics.csv: bad row {row}")
    _json(run / "config.json")


def check_command(stem: str, work: Path, scale: Scale, quality: dict) -> None:
    """Raise CheckError unless the command's outputs are present and correct."""
    out = work / OUT
    truth_u = np.load(work / INPUTS / "truth_u.npy")
    truth_z = np.load(work / INPUTS / "truth_z.npy")
    S, T = truth_z.shape
    if stem == "fit":
        run = out / "fit"
        _check_labels(run, truth_u, truth_z, quality)
        _check_patterns(run, S)
        params = _json(run / "params.json")
        for key in ("gamma_shape", "gamma_rate", "aggregate_mean", "sigma"):
            if key not in params:
                raise CheckError(f"params.json: no {key}")
        _table(run / "trace.csv", ["sweep", "logp"],
               scale.fit_burnin + scale.fit_samples)
        _check_report(run)
    elif stem == "refit":
        run = out / "refit"
        _check_labels(run, truth_u, truth_z, quality)
        _check_report(run)
    elif stem in ("baseline_kmeans", "baseline_spect2"):
        run = out / stem.split("_", 1)[1]
        u = _table(run / "assign_u.csv", ["day_index", "u_mode"], T)
        if u[:, 1].min() < 1:
            raise CheckError(f"{run.name}/assign_u.csv: label below 1")
        _check_patterns(run, S)
        _check_report(run)
    elif stem == "baseline_eof":
        run = out / "eof"
        _table(run / "eof_eigenvalues.csv", ["mode_id", "eigenvalue"], S)
        _table(run / "eof_vectors.csv", ["mode_id", "loc_id", "value"], S * S)
        _table(run / "eof_mean.csv", ["loc_id", "mean_mm"], S)
        _table(run / "lasso_coefs.csv", ["day_index", "mode_id", "coef"], None)
        _check_report(run)
    elif stem == "compare":
        run = out / "compare"
        with open(run / "comparison.csv", newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != ["metric", *BASELINE_METHODS]:
            raise CheckError(f"comparison.csv: header {header}")
        if not (run / "comparison.txt").is_file():
            raise CheckError("comparison.txt: missing")
        for chart in ("mean_y_per_cluster", "wet_fraction", "spells_per_year",
                      "mean_spell_length", "cdp_kmeans", "crp_kmeans",
                      "cdp_spect2", "crp_spect2"):
            _svg(run / f"{chart}.svg")
    else:
        raise ValueError(stem)
