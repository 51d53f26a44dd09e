"""Command-line pipeline: file outputs, determinism, exit codes."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from functools import cache, partial
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rainpatterns
from rainpatterns import (LatentState, ModelParams, PatternSet,
                          SamplerConfig, SyntheticSpec, cli,
                          extract_patterns, generate_synthetic, save_dataset)
from rainpatterns.cli import (_load_params, _load_patterns, _write_params,
                              _write_patterns, main)
from rainpatterns.data import (_read_table, _write_blocks, _write_csv,
                               discretize_by_mean, make_dataset, write_state)
from rainpatterns.metrics import (MetricsReport, adjusted_rand_index,
                                  distance_report, read_metrics_csv)

from conftest import brute_force_csv, fail_the_first_refresh


def run(args):
    return main([str(a) for a in args])


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports this package, with
    ``args`` as ``sys.argv[1:]``; return the finished process."""
    src = str(Path(rainpatterns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def write_config(tmp_path, **overrides):
    cfg = {
        "paths": {"locations": str(tmp_path / "data" / "locations.csv"),
                  "rainfall": str(tmp_path / "data" / "rainfall.csv")},
        "model": {"eta": 5.0, "zeta": 2.0},
        # "schedule" is a key of an older config format: it must still load
        "sampler": {"burnin": 20, "samples": 10, "seed": 0,
                    "schedule": "checkerboard", "init": "data"},
        "baseline": {"k": 3},
        "metrics": {"min_years": 3},
        "synth": {"S": 25, "T": 96, "K": 3, "L": 4, "noise": 0.05,
                  "seed": 5, "years": 4},
    }
    for key, sub in overrides.items():
        cfg.setdefault(key, {}).update(sub)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def synth_dir(tmp_path):
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--out", tmp_path / "data"]) == 0
    return tmp_path, cfg


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    """A synthetic dataset and one fit of it, shared read-only."""
    tmp_path = tmp_path_factory.mktemp("fit_run")
    cfg = write_config(tmp_path)
    assert run(["synth", "--config", cfg, "--out", tmp_path / "data"]) == 0
    assert run(["fit", "--config", cfg, "--out", tmp_path / "fit"]) == 0
    return tmp_path, cfg


def edit_lines(edit):
    """A damage editing a file's lines; "\udcff" in them is written as a
    byte that is not UTF-8."""
    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)), errors="surrogateescape")
    return damage


def drop_key(key):
    def damage(path):
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
    return damage


def edit_json(edit):
    def damage(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return damage


def first_row(edit):
    """Damage the first data row of a CSV with ``edit(row_text)``."""
    return edit_lines(lambda lines: lines[:1] + [edit(lines[1].rstrip())
                                                 + "\n"] + lines[2:])


CSV_DAMAGES = [
    ("header-only", edit_lines(lambda lines: lines[:1])),
    ("repeated-row", edit_lines(lambda lines: lines[:2] + lines[1:])),
    ("x-in-field", first_row(lambda row: row.rsplit(",", 1)[0] + ",x")),
    ("dropped-field", first_row(lambda row: row.rsplit(",", 1)[0])),
]
PARAMS_DAMAGES = [
    ("invalid-json", lambda path: path.write_text("{\"gamma\": 1.0,")),
    ("not-an-object", lambda path: path.write_text("[]")),
    ("x-in-field", edit_json(lambda doc: doc.update(gamma="x"))),
    ("dropped-field", drop_key("sigma")),
    ("gamma-shape-row-short", edit_json(lambda doc: doc["gamma_shape"].pop())),
    ("gamma-rate-ragged", edit_json(lambda doc: doc["gamma_rate"][0].pop())),
    ("aggregate-mean-short",
     edit_json(lambda doc: doc["aggregate_mean"].pop())),
    # a JSON boolean is no number, as in a config
    ("f-true", edit_json(lambda doc: doc.update(f=True))),
    ("gamma-shape-true",
     edit_json(lambda doc: doc["gamma_shape"][0].__setitem__(0, True))),
]


def run_dir_damages():
    """(command, file, damage, exit code) for every file refit or compare
    reads from a run directory."""
    tables = ["patterns_spatial.csv", "patterns_temporal.csv",
              "cluster_summary.csv"]
    beyond_k = edit_lines(lambda lines: lines + [f"{len(lines)},1,1,1.0\n"])
    cases = [(cmd, name, label, damage, 2) for cmd in ("refit", "compare")
             for name in tables for label, damage in CSV_DAMAGES]
    cases += [(cmd, "cluster_summary.csv", "cluster-k-plus-1", beyond_k, 2)
              for cmd in ("refit", "compare")]
    cases += [("refit", "params.json", label, damage, 2)
              for label, damage in PARAMS_DAMAGES]
    cases += [("compare", "metrics.csv", label, damage, 2)
              for label, damage in CSV_DAMAGES]
    cases += [("compare", "config.json", label, damage, 2)
              for label, damage in PARAMS_DAMAGES[:2]]
    # compare reads patterns_spatial.csv and config.json only if present
    cases += [(cmd, name, "missing", lambda path: path.unlink(), 4)
              for cmd, names in (("refit", tables + ["params.json"]),
                                 ("compare", tables[1:] + ["metrics.csv"]))
              for name in names]
    return [pytest.param(cmd, name, damage, code, id=f"{cmd}-{name}-{label}")
            for cmd, name, label, damage, code in cases]


def set_field(lineno, field, value):
    """Set field ``field`` of line ``lineno`` (the header is line 1)."""
    def edit(lines):
        row = lines[lineno - 1].rstrip("\r\n").split(",")
        row[field] = value
        return lines[:lineno - 1] + [",".join(row) + "\n"] + lines[lineno:]
    return edit


def insert_line(lineno, text):
    """Insert ``text`` so that it becomes line ``lineno``."""
    return lambda lines: lines[:lineno - 1] + [text] + lines[lineno - 1:]


def copy_line(src, dst):
    """Insert a copy of line ``src`` so that it becomes line ``dst``."""
    return lambda lines: insert_line(dst, lines[src - 1])(lines)


def edits(*steps):
    """One damage applying the line edits ``steps`` in order."""
    def edit(lines):
        for step in steps:
            lines = step(lines)
        return lines
    return edit_lines(edit)


# (file, damage, line, message) of a run table; the fit's patterns_spatial.csv
# lists cluster 1's 25 locations first, patterns_temporal.csv its 96 days
RUN_TABLE_FAULTS = [
    pytest.param("patterns_spatial.csv", edits(copy_line(2, 3)), 3,
                 "repeated cluster 1, loc_id 0", id="spatial-repeated-pair"),
    pytest.param("patterns_temporal.csv", edits(copy_line(7, 9)), 9,
                 "repeated cluster 1, day_index 5", id="temporal-repeated-pair"),
    pytest.param("patterns_spatial.csv", edits(set_field(5, 3, "3")), 5,
                 "state 3 is not 1 or 2", id="spatial-state-3"),
    pytest.param("patterns_temporal.csv", edits(set_field(40, 3, "0")), 40,
                 "state 0 is not 1 or 2", id="temporal-state-0"),
    pytest.param("cluster_summary.csv", edits(copy_line(2, 4)), 4,
                 "repeated cluster 1", id="summary-repeated-cluster"),
    # two faults on one row: the pair check runs before the state check
    pytest.param("patterns_spatial.csv",
                 edits(copy_line(2, 3), set_field(3, 3, "3")), 3,
                 "repeated cluster 1, loc_id 0", id="two-faults-one-row"),
    # faults on two lines: the earlier line wins, whatever its check
    pytest.param("patterns_spatial.csv",
                 edits(set_field(4, 3, "3"), copy_line(2, 8)), 4,
                 "state 3 is not 1 or 2", id="state-then-repeated-pair"),
    pytest.param("patterns_temporal.csv",
                 edits(copy_line(2, 3), set_field(10, 3, "0")), 3,
                 "repeated cluster 1, day_index 0", id="repeated-pair-then-state"),
    pytest.param("patterns_spatial.csv",
                 edits(set_field(4, 3, "3"), set_field(9, 2, "x")), 4,
                 "state 3 is not 1 or 2", id="state-then-malformed"),
    pytest.param("cluster_summary.csv",
                 edits(copy_line(3, 4), set_field(2, 1, "x")), 2,
                 "malformed field", id="malformed-then-repeated-cluster"),
    # a blank line is not a row but still counts as a line
    pytest.param("patterns_spatial.csv",
                 edits(insert_line(3, "\n"), set_field(6, 3, "3")), 6,
                 "state 3 is not 1 or 2", id="blank-line-counts"),
    # a non-finite value crashed compare's maps or gave refit a nan metric
    pytest.param("patterns_spatial.csv", edits(set_field(6, 2, "nan")), 6,
                 "non-finite crp_value", id="spatial-nan-value"),
    pytest.param("patterns_temporal.csv", edits(set_field(12, 2, "-inf")),
                 12, "non-finite cts_value", id="temporal-inf-value"),
    pytest.param("cluster_summary.csv", edits(set_field(3, 3, "nan")), 3,
                 "non-finite aggregate_mm", id="summary-nan-aggregate"),
    # a byte that is not UTF-8 raised UnicodeDecodeError
    pytest.param("patterns_temporal.csv", edits(set_field(7, 2, "0.\udcff5")),
                 7, "malformed field", id="temporal-undecodable-value"),
    pytest.param("cluster_summary.csv", edits(set_field(1, 0, "cluster_\udcff")),
                 1, "expected header cluster_id,n_days,n_years,aggregate_mm",
                 id="summary-undecodable-header"),
]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_roundtrip_and_truth_labels(self, synth_dir):
        tmp_path, cfg = synth_dir
        data_dir = tmp_path / "data"
        for name in ["locations.csv", "rainfall.csv", "truth_u.csv",
                     "truth_v.csv", "truth_z.csv", "config.json"]:
            assert (data_dir / name).exists()
        from rainpatterns import load_dataset
        d = load_dataset(data_dir / "locations.csv",
                         data_dir / "rainfall.csv")
        assert d.n_locations == 25 and d.n_days == 96
        rows = read_rows(data_dir / "truth_u.csv")
        labels = {int(r[1]) for r in rows[1:]}
        assert labels == {1, 2, 3}

    def test_seed_repeat_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["synth", "--config", cfg, "--out", tmp_path / "a"])
        run(["synth", "--config", cfg, "--out", tmp_path / "b"])
        for name in ["locations.csv", "rainfall.csv", "truth_u.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestFit:
    def test_outputs_and_determinism(self, synth_dir):
        import time

        tmp_path, cfg = synth_dir
        t0 = time.time()
        assert run(["fit", "--config", cfg, "--out", tmp_path / "fit1"]) == 0
        assert time.time() - t0 < 60.0
        fit1 = tmp_path / "fit1"
        expected = ["assign_u.csv", "assign_v.csv", "assign_z.csv",
                    "patterns_spatial.csv", "patterns_temporal.csv",
                    "cluster_summary.csv", "trace.csv", "params.json",
                    "metrics.csv", "metrics.txt", "config.json"]
        for name in expected:
            assert (fit1 / name).exists(), name
        # one state-pattern row per cluster per location
        rows = read_rows(fit1 / "patterns_spatial.csv")
        clusters = {int(r[0]) for r in rows[1:]}
        summary = read_rows(fit1 / "cluster_summary.csv")
        assert {int(r[0]) for r in summary[1:]} == clusters
        assert len(rows) - 1 == len(clusters) * 25

        assert run(["fit", "--config", cfg, "--out", tmp_path / "fit2"]) == 0
        for name in expected:
            a = (fit1 / name).read_bytes()
            b = (tmp_path / "fit2" / name).read_bytes()
            if name == "config.json":
                continue  # embeds the output path
            assert a == b, name

    def test_recovers_planted_labels(self, synth_dir):
        tmp_path, cfg = synth_dir
        run(["fit", "--config", cfg, "--out", tmp_path / "fit"])
        got = {int(r[0]): int(r[1])
               for r in read_rows(tmp_path / "fit" / "assign_u.csv")[1:]}
        truth = {int(r[0]): int(r[1])
                 for r in read_rows(tmp_path / "data" / "truth_u.csv")[1:]}
        a = np.array([got[t] for t in sorted(got)])
        b = np.array([truth[t] for t in sorted(truth)])
        assert adjusted_rand_index(a, b) >= 0.9


class TestBaseline:
    def test_kmeans_outputs(self, synth_dir):
        tmp_path, cfg = synth_dir
        out = tmp_path / "km"
        assert run(["baseline", "--method", "kmeans", "--config", cfg,
                    "--out", out]) == 0
        labels = [int(r[1]) for r in read_rows(out / "assign_u.csv")[1:]]
        assert sorted(set(labels)) == list(range(1, max(labels) + 1))
        g, per = read_metrics_csv(out / "metrics.csv")
        assert g["n_clusters"] == 3

    def test_eof_orthonormal(self, synth_dir):
        tmp_path, cfg = synth_dir
        out = tmp_path / "eof"
        assert run(["baseline", "--method", "eof", "--config", cfg,
                    "--out", out]) == 0
        vecs = np.zeros((25, 25))
        for r in read_rows(out / "eof_vectors.csv")[1:]:
            vecs[int(r[1]), int(r[0])] = float(r[2])
        assert np.allclose(vecs.T @ vecs, np.eye(25), atol=1e-8)
        assert (out / "lasso_coefs.csv").exists()

    def test_eof_without_coefficients_writes_the_header(self, synth_dir):
        # a penalty this large zeroes every LASSO coefficient
        tmp_path, _ = synth_dir
        cfg = write_config(tmp_path, baseline={"lasso_reg": 1e12})
        out = tmp_path / "eof"
        assert run(["baseline", "--method", "eof", "--config", cfg,
                    "--out", out]) == 0
        assert (out / "lasso_coefs.csv").read_bytes() \
            == b"day_index,mode_id,coef\r\n"

    def test_spect2_recovers_clean_patterns(self, tmp_path):
        cfg = write_config(tmp_path, synth={"noise": 0.0, "seed": 8})
        run(["synth", "--config", cfg, "--out", tmp_path / "data"])
        out = tmp_path / "sp2"
        assert run(["baseline", "--method", "spect2", "--config", cfg,
                    "--out", out]) == 0
        got = {int(r[0]): int(r[1])
               for r in read_rows(out / "assign_u.csv")[1:]}
        truth = {int(r[0]): int(r[1])
                 for r in read_rows(tmp_path / "data" / "truth_u.csv")[1:]}
        a = np.array([got[t] for t in sorted(got)])
        b = np.array([truth[t] for t in sorted(truth)])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_spect1_outputs(self, synth_dir):
        """``baseline --method spect1`` runs to completion with dense
        labels and the config's k clusters."""
        tmp_path, cfg = synth_dir
        out = tmp_path / "sp1"
        assert run(["baseline", "--method", "spect1", "--config", cfg,
                    "--out", out]) == 0
        labels = [int(r[1]) for r in read_rows(out / "assign_u.csv")[1:]]
        assert sorted(set(labels)) == list(range(1, max(labels) + 1))
        g, _ = read_metrics_csv(out / "metrics.csv")
        assert g["n_clusters"] == 3

    def test_k_too_large_is_validation_error(self, synth_dir, capsys):
        tmp_path, cfg = synth_dir
        doc = json.loads(Path(cfg).read_text())
        doc["baseline"]["k"] = 2000
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["baseline", "--method", "kmeans", "--config", bad,
                    "--out", tmp_path / "x"]) == 2
        assert "error: config: baseline.k: " in capsys.readouterr().err


class TestCompare:
    def test_self_comparison_and_svg(self, synth_dir):
        tmp_path, cfg = synth_dir
        run(["fit", "--config", cfg, "--out", tmp_path / "fit"])
        run(["baseline", "--method", "kmeans", "--config", cfg,
             "--out", tmp_path / "km"])
        out = tmp_path / "cmp"
        assert run(["compare", "--config", cfg, "--out", out,
                    tmp_path / "fit", tmp_path / "km"]) == 0
        rows = read_rows(out / "comparison.csv")
        assert rows[0] == ["metric", "mrf", "kmeans"]
        metrics = {r[0]: r[1:] for r in rows[1:]}
        assert "mean_hamming" in metrics
        # comparing a run with itself repeats its values under a second
        # label, which also names its own pair of maps
        out2 = tmp_path / "cmp2"
        run(["compare", "--config", cfg, "--out", out2,
             tmp_path / "fit", tmp_path / "fit"])
        rows = read_rows(out2 / "comparison.csv")
        assert rows[0] == ["metric", "mrf", "mrf-2"]
        for r in rows[1:]:
            assert r[1] == r[2]
        maps = sorted(p.name for p in out2.glob("c[dr]p_*.svg"))
        assert maps == ["cdp_mrf-2.svg", "cdp_mrf.svg", "crp_mrf-2.svg",
                        "crp_mrf.svg"]
        svgs = list(out.glob("*.svg"))
        assert svgs
        for svg in svgs:
            root = ET.parse(svg).getroot()
            assert root.tag.endswith("svg")

    def test_eof_run_has_a_column_and_no_maps(self, fit_run, tmp_path):
        # an eof run writes no pattern tables, so it gets no pattern maps
        base, cfg = fit_run
        assert run(["baseline", "--method", "eof", "--config", cfg,
                    "--out", tmp_path / "eof"]) == 0
        out = tmp_path / "cmp"
        assert run(["compare", "--config", cfg, "--out", out,
                    base / "fit", tmp_path / "eof"]) == 0
        rows = read_rows(out / "comparison.csv")
        assert rows[0] == ["metric", "mrf", "eof"]
        fit, eof = {r[0]: r[1:] for r in rows}["variance_explained"]
        assert fit == "" and 0 < float(eof) <= 1
        assert sorted(p.name for p in out.glob("c[dr]p_*.svg")) \
            == ["cdp_mrf.svg", "crp_mrf.svg"]

    def test_run_without_config_is_named_after_its_directory(
            self, fit_run, tmp_path):
        """A run directory without a ``config.json`` labels its column and
        its maps by its own name."""
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "mine")
        (run_dir / "config.json").unlink()
        out = tmp_path / "cmp"
        assert run(["compare", "--config", cfg, "--out", out, run_dir]) == 0
        assert read_rows(out / "comparison.csv")[0] == ["metric", "mine"]
        assert sorted(p.name for p in out.glob("c[dr]p_*.svg")) \
            == ["cdp_mine.svg", "crp_mine.svg"]

    def test_mrf_beats_kmeans_on_hamming(self, synth_dir):
        tmp_path, cfg = synth_dir
        run(["fit", "--config", cfg, "--out", tmp_path / "fit"])
        run(["baseline", "--method", "kmeans", "--config", cfg,
             "--out", tmp_path / "km"])
        g_fit, _ = read_metrics_csv(tmp_path / "fit" / "metrics.csv")
        g_km, _ = read_metrics_csv(tmp_path / "km" / "metrics.csv")
        assert g_fit["mean_hamming"] < g_km["mean_hamming"]


class TestRefit:
    def test_refit_matches_fit_schema(self, synth_dir):
        tmp_path, cfg = synth_dir
        run(["fit", "--config", cfg, "--out", tmp_path / "fit"])
        out = tmp_path / "refit"
        assert run(["refit", "--frozen", tmp_path / "fit", "--config", cfg,
                    "--out", out]) == 0
        for name in ["assign_u.csv", "assign_v.csv", "assign_z.csv",
                     "metrics.csv"]:
            assert (out / name).exists()
        g, _ = read_metrics_csv(out / "metrics.csv")
        g_fit, _ = read_metrics_csv(tmp_path / "fit" / "metrics.csv")
        # refit on the training data sits close to the original fit
        assert abs(g["mean_hamming"] - g_fit["mean_hamming"]) \
            <= max(0.05 * 25, 0.05 * g_fit["mean_hamming"] + 1.0)

    def test_model_values_come_from_frozen_run(self, fit_run, tmp_path):
        base, cfg = fit_run
        doc = json.loads(Path(cfg).read_text())
        outs = []
        for model in ({}, {"sigma": 0.01, "eta": 50.0, "gamma": 100.0}):
            doc["model"] = model
            path = tmp_path / f"config{len(outs)}.json"
            path.write_text(json.dumps(doc))
            outs.append(tmp_path / f"refit{len(outs)}")
            assert run(["refit", "--frozen", base / "fit", "--config", path,
                        "--out", outs[-1]]) == 0
        frozen = json.loads((base / "fit" / "params.json").read_text())
        used = {k: frozen[k]
                for k in ("gamma", "lambda", "f", "eta", "zeta", "sigma")}
        for out in outs:
            assert json.loads((out / "config.json").read_text())["model"] \
                == used
        for name in ("assign_u.csv", "assign_v.csv", "assign_z.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_refit_whose_every_day_overflows(self, fit_run, tmp_path,
                                             capsys):
        """Frozen patterns a million mm from every day's total, at a width
        of 1e-3: every day goes to the overflow label, and the refit writes
        nan distances over 0 scored days, with exit 0 and no RuntimeWarning
        (which the test configuration turns into an error)."""
        base, cfg = fit_run
        frozen = shutil.copytree(base / "fit", tmp_path / "frozen")
        params = json.loads((frozen / "params.json").read_text())
        params["aggregate_mean"] = [m + 1e6 for m in params["aggregate_mean"]]
        params["sigma"] = 1e-3
        (frozen / "params.json").write_text(json.dumps(params))
        out = tmp_path / "refit"
        assert run(["refit", "--frozen", frozen, "--config", cfg,
                    "--out", out]) == 0
        K = len(params["aggregate_mean"])
        T = len(read_rows(base / "fit" / "assign_u.csv")) - 1
        assert capsys.readouterr().out == (
            f"refit: 0 days scored against {K} frozen patterns, {T} "
            f"overflow; outputs in {out}\n")
        u_mode = [int(r[1]) for r in read_rows(out / "assign_u.csv")[1:]]
        assert u_mode == [K + 1] * T
        g, _ = read_metrics_csv(out / "metrics.csv")
        assert all(math.isnan(g[name])
                   for name in ("mean_l2", "mean_hamming", "mean_agg"))
        assert (g["n_days_scored"], g["n_overflow_days"]) == (0.0, T)


@pytest.mark.parametrize("coords", [[(0, 0)], [(0, 0), (2, 0), (0, 2)]],
                         ids=["one location", "three apart"])
def test_records_without_neighbour_pairs_run_every_command(tmp_path, coords):
    # no location has a lattice neighbour, so the record's pair list is
    # empty: no spatial weight, no neighbour slot, no coherence term
    T = 48
    rain = np.random.default_rng(4).gamma(0.7, 4.0, (len(coords), T))
    data = make_dataset(rain, np.array(coords), np.arange(T) // 12)
    assert data.pairs[0].size == data.pairs[1].size == 0
    (tmp_path / "data").mkdir()
    save_dataset(data, tmp_path / "data" / "locations.csv",
                 tmp_path / "data" / "rainfall.csv")
    # the EOF baseline has at most one mode per location
    cfg = write_config(tmp_path, sampler={"burnin": 3, "samples": 2},
                       baseline={"k": len(coords)})
    methods = ("kmeans", "spect1", "spect2", "eof")
    for argv in (["fit", "--out", "fit"],
                 ["refit", "--frozen", tmp_path / "fit", "--out", "refit"],
                 *(["baseline", "--method", m, "--out", m] for m in methods),
                 ["compare", *(tmp_path / r for r in ("fit", *methods)),
                  "--out", "compare"]):
        argv[-1] = tmp_path / argv[-1]
        assert run([*argv, "--config", cfg]) == 0, argv


class TestFixedSeedDigests:
    """The fixed-seed assignments, pinned across versions of the code.

    C10 compares two runs of the same code, so a change that reorders the
    sampler's random draws still passes it.  These sha256 digests pin the
    draws themselves: a change that alters the draw order must update them
    and say so in CHANGES.md.
    """

    NAMES = ("assign_u.csv", "assign_v.csv", "assign_z.csv")
    FIT = {
        "assign_u.csv":
            "cf5ff37ce661ada6a415f75fcc3d62ae3d78f60584ef058f8f69ccf598320ba7",
        "assign_v.csv":
            "73e34c8dab4be87b830e30533deacb623432335d32c595ccf24806d531a1b2fb",
        "assign_z.csv":
            "28921cd88b08d8fbb18bcf9c8d381d0d7ce0f05b83242f5fb17189bc1a0351f7",
        # the report and the pattern tables built from the mode state
        "metrics.csv":
            "02fa84863abf57ba2d163c0ea37214b786117681d71fcb3167629f8003e70f99",
        "patterns_temporal.csv":
            "bc2b9509915d1ce499d41eb2d1cf618e1c2317d1544327448a7282f70582ec1b",
        "cluster_summary.csv":
            "bce659410c69824a6bcd3b913676695c49159be6a07bfb93344241c8c7c842d6",
    }
    # the refit keeps no frozen series, so no series term enters a cell
    REFIT = {
        "assign_u.csv":
            "9798ebed5517ccb4002149c1570a1cd40ccb9d0b7e59b46ed4fe31d7a0ec0a8d",
        "assign_v.csv":
            "73e34c8dab4be87b830e30533deacb623432335d32c595ccf24806d531a1b2fb",
        "assign_z.csv":
            "a8b8d7b2fc16086eb072fd9867208933a89e4ee35d0d29bc486addedc650f49e",
    }

    # the bytes of the large tables, which the column writer formats
    SYNTH = {
        "locations.csv":
            "4d88261de25cde507e27037c41f0bc1724652ea9b62c1795b76b677dd4a66074",
        "rainfall.csv":
            "e1eab11b1f46c6a52e4e9cdd34295b650d04772f5ac007db6ad5f50c854c7b56",
        "truth_z.csv":
            "4fe9f109346fea4d1c5a61f5b1cbe5611a56779c8cc0b94173736e5c4d5d1762",
    }
    EOF = {
        "eof_vectors.csv":
            "953512a33aef6eaf9451d519835083b6b652fe8e77b0e0a205deee6e16fa25bc",
        "lasso_coefs.csv":
            "55ca63ecd39f4228ecacf0e7f66097204aa68295eeb44de318506e7f695c919f",
        # mean_l2 and mean_sparsity, from the coefficients and residuals
        "metrics.csv":
            "2e19e645baf595314c898cf8d58b03f7f9cc69e42d7d77cf58a55af6cea87a48",
    }
    # the clustering baselines' labels, centers and report; on this record
    # both methods find the same partition, so the pins coincide (the fit
    # finds it too, with two of its labels swapped)
    KMEANS = {
        "assign_u.csv":
            "02720704d0f69ea57214f7527bb2b06b0f2c8c5b19dd9e19cd3ffa1dc2d5bca7",
        "patterns_spatial.csv":
            "508c421780667cc4bbd1d6dbb34334cf3337344c760271b407a08063aa69821a",
        "metrics.csv":
            "f9e27638b3d2d5685154a6882f53610fb8b428c48cff90ff778d0a3094644bdc",
    }
    SPECT2 = KMEANS
    # compare's maps and charts of the kmeans, spect2 and eof runs; the eof
    # run adds a column but no maps
    COMPARE = {
        "cdp_kmeans.svg":
            "7273e18ba27226df21df687114639c871c490453799f081aaa7264bce2e748ed",
        "cdp_spect2.svg":
            "464ba367f59034fa39a4c74fa32cf7c5dc1fe182a3de43fbdc9e5c3689f69749",
        "crp_kmeans.svg":
            "13a78fa878b4042c3c09f49a6f4585b953fd9c5b2139410fb5a28dabe6781b3d",
        "crp_spect2.svg":
            "344983b5121c3794364a11806249c361fd7702a38f165f299085d40f31d31238",
        "mean_spell_length.svg":
            "eda3faef32052561d6abcfe66ee66555e649358bc2e29c9c89abe589e15125f5",
        "mean_y_per_cluster.svg":
            "d0d0748a62b14481cd386715578ae7fbf25ea7108b774e5c5f0fdd5fa51635a1",
        "spells_per_year.svg":
            "797b449ae0b05c9f030d6ce3d40679c7912004e4839978efc568851021f8d3d4",
        "wet_fraction.svg":
            "107898bf12fb7ab8f8ee2d76b60981bf9a7a734c0e39b1e512158b2cd9b23213",
        "comparison.csv":
            "c6172b3f0bba43e1c16b1152f44dc29e66cd6ce29819002baf9413787bb9387d",
    }
    # fit-paper's own record, 357 locations × 976 days, which the small
    # record above does not reach: the planted seed-1 record, 20 + 10
    # sweeps at seed 1, η = 7 and ζ = 2
    PAPER = {
        "assign_u.csv":
            "c1a640bfe07986394feccf3e4aaefb484bb616980315024115c38d8c695b3ee8",
        "assign_v.csv":
            "6660cb999a6f04da35768a876f3f562e8b1f59237a23a24f601ece8be98d1841",
        "assign_z.csv":
            "e56bf940c73062a10b30dd779c91a950e037f226c0228ff1eabcbfe00ed71314",
    }

    # spect1's and spect2's labels on that record at k = 10, seed 1, where
    # they differ from k-means: on the small record SPECT2 equals KMEANS, so
    # it cannot show whether the spectral path moved
    SPECT1_PAPER = {
        "assign_u.csv":
            "44960c951cee521a1d411e4a759c2c517f38fbe908ca48df4f1148a80e4dcfda",
    }
    SPECT2_PAPER = {
        "assign_u.csv":
            "f3a16df78a7424dd410b2145c47c7757320553e96c3b1158cc630be0a50333fc",
    }

    def digests(self, run_dir, names=NAMES):
        return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for name in names}

    def test_synth_and_eof_baseline(self, synth_dir):
        # the EOF vectors come from LAPACK, so their last bits (and this pin)
        # can differ on another BLAS build
        tmp_path, cfg = synth_dir
        assert self.digests(tmp_path / "data", self.SYNTH) == self.SYNTH
        eof = tmp_path / "eof"
        assert run(["baseline", "--method", "eof", "--config", cfg,
                    "--out", eof]) == 0
        assert self.digests(eof, self.EOF) == self.EOF

    @pytest.mark.parametrize("method", ["kmeans", "spect2"])
    def test_clustering_baseline(self, synth_dir, method):
        tmp_path, cfg = synth_dir
        pinned = getattr(self, method.upper())
        out = tmp_path / method
        assert run(["baseline", "--method", method, "--config", cfg,
                    "--out", out]) == 0
        assert self.digests(out, pinned) == pinned

    def test_compare_of_the_baselines(self, synth_dir):
        tmp_path, cfg = synth_dir
        runs = [tmp_path / m for m in ("kmeans", "spect2", "eof")]
        for out in runs:
            assert run(["baseline", "--method", out.name, "--config", cfg,
                        "--out", out]) == 0
        out = tmp_path / "compare"
        assert run(["compare", "--config", cfg, "--out", out, *runs]) == 0
        assert sorted(p.name for p in out.glob("*.svg")) \
            == sorted(n for n in self.COMPARE if n.endswith(".svg"))
        assert self.digests(out, self.COMPARE) == self.COMPARE

    def test_fit_and_overflow_refit(self, synth_dir):
        tmp_path, cfg = synth_dir
        fit = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", fit]) == 0
        assert self.digests(fit, self.FIT) == self.FIT

        # a foreign record with a quarter of the days' rain scaled x4 and the
        # aggregate width quartered, so days spill into the overflow label
        other = tmp_path / "other"
        data, _ = generate_synthetic(SyntheticSpec(
            n_locations=25, n_days=96, n_day_patterns=3, n_loc_groups=4,
            n_years=4, flip_noise=0.05, seed=6))
        rain = data.rain.copy()
        rain[:, ::4] *= 4.0
        (other / "data").mkdir(parents=True)
        save_dataset(make_dataset(rain, data.grid_coords, data.year_of_day),
                     other / "data" / "locations.csv",
                     other / "data" / "rainfall.csv")
        frozen = shutil.copytree(fit, other / "frozen")
        params = json.loads((frozen / "params.json").read_text())
        params["sigma"] /= 4
        (frozen / "params.json").write_text(json.dumps(params))
        refit = other / "refit"
        assert run(["refit", "--frozen", frozen,
                    "--config", write_config(other), "--out", refit]) == 0
        n_patterns = len(read_rows(fit / "cluster_summary.csv")) - 1
        u_mode = [int(r[1]) for r in read_rows(refit / "assign_u.csv")[1:]]
        assert max(u_mode) == n_patterns + 1
        assert self.digests(refit) == self.REFIT

    def test_fit_at_paper_size(self, tmp_path):
        """The assignments of a fit of the fit-paper benchmark's own
        record: S = 357, T = 976, seed 1, 20 + 10 sweeps, η = 7, ζ = 2."""
        data, _ = generate_synthetic(SyntheticSpec(
            n_locations=357, n_days=976, n_day_patterns=8, n_loc_groups=10,
            n_years=8, flip_noise=0.1, seed=1))
        (tmp_path / "data").mkdir()
        save_dataset(data, tmp_path / "data" / "locations.csv",
                     tmp_path / "data" / "rainfall.csv")
        cfg = write_config(tmp_path, model={"eta": 7.0, "zeta": 2.0},
                           sampler={"burnin": 20, "samples": 10, "seed": 1,
                                    "init": "data"})
        fit = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", fit]) == 0
        assert self.digests(fit) == self.PAPER

    def test_spectral_baselines_at_paper_size(self, tmp_path):
        data, _ = generate_synthetic(SyntheticSpec(
            n_locations=357, n_days=976, n_day_patterns=8, n_loc_groups=10,
            n_years=8, flip_noise=0.1, seed=1))
        (tmp_path / "data").mkdir()
        save_dataset(data, tmp_path / "data" / "locations.csv",
                     tmp_path / "data" / "rainfall.csv")
        cfg = write_config(tmp_path, sampler={"seed": 1}, baseline={"k": 10})
        for method in ("spect1", "spect2"):
            out = tmp_path / method
            assert run(["baseline", "--method", method, "--config", cfg,
                        "--out", out]) == 0
            pinned = getattr(self, f"{method.upper()}_PAPER")
            assert self.digests(out, pinned) == pinned


# finite values at the edges of the double range, for the CSV and JSON writers
EDGES = [0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
         np.finfo(float).max]


def doubles(low=0.0):
    """Finite doubles above ``low``, the range edges among them."""
    return st.one_of(st.sampled_from([x for x in EDGES if x > low]),
                     st.floats(min_value=low, exclude_min=True,
                               allow_nan=False, allow_infinity=False))


def any_doubles():
    """Every double but nan: both zeros, both infinities, the range edges."""
    return st.one_of(st.sampled_from(EDGES).map(lambda x: -x),
                     st.sampled_from(EDGES), st.floats(allow_nan=False))


def metric_names():
    """Names that csv must quote: commas, quotes, spaces and non-ASCII."""
    return st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                   max_size=12)


@st.composite
def pattern_sets(draw):
    K, S, L, T = (draw(st.integers(1, n)) for n in (4, 6, 3, 6))
    values = partial(hnp.arrays, np.float64,
                     elements=st.one_of(st.just(0.0), doubles()))
    states = partial(hnp.arrays, np.int8, elements=st.sampled_from([1, 2]))
    counts = partial(hnp.arrays, np.int64, K,
                     elements=st.integers(0, 2 ** 63 - 1))
    return PatternSet(rain_patterns=draw(values((K, S))),
                      state_patterns=draw(states((K, S))),
                      rain_series=draw(values((L, T))),
                      state_series=draw(states((L, T))),
                      day_counts=draw(counts()), year_counts=draw(counts()),
                      pattern_volume=draw(values(K)))


def read_columns(path, header, kinds):
    """A run table through the checked CSV reader, one array per column."""
    table = _read_table(path, header, kinds, lambda t: [])
    return [table[name] for name in header]


class TestRunFileRoundTrip:
    """What a fit writes, ``refit`` and ``compare`` read back bit for bit;
    the assignment and trace tables through the checked CSV reader."""

    @given(pattern_sets())
    @settings(max_examples=60, deadline=None)
    def test_patterns_round_trip_is_bit_identical(self, patterns):
        with tempfile.TemporaryDirectory() as tmp:
            _write_patterns(Path(tmp), patterns)
            loaded = _load_patterns(Path(tmp))
        for name in PatternSet.__dataclass_fields__:
            a, b = getattr(patterns, name), getattr(loaded, name)
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), name

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_params_round_trip_is_bit_identical(self, S, K, data):
        arrays = partial(hnp.arrays, np.float64)
        params = ModelParams(
            day_concentration=data.draw(doubles(0.0)),
            loc_concentration=data.draw(doubles(0.0)),
            temporal_factor=data.draw(doubles(0.0)),
            day_align=data.draw(st.one_of(st.just(0.0), doubles())),
            loc_align=data.draw(st.one_of(st.just(0.0), doubles())),
            aggregate_sd=data.draw(st.one_of(st.just(float("inf")),
                                             doubles(0.0))),
            gamma_shape=data.draw(arrays((S, 2), elements=doubles(0.0))),
            gamma_rate=data.draw(arrays((S, 2), elements=doubles(0.0))),
            aggregate_mean=data.draw(arrays(K, elements=st.one_of(
                doubles(), doubles().map(lambda x: -x)))))
        shape = PatternSet(np.zeros((K, S)), np.ones((K, S), dtype=np.int8),
                           *[np.zeros((1, 1))] * 2, *[np.zeros(K)] * 3)
        with tempfile.TemporaryDirectory() as tmp:
            _write_params(Path(tmp), params)
            loaded = _load_params(Path(tmp) / "params.json", shape)
        for name in ModelParams.__dataclass_fields__:
            a = np.asarray(getattr(params, name))
            b = np.asarray(getattr(loaded, name))
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), name


    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_assignments_round_trip_is_bit_identical(self, S, T, data):
        labels = partial(hnp.arrays, np.int64,
                         elements=st.integers(1, 2 ** 63 - 1))
        state = LatentState(
            data.draw(hnp.arrays(np.int8, (S, T),
                                 elements=st.sampled_from([1, 2]))),
            data.draw(labels(T)), data.draw(labels(S)))
        with tempfile.TemporaryDirectory() as tmp:
            write_state(state, tmp, "assign", "mode")
            day, u = read_columns(Path(tmp) / "assign_u.csv",
                                  ["day_index", "u_mode"], [np.int64] * 2)
            loc, v = read_columns(Path(tmp) / "assign_v.csv",
                                  ["loc_id", "v_mode"], [np.int64] * 2)
            s, t, z = read_columns(Path(tmp) / "assign_z.csv",
                                   ["loc_id", "day_index", "z_mode"],
                                   [np.int64] * 3)
        assert day.tolist() == list(range(T))
        assert loc.tolist() == list(range(S))
        assert u.tobytes() == state.day_labels.tobytes()
        assert v.tobytes() == state.loc_labels.tobytes()
        assert (s.tolist(), t.tolist()) \
            == tuple(np.indices((S, T)).reshape(2, -1).tolist())
        assert z.astype(np.int8).tobytes() == state.states.tobytes()

    @given(st.lists(any_doubles(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_trace_round_trip_is_bit_identical(self, logp):
        # the columns and header cmd_fit writes
        trace = np.array(logp)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            _write_csv(path, ["sweep", "logp"], np.arange(len(trace)), trace)
            sweep, read = read_columns(path, ["sweep", "logp"],
                                       [np.int64, np.float64])
        assert sweep.tolist() == list(range(len(trace)))
        assert read.tobytes() == trace.tobytes()

    @given(st.dictionaries(metric_names(), any_doubles()),
           st.dictionaries(metric_names(),
                           st.lists(any_doubles().filter(math.isfinite),
                                    min_size=1, max_size=4)))
    # U+FFFD, the replacement character, is a name like any other
    @example({"\ufffd": -0.0}, {"a\ufffd": [1.0]})
    @settings(max_examples=60, deadline=None)
    def test_metrics_round_trip_is_bit_identical(self, global_values,
                                                 per_cluster):
        # a per-cluster value is finite: the reader rejects any other
        assume(global_values or per_cluster)
        report = MetricsReport("mrf", 4, {name: np.array(values) for
                                          name, values in per_cluster.items()},
                               global_values)
        with tempfile.TemporaryDirectory() as tmp:
            report.write_csv(Path(tmp) / "metrics.csv")
            read_global, read_per = read_metrics_csv(Path(tmp) / "metrics.csv")
        assert {name: value.hex() for name, value in read_global.items()} \
            == {name: value.hex() for name, value in global_values.items()}
        assert {name: {cid: value.hex() for cid, value in values.items()}
                for name, values in read_per.items()} \
            == {name: {cid: value.hex() for cid, value in
                       enumerate(values, start=1)}
                for name, values in per_cluster.items()}


def table_columns(n):
    """Columns of n values of every dtype the run tables hold, integers to
    the ends of their range and doubles to nan."""
    def ints(dtype):
        info = np.iinfo(dtype)
        return hnp.arrays(dtype, n, elements=st.one_of(
            st.sampled_from([info.min, info.max]),
            st.integers(info.min, info.max)))
    return st.one_of(
        *map(ints, (np.int8, np.int32, np.int64, np.uint8)),
        hnp.arrays(np.bool_, n),
        hnp.arrays(np.float64, n,
                   elements=st.one_of(any_doubles(), st.just(np.nan))))


class TestTableWriter:
    """``_write_csv`` writes the bytes of the row-by-row reference writer."""

    @staticmethod
    def written(header, *columns):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            _write_csv(path, header, *columns)
            return path.read_bytes()

    @given(st.integers(0, 50), st.integers(1, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_by_row_writer(self, n, block, data):
        columns = data.draw(st.lists(table_columns(n), min_size=1,
                                     max_size=4))
        header = [f"c{i}" for i in range(len(columns))]
        # blocks of 1-7 rows put block boundaries inside the table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("rainpatterns.data._WRITE_BLOCK", block)
            assert self.written(header, *columns) \
                == brute_force_csv(header, *columns)

    @given(st.integers(0, 50), st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocks_write_the_whole_tables_bytes(self, n, data):
        # any cut of the rows into blocks, empty ones included, writes the
        # bytes of the whole table
        columns = data.draw(st.lists(table_columns(n), min_size=1,
                                     max_size=4))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        bounds = list(zip([0, *cuts], [*cuts, n]))
        header = [f"c{i}" for i in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            _write_blocks(path, header,
                          ([c[i:j] for c in columns] for i, j in bounds))
            assert path.read_bytes() == brute_force_csv(header, *columns)

    @pytest.mark.parametrize("column", [
        np.repeat(np.array([0, 2 ** 62]), 500),
        np.r_[np.iinfo(np.int64).min, np.iinfo(np.int64).max,
              np.random.default_rng(0).integers(-2 ** 63, 2 ** 63, 998)]])
    def test_wide_integer_range_writes_in_bounded_memory(self, column):
        # a table of every decimal in the column's range would not fit
        tracemalloc.start()
        try:
            got = self.written(["x"], column)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == brute_force_csv(["x"], column)
        assert peak < 1 << 20

    @staticmethod
    @cache
    def double_families():
        """Columns of doubles that random draws seldom reach, by family."""
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        rng = np.random.default_rng(28)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        bits = bits.view(np.float64)
        top = np.finfo(np.float64).max
        return {
            "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
            "powers of ten and their neighbours": np.concatenate(
                [tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
            "specials": np.array([
                0.0, -0.0, np.inf, -np.inf, np.nan, top, -top, 5e-324,
                -5e-324, 1e-310, np.nextafter(2.0 ** -1022, 0), 2.0 ** -1022]),
            "random bit patterns": bits[np.isfinite(bits)],
            "short decimals": np.concatenate(
                [rng.integers(-10 ** 6, 10 ** 6, 20_000) / 10.0 ** d
                 for d in range(8)]),
            "float32": (rng.standard_normal(20_000)
                        * 10.0 ** rng.integers(-30, 30, 20_000)
                        ).astype(np.float32),
            "float16": rng.standard_normal(20_000).astype(np.float16),
        }

    @pytest.mark.parametrize("family", [
        "powers of two", "powers of ten and their neighbours", "specials",
        "random bit patterns", "short decimals", "float32", "float16"])
    def test_doubles_match_repr_on_edge_families(self, family):
        """The shortest-decimal encoder against ``repr`` on the families
        random draws seldom reach: every power of two from 2⁻¹⁰⁷⁴ to 2¹⁰²³,
        each 10ᵏ for k = −323..308 with both of its float neighbours, ±0,
        ±inf, nan, the largest double and some subnormals, 2×10⁵ seeded
        random finite bit patterns, short decimals n/10ᵈ, and a float32 and
        a float16 column."""
        column = self.double_families()[family]
        assert self.written(["x"], column) == brute_force_csv(["x"], column)

    def test_doubles_write_in_bounded_memory(self, tmp_path):
        # the shortest-decimal encoder's temporaries are bounded by its
        # block, so a longer column peaks no higher
        def peak(n):
            column = np.random.default_rng(0).standard_normal(n)
            tracemalloc.start()
            try:
                _write_csv(tmp_path / "table.csv", ["x"], column)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, short, long = peak(1 << 16), peak(1 << 17), peak(1 << 20)
        # a block's text is freed before the next block is encoded
        assert short < one * 1.05
        assert long < short * 1.05
        # with the repr of each value, both writes peaked at 10.2 MB
        assert long < 10e6


class TestPaperSizePeaks:
    """The fit's calls after sampling each peak below 5 MB of traced memory
    at paper size, so that its heap peak is set by sampling, not writing."""

    @pytest.fixture(scope="class")
    def paper(self):
        data, truth = generate_synthetic(SyntheticSpec(
            n_locations=357, n_days=976, n_day_patterns=8, n_loc_groups=10,
            n_years=8, seed=1))
        return data, truth, extract_patterns(data, truth)

    @pytest.mark.parametrize("call", ["write_state", "distance_report"])
    def test_peak_stays_below_5_mb(self, paper, call, tmp_path):
        data, truth, patterns = paper
        run_call = {
            "write_state": partial(write_state, truth, tmp_path, "assign",
                                   "mode"),
            "distance_report": partial(distance_report, data.rain,
                                       truth.states, truth.day_labels,
                                       patterns)}[call]
        tracemalloc.start()
        try:
            run_call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # int64 index planes and (T, S) copies peaked at 8.2 and 8.4 MB
        assert peak < 5e6

    def test_spect2_chain_peak_stays_below_12_mb(self, paper):
        """spect2's chain as the CLI runs it, k = 10: the embedding comes
        from the (T, S+1) factor of the Hamming similarity, so no T×T array
        is built.

        With the T×T similarity and its Laplacian, the traced peak was
        23.9 MB (one 976 × 976 float64 array is 7.6 MB).  From the factor it
        is 8.0 MB, the 0.35 MB of the states the CLI holds included.
        """
        cfg = cli.load_config(None, 1, None)
        tracemalloc.start()
        try:
            cli._baseline_clustering(cfg, paper[0], "spect2",
                                     discretize_by_mean(paper[0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_spect1_chain_peak_stays_below_17_mb(self, paper):
        """spect1's chain at the default tau, k = 10: the similarity runs
        in place in its one T×T array of distances, and the Laplacian is
        built in that same array.

        With the distances, their scaled negative, the exponential and the
        symmetrised sum each a new array, the similarity set the chain's
        peak at 26.7 MB; in place, with the whole-matrix symmetry check,
        23.9 MB.  The row-block check, the median's triangle freed before
        the similarity's symmetrising copy and the similarity freed before
        the Laplacian's brought it to 15.3 MB: two T×T arrays, never three.
        With the Laplacian built in W's array, no checks of W, no
        symmetrising of W (it is exactly symmetric) and the median's
        triangle sorted in place, the peak is 15.3 MB still, plus the 0.35
        MB of the states the CLI holds, and L's symmetrising copy sets it.
        """
        cfg = cli.load_config(None, 1, None)
        tracemalloc.start()
        try:
            cli._baseline_clustering(cfg, paper[0], "spect1",
                                     discretize_by_mean(paper[0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 17e6


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["fit", "--config", cfg, "--out", tmp_path / "x"]) == 4

    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a synth.S far beyond memory ended in numpy's _ArrayMemoryError
        # traceback with exit 1
        def too_big(spec):
            raise MemoryError("Unable to allocate 8.94 GiB")

        monkeypatch.setattr(cli, "generate_synthetic", too_big)
        cfg = write_config(tmp_path, synth={"S": 100000000})
        assert run(["synth", "--config", cfg, "--out", tmp_path / "x"]) == 4
        assert capsys.readouterr().err == (
            "error: out of memory in synth: Unable to allocate 8.94 GiB\n")

    def test_numeric_failure_in_a_sweep_is_one_line(self, synth_dir, capsys,
                                                    monkeypatch):
        """With ``update_params_ml`` made to raise a ``NumericError`` in
        the first sweep's refresh, ``fit``, run in process, exits 3 with the
        one line ``numeric failure: sweep 0: ...``."""
        tmp_path, cfg = synth_dir
        fail_the_first_refresh(monkeypatch)
        assert run(["fit", "--config", cfg, "--out", tmp_path / "fit"]) == 3
        assert capsys.readouterr().err == ("numeric failure: sweep 0: "
                                           "location 0 gives non-finite "
                                           "Gamma parameters\n")

    def test_bad_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["synth", "--config", bad, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("command,section,key,value", [
        ("fit", "model", "", 5),
        ("fit", "model", "gamma", "x"),
        ("fit", "sampler", "burnin", "many"),
        ("fit", "paths", "rainfall", None),
        ("synth", "synth", "S", [64]),
        ("synth", "synth", "", None),
        ("baseline", "baseline", "k", "ten"),
        ("baseline", "metrics", "min_years", {}),
        ("baseline", "sampler", "seed", 1e400),
        # numpy's generators reject a negative seed with a traceback
        ("synth", "synth", "seed", -1),
        ("fit", "sampler", "seed", -1),
        ("refit", "sampler", "seed", -1),
        ("baseline", "sampler", "seed", -1),
        # non-finite model values crashed the label draws or overflowed
        ("fit", "model", "eta", float("nan")),
        ("fit", "model", "zeta", float("nan")),
        ("fit", "model", "gamma", float("inf")),
        ("fit", "model", "f", float("inf")),
        ("fit", "model", "lambda", float("-inf")),
        ("fit", "model", "sigma", float("nan")),
        # spect1 ran with a meaningless similarity or failed its symmetry
        # check; eof wrote NaN coefficients; every cluster was prominent
        ("spect1", "baseline", "tau", -1.0),
        ("spect1", "baseline", "tau", 0.0),
        ("spect1", "baseline", "tau", float("nan")),
        ("spect1", "baseline", "tau", float("inf")),
        ("eof", "baseline", "lasso_reg", float("nan")),
        ("eof", "baseline", "lasso_reg", float("inf")),
        ("eof", "baseline", "lasso_reg", -1.0),
        ("baseline", "metrics", "min_years", -3),
        ("fit", "metrics", "min_years", 0),
        # the engine rejected these without naming the key, and refit
        # read its frozen directory first
        ("fit", "sampler", "samples", 0),
        ("fit", "sampler", "burnin", -1),
        ("fit", "sampler", "init", "best"),
        ("refit", "sampler", "samples", 0),
        ("refit", "sampler", "burnin", -1),
        ("refit", "sampler", "init", "best"),
        # init "pattern" was removed: an old config that still names it
        # fails cleanly rather than falling back to another start
        ("fit", "sampler", "init", "pattern"),
        ("refit", "sampler", "init", "pattern"),
        # synth values that ended in numpy's traceback, planted a one-year
        # record or dry cells of 0 mm, or gave an error naming no key
        ("synth", "synth", "noise", 0.7),
        ("synth", "synth", "years", 0),
        ("synth", "synth", "years", -3),
        ("synth", "synth", "L", 26),
        ("synth", "synth", "T", 11),
        ("synth", "synth", "wet_shape", float("inf")),
        ("synth", "synth", "dry_rate", float("inf")),
        # an int key truncated a fraction and a number key took a boolean
        ("fit", "sampler", "burnin", 1.9),
        ("fit", "sampler", "samples", True),
        ("fit", "sampler", "seed", 2.7),
        ("baseline", "baseline", "k", 2.9),
        ("fit", "metrics", "min_years", True),
        ("fit", "model", "eta", True),
    ])
    def test_bad_config_value_names_it(self, synth_dir, capsys, command,
                                       section, key, value):
        # key "" replaces the whole section
        name = f"{section}.{key}" if key else section
        tmp_path, cfg = synth_dir
        doc = json.loads(Path(cfg).read_text())
        if key:
            doc[section][key] = value
        else:
            doc[section] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        # "baseline" runs kmeans; "spect1" and "eof" name their method
        method = {"baseline": "kmeans"}.get(command, command)
        args = (["baseline", "--method", method]
                if command in ("baseline", "spect1", "eof") else [command])
        # refit checks its config before it reads the frozen directory
        args += ["--frozen", tmp_path / "no-fit"] * (command == "refit")
        out = tmp_path / "x"
        assert run(args + ["--config", bad, "--out", out]) == 2
        assert f"error: config: {name}: " in capsys.readouterr().err
        # the config is checked before the fit or clustering writes a file
        assert not (out.exists() and any(out.iterdir()))

    def test_an_integral_float_is_an_int(self, tmp_path):
        # 3.0 still counts 3: the record is that of the int config
        for name, value in [("int", 3), ("float", 3.0)]:
            cfg = write_config(tmp_path, synth={"K": value, "L": value})
            assert run(["synth", "--config", cfg,
                        "--out", tmp_path / name]) == 0
        assert ((tmp_path / "int" / "rainfall.csv").read_bytes()
                == (tmp_path / "float" / "rainfall.csv").read_bytes())

    @pytest.mark.parametrize("key,edit", [
        pytest.param("eta", lambda doc: doc.update(eta=float("nan")),
                     id="eta-nan"),
        pytest.param("gamma_shape", lambda doc: doc["gamma_shape"][3]
                     .__setitem__(1, float("nan")), id="gamma_shape-nan"),
        pytest.param("aggregate_mean", lambda doc: doc["aggregate_mean"]
                     .__setitem__(0, float("inf")), id="aggregate_mean-inf"),
    ])
    def test_nonfinite_frozen_value_names_it(self, fit_run, tmp_path, capsys,
                                            key, edit):
        base, cfg = fit_run
        frozen = shutil.copytree(base / "fit", tmp_path / "frozen")
        doc = json.loads((frozen / "params.json").read_text())
        edit(doc)
        (frozen / "params.json").write_text(json.dumps(doc))
        assert run(["refit", "--frozen", frozen, "--config", cfg,
                    "--out", tmp_path / "out"]) == 2
        assert f"params.json: {key}: must be " in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 26])
    def test_eof_k_outside_the_modes_names_it(self, synth_dir, capsys, k):
        # 25 locations give 25 modes; k = 0 scored NaN coherence and k = 26
        # reported 26 patterns
        tmp_path, _ = synth_dir
        cfg = write_config(tmp_path, baseline={"k": k})
        assert run(["baseline", "--method", "eof", "--config", cfg,
                    "--out", tmp_path / "eof"]) == 2
        assert "error: config: baseline.k: " in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["kmeans", "spect2"])
    @pytest.mark.parametrize("k", [0, -2, 97])
    def test_clustering_k_outside_the_days_names_it(self, synth_dir, capsys,
                                                    method, k):
        # the record has 96 days
        tmp_path, _ = synth_dir
        cfg = write_config(tmp_path, baseline={"k": k})
        out = tmp_path / method
        assert run(["baseline", "--method", method, "--config", cfg,
                    "--out", out]) == 2
        assert "error: config: baseline.k: " in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command,name,damage", [
        pytest.param("refit", "patterns_spatial.csv",
                     edit_lines(lambda lines: lines[:1]), id="header-only"),
        pytest.param("refit", "patterns_spatial.csv",
                     edit_lines(lambda lines: lines[:-10]),
                     id="cut-inside-cluster"),
        pytest.param("refit", "patterns_spatial.csv",
                     edit_lines(lambda lines: lines[:1] + ["1,0\n"]
                                + lines[2:]), id="two-field-row"),
        pytest.param("refit", "params.json", drop_key("lambda"),
                     id="no-lambda"),
        pytest.param("compare", "patterns_spatial.csv",
                     edit_lines(lambda lines: lines[:1]),
                     id="compare-header-only"),
    ])
    def test_damaged_run_directory_is_validation_error(
            self, fit_run, tmp_path, capsys, command, name, damage):
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        damage(run_dir / name)
        args = (["refit", "--frozen", run_dir] if command == "refit"
                else ["compare", run_dir])
        assert run(args + ["--config", cfg, "--out", tmp_path / "out"]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command,name,damage,code", run_dir_damages())
    def test_every_damaged_run_file_exits_with_a_message(
            self, fit_run, tmp_path, capsys, command, name, damage, code):
        """Each table, ``params.json`` and ``config.json`` that ``refit``
        or ``compare`` reads, damaged one way at a time (among them a JSON
        boolean for ``f`` and within ``gamma_shape``), exits 2, or 4 when
        missing, naming the file and with no traceback."""
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        damage(run_dir / name)
        args = (["refit", "--frozen", run_dir] if command == "refit"
                else ["compare", run_dir])
        # an uncaught exception would propagate out of main
        assert run(args + ["--config", cfg, "--out", tmp_path / "out"]) \
            == code
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    # the files a fit writes; the fuzz below damages each in two ways
    FIT_FILES = ["assign_u.csv", "assign_v.csv", "assign_z.csv",
                 "cluster_summary.csv", "config.json", "metrics.csv",
                 "metrics.txt", "params.json", "patterns_spatial.csv",
                 "patterns_temporal.csv", "trace.csv"]
    GARBLES = ["", "x", "nan", "-inf", "1e999", "-1", "0", "3", "1.5",
               "99999999999999999999", '"', "{", "[]", "null", "\u00e9"]

    FUZZ_KINDS = ["truncate", "garble", "byte"]

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    @pytest.mark.parametrize("name", FIT_FILES)
    def test_fuzzed_run_file_exits_with_a_message(
            self, fit_run, tmp_path, capsys, name, kind, seed):
        # seeded per case: cut the file at a random character, set one
        # comma-separated field of a random line to a random token, or put
        # a byte that is not UTF-8 at a random place in such a field; refit
        # and compare then succeed, or exit 2, 3 or 4 with a message (40
        # seeds per case ran clean when this test was written)
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        assert sorted(p.name for p in run_dir.iterdir()) == self.FIT_FILES
        rng = np.random.default_rng([self.FIT_FILES.index(name),
                                     self.FUZZ_KINDS.index(kind), seed])
        path = run_dir / name
        text = path.read_text()
        if kind == "truncate":
            text = text[:rng.integers(len(text))]
        else:
            lines = text.splitlines(keepends=True)
            i = rng.integers(len(lines))
            row = lines[i].rstrip("\n")
            fields = row.split(",")
            j = rng.integers(len(fields))
            if kind == "garble":
                fields[j] = str(rng.choice(self.GARBLES))
            else:  # "\udcff" is written as the byte 0xff
                k = rng.integers(len(fields[j]) + 1)
                fields[j] = fields[j][:k] + "\udcff" + fields[j][k:]
            lines[i] = ",".join(fields) + lines[i][len(row):]
            text = "".join(lines)
        path.write_text(text, errors="surrogateescape")
        for args in (["refit", "--frozen", run_dir], ["compare", run_dir]):
            # an uncaught exception would propagate out of main
            code = run(args + ["--config", cfg, "--out", tmp_path / args[0]])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), err
            assert (code == 0 and err == "") or (code != 0 and err.startswith(
                ("error: ", "numeric failure: ", "i/o error: "))), err

    def test_compare_metrics_without_global_rows(self, fit_run, tmp_path):
        # every row carries a cluster_id: the tables are their headers
        # alone, and the run's maps are still drawn
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        (run_dir / "metrics.csv").write_text(
            "metric,cluster_id,value\nn_days,1,3.0\n")
        out = tmp_path / "out"
        assert run(["compare", run_dir, "--config", cfg, "--out", out]) == 0
        assert read_rows(out / "comparison.csv") == [["metric", "mrf"]]
        assert (out / "comparison.txt").read_text() \
            == "metric  " + "mrf".rjust(18) + "\n"
        assert sorted(p.name for p in out.glob("*.svg")) \
            == ["cdp_mrf.svg", "crp_mrf.svg"]

    @pytest.mark.parametrize("text,fault", [
        ("", ": empty file"),
        ("metric,cluster,value\nn_clusters,,3.0\n",
         ":1: expected header metric,cluster_id,value")])
    def test_compare_metrics_without_its_header_names_the_file(
            self, fit_run, tmp_path, capsys, text, fault):
        """An empty ``metrics.csv``, or one with a wrong header, makes
        ``compare`` exit 2 naming the file (and line 1)."""
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        (run_dir / "metrics.csv").write_text(text)
        assert run(["compare", run_dir, "--config", cfg,
                    "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err \
            == f"error: {run_dir / 'metrics.csv'}{fault}\n"

    # line None is the last line, a per-cluster row with a cluster_id
    @pytest.mark.parametrize("line,field,fault", [
        (1, 0, "expected header metric,cluster_id,value"),
        (2, 0, "malformed field"), (2, 2, "malformed field"),
        (None, 1, "malformed field")])
    def test_compare_metrics_with_an_undecodable_byte_names_its_line(
            self, fit_run, tmp_path, capsys, line, field, fault):
        # a byte that is not UTF-8 (written for "\udcff") raised
        # UnicodeDecodeError
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        path = run_dir / "metrics.csv"
        line = line or len(path.read_text().splitlines())
        edits(set_field(line, field, "1\udcff"))(path)
        assert run(["compare", run_dir, "--config", cfg,
                    "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {fault}\n"

    @staticmethod
    def _set_metric(run_dir, prefix, value):
        """Set the value of the metrics.csv row starting ``prefix``; returns
        the file and the row's line number."""
        path = run_dir / "metrics.csv"
        line = next(i for i, text in enumerate(path.read_text().splitlines(),
                                               1) if text.startswith(prefix))
        edits(set_field(line, 2, value))(path)
        return path, line

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_compare_rejects_a_non_finite_cluster_value(
            self, fit_run, tmp_path, capsys, value):
        # a nan mean_y was drawn as a bar of height="nan", with exit 0
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        path, line = self._set_metric(run_dir, "mean_y,1,", value)
        out = tmp_path / "out"
        assert run(["compare", run_dir, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err \
            == f"error: {path}:{line}: non-finite value\n"
        assert not any(out.iterdir())

    def test_compare_keeps_a_nan_global_value(self, fit_run, tmp_path):
        # a refit whose every day overflows writes a nan mean_l2
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        self._set_metric(run_dir, "mean_l2,,", "nan")
        out = tmp_path / "out"
        assert run(["compare", run_dir, "--config", cfg, "--out", out]) == 0
        assert ["mean_l2", "nan"] in read_rows(out / "comparison.csv")

    @pytest.mark.parametrize("command", ["refit", "compare"])
    @pytest.mark.parametrize("name,damage,line,message", RUN_TABLE_FAULTS)
    def test_damaged_run_table_names_its_first_faulty_line(
            self, fit_run, tmp_path, capsys, command, name, damage, line,
            message):
        """The exact ``file:line: message`` of damaged pattern and summary
        tables, from ``refit`` and from ``compare``."""
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        damage(run_dir / name)
        args = (["refit", "--frozen", run_dir] if command == "refit"
                else ["compare", run_dir])
        assert run(args + ["--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err \
            == f"error: {run_dir / name}:{line}: {message}\n"

    @pytest.mark.parametrize("method", ["a/b", "/abs", "", ".", ".."])
    def test_compare_label_that_is_no_file_name_names_it(
            self, fit_run, tmp_path, capsys, method):
        # "a/b" wrote the tables and charts and then failed on cdp_a/b.svg
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        edit_json(lambda doc: doc.update(method=method))(
            run_dir / "config.json")
        out = tmp_path / "out"
        assert run(["compare", run_dir, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'config.json'}: method {method!r} is not a "
            f"plain file name\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("damage", [
        pytest.param(edit_lines(lambda lines: lines[:1] + ["0,1\n"]
                                + lines[2:]), id="two-field-row"),
        pytest.param(edit_lines(lambda lines: []), id="empty"),
        pytest.param(edit_lines(lambda lines: lines[:4]),
                     id="fewer-locations-than-the-patterns"),
    ])
    def test_compare_damaged_locations_is_validation_error(
            self, fit_run, tmp_path, capsys, damage):
        base, _ = fit_run
        data = shutil.copytree(base / "data", tmp_path / "data")
        damage(data / "locations.csv")
        cfg = write_config(tmp_path)
        assert run(["compare", base / "fit", "--config", cfg,
                    "--out", tmp_path / "out"]) == 2
        assert "locations.csv" in capsys.readouterr().err


class TestConfigSections:
    """The library dataclasses are the config's sections, and the parser
    dispatches to the commands."""

    def test_defaults_are_the_dataclasses(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        cfg = cli.load_config(path, None, None)
        assert cli._section(cfg, "sampler") == SamplerConfig()
        assert cli._section(cfg, "synth") == SyntheticSpec()
        # sigma is null, so the model keeps its default scalars
        assert cli._section(cfg, "model") == ModelParams()
        assert run(["synth", "--config", path, "--out", tmp_path / "x"]) == 0
        doc = json.loads((tmp_path / "x" / "config.json").read_text())
        assert set(doc["synth"]) == set(cli.SECTIONS["synth"][1])
        expected = {name: {k: getattr(cls(), f) for k, f in keys.items()}
                    for name, (cls, keys) in cli.SECTIONS.items()}
        expected["model"]["sigma"] = None  # the sd of the daily totals
        assert {name: doc[name] for name in expected} == expected

    @pytest.mark.parametrize("argv,name,args", [
        (["synth"], "cmd_synth", ()),
        (["fit"], "cmd_fit", ()),
        (["baseline", "--method", "eof"], "cmd_baseline", ("eof",)),
        (["compare", "a", "b"], "cmd_compare", (["a", "b"],)),
        (["refit", "--frozen", "f"], "cmd_refit", ("f",)),
    ], ids=["synth", "fit", "baseline", "compare", "refit"])
    def test_main_calls_a_command_replaced_after_import(
            self, monkeypatch, argv, name, args):
        # perfbench's span recorder replaces the cli.cmd_* functions after
        # import, and its timelines are cut at their spans
        calls = []

        def wrapper(cfg, *rest):
            calls.append((cfg["sampler"]["seed"], rest))
            return 7

        monkeypatch.setattr(cli, name, wrapper)
        assert main(argv + ["--seed", "3"]) == 7
        assert calls == [(3, args)]


class TestFreshProcess:
    """CLI runs in a new interpreter: what it imports, and failures whose
    RuntimeWarnings pytest would otherwise turn into errors."""

    FIT = """
import sys
from rainpatterns.cli import main
sys.exit(main(["fit", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""

    def test_pipeline_imports_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, sampler={"burnin": 1, "samples": 1})
        code = """
import sys
from rainpatterns.cli import main
cfg, out = sys.argv[1:]
assert main(["synth", "--config", cfg, "--out", out + "/data"]) == 0
assert main(["fit", "--config", cfg, "--out", out + "/fit"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        res = run_fresh(code, cfg, tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"

    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        # numpy 2.4 imports numpy.ma, about 14 ms, on a plain np.unique
        cfg = write_config(tmp_path, sampler={"burnin": 1, "samples": 1})
        code = """
import sys
import numpy
print("numpy.ma" in sys.modules)
from rainpatterns.cli import main
cfg, out = sys.argv[1:]
for argv in (["synth", "--out", out + "/data"], ["fit", "--out", out + "/fit"],
             *(["baseline", "--method", m, "--out", f"{out}/{m}"]
               for m in ("kmeans", "spect1", "spect2", "eof")),
             ["compare", *(f"{out}/{r}" for r in ("fit", "kmeans", "eof")),
              "--out", out + "/compare"]):
    assert main(argv + ["--config", cfg]) == 0, argv
print("numpy.ma" in sys.modules)
"""
        res = run_fresh(code, cfg, tmp_path)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        if lines[0] == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert lines[-1] == "False"

    # 1e155 mm overflows its location's sum of squares, 1e154 the Gamma
    # shape of its state, and 1e153 that state's Gamma term
    @pytest.mark.parametrize("mm", ["1e153", "1e154", "1e155"])
    def test_overflowing_cell_is_numeric_failure(self, synth_dir, mm):
        # the fit must end in exit 3 naming the cell, with no traceback and
        # no floating-point warning
        tmp_path, _ = synth_dir
        rain = tmp_path / "data" / "rainfall.csv"
        lines = rain.read_text().splitlines(keepends=True)
        row = 1 + 96 * 7 + 41
        loc, day, year, _ = lines[row].split(",")
        lines[row] = f"{loc},{day},{year},{mm}\n"
        rain.write_text("".join(lines))
        cfg = write_config(tmp_path, sampler={"burnin": 1, "samples": 1})
        res = run_fresh(self.FIT, cfg, tmp_path / "fit")
        assert res.returncode == 3, res.stderr
        assert f"numeric failure: location {loc}, day {day}: " in res.stderr
        assert "Traceback" not in res.stderr
        assert "RuntimeWarning" not in res.stderr

    # 1e155 mm overflowed every baseline, each with a RuntimeWarning (spect1
    # then blamed an asymmetric similarity, exit 2), and 1e154 the squared
    # distances of kmeans and spect1.  No sum of squares that a baseline or
    # its report takes exceeds (S + T)·Σx², so that one bound stops them
    # all, and 1e153 keeps within it
    @pytest.mark.parametrize("mm", ["1e153", "1e154", "1e155"])
    def test_overflowing_cell_stops_every_baseline(self, tmp_path, mm):
        cfg = write_config(tmp_path, synth={"S": 36, "T": 96, "K": 3, "L": 5,
                                            "years": 2, "seed": 1})
        assert run(["synth", "--config", cfg, "--out", tmp_path / "data"]) == 0
        rain = tmp_path / "data" / "rainfall.csv"
        lines = rain.read_text().splitlines(keepends=True)
        assert lines[1].startswith("0,0,0,")
        lines[1] = f"0,0,0,{mm}\n"
        rain.write_text("".join(lines))
        code = """
import sys
from rainpatterns.cli import main
cfg, out = sys.argv[1:]
print([main(["baseline", "--method", m, "--config", cfg, "--out", out + m])
       for m in ("kmeans", "spect1", "spect2", "eof")])
"""
        res = run_fresh(code, cfg, tmp_path / "run-")
        want = 0 if mm == "1e153" else 3
        assert res.stdout.splitlines()[-1] == str([want] * 4), res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.count("numeric failure: location 0, day 0: "
                                f"rainfall {float(mm):g} mm") == 4 * (want == 3)


def test_every_perfbench_entry_point_exists():
    # the perfbench span recorder skips an entry point it cannot find, so a
    # renamed function or engine method would drop its phase silently
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, fn_name, _, _ in spans.FUNCTIONS:
        module = importlib.import_module(f"rainpatterns.{mod_name}")
        assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)
    for method, _, _ in spans.METHODS:
        assert callable(getattr(rainpatterns.inference._GibbsEngine, method,
                                None)), method
    # workloads.py builds the refit-long run directory from these rows
    assert callable(getattr(rainpatterns.model, "patterns_to_rows", None))
