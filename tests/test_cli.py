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
from rainpatterns.errors import ValidationError
from rainpatterns.metrics import (adjusted_rand_index, distance_report,
                                  read_metrics_csv, write_report)
from rainpatterns.model import pattern_columns

from conftest import brute_force_csv, fail_the_first_sweep


def run(args):
    return main([str(a) for a in args])


def run_fresh(code, *args, timeout=300, cwd=None):
    """Run ``code`` in a new interpreter that imports this package, with
    ``args`` as ``sys.argv[1:]``, in the directory ``cwd`` (default: this
    one); return the finished process, or raise
    ``subprocess.TimeoutExpired`` after ``timeout`` seconds."""
    src = str(Path(rainpatterns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout,
                          cwd=cwd)


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
    # a JSON boolean is no number, as in a config
    ("f-true", edit_json(lambda doc: doc.update(f=True))),
    ("gamma-shape-true",
     edit_json(lambda doc: doc["gamma_shape"][0].__setitem__(0, True))),
]


def set_row(prefix, text):
    """A damage setting the line that starts with ``prefix`` to ``text``."""
    return edit_lines(lambda lines: [text + "\n" if line.startswith(prefix)
                                     else line for line in lines])


def drop_rows(prefix):
    """A damage dropping the lines that start with ``prefix``."""
    return edit_lines(lambda lines: [line for line in lines
                                     if not line.startswith(prefix)])


def run_dir_damages():
    """(command, file, damage, exit code) for every file refit or compare
    reads from a run directory."""
    # two of cluster 1's cells at 1e308: its map's sum, its volume, overflows
    overflow = edits(set_field(2, 2, "1e308"), set_field(3, 2, "1e308"))
    cases = [(cmd, "patterns_spatial.csv", label, damage, 2)
             for cmd in ("refit", "compare")
             for label, damage in CSV_DAMAGES + [("sum-overflows", overflow)]]
    cases += [("refit", "params.json", label, damage, 2)
              for label, damage in PARAMS_DAMAGES]
    # the fit finds 3 clusters, so each per-cluster metric lists 1, 2 and 3
    cases += [("compare", "metrics.csv", label, damage, 2)
              for label, damage in CSV_DAMAGES + [
                  (f"cluster-{cid}", set_row("mean_y,2,", f"mean_y,{cid},1.0"))
                  for cid in (7, 0, -3)] + [
                  ("unequal-k", drop_rows("wet_fraction,3,"))]]
    cases += [("compare", "config.json", label, damage, 2)
              for label, damage in PARAMS_DAMAGES[:2]]
    # compare reads patterns_spatial.csv and config.json only if present
    cases += [(cmd, name, "missing", lambda path: path.unlink(), 4)
              for cmd, names in (("refit", ["patterns_spatial.csv",
                                            "params.json"]),
                                 ("compare", ["metrics.csv"]))
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
# lists cluster 1's 25 locations first
RUN_TABLE_FAULTS = [
    pytest.param("patterns_spatial.csv", edits(copy_line(2, 3)), 3,
                 "repeated cluster 1, loc_id 0", id="spatial-repeated-pair"),
    pytest.param("patterns_spatial.csv", edits(set_field(5, 3, "3")), 5,
                 "state 3 is not 1 or 2", id="spatial-state-3"),
    # two faults on one row: the pair check runs before the state check
    pytest.param("patterns_spatial.csv",
                 edits(copy_line(2, 3), set_field(3, 3, "3")), 3,
                 "repeated cluster 1, loc_id 0", id="two-faults-one-row"),
    # faults on two lines: the earlier line wins, whatever its check
    pytest.param("patterns_spatial.csv",
                 edits(set_field(4, 3, "3"), copy_line(2, 8)), 4,
                 "state 3 is not 1 or 2", id="state-then-repeated-pair"),
    pytest.param("patterns_spatial.csv",
                 edits(set_field(4, 3, "3"), set_field(9, 2, "x")), 4,
                 "state 3 is not 1 or 2", id="state-then-malformed"),
    # a blank line is not a row but still counts as a line
    pytest.param("patterns_spatial.csv",
                 edits(insert_line(3, "\n"), set_field(6, 3, "3")), 6,
                 "state 3 is not 1 or 2", id="blank-line-counts"),
    # a non-finite value crashed compare's maps or gave refit a nan metric
    pytest.param("patterns_spatial.csv", edits(set_field(6, 2, "nan")), 6,
                 "non-finite crp_value", id="spatial-nan-value"),
]


def unread_table_damages():
    """(command, file, damage) of the series and summary tables, which
    ``refit`` and ``compare`` do not read: the CSV damages, a cluster past
    K, line faults of the kinds above, and a missing file; and of
    ``params.json``'s ``aggregate_mean``, which ``refit`` takes from the
    rain maps: short, non-finite, a million mm off, or missing."""
    tables = ["patterns_temporal.csv", "cluster_summary.csv"]
    beyond_k = edit_lines(lambda lines: lines + [f"{len(lines)},1,1,1.0\n"])
    # the fit's patterns_temporal.csv lists cluster 1's 96 days first
    cases = [(name, label, damage) for name in tables
             for label, damage in CSV_DAMAGES]
    cases += [("cluster_summary.csv", "cluster-k-plus-1", beyond_k)]
    cases += [(name, "missing", lambda path: path.unlink())
              for name in tables]
    cases += [
        ("patterns_temporal.csv", "temporal-repeated-pair",
         edits(copy_line(7, 9))),
        ("patterns_temporal.csv", "temporal-state-0",
         edits(set_field(40, 3, "0"))),
        ("cluster_summary.csv", "summary-repeated-cluster",
         edits(copy_line(2, 4))),
        ("patterns_temporal.csv", "repeated-pair-then-state",
         edits(copy_line(2, 3), set_field(10, 3, "0"))),
        ("cluster_summary.csv", "malformed-then-repeated-cluster",
         edits(copy_line(3, 4), set_field(2, 1, "x"))),
        ("patterns_temporal.csv", "temporal-inf-value",
         edits(set_field(12, 2, "-inf"))),
        ("cluster_summary.csv", "summary-nan-aggregate",
         edits(set_field(3, 3, "nan"))),
        ("patterns_temporal.csv", "temporal-undecodable-value",
         edits(set_field(7, 2, "0.\udcff5"))),
        ("cluster_summary.csv", "summary-undecodable-header",
         edits(set_field(1, 0, "cluster_\udcff"))),
    ]
    means = [
        ("aggregate-mean-short",
         edit_json(lambda doc: doc["aggregate_mean"].pop())),
        ("aggregate-mean-inf", edit_json(
            lambda doc: doc["aggregate_mean"].__setitem__(0, float("inf")))),
        ("aggregate-mean-plus-1e6", edit_json(lambda doc: doc.update(
            aggregate_mean=[m + 1e6 for m in doc["aggregate_mean"]]))),
        ("aggregate-mean-missing", drop_key("aggregate_mean")),
    ]
    return [pytest.param(cmd, name, damage, id=f"{cmd}-{name}-{label}")
            for cmd in ("refit", "compare") for name, label, damage in cases
            ] + [pytest.param("refit", "params.json", damage,
                              id=f"refit-params.json-{label}")
                 for label, damage in means]


UNREAD_TABLE_DAMAGES = unread_table_damages()


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

    def test_aggregate_means_are_the_summarys_text(self, fit_run):
        # params.json's aggregate_mean and cluster_summary.csv's
        # aggregate_mm, which no command reads back, are each rain map's
        # sum, which a refit takes for its aggregate term and its aggregate
        # distance: one quantity, so the same text
        base, _ = fit_run
        params = json.loads((base / "fit" / "params.json").read_text())
        summary = read_rows(base / "fit" / "cluster_summary.csv")
        column = summary[0].index("aggregate_mm")
        assert [repr(v) for v in params["aggregate_mean"]] \
            == [row[column] for row in summary[1:]]

    def test_readme_library_snippet_runs(self, tmp_path, monkeypatch,
                                         capsys):
        # README's Library section, as written, on a 64 x 200 synth saved
        # under the file names it loads
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
        snippet = snippet.split("```", 1)[0]
        data, _ = generate_synthetic(SyntheticSpec(
            n_locations=64, n_days=200, n_day_patterns=4, n_loc_groups=6,
            n_years=4, seed=1))
        save_dataset(data, tmp_path / "locations.csv",
                     tmp_path / "rainfall.csv")
        monkeypatch.chdir(tmp_path)
        exec(compile(snippet, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("method: mrf\n")


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

    def test_rain_patterns_are_extract_patterns(self, seed1_record):
        # a baseline's rain patterns and volumes are a fit's of the same
        # labels, bit for bit; only its state patterns are its own
        data, truth = seed1_record
        states = discretize_by_mean(data)
        want = extract_patterns(data, LatentState(
            states, truth.day_labels, np.ones(data.n_locations, dtype=int)))
        got = cli.baseline_patterns(data, states, truth.day_labels)
        assert got.rain_patterns.tobytes() == want.rain_patterns.tobytes()
        assert got.pattern_volume.tobytes() == want.pattern_volume.tobytes()


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

    @pytest.mark.parametrize("method,ok", [
        ("x" * 247, True), ("x" * 248, False), ("\u00e9" * 124, False)],
        ids=["247-bytes", "248-bytes", "124-two-byte-chars"])
    def test_a_label_must_leave_its_map_names_within_255_bytes(
            self, fit_run, tmp_path, capsys, method, ok):
        # a 3000-character label wrote the table and the charts, and then
        # exited 4 on cdp_<label>.svg: "File name too long"
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        edit_json(lambda doc: doc.update(method=method))(
            run_dir / "config.json")
        out = tmp_path / "cmp"
        code = run(["compare", "--config", cfg, "--out", out, run_dir])
        if ok:
            assert code == 0
            assert (out / f"cdp_{method}.svg").exists()
        else:
            assert code == 2 and not out.exists()
            assert "is too long" in capsys.readouterr().err

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
        params["sigma"] = 1e-3
        (frozen / "params.json").write_text(json.dumps(params))
        # each map's volume is its sum: 1e6 / S more in each of its S cells
        header, *rows = read_rows(frozen / "patterns_spatial.csv")
        S = len({row[1] for row in rows})
        with open(frozen / "patterns_spatial.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([header] + [
                [u, s, repr(float(v) + 1e6 / S), z] for u, s, v, z in rows])
        out = tmp_path / "refit"
        assert run(["refit", "--frozen", frozen, "--config", cfg,
                    "--out", out]) == 0
        K = len(rows) // S
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


def read_back_outputs(command, run_dir, cfg, out):
    """What ``refit`` or ``compare`` of ``run_dir`` writes, by file name;
    ``config.json``, which records the paths, as None."""
    args = (["refit", "--frozen", run_dir] if command == "refit"
            else ["compare", run_dir])
    assert run(args + ["--config", cfg, "--out", out]) == 0
    return {p.name: None if p.name == "config.json" else p.read_bytes()
            for p in out.iterdir()}


@pytest.mark.parametrize("command", ["refit", "compare"])
def test_run_read_back_is_its_day_maps(fit_run, tmp_path, command):
    """``refit`` and ``compare`` read a run's day maps and take each volume
    as its rain map's sum: without the series and summary tables they write
    the same bytes."""
    base, cfg = fit_run
    maps_only = shutil.copytree(base / "fit", tmp_path / "maps_only")
    for name in ("patterns_temporal.csv", "cluster_summary.csv"):
        (maps_only / name).unlink()
    assert read_back_outputs(command, base / "fit", cfg, tmp_path / "full") \
        == read_back_outputs(command, maps_only, cfg, tmp_path / "maps_out")


@pytest.mark.parametrize("command,name,damage", UNREAD_TABLE_DAMAGES)
def test_unread_table_damage_changes_nothing(fit_run, tmp_path, command,
                                             name, damage):
    """A damaged or missing series or summary table, or a damaged or
    missing ``aggregate_mean`` in ``params.json``, leaves ``refit`` and
    ``compare`` at exit 0 with the bytes of the undamaged run."""
    base, cfg = fit_run
    run_dir = shutil.copytree(base / "fit", tmp_path / "run")
    damage(run_dir / name)
    assert read_back_outputs(command, base / "fit", cfg, tmp_path / "clean") \
        == read_back_outputs(command, run_dir, cfg, tmp_path / "damaged")


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
            "3676099b2105af08ed165f4d68a6dedf2a510d8933e49eac8be87160197b1356",
        # the report and the pattern tables built from the mode state
        "metrics.csv":
            "b26fd2e4ea5a52e84ddec9845ea46e8e22f0c473d806c3b0b4d288cb98cc3823",
        "metrics.txt":
            "d38207fe7e0e65c55f29bfe347ecb4cef0c69bcaa170d5cb6bc89e3135d39425",
        "patterns_temporal.csv":
            "bc2b9509915d1ce499d41eb2d1cf618e1c2317d1544327448a7282f70582ec1b",
        "cluster_summary.csv":
            "ebf90021f621c1cfb8fb44902cf57bb4774c78e15ec41dcb76ddfa923c08a3d8",
    }
    # the refit keeps no frozen series, so no series term enters a cell
    REFIT = {
        "assign_u.csv":
            "4008f17469ffdcaf39d6c5c8690ff814cb9072f765d9aa33eb2f38fcf2eb83f1",
        "assign_v.csv":
            "73e34c8dab4be87b830e30533deacb623432335d32c595ccf24806d531a1b2fb",
        "assign_z.csv":
            "ee2c51986a991cd362b7a28ca94bcb04711607d4d4a131ef3985077f74c14f55",
        # the report of the refit's mode against the frozen patterns
        "metrics.csv":
            "f9e15db3f32369bf7a80421a5cf6fdf01b2997f8137ef8541c74ed83b5319187",
        "metrics.txt":
            "63643641855c7c14b74ac6cf9887fc9f6e2dc6be620d1b5cef9e9c51e1f7dc95",
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
        "eof_eigenvalues.csv":
            "d6311beffeeb2c6247311831dea16572bc85a57fda03409f66e1c8cdb4d86562",
        "eof_mean.csv":
            "2a2bae450e9fa3f244b2a474573922a3f85df4bcf1e9e6955a7a8134a1183d37",
        "lasso_coefs.csv":
            "55ca63ecd39f4228ecacf0e7f66097204aa68295eeb44de318506e7f695c919f",
        # mean_l2 and mean_sparsity, from the coefficients and residuals
        "metrics.csv":
            "2e19e645baf595314c898cf8d58b03f7f9cc69e42d7d77cf58a55af6cea87a48",
        "metrics.txt":
            "641ce502eb09886222c9e125cd4ddc5079bdf5854787c488c9ce25c12182eeb7",
    }
    # the clustering baselines' labels, centers and report; on this record
    # both methods find the same partition, so the pins coincide but for
    # metrics.txt, which opens with the method's name (the fit finds the
    # partition too, with two of its labels swapped)
    KMEANS = {
        "assign_u.csv":
            "02720704d0f69ea57214f7527bb2b06b0f2c8c5b19dd9e19cd3ffa1dc2d5bca7",
        "patterns_spatial.csv":
            "508c421780667cc4bbd1d6dbb34334cf3337344c760271b407a08063aa69821a",
        "metrics.csv":
            "4970958c2e7056237780d4caa8ae981d274b4b10c58fc4697f45a6ada74f182f",
        "metrics.txt":
            "04dc4baf2adc08c050a177749003c07b60d778807bb1cfb5594814af17721aae",
    }
    SPECT2 = {
        **KMEANS,
        "metrics.txt":
            "245d17517aa7c0e82c3b0f795d9863e75d505f6c1fa137be6c716c60c22bb33b",
    }
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
            "c621975b557d938a3ba25ad0dee8323bbda4a244ede9f1236f705abdb8c45a31",
        "comparison.txt":
            "8673db4aa9579775d1af33cafdd23d1bec5cf1b3aeb3b7fa75421dbf1b17b345",
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
            "fc787d005359115d845033e8f2cdec7eccb6e3b2d385e6d052c22ccee0fe1568",
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
        assert self.digests(refit, self.REFIT) == self.REFIT

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
                      day_counts=draw(counts()), year_counts=draw(counts()))


def read_columns(path, header, kinds):
    """A run table through the checked CSV reader, one array per column."""
    table = _read_table(path, header, kinds, lambda t: [])
    return [table[name] for name in header]


class TestRunFileRoundTrip:
    """What a fit writes, ``refit`` and ``compare`` read back bit for bit;
    the tables they do not read through the checked CSV reader."""

    @given(pattern_sets())
    @settings(max_examples=60, deadline=None)
    def test_patterns_round_trip_is_bit_identical(self, patterns):
        # the day maps through the loader, each volume its rain map's sum
        # (maps whose sum overflows are rejected, as the next test shows);
        # the series and the summary, which no command reads, as the writer
        # wrote them
        with np.errstate(over="ignore"):
            volume = patterns.rain_patterns.sum(axis=1)
        assume(np.isfinite(volume).all())
        tables = [("patterns_temporal.csv", cli.PATTERNS_TEMPORAL_HEADER,
                   [np.int64, np.int64, float, np.int8]),
                  ("cluster_summary.csv", cli.CLUSTER_SUMMARY_HEADER,
                   [np.int64] * 3 + [float])]
        with tempfile.TemporaryDirectory() as tmp:
            _write_patterns(Path(tmp), patterns)
            loaded = _load_patterns(Path(tmp))
            read = [column for name, header, kinds in tables
                    for column in read_columns(Path(tmp) / name, header,
                                               kinds)]
            want = [patterns.rain_patterns, patterns.state_patterns, volume,
                    *(c for cols in pattern_columns(patterns)[1:]
                      for c in cols)]
            got = [loaded.rain_patterns, loaded.state_patterns,
                   loaded.pattern_volume, *read]
        names = ["rain_patterns", "state_patterns", "pattern_volume",
                 *(f for _, header, _ in tables for f in header)]
        for name, a, b in zip(names, want, got, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), name

    @given(pattern_sets(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_map_whose_sum_overflows_is_rejected(self, patterns, data):
        # two cells at the largest double: the map has no finite volume, so
        # the loader names the first such cluster and its file
        crp = patterns.rain_patterns
        assume(crp.shape[1] >= 2)
        crp[data.draw(st.integers(0, len(crp) - 1)), :2] = np.finfo(float).max
        with np.errstate(over="ignore"):
            first = np.flatnonzero(~np.isfinite(crp.sum(axis=1)))[0] + 1
        with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
            _write_patterns(Path(tmp), patterns)
            with pytest.raises(ValidationError,
                               match=f"patterns_spatial.csv: cluster "
                                     f"{first}'s crp_value sum is not finite"):
                _load_patterns(Path(tmp))

    def test_aggregate_mm_is_each_rain_maps_sum(self, seed1_record, tmp_path):
        # a run read back takes each volume as its rain map's sum, in place
        # of the aggregate_mm the fit wrote: one number, bit for bit
        data, truth = seed1_record
        _write_patterns(tmp_path, extract_patterns(data, truth))
        *_, written = read_columns(tmp_path / "cluster_summary.csv",
                                   cli.CLUSTER_SUMMARY_HEADER,
                                   [np.int64] * 3 + [float])
        volume = _load_patterns(tmp_path).pattern_volume
        assert written.tobytes() == volume.tobytes()

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
                           *[np.zeros((1, 1))] * 2, *[np.zeros(K)] * 2)
        with tempfile.TemporaryDirectory() as tmp:
            _write_params(Path(tmp), params)
            loaded = _load_params(Path(tmp) / "params.json", shape)
        # a refit takes its aggregate means from the rain maps
        assert loaded.aggregate_mean is None
        for name in ModelParams.__dataclass_fields__.keys() - {
                "aggregate_mean"}:
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

    # every per-cluster metric lists the same K clusters: the reader
    # rejects any other
    @given(st.dictionaries(metric_names(), any_doubles()),
           st.integers(1, 4).flatmap(lambda K: st.dictionaries(
               metric_names(), st.lists(any_doubles().filter(math.isfinite),
                                        min_size=K, max_size=K))))
    # U+FFFD, the replacement character, is a name like any other
    @example({"\ufffd": -0.0}, {"a\ufffd": [1.0]})
    @settings(max_examples=60, deadline=None)
    def test_metrics_round_trip_is_bit_identical(self, global_values,
                                                 per_cluster):
        # a per-cluster value is finite: the reader rejects any other
        assume(global_values or per_cluster)
        with tempfile.TemporaryDirectory() as tmp:
            write_report(Path(tmp), "mrf", global_values,
                         {name: np.array(values)
                          for name, values in per_cluster.items()})
            read_global, read_per = read_metrics_csv(Path(tmp) / "metrics.csv")
        assert {name: value.hex() for name, value in read_global.items()} \
            == {name: value.hex() for name, value in global_values.items()}
        assert {name: [value.hex() for value in values.tolist()]
                for name, values in read_per.items()} \
            == {name: [value.hex() for value in values]
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

    def test_unplantable_synth_is_one_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth={"S": 4, "T": 8, "K": 2, "L": 1,
                                            "years": 1})
        assert run(["synth", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == (
            "error: could not plant well-separated patterns; increase "
            "n_loc_groups\n")

    def test_numeric_failure_in_a_sweep_is_one_line(self, synth_dir, capsys,
                                                    monkeypatch):
        """With ``joint_log_density`` made to raise a ``NumericError`` in
        the first sweep, ``fit``, run in process, exits 3 with the one line
        ``numeric failure: sweep 0: ...``."""
        tmp_path, cfg = synth_dir
        fail_the_first_sweep(monkeypatch)
        assert run(["fit", "--config", cfg, "--out", tmp_path / "fit"]) == 3
        assert capsys.readouterr().err == ("numeric failure: sweep 0: "
                                           "joint log-density is not "
                                           "finite\n")

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
        assert not out.exists()

    def test_compare_rejects_metrics_of_unequal_cluster_counts(
            self, fit_run, tmp_path, capsys):
        # wet_fraction cut to 2 of the fit's 3 clusters was charted as 2
        # bars beside the other metrics' 3, with exit 0
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        path = run_dir / "metrics.csv"
        drop_rows("wet_fraction,3,")(path)
        out = tmp_path / "out"
        assert run(["compare", run_dir, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (f"error: {path}: wet_fraction "
                                           "lists 2 clusters, "
                                           "mean_spell_length 3\n")
        assert not out.exists()

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
        """The exact ``file:line: message`` of a damaged pattern table,
        from ``refit`` and from ``compare``."""
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        damage(run_dir / name)
        args = (["refit", "--frozen", run_dir] if command == "refit"
                else ["compare", run_dir])
        assert run(args + ["--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err \
            == f"error: {run_dir / name}:{line}: {message}\n"

    @pytest.mark.parametrize("method", ["a/b", "/abs", "", ".", "..",
                                        "a\0b"])
    def test_compare_label_that_is_no_file_name_names_it(
            self, fit_run, tmp_path, capsys, method):
        # "a/b" wrote the tables and charts and then failed on cdp_a/b.svg;
        # "a\0b" did the same and ended in a ValueError traceback
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        edit_json(lambda doc: doc.update(method=method))(
            run_dir / "config.json")
        out = tmp_path / "out"
        assert run(["compare", run_dir, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'config.json'}: method {method!r} is not a "
            f"plain file name\n")
        assert not out.exists()

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
        out = tmp_path / "out"
        assert run(["compare", base / "fit", "--config", cfg,
                    "--out", out]) == 2
        assert "locations.csv" in capsys.readouterr().err
        assert not out.exists()


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

    def test_readme_config_block_is_the_defaults(self):
        # README's Config file block, which it calls the defaults
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1]
        doc = json.loads(block.split("```", 1)[0])
        assert sorted(doc) == sorted(cli.DEFAULT_CONFIG)
        for name, section in cli.DEFAULT_CONFIG.items():
            assert doc[name] == section, name

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

    REFIT = """
import sys
from rainpatterns.cli import main
frozen, cfg, out = sys.argv[1:]
sys.exit(main(["refit", "--frozen", frozen, "--config", cfg, "--out", out]))
"""

    # a crp_value of 1e200 overflows its cluster's aggregate term; with
    # sigma Infinity, which turns that term off, its days' squared distances
    # from the map; and sigma 1e-300 every aggregate term.  Each refit ran
    # to exit 0 after numpy's overflow warning
    @pytest.mark.parametrize("crp,sigma,fault", [
        ("1e200", None, "sweep 0: cluster 1, day 0: the aggregate term"),
        ("1e200", math.inf,
         "cluster 1, day 0: the squared distance from its rain pattern"),
        (None, 1e-300, "sweep 0: cluster 1, day 0: the aggregate term")],
        ids=["crp-1e200", "crp-1e200-sigma-inf", "sigma-1e-300"])
    def test_refit_overflow_is_numeric_failure(self, fit_run, tmp_path, crp,
                                               sigma, fault):
        base, cfg = fit_run
        frozen = shutil.copytree(base / "fit", tmp_path / "frozen")
        if crp:
            edits(set_field(2, 2, crp))(frozen / "patterns_spatial.csv")
        if sigma:
            edit_json(lambda doc: doc.update(sigma=sigma))(
                frozen / "params.json")
        res = run_fresh(self.REFIT, frozen, cfg, tmp_path / "refit")
        assert (res.returncode, res.stderr) \
            == (3, f"numeric failure: {fault} is not finite\n")

    def test_fit_with_a_burnin_of_1e300_stops_at_once(self, synth_dir):
        # 1e300 is an integral float, so it passed as an int and the fit
        # never ended; a fresh process bounds the wait
        tmp_path, _ = synth_dir
        cfg = write_config(tmp_path, sampler={"burnin": 1e300})
        res = run_fresh(self.FIT, cfg, tmp_path / "fit", timeout=10)
        assert res.returncode == 2
        [line] = res.stderr.splitlines()
        assert line.startswith("error: config: sampler.burnin: must be "
                               "below 2^31, got 1000000")

    CLI = """
import sys
from rainpatterns.cli import main
sys.exit(main(sys.argv[1:]))
"""

    # each error echoed the value whole: 357 to 6038 characters on one line
    @pytest.mark.parametrize("command,section,key,value", [
        ("fit", "sampler", "burnin", 1e300),
        ("fit", "sampler", "init", "x" * 3000),
        ("fit", "model", "eta", [0] * 2000),
        ("fit", "metrics", "min_years", -10 ** 400),
        ("kmeans", "baseline", "k", 1e300),
        ("eof", "baseline", "k", 1e300)], ids=[
            "burnin-1e300", "init-3000-chars", "eta-2000-items",
            "min_years-400-digits", "kmeans-k-1e300", "eof-k-1e300"])
    def test_an_echoed_value_is_cut_short(self, synth_dir, command, section,
                                          key, value):
        tmp_path, _ = synth_dir
        cfg = write_config(tmp_path, **{section: {key: value}})
        args = (["fit"] if command == "fit"
                else ["baseline", "--method", command])
        res = run_fresh(self.CLI, *args, "--config", cfg,
                        "--out", tmp_path / "out", timeout=60)
        assert res.returncode == 2
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: config: {section}.{key}: ")
        assert len(line) <= 120 and "..." in line

    def test_a_compare_label_is_cut_short(self, fit_run, tmp_path):
        # the label error echoed all 3002 characters of the method; the
        # run is named relative to the process's directory, so the line's
        # length does not hang on the temporary directory's
        base, cfg = fit_run
        run_dir = shutil.copytree(base / "fit", tmp_path / "run")
        edit_json(lambda doc: doc.update(method="a/" + "x" * 3000))(
            run_dir / "config.json")
        res = run_fresh(self.CLI, "compare", "--config", cfg,
                        "--out", "cmp", "run", timeout=60, cwd=tmp_path)
        assert res.returncode == 2
        [line] = res.stderr.splitlines()
        assert line.startswith("error: run/config.json: method 'a/xxx")
        assert line.endswith("is not a plain file name")
        assert len(line) <= 120 and "..." in line

    def test_an_io_error_cuts_a_long_file_name_short(self, tmp_path):
        # the OSError was printed whole, its 3000-character path with it
        cfg = write_config(tmp_path)
        res = run_fresh(self.CLI, "synth", "--config", cfg,
                        "--out", tmp_path / ("x" * 3000), timeout=60)
        assert res.returncode == 4
        [line] = res.stderr.splitlines()
        assert line.startswith("i/o error: File name too long: ")
        assert len(line) <= 120 and "..." in line

    @pytest.mark.parametrize("key", ["S", "T"])
    def test_a_synth_count_of_1e300_is_rejected(self, tmp_path, key):
        # it passed every rule, and numpy's planting raised a ValueError
        cfg = write_config(tmp_path, synth={key: 1e300})
        res = run_fresh(self.CLI, "synth", "--config", cfg,
                        "--out", tmp_path / "data", timeout=60)
        assert res.returncode == 2
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: config: synth.{key}: must be below "
                               "2^31, got 1000")
        assert "Traceback" not in res.stderr

    def test_fit_whose_aggregate_term_overflows(self, synth_dir):
        # it exited 3 only after five RuntimeWarnings: the label tables',
        # the merge's and the joint density's
        tmp_path, _ = synth_dir
        cfg = write_config(tmp_path, model={"sigma": 1e-300})
        res = run_fresh(self.FIT, cfg, tmp_path / "fit")
        assert (res.returncode, res.stderr) == (
            3, "numeric failure: sweep 0: cluster 1, day 0: the aggregate "
            "term is not finite\n")

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
