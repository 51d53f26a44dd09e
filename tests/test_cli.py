"""Command-line pipeline: file outputs, determinism, exit codes."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import rainpatterns
from rainpatterns import SyntheticSpec, generate_synthetic, save_dataset
from rainpatterns.cli import main
from rainpatterns.data import make_dataset
from rainpatterns.metrics import adjusted_rand_index, read_metrics_csv


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
                    "schedule": "checkerboard", "init": "pattern"},
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
    def damage(path):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
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
            "02720704d0f69ea57214f7527bb2b06b0f2c8c5b19dd9e19cd3ffa1dc2d5bca7",
        "assign_v.csv":
            "73e34c8dab4be87b830e30533deacb623432335d32c595ccf24806d531a1b2fb",
        "assign_z.csv":
            "ecc606a92d2ef9e891c807c8a74ddd51445dd07c4323b5cadb3d944b36d4f1df",
    }
    REFIT = {
        "assign_u.csv":
            "cb8b04030e3b58560f9ce5910f98522941407222c59dfa297a8904ab1a3041dc",
        "assign_v.csv":
            "73e34c8dab4be87b830e30533deacb623432335d32c595ccf24806d531a1b2fb",
        "assign_z.csv":
            "99fde3cee148ec54b8e3831279b7043259c0bd32710f71418a26f921e5b911e4",
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
    }
    # the clustering baselines' labels and centers; on this record both
    # methods (and the fit) find the same partition, so the pins coincide
    KMEANS = {
        "assign_u.csv":
            "02720704d0f69ea57214f7527bb2b06b0f2c8c5b19dd9e19cd3ffa1dc2d5bca7",
        "patterns_spatial.csv":
            "508c421780667cc4bbd1d6dbb34334cf3337344c760271b407a08063aa69821a",
    }
    SPECT2 = KMEANS

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

    def test_fit_and_overflow_refit(self, synth_dir):
        tmp_path, cfg = synth_dir
        fit = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out", fit]) == 0
        assert self.digests(fit) == self.FIT

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


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["fit", "--config", cfg, "--out", tmp_path / "x"]) == 4

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
        args = [command] + (["--method", "kmeans"] * (command == "baseline"))
        # refit checks its config before it reads the frozen directory
        args += ["--frozen", tmp_path / "no-fit"] * (command == "refit")
        assert run(args + ["--config", bad, "--out", tmp_path / "x"]) == 2
        assert f"error: config: {name}: " in capsys.readouterr().err

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

    def test_overflowing_cell_is_numeric_failure(self, synth_dir):
        # one cell of 1e155 mm drives a moment-matched Gamma shape to a pole
        # of log Γ; the fit must end in exit 3, not a traceback
        tmp_path, _ = synth_dir
        rain = tmp_path / "data" / "rainfall.csv"
        lines = rain.read_text().splitlines(keepends=True)
        loc, day, year, _ = lines[1].split(",")
        lines[1] = f"{loc},{day},{year},1e155\n"
        rain.write_text("".join(lines))
        cfg = write_config(tmp_path, sampler={"burnin": 1, "samples": 1})
        res = run_fresh(self.FIT, cfg, tmp_path / "fit")
        assert res.returncode == 3, res.stderr
        assert "numeric failure: " in res.stderr
        assert "Traceback" not in res.stderr
