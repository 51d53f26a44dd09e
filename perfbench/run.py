#!/usr/bin/env python3
"""Benchmark of the rainpatterns CLI, end to end and per module.

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # refit-long too

Run from anywhere inside a checkout; it measures the code under ``src/``.
The load is a closed loop with one client: one CLI command at a time, each
in a fresh child interpreter with BLAS pinned to one thread.  Inputs are
made from ``--seed`` in an untimed child; see DESIGN.md for the workloads
and for which per-layer metric should move which end-to-end metric.

``--trace 0`` runs ``--seconds / ROUND_S`` rounds of the workload's commands
(at least MIN_ROUNDS) and times set-up in three children between them.
Times are scaled to a reference CPU speed by a probe that runs on a timer in
each child (``spans.Probe``), and a command's time is the best of its
repeats phase by phase: the repeats pass the same span boundaries, and each
phase between them counts at its fastest.  DESIGN.md says why: the vCPUs of
the shared host change speed every second or so.  ``--trace 1``
runs two untraced and two traced rounds, alternating, reports the per-layer
metrics, and fails unless every expected span fired and the counts repeat
exactly.  Metric names, units and directions come from BENCHMARK.json.  Every
round's outputs are checked.  The last line of standard output is one JSON
object; everything above it is for people.  Working files go to
``.perfbench_work/`` in the checkout and are removed after a correct run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# set-up children per timed run, one before each command round and the rest
# after the last, so that set-up samples are spread over the run
SETUP_CHILDREN = 3
# nominal length of one round of a workload's commands at paper scale; a
# timed run makes round(seconds / ROUND_S) rounds, at least MIN_ROUNDS, so
# every run at the same --seconds takes the best of the same number of repeats
ROUND_S = 10.0
MIN_ROUNDS = 3
# shortest phase of a command's timeline (see ``phases``)
MIN_PHASE_S = 0.05
# interval of the CPU speed probe's timer (see ``spans.Probe``), the number
# of probes in the running median that gives the speed, and the probe's
# duration at the reference speed: a time divided by the probe's duration
# around it and multiplied by REF_PROBE_S reads as seconds on a CPU that runs
# the probe in REF_PROBE_S (on a 2-vCPU Xeon VM the warm probe takes
# 0.24 ms at its fastest and 0.36 ms at its median)
PROBE_EVERY_S = 0.025
PROBE_SMOOTH = 5
REF_PROBE_S = 0.0003
# a run must end within 180 s; children are killed when this budget is spent
RUN_BUDGET_S = 170

# BENCHMARK.json names the reported metrics with their units and directions
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
# name -> (unit, better) of every end-to-end metric the table prints; those
# outside BENCHMARK.json exist on one workload only, or are gates
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
END_TO_END.update({
    "fit_s": ("s", "lower"),
    "refit_s": ("s", "lower"),
    "baseline_kmeans_s": ("s", "lower"),
    "baseline_spect2_s": ("s", "lower"),
    "baseline_eof_s": ("s", "lower"),
    "compare_s": ("s", "lower"),
    "ari_u": ("ratio", "higher"),
    "z_agree": ("ratio", "higher"),
    "ops_failed": ("ratio", "lower"),
})
# per-layer metrics measured against an untraced round, not from the spans
OVERHEAD = ("trace_overhead_s", "trace_wrapper_s")
# per-layer counts that must repeat exactly between two traced rounds
COUNTS = [n for n, (unit, _) in PER_LAYER.items() if unit == "count"] + [
    "inference.z_flip_frac", "inference.merge_accept_ratio"]


# ------------------------------------------------------------ environment


def environment() -> dict:
    """Machine, interpreter, library and BLAS facts recorded with a result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " +
                deps.get(k, {}).get("version", "") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    from importlib import metadata
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "numpy_blas": blas,
        "blas_env_set": BLAS_ENV,
        # checked without importing it; the harness never imports it
        "threadpoolctl": ("present" if importlib.util.find_spec("threadpoolctl")
                          else "absent"),
        "load": "closed loop, 1 client, 1 command at a time, fresh process each",
        "timing": (f"reference seconds (probe every {PROBE_EVERY_S} s, "
                   f"reference probe {REF_PROBE_S} s), best of the repeats "
                   f"phase by phase (phases of at least {MIN_PHASE_S} s)"),
    }


# --------------------------------------------------------------- children


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(work: Path, tag: str, job: dict, deadline: float) -> dict | None:
    """Run one child job with ``work`` as its directory; None on failure."""
    timeout = max(1.0, deadline - time.monotonic())
    job_file = work / f"{tag}.job.json"
    result = work / f"{tag}.result.json"
    job_file.write_text(json.dumps({**job, "result": str(result)}))
    with open(work / f"{tag}.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_file)],
                cwd=work, env=_child_env(), stdout=log,
                stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            log.write(f"\nkilled after {timeout:.0f} s\n")
            return None
    if proc.returncode != 0 or not result.is_file():
        return None
    return json.loads(result.read_text())


def _tail(values: list[float]) -> tuple[str, float | None]:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (n={n})", None
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f}", sorted(values)[k]


def _output_stats(out: Path) -> tuple[str, int]:
    """sha256 over every output file (relative path and bytes), and the bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
        total += len(data)
    return digest.hexdigest()[:16], total


class Run:
    """Rounds of one workload's commands, with their checks."""

    def __init__(self, name: str, seed: int, small: bool, tag: str):
        self.name = name
        self.scale = workloads.SMALL if small else workloads.PAPER
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = WORK / f"{name}-{seed}-{tag}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: dict[str, float] = {}
        self.digest = None
        if _child(self.work, "prep", {"mode": "prep", "workload": name,
                                      "seed": seed, "small": small,
                                      "work": str(self.work)},
                  self.deadline) is None:
            raise RuntimeError(f"input preparation failed; see {self.work}/prep.log")

    def setup(self, i: int) -> float | None:
        res = _child(self.work, f"setup{i}", {
            "mode": "setup", "locations": f"{workloads.INPUTS}/locations.csv",
            "rainfall": f"{workloads.INPUTS}/rainfall.csv",
            "probe_every_s": PROBE_EVERY_S}, self.deadline)
        if res is None:
            return None
        # the second piece is the probe's own start, not set-up
        return float(np.delete(scaled_pieces(res["cuts"], res["probes"]), 1).sum())

    def round(self, i: int, trace: bool) -> dict:
        """Run every command once; returns walls, rss, spans and output stats."""
        out = self.work / workloads.OUT
        shutil.rmtree(out, ignore_errors=True)
        walls, rss, spans, wrapper, cmds = {}, 0.0, [], 0.0, {}
        for stem, argv in workloads.command_argvs(self.name):
            self.attempted += 1
            res = _child(self.work, f"r{i}-{stem}",
                         {"mode": "cmd", "argv": argv, "trace": trace,
                          "probe_every_s": PROBE_EVERY_S},
                         self.deadline)
            try:
                if res is None or res["rc"] != 0:
                    raise workloads.CheckError(
                        f"exit {None if res is None else res['rc']}")
                workloads.check_command(stem, self.work, self.scale, self.quality)
            except workloads.CheckError as exc:
                self.failed += 1
                self.errors.append(f"round {i} {stem}: {exc}")
            if res is not None:
                cmds[stem] = res
                walls[stem] = res["wall_s"]
                rss = max(rss, res["peak_rss_mb"])
                spans.append(res.get("spans", []))
                wrapper += res.get("wrapper_s", 0.0)
        digest, nbytes = _output_stats(out)
        self.digest = self.digest or digest
        shutil.rmtree(out, ignore_errors=True)
        return {"walls": walls, "rss": rss, "spans": spans, "cmds": cmds,
                "bytes": nbytes, "wrapper_s": wrapper}

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "quality": self.quality,
                "digest": self.digest, "work": str(self.work)}


def scaled_pieces(cuts_ns: list[int], probes: list[list[int]]) -> np.ndarray:
    """The pieces of a timeline between consecutive cuts, in seconds at the
    reference CPU speed.

    Each piece loses the probe runs that fell inside it, and is divided by the
    probe's duration around it (a running median of PROBE_SMOOTH probes,
    interpolated at the piece's midpoint) and multiplied by REF_PROBE_S.
    """
    cuts = np.asarray(cuts_ns, dtype=np.int64)
    start, total, kernel = np.asarray(probes, dtype=np.int64).reshape(-1, 3).T
    pieces = np.diff(cuts).astype(float)
    inside = (start >= cuts[0]) & (start < cuts[-1])
    pieces -= np.bincount(np.searchsorted(cuts, start[inside], side="right") - 1,
                          weights=total[inside], minlength=len(pieces))
    half = PROBE_SMOOTH // 2
    padded = np.pad(kernel.astype(float), half, mode="edge")
    smooth = np.median(np.lib.stride_tricks.sliding_window_view(
        padded, PROBE_SMOOTH), axis=1)
    speed = np.interp((cuts[:-1] + cuts[1:]) / 2, start + total / 2, smooth)
    return pieces / speed * REF_PROBE_S


def phases(repeats: list[dict]) -> np.ndarray | None:
    """Phase times (reference seconds) of each repeat of one command, one row
    a repeat.

    The command's timeline, from call to return, is cut at every span's start
    and end.  The program is deterministic at a fixed seed, so every repeat
    passes the same cuts in the same order; consecutive pieces are joined
    into phases of at least MIN_PHASE_S (by their median wall time).  None
    when the repeats' cuts differ.
    """
    rows, raw, labels = [], [], None
    for res in repeats:
        events = sorted([(s[1], s[0] + ">") for s in res["spans"]]
                        + [(s[2], s[0] + "<") for s in res["spans"]])
        names = [e[1] for e in events]
        if labels is not None and names != labels:
            return None
        labels = names
        cuts = [res["t0_ns"], *(e[0] for e in events), res["t1_ns"]]
        raw.append(np.diff(cuts) / 1e9)
        rows.append(scaled_pieces(cuts, res["probes"]))
    median = np.median(raw, axis=0)
    groups, acc = [0], 0.0
    for i, length in enumerate(median):
        acc += length
        if acc >= MIN_PHASE_S and i + 1 < len(median):
            groups.append(i + 1)
            acc = 0.0
    return np.add.reduceat(np.array(rows), groups, axis=1)


def best_of(repeats: list[dict]) -> tuple[float, int]:
    """A command's time in reference seconds with each phase at its fastest
    over the repeats, and the number of phases."""
    per = phases(repeats)
    if per is None:  # not deterministic: whole commands, each scaled
        per = np.array([[scaled_pieces([r["t0_ns"], r["t1_ns"]],
                                       r["probes"]).sum()] for r in repeats])
    return float(per.min(axis=0).sum()), per.shape[1]


def timed(name: str, seed: int, seconds: float, small: bool) -> dict:
    """End-to-end metrics: a fixed number of command rounds for ``seconds``,
    with SETUP_CHILDREN set-up children spread between them."""
    run = Run(name, seed, small, "time")
    setups, rounds = [], []
    n_rounds = max(MIN_ROUNDS, round(seconds / ROUND_S))
    every = n_rounds / SETUP_CHILDREN

    def setup():
        value = run.setup(len(setups))
        if value is None:
            run.errors.append(f"set-up child {len(setups)} failed")
        setups.append(value)

    for i in range(n_rounds):
        while len(setups) < SETUP_CHILDREN and len(setups) * every <= i:
            setup()
        rounds.append(run.round(i, trace=False))
    while len(setups) < SETUP_CHILDREN:
        setup()
    setups = [s for s in setups if s is not None]
    stems = [stem for stem, _ in workloads.command_argvs(name)]
    complete = [r for r in rounds if len(r["cmds"]) == len(stems)]
    samples, best, n_phases = {}, {}, {}
    for stem in stems:
        samples[f"{stem}_s"] = [r["walls"][stem] for r in rounds
                                if stem in r["walls"]]
        if complete:
            best[f"{stem}_s"], n_phases[stem] = best_of(
                [r["cmds"][stem] for r in complete])
    if complete:
        best["wall_s"] = sum(best[f"{stem}_s"] for stem in stems)
    samples["wall_s"] = [sum(r["walls"].values()) for r in complete]
    samples["setup_s"] = setups
    samples["peak_rss_mb"] = [r["rss"] for r in rounds]
    return {**run.summary(), "samples": samples, "best": best,
            "phases": n_phases, "rounds": len(complete)}


def traced(name: str, seed: int, small: bool) -> dict:
    """Per-layer metrics from two traced rounds, each after an untraced one;
    the overhead is the median of the paired wall-time differences."""
    run = Run(name, seed, small, "trace")
    plain, layers = [], []
    for i in (0, 2):
        plain.append(run.round(i, trace=False))
        layers.append(layer_metrics(run.round(i + 1, trace=True)))
    fired = set().union(*({s[0] for spans in r["spans"] for s in spans}
                          for r in layers))
    missing = sorted(set(workloads.EXPECTED_SPANS[name]) - fired)
    if missing:
        run.errors.append(f"spans never fired: {missing}")
    diff = [k for k in COUNTS if layers[0]["values"][k] != layers[1]["values"][k]]
    if diff:
        run.errors.append("counts differ between traced rounds: " + ", ".join(
            f"{k} {layers[0]['values'][k]} != {layers[1]['values'][k]}"
            for k in diff))
    values = {k: statistics.median([lay["values"][k] for lay in layers])
              for k in PER_LAYER if k not in OVERHEAD}
    values["trace_overhead_s"] = statistics.median(
        sum(lay["walls"].values()) - sum(p["walls"].values())
        for lay, p in zip(layers, plain))
    values["trace_wrapper_s"] = statistics.median(
        lay["wrapper_s"] for lay in layers)
    return {**run.summary(), "layers": values,
            "tail_pct": layers[0]["tail_pct"]}


def layer_metrics(rnd: dict) -> dict:
    """Per-layer metrics of one traced round (every command's spans)."""
    spans = [s for cmd in rnd["spans"] for s in cmd]
    per_cmd = rnd["spans"]
    dur = {}
    calls = {}
    for name, start, end, _, _ in spans:
        dur[name] = dur.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def ms(name):
        return dur.get(name, 0) / 1e6

    def attrs(name):
        return [s[4] for s in spans if s[0] == name and s[4]]

    def self_s(name):
        total = 0
        for cmd in per_cmd:
            for idx, (nm, start, end, _, _) in enumerate(cmd):
                if nm == name:
                    child = sum(e - s for _, s, e, parent, _ in cmd
                                if parent == idx)
                    total += (end - start) - child
        return total / 1e9

    sweeps = [(e - s) / 1e6 for n, s, e, _, _ in spans if n == "inference.sweep"]
    tail_pct, tail = _tail(sweeps)
    if tail is None and sweeps:
        tail_pct, tail = "max", max(sweeps)
    z = attrs("inference.z_sweep")
    cells = sum(a["cells"] for a in z)
    merges = attrs("inference.merge_sweep")
    accepted = sum(a["k_before"] - a["k_after"] for a in merges)
    in_merge = sum(1 for cmd in per_cmd for n, _, _, parent, _ in cmd
                   if n == "model.crp_log_prior_days" and parent >= 0
                   and cmd[parent][0] == "inference.merge_sweep")
    candidates = in_merge // 2
    runs = attrs("inference.run")
    values = {
        "inference.sweeps": calls.get("inference.sweep", 0),
        "inference.sweep_ms.p50": statistics.median(sweeps) if sweeps else 0.0,
        "inference.sweep_ms.tail": tail or 0.0,
        "inference.z_sweep_ms": ms("inference.z_sweep"),
        "inference.z_cells_updated": cells,
        "inference.z_cells_per_s": (cells / (ms("inference.z_sweep") / 1e3)
                                    if cells else 0.0),
        "inference.z_flip_frac": (sum(a["flipped"] for a in z) / cells
                                  if cells else 0.0),
        "inference.u_sweep_ms": ms("inference.u_sweep"),
        "inference.v_sweep_ms": ms("inference.v_sweep"),
        "inference.merge_sweep_ms": ms("inference.merge_sweep"),
        "inference.merge_candidates": candidates,
        "inference.merges_accepted": accepted,
        "inference.merge_accept_ratio": accepted / candidates if candidates else 0.0,
        "inference.refresh_ms": ms("inference.refresh"),
        "inference.update_params_ml_ms": ms("inference.update_params_ml"),
        "inference.K_final": runs[-1]["K"] if runs else 0,
        "inference.L_final": runs[-1]["L"] if runs else 0,
        "model.crp_log_prior_days_ms": ms("model.crp_log_prior_days"),
        "model.crp_log_prior_days.calls": calls.get("model.crp_log_prior_days", 0),
        "model.joint_log_density_ms": ms("model.joint_log_density"),
        "model.extract_patterns_ms": ms("model.extract_patterns"),
        "data.load_dataset_s": ms("data.load_dataset") / 1e3,
        "data.load_dataset.calls": calls.get("data.load_dataset", 0),
        "data.rows_parsed": sum(a["rows"] for a in attrs("data.load_dataset")),
        "data.compute_spatial_weights_s": ms("data.compute_spatial_weights") / 1e3,
        "cli.cmd_fit.self_s": self_s("cli.cmd_fit"),
        "cli.cmd_baseline.self_s": self_s("cli.cmd_baseline"),
        "cli.cmd_compare.self_s": self_s("cli.cmd_compare"),
        "cli.bytes_written": rnd["bytes"],
        "baselines.lasso_fit_s": ms("baselines.lasso_fit") / 1e3,
        "baselines.lasso_fit.calls": calls.get("baselines.lasso_fit", 0),
        "baselines.kmeans_s": ms("baselines.kmeans") / 1e3,
        "baselines.lloyd_iters": sum(a["iters"] for a in attrs("baselines._lloyd")),
        "baselines.spectral_cluster_s": ms("baselines.spectral_cluster") / 1e3,
        "baselines.similarity_hamming_s": ms("baselines.similarity_hamming") / 1e3,
        "baselines.eof_decompose_s": ms("baselines.eof_decompose") / 1e3,
        "metrics.build_report_ms": ms("metrics.build_report"),
        "svgplot.render_ms": ms("svgplot.grouped_bar_chart") + ms("svgplot.pattern_grid"),
        "svgplot.charts": (calls.get("svgplot.grouped_bar_chart", 0)
                           + calls.get("svgplot.pattern_grid", 0)),
    }
    return {"values": values, "walls": rnd["walls"], "spans": per_cmd,
            "wrapper_s": rnd["wrapper_s"], "tail_pct": tail_pct}


# ---------------------------------------------------------------- output


def _fmt(v, unit: str = "") -> str:
    if unit == "count":
        return str(int(v))
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_timed(res: dict) -> dict:
    """Print every end-to-end metric of a timed run; return the reported ones.

    A command time (and ``wall_s``, their sum) is the best of the run's
    repeats phase by phase (``best_of``); the detail column gives the plain
    median of the repeats' wall times next to it.
    """
    samples = res["samples"]
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    values.update(res["best"])
    values.update(res["quality"])
    values["ops_failed"] = res["failed"] / max(res["attempted"], 1)
    phases = dict(res["phases"], wall=sum(res["phases"].values()))
    print("times in reference seconds: scaled by the CPU speed probe "
          "(see DESIGN.md)")
    print(f"{'metric':<20} {'value':>12} {'unit':<6} {'better':<7} detail")
    for metric, (unit, better) in END_TO_END.items():
        if metric not in values:
            continue
        detail = ""
        if metric in res["best"]:
            detail = (f"best of {res['rounds']} repeats in "
                      f"{phases[metric[:-2]]} phases; median wall "
                      f"{statistics.median(samples[metric]):.6g}")
        elif metric in samples:
            pct, tail = _tail(samples[metric])
            detail = (f"median of {len(samples[metric])} samples; tail {pct}"
                      + (f" = {tail:.6g}" if tail is not None else ""))
        elif metric == "ops_failed":
            detail = f"{res['failed']} of {res['attempted']} commands"
        print(f"{metric:<20} {_fmt(values[metric]):>12} {unit:<6} {better:<7} {detail}")
    return {k: values[k] for k in REPORTED if k in values}


def report_traced(res: dict) -> dict:
    layers = res["layers"]
    print(f"{'per-layer metric':<34} {'value':>14} unit")
    for metric, (unit, _) in PER_LAYER.items():
        note = ""
        if metric == "inference.sweep_ms.tail" and layers["inference.sweeps"]:
            note = f"  ({res['tail_pct']} of sweeps)"
        elif metric == "inference.merge_accept_ratio":
            note = f"  (base: {int(layers['inference.merge_candidates'])} candidates)"
        print(f"{metric:<34} {_fmt(layers[metric], unit):>14} {unit}{note}")
    return layers


def run_one(name: str, seed: int, seconds: float, trace: bool,
            small: bool) -> dict:
    print(f"== workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    if trace:
        res = traced(name, seed, small)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in report_traced(res).items()}
        complete = True
    else:
        res = timed(name, seed, seconds, small)
        reported = report_timed(res)
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in reported.items()}
        complete = len(reported) == len(REPORTED)
    print(f"outputs digest (information only): {res['digest']}")
    for err in res["errors"]:
        print(f"FAILED: {err}")
    correct = not res["errors"] and res["failed"] == 0 and complete
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "small": small, "env": environment(),
              **result, "detail": res}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-{seed}-{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=float))
    if correct:  # inputs and logs are kept only to debug a failed run
        shutil.rmtree(res["work"], ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.EXPECTED_SPANS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunken inputs and sweep counts (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rainpatterns" / "__init__.py").is_file():
        print(f"error: no rainpatterns sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    names = list(workloads.EXPECTED_SPANS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds,
                                    bool(args.trace), args.small)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
