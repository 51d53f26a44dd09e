"""Self-test of the benchmark on shrunken workloads (a few minutes).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Runs every workload at the ``--small`` scale, timed and traced, and checks
that the last output line carries exactly the metrics BENCHMARK.json names,
each with its unit, that every end-to-end metric named in DESIGN.md is
printed by name with its unit, and that the benchmark refuses to run, with
no result line, where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def _printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()
               for line in lines)


def _check(result: dict, spec_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_timed_all_workloads_print_every_metric():
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    results = json.loads(lines[-1])
    assert set(results) == set(run.workloads.EXPECTED_SPANS)
    for result in results.values():
        _check(result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0
    for name, (unit, _) in run.END_TO_END.items():
        assert _printed(lines, name, unit), name


def test_traced_workloads_report_every_layer():
    for name in run.workloads.EXPECTED_SPANS:
        proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                      "--trace", "1", "--small")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _check(json.loads(lines[-1]), SPEC["per_layer"])
        for m in SPEC["per_layer"]:
            assert _printed(lines, m["name"], m["unit"]), m["name"]


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                      "--seconds", "1", "--trace", "0", root=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_refuses_without_sources,
                 test_timed_all_workloads_print_every_metric,
                 test_traced_workloads_report_every_layer):
        test()
        print(f"ok  {test.__name__}", flush=True)
