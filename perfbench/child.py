"""One measurement in a fresh interpreter, started by ``run.py``.

Usage: ``python3 perfbench/child.py <job.json>``.  The job names a mode and
where to write the JSON result:

- ``prep``: write the workload's inputs (untimed).
- ``setup``: time ``import rainpatterns``, ``load_dataset`` and
  ``compute_spatial_weights`` as separate calls.
- ``cmd``: time one ``rainpatterns.cli.main(argv)`` call from call to return,
  and record a span around every instrumented entry point; only with
  ``trace`` set do the spans carry their counts (see ``spans.py``).

``setup`` and an untraced ``cmd`` run the CPU speed probe (``spans.Probe``)
on a timer and hand back its samples, from which ``run.py`` scales the times.

The parent sets the BLAS thread variables and ``PYTHONPATH`` in this
process's environment, so they hold before numpy is first imported.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


# probes run on demand just before the probe's timer starts and just after
# it stops, so that the first and last pieces of a timeline have a speed
EDGE_PROBES = 5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prep(job: dict) -> dict:
    import workloads
    scale = workloads.SMALL if job["small"] else workloads.PAPER
    workloads.prepare(job["workload"], job["seed"], scale, Path(job["work"]))
    return {}


def setup(job: dict) -> dict:
    """Time the three set-up calls.  The speed probe needs numpy, so it runs
    after the import and on its timer during the other two calls."""
    clock = time.perf_counter_ns
    t0 = clock()
    import rainpatterns
    t1 = clock()
    import spans
    probe = spans.Probe()
    for _ in range(EDGE_PROBES):
        probe.tick()
    probe.start(job["probe_every_s"])
    t2 = clock()
    data = rainpatterns.load_dataset(job["locations"], job["rainfall"])
    t3 = clock()
    rainpatterns.compute_spatial_weights(data)
    t4 = clock()
    probe.stop()
    for _ in range(EDGE_PROBES):
        probe.tick()
    probed = _probed(probe, t2, t4)
    return {"import_s": (t1 - t0) / 1e9, "load_s": (t3 - t2) / 1e9,
            "weights_s": (t4 - t3) / 1e9,
            "setup_s": (t1 - t0 + t4 - t2 - probed) / 1e9,
            "cuts": [t0, t1, t2, t3, t4], "probes": probe.samples}


def cmd(job: dict) -> dict:
    import spans
    from rainpatterns import cli
    recorder = spans.Recorder()
    spans.instrument(recorder, hooks=job["trace"])
    probe = None
    if not job["trace"]:
        probe = spans.Probe()
        for _ in range(EDGE_PROBES):
            probe.tick()
        probe.start(job["probe_every_s"])
    t0 = time.perf_counter_ns()
    rc = cli.main(job["argv"])
    t1 = time.perf_counter_ns()
    out = {"rc": rc, "wall_s": (t1 - t0) / 1e9, "t0_ns": t0, "t1_ns": t1,
           "peak_rss_mb": _peak_rss_mb(), "spans": recorder.spans,
           "wrapper_s": recorder.wrapper_ns / 1e9, "probes": []}
    if probe:
        probe.stop()
        for _ in range(EDGE_PROBES):
            probe.tick()
        # the probe runs inside the command are not the command's time
        out["wall_s"] -= _probed(probe, t0, t1) / 1e9
        out["probes"] = probe.samples
    return out


def _probed(probe, t0: int, t1: int) -> int:
    return sum(d for start, d, _ in probe.samples if t0 <= start < t1)


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    result = {"prep": prep, "setup": setup, "cmd": cmd}[job["mode"]](job)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
