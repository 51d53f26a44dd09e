"""Span recorder that wraps rainpatterns' public entry points from outside.

Nothing under ``src/`` is changed: ``instrument`` replaces each listed
function in its defining module *and* in every rainpatterns module that
imported it by name (``cli.load_dataset``, ``inference.joint_log_density``),
and replaces the listed ``_GibbsEngine`` methods on the class.  Spans are kept
in memory and handed back as plain lists when the command ends.

A span is ``[name, start_ns, end_ns, parent_index, attrs]``; ``attrs`` holds
the deterministic counts measured at that boundary (cells updated, K before
and after a merge sweep, Lloyd iterations, rows parsed).
"""

from __future__ import annotations

import functools
import signal
import sys
import time

import numpy as np


def _z_before(args):
    return args[0].state.states.copy()


def _z_after(args, result, before):
    states = args[0].state.states
    return {"cells": int(states.size), "flipped": int((states != before).sum())}


def _k(args):
    return int(args[0].state.day_labels.max())


def _merge_after(args, result, k_before):
    return {"k_before": k_before, "k_after": _k(args)}


def _run_after(args, result, before):
    state = args[0].state
    return {"K": int(state.day_labels.max()), "L": int(state.loc_labels.max())}


def _load_after(args, result, before):
    # one row per location plus one per (location, day) cell
    return {"rows": int(result.n_locations * (1 + result.n_days))}


def _lloyd_after(args, result, before):
    # _lloyd appends one objective per iteration plus a final one
    return {"iters": len(result[2]) - 1}


# (module, function, before hook, after hook); a hook may be None
FUNCTIONS = [
    ("data", "load_dataset", None, _load_after),
    ("data", "compute_spatial_weights", None, None),
    ("model", "crp_log_prior_days", None, None),
    ("model", "joint_log_density", None, None),
    ("model", "extract_patterns", None, None),
    ("inference", "run_gibbs", None, None),
    ("inference", "refit_frozen", None, None),
    ("inference", "update_params_ml", None, None),
    ("baselines", "kmeans", None, None),
    ("baselines", "_lloyd", None, _lloyd_after),
    ("baselines", "spectral_cluster", None, None),
    ("baselines", "similarity_hamming", None, None),
    ("baselines", "eof_decompose", None, None),
    ("baselines", "lasso_fit", None, None),
    ("metrics", "build_report", None, None),
    ("metrics", "distance_report", None, None),
    ("metrics", "spatial_coherence", None, None),
    ("metrics", "read_metrics_csv", None, None),
    ("svgplot", "grouped_bar_chart", None, None),
    ("svgplot", "pattern_grid", None, None),
    ("cli", "cmd_fit", None, None),
    ("cli", "cmd_refit", None, None),
    ("cli", "cmd_baseline", None, None),
    ("cli", "cmd_compare", None, None),
]

# _GibbsEngine methods, recorded as inference.<method>
METHODS = [
    ("run", None, _run_after),
    ("sweep", None, None),
    ("z_sweep", _z_before, _z_after),
    ("u_sweep", None, None),
    ("v_sweep", None, None),
    ("merge_sweep", _k, _merge_after),
    ("refresh", None, None),
]


class Recorder:
    """In-memory span list with a stack of open spans (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        # time spent in the wrappers outside the wrapped calls: hooks and
        # bookkeeping, the recorder's own cost
        self.wrapper_ns = 0

    def wrap(self, name: str, fn, before=None, after=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            ctx = before(args) if before else None
            span = [name, 0, 0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after:
                span[4] = after(args, result, ctx)
            self.wrapper_ns += (span[1] - entered) + (clock() - span[2])
            return result

        return wrapper


class Probe:
    """Times a fixed kernel on the process's own CPU, on demand and from a
    SIGALRM timer while a command runs, so that each phase of the command can
    be scaled by the speed the CPU had around it.

    The kernel mixes interpreted Python with small numpy operations, as the
    program does.  A probe runs it twice and times the second run only: the
    first brings the kernel's data back into the caches that the program has
    just used, so the timed run depends on the CPU's speed and not on what
    the program did before it.  Python runs the handler between bytecodes of
    the main thread, so a probe never overlaps the program's own work; one
    that falls due inside a long numpy call runs when the call returns.
    ``samples`` gives ``[start_ns, probe_ns, kernel_ns]``: when the probe
    started, how long it took in all, and how long the timed run took.

    A probe allocates no memory beyond small Python objects: it writes into
    buffers made here, so the program's heap, and with it its peak RSS, is
    the same as without the probe.
    """

    CAPACITY = 1 << 16  # samples kept; at 25 ms apart, 27 minutes

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((48, 48))
        self._vector = rng.random(2048)
        self._product = np.empty_like(self._matrix)
        self._exp = np.empty_like(self._vector)
        self._samples = np.zeros((self.CAPACITY, 3), dtype=np.int64)
        self._n = 0

    @property
    def samples(self) -> list[list[int]]:
        return self._samples[:self._n].tolist()

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(1200):
            acc += i * 0.5
        for _ in range(12):
            np.matmul(self._matrix, self._matrix, out=self._product)
            np.negative(self._vector, out=self._exp)
            np.exp(self._exp, out=self._exp)
            acc += float(self._product.sum()) + float(self._exp.sum())
        return acc

    def tick(self, *_signal) -> None:
        clock = time.perf_counter_ns
        start = clock()
        self._kernel()  # brings the kernel's data back into the caches
        warm = clock()
        self._kernel()
        end = clock()
        if self._n < self.CAPACITY:
            self._samples[self._n] = (start, end - start, end - warm)
            self._n += 1

    def start(self, every_s: float) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def instrument(recorder: Recorder, hooks: bool = True) -> None:
    """Patch every listed entry point; rainpatterns.cli must be imported.

    Without ``hooks`` only the span times are recorded (the timed run cuts a
    command's timeline at them).  An entry point the program no longer has is
    skipped; a traced run then reports its span as never fired.
    """
    modules = [m for n, m in list(sys.modules.items())
               if n == "rainpatterns" or n.startswith("rainpatterns.")]
    for mod_name, fn_name, before, after in FUNCTIONS:
        home = sys.modules.get(f"rainpatterns.{mod_name}")
        orig = getattr(home, fn_name, None)
        if orig is None:
            continue
        wrapped = recorder.wrap(f"{mod_name}.{fn_name}", orig,
                                *((before, after) if hooks else ()))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
    engine = getattr(sys.modules.get("rainpatterns.inference"), "_GibbsEngine",
                     None)
    for method, before, after in METHODS:
        orig = getattr(engine, method, None)
        if orig is not None:
            setattr(engine, method, recorder.wrap(
                f"inference.{method}", orig,
                *((before, after) if hooks else ())))
