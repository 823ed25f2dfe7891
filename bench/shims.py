"""Timing shims installed at run time around calls into the package's layers.

No source file of the package is edited.  ``install`` wraps each target
function and rebinds *every* module-global name in the ``affine_lab``
package that refers to it, because ``sde``, ``validate`` and ``cli``
import functions by name and patching only the defining module would miss
those calls.  A target that no longer exists is recorded as absent and
its layer reads "absent" instead of failing the run.

Spans are kept in memory as ``(name, thread, start, end, parent)`` rows,
with a parent stack per thread, so a span's self time is its duration
minus its children's on the same thread.  Worker threads of the
ensemble pool therefore get their own self times, and the main thread's
wait on the pool is a span of its own (``sde.pool_wait``).

Only the standard library is imported here, and nothing is patched at
import time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

PACKAGE = "affine_lab"


def _noise_counts(rec, res):
    rec.count("noise.n0_events", len(res.n0_times))
    rec.count("noise.n1_candidates", len(res.n1_times))


def _kernel_counts(rec, res):
    _, aborted_at, clamps = res
    rec.count("sde.clamps", int(clamps.sum()))
    rec.count("sde.aborted_paths", int((aborted_at == aborted_at).sum()))


def _solve_counts(rec, res):
    rec.count("transform.rk_steps", res.steps_taken)


def _report_counts(rec, res):
    rec.count("validate.rows", len(res.rows))
    rec.count("validate.rows_failed", sum(not r.passed for r in res.rows))
    rec.count("noise.retried_paths", int(res.details.get("n_retried", 0)))


# (module, attribute path, span name, result hook).  Span names are the
# layer metric names without their unit suffix.
TARGETS = (
    ("affine_lab.noise", "generate_noise", "noise.generate", _noise_counts),
    ("affine_lab.noise", "_stream", "noise.stream_open", None),
    ("affine_lab.noise", "refine", "noise.refine", None),
    ("affine_lab.params", "FiniteAtomicMeasure.sample", "params.sample", None),
    ("affine_lab.params", "ProductExponentialMeasure.sample",
     "params.sample", None),
    ("affine_lab.params", "FiniteAtomicMeasure.exp_integral",
     "params.exp_integral", None),
    ("affine_lab.params", "ProductExponentialMeasure.exp_integral",
     "params.exp_integral", None),
    ("affine_lab.transform", "solve_transform", "transform.solve",
     _solve_counts),
    ("affine_lab.sde", "_affine_batch", "sde.kernel.affine", _kernel_counts),
    ("affine_lab.sde", "_cbi_batch", "sde.kernel.cbi", _kernel_counts),
    ("affine_lab.sde", "_catalytic_batch", "sde.kernel.catalytic",
     _kernel_counts),
    ("affine_lab.sde", "_reactant_batch", "sde.kernel.reactant",
     _kernel_counts),
    ("affine_lab.sde", "_EventTable.__init__", "sde.event_table", None),
    ("affine_lab.sde", "run_ensemble", "sde.run_ensemble", None),
    ("affine_lab.sde", "ThreadPoolExecutor", "sde.pool_wait", None),
    ("affine_lab.validate", "check_affine_formula", "validate.check",
     _report_counts),
    ("affine_lab.validate", "check_moments", "validate.check",
     _report_counts),
    ("affine_lab.validate", "check_generator", "validate.check",
     _report_counts),
    ("affine_lab.validate", "uniqueness_experiment", "validate.check",
     _report_counts),
    ("affine_lab.validate", "fluctuation_experiment", "validate.check",
     _report_counts),
    ("affine_lab.validate", "sc_semigroup_check", "validate.check",
     _report_counts),
    ("affine_lab.cli", "_write_report", "cli.write", None),
    ("affine_lab.cli", "_write_json", "cli.write", None),
    ("affine_lab.cli", "write_transform_csv", "cli.write", None),
    ("affine_lab.cli", "write_paths_csv", "cli.write", None),
)


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []          # (name, thread, start, end, parent index)
        self.counters = {}
        self.absent = []         # targets or counts that did not resolve
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name, value):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, hook=None):
        """Run ``fn`` inside a span; ``hook(recorder, result)`` counts."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:  # reserve the index children refer to
            slot = len(self.spans)
            self.spans.append(None)
        stack.append(slot)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[slot] = (name, threading.get_ident(), start, end,
                                parent)
        if hook is not None:
            try:
                hook(self, result)
            except (AttributeError, KeyError, TypeError, ValueError):
                # the result no longer has the shape the hook reads
                tag = f"{name}:counts"
                if tag not in self.absent:
                    self.absent.append(tag)
        return result

    def summary(self, main_thread, wall):
        """Self time by span name (summed and per thread), plus coverage.

        ``uncovered_s`` is the part of ``wall`` on the main thread that no
        span covers; with the main thread's self times it adds up to
        ``wall``.  Worker threads add their thread-seconds on top.
        """
        child = [0.0] * len(self.spans)
        for name, tid, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        threads = {main_thread: "main"}
        by_name = {}
        root_s = 0.0
        for i, (name, tid, start, end, parent) in enumerate(self.spans):
            label = threads.setdefault(tid, f"worker-{len(threads)}")
            entry = by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "self_s_by_thread": {}})
            dur = end - start
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
            per = entry["self_s_by_thread"]
            per[label] = per.get(label, 0.0) + dur - child[i]
            if parent is None and tid == main_thread:
                root_s += dur
        return {"spans": by_name, "counters": dict(self.counters),
                "absent": list(self.absent), "wall_s": wall,
                "uncovered_s": wall - root_s}


def _resolve(module_name, path):
    """``(owner, attribute, original)`` or ``None`` when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _traced_pool(rec, base, name):
    """A pool class whose ``map`` waits for every result inside a span.

    The package consumes ``pool.map`` at once with ``list``; waiting here
    instead puts the main thread's wait on the workers into the span.
    """

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            return iter(rec.call(
                name, lambda: list(super(TracedPool, self).map(
                    fn, *iterables, **kwargs)), (), {}))

        def shutdown(self, *args, **kwargs):
            return rec.call(name, super().shutdown, args, kwargs)

    return TracedPool


def _wrap(rec, original, name, hook):
    @functools.wraps(original)
    def shim(*args, **kwargs):
        return rec.call(name, original, args, kwargs, hook)

    return shim


def install(rec, targets=TARGETS):
    """Wrap every target; returns a function that undoes the patches."""
    undo = []
    for module_name, path, name, hook in targets:
        found = _resolve(module_name, path)
        if found is None:
            rec.absent.append(f"{module_name}:{path}")
            continue
        owner, attr, original = found
        if isinstance(original, type):  # the ensemble's thread pool
            replacement = _traced_pool(rec, original, name)
        else:
            replacement = _wrap(rec, original, name, hook)
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or
                                      mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    undo.append((module, key, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
