"""In-memory span recorder for the layer calls that `stmkernels.harness` makes.

`Tracer.install(harness)` replaces, on the modules `harness` reads them
from, the names `harness` calls into each layer with thin wrappers. A
wrapper records one span per call (name, start, end, thread id, parent
span) plus the counts its arguments and return value carry, and passes
arguments, results and exceptions through unchanged. Spans stay in
memory until `dump` writes them out after the run.

`aggregate` turns the span lists of one or more traced processes into
per-layer metrics. A span's self time is its duration minus the union of
its children's intervals. Spans that open on a pool thread while
`run_experiment` is open have that span as parent, so `harness.self_s`
is run time during which no layer call is active on any thread.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

# (span name, attribute of `harness` holding the module, or None for
# `harness` itself, name of the wrapped function in that module)
TARGETS = (
    ("synth.generate", "synth", "generate"),
    ("tensor.load_tensor", None, "load_tensor"),
    ("decomp.weighted_hosvd", None, "weighted_hosvd"),
    ("decomp.tucker_reconstruct", None, "tucker_reconstruct"),
    ("decomp.tucker_to_cp", None, "tucker_to_cp"),
    ("kernels.gram_matrix", None, "gram_matrix"),
    ("svm.train", None, "train"),
    ("svm.predict_from_gram", None, "predict_from_gram"),
    ("harness.run_experiment", None, "run_experiment"),
    ("harness.emit_report", None, "emit_report"),
)

KINDS = ("gaussian", "dusk", "subspace", "wsek")
ROOT = "harness.run_experiment"

# span field order in `Tracer.spans` and in the dumped file
ID, NAME, TID, PARENT, START, END, INFO = range(7)


class Tracer:
    """Records spans around the wrapped layer calls of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._convergence_error = None

    def install(self, harness):
        """Wrap every name in TARGETS on the module `harness` reads it from."""
        from stmkernels.svm import ConvergenceError

        self._convergence_error = ConvergenceError
        for name, owner, attr in TARGETS:
            module = getattr(harness, owner) if owner else harness
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1][ID]
            else:
                parent = self._root[ID] if self._root is not None else None
            info = {}
            span = [next(self._ids), name, threading.get_ident(), parent,
                    time.perf_counter(), None, info]
            self.spans.append(span)
            stack.append(span)
            if name == ROOT:
                self._root = span
            try:
                result = fn(*args, **kwargs)
            except self._convergence_error:
                info["convergence_error"] = 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if name == ROOT:
                    self._root = None
            self._note(name, args, result, info)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note(self, name, args, result, info):
        """Counts from a finished call's arguments and return value."""
        if name == "kernels.gram_matrix":
            samples, spec = args[0], args[1]
            n = len(samples)
            info["kind"] = spec.kind
            info["entries"] = n * (n + 1) // 2
            self._local.kind = spec.kind
        elif name == "svm.train":
            # harness passes no spec to train; its Gram is the last one
            # built on this thread, so that Gram's kind is the train's kind
            info["kind"] = getattr(self._local, "kind", None)
            info["n"] = len(args[0].labels)
            info["updates"] = int(result.updates)
            info["fallback"] = int(bool(result.bias_fallback))
        elif name == "tensor.load_tensor":
            info["bytes"] = int(result.nbytes)
        elif name == "synth.generate":
            info["samples"] = len(result)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - _union_length(children.get(s[ID], ()))
            for s in spans}


def aggregate(span_lists):
    """Per-layer metrics summed over the span lists of several traced
    processes: {name: (value, unit)}.

    Counts (`calls`, `entries`, `updates`, ...) are exact; times are in
    seconds unless the name says otherwise.
    """
    by_name = {name: [] for name, _, _ in TARGETS}
    selfs = {}  # span name -> self times of its spans
    for spans in span_lists:
        own = self_times(spans)
        for s in spans:
            by_name[s[NAME]].append(s)
            selfs.setdefault(s[NAME], []).append(own[s[ID]])

    def busy(name):
        return sum(s[END] - s[START] for s in by_name[name])

    def self_sum(name):
        return sum(selfs.get(name, ()))

    m = {}
    m["synth.generate.calls"] = (len(by_name["synth.generate"]), "count")
    m["synth.generate.busy_s"] = (busy("synth.generate"), "s")

    loads = by_name["tensor.load_tensor"]
    m["tensor.load_tensor.calls"] = (len(loads), "count")
    m["tensor.load_tensor.busy_s"] = (busy("tensor.load_tensor"), "s")
    m["tensor.load_tensor.mb"] = (sum(s[INFO]["bytes"] for s in loads) / 1e6, "MB")

    hosvd = by_name["decomp.weighted_hosvd"]
    hosvd_busy = busy("decomp.weighted_hosvd")
    m["decomp.weighted_hosvd.calls"] = (len(hosvd), "count")
    m["decomp.weighted_hosvd.busy_s"] = (hosvd_busy, "s")
    m["decomp.weighted_hosvd.ms_per_call"] = (
        1e3 * hosvd_busy / len(hosvd) if hosvd else 0.0, "ms")
    for name in ("decomp.tucker_reconstruct", "decomp.tucker_to_cp"):
        m[name + ".calls"] = (len(by_name[name]), "count")
        m[name + ".busy_s"] = (busy(name), "s")

    grams = by_name["kernels.gram_matrix"]
    m["kernels.gram_matrix.calls"] = (len(grams), "count")
    m["kernels.gram_matrix.busy_s"] = (busy("kernels.gram_matrix"), "s")
    for kind in KINDS:
        mine = [s for s in grams if s[INFO].get("kind") == kind]
        t = sum(s[END] - s[START] for s in mine)
        entries = sum(s[INFO]["entries"] for s in mine)
        m[f"kernels.gram.{kind}.busy_s"] = (t, "s")
        m[f"kernels.gram.{kind}.entries"] = (entries, "count")
        m[f"kernels.gram.{kind}.us_per_entry"] = (
            1e6 * t / entries if entries else 0.0, "us")

    trains = by_name["svm.train"]
    done = [s for s in trains if "updates" in s[INFO]]
    train_busy = busy("svm.train")
    updates = sum(s[INFO]["updates"] for s in done)
    m["svm.train.calls"] = (len(trains), "count")
    m["svm.train.busy_s"] = (train_busy, "s")
    m["svm.train.updates"] = (updates, "count")
    m["svm.train.updates_max"] = (
        max((s[INFO]["updates"] for s in done), default=0), "count")
    m["svm.train.us_per_update"] = (
        1e6 * train_busy / updates if updates else 0.0, "us")
    m["svm.train.fallback_ratio"] = (
        sum(s[INFO]["fallback"] for s in done) / len(done) if done else 0.0,
        "ratio")
    m["svm.train.convergence_errors"] = (
        sum(s[INFO].get("convergence_error", 0) for s in trains), "count")
    for kind in KINDS:
        m[f"svm.train.{kind}.busy_s"] = (
            sum(s[END] - s[START] for s in trains if s[INFO].get("kind") == kind),
            "s")

    m["svm.predict_from_gram.calls"] = (len(by_name["svm.predict_from_gram"]), "count")
    m["svm.predict_from_gram.busy_s"] = (busy("svm.predict_from_gram"), "s")

    m["harness.run_experiment.busy_s"] = (busy("harness.run_experiment"), "s")
    m["harness.emit_report.busy_s"] = (busy("harness.emit_report"), "s")
    m["harness.self_s"] = (self_sum("harness.run_experiment"), "s")

    total_self = sum(sum(v) for v in selfs.values())
    shares = {
        "kernels.self_share": self_sum("kernels.gram_matrix"),
        "svm.train.self_share": self_sum("svm.train"),
        "decomp.weighted_hosvd.self_share": self_sum("decomp.weighted_hosvd"),
        "harness.self_share": self_sum("harness.run_experiment"),
    }
    for key, value in shares.items():
        m[key] = (value / total_self if total_self else 0.0, "ratio")
    return m


def span_counts(spans):
    """Span name -> number of spans, for the coverage check."""
    counts = {name: 0 for name, _, _ in TARGETS}
    for s in spans:
        counts[s[NAME]] += 1
    return counts
