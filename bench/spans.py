"""Span tracing from outside the program.

``Tracer.install`` wraps each public function listed in ``TARGETS`` at
every name a corrkit module binds it to (``corrkit.harness.kendall``,
``corrkit.cli.compute_ncc`` and so on), plus two class attributes,
``RngSeed.rng`` and ``PairedSample.__post_init__``; ``Tracer.remove``
puts the originals back. While installed, each call records a span
``(op, name, start_ns, end_ns, parent, error, work)`` in memory, where
``parent`` is the index of the enclosing span (-1 at the top) and
``work`` is the call's size: input bytes, Kendall pairs, split
iterations or report bytes.

A span's self time is its duration minus the durations of its direct
children. Layers without a public function (permutation, train fit,
held-out scoring) are not visible from here.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter_ns

from corrkit.errors import CorrkitError


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _kendall_pairs(args, kwargs, result) -> int:
    n = (args[0] if args else kwargs["s"]).n
    return n * (n - 1) // 2


def _split_iterations(args, kwargs, result) -> int:
    return (args[1] if len(args) > 1 else kwargs["plan"]).iterations


def _result_bytes(args, kwargs, result) -> int:
    return len(result)


# span name -> (module, attribute path, work measure)
TARGETS = {
    "core.read_columns": ("corrkit.core", "read_columns", _file_bytes),
    "core.load_paired": ("corrkit.core", "load_paired", None),
    "core.PairedSample": ("corrkit.core", "PairedSample.__post_init__", None),
    "core.RngSeed.rng": ("corrkit.core", "RngSeed.rng", None),
    "classic.pearson": ("corrkit.classic", "pearson", None),
    "classic.spearman": ("corrkit.classic", "spearman", None),
    "classic.kendall": ("corrkit.classic", "kendall", _kendall_pairs),
    "classic.fechner": ("corrkit.classic", "fechner", None),
    "ncc.ncc": ("corrkit.ncc", "ncc", None),
    "gcorr.fit_g": ("corrkit.gcorr", "fit_g", None),
    "gcorr.estimate_g": ("corrkit.gcorr", "estimate_g", _split_iterations),
    "harness.compute_panel": ("corrkit.harness", "compute_panel", None),
    "harness.run_panel": ("corrkit.harness", "run_panel", None),
    "harness.render_report": ("corrkit.harness", "render_report", _result_bytes),
    "cli.main": ("corrkit.cli", "main", None),
}

# per-layer metric name -> unit; the order BENCHMARK.json lists them in
METRIC_UNITS = {
    **{
        f"{name}.{field}": unit
        for name in TARGETS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
    },
    "core.read_columns.mb_per_s": "MB/s",
    "gcorr.estimate_g.iterations": "count",
    "gcorr.estimate_g.us_per_iter": "us",
    "classic.kendall.ns_per_pair": "ns",
    "harness.render_report.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _corrkit_modules():
    return [m for name, m in list(sys.modules.items()) if name == "corrkit" or name.startswith("corrkit.")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                end = perf_counter_ns()
            except BaseException as exc:
                spans[sid] = (self.op, name, start, perf_counter_ns(), parent, isinstance(exc, CorrkitError), 0)
                raise
            finally:
                stack.pop()
            spans[sid] = (self.op, name, start, end, parent, False, work(args, kwargs, result) if work else 0)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = _corrkit_modules()
        for name, (module_name, path, work) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._wrap(name, getattr(cls, attr), work))
                continue
            original = getattr(module, path)
            traced = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        fields = ("op", "name", "start_ns", "end_ns", "parent", "error", "work")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, span in enumerate(self.spans):
                out.write(json.dumps({"id": sid, **dict(zip(fields, span))}) + "\n")


def layer_metrics(spans: list[tuple], ops: int) -> dict[str, float]:
    """Per-layer metrics per traced op, from the spans of ``ops`` ops."""
    child_ns = [0] * len(spans)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {name: [0, 0, 0, 0, 0] for name in TARGETS}  # calls, self, errors, wall, work
    for sid, (_, name, start, end, _, error, work) in enumerate(spans):
        t = totals[name]
        t[0] += 1
        t[1] += end - start - child_ns[sid]
        t[2] += error
        t[3] += end - start
        t[4] += work
    metrics = {}
    for name, (calls, self_ns, errors, _, _) in totals.items():
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_s"] = self_ns / 1e9 / ops
        metrics[f"{name}.errors"] = errors / ops
    read = totals["core.read_columns"]
    split = totals["gcorr.estimate_g"]
    kendall = totals["classic.kendall"]
    report = totals["harness.render_report"]
    metrics["core.read_columns.mb_per_s"] = read[4] / 1e6 / (read[1] / 1e9) if read[1] else 0.0
    metrics["gcorr.estimate_g.iterations"] = split[4] / ops
    metrics["gcorr.estimate_g.us_per_iter"] = split[3] / 1e3 / split[4] if split[4] else 0.0
    metrics["classic.kendall.ns_per_pair"] = kendall[1] / kendall[4] if kendall[4] else 0.0
    metrics["harness.render_report.bytes"] = report[4] / report[0] if report[0] else 0.0
    return metrics
