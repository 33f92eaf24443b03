"""Closed-loop measurement of one workload in the workload process:
one client, no threads. Every op's output is checked after timing.

With --trace 1 every op runs twice, untraced and then traced, so the
ratio of their summed times is the tracing overhead, and the traced
copy's output must equal the untraced one's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import probes
import spans
import workloads

# the tail is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10
# untimed ops first, until caches are warm and the first-call costs are paid
WARMUP_S = 2.0


class Raised:
    """Stands in for the output of an op that raised."""

    def __init__(self, text: str):
        self.text = text


def attempt(workload, k: int):
    try:
        return workload.op(k)
    except Exception:
        return Raised(traceback.format_exc())


def check(workload, k: int, output) -> str | None:
    if isinstance(output, Raised):
        return output.text
    try:
        return workload.check(k, output)
    except Exception:
        return traceback.format_exc()


def tally(op_failures: list[str | None], run_failures: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) from one entry per op run, None
    where the op passed, and the run-level check failures."""
    messages = run_failures + [msg for msg in op_failures if msg]
    # a failed run-level check leaves no op's output verified
    failed = len(op_failures) if run_failures else len(messages)
    return len(op_failures), failed, messages


def op_indices(cycle: int, seconds: float):
    """0, 1, 2, ... until ``seconds`` have passed, ending on a cycle boundary."""
    start = perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        if k % cycle == 0 and perf_counter() - start >= seconds:
            return


def warm_up(workload) -> None:
    for k in op_indices(workload.cycle, WARMUP_S):
        attempt(workload, k)


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss would still hold the
    # parent's peak, because Linux carries it across fork and exec
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_untraced(workload, probe, nominal_s: float, seconds: float) -> dict:
    """Closed loop of op, probe, op, probe, ...; each op's latency is
    scaled by nominal_s over the mean of the probes on either side."""
    warm_up(workload)
    before = timed(probe)
    outputs, latencies, scaled = [], [], []
    timed_s = 0.0
    for k in op_indices(workload.cycle, seconds):
        t0 = perf_counter()
        outputs.append(attempt(workload, k))
        latency = perf_counter() - t0
        after = timed(probe)
        latencies.append(latency)
        scaled.append(latency * nominal_s / ((before + after) / 2))
        before = after
    failures = [check(workload, k, out) for k, out in enumerate(outputs)]
    ops = len(scaled)
    tail_index = max(0, ops - 1 - TAIL_BEYOND)
    return {
        "failures": failures,
        "metrics": {
            "ops_per_s": ops / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": sorted(scaled)[tail_index],
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "ops": ops,
            "op_tail_pct": 100.0 * (tail_index + 1) / ops,
            "op_tail_beyond": ops - 1 - tail_index,
            "wall_ops_per_s": ops / sum(latencies),
            "wall_op_p50_s": statistics.median(latencies),
            "wall_op_tail_s": sorted(latencies)[tail_index],
        },
    }


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    tracer = spans.Tracer()
    failures = []
    untraced_s = traced_s = 0.0
    warm_up(workload)
    for k in op_indices(workload.cycle, seconds):
        t0 = perf_counter()
        plain = attempt(workload, k)
        t1 = perf_counter()
        tracer.op = k
        tracer.install()
        t2 = perf_counter()
        traced = attempt(workload, k)
        t3 = perf_counter()
        tracer.remove()
        untraced_s += t1 - t0
        traced_s += t3 - t2
        failures.append(check(workload, k, plain))
        if not isinstance(plain, Raised) and plain != traced:
            failures.append(f"op {k}: traced output differs from untraced output")
        else:
            failures.append(check(workload, k, traced))
    ops = k + 1
    metrics = spans.layer_metrics(tracer.spans, ops)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    tracer.write(spans_path)
    self_times = {name: metrics[f"{name}.self_s"] for name in spans.TARGETS}
    return {
        "failures": failures,
        "metrics": metrics,
        "info": {
            "traced_ops": ops,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path),
            "largest_self_s": max(self_times, key=self_times.get),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args()
    expected = json.loads((args.workdir / "expected.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](args.workdir, args.seed, expected)
    if args.trace:
        result = run_traced(workload, args.seconds, args.workdir / "spans.jsonl.gz")
    else:
        make_probe, nominal_s = probes.PROBES[args.workload]
        result = run_untraced(workload, make_probe(), nominal_s, args.seconds)
    result["attempted"], result["failed"], messages = tally(result.pop("failures"), expected["failures"])
    for msg in messages[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0
