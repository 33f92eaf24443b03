#!/usr/bin/env python3
"""corrkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload split_panel --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's src/.
The run builds the workload's inputs from --seed into .bench_work/,
computes reference values, times set-up in fresh interpreters, and then
starts the workload process (worker.py), which measures for --seconds
and checks every op's output. Informational JSON lines come first; the
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run (spans go to .bench_work/.../spans.jsonl.gz).
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("split_panel", "wide_compute", "ingest_compute")
# fresh interpreters timed for setup_s besides the workload process itself
SETUP_PROBES = 6
# the workload process must end within this many seconds past --seconds
WORKER_GRACE_S = 120

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one client and no threads: keep numpy's BLAS single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_timed(args: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start a fresh interpreter; return it with the seconds until it said ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args[0]} did not start: {line!r}")
    return proc, elapsed


def time_setup(worker_args: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, list[float], list[float]]:
    """Set-up samples, each right after a reference sample: the probes,
    then the workload process, which is returned still running."""
    setup, reference = [], []
    for i in range(SETUP_PROBES + 1):
        ref, elapsed = start_timed(["-c", probes.SETUP_REFERENCE], env)
        ref.wait()
        reference.append(elapsed)
        last = i == SETUP_PROBES
        proc, elapsed = start_timed([str(BENCH / "worker.py"), *(worker_args if last else ["--probe"])], env)
        setup.append(elapsed)
        if not last:
            proc.wait()
    return proc, setup, reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "corrkit" / "__init__.py").is_file():
        print(f"bench: no corrkit sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("bench: --seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import inputs
    import oracles
    import spans

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    manifest = inputs.build(args.workload, args.seed, workdir)
    expected = oracles.expected(args.workload, args.seed)
    (workdir / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    print(json.dumps({"inputs": manifest}))

    worker, setup, reference = time_setup(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--workdir", str(workdir),
        ],
        child_env(),
    )
    try:
        out, _ = worker.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print("bench: workload process timed out", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not out.strip():
        print(f"bench: workload process exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = result["metrics"]
        units = spans.METRIC_UNITS
    else:
        ratios = [s / r for s, r in zip(setup, reference)]
        values = {**result["metrics"], "setup_s": probes.SETUP_REFERENCE_NOMINAL_S * statistics.median(ratios)}
        units = END_TO_END_UNITS
        result["info"]["setup_wall_s"] = setup
        result["info"]["setup_reference_s"] = reference
        result["info"]["failed_frac"] = result["failed"] / result["attempted"]
    print(json.dumps({"info": result["info"]}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
