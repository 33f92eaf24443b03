"""Self-tests of the benchmark itself (not of corrkit):

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corrkit.core import PairedSample, PanelValue, RngSeed

import inputs
import measure
import oracles
import probes
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture
def workdir(request):
    path = ROOT / ".bench_work" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(autouse=True)
def no_warmup(monkeypatch):
    monkeypatch.setattr(measure, "WARMUP_S", 0.0)


@pytest.fixture
def short_split(monkeypatch):
    monkeypatch.setattr(workloads, "SPLIT_ITERS", 20)


def make(name: str, seed: int, workdir: Path):
    inputs.build(name, seed, workdir)
    return workloads.WORKLOADS[name](workdir, seed, oracles.expected(name, seed))


def run_untraced(wl, name: str) -> dict:
    make_probe, nominal_s = probes.PROBES[name]
    return measure.run_untraced(wl, make_probe(), nominal_s, 0.0)


def _spans_installed() -> list[str]:
    bound = [
        f"{m.__name__}.{key}"
        for m in spans._corrkit_modules()
        for key, value in vars(m).items()
        if getattr(value, "__module__", None) == "spans"
    ]
    for cls, attr in ((RngSeed, "rng"), (PairedSample, "__post_init__")):
        if getattr(cls, attr).__module__ == "spans":
            bound.append(f"{cls.__name__}.{attr}")
    return bound


def test_traced_and_untraced_runs_give_identical_report_bytes(workdir, short_split):
    wl = make("split_panel", 3, workdir)
    plain = wl.op(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "corrkit.harness.estimate_g" in _spans_installed()
        traced = wl.op(0)
    finally:
        tracer.remove()
    assert _spans_installed() == []
    assert plain[0] == traced[0] == 0
    assert traced[1].encode("utf-8") == plain[1].encode("utf-8")
    assert wl.check(0, plain) is None
    assert wl.check(0, traced) is None
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "harness.run_panel", "gcorr.estimate_g", "core.RngSeed.rng"} <= names


def test_traced_run_reports_every_per_layer_metric(workdir, short_split):
    wl = make("split_panel", 4, workdir)
    result = measure.run_traced(wl, 0.0, workdir / "spans.jsonl.gz")
    assert result["failures"] == [None, None]
    metrics = result["metrics"]
    assert list(metrics) == list(spans.METRIC_UNITS)
    assert metrics["gcorr.estimate_g.iterations"] == 15 * 20
    assert metrics["core.RngSeed.rng.calls"] == 15 * 20
    assert result["info"]["largest_self_s"] == "gcorr.estimate_g"
    with gzip.open(workdir / "spans.jsonl.gz", "rt", encoding="utf-8") as lines:
        written = [json.loads(line) for line in lines]
    assert len(written) == result["info"]["spans"]
    assert written[0]["name"] == "cli.main" and written[0]["parent"] == -1


def _perturb_report(output):
    code, text = output
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)  # the first row's r
    lines[1] = ",".join(cells)
    return code, "\n".join(lines)


def _perturb_panel(output):
    first = output[0]
    return [dataclasses.replace(first, rho=PanelValue(first.rho.value + 1e-6)), *output[1:]]


@pytest.mark.parametrize(
    "name, perturb", [("split_panel", _perturb_report), ("wide_compute", _perturb_panel)]
)
def test_perturbed_output_counts_as_failed(workdir, short_split, name, perturb):
    wl = make(name, 5, workdir)
    clean = run_untraced(wl, name)
    assert measure.tally(clean["failures"], []) == (wl.cycle, 0, [])

    wl = make(name, 5, workdir)  # a fresh first report for split_panel's byte comparison
    original = wl.op
    wl.op = lambda k: perturb(original(k)) if k == 0 else original(k)
    result = run_untraced(wl, name)
    attempted, failed, messages = measure.tally(result["failures"], [])
    assert (attempted, failed) == (wl.cycle, 1)
    assert "expected" in messages[0]


def test_raising_op_and_run_level_failure_count_as_failed(workdir, short_split):
    wl = make("split_panel", 6, workdir)

    def boom(k):
        raise RuntimeError("op raised")

    wl.op = boom
    result = run_untraced(wl, "split_panel")
    assert "op raised" in result["failures"][0]
    assert measure.tally([None, None], ["reference mismatch"]) == (2, 2, ["reference mismatch"])


def test_input_digests_follow_the_seed(workdir):
    for name in workloads.WORKLOADS:
        first = inputs.build(name, 7, workdir / f"{name}-a")
        again = inputs.build(name, 7, workdir / f"{name}-b")
        other = inputs.build(name, 8, workdir / f"{name}-c")
        assert first == again
        assert all(a["sha256"] != c["sha256"] for a, c in zip(first, other))


def test_run_refuses_without_program_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "split_panel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
