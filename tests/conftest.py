from pathlib import Path

import numpy as np
import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def seeded_rng(*tags: int) -> np.random.Generator:
    """Deterministic generator for test-local fuzzing."""
    return np.random.default_rng([424242, *tags])


def _columns_of(v: np.ndarray) -> list:
    """The columns an argument holds: a 1-D column itself, or the rows of
    a (columns, n) block."""
    return list(v) if v.ndim == 2 else [v]


def count_column_run_ids(monkeypatch) -> list:
    """Wrap ``run_ids`` wherever a corrkit module binds it. The returned
    list gets each column whose values (floats) a call numbers, one entry
    per row of a block; calls on integer keys, such as Kendall's joint
    keys, are not counted."""
    from corrkit import classic, core, gcorr

    calls = []
    run_ids = core.run_ids

    def counting(sorted_v):
        if sorted_v.dtype == np.float64:
            calls.extend(_columns_of(sorted_v))
        return run_ids(sorted_v)

    for module in (core, classic, gcorr):
        if hasattr(module, "run_ids"):
            monkeypatch.setattr(module, "run_ids", counting)
    return calls


def count_stable_order(monkeypatch) -> list:
    """Wrap ``core.stable_order``, through which every column sort pass is
    built. The returned list gets each column sorted: the column of a
    1-D call, each row of a block."""
    from corrkit import core

    calls = []
    stable_order = core.stable_order
    monkeypatch.setattr(core, "stable_order", lambda v: calls.extend(_columns_of(v)) or stable_order(v))
    return calls


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap the function ``owner.name`` (a module's or a class's) for the
    test. The returned list gets the positional arguments of each call."""
    calls = []
    function = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture(scope="session")
def tie_heavy_corpus():
    """The 3,000 seeded ``tie_heavy_sample`` cases that the fit_g and
    estimate_g differentials share, built once per session. Each rng is
    kept where its sample left it: copy it before drawing from it."""
    from test_gcorr import tie_heavy_sample

    return [tie_heavy_sample(case) for case in range(3000)]
