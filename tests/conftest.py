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


@pytest.fixture(scope="session")
def tie_heavy_corpus():
    """The 3,000 seeded ``tie_heavy_sample`` cases that the fit_g and
    estimate_g differentials share, built once per session. Each rng is
    kept where its sample left it: copy it before drawing from it."""
    from test_gcorr import tie_heavy_sample

    return [tie_heavy_sample(case) for case in range(3000)]
