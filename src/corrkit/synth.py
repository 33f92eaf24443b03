"""Seeded generators for the benchmark dataset families.

Each family models one qualitative bivariate pattern used to compare the
coefficients: pure noise, an exact straight line, a symmetric arch, a
noisy monotone trend, a sinusoid over whole periods, a heteroscedastic
step (tight low band on the left, wide band plus a median shelf on the
right), and a strictly increasing staircase whose mean structure blinds
the sign-based coefficient.

The same spec always produces the bit-identical sample. Where a family
needs "spread the points evenly but randomly", it uses one uniform draw
per grid cell (a jittered grid), which keeps the sign-balance of the
deterministic grid while remaining seed-dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import PairedSample, RngSeed, as_int, as_seed
from .errors import InvalidParams

__all__ = ["FamilySpec", "generate", "FAMILY_DEFAULTS"]

FAMILY_DEFAULTS: dict[str, dict[str, float]] = {
    "noise": {},
    "line": {"a": 2.0, "b": 1.0},
    "curvilinear": {"noise_sd": 0.05},
    "coarse_monotone": {"noise_sd": 0.2},
    "sinusoid": {"periods": 2.0, "noise_sd": 0.0},
    "hetero_step": {},
    "step_plateau": {"step_count": 6.0},
}


@dataclass(frozen=True)
class FamilySpec:
    """A fully determined synthetic dataset: family, size, seed, params.
    The size n is an int or a numpy integer >= 4, stored as an int."""

    family: str
    n: int
    seed: RngSeed
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILY_DEFAULTS:
            known = ", ".join(sorted(FAMILY_DEFAULTS))
            raise InvalidParams(f"unknown family {self.family!r} (known: {known})")
        object.__setattr__(self, "n", as_int(self.n, "n", 4))
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "params", dict(self.params))

    def resolved_params(self) -> dict[str, float]:
        defaults = FAMILY_DEFAULTS[self.family]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise InvalidParams(
                f"family {self.family!r} does not accept {sorted(unknown)}"
            )
        resolved = {**defaults, **self.params}
        for key, value in resolved.items():
            value = float(value)
            if not math.isfinite(value):
                raise InvalidParams(f"parameter {key!r} must be finite")
            resolved[key] = value
        return resolved


def _jittered_grid(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return lo + (np.arange(n) + rng.random(n)) / n * (hi - lo)


def _gen_noise(rng, n, params):
    return rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)


def _gen_line(rng, n, params):
    xs = rng.uniform(0.0, 10.0, n)
    return xs, params["a"] * xs + params["b"]


def _gen_curvilinear(rng, n, params):
    xs = _jittered_grid(rng, n, 0.0, 1.0)
    ys = 4.0 * xs * (1.0 - xs) + params["noise_sd"] * rng.standard_normal(n)
    return xs, ys


def _gen_coarse_monotone(rng, n, params):
    xs = _jittered_grid(rng, n, 0.0, 1.0)
    return xs, xs + params["noise_sd"] * rng.standard_normal(n)


# fraction of a period appended past the last complete one; a window cut
# at a whole period has cov(x, sin x) = -1 exactly, which leaks a large
# spurious Pearson r, while a ~0.3-period tail cancels it without eroding
# the single-cut separability of the first arch
_SINUSOID_TAIL = 0.3


def _gen_sinusoid(rng, n, params):
    if params["periods"] <= 0:
        raise InvalidParams("periods must be positive")
    span = (params["periods"] + _SINUSOID_TAIL) * 2.0 * math.pi
    xs = _jittered_grid(rng, n, 0.0, span)
    return xs, np.sin(xs) + params["noise_sd"] * rng.standard_normal(n)


def _gen_hetero_step(rng, n, params):
    # left of the threshold: a tight low band; right of it: a wide high
    # band plus a shelf of points pinned at the overall y median, which
    # is what makes the pattern separable in one direction only
    shelf = max(2, n // 5)
    if (n - shelf) % 2:
        shelf += 1
    half = (n - shelf) // 2
    xs = np.concatenate(
        [
            rng.uniform(-20.0, 0.0, half),
            rng.uniform(0.0, 20.0, shelf),
            rng.uniform(0.0, 20.0, half),
        ]
    )
    ys = np.concatenate(
        [
            rng.uniform(0.0, 1.0, half),
            np.full(shelf, 1.5),
            rng.uniform(2.0, 9.0, half),
        ]
    )
    return xs, ys


def _gen_step_plateau(rng, n, params):
    steps = params["step_count"]
    if steps != int(steps) or int(steps) < 2:
        raise InvalidParams("step_count must be an integer >= 2")
    steps = int(steps)
    xs = _jittered_grid(rng, n, 0.0, 1.0)
    # geometrically shrinking plateau widths and fast-growing heights:
    # the top plateau holds so few points, and its height so dominates
    # the mean, that almost half the sample sits right of the x mean yet
    # below the y mean
    weights = 2.0 ** np.arange(steps - 1, -1, -1)
    cuts = np.cumsum(weights) / weights.sum()
    plateau = np.searchsorted(cuts, (np.arange(n) + 0.5) / n, side="right")
    plateau = np.minimum(plateau, steps - 1)
    heights = 200.0 ** plateau
    ramp = 1.0 + 1e-3 * (np.arange(n) + 1.0) / n  # keeps y strictly increasing
    return xs, heights * ramp


_GENERATORS = {
    "noise": _gen_noise,
    "line": _gen_line,
    "curvilinear": _gen_curvilinear,
    "coarse_monotone": _gen_coarse_monotone,
    "sinusoid": _gen_sinusoid,
    "hetero_step": _gen_hetero_step,
    "step_plateau": _gen_step_plateau,
}


def generate(spec: FamilySpec) -> PairedSample:
    """Draw the family's sample; deterministic per (family, n, seed, params)."""
    params = spec.resolved_params()
    rng = spec.seed.rng()
    xs, ys = _GENERATORS[spec.family](rng, spec.n, params)
    return PairedSample(xs, ys)
