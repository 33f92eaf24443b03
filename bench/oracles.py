"""Reference values the benchmark checks the program's outputs against.

They are computed once per run, before timing and outside the workload
process, from the generated arrays rather than from the files the
program reads. r comes from numpy, rho and the large-n tau from
scipy.stats (a local bench-only tool, not a corrkit dependency), the
small-n tau from an O(n^2) sign-matrix oracle, omega from a brute-force
g_objective over every distinct cut, and the split estimator from a
reference loop over the public RngSeed.rng, fit_g and g_objective.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from corrkit import classic, gcorr
from corrkit.core import PairedSample, RngSeed
from corrkit.errors import AllTied, ConstantX
from corrkit.ncc import ncc

import inputs

# iterations of the short plan the split estimator is checked on
SPLIT_CHECK_ITERS = 50
# largest n for the O(n^2) kendall oracle and the brute-force omega
QUADRATIC_MAX_N = 1_000
SPLIT_TOL = 1e-12


def pearson_ref(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def spearman_ref(x: np.ndarray, y: np.ndarray) -> float:
    return float(stats.spearmanr(x, y).statistic)


def kendall_quadratic(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of sign products over all ordered pairs is 2(C - D); tied pairs
    add zero and the denominator is n(n-1), this repo's convention."""
    n = x.shape[0]
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    return float(np.sum(dx * dy)) / (n * (n - 1))


def _tied_pairs(v: np.ndarray) -> int:
    _, counts = np.unique(v, return_counts=True)
    return int(np.sum(counts * (counts - 1) // 2))


def kendall_scipy(x: np.ndarray, y: np.ndarray) -> float:
    """scipy's tau-b rescaled to tau-a with tie-zero pairs:
    tau_b = (C - D) / sqrt((n0 - t_x)(n0 - t_y)), this repo's tau = (C - D) / n0."""
    n = x.shape[0]
    n0 = n * (n - 1) // 2
    denom = (n0 - _tied_pairs(x)) * (n0 - _tied_pairs(y))
    if denom == 0:
        return 0.0
    return float(stats.kendalltau(x, y).statistic) * float(np.sqrt(denom)) / n0


def kendall_ref(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape[0] <= QUADRATIC_MAX_N:
        return kendall_quadratic(x, y)
    return kendall_scipy(x, y)


def omega_bruteforce(s: PairedSample) -> float:
    """Best g_objective over a cut below min(x) and a cut at every
    distinct x, which covers every left/right partition a cut can make."""
    reduced, _, y_median = gcorr.preprocess_ties(s)
    cuts = [np.nextafter(reduced.xs.min(), -np.inf), *np.unique(reduced.xs)]
    return max(gcorr.g_objective(reduced, float(c), y_median)[0] for c in cuts)


def estimate_g_reference(s: PairedSample, plan: gcorr.SplitPlan) -> float:
    """The split protocol written out over public functions."""
    values = []
    for i in range(plan.iterations):
        perm = plan.seed.rng(i).permutation(s.n)
        train, evaluation = perm[: plan.train_size], perm[plan.train_size :]
        try:
            fit = gcorr.fit_g(PairedSample(s.xs[train], s.ys[train]))
        except (AllTied, ConstantX):
            values.append(0.5)
            continue
        held_out = PairedSample(s.xs[evaluation], s.ys[evaluation])
        values.append(gcorr.g_objective(held_out, fit.c, fit.y_median)[0])
    return float(np.mean(values))


def classic_refs(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    return {"r": pearson_ref(x, y), "rho": spearman_ref(x, y), "tau": kendall_ref(x, y)}


def expected(workload: str, seed: int) -> dict:
    """Reference values for one workload and seed.

    ``failures`` lists run-level mismatches found here (the split
    estimator against its reference loop); any entry fails every op.
    """
    failures: list[str] = []
    if workload == "split_panel":
        columns = inputs.machining_columns(seed)
        plan = gcorr.SplitPlan(inputs.SPLIT_TRAIN, inputs.SPLIT_EVAL, SPLIT_CHECK_ITERS, RngSeed(seed))
        pairs = []
        for independent in inputs.INDEPENDENTS:
            for dependent in inputs.DEPENDENTS:
                x, y = columns[independent], columns[dependent]
                s = PairedSample(x, y)
                got, _ = gcorr.estimate_g(s, plan)
                want = estimate_g_reference(s, plan)
                if not abs(got - want) <= SPLIT_TOL:
                    failures.append(
                        f"estimate_g({independent},{dependent}) = {got!r}, "
                        f"reference loop gives {want!r}"
                    )
                pairs.append([independent, dependent, classic_refs(x, y)])
        return {"pairs": pairs, "failures": failures}
    if workload == "wide_compute":
        samples = {}
        for family in inputs.FAMILIES:
            for n in inputs.FAMILY_SIZES:
                s = inputs.family_sample(family, n, seed)
                ref = classic_refs(s.xs, s.ys)
                if n <= QUADRATIC_MAX_N:
                    ref["omega"] = omega_bruteforce(s)
                samples[f"{family}_{n}"] = ref
        return {"samples": samples, "failures": failures}
    if workload == "ingest_compute":
        columns = inputs.wide_columns(seed)
        s = PairedSample(columns["x"], columns["y"])
        ref = {
            "r": pearson_ref(s.xs, s.ys),
            "rho": spearman_ref(s.xs, s.ys),
            # no oracle of the benchmark's own at n = 10^5: these pin the
            # parsed table to the generated one, value for value
            "kappa": classic.fechner(s).kappa,
            "ncc": ncc(s),
            "omega": gcorr.fit_g(s).omega,
        }
        return {"n": s.n, "coefficients": ref, "failures": failures}
    raise ValueError(f"unknown workload {workload!r}")
