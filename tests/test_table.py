"""The coefficient table engine against the per-pair bodies it replaced,
kept here as oracles: every cell of a ``run_panel`` or ``compute_panel``
table equals the per-pair value bit for bit, with the same validity and
note."""

import dataclasses
import functools
import math
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrkit import (
    AllTied,
    ConstantX,
    CorrkitError,
    DegenerateVariance,
    ExperimentConfig,
    InvalidParams,
    NonFiniteValue,
    PairedSample,
    PanelValue,
    RngSeed,
    ShortSample,
    SplitPlan,
    TooFewPoints,
    compute_panel,
    fit_g,
    pearson,
    run_panel,
)
from corrkit import classic, core, gcorr
from corrkit.classic import _discordant_pairs, _key_type, _set_bit_position_sum, kendall_table, pearson_table
from corrkit.core import Table, sample_mean, unit_scaled
from corrkit.gcorr import _split_iterations
from corrkit.ncc import ncc_table

from conftest import count_calls, count_column_run_ids, count_stable_order, seeded_rng
from test_classic import EXTREMES
from test_gcorr import estimate_g_oracle, split_iterations_oracle
from test_shared_orders import bin_counts_oracle


# --- the replaced per-pair bodies, kept as oracles -------------------------------


def run_ids_oracle(sorted_v):
    """The int64 run ids of a sorted vector, computed on their own."""
    ids = np.zeros(sorted_v.shape[0], dtype=np.int64)
    np.cumsum(sorted_v[1:] != sorted_v[:-1], out=ids[1:])
    return ids


def tied_pairs_oracle(ids):
    """Number of pairs inside the runs given by ``run_ids_oracle``."""
    sizes = np.bincount(ids)
    return int(sizes @ (sizes - 1)) // 2


def average_ranks_oracle(a, order):
    """Average-tie ranks of ``a`` given any order that sorts it, from run
    ids found again: tied values share one rank whatever their order."""
    ids = run_ids_oracle(a[order])
    sizes = np.bincount(ids)
    ends = np.cumsum(sizes)
    # the run ending at 1-based position e holds positions e - size + 1 .. e;
    # the integer sum of the first and last is exact, so halving it is too
    ranks = np.empty(a.shape[0], dtype=np.float64)
    ranks[order] = (0.5 * (2 * ends - sizes + 1))[ids]
    return ranks


def dense_ranks_oracle(v, order):
    """0-based ranks of v's distinct values, given an order that sorts v,
    and the number of tied pairs."""
    ids = run_ids_oracle(v[order])
    ranks = np.empty_like(ids)
    ranks[order] = ids
    return ranks, tied_pairs_oracle(ids)


def pearson_arrays_oracle(xs, ys):
    xs, ys = unit_scaled(xs), unit_scaled(ys)
    dx = unit_scaled(xs - xs.mean())
    dy = unit_scaled(ys - ys.mean())
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        which = "xs" if sxx == 0.0 else "ys"
        raise DegenerateVariance(f"{which} is constant; r undefined")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    if math.isnan(r):
        raise NonFiniteValue(detail="r evaluated to NaN")
    return min(1.0, max(-1.0, r))


def spearman_pair_oracle(s):
    alpha = average_ranks_oracle(s.xs, np.argsort(s.xs, kind="stable"))
    beta = average_ranks_oracle(s.ys, np.argsort(s.ys, kind="stable"))
    try:
        return pearson_arrays_oracle(alpha, beta)
    except DegenerateVariance:
        raise DegenerateVariance("a rank vector is constant (all values tied)") from None


def discordant_pairs_oracle(a):
    """The one-row merge count: pairs i < j with a[i] > a[j]."""
    n = a.shape[0]
    pos = np.arange(n)
    count = 0
    level = 0
    while (1 << level) < n:
        base = (pos >> (level + 1)) * n
        side = (pos >> level) & 1
        keys = base + a
        keys <<= 1
        keys |= side
        keys.sort()
        count += int(side @ pos) - int((keys & 1) @ pos)
        keys >>= 1
        keys -= base
        a = keys
        level += 1
    return count


def stacked_discordant_pairs_oracle(a):
    """The former stacked merge count of every row of (rows, n) ranks:
    int64 keys ((block * n + a) << 1) | side, with block = row * n + the
    run pair's index in its row, and one dot product per level."""
    rows, n = a.shape
    pos = np.arange(n)
    flat_pos = np.tile(pos, rows)
    a = (a + (np.arange(rows) * (n * n))[:, None]).reshape(-1)
    before = 0
    after = np.zeros(rows * n, dtype=np.int64)
    level = 0
    while (1 << level) < n:
        base = (flat_pos >> (level + 1)) * n
        side = (flat_pos >> level) & 1
        keys = base + a
        keys <<= 1
        keys |= side
        keys.sort()
        before += int(side[:n] @ pos)
        after += keys & 1
        keys >>= 1
        keys -= base
        a = keys
        level += 1
    return before - after.reshape(rows, n) @ pos


def level_loop_discordant_pairs_oracle(a):
    """The former in-place merge loop of every row of (rows, n) ranks, in
    the keys' own type: per level, block * 2n plus the value a << 1 with
    its side bit, sorted, then the value back with the next side bit,
    ten elementwise passes beside the sort."""
    rows, n = a.shape
    levels = (n - 1).bit_length()
    key_t = _key_type(rows, n)
    one, two_n, not_one, levels_t = (np.array(v, dtype=key_t) for v in (1, 2 * n, ~1, levels))
    side_bit = np.array(1, dtype=np.int8)
    grid = np.arange(rows, dtype=key_t)[:, None] << levels_t
    grid = (grid | np.arange(n, dtype=key_t)).reshape(-1)
    values = np.left_shift(a.reshape(-1), one, dtype=key_t)
    values |= grid & one
    shifted, block, keys = (np.empty_like(grid) for _ in range(3))
    right = np.empty(rows * n, dtype=np.int8)
    landed = np.zeros(rows * n, dtype=np.int8)
    for shift in np.arange(1, levels + 1, dtype=key_t)[:, None]:
        np.right_shift(grid, shift, out=shifted)
        np.multiply(shifted, two_n, out=block)
        np.add(block, values, out=keys)
        keys.sort()
        np.copyto(right, keys, casting="unsafe")
        right &= side_bit
        landed += right
        keys &= not_one
        np.subtract(keys, block, out=values)
        shifted &= one
        values |= shifted
    return _set_bit_position_sum(n) - landed.reshape(rows, n) @ np.arange(n)


def kendall_pair_oracle(s):
    n = s.n
    x_rank, x_ties = dense_ranks_oracle(s.xs, np.argsort(s.xs, kind="stable"))
    y_rank, y_ties = dense_ranks_oracle(s.ys, np.argsort(s.ys, kind="stable"))
    joint = x_rank * n
    joint += y_rank
    joint.sort()
    total = (
        n * (n - 1) // 2
        - x_ties
        - y_ties
        + tied_pairs_oracle(run_ids_oracle(joint))
        - 2 * discordant_pairs_oracle(joint % n)
    )
    return 2.0 * total / (n * (n - 1))


def kappa_pair_oracle(s):
    """kappa from the x-sorted step form of the Fechner trace."""
    order = np.argsort(s.xs, kind="stable")
    i0 = int(np.sum(s.xs[order] < sample_mean(s.xs)))
    binary = (s.ys[order] >= sample_mean(s.ys)).astype(np.int8)
    terms = np.where(np.arange(s.n) < i0, 1 - 2 * binary, 2 * binary - 1)
    return float(np.sum(terms)) / s.n


def entropy_oracle(counts, n, b):
    p = counts[counts > 0] / n
    return float(-np.sum(p * (np.log(p) / math.log(b))))


def ncc_pair_oracle(s, b):
    if s.n < b:
        raise TooFewPoints(f"need at least b={b} points, got {s.n}")
    counts = bin_counts_oracle(s, b)
    h_rows = entropy_oracle(counts.sum(axis=1), s.n, b)
    h_cols = entropy_oracle(counts.sum(axis=0), s.n, b)
    return h_rows + h_cols - entropy_oracle(counts.ravel(), s.n, b)


PAIR_ORACLES = {
    "r": lambda s, b, split: pearson_arrays_oracle(s.xs, s.ys),
    "rho": lambda s, b, split: spearman_pair_oracle(s),
    "tau": lambda s, b, split: kendall_pair_oracle(s),
    "kappa": lambda s, b, split: kappa_pair_oracle(s),
    "ncc": lambda s, b, split: ncc_pair_oracle(s, b),
    # the argsort split engine, which shares no code with the batched one
    "omega": lambda s, b, split: estimate_g_oracle(s, split)[0] if split is not None else fit_g(s).omega,
}


def panel_oracle(s, b, split):
    """The per-pair panel under the degeneracy policy, one coefficient
    after another."""
    cells = {}
    for name, oracle in PAIR_ORACLES.items():
        try:
            cells[name] = PanelValue(float(oracle(s, b, split)))
        except (DegenerateVariance, TooFewPoints) as exc:
            cells[name] = PanelValue(float("nan"), valid=False, note=str(exc))
        except AllTied:
            cells[name] = PanelValue(0.5, note="Y constant: uncorrelated")
        except ConstantX:
            cells[name] = PanelValue(0.5, note="X constant: uncorrelated")
    return cells


def cell_bits(pv):
    return pv.valid, pv.note, struct.pack("<d", pv.value)


def assert_panel_matches(panel, s, b, split, where):
    expected = panel_oracle(s, b, split)
    for name, pv in panel.as_dict().items():
        assert cell_bits(pv) == cell_bits(expected[name]), (where, name, pv, expected[name])


# --- drawn tables -----------------------------------------------------------------


@st.composite
def table_columns(draw):
    """1-4 independents and 1-3 dependents of n = 2..60 rows: extreme
    magnitudes, small-integer ties, constant columns or normal draws."""
    n = draw(st.integers(2, 60))
    kinds = st.sampled_from(["extreme", "ties", "constant", "normal"])

    def column():
        kind = draw(kinds)
        if kind == "extreme":
            return draw(st.lists(st.sampled_from(EXTREMES), min_size=n, max_size=n))
        if kind == "ties":
            width = draw(st.integers(1, 4))
            return [float(v) for v in draw(st.lists(st.integers(0, width), min_size=n, max_size=n))]
        if kind == "constant":
            return [draw(st.sampled_from(EXTREMES))] * n
        seed = draw(st.integers(0, 2**32 - 1))
        return list(np.random.default_rng(seed).normal(size=n))

    independents = [column() for _ in range(draw(st.integers(1, 4)))]
    dependents = [column() for _ in range(draw(st.integers(1, 3)))]
    return independents, dependents


def write_table(path, columns):
    names = list(columns)
    n = len(next(iter(columns.values())))
    lines = [",".join(names)]
    lines += [",".join(repr(float(columns[name][i])) for name in names) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_columns(), st.sampled_from([2, 10]), st.integers(0, 2**32 - 1))
def test_every_cell_equals_the_per_pair_oracle(columns, b, seed):
    independents, dependents = columns
    named = {f"x{i}": v for i, v in enumerate(independents)}
    named.update({f"y{j}": v for j, v in enumerate(dependents)})
    n = len(independents[0])
    plans = [None]
    if n >= 3:
        q = min(max(2, 3 * n // 5), n - 1)
        plans.append(SplitPlan(q, n - q, 5, RngSeed(seed)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_table(path, named)
        for plan in plans:
            cfg = ExperimentConfig(
                input=path,
                independents=tuple(f"x{i}" for i in range(len(independents))),
                dependents=tuple(f"y{j}" for j in range(len(dependents))),
                split=plan,
                b=b,
            )
            report = run_panel(cfg)
            assert len(report.rows) == len(independents) * len(dependents)
            for row in report.rows:
                s = PairedSample(named[row.independent], named[row.dependent])
                assert_panel_matches(row.panel, s, b, plan, (row.independent, row.dependent))
    # the 1x1 table of one sample
    s = PairedSample(independents[0], dependents[-1])
    for plan in plans:
        assert_panel_matches(compute_panel(s, b, plan), s, b, plan, "compute_panel")


def test_pairs_split_over_many_blocks_match_the_oracle(tmp_path, monkeypatch):
    # a cell budget of 200 stacks 5 Kendall or kappa rows of n = 40 per
    # block (5, 5, 5 for 15 pairs) and one ncc row (40 + 10 * 10 cells)
    monkeypatch.setattr(core, "BLOCK_CELLS", 200)
    rng = seeded_rng(90)
    named = {f"x{i}": np.round(rng.normal(size=40), 1) for i in range(4)}
    named.update({f"y{j}": rng.integers(0, 5, 40).astype(float) for j in range(3)})
    named["x2"] = named["y1"] * -2.0  # one pair ranked exactly opposite
    # distinct values: in the middle block, the rows of x4 skip Kendall's
    # joint tie count between rows of x1 and x2, whose pairs need it
    named["x4"] = rng.normal(size=40)
    path = tmp_path / "table.csv"
    write_table(path, named)
    cfg = ExperimentConfig(
        input=path, independents=("x0", "x1", "x4", "x2", "x3"), dependents=("y0", "y1", "y2")
    )
    for row in run_panel(cfg).rows:
        s = PairedSample(named[row.independent], named[row.dependent])
        assert_panel_matches(row.panel, s, 10, None, (row.independent, row.dependent))


def test_a_column_in_both_roles_is_sorted_once(tmp_path, monkeypatch):
    calls = count_stable_order(monkeypatch)
    run_id_calls = count_column_run_ids(monkeypatch)
    rng = seeded_rng(91)
    named = {"a": rng.normal(size=30), "b": np.round(rng.normal(size=30), 1)}
    path = tmp_path / "table.csv"
    write_table(path, named)
    cfg = ExperimentConfig(input=path, independents=("a", "b", "a"), dependents=("a", "b"))
    report = run_panel(cfg)
    assert [(row.independent, row.dependent) for row in report.rows] == [
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "a"), ("a", "b")
    ]
    assert len(calls) == 2
    assert len(run_id_calls) == 2
    for row in report.rows:
        s = PairedSample(named[row.independent], named[row.dependent])
        assert_panel_matches(row.panel, s, 10, None, (row.independent, row.dependent))


def test_a_repeated_pair_is_computed_once(tmp_path, monkeypatch):
    # a cell budget of 200 fits 6 iterations of n = 30 per block, so 20
    # iterations run as blocks of 6, 6, 6 and 2
    monkeypatch.setattr(core, "BLOCK_CELLS", 200)
    rng = seeded_rng(94)
    named = {"a": rng.normal(size=30), "b": np.round(rng.normal(size=30), 1)}
    path = tmp_path / "table.csv"
    write_table(path, named)
    plan = SplitPlan(18, 12, 20, RngSeed(6))
    sweeps = count_calls(monkeypatch, gcorr, "_sweep")
    signs = count_calls(monkeypatch, gcorr, "_training_signs")
    cfg = ExperimentConfig(input=path, independents=("a", "b", "a"), dependents=("a", "b"), split=plan)
    report = run_panel(cfg)
    pairs = [(row.independent, row.dependent) for row in report.rows]
    assert pairs == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "a"), ("a", "b")]
    # per block one sweep per distinct independent and chunk of its
    # dependents: 200 // (30 * 6) = 1 dependent a chunk in the blocks of 6
    # (2 x 2 sweeps, not one per pair, 6), and both in the block of 2; and
    # one sign pass per dependent
    assert [train.shape[1] for _, _, train in sweeps] == [6] * (3 * 2 * 2) + [2 * 2] * 2
    assert len(signs) == 2 * 4
    # each row keeps the bits of its pair swept on its own
    _, _, scores = _split_iterations(Table(named.values(), [(0, 0), (0, 1), (1, 0), (1, 1)] * 2), plan)
    for row, values in zip(report.rows, scores[[0, 1, 2, 3, 0, 1]]):
        assert row.panel.omega.value.hex() == float(values.mean()).hex(), (row.independent, row.dependent)
        s = PairedSample(named[row.independent], named[row.dependent])
        assert_panel_matches(row.panel, s, 10, plan, (row.independent, row.dependent))
    assert report.rows[4] == report.rows[0] and report.rows[5] == report.rows[1]


@pytest.mark.parametrize(
    "columns, pairs, what",
    [
        (2, [(1.9, 0)], "1.9"),
        (2, [(True, False)], "True"),
        (2, [(0, np.True_)], "True"),
        (2, [(-1, 0)], "-1"),
        (2, [(0, 2)], "2"),
        (2, [(0, np.int64(2))], "2"),
        (2, [("0", 1)], "'0'"),
        (0, [], "at least one column"),
        (0, [(0, 0)], "at least one column"),
    ],
)
def test_a_table_refuses_pair_indices_that_name_no_column(columns, pairs, what):
    rng = seeded_rng(95)
    with pytest.raises(InvalidParams, match=re.escape(what)):
        Table([rng.normal(size=5) for _ in range(columns)], pairs)


def test_a_table_takes_numpy_integer_pair_indices():
    rng = seeded_rng(95)
    table = Table([rng.normal(size=5) for _ in range(3)], [(np.int64(2), np.uint8(0)), (np.intp(1), 1)])
    assert table.pairs == ((2, 0), (1, 1))
    assert all(type(k) is int for pair in table.pairs for k in pair)


def test_split_tables_over_many_blocks_match_both_split_oracles(tmp_path, monkeypatch):
    # a cell budget of 200 fits 5 iterations of n = 40 per block, so 23
    # iterations run as blocks of 5, 5, 5, 5 and 3, each drawn once, and
    # each sweep takes one dependent
    monkeypatch.setattr(core, "BLOCK_CELLS", 200)
    assert_split_tables_match_both_split_oracles(tmp_path, [23])


def test_stacked_sweeps_match_both_split_oracles(tmp_path, monkeypatch):
    # a cell budget of 480 fits 12 iterations of n = 40 per block and
    # stacks 480 // (40 * block) pairs of an independent a sweep: 5
    # iterations run as one block, 2 pairs a sweep; 26 as blocks of 12, 12
    # and 2, one pair a sweep, then up to 6: the 4 of each independent of
    # the panel, and 6 and 2 of the 8 pairs of a in the table passed to
    # the engine directly, which names each of them twice
    monkeypatch.setattr(core, "BLOCK_CELLS", 480)
    sweeps = count_calls(monkeypatch, gcorr, "_sweep")
    assert_split_tables_match_both_split_oracles(tmp_path, [5, 26])
    assert {train.shape[1] for *_, train in sweeps} == {2 * 5, 12, 6 * 2, 4 * 2, 2 * 2}


def assert_split_tables_match_both_split_oracles(tmp_path, iterations):
    rng = seeded_rng(93)
    named = {"a": np.round(rng.normal(size=40), 1), "b": rng.integers(0, 4, 40).astype(float)}
    named["c"] = rng.normal(size=40)
    named["d"] = np.where(rng.random(40) < 0.7, 2.0, rng.normal(size=40))  # a median tie
    named["e"] = np.full(40, 3.0)  # every training partition degenerate
    path = tmp_path / "table.csv"
    write_table(path, named)
    names = list(named)
    # a and b in both roles, with repeated pairs
    independents, dependents = ("a", "b", "a", "c", "e"), ("a", "b", "d", "e")
    for q, count in ((q, count) for q in (2, 17, 24, 39) for count in iterations):
        plan = SplitPlan(q, 40 - q, count, RngSeed(q))
        cfg = ExperimentConfig(input=path, independents=independents, dependents=dependents, split=plan)
        report = run_panel(cfg)
        assert len(report.rows) == 20
        for row in report.rows:
            s = PairedSample(named[row.independent], named[row.dependent])
            assert_panel_matches(row.panel, s, 10, plan, (q, row.independent, row.dependent))
        pairs = [(names.index(x), names.index(y)) for x in independents for y in dependents]
        constant, cuts, scores = _split_iterations(Table(named.values(), pairs), plan)
        for p, (i, j) in enumerate(pairs):
            s = PairedSample(named[names[i]], named[names[j]])
            expected_constant, expected_cuts, expected_scores = split_iterations_oracle(s, plan)
            assert constant[p].tolist() == expected_constant.tolist(), (q, i, j)
            fitted = ~constant[p]
            assert cuts[p][fitted].tobytes() == expected_cuts[fitted].tobytes(), (q, i, j)
            assert scores[p].tolist() == expected_scores.tolist(), (q, i, j)


def test_stacked_sweeps_stay_in_the_cell_budget():
    # 40 dependents of one independent at n = 50, a block of 1,310
    # iterations: 65,536 // (50 * 1,310) = 1 dependent a sweep. Stacking
    # all 40 in one sweep peaks at about 36 MB, against 7.8 MB
    rng = seeded_rng(97)
    table = Table([rng.normal(size=50) for _ in range(41)], [(0, j) for j in range(1, 41)])
    for k in range(41):
        table.sorted(k)
    plan = SplitPlan(30, 20, 1310, RngSeed(8))
    tracemalloc.start()
    try:
        _split_iterations(table, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_a_table_checks_its_columns_and_a_sample_is_its_own_1x1_table(monkeypatch):
    calls = count_calls(monkeypatch, core, "stable_order")
    rng = seeded_rng(92)
    columns = [rng.normal(size=20) for _ in range(3)]
    table = Table(columns, [(0, 1), (2, 1)])
    # two of a table's columns as a sample: a checked, frozen copy of them
    s = PairedSample(table.columns[2], table.columns[1])
    assert s.xs is not table.columns[2] and s.ys is not table.columns[1]
    assert (s.xs.tobytes(), s.ys.tobytes()) == (columns[2].tobytes(), columns[1].tobytes())
    assert not s.xs.flags.writeable and not s.ys.flags.writeable
    # nothing sorts before the first pass is asked for; then both columns in one call
    assert calls == []
    assert s.x_order is s.sorted(0).order
    assert len(calls) == 1 and calls[0][0] is s.values
    assert s.x_sorted is s.sorted(0) and s.y_sorted is s.sorted(1)
    assert len(calls) == 1
    checked = PairedSample(columns[2], columns[1])
    assert (s.n, s.xs.tobytes(), s.ys.tobytes()) == (checked.n, checked.xs.tobytes(), checked.ys.tobytes())
    assert s.swapped().xs.tobytes() == checked.ys.tobytes()
    # a sample is its own 1x1 table; its swap is a checked copy that sorts on first use
    assert isinstance(checked, Table) and isinstance(s, Table)
    assert checked.columns[0] is checked.xs and checked.columns[1] is checked.ys and checked.pairs == ((0, 1),)
    assert pearson_table(checked) == [pearson(checked)]
    passes = (checked.x_sorted, checked.y_sorted)
    assert len(calls) == 2
    swapped = checked.swapped()
    assert (swapped.xs.tobytes(), swapped.ys.tobytes()) == (checked.ys.tobytes(), checked.xs.tobytes())
    assert not swapped.xs.flags.writeable and not swapped.ys.flags.writeable
    assert len(calls) == 2
    for mine, theirs in zip((swapped.x_sorted, swapped.y_sorted), passes[::-1]):
        assert_same_bits(mine.order, theirs.order)
        assert_same_bits(mine.runs, theirs.runs)
    assert len(calls) == 3 and calls[2][0] is swapped.values
    assert [f.name for f in dataclasses.fields(PairedSample)] == ["xs", "ys"]
    for name in ("xs", "columns"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(checked, name, columns[0])
    bad = columns[1].copy()
    bad[4] = np.inf
    with pytest.raises(NonFiniteValue) as err:
        Table([columns[0], bad], [(0, 1)])
    assert err.value.row == 5
    with pytest.raises(InvalidParams):
        Table([columns[0], columns[1][:-1]], [(0, 1)])
    with pytest.raises(ShortSample):
        Table([[1.0], [2.0]], [(0, 1)])


# --- Kendall's packed keys on both sides of each integer width -------------------


@functools.cache
def last_n_of_width(rows):
    """For each key type of ``_key_type(rows, n)`` below int64, the
    largest n it holds: the widths change at these n and the next.
    ``_key_type`` never narrows as n grows, so each bound is bisected."""
    last = {}
    for key_t in map(np.dtype, (np.int8, np.int16, np.int32)):
        fits, outgrows = 1, 1 << 16
        while outgrows - fits > 1:
            mid = (fits + outgrows) // 2
            if _key_type(rows, mid).itemsize <= key_t.itemsize:
                fits = mid
            else:
                outgrows = mid
        if fits >= 2 and _key_type(rows, fits) == key_t:
            last[key_t] = fits
    return last


def ranks_at(rng, rows, n):
    """Distinct ranks (permutations) and heavily tied ones, each as a
    (rows, n) int64 array of values in [0, n)."""
    distinct = np.stack([rng.permutation(n) for _ in range(rows)])
    tied = rng.integers(0, max(1, n // 7), (rows, n))
    return distinct, tied


def test_key_widths_change_where_the_keys_outgrow_them():
    # one row's largest key is n^2 - 1 (n even) or n^2 + n - 1 (n odd);
    # with three rows the last row's blocks start at 2 << bit_length(n - 1)
    widths = (np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32))
    assert last_n_of_width(1) == dict(zip(widths, (10, 180, 46340)))
    assert last_n_of_width(3) == dict(zip(widths, (5, 93, 23987)))
    assert _key_type(1, 46341) == _key_type(3, 23988) == np.int64


def test_merge_count_matches_the_oracles_on_both_sides_of_each_width():
    rng = seeded_rng(95)
    for rows in (1, 3):
        for last in last_n_of_width(rows).values():
            for n in (last, last + 1):
                for a in ranks_at(rng, rows, n):
                    got = _discordant_pairs(a)
                    assert got.tolist() == stacked_discordant_pairs_oracle(a).tolist(), (rows, n)
                    assert got.tolist() == [discordant_pairs_oracle(row) for row in a], (rows, n)
                    assert_same_bits(got, level_loop_discordant_pairs_oracle(a))


def merge_inputs(columns):
    """Kendall's merge input for x = columns[0] against each other column:
    the y dense ranks of each pair in (x, y) order, as (pairs, n) rows."""
    n = len(columns[0])
    x_rank, *y_ranks = (dense_ranks_oracle(v, np.argsort(v, kind="stable"))[0] for v in columns)
    rows = []
    for y_rank in y_ranks:
        joint = x_rank * n + y_rank
        joint.sort()
        rows.append(joint % n)
    return np.array(rows, dtype=np.int64).reshape(-1, n)


def test_merge_count_matches_the_level_loop_on_tie_heavy_samples(tie_heavy_corpus):
    for s, _ in tie_heavy_corpus:
        a = merge_inputs([s.xs, s.ys])
        assert_same_bits(_discordant_pairs(a), level_loop_discordant_pairs_oracle(a))
    # stacked: the corpus's columns of one n, the first against each other
    for columns in corpus_tables(tie_heavy_corpus):
        if len(columns) > 1:
            a = merge_inputs(columns)
            assert_same_bits(_discordant_pairs(a), level_loop_discordant_pairs_oracle(a))


def test_stacked_kendall_rows_at_the_int32_bound_match_the_pair_oracle(monkeypatch):
    # a cell budget of 3 n stacks the three pairs of each table in one block
    rng = seeded_rng(96)
    last = last_n_of_width(3)[np.dtype(np.int32)]
    for n in (last, last + 1):
        monkeypatch.setattr(core, "BLOCK_CELLS", 3 * n)
        xs, ys = ranks_at(rng, 1, n)
        columns = [xs[0], ys[0], rng.permutation(n), rng.integers(0, 5, n)]
        table = Table(columns, [(0, 1), (2, 3), (1, 2)])
        want = [kendall_pair_oracle(PairedSample(columns[i], columns[j])) for i, j in table.pairs]
        assert kendall_table(table) == want


# --- the per-column layer, kept as the oracle of the stacked one ------------------


def stable_order_oracle(v):
    """One column's sort pass on its own: its order, run ids and whether
    no two values tie, as the per-column ``stable_order`` built them."""
    order = np.argsort(v)
    n = order.shape[0]
    sorted_v = v[order]
    runs = np.zeros(n, dtype=core.int_for(n))
    np.add.accumulate(sorted_v[1:] != sorted_v[:-1], dtype=runs.dtype, out=runs[1:])
    keys = np.multiply(runs, n, dtype=np.int64)
    keys += order
    keys.sort()
    keys %= n
    return keys, runs, int(runs[-1]) == n - 1


def unit_scaled_oracle(v):
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return v
    return np.ldexp(v, -np.frexp(peak)[1])


def deviations_oracle(v):
    """One column's scaled deviations and their sum of squares."""
    v = unit_scaled_oracle(v)
    d = unit_scaled_oracle(v - v.mean())
    return d, float(d @ d)


def sample_mean_oracle(v):
    """One column's mean: np.mean, or where it is not finite the clamped
    sum of v / n."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(v.mean())
        if not math.isfinite(m):
            m = min(max(float(np.sum(v / v.shape[0])), float(v.min())), float(v.max()))
    return m


def column_average_ranks_oracle(v):
    """One column's average-tie ranks from its own sort pass and run bounds."""
    order, runs, distinct = stable_order_oracle(v)
    if distinct:
        positions = np.arange(1.0, v.shape[0] + 1)
    else:
        bounds = np.searchsorted(runs, np.arange(int(runs[-1]) + 2, dtype=runs.dtype))
        sizes = bounds[1:] - bounds[:-1]
        positions = 0.5 * (np.repeat(bounds[:-1], sizes) + np.repeat(bounds[1:], sizes) + 1)
    ranks = np.empty_like(positions)
    ranks[order] = positions
    return ranks


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_column_layer_matches_the_oracles(columns):
    """Every row of each stacked column statistic of a table of
    ``columns`` equals the per-column oracle's value bit for bit."""
    table = Table(columns, [(0, 0)])
    block = table.sorted_all()
    d, squares = classic._deviations(np.array(table.values))
    ranks = classic._average_ranks(block)
    means = core.row_means(table.values)
    for k, v in enumerate(table.columns):
        order, runs, distinct = stable_order_oracle(v)
        assert_same_bits(block.order[k], order)
        assert_same_bits(block.runs[k], runs)
        assert block.distinct[k] == distinct
        assert table.sorted(k) is not None and table.sorted(k).distinct == distinct
        d_k, square = deviations_oracle(v)
        assert_same_bits(d[k], d_k)
        assert_same_bits(squares[k], square)
        assert_same_bits(ranks[k], column_average_ranks_oracle(v))
        assert_same_bits(means[k], sample_mean_oracle(v))
        assert_same_bits(sample_mean(v), sample_mean_oracle(v))


def outcome(table_function, table, b):
    """The cells of a table function as comparable bits: a float's bytes
    or an error's type and text; an error it raises stands for all."""
    try:
        cells = table_function(table, b)
    except CorrkitError as exc:
        return type(exc), str(exc)
    return [(type(c), str(c)) if isinstance(c, CorrkitError) else struct.pack("<d", c) for c in cells]


TABLE_FUNCTIONS = (
    classic.pearson_table,
    classic.spearman_table,
    classic.kendall_table,
    classic.fechner_table,
    ncc_table,
    gcorr.omega_table,
)


def assert_cells_equal_their_one_by_one_cells(columns, pairs):
    table = Table(columns, pairs)
    b = 2 if table.n < 10 else 10
    for table_function in TABLE_FUNCTIONS:
        cells = outcome(table_function, table, b)
        ones = [outcome(table_function, PairedSample(columns[i], columns[j]), b) for i, j in pairs]
        if isinstance(cells, tuple):  # raised for the table: so for some pair
            assert cells in ones, table_function.__name__
        else:
            assert cells == [one if isinstance(one, tuple) else one[0] for one in ones], table_function.__name__


MAX, TINY = 1.7976931348623157e308, 5e-324

# n = 6: each edge case of the column layer in one table, as rows of one block
EDGE_COLUMNS = [
    [MAX, -MAX, 1.0, MAX, -MAX, 0.0],
    [TINY, -TINY, 0.0, TINY, 1e-310, -0.0],
    [0.0, -0.0, 0.0, -0.0, 1.0, -1.0],
    [0.0] * 6,
    [-0.0, 0.0, -0.0, -0.0, 0.0, 0.0],
    [3.5] * 6,
    [MAX, MAX, MAX, MAX / 2, MAX, 1.0],  # the plain mean overflows
    [-MAX, -MAX, -MAX / 3, -MAX / 3, -MAX, -MAX],
    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
]
EDGE_COLUMNS_N2 = [[MAX, MAX], [-MAX, MAX], [TINY, -TINY], [0.0, -0.0], [0.0, 0.0], [2.0, 2.0], [1.0, -1.0]]


@pytest.mark.parametrize("columns", [EDGE_COLUMNS, EDGE_COLUMNS_N2], ids=["n6", "n2"])
def test_the_stacked_column_layer_matches_the_per_column_oracles_on_edge_cases(columns):
    columns = [np.array(c) for c in columns]
    assert_column_layer_matches_the_oracles(columns)
    # each column alone, a 1-row block, too
    for column in columns:
        assert_column_layer_matches_the_oracles([column])
    k = len(columns)
    assert_cells_equal_their_one_by_one_cells(columns, [(i, j) for i in range(k) for j in range(k)])


def corpus_tables(tie_heavy_corpus, width=8):
    """The corpus's columns, x and y of every sample, grouped by length
    into tables of up to ``width`` columns."""
    by_n = {}
    for s, _ in tie_heavy_corpus:
        by_n.setdefault(s.n, []).extend([s.xs, s.ys])
    return [columns[start : start + width] for columns in by_n.values() for start in range(0, len(columns), width)]


def test_the_stacked_column_layer_matches_the_per_column_oracles_on_tie_heavy_tables(tie_heavy_corpus):
    tables = corpus_tables(tie_heavy_corpus)
    for columns in tables:
        assert_column_layer_matches_the_oracles(columns)
    for columns in tables[::9]:
        k = len(columns)
        assert_cells_equal_their_one_by_one_cells(columns, [(i, (i + 1) % k) for i in range(k)] + [(0, 0)])


def test_a_table_sorts_every_column_in_one_call_and_keeps_its_block(monkeypatch):
    calls = count_calls(monkeypatch, core, "stable_order")
    columns = [seeded_rng(93, k).integers(0, 5, 30).astype(float) for k in range(4)]
    table = Table(columns, [(0, 1), (2, 3)])
    assert calls == []
    first = table.sorted(2)
    # the first pass asked for sorts the whole table, the pairs' columns and no fewer
    assert len(calls) == 1 and calls[0][0] is table.values and table.values.shape == (4, 30)
    block = table.sorted_all()
    assert table.sorted(2) is first and table.sorted_all() is block
    for k in range(4):
        assert table.sorted(k) is table.sorted(k)
        assert_same_bits(block.order[k], table.sorted(k).order)
        assert_same_bits(block.runs[k], table.sorted(k).runs)
        assert table.sorted(k).distinct == block.distinct[k]
        order, runs, distinct = stable_order_oracle(columns[k])
        assert_same_bits(block.order[k], order)
        assert_same_bits(block.runs[k], runs)
        assert block.distinct[k] == distinct
        assert not table.sorted(k).order.flags.writeable and not table.sorted(k).runs.flags.writeable
    assert not block.order.flags.writeable and not block.runs.flags.writeable
    assert len(calls) == 1
