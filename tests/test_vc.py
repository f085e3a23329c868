"""Shattering, the growth bound, and exact epsilon-nets."""

import itertools
import json
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vcreg
from vcreg import (InputError, Measure, SetFamily, epsilon_net, fiber_family,
                   net_size_formula, sauer_bound, shatter_function, vc_dimension)
from vcreg.oracles import block_vc_dimension, brute_vc_dimension
from vcreg.instances import block_pair_graph, half_graph, interval_family
from vcreg.stable import ladder_index
from vcreg import vc
from vcreg.vc import vc_dimension_matrix


def test_interval_family_dimension_is_two():
    F = interval_family(6)
    d = vc_dimension(F)
    assert d.value == 2 and not d.capped and not d.budget_exhausted
    assert brute_vc_dimension(F.members, 6) == 2


def test_half_graph_fibers_dimension_is_one():
    F = fiber_family(half_graph(8), (0,))
    assert vc_dimension(F).value == 1


def test_empty_family_dimension_is_zero():
    F = SetFamily.from_sets(5, [])
    assert vc_dimension(F).value == 0


def test_shatter_function_frozen_values():
    F = interval_family(10)
    assert shatter_function(F, 3) == 7
    assert sauer_bound(2, 3) == 7
    assert shatter_function(fiber_family(half_graph(8), (0,)), 4) <= sauer_bound(1, 4)
    # monotone and capped by the power set
    prev = 0
    for m in range(6):
        cur = shatter_function(F, m)
        assert prev <= cur <= 2 ** m
        prev = cur


def test_shatter_function_of_empty_family_is_zero():
    F = SetFamily.from_sets(3, [])
    assert [shatter_function(F, n) for n in range(4)] == [0, 0, 0, 0]
    assert shatter_function(SetFamily.from_sets(3, [()]), 0) == 1


def test_negative_budget_is_input_error():
    with pytest.raises(InputError):
        vc_dimension(interval_family(8), budget=-1)
    with pytest.raises(InputError):
        ladder_index(half_graph(4), (0,), budget=-1)


def test_budget_truncation_is_reported():
    F = interval_family(12)
    d = vc_dimension(F, budget=1)
    assert d.budget_exhausted
    assert d.display().startswith(">=")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 9),
       count=st.integers(1, 12))
def test_sauer_holds_on_random_families(seed, n, count):
    rng = random.Random(seed)
    sets = [tuple(v for v in range(n) if rng.getrandbits(1))
            for _ in range(count)]
    F = SetFamily.from_sets(n, sets)
    d = vc_dimension(F)
    assert shatter_function(F, n) <= sauer_bound(d.value, n)


def test_greedy_net_frozen_value():
    net = epsilon_net(interval_family(20), Measure.uniform(0, 20),
                      Fraction(1, 4), strategy="greedy")
    assert net.verified
    assert net.points == (4, 9, 14, 19)


def test_random_net_verifies_and_records_attempts():
    net = epsilon_net(interval_family(60), Measure.uniform(0, 60),
                      Fraction(1, 4), strategy="random", seed=0)
    assert net.verified
    assert net.meta["attempts"] >= 1
    assert net.meta["size_ln"] == net_size_formula(net.meta["d_used"],
                                                   Fraction(1, 4))["size_ln"]


def test_net_weighted_measure():
    # all the mass on the last 4 points; only intervals covering them are heavy
    n = 12
    w = [Fraction(0)] * 8 + [Fraction(1, 4)] * 4
    net = epsilon_net(interval_family(n), Measure(0, tuple(w)), Fraction(1, 2))
    assert net.verified
    assert all(p >= 8 for p in net.points)


def test_unknown_strategy_rejected():
    with pytest.raises(InputError):
        epsilon_net(interval_family(5), Measure.uniform(0, 5), Fraction(1, 2),
                    strategy="annealing")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 10))
def test_greedy_net_always_verifies(seed, n):
    rng = random.Random(seed)
    sets = [tuple(v for v in range(n) if rng.getrandbits(1)) for _ in range(8)]
    F = SetFamily.from_sets(n, sets)
    net = epsilon_net(F, Measure.uniform(0, n), Fraction(1, 3))
    assert net.verified


FIXED_BUDGETS = (None, 0, 1, 2047, 2048, 2049)


def _level_budgets(mat: np.ndarray, cap: int) -> list[int]:
    """Budgets on either side of each level's edges in the unbudgeted search:
    the first shattered t-set (from the oracle's witness at cap t) and the
    work spent by the end of the level, the last level's included."""
    if mat.shape[0] < 2:
        return []
    reps = sorted(np.unique(mat, axis=1, return_index=True)[1].tolist())
    spent, edges = 0, []
    for t in range(1, min(cap, mat.shape[0].bit_length() - 1) + 1):
        combos = list(itertools.combinations(range(len(reps)), t))
        d = block_vc_dimension(mat, cap=t)
        if d.value < t:
            edges.append(spent + len(combos))
            break
        h = combos.index(tuple(reps.index(w) for w in d.witness))
        edges.append(spent + h + 1)
        spent += min(2048 * (h // 2048 + 1), len(combos))
        edges.append(spent)
    return [b for e in edges for b in (e - 1, e)]


def _same_as_block_search(mat: np.ndarray, caps):
    """Whole results equal, also with row and sibling blocks so small that
    every product runs over several of them. 64 bytes puts one row and one
    sibling in each block, which on the 326-row family takes half a minute."""
    blocks = (vc.ROW_BLOCK_BYTES, 1024) + ((64,) if mat.shape[0] <= 200 else ())
    for cap in caps:
        for budget in FIXED_BUDGETS + tuple(_level_budgets(mat, cap)):
            want = block_vc_dimension(mat, cap, budget)
            for block in blocks:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(vc, "ROW_BLOCK_BYTES", block)
                    assert vc_dimension_matrix(mat, cap, budget) == want, \
                        (mat.shape, cap, budget, block)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(0, 48), r=st.integers(0, 14),
       density=st.floats(0.05, 0.95), cap=st.integers(1, 8))
def test_level_search_matches_block_search_on_random_matrices(seed, m, r, density, cap):
    rng = np.random.default_rng(seed)
    mat = np.unique(rng.random((m, r)) < density, axis=0) if m else np.zeros((0, r), bool)
    _same_as_block_search(mat, [cap])


def _intervals_then_triple(intervals) -> np.ndarray:
    """15 rows; one column per row interval (a, b), then three columns whose
    bits on rows 0..7 spell the row index. Three intervals cut a line into
    at most 7 pieces, so only triples with a bit column can be shattered,
    and 15 rows stop the search at t = 3."""
    rows = np.arange(15)[:, None]
    cols = [(a <= rows) & (rows <= b) for a, b in intervals]
    cols += [(rows < 8) & (rows >> s & 1 == 1) for s in range(3)]
    return np.hstack(cols)


ROW_INTERVALS = [(a, b) for a in range(15) for b in range(a, 15)]


@pytest.mark.parametrize("mat", [
    interval_family(6).matrix(),
    interval_family(25).matrix(),
    fiber_family(half_graph(12), (0,)).matrix(),
    fiber_family(half_graph(40), (0,)).matrix(),
    fiber_family(block_pair_graph(24, 4), (0,)).matrix(),
    fiber_family(block_pair_graph(30, 6), (1,)).matrix(),
    # first shattered triple (3, 32, 33) has rank 2047, the last of a block
    _intervals_then_triple(ROW_INTERVALS[:32]),
    # intervals on rows 8..14 only: the bit columns are the one shattered
    # triple, the last of 4495, in a short last block
    _intervals_then_triple([(a, b) for a, b in ROW_INTERVALS if a >= 8]),
], ids=["intervals-6", "intervals-25", "half-12", "half-40", "blocks-24x4",
        "blocks-30x6", "triple-at-block-end", "triple-in-short-block"])
def test_level_search_matches_block_search_on_families(mat):
    _same_as_block_search(mat, range(1, 9))


def test_wide_matrix_search_stays_in_blocks():
    """64 rows by 4,000 columns under a net-sized budget: the result is the
    block search's, and the search never holds an r x r matrix (one float64
    Gram matrix of all columns would be 128 MB)."""
    mat = np.unique(np.random.default_rng(3).random((64, 4000)) < 0.5, axis=0)
    tracemalloc.start()
    try:
        got = vc_dimension_matrix(mat, 8, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == block_vc_dimension(mat, 8, 200_000)
    assert got.budget_exhausted
    assert peak < 4000 * 4000 * 8 // 2


def test_net_hits_all_on_packed_rows():
    width = 20
    rows = np.zeros((3, width), dtype=bool)
    rows[0, [2, 19]] = rows[1, 8] = rows[2, [7, 15]] = True
    assert vc.net_hits_all(rows, [8, 15, 19])
    assert vc.net_hits_all(rows, [2, 8, 8, 7])
    assert not vc.net_hits_all(rows, [8, 15])
    assert not vc.net_hits_all(rows, [0, 1, 3, 9, 14, 16, 18])
    assert not vc.net_hits_all(rows, [])
    assert vc.net_hits_all(rows[:0], [])



@pytest.mark.parametrize("den", [1_000_003, 2 ** 61 - 1, 2 ** 89 - 1],
                         ids=["float64", "int64", "bigint"])
def test_epsilon_net_memory_stays_near_the_matrix(den):
    """4,000 intervals over 2,000 points: the member masses and the greedy
    take row blocks, so the traced peak stays within three times the
    family's boolean matrix (one float64 product over all rows would make
    two float64 copies of it, 17 times its bytes)."""
    rng = random.Random(den)
    members = set()
    while len(members) < 4000:
        lo = rng.randrange(2000)
        members.add(tuple(range(lo, min(2000, lo + rng.randint(1, 60)))))
    fam = SetFamily.from_sets(2000, members)
    cuts = set()
    while len(cuts) < 1999:
        cuts.add(rng.randrange(1, den))
    cuts = sorted(cuts)
    mu = Measure(0, num_den=([b - a for a, b in zip([0, *cuts], [*cuts, den])], den))
    tracemalloc.start()
    try:
        net = epsilon_net(fam, mu, Fraction(1, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.verified and net.meta["heavy_members"] > 3000
    assert peak <= 3 * 4000 * 2000

# ------------------------------------------------------- the dimension memo

@pytest.fixture
def searches(monkeypatch):
    """The shape, cap and budget of each search that runs; the memo starts
    empty (conftest's empty_memo)."""
    calls, real = [], vc._dimension_search
    monkeypatch.setattr(vc, "_dimension_search",
                        lambda mat, cap, budget: calls.append((mat.shape, cap, budget))
                        or real(mat, cap, budget))
    return calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(0, 40), r=st.integers(0, 12),
       density=st.floats(0.05, 0.95), cap=st.integers(1, 8),
       budget=st.sampled_from((None, 0, 1, 3, 20, 100, 2047, 2049)))
def test_a_warm_call_returns_the_cold_search(seed, m, r, density, cap, budget):
    rng = np.random.default_rng(seed)
    mat = np.unique(rng.random((m, r)) < density, axis=0) if m else np.zeros((0, r), bool)
    vcreg.reset()
    cold = vc_dimension_matrix(mat, cap, budget)
    warm = vc_dimension_matrix(mat.copy(), cap, budget)
    assert warm is cold and cold == block_vc_dimension(mat, cap, budget)


def test_an_exhausted_budget_is_remembered_as_it_was_returned(searches):
    mat = interval_family(12).matrix()
    cold = vc_dimension_matrix(mat, 8, 1)
    assert cold.budget_exhausted and cold == block_vc_dimension(mat, 8, 1)
    assert vc_dimension_matrix(mat, 8, 1) is cold and len(searches) == 1


def test_the_same_bytes_hit_the_memo(searches):
    mat = interval_family(10).matrix()
    first = vc_dimension_matrix(mat)
    assert vc_dimension_matrix(np.array(mat.tolist(), dtype=bool)) is first
    # one relation in two Hypergraph objects: one search of its fibers
    dims = [vc_dimension(fiber_family(half_graph(12), (0,))) for _ in range(2)]
    assert dims[0] is dims[1] and dims[0].value == 1
    assert searches == [(mat.shape, 8, None), ((12, 12), 8, None)]


def test_other_bytes_shape_cap_or_budget_miss_the_memo(searches):
    mat = interval_family(10).matrix()
    flipped = mat.copy()
    flipped[0, 9] = True   # {0, 9} is no interval, so the rows stay distinct
    wider = np.hstack([mat, np.zeros((len(mat), 1), bool)])   # the same packed bytes
    assert np.array_equal(np.packbits(wider, axis=1), np.packbits(mat, axis=1))
    vc_dimension_matrix(mat)
    for args in ((flipped,), (wider,), (mat, 7), (mat, 8, 100), (mat, 8, 101)):
        assert vc_dimension_matrix(*args) == block_vc_dimension(*args)
    assert searches == [(mat.shape, 8, None), (mat.shape, 8, None), (wider.shape, 8, None),
                        (mat.shape, 7, None), (mat.shape, 8, 100), (mat.shape, 8, 101)]


def test_the_memo_never_holds_more_than_its_bound(searches):
    # two distinct rows, the first spelling b in binary: a new content per b
    mats = [np.array([[b >> i & 1 for i in range(9)], [0] * 9], dtype=bool)
            for b in range(1, vc.MAX_DIMENSIONS + 41)]
    for mat in mats:
        vc_dimension_matrix(mat)
        assert len(vcreg.MEMO["dimension"]) <= vc.MAX_DIMENSIONS
    assert len(vcreg.MEMO["dimension"]) == vc.MAX_DIMENSIONS == len(searches) - 40
    # first in, first out: the oldest entries are gone, the newest remain
    vc_dimension_matrix(mats[-1])
    assert len(searches) == len(mats)
    vc_dimension_matrix(mats[0])
    assert len(searches) == len(mats) + 1


def _report_text(argv, capsys) -> str:
    """The report of a job on a freshly read instance, "timing" taken out."""
    from vcreg import cli
    vcreg.MEMO.pop("input", None)
    assert cli.main(argv) == 0
    return re.sub(r',?"timing":\{[^{}]*\}', "", capsys.readouterr().out)


def test_reg_partition_reports_match_with_the_memo_cold_and_warm(tmp_path, capsys, searches):
    from vcreg import cli
    inst = str(tmp_path / "s.json")
    assert cli.main(["gen", "staircase", "--sizes", "6,6,6", "--out", inst]) == 0
    capsys.readouterr()
    argv = ["reg", "partition", "--in", inst, "--epsilon", "1/4"]
    vcreg.reset()
    cold, searched = _report_text(argv, capsys), len(searches)
    warm = _report_text(argv, capsys)
    assert searched > 0 and len(searches) == searched   # the warm job searched nothing
    assert warm == cold and json.loads(cold)["ok"] is True


# 1/eps with ln(1/eps) <= 1 and 8 d / eps an integer, which a float product
# rounded up past the integer
_EXACT_PRODUCTS = [(Fraction(20, 23), 5, 46, 46), (Fraction(10, 23), 5, 92, 111),
                   (Fraction(32, 49), 4, 49, 49), (Fraction(24, 55), 3, 55, 66)]


def test_net_sizes_are_exact():
    from vcreg.oracles import brute_net_size
    for den in range(2, 65):
        for eps in {Fraction(1, den), Fraction(3, den)}:
            for d in range(1, 9):
                sizes = net_size_formula(d, eps)
                assert sizes["size_ln"] == brute_net_size(d, eps), (eps, d)
                assert sizes["size_log2"] == brute_net_size(d, eps, base2=True), (eps, d)
    for eps, d, size_ln, size_log2 in _EXACT_PRODUCTS:
        assert net_size_formula(d, eps) == {"size_ln": size_ln, "size_log2": size_log2,
                                            "d_used": d}
    # log2 of a power of two is exact: 8 * 3 * 64 * 6
    assert net_size_formula(3, Fraction(1, 64))["size_log2"] == 9216


def test_net_size_series_run_on_the_mantissa_in_1_2(monkeypatch):
    """With x = 1/eps = 2^k m and 1 <= m < 2, every atanh series runs at
    z = (m - 1) / (m + 1) in [0, 1/3), inside the domain _atanh_bounds is
    written for. A k one too large where x < 2^k (x = 20/3 guesses k = 3)
    leaves m in [1/2, 1) and z < 0: the sizes still come out exact, since the
    swapped bounds still bracket log x, so only the series' domain shows it."""
    from vcreg.oracles import brute_net_size
    seen, real = [], vc._atanh_bounds
    monkeypatch.setattr(vc, "_atanh_bounds",
                        lambda z, terms: seen.append(z) or real(z, terms))
    for eps in (Fraction(3, 20), Fraction(5, 12), Fraction(7, 48), Fraction(1, 24)):
        sizes = net_size_formula(2, eps)
        assert (sizes["size_ln"], sizes["size_log2"]) == \
            (brute_net_size(2, eps), brute_net_size(2, eps, base2=True)), eps
    mantissas = [z for z in seen if z != Fraction(1, 3)]   # 1/3 is ln 2's series
    assert mantissas and all(0 <= z < Fraction(1, 3) for z in mantissas)
