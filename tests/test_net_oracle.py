"""The matrix eps-net and delta-partition kernels against the set-based
oracles, in all three arithmetic regimes of the left-side denominator."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcreg import (Hypergraph, Measure, SetFamily, delta_approx_partition,
                   epsilon_net, regularity, vc)
from vcreg.core import INT64_SAFE, SpaceWeights, binary_view, row_keys, weighted_inner
from vcreg.oracles import (brute_delta_partition, brute_greedy_net, brute_random_net,
                           brute_vc_dimension)

# primes, so weights n/p with 0 < n < p keep the denominator p in lowest terms
P_INT64 = 2 ** 55 - 55     # left denominators in [2^53, 2^62)
P_BIG = 2 ** 63 - 25       # left denominators >= 2^62 (Python integers)
REGIMES = ("float64", "int64", "bigint")


def _regime(den: int) -> str:
    return "float64" if den < 2 ** 53 else "int64" if den < INT64_SAFE else "bigint"


def _weights(rng, n, den):
    """n weights over den, about a fifth of them zero, at least two nonzero
    when n > 1."""
    cuts = sorted(rng.randrange(1, den) for _ in range(n - 1))
    nums = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    for i in range(n):
        others = [j for j in range(n) if j != i and nums[j]]
        if len(others) > 1 and rng.random() < 0.2:
            nums[rng.choice(others)] += nums[i]
            nums[i] = 0
    return tuple(Fraction(x, den) for x in nums)


def _instance(rng, regime):
    k = rng.choice((2, 3))
    sizes = tuple(rng.randint(2, 6 if k == 2 else 3) for _ in range(k))
    left = (0,) if k == 2 else rng.choice(((0, 1), (0,), (1, 2)))
    cells = list(itertools.product(*[range(n) for n in sizes]))
    if rng.random() < 0.5:
        edges = {t for t in cells if rng.getrandbits(1)}
    else:   # threshold-like relations keep the VC dimension low
        edges = {t for t in cells if t[0] <= t[-1] + rng.randint(-1, 1)}
    H = Hypergraph(sizes, frozenset(edges))
    dens = [rng.randint(n, 40) for n in sizes]
    if regime != "float64":
        dens[left[0]] = P_INT64 if regime == "int64" else P_BIG
    measures = tuple(Measure(i, _weights(rng, n, d))
                     for i, (n, d) in enumerate(zip(sizes, dens)))
    assert _regime(SpaceWeights(measures, left, sizes).den) == regime
    return H, measures, left


@pytest.mark.parametrize("den, dtype", [(2 ** 53 - 1, np.float64),
                                        (INT64_SAFE - 1, np.int64),
                                        (3 ** 200, object)])
@pytest.mark.parametrize("width", [1, 7, 300])
def test_weighted_inner_is_exact(den, dtype, width):
    rng = random.Random(width)
    cuts = sorted(rng.randrange(den + 1) for _ in range(width - 1))
    nums = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    a = np.array([[rng.random() < 0.6 for _ in range(width)] for _ in range(5)])
    b = np.vstack([a[:2], np.ones((1, width), dtype=bool)])
    got = weighted_inner(a, b, nums, den)
    assert got.dtype == dtype
    for i, j in itertools.product(range(len(a)), range(len(b))):
        want = sum(n for n, x, y in zip(nums, a[i], b[j]) if x and y)
        assert int(got[i, j]) == want


def _same_partition(dp, want):
    assert dp.classes == want["classes"]
    assert dp.params == want["params"]
    assert dp.path == want["path"]
    assert dp.max_pair_distance == want["max_pair_distance"]
    assert dp.meta == want["meta"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
                            Fraction(1, 8), Fraction(1)]))
def test_delta_partition_matches_oracle(seed, regime, eps):
    H, measures, left = _instance(random.Random(seed), regime)
    dp = delta_approx_partition(H, measures, eps, left)
    _same_partition(dp, brute_delta_partition(H, measures, eps, left))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       n=st.integers(1, 9), count=st.integers(0, 14),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(2, 7)]))
def test_greedy_net_matches_oracle(seed, regime, n, count, eps):
    rng = random.Random(seed)
    if regime != "float64":
        n = max(n, 2)
    den = {"float64": rng.randint(n, 60), "int64": P_INT64, "bigint": P_BIG}[regime]
    mu = Measure(0, _weights(rng, n, den))
    fam = SetFamily.from_sets(n, [[v for v in range(n) if rng.random() < 0.4]
                                  for _ in range(count)])
    net = epsilon_net(fam, mu, eps)
    points, heavy = brute_greedy_net(fam.members, mu.weights, eps)
    assert net.verified
    assert list(net.points) == points
    assert net.meta == {"heavy_members": heavy}


def test_random_strategy_matches_oracle():
    rng = random.Random(5)
    for regime in REGIMES:
        n = 8
        den = {"float64": 24, "int64": P_INT64, "bigint": P_BIG}[regime]
        mu = Measure(0, _weights(rng, n, den))
        fam = SetFamily.from_sets(n, [[v for v in range(n) if rng.random() < 0.5]
                                      for _ in range(12)])
        net = epsilon_net(fam, mu, Fraction(1, 4), strategy="random", seed=3)
        want = brute_random_net(fam.members, mu.weights, Fraction(1, 4),
                                brute_vc_dimension(fam.members, n), 3)
        assert net.verified
        assert list(net.points) == want["points"]
        assert net.meta["attempts"] == want["attempts"]
        assert net.meta["size_ln"] == want["size_ln"]
        assert net.meta.get("fallback") == want.get("fallback")



def _wide_instance(rng, regime):
    """As _instance, with 9 to 40 measured positions (two to five packed
    bytes) and at most 6 fibers, which keeps the oracle's VC search small."""
    if rng.random() < 0.5:
        sizes, left = (rng.randint(9, 40), rng.randint(2, 6)), (0,)
    else:
        sizes, left = (rng.randint(3, 6), rng.randint(3, 6), rng.randint(2, 3)), (0, 1)
    width = math.prod(sizes[i] for i in left)
    cells = list(itertools.product(*[range(n) for n in sizes]))
    pos = {t: t[0] if len(left) == 1 else t[0] * sizes[1] + t[1] for t in cells}
    if rng.random() < 0.5:
        p = rng.random()
        edges = {t for t in cells if rng.random() < p}
    else:   # one interval of measured positions per fiber keeps the VC dimension low
        spans = [sorted(rng.randrange(width) for _ in range(2)) for _ in range(sizes[-1])]
        edges = {t for t in cells if spans[t[-1]][0] <= pos[t] <= spans[t[-1]][1]}
    H = Hypergraph(sizes, frozenset(edges))
    dens = [rng.randint(n, 40) for n in sizes]
    if regime != "float64":
        dens[left[0]] = P_INT64 if regime == "int64" else P_BIG
    measures = tuple(Measure(i, _weights(rng, n, d))
                     for i, (n, d) in enumerate(zip(sizes, dens)))
    assert _regime(SpaceWeights(measures, left, sizes).den) == regime
    return H, measures, left


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 5), Fraction(1, 8),
                            Fraction(1, 16), Fraction(1)]))
def test_delta_partition_matches_oracle_past_one_byte(seed, regime, eps):
    H, measures, left = _wide_instance(random.Random(seed), regime)
    dp = delta_approx_partition(H, measures, eps, left)
    _same_partition(dp, brute_delta_partition(H, measures, eps, left))


def _many_fibers_instance(rng, regime):
    """Two parts, 4 to 8 measured positions and 16 to 40 fibers, so that one
    net point splits several atoms of several fibers each."""
    sizes = (rng.randint(4, 8), rng.randint(16, 40))
    p = rng.random()
    H = Hypergraph(sizes, frozenset(t for t in itertools.product(*map(range, sizes))
                                    if rng.random() < p))
    den = {"float64": rng.randint(sizes[0], 40), "int64": P_INT64, "bigint": P_BIG}[regime]
    measures = (Measure(0, _weights(rng, sizes[0], den)), Measure.uniform(1, sizes[1]))
    assert _regime(measures[0].numerators()[1]) == regime
    return H, measures, (0,)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       eps=st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 32)]))
def test_delta_partition_matches_oracle_on_many_fibers(seed, regime, eps):
    H, measures, left = _many_fibers_instance(random.Random(seed), regime)
    dp = delta_approx_partition(H, measures, eps, left)
    _same_partition(dp, brute_delta_partition(H, measures, eps, left))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       n=st.integers(9, 40), count=st.integers(0, 30),
       eps=st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(2, 7),
                            Fraction(1, 16)]))
def test_greedy_net_matches_oracle_past_one_byte(seed, regime, n, count, eps):
    # the same comparison as test_greedy_net_matches_oracle, on grounds of
    # two to five packed bytes
    test_greedy_net_matches_oracle.hypothesis.inner_test(seed, regime, n, count, eps)


@pytest.mark.parametrize("block", [vc.ROW_BLOCK_BYTES, 300])
@pytest.mark.parametrize("shared", [255, 256, 511, 640])
def test_greedy_net_counts_past_255_rows(shared, block):
    """840 distinct rows, row r holding the bits of r in columns 2..11:
    column 0 lies in rows 0..639 and column 1 in rows 0..shared-1 and
    640..839, so 255, 256 or 511 rows hold column 1 before row 640.
    The first point is the one of these two columns with the larger count,
    640 against shared + 200; counts wrapped at 256 would compare 128 with
    199, 200, 199 or 72."""
    width = 12
    rows = [((0,) if r < 640 else ()) + ((1,) if r < shared or r >= 640 else ())
            + tuple(2 + b for b in range(10) if r >> b & 1) for r in range(840)]
    fam = SetFamily.from_sets(width, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vc, "ROW_BLOCK_BYTES", block)
        got = vc.greedy_net(fam.matrix())
    want, heavy = brute_greedy_net(fam.members, [Fraction(1, width)] * width, Fraction(1, width))
    assert heavy == len(fam.members) == 840
    assert got == want


@pytest.mark.parametrize("block", [32, 8])   # tiles of 2 and 1 rows
@pytest.mark.parametrize("regime", REGIMES)
def test_class_check_matches_oracle_across_tiles(regime, block):
    """The class check's largest distance against the oracle's, with the
    tiles patched down so that a class's distinct fibers span several (the
    other oracle tests run it on one tile)."""
    step = math.isqrt(block // 8)
    spanned = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "ROW_BLOCK_BYTES", block)
        for seed in range(12):
            H, measures, left = _many_fibers_instance(random.Random(seed), regime)
            for eps in (Fraction(1, 2), Fraction(1)):
                dp = delta_approx_partition(H, measures, eps, left)
                _same_partition(dp, brute_delta_partition(H, measures, eps, left))
                fibers = binary_view(H, left).fibers
                spanned += any(len(np.unique(row_keys(fibers[[b for (b,) in cls]])))
                               > step for cls in dp.classes)
    assert spanned > 0


@pytest.mark.parametrize("regime", REGIMES)
def test_class_check_kernel_matches_pair_sums(regime):
    """_pairwise_max_distance against the largest XOR row sum over every pair,
    on 30 rows of 50 positions in tiles of one, two and all rows."""
    rng = random.Random(3)
    den = {"float64": 997, "int64": P_INT64, "bigint": P_BIG}[regime]
    lw = SpaceWeights((Measure(0, _weights(rng, 50, den)),), (0,), (50,))
    rows = np.array([[rng.random() < 0.5 for _ in range(50)] for _ in range(30)])
    want = max(sum(n for n, x, y in zip(lw.nums, a, b) if x != y)
               for a, b in itertools.combinations(rows.tolist(), 2))
    for block in (8, 32, regularity.ROW_BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "ROW_BLOCK_BYTES", block)
            assert regularity._pairwise_max_distance(rows, lw) == want


def test_class_of_many_equal_fibers_allocates_no_square_matrix():
    """4,096 fibers of two kinds, 1/8 apart, over 8 positions: no pair is
    heavy at eps 1/2, so they form one class. The check reads its two
    distinct fibers, not a 4,096 x 4,096 matrix (134 MB in float64)."""
    n = 4096
    H = Hypergraph((8, n), frozenset((a, b) for b in range(n) for a in range(4 + b % 2)))
    measures = (Measure.uniform(0, 8), Measure.uniform(1, n))
    binary_view(H, (0,))   # the cached fibers are the instance's, not the check's
    tracemalloc.start()
    try:
        dp = delta_approx_partition(H, measures, Fraction(1, 2), (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dp.path == "net" and len(dp.classes) == 1 and len(dp.classes[0]) == n
    assert dp.max_pair_distance == Fraction(1, 8)
    assert peak < regularity.ROW_BLOCK_BYTES


def test_pair_net_counts_are_exact_in_float32():
    """_pair_net's counts and partial sums are integers of at most m^2 for m
    distinct fibers; the guard of delta_approx_partition must keep m^2 below
    2^24, where float32 stops holding every integer."""
    lo, hi = 1, 1 << 20   # the guard admits lo fibers (of one position) and refuses hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if regularity._fiber_matrix_bytes(mid, 1, 2) \
            <= regularity.MAX_DIFF_BYTES else (lo, mid)
    assert lo * lo < 2 ** 24
