"""The array descent (stable.good_descent_partition and its witness rule)
against the list-based per-fiber scan in oracles, in all three arithmetic
regimes of the descended part's own denominator."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_net_oracle import P_BIG, P_INT64, _regime, _weights
from vcreg import DepthCapExceeded, Hypergraph, Measure, good_descent_partition
from vcreg.core import INT64_SAFE, SpaceWeights, binary_view, exact_dtype
from vcreg.oracles import brute_descent, brute_witness
from vcreg.stable import _witness

P_EDGE = 2 ** 62 - 57    # prime: the largest int64-regime denominator, just under 2^62
REGIMES = ("float64", "int64", "edge", "bigint")


def _relation(rng, sizes):
    """Independent cells, a block union (many equal fibers) or a threshold
    relation with some right vertices' fibers complemented, so that fibers
    often tie at equal distance from 1/2."""
    cells = list(itertools.product(*map(range, sizes)))
    kind = rng.randrange(3)
    if kind == 0:
        p = rng.random()
        return {t for t in cells if rng.random() < p}
    if kind == 1:
        blocks = rng.randint(2, 4)
        label = [[rng.randrange(blocks) for _ in range(n)] for n in sizes]
        return {t for t in cells if len({label[i][v] for i, v in enumerate(t)}) == 1}
    flip = [[rng.random() < 0.5 for _ in range(n)] for n in sizes]
    return {t for t in cells if (t[0] <= t[-1]) != flip[-1][t[-1]]}


def _descent_instance(rng, regime):
    k = rng.choice((1, 2, 2, 3))
    sizes = tuple(rng.randint(2, 12 if k < 3 else 4) for _ in range(k))
    part = rng.randrange(k)
    dens = [rng.randint(n, 40) for n in sizes]
    dens[part] = {"float64": dens[part], "int64": P_INT64, "edge": P_EDGE,
                  "bigint": P_BIG}[regime]
    measures = [Measure(i, _weights(rng, n, d)) for i, (n, d) in enumerate(zip(sizes, dens))]
    eps = rng.choice((Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(3, 8),
                      Fraction(1, 4), Fraction(1, 6), Fraction(1, 16), Fraction(3, 64)))
    if regime == "edge":
        eps = Fraction(1, rng.choice((64, 100, 128)))
    elif regime == "float64" and rng.random() < 0.5:
        # equal weights on a random support and a coarse eps: fiber masses
        # land on the band edges
        on = [rng.random() < 0.8 for _ in range(sizes[part])]
        on[rng.randrange(sizes[part])] = True
        measures[part] = Measure(part, tuple(Fraction(x, sum(on)) for x in on))
        eps = rng.choice((Fraction(1), Fraction(2, 3), Fraction(1, 2)))
    measures = tuple(measures)
    den = SpaceWeights(measures, (part,), sizes).den
    assert _regime(den) == ("int64" if regime == "edge" else regime)
    return Hypergraph(sizes, frozenset(_relation(rng, sizes))), measures, part, eps


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DepthCapExceeded as exc:
        return ("DepthCapExceeded", exc.tree)


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), depth_cap=st.sampled_from((1, 2, 3, 32)))
def test_descent_matches_brute_scan(regime, seed, depth_cap):
    """Pieces, witnesses, depths, steps, residue_action and meta, or the
    DepthCapExceeded tree. "edge" is a part denominator just under 2^62 with
    the band's eps/2 denominator at least 128, where a * ed passes 2^63."""
    H, measures, part, eps = _descent_instance(random.Random(seed), regime)
    args = (H, measures, part, eps, depth_cap)
    got, want = _outcome(good_descent_partition, *args), _outcome(brute_descent, *args)
    assert got == want


def test_descent_instances_tie_descend_and_carry_zero_weights():
    """The property test's instances descend, carry zero weights and have
    equal fibers (tied at equal distance from 1/2) in every regime."""
    rng = random.Random(0)
    for regime in REGIMES:
        seen = {"zero": 0, "tie": 0, "descent": 0}
        for _ in range(12):
            H, measures, part, eps = _descent_instance(rng, regime)
            gd = _outcome(good_descent_partition, H, measures, part, eps, 32)
            fibers = binary_view(H, (part,)).fibers
            seen["zero"] += 0 in measures[part].weights
            seen["tie"] += len(np.unique(fibers, axis=0)) < len(fibers)
            seen["descent"] += isinstance(gd, tuple) or any(gd.depths)
        assert min(seen.values()) >= 3, (regime, seen)


def _edges_of_band(a_num, eps):
    """Hits on both band edges, when eps * a_num is an integer, plus their
    neighbours."""
    lo = eps * a_num
    if lo.denominator != 1:
        return []
    lo = lo.numerator
    return [h for h in (lo - 1, lo, lo + 1, a_num - lo - 1, a_num - lo, a_num - lo + 1)
            if 0 <= h <= a_num]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6),
       scale=st.sampled_from((40, 2 ** 53, INT64_SAFE - 1, 2 ** 70)),
       eps=st.sampled_from((Fraction(1, 2), Fraction(3, 5), Fraction(1, 3), Fraction(1, 4),
                            Fraction(3, 8), Fraction(1, 128), Fraction(5, 256))))
def test_witness_rule_matches_two_sided_scan(seed, scale, eps):
    """One argmin of |2h - a| and one band test equal the scan that tests
    both sides of every fiber, ties to the least: eps = 1/2 (only h = a/2 is
    in band), eps > 1/2 (no band), hits on both band edges, a * ed past 2^63."""
    rng = random.Random(seed)
    a_num = rng.randint(0, scale)
    if rng.random() < 0.5:   # a multiple of ed, so the band edges are integers
        a_num -= a_num % eps.denominator
    pool = _edges_of_band(a_num, eps) + [a_num // 2, (a_num + 1) // 2]
    hits = [rng.choice(pool) if rng.random() < 0.6 else rng.randint(0, a_num)
            for _ in range(rng.randint(1, 12))]
    got = _witness(np.array(hits, dtype=exact_dtype(a_num)), a_num, eps)
    assert got == brute_witness(hits, a_num, eps)
