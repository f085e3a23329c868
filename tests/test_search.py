"""Near-homogeneous definable sets: graph search and the ball-family scan."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_net_oracle import P_BIG, REGIMES, _regime, _weights
from vcreg import (Hypergraph, InputError, Measure, ball_family_search,
                   ball_parity_report, definable_homogeneous_search)
from vcreg.oracles import edge_set

# the search sums pair products up to den^2: these denominators put den^2
# below 2^53, in [2^53, 2^62) and at or above 2^62 (a prime, so the weights
# keep it in lowest terms; None draws a small one)
SEARCH_DENS = {"float64": None, "int64": 2 ** 29 - 3, "bigint": P_BIG}


def two_cliques(n=16):
    edges = frozenset((x, y) for x in range(n) for y in range(n)
                      if x != y and (x < n // 2) == (y < n // 2))
    return Hypergraph((n, n), edges, True)


def test_two_cliques_found_exactly():
    H = two_cliques()
    res = definable_homogeneous_search(H, Measure.uniform(0, 16),
                                       Fraction(1, 8), 2)
    assert res.found and res.exhaustive
    assert res.density == 1
    assert res.mass == Fraction(1, 2)
    assert set(res.vertices) in ({*range(8)}, {*range(8, 16)})


@settings(max_examples=90, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       m=st.sampled_from((1, 2)))
def test_search_agrees_with_direct_enumeration(seed, regime, m):
    # a random weighted symmetric relation; every parameter tuple and every
    # union of fingerprint classes, in the search's order, the first set of
    # the largest mass kept, masses and pair densities from the numerators
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    edges = {(x, y) for x in range(n) for y in range(x, n) if rng.random() < 0.5}
    H = Hypergraph((n, n), edges | {(y, x) for x, y in edges}, True)
    mu = Measure(0, _weights(rng, n, SEARCH_DENS[regime] or rng.randint(n, 40)))
    nums, den = mu.numerators()
    assert _regime(den * den) == regime
    eps = Fraction(rng.randint(1, 7), 16)
    res = definable_homogeneous_search(H, mu, eps, m)

    best, R = None, edge_set(H)
    for D in itertools.combinations(range(n), m):
        pat = [sum(((v, d) in R) << i for i, d in enumerate(D)) for v in range(n)]
        present = sorted({pat[v] for v in range(n) if nums[v]})
        for r in range(1, len(present) + 1):
            for chosen in itertools.combinations(present, r):
                S = [v for v in range(n) if pat[v] in chosen]
                mass = Fraction(sum(nums[v] for v in S), den)
                pairs = [(x, y) for x in S for y in S if x != y]
                tot = sum(nums[x] * nums[y] for x, y in pairs)
                if tot == 0 or (best and mass <= best[0]):
                    continue
                d = Fraction(sum(nums[x] * nums[y] for x, y in pairs if (x, y) in R),
                             tot)
                if d < eps or d > 1 - eps:
                    best = (mass, d)
    assert res.found == (best is not None)
    if best:
        assert (res.mass, res.density) == best


def test_search_not_found_is_honest():
    # 5-cycle-ish relation with no near-homogeneous definable set at 1/3
    n = 5
    edges = frozenset((x, y) for x in range(n) for y in range(n)
                      if (x - y) % n in (1, n - 1))
    H = Hypergraph((n, n), edges, True)
    res = definable_homogeneous_search(H, Measure.uniform(0, n),
                                       Fraction(1, 3), 1)
    assert res.exhaustive
    if not res.found:
        assert res.examined > 0


def test_search_input_validation():
    H = two_cliques(8)
    mu = Measure.uniform(0, 8)
    with pytest.raises(InputError):
        definable_homogeneous_search(H, mu, Fraction(1, 2), 2)
    with pytest.raises(InputError):
        definable_homogeneous_search(H, mu, Fraction(1, 8), 4)
    asym = Hypergraph((4, 4), frozenset({(0, 1)}))
    with pytest.raises(InputError):
        definable_homogeneous_search(asym, Measure.uniform(0, 4),
                                     Fraction(1, 8), 1)


def test_ball_family_band_is_respected():
    rep = ball_family_search(6, Fraction(6, 25))
    assert not rep.found
    assert rep.max_deviation >= Fraction(1, 3) - Fraction(1, 21)
    for row in ball_parity_report(6):
        if row["co_depth"] >= 2:
            assert Fraction(1, 4) < row["density"] < Fraction(3, 4), row


def test_ball_family_finds_wide_band():
    # at eps above 1/3 the 2/3-density balls qualify
    rep = ball_family_search(5, Fraction(2, 5))
    assert rep.found
    assert rep.density > Fraction(3, 5) or rep.density < Fraction(2, 5)
