"""Near-homogeneous definable sets: graph search and the ball-family scan."""

import itertools
from fractions import Fraction

import pytest

from vcreg import (Hypergraph, InputError, Measure, ball_family_search,
                   ball_parity_report, definable_homogeneous_search)


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


def test_search_agrees_with_direct_enumeration():
    # small instance: recompute the best admissible mass over every
    # parameter pair and every union of fingerprint classes
    n = 6
    edges = frozenset((x, y) for x in range(n) for y in range(n)
                      if x != y and (x + y) % 3 != 0)
    H = Hypergraph((n, n), edges | frozenset((y, x) for (x, y) in edges), True)
    mu = Measure.uniform(0, n)
    eps = Fraction(1, 4)
    res = definable_homogeneous_search(H, mu, eps, 2)

    best = Fraction(0)
    for D in itertools.combinations(range(n), 2):
        pat = {v: tuple((v, d) in H.edges for d in D) for v in range(n)}
        pats = set(pat.values())
        for r in range(1, len(pats) + 1):
            for chosen in itertools.combinations(sorted(pats), r):
                S = [v for v in range(n) if pat[v] in chosen]
                if len(S) < 2:
                    continue
                pairs = [(x, y) for x in S for y in S if x != y]
                hits = sum((x, y) in H.edges for (x, y) in pairs)
                d = Fraction(hits, len(pairs))
                if d < eps or d > 1 - eps:
                    best = max(best, Fraction(len(S), n))
    assert res.found == (best > 0)
    if res.found:
        assert res.mass == best


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
