"""Split-level counting on the binary tree and the parity densities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vcreg import (DyadicBall, InputError, anti_homogeneity_bound_check,
                   ball_parity_report, dyadic_hypergraph, level_pair_counts,
                   odd_split_density, parse_balls, random_ball_union)
from vcreg.oracles import brute_dyadic_pair_count, dyadic_leaves, edge_set, split_level


def test_whole_tree_frozen_values():
    assert odd_split_density([DyadicBall("")], 4) == Fraction(1, 3)
    assert brute_dyadic_pair_count([""], 4) == (80, 240)
    assert level_pair_counts([DyadicBall("")], 4) == [128, 64, 32, 16]


def test_prefix_one_frozen_value():
    assert odd_split_density([DyadicBall("0")], 5) == Fraction(2, 3)
    hit, total = brute_dyadic_pair_count(["0"], 5)
    assert Fraction(hit, total) == Fraction(2, 3)


@pytest.mark.parametrize("L", range(1, 9))
def test_level_counts_match_leaf_enumeration(L):
    leaves = dyadic_leaves([""], L)
    want = [0] * L
    for x in leaves:
        for y in leaves:
            if x != y:
                want[split_level(x, y, L)] += 1
    assert level_pair_counts([DyadicBall("")], L) == want


@pytest.mark.parametrize("prefixes", [["0"], ["01"], ["0", "10"],
                                      ["00", "01", "1"]])
def test_level_counts_on_unions(prefixes):
    L = 7
    balls = parse_balls(prefixes)
    leaves = dyadic_leaves(prefixes, L)
    want = [0] * L
    for x in leaves:
        for y in leaves:
            if x != y:
                want[split_level(x, y, L)] += 1
    assert level_pair_counts(balls, L) == want


def test_parity_report_rows_hold():
    for L in (4, 5, 6, 7, 8):
        for row in ball_parity_report(L):
            assert row["ok"], row
    assert ball_parity_report(4)[0]["density"] == Fraction(1, 3)
    assert ball_parity_report(5)[1]["density"] == Fraction(2, 3)


def test_even_parity_is_the_complement():
    balls = [DyadicBall("")]
    odd = odd_split_density(balls, 6)
    even = odd_split_density(balls, 6, parity="even")
    assert odd + even == 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), L=st.integers(2, 10))
def test_anti_homogeneity_bound_on_random_unions(seed, L):
    balls = random_ball_union(L, seed)
    b = min(balls, key=lambda x: (len(x.prefix), x.prefix))
    if len(b.prefix) >= L:
        return
    rep = anti_homogeneity_bound_check(balls, b, L)
    assert rep.verdict, rep


def test_anti_homogeneity_frozen_shape():
    a = [DyadicBall("0"), DyadicBall("1")]
    rep6 = anti_homogeneity_bound_check(a, a[0], 6)
    hit, _ = brute_dyadic_pair_count(["0", "1"], 6)
    assert rep6.verdict and rep6.pair_mass == Fraction(hit, 4 ** 6)
    rep = anti_homogeneity_bound_check(a, a[0], 8)
    assert rep.gamma == Fraction(1, 2)
    assert rep.bound == (1 - Fraction(1, 12) + rep.slack) * rep.mu_union ** 2
    assert rep.verdict


def test_bad_ball_input_rejected():
    # nested balls pass parsing but fail the disjointness check at use time
    with pytest.raises(InputError):
        odd_split_density(parse_balls(["0", "01"]), 4)
    with pytest.raises(InputError):
        parse_balls(["2"])


def test_dyadic_hypergraph_edges_match_valuation():
    L = 3
    H = dyadic_hypergraph(L)
    edges = edge_set(H)
    n = 1 << L
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            odd = split_level(x, y, L) % 2 == 1
            assert ((x, y) in edges) == odd
