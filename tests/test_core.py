"""Exact measures, fibers, boxes, and the Fubini identities."""

import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcreg import (Box, Hypergraph, InputError, Measure, binary_view, density,
                   edge_mass, fiber, fubini_mass, full_box, product_measure,
                   uniform_measures, weak_fubini_check)
from vcreg.core import edge_array
from vcreg.oracles import brute_density, brute_fiber, brute_set_mass
from vcreg.selftest import half_graph


def test_fiber_frozen_value():
    H = half_graph(4)
    f = fiber(H, (0,), (2,))
    assert f.members == frozenset({(0,), (1,), (2,)})
    assert brute_fiber(H, (0,), (2,)) == f.members


def test_edge_mass_frozen_value():
    H = half_graph(4)
    mu = uniform_measures(H)
    assert edge_mass(H, mu) == Fraction(10, 16)
    assert density(H, mu, full_box(H)) == Fraction(10, 16)
    assert fubini_mass(H, mu, (0,)) == Fraction(10, 16)
    assert fubini_mass(H, mu, (1,)) == Fraction(10, 16)


def test_edge_membership_orientation():
    H = half_graph(3)
    assert (0, 2) in H.edges
    assert (2, 0) not in H.edges


def test_measure_must_sum_to_one():
    with pytest.raises(InputError):
        Measure(0, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InputError):
        Measure(0, (Fraction(3, 2), Fraction(-1, 2)))


def test_measure_uniform_and_mass():
    mu = Measure.uniform(0, 5)
    assert sum(mu.weights) == 1
    assert mu.mass({0, 1}) == Fraction(2, 5)
    assert mu.mass(()) == 0


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(InputError):
        Hypergraph((2, 2), frozenset({(0, 5)}))
    with pytest.raises(InputError):
        Hypergraph((2, 2), frozenset({(0,)}))


def test_bad_edge_messages_name_the_edge_and_coordinate():
    with pytest.raises(InputError, match=r"edge \(0, 5\) out of range in coordinate 1"):
        Hypergraph((2, 2), frozenset({(0, 5)}))
    with pytest.raises(InputError, match=r"edge \(0,\) does not have arity 2"):
        Hypergraph((2, 2), frozenset({(0,)}))
    with pytest.raises(InputError, match=r"permutation \(1, 0\) of edge \(0, 1\) is absent"):
        Hypergraph((2, 2), frozenset({(0, 1)}), True)


def test_binary_view_cached_per_object():
    H = half_graph(6)
    view = binary_view(H, (0,))
    assert binary_view(H, [0]) is view
    twin = Hypergraph(H.part_sizes, frozenset(H.edges))
    assert twin == H and twin is not H
    twin_view = binary_view(twin, (0,))
    assert twin_view is not view
    assert np.array_equal(twin_view.fibers, view.fibers)
    # no reference cycle: the view goes with its hypergraph, without gc
    ref = weakref.ref(twin_view)
    del twin, twin_view
    assert ref() is None


def test_edge_array_cached_read_only():
    H = half_graph(6)
    edges = edge_array(H)
    assert edge_array(H) is edges
    assert sorted(map(tuple, edges.tolist())) == sorted(H.edges)
    with pytest.raises(ValueError):
        edges[0, 0] = 5
    twin = Hypergraph(H.part_sizes, frozenset(H.edges))
    assert edge_array(twin) is not edges


def test_symmetric_needs_equal_sizes_and_closure():
    with pytest.raises(InputError):
        Hypergraph((2, 3), frozenset(), True)
    with pytest.raises(InputError):
        # (0,1) present without (1,0)
        Hypergraph((2, 2), frozenset({(0, 1)}), True)
    H = Hypergraph((2, 2), frozenset({(0, 1), (1, 0)}), True)
    assert H.symmetric


def test_box_density_against_oracle():
    H = half_graph(5)
    mu = uniform_measures(H)
    box = Box.of([(0, 1, 2), (1, 3)])
    assert density(H, mu, box) == brute_density(H, mu, box)


def test_zero_mass_box_density_raises():
    H = half_graph(4)
    w = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
    mu = [Measure(0, w), Measure.uniform(1, 4)]
    from vcreg import ZeroMeasureBox
    with pytest.raises(ZeroMeasureBox):
        density(H, mu, Box.of([(2, 3), (0, 1)]))


def test_product_measure_matches_brute():
    H = half_graph(4)
    mu = uniform_measures(H)
    assert product_measure(mu).set_mass(H.edges) == brute_set_mass(H, mu, H.edges)


# non-uniform weights: random positive numerators, normalized exactly
weight_nums = st.lists(st.integers(min_value=0, max_value=9), min_size=3,
                       max_size=5).filter(lambda xs: sum(xs) > 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nums=weight_nums, data=st.data())
def test_mass_is_additive(nums, data):
    den = sum(nums)
    mu = Measure(0, tuple(Fraction(x, den) for x in nums))
    n = len(nums)
    a = data.draw(st.sets(st.integers(0, n - 1)))
    b = data.draw(st.sets(st.integers(0, n - 1)))
    assert mu.mass(a | b) + mu.mass(a & b) == mu.mass(a) + mu.mass(b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n0=st.integers(1, 5), n1=st.integers(1, 5))
def test_fubini_agrees_with_direct_mass(seed, n0, n1):
    import random
    rng = random.Random(seed)
    edges = frozenset((i, j) for i in range(n0) for j in range(n1)
                      if rng.getrandbits(1))
    H = Hypergraph((n0, n1), edges)
    mu = uniform_measures(H)
    want = edge_mass(H, mu)
    assert fubini_mass(H, mu, (0,)) == want
    assert fubini_mass(H, mu, (1,)) == want


def test_weak_fubini_premise_gives_small_product():
    H = half_graph(6)
    mu = uniform_measures(H)
    probe = weak_fubini_check(H, mu, Fraction(1, 2))
    eps = probe["max_fiber_mass"] + Fraction(1, 50)
    rep = weak_fubini_check(H, mu, eps)
    assert rep["premise"] and rep["holds"]
    assert rep["product_mass"] < eps
