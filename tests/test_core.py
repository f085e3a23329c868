"""Exact measures, fibers and boxes."""

import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcreg import (Box, Hypergraph, InputError, Measure, binary_view, density,
                   edge_mass, uniform_measures)
from vcreg.core import edge_array, fiber_atoms
from vcreg.oracles import (brute_density, brute_fiber, brute_hypergraph_error,
                           brute_set_mass, edge_set)
from vcreg.instances import half_graph


def test_fiber_frozen_value():
    H = half_graph(4)
    f = frozenset((int(a),) for a in binary_view(H, (0,)).fibers[2].nonzero()[0])
    assert f == frozenset({(0,), (1,), (2,)})
    assert brute_fiber(H, (0,), (2,)) == f
    # the nested fibers of all four b's cut part 0 into four singletons
    assert fiber_atoms(H, 0, [(0,), (1,), (2,), (3,)]) == [[0], [1], [2], [3]]


def test_edge_mass_frozen_value():
    H = half_graph(4)
    mu = uniform_measures(H)
    assert edge_mass(H, mu) == Fraction(10, 16)
    assert density(H, mu, Box.of([range(4), range(4)])) == Fraction(10, 16)


def test_edge_membership_orientation():
    H = half_graph(3)
    assert (0, 2) in edge_set(H)
    assert (2, 0) not in edge_set(H)


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


_SHAPE = "part_sizes must be a list of integers and edges a list of integer lists"


@pytest.mark.parametrize("change, message", [
    ({"edges": 5}, _SHAPE),
    ({"edges": None}, _SHAPE),
    ({"edges": "01"}, "edge ('0',) does not have arity 2"),
    ({"edges": [5]}, _SHAPE),
    ({"edges": [[True, 0]]}, "edge (True, 0) out of range in coordinate 0"),
    ({"edges": [[0, 1.0]]}, "edge (0, 1.0) out of range in coordinate 1"),
    ({"edges": ["ab"]}, "edge ('a', 'b') out of range in coordinate 0"),
    ({"edges": [{"a": 1, "b": 2}]}, "edge ('a', 'b') out of range in coordinate 0"),
    ({"edges": [[0, 5], [1]]}, "edge (0, 5) out of range in coordinate 1"),
    ({"edges": [[0, -1]]}, "edge (0, -1) out of range in coordinate 1"),
    ({"edges": [[0, 2 ** 70]]}, f"edge (0, {2 ** 70}) out of range in coordinate 1"),
    ({"edges": [[0, "x"], [1, None]]}, "edge (0, 'x') out of range in coordinate 1"),
    ({"edges": [[0, [1]]]}, "edge (0, [1]) out of range in coordinate 1"),
    ({"edges": [[0, 0, 0]]}, "edge (0, 0, 0) does not have arity 2"),
    ({"symmetric": True},
     "symmetric flag set but permutation (1, 0) of edge (0, 1) is absent"),
    ({"part_sizes": [True, 2]}, "part sizes must be positive integers"),
    ({"part_sizes": 5}, _SHAPE),
    ({"k": 3}, "k must be an integer equal to the part_sizes length"),
])
def test_hypergraph_json_messages(change, message):
    """Each malformed hypergraph object is refused with its exact message;
    an edge is named as a tuple, whatever container the file gave it."""
    obj = {"k": 2, "part_sizes": [2, 2], "edges": [[0, 1]], **change}
    with pytest.raises(InputError) as info:
        Hypergraph.from_obj(obj)
    assert str(info.value) == message


def test_hypergraph_json_edge_lists_are_read_as_they_are():
    obj = {"k": 2, "part_sizes": [3, 2], "edges": [[2, 1], [0, 1], [2, 1]]}
    H = Hypergraph.from_obj(obj)
    assert H == Hypergraph((3, 2), [(0, 1), (2, 1)])
    assert edge_array(H).tolist() == [[0, 1], [2, 1]]
    assert obj["edges"] == [[2, 1], [0, 1], [2, 1]]


def test_binary_view_cached_per_object():
    H = half_graph(6)
    view = binary_view(H, (0,))
    assert binary_view(H, [0]) is view
    twin = Hypergraph(H.part_sizes, edge_set(H))
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
    assert sorted(map(tuple, edges.tolist())) == sorted(edge_set(H))
    with pytest.raises(ValueError):
        edges[0, 0] = 5
    twin = Hypergraph(H.part_sizes, edge_set(H))
    assert edge_array(twin) is not edges


def test_binary_view_fibers_are_read_only():
    # a cached instance shares its views across jobs, so no job may write one
    H = half_graph(6)
    fibers = binary_view(H, (0,)).fibers
    with pytest.raises(ValueError):
        fibers[0, 0] = not fibers[0, 0]
    with pytest.raises(ValueError):
        fibers |= True
    assert np.array_equal(fibers, binary_view(half_graph(6), (0,)).fibers)


def test_equality_and_hash_follow_sizes_flag_and_edge_set():
    edges = [(i, j) for i in range(4) for j in range(4) if (i + j) % 3]
    shuffled = edges[::-1]
    random.Random(5).shuffle(shuffled)
    H = Hypergraph((4, 4), edges)
    assert edge_array(H).tolist() == sorted(map(list, edges))
    for twin in (Hypergraph((4, 4), shuffled + shuffled[:7]),
                 Hypergraph((4, 4), frozenset(shuffled)),
                 Hypergraph((4, 4), np.array(shuffled))):
        assert twin == H and hash(twin) == hash(H)
        assert np.array_equal(edge_array(twin), edge_array(H))
    assert Hypergraph((4, 4), edges, True) != H
    assert Hypergraph((4, 5), edges) != H
    assert Hypergraph((4, 4), edges[1:]) != H
    empty = Hypergraph((4, 4), frozenset())
    assert edge_array(empty).shape == (0, 2) and edge_set(empty) == frozenset()


def test_part_sizes_past_int64_keys_are_refused():
    with pytest.raises(InputError, match=r"2\^63"):
        Hypergraph((2 ** 32, 2 ** 32), [])


def _vertex(n):
    # in range, negative or past the part, a bool or a float
    return st.one_of(st.integers(-2, n + 1), st.booleans(), st.sampled_from([0.0, 1.5]))


@st.composite
def _edge_inputs(draw):
    """Sizes, an edge list and a symmetric flag, k <= 3: valid edges with
    duplicates, sometimes with malformed ones mixed in."""
    k = draw(st.integers(1, 3))
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    symmetric = draw(st.booleans())
    if symmetric and draw(st.integers(0, 3)):
        sizes = (sizes[0],) * k
    good = st.tuples(*[st.integers(0, n - 1) for n in sizes])
    if draw(st.booleans()):
        wrong_type_or_range = st.tuples(*[_vertex(n) for n in sizes])
        malformed = st.one_of(wrong_type_or_range,
                              st.lists(st.integers(0, 3), max_size=4).map(tuple))
        edges = draw(st.lists(st.one_of(good, good, malformed), max_size=12))
    else:
        edges = draw(st.lists(good, max_size=12))
        if symmetric and len(set(sizes)) == 1 and draw(st.booleans()):
            edges = [tuple(e[j] for j in p) for e in edges
                     for p in itertools.permutations(range(k))]
            if edges and draw(st.booleans()):   # one permutation short of closed
                edges = list(set(edges) - {draw(st.sampled_from(edges))})
    edges += edges[:draw(st.integers(0, len(edges)))]
    return sizes, edges, symmetric


def _outcome(sizes, edges, symmetric):
    try:
        return edge_array(Hypergraph(sizes, edges, symmetric)).tolist()
    except InputError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_edge_inputs())
def test_validation_matches_oracle(case):
    """Tuple and array input are accepted exactly when the per-edge Python
    checks accept, and refused with the oracle's message on the lex-first bad
    edge; accepted edges are stored distinct and in lex order."""
    sizes, edges, symmetric = case
    k = len(sizes)
    forms = [(edges, edges), (frozenset(edges), frozenset(edges))]
    if all(type(e) is tuple and len(e) == k and all(type(v) is int for v in e)
           for e in edges):
        forms.append((np.array(edges, dtype=np.int64).reshape(-1, k), edges))
        for dtype in (bool, float):
            with pytest.raises(InputError, match="integer dtype"):
                Hypergraph(sizes, np.array(edges, dtype=dtype).reshape(-1, k))
    for given_edges, plain in forms:
        want = brute_hypergraph_error(sizes, plain, symmetric)
        if want is None:
            want = [list(e) for e in sorted(set(plain))]
        assert _outcome(sizes, given_edges, symmetric) == want


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
    assert edge_mass(H, mu) == brute_set_mass(H, mu, edge_set(H))


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


# den ranges of the three arithmetic regimes: float64, int64, Python integers
_DEN_RANGES = {"float64": (1, 2 ** 53 - 1), "int64": (2 ** 53, 2 ** 62 - 1),
               "bigint": (2 ** 62, 2 ** 100)}


@settings(max_examples=90, deadline=None, derandomize=True)
@given(regime=st.sampled_from(sorted(_DEN_RANGES)), data=st.data())
def test_cached_numerators_match_the_weights(regime, data):
    # numerators summing to den, the first 1, so that den is also the lcm of
    # the reduced weights' denominators
    den = data.draw(st.integers(*_DEN_RANGES[regime]))
    cuts = sorted(data.draw(st.lists(st.integers(1, den), max_size=6)))
    nums = [b - a for a, b in zip([0, 1] + cuts, [1] + cuts + [den])]
    weights = tuple(Fraction(x, den) for x in nums)
    mu = Measure(0, weights)
    got = mu.numerators()
    assert got is mu.numerators()
    assert got == (tuple(nums), den) and den == math.lcm(*(w.denominator for w in weights))
    assert all(Fraction(x, got[1]) == w for x, w in zip(got[0], weights))
    assert mu == Measure(0, weights) and hash(mu) == hash(Measure(0, weights))
    for off in (1, -1):   # weights summing to 1 + 1/den and 1 - 1/den
        with pytest.raises(InputError) as exc:
            Measure(0, (Fraction(nums[0] + off, den),) + weights[1:])
        assert str(exc.value) == "measure weights on part 0 must sum to exactly 1"


