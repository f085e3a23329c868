"""The shared counting kernels of core (weight sums, box counts, fiber
atoms, packed row keys) against the tuple-enumerating oracles, in all three arithmetic regimes
of the product-space denominator."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_net_oracle import P_BIG, P_INT64, REGIMES, _regime, _weights
from vcreg import Hypergraph, Measure, core
from vcreg.core import (INT64_SAFE, SpaceWeights, atoms, box_counts, exact_dtype, fiber_atoms,
                        row_keys)
from vcreg.oracles import brute_fiber_atoms, brute_set_mass, edge_set
from vcreg.regularity import recount_boxes
from vcreg.vc import _collapsed_columns


def _instance(rng, regime, k=None):
    """A random relation on k <= 3 parts (drawn when not given) with zero
    weights, whose product denominator lies in the given regime."""
    k = k or rng.choice((1, 2, 3))
    sizes = tuple(rng.randint(2, 5) for _ in range(k))
    cells = list(itertools.product(*[range(n) for n in sizes]))
    H = Hypergraph(sizes, frozenset(t for t in cells if rng.getrandbits(1)))
    # small cofactors keep the int64 regime's product below 2^62
    dens = [rng.randint(2, 8 if regime == "int64" else 40) for _ in sizes]
    if regime != "float64":
        dens[rng.randrange(k)] = P_INT64 if regime == "int64" else P_BIG
    measures = tuple(Measure(i, _weights(rng, n, d))
                     for i, (n, d) in enumerate(zip(sizes, dens)))
    return H, measures


def _classes(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [sorted(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]


def _classes_with_dead(rng, weights):
    """A random partition of one part; half the time the weight-0 vertices
    form classes of their own, whose boxes have mass 0."""
    dead = [v for v, w in enumerate(weights) if w == 0]
    live = [v for v, w in enumerate(weights) if w]
    if not dead or rng.random() < 0.5:
        return _classes(rng, len(weights))
    return [[dead[i] for i in c] for c in _classes(rng, len(dead))] + \
        [[live[i] for i in c] for c in _classes(rng, len(live))]


def _check_box_sums(kernel, seed, regime):
    """A box kernel against the tuple sums of the oracle, boxes of mass 0
    included; a box of mass 0 must have edge mass 0."""
    rng = random.Random(seed)
    H, measures = _instance(rng, regime)
    classes = [_classes_with_dead(rng, m.weights) for m in measures]
    keys = list(itertools.product(*[range(len(c)) for c in classes]))
    edges = edge_set(H)
    counts, tot, edge, den = kernel(H, measures, classes)
    assert _regime(den) == regime
    assert counts == [len(c) for c in classes]
    assert (tot.dtype == edge.dtype == np.int64) == (den < INT64_SAFE)
    tot, edge = tot.tolist(), edge.tolist()
    assert len(tot) == len(edge) == len(keys)
    for key, t, e in zip(keys, tot, edge):
        cell = list(itertools.product(*[classes[i][c] for i, c in enumerate(key)]))
        assert type(t) is int and type(e) is int
        assert Fraction(t, den) == brute_set_mass(H, measures, cell)
        assert Fraction(e, den) == brute_set_mass(
            H, measures, [x for x in cell if x in edges])


@settings(max_examples=90, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES))
def test_box_sums_match_oracle(seed, regime):
    """The builders' box kernel, core.box_counts."""
    _check_box_sums(box_counts, seed, regime)


@settings(max_examples=90, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES))
def test_verifier_recount_matches_one_pass_oracle(seed, regime):
    """The verifier's own recount, regularity.recount_boxes, against the same
    oracle as the builders' kernel (the name is kept from when its reference
    was a separate one-pass oracle)."""
    _check_box_sums(recount_boxes, seed, regime)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES))
def test_weight_sums_match_oracle(seed, regime):
    rng = random.Random(seed)
    H, measures = _instance(rng, regime)
    left = tuple(sorted(rng.sample(range(H.k), rng.randint(1, H.k))))
    lw = SpaceWeights(measures, left, H.part_sizes)
    rows = np.array([[rng.random() < 0.5 for _ in range(lw.size)] for _ in range(4)])
    want = [sum(n for n, x in zip(lw.nums, row) if x) for row in rows]
    assert lw.sums(rows) == want
    assert [lw.sums(row) for row in rows] == want
    with pytest.MonkeyPatch.context() as mp:   # one row per int64 block
        mp.setattr(core, "ROW_BLOCK_BYTES", 1)
        assert lw.sums(rows) == want


@pytest.mark.parametrize("regime", ["int64", "bigint"])
def test_weight_sums_hold_one_row_block_at_a_time(regime):
    """A 2,000 x 2,000 mask in the int64 and bigint regimes: the product casts
    one row block to float64 at a time, so the traced peak stays near the
    mask's bytes (one cast of the whole mask is eight times them)."""
    rng = random.Random(7)
    mu = Measure(0, _weights(rng, 2000, P_INT64 if regime == "int64" else P_BIG))
    lw = SpaceWeights((mu,), (0,), (2000,))
    assert exact_dtype(lw.den) is (np.int64 if regime == "int64" else object)
    mask = np.random.default_rng(7).random((2000, 2000)) < 0.5
    tracemalloc.start()
    try:
        got = lw.sums(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * mask.nbytes
    assert len(got) == 2000
    for r in (0, 1, 999, 1999):
        assert got[r] == sum(n for n, x in zip(lw.nums, mask[r].tolist()) if x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_fiber_atoms_match_oracle(seed):
    rng = random.Random(seed)
    H, _ = _instance(rng, "float64")
    part = rng.randrange(H.k)
    comp = [n for i, n in enumerate(H.part_sizes) if i != part]
    params = [tuple(rng.randrange(n) for n in comp) for _ in range(rng.randint(0, 5))]
    assert fiber_atoms(H, part, params) == brute_fiber_atoms(H, part, params)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(0, 40), width=st.integers(0, 70), pool=st.integers(1, 6),
       seed=st.integers(0, 10 ** 6))
@example(n=0, width=13, pool=1, seed=0)
@example(n=9, width=0, pool=1, seed=0)
@example(n=0, width=0, pool=1, seed=0)
def test_row_keys_dedup_matches_unique(n, width, pool, seed):
    """row_keys, atoms and _collapsed_columns against np.unique(axis=...) and
    a plain dict grouping, on matrices drawn from a few distinct rows (many
    duplicates), widths off multiples of 8 and empty shapes. The kernel is
    boolean, so the three arithmetic regimes do not apply."""
    rng = np.random.default_rng(seed)
    m = (rng.random((pool, width)) < 0.5)[rng.integers(0, pool, n)]
    rows = [tuple(r) for r in m.tolist()]
    distinct = sorted(set(rows))
    first = [rows.index(r) for r in distinct]
    _, idx, inv = np.unique(row_keys(m), return_index=True, return_inverse=True)
    assert idx.tolist() == first
    assert inv.reshape(-1).tolist() == [distinct.index(r) for r in rows]
    if m.size:
        want = np.unique(m, axis=0, return_index=True, return_inverse=True)
        assert idx.tolist() == want[1].tolist()
        assert inv.reshape(-1).tolist() == want[2].reshape(-1).tolist()
    groups: dict = {}
    for i, r in enumerate(rows):
        groups.setdefault(r, []).append(i)
    assert atoms(m) == list(groups.values())
    cols = [tuple(c) for c in m.T.tolist()]
    want_cols = sorted({c: cols.index(c) for c in cols}.values())
    assert _collapsed_columns(m) == want_cols
    if m.size:
        assert want_cols == sorted(np.unique(m, axis=1, return_index=True)[1].tolist())
