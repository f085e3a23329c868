"""The exact float limbs (core.float_limbs) at the edges of their regimes:
the limbs recombined against Python sums, SpaceWeights.inner and .sums,
which sum every 0/1 row from them, and the stable descent, which
computes every step's fiber masses from them, against oracles.brute_descent
at the part denominators on either side of 2^53."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_descent_oracle import _outcome, _relation
from test_net_oracle import _weights
from vcreg import Hypergraph, Measure, good_descent_partition
from vcreg.core import SpaceWeights, exact_dtype, float_limbs
from vcreg.oracles import brute_descent

P_BELOW = 2 ** 53 - 111   # the largest prime below 2^53: one limb, partial sums near 2^53
P_ABOVE = 2 ** 53 + 5     # the smallest prime above 2^53: the first case with two limbs
LIMB_DENS = {"float64": P_BELOW, "int64": 2 ** 62 - 57, "bigint": 2 ** 89 - 1}


@pytest.mark.parametrize("regime", LIMB_DENS)
@pytest.mark.parametrize("width", [1, 63, 64, 65])
def test_limbs_recombine_to_python_sums(regime, width):
    """Each limb product of 0/1 rows is an integer below 2^53 in float64, and
    the products recombined as the kernels do (in exact_dtype(den), shifted)
    give the exact sums: random weights, and all the mass on one position."""
    den = LIMB_DENS[regime]
    rng = random.Random(width)
    cuts = sorted(rng.randrange(den + 1) for _ in range(width - 1))
    spread = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    heavy = [0] * width
    heavy[rng.randrange(width)] = den
    rows = np.array([[rng.random() < 0.5 for _ in range(width)] for _ in range(6)]
                    + [[True] * width])
    for nums in (spread, heavy):
        limbs = float_limbs(nums, den, width)
        assert (len(limbs) == 1) == (regime == "float64")
        products = [(shift, rows.astype(np.float64) @ limb) for shift, limb in limbs]
        assert all((p < 2 ** 53).all() and (p == np.floor(p)).all() for _, p in products)
        got = sum(p.astype(np.int64).astype(exact_dtype(den)) << shift for shift, p in products)
        want = [sum(n for n, x in zip(nums, row) if x) for row in rows]
        assert [int(x) for x in got] == want
        assert want[-1] == den


@pytest.mark.parametrize("den", [2 ** 24 - 3, 2 ** 24, 2 ** 24 + 1,
                                 P_BELOW, P_ABOVE, 2 ** 62 - 57, 2 ** 89 - 1],
                         ids=["float32", "2^24", "2^24+1", "one-limb", "two-limbs", "int64",
                              "bigint"])
@pytest.mark.parametrize("width", [1, 63, 64, 65])
def test_weight_sums_at_the_limb_edges(den, width):
    """SpaceWeights.sums, a row and a matrix, and SpaceWeights.inner, rows
    against rows and against one row, against Python sums, on rows cast to
    float32 below den 2^24 and to float64 from there: random weights,
    and all the mass on one position, so a full row sums to den. The
    numerators go in unreduced (a Measure would reduce den = nums[p] to 1)."""
    rng = random.Random(width)
    cuts = sorted(rng.randrange(1, den) for _ in range(width - 1))
    heavy = [0] * width
    heavy[rng.randrange(width)] = den
    rows = np.array([[rng.random() < 0.5 for _ in range(width)] for _ in range(6)]
                    + [[True] * width])
    for nums in ([b - a for a, b in zip([0] + cuts, cuts + [den])], heavy):
        lw = SpaceWeights((SimpleNamespace(numerators=lambda: (nums, den)),), (0,), (width,))
        want = [sum(n for n, x in zip(nums, row) if x) for row in rows]
        assert lw.sums(rows) == want and want[-1] == den
        assert [lw.sums(row) for row in rows] == want
        assert all(type(x) is int for x in lw.sums(rows) + [lw.sums(rows[-1])])
        x = lw.cast(rows)
        assert x.dtype == (np.float32 if den < 2 ** 24 else np.float64)
        both = [[sum(n for n, p, q in zip(nums, a, b) if p and q) for b in rows] for a in rows]
        assert [[int(v) for v in r] for r in lw.inner(x, x)] == both
        for j, row in enumerate(x):
            assert [int(v) for v in lw.inner(x, row)] == [r[j] for r in both]


@pytest.mark.parametrize("den", [P_BELOW, P_ABOVE], ids=["one-limb", "two-limbs"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), depth_cap=st.sampled_from((1, 3, 32)))
def test_descent_matches_brute_scan_at_the_limb_edge(den, seed, depth_cap):
    """The descended part's weights sum to den, so the first step's masses
    sit just below or just above 2^53."""
    rng = random.Random(seed)
    k = rng.choice((1, 2, 2, 3))
    sizes = tuple(rng.randint(2, 12 if k < 3 else 4) for _ in range(k))
    part = rng.randrange(k)
    dens = [den if i == part else rng.randint(n, 40) for i, n in enumerate(sizes)]
    measures = tuple(Measure(i, _weights(rng, n, d)) for i, (n, d) in enumerate(zip(sizes, dens)))
    eps = rng.choice((Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)))
    H = Hypergraph(sizes, frozenset(_relation(rng, sizes)))
    args = (H, measures, part, eps, depth_cap)
    assert _outcome(good_descent_partition, *args) == _outcome(brute_descent, *args)
