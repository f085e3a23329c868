"""Search for definable near-homogeneous sets in a symmetric binary relation.

A witness is a set A with positive measure whose edge density over distinct
ordered pairs is strictly below eps or above 1 - eps, where A ranges over
Boolean combinations of at most m fibers R_b. Combinations are enumerated as
unions of trace atoms of the chosen parameter tuple, with per-atom mass and
edge aggregates so each candidate costs O(4^m) integer work. NOT-FOUND is a
legitimate outcome, not an error.

The same predicate on the odd-split tree graph, with the family fixed to
single balls, is dyadic.ball_family_search: it needs no numpy.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .core import Hypergraph, Measure, binary_view, edge_array, exact_dtype
from .jsonio import MAX_COMPLEXITY, require

EXACT_TUPLE_BUDGET = 1_000_000


@dataclass
class SearchResult:
    found: bool
    params: tuple[int, ...] | None = None
    patterns: tuple[int, ...] | None = None
    vertices: tuple[int, ...] | None = None
    density: Fraction | None = None
    mass: Fraction | None = None
    examined: int = 0
    exhaustive: bool = True


def definable_homogeneous_search(H: Hypergraph, mu: Measure, eps: Fraction,
                                 m: int, budget: int = EXACT_TUPLE_BUDGET,
                                 seed: int = 0) -> SearchResult:
    """Largest-measure A, definable from at most m fibers, with edge density
    outside (eps, 1-eps). Exhaustive over parameter tuples when their count
    fits the budget, else seeded uniform sampling of that many tuples."""
    require(H.k == 2 and H.symmetric, "search expects a symmetric binary relation")
    require(isinstance(eps, Fraction) and 0 < eps < Fraction(1, 2),
            "eps must be in (0, 1/2)")
    require(1 <= m <= MAX_COMPLEXITY,
            f"complexity cap is {MAX_COMPLEXITY}; the atom count grows double-exponentially")
    require(budget >= 1, f"budget must be >= 1, not {budget}")
    n = H.part_sizes[0]
    m = min(m, n)
    nums, den = mu.numerators()
    # every per-pattern sum of weights, squared weights and pair products is
    # at most den^2
    w = np.array(nums, exact_dtype(den * den))
    view = binary_view(H, (0,))
    fib = view.fibers  # row b = fiber of b as bool over vertices

    edges = edge_array(H)
    edges = edges[edges[:, 0] != edges[:, 1]]
    ex, ey = edges[:, 0], edges[:, 1]
    sq_w, pair_w = w * w, w[ex] * w[ey]

    total_tuples = comb(n, m)
    exhaustive = total_tuples <= budget
    if exhaustive:
        tuples = itertools.combinations(range(n), m)
    else:
        rng = random.Random(seed)
        tuples = (tuple(sorted(rng.sample(range(n), m))) for _ in range(budget))

    en, ed = eps.numerator, eps.denominator
    best = SearchResult(False, examined=0, exhaustive=exhaustive)
    best_mass_num = 0
    examined = 0
    npat = 1 << m
    for D in tuples:
        examined += 1
        pat = np.zeros(n, dtype=np.int64)
        for i, b in enumerate(D):
            pat += fib[b].astype(np.int64) << i
        wa, dg, me = (np.zeros(size, w.dtype) for size in (npat, npat, npat * npat))
        np.add.at(wa, pat, w)
        np.add.at(dg, pat, sq_w)
        np.add.at(me, pat[ex] * npat + pat[ey], pair_w)
        wa, dg, mm = wa.tolist(), dg.tolist(), me.reshape(npat, npat).tolist()
        present = [p for p in range(npat) if wa[p] > 0]
        for size in range(1, len(present) + 1):
            for combo in itertools.combinations(present, size):
                w_a = sum(wa[p] for p in combo)
                if w_a <= best_mass_num:
                    continue
                tot = w_a * w_a - sum(dg[p] for p in combo)
                if tot == 0:
                    continue
                e_num = sum(mm[p][q] for p in combo for q in combo)
                if e_num * ed < en * tot or (tot - e_num) * ed < en * tot:
                    members = tuple(int(v) for v in np.flatnonzero(np.isin(pat, combo)))
                    best = SearchResult(True, tuple(D), tuple(combo),
                                        members, Fraction(e_num, tot),
                                        Fraction(w_a, den), examined, exhaustive)
                    best_mass_num = w_a
    best.examined = examined
    return best
