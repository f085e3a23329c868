"""The semialgebraic 3-relation on increasing integer triples.

E(p, q, r) holds for p < q < r when p + r - 2q >= 0, i.e. the middle point
sits at or below the midpoint. On any integer interval the reflection
x -> lo + hi - x swaps the strict cases and fixes the arithmetic-progression
triples, so the density is exactly 1/2 plus half the AP fraction -- close to
1/2 but never settling at 0 or 1 on any interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .jsonio import require


@dataclass(frozen=True)
class IntegerInterval:
    lo: int
    hi: int

    def __post_init__(self):
        require(self.lo <= self.hi, "interval endpoints out of order")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def points(self) -> range:
        return range(self.lo, self.hi + 1)

    def to_obj(self) -> list[int]:
        return [self.lo, self.hi]


def is_edge(p: int, q: int, r: int) -> bool:
    require(p < q < r, "edge test needs a strictly increasing triple")
    return p + r - 2 * q >= 0


def ap_count(n: int) -> int:
    """Three-term arithmetic progressions in an n-point interval."""
    require(n >= 0, "length must be nonnegative")
    return ((n - 1) ** 2) // 4 if n >= 3 else 0


def convexity_density(N: int, interval: IntegerInterval) -> Fraction:
    """Exact density of E over increasing triples of the interval:
    1/2 + AP(n) / (2 * C(n, 3)), by the reflection pairing."""
    require(1 <= interval.lo and interval.hi <= N,
            f"interval not inside 1..{N}")
    n = len(interval)
    require(n >= 3, "need at least three points")
    return Fraction(1, 2) + Fraction(ap_count(n), 2 * comb(n, 3))


def reflection_involution_check(interval: IntegerInterval) -> bool:
    """The reflection x -> lo + hi - x is an involution on the interval that
    swaps strict edges with non-edges and fixes midpoint triples. Exhaustive
    over all increasing triples."""
    require(len(interval) >= 3, "need at least three points")
    lo, hi = interval.lo, interval.hi
    s = lo + hi
    for p, q, r in combinations(interval.points(), 3):
        ip, iq, ir = s - r, s - q, s - p
        if not (lo <= ip < iq < ir <= hi):
            return False
        v = p + r - 2 * q
        iv = ip + ir - 2 * iq
        if iv != -v:
            return False
        if v == 0 and not (is_edge(p, q, r) and is_edge(ip, iq, ir)):
            return False
        if v > 0 and (not is_edge(p, q, r) or is_edge(ip, iq, ir)):
            return False
        if v < 0 and (is_edge(p, q, r) or not is_edge(ip, iq, ir)):
            return False
    return True
