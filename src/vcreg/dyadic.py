"""Finite truncation of the odd-split tree graph.

Vertices are the depth-L leaves of the binary tree; x and y are adjacent
exactly when their common-prefix length v(x, y) is odd (0-indexed: the root
split is level 0). Balls are prefix sets. Densities are over ordered pairs
of distinct leaves and computed exactly by per-level pair counting: a pair
splitting at level m inside a ball of prefix length l contributes to one of
the 2^(m-l) level-m nodes, each holding 2 * (2^(L-m-1))^2 ordered pairs.

This is the finite witness that the graph has no large set of density near
0 or 1 among ball-definable sets: every ball's density is pinned near 1/3
or 2/3 by its prefix parity, and ball_family_search scans the single balls
for one outside (eps, 1 - eps). Nothing here loads numpy at import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .jsonio import require


@dataclass(frozen=True)
class DyadicBall:
    """All depth-L leaves extending a fixed bit-string prefix."""
    prefix: str

    def __post_init__(self):
        require(all(c in "01" for c in self.prefix),
                f"ball prefix must be a 0/1 string, got {self.prefix!r}")

    def measure(self) -> Fraction:
        return Fraction(1, 1 << len(self.prefix))

    def leaf_count(self, L: int) -> int:
        require(L >= len(self.prefix), "depth below prefix length")
        return 1 << (L - len(self.prefix))

    def contains(self, other: "DyadicBall") -> bool:
        return other.prefix.startswith(self.prefix)


def parse_balls(prefixes) -> list[DyadicBall]:
    return [DyadicBall("" if p in ("", "-") else str(p)) for p in prefixes]


def _check_disjoint(balls, L: int):
    require(balls, "need at least one ball")
    for b in balls:
        require(len(b.prefix) <= L, f"prefix {b.prefix!r} longer than depth {L}")
    for i, a in enumerate(balls):
        for b in balls[i + 1:]:
            if a.contains(b) or b.contains(a):
                raise InputError(
                    f"balls {a.prefix!r} and {b.prefix!r} overlap")


def _lcp(a: str, b: str) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def level_pair_counts(balls, L: int) -> list[int]:
    """counts[m] = ordered pairs of distinct union leaves splitting at level m."""
    balls = list(balls)
    _check_disjoint(balls, L)
    counts = [0] * L
    for ball in balls:
        l = len(ball.prefix)
        for m in range(l, L):
            counts[m] += 1 << (2 * L - m - l - 1)
    for i, a in enumerate(balls):
        for b in balls[i + 1:]:
            m = _lcp(a.prefix, b.prefix)
            counts[m] += 2 * a.leaf_count(L) * b.leaf_count(L)
    return counts


def odd_split_density(balls, L: int, parity: str = "odd") -> Fraction:
    """Exact edge density over ordered distinct leaf pairs of a ball union.

    parity="even" flips the adjacency convention (edge iff v(x,y) even), for
    comparing the two readings of the split-level indexing.
    """
    require(parity in ("odd", "even"), 'parity must be "odd" or "even"')
    counts = level_pair_counts(balls, L)
    total = sum(counts)
    if total == 0:
        raise InputError("union has a single leaf; no distinct pairs")
    want = 1 if parity == "odd" else 0
    hit = sum(c for m, c in enumerate(counts) if m % 2 == want)
    return Fraction(hit, total)


# Balls of co-depth below this hold at most two leaves: trivially homogeneous,
# they say nothing about the family's limiting behavior.
MIN_CO_DEPTH = 2


@dataclass
class BallSearchResult:
    found: bool
    prefix_length: int | None = None
    density: Fraction | None = None
    mass: Fraction | None = None
    max_deviation: Fraction = Fraction(0)
    scanned: int = 0


def ball_family_search(L: int, eps: Fraction, parity: str = "odd") -> BallSearchResult:
    """Single-ball homogeneous-set search on the depth-L odd-split graph: the
    largest ball whose density is strictly below eps or above 1 - eps.

    Density depends only on the prefix length, so lengths are scanned from 0
    (largest mass first) down to co-depth MIN_CO_DEPTH. max_deviation reports
    how far from both 0 and 1 every scanned density stays.
    """
    require(isinstance(eps, Fraction) and 0 < eps < Fraction(1, 2),
            "eps must be in (0, 1/2)")
    require(L >= MIN_CO_DEPTH, "depth too small for the co-depth floor")
    en, ed = eps.numerator, eps.denominator
    out = BallSearchResult(False, scanned=L - MIN_CO_DEPTH + 1)
    for l in range(out.scanned):
        d = odd_split_density([DyadicBall("0" * l)], L, parity=parity)
        out.max_deviation = max(out.max_deviation, min(d, 1 - d))
        low = d.numerator * ed < en * d.denominator
        high = (d.denominator - d.numerator) * ed < en * d.denominator
        if (low or high) and not out.found:
            out.found, out.prefix_length, out.density = True, l, d
            out.mass = Fraction(1, 1 << l)
    return out


def ball_parity_report(L: int, parity: str = "odd") -> list[dict]:
    """Exact single-ball densities for every prefix length below L, against
    the limiting 1/3-2/3 dichotomy and the truncation bound."""
    require(L >= 2, "need depth at least 2")
    rows = []
    for l in range(L):
        ball = DyadicBall("0" * l)
        dens = odd_split_density([ball], L, parity=parity)
        odd_prefix = (l % 2 == 1) if parity == "odd" else (l % 2 == 0)
        limit = Fraction(2, 3) if odd_prefix else Fraction(1, 3)
        co = L - l
        bound = Fraction(1, 3 * ((1 << co) - 1))
        deviation = abs(dens - limit)
        rows.append({
            "prefix_length": l,
            "co_depth": co,
            "density": dens,
            "limit": limit,
            "exact": co % 2 == 0,
            "deviation": deviation,
            "bound": bound,
            "ok": dens == limit if co % 2 == 0 else deviation <= bound,
        })
    return rows


@dataclass
class AntiHomogeneityReport:
    pair_mass: Fraction
    bound: Fraction
    verdict: bool
    gamma: Fraction
    slack: Fraction
    mu_union: Fraction
    density: Fraction


def anti_homogeneity_bound_check(balls, b: DyadicBall, L: int,
                                 parity: str = "odd") -> AntiHomogeneityReport:
    """Edge pair-mass of a ball union A containing ball B stays below
    (1 - gamma^2/3 + slack) * mu(A)^2 with gamma = mu(B)/mu(A) and
    slack = gamma^2 / (3 * (2^(L-|B|) - 1)) for the finite truncation."""
    balls = list(balls)
    if b not in balls:
        raise InputError("ball B must be one of the union's balls")
    require(len(b.prefix) < L, "B must contain more than one leaf")
    counts = level_pair_counts(balls, L)
    want = 1 if parity == "odd" else 0
    hit = sum(c for m, c in enumerate(counts) if m % 2 == want)
    pair_mass = Fraction(hit, 1 << (2 * L))
    mu_a = sum((ball.measure() for ball in balls), Fraction(0))
    gamma = b.measure() / mu_a
    slack = gamma * gamma / (3 * ((1 << (L - len(b.prefix))) - 1))
    bound = (1 - gamma * gamma / 3 + slack) * mu_a * mu_a
    density = odd_split_density(balls, L, parity=parity)
    return AntiHomogeneityReport(pair_mass, bound, pair_mass <= bound,
                                 gamma, slack, mu_a, density)


def random_ball_union(L: int, seed: int, max_balls: int = 8) -> list[DyadicBall]:
    """Seeded disjoint ball union; deterministic via the named stdlib
    Mersenne Twister. At least one ball, prefix lengths below L."""
    require(L >= 2, "need depth at least 2")
    rng = random.Random(seed)
    target = rng.randint(1, max_balls)
    balls: list[DyadicBall] = []
    for _ in range(4 * max_balls):
        if len(balls) >= target:
            break
        l = rng.randint(0, L - 1)
        prefix = "".join(rng.choice("01") for _ in range(l))
        cand = DyadicBall(prefix)
        if any(cand.contains(x) or x.contains(cand) for x in balls):
            continue
        balls.append(cand)
    return sorted(balls, key=lambda x: (len(x.prefix), x.prefix))


# The depths dyadic_hypergraph builds, edge by edge (`gen dyadic-export --depth`).
EXPORT_DEPTHS = (2, 10)


def dyadic_hypergraph(L: int, parity: str = "odd"):
    """The full depth-L graph as a symmetric 2-partite hypergraph."""
    from .core import Hypergraph
    require(EXPORT_DEPTHS[0] <= L <= EXPORT_DEPTHS[1],
            "export depth must be in [{}, {}]".format(*EXPORT_DEPTHS))
    require(parity in ("odd", "even"), 'parity must be "odd" or "even"')
    n = 1 << L
    want = 1 if parity == "odd" else 0
    edges = [(x, y) for x in range(n) for y in range(n)
             if x != y and (L - (x ^ y).bit_length()) % 2 == want]
    return Hypergraph((n, n), edges, True)
