"""Set families, VC dimension, trace counting, and epsilon-nets.

The dimension search is exact. Ground elements with identical membership
across all members are collapsed first (two such elements never sit together
in a shattered set). Shattering is hereditary, so the search goes level by
level, t = 1, 2, ..., and only extends shattered sets: a column is shattered
when its count is strictly between 0 and the number of members, and a
shattered set s plus two columns a < k that each extend it is shattered when
the members of each trace on s hold both a and k, a alone, k alone and
neither, counted from one Gram product per trace (for s empty, one Gram
product of all members). Each level returns the lex-first shattered t-set.

The work budget is counted as if every t-subset were tested in lex order,
2048 at a time: with h the lex rank of the first shattered t-set, N = C(r, t)
for r collapsed elements and R the budget left, a level with h < R spends
min(2048 * ceil((h + 1) / 2048), N, R); a level with no shattered t-set and
N <= R spends N and ends the search; otherwise the budget is exhausted, the
result carries a flag and callers fall back to the provable upper bound
floor(log2(#members)).

The dimension of a fiber family is searched once per process: the memo's
"dimension" table (vcreg.remember) keeps MAX_DIMENSIONS finished searches,
first in first out, by content, so the delta partition, `vc dim`, `gen`'s
measured dimension and the random net share them across jobs, files and
Hypergraph objects; nothing that depends on eps or on the weights is kept.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import remember
from .core import (MAX_DENSE_SPACE, ROW_BLOCK_BYTES, Hypergraph, Measure, SpaceWeights,
                   binary_view, ceil_fraction, require_dense, row_keys)
from .errors import InputError
from .jsonio import require

# Most subsets shatter_function counts traces on, checked before any count
# (interval_family(40) at n = 4 has 91,390 and would take about 4 s).
MAX_SHATTER_SUBSETS = 1 << 16


@dataclass(frozen=True)
class SetFamily:
    """A finite family of subsets of {0..ground_size-1}, deduplicated;
    members are sorted tuples, in sorted order."""
    ground_size: int
    members: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_sets(ground_size: int, sets) -> "SetFamily":
        require(ground_size >= 0, "ground size must be nonnegative")
        dedup = {tuple(sorted(set(s))) for s in sets}
        for m in dedup:
            require(all(0 <= v < ground_size for v in m),
                    f"member {m!r} out of ground range")
        return SetFamily(ground_size, tuple(sorted(dedup)))

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "SetFamily":
        # .tolist() matters: np.int64 members hash slowly and serialize badly
        return SetFamily.from_sets(mat.shape[1],
                                   [np.flatnonzero(row).tolist() for row in mat])

    def matrix(self) -> np.ndarray:
        require_dense("set family matrix", len(self.members), self.ground_size)
        mat = np.zeros((len(self.members), self.ground_size), dtype=bool)
        sizes = [len(m) for m in self.members]
        cols = np.fromiter(itertools.chain.from_iterable(self.members),
                           dtype=np.intp, count=sum(sizes))
        mat[np.repeat(np.arange(len(sizes)), sizes), cols] = True
        return mat

    def to_obj(self) -> dict:
        return {"ground_size": self.ground_size,
                "members": [list(m) for m in self.members]}

    @staticmethod
    def from_obj(obj) -> "SetFamily":
        require(isinstance(obj, dict) and "ground_size" in obj and "members" in obj,
                'set family JSON must be {"ground_size": int, "members": [[...]]}')
        n, members = obj["ground_size"], obj["members"]
        # at most a binary-view side, the ground set of a hypergraph's fiber family
        require(type(n) is int and 0 <= n <= MAX_DENSE_SPACE,
                f"set family ground_size must be an integer in 0..{MAX_DENSE_SPACE}")
        require(type(members) is list and set(map(type, members)) <= {list}
                and set(map(type, itertools.chain.from_iterable(members))) <= {int},
                "set family members must be lists of integers")
        return SetFamily.from_sets(n, members)


@dataclass(frozen=True)
class VCDimension:
    value: int
    capped: bool = False          # every cap-size subset check succeeded; true dim may exceed
    budget_exhausted: bool = False
    witness: tuple[int, ...] = ()

    def display(self) -> str:
        return f">={self.value}" if (self.capped or self.budget_exhausted) else str(self.value)


# Random nets drawn before the random strategy falls back to the greedy net.
NET_RETRIES = 10


def _collapsed_columns(mat: np.ndarray) -> list[int]:
    """The first ground index of each distinct membership column, ascending."""
    return np.sort(np.unique(row_keys(mat.T), return_index=True)[1]).tolist()


def _lex_rank(combo: tuple[int, ...], r: int) -> int:
    """Position of a sorted t-subset of range(r) among all t-subsets in lex order."""
    t = len(combo)
    return math.comb(r, t) - 1 - sum(math.comb(r - 1 - c, t - i)
                                     for i, c in enumerate(combo))


class _Shattered:
    """The shattered column sets of a boolean matrix with distinct columns.

    `children(q)`, for a shattered q, lists ascending the k > q[-1] with
    q + (k,) shattered. It is computed once per q, for q and its next
    siblings at once, from the rows grouped by their trace on q[:-1]: a
    candidate k must extend q[:-1] as well, and q + (k,) is shattered iff
    every group shatters {q[-1], k}, that is, holds both, either one alone
    and neither, counted from one Gram product per group. Counts stay below
    2^53, so float64 products are exact; the products run over row blocks
    and sibling blocks of about ROW_BLOCK_BYTES."""

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.m, self.r = mat.shape
        sums = mat.sum(axis=0)
        self.kids = {(): np.flatnonzero((sums > 0) & (sums < self.m))}

    def children(self, q: tuple[int, ...]) -> np.ndarray:
        if q not in self.kids:
            self._siblings(q)
        return self.kids[q]

    def _siblings(self, q: tuple[int, ...]):
        """Children of q and of its next siblings q[:-1] + (a,), a in
        children(q[:-1])."""
        p = list(q[:-1])
        rest = self.kids[q[:-1]]
        rest = rest[rest >= q[-1]]
        width = len(rest)
        step = max(1, ROW_BLOCK_BYTES // (8 * width))
        n = min(width, step)
        trace = self.mat[:, p].astype(np.int64) @ (
            np.int64(1) << np.arange(len(p), dtype=np.int64))
        order = np.argsort(trace, kind="stable")
        ends = np.searchsorted(trace[order], np.arange(1, 1 << len(p)))
        ok = np.arange(width) > np.arange(n)[:, None]
        for lo, hi in zip(itertools.chain([0], ends), itertools.chain(ends, [self.m])):
            both = np.zeros((n, width))
            ones = np.zeros(width)
            for s in range(lo, hi, step):
                cols = self.mat[np.ix_(order[s:min(s + step, hi)], rest)].astype(np.float64)
                both += cols[:, :n].T @ cols
                ones += cols.sum(axis=0)
            # rows of this trace with a and k, a without k, k without a, neither
            alone = ones[:n, None] - both
            ok &= ((both > 0) & (alone > 0) & (ones - both > 0)
                   & (hi - lo - alone - ones > 0))
            if not ok.any():
                break
        for a, row in zip(rest[:n].tolist(), ok):
            self.kids[(*p, a)] = rest[row]


def _first_shattered(sets: _Shattered, t: int, room: int | None):
    """The lex-first shattered t-set of columns if its lex rank is below
    room, else None.

    Depth first over shattered prefixes in lex order. The least t-set
    through each prefix only grows along the walk, so the walk ends at the
    first prefix whose least t-set ranks at room or beyond."""
    r = sets.r
    q: tuple[int, ...] = ()
    stack = [iter(sets.children(q).tolist())]
    while stack:
        k = next(stack[-1], None)
        if k is None or k + t - len(q) > r:
            stack.pop()
            q = q[:-1]
            continue
        s = q + (k,)
        least = s + tuple(range(k + 1, k + 1 + t - len(s)))
        if room is not None and _lex_rank(least, r) >= room:
            return None
        if len(s) == t:
            return s
        q = s
        stack.append(iter(sets.children(s).tolist()))
    return None


def vc_dimension(family: SetFamily, cap: int = 8, budget: int | None = None) -> VCDimension:
    """Largest d <= cap with some shattered d-subset of the ground set."""
    require(cap >= 1, "cap must be >= 1")
    return vc_dimension_matrix(family.matrix(), cap, budget)


MAX_DIMENSIONS = 256   # finished searches the memo keeps


def vc_dimension_matrix(mat: np.ndarray, cap: int = 8,
                        budget: int | None = None) -> VCDimension:
    """vc_dimension of the family whose members are the rows of a boolean
    matrix; the rows must be pairwise distinct (their order is irrelevant).
    Each result is remembered by the matrix's content: the key is the sha256
    of the packed rows with the shape, cap and budget, and the row-block
    size, which never changes a result but decides how the search runs."""
    require(cap >= 1, "cap must be >= 1")
    require(budget is None or budget >= 0, "budget must be >= 0")
    key = (hashlib.sha256(np.packbits(mat, axis=1)).digest(), mat.shape, cap, budget,
           ROW_BLOCK_BYTES)
    return remember("dimension", MAX_DIMENSIONS, key, lambda: _dimension_search(mat, cap, budget))


def _dimension_search(mat: np.ndarray, cap: int, budget: int | None) -> VCDimension:
    # 2^d distinct rows are needed to shatter d columns
    limit = min(cap, mat.shape[0].bit_length() - 1)
    if limit < 1:
        return VCDimension(0)
    reps = _collapsed_columns(mat)
    sets = _Shattered(mat[:, reps])
    r = len(reps)
    spent = 0
    best = VCDimension(0)
    for t in range(1, limit + 1):
        room = None if budget is None else budget - spent
        total = math.comb(r, t)
        # every t-set ranks below total, so a room that large bounds nothing
        hit = _first_shattered(sets, t, room if room is not None and room < total else None)
        if hit is None:
            if room is not None and total > room:
                return VCDimension(best.value, budget_exhausted=True,
                                   witness=best.witness)
            return best
        if room is not None:
            # the t-sets before the hit's 2048-block end count as tested
            spent += min(2048 * (_lex_rank(hit, r) // 2048 + 1), total, room)
        best = VCDimension(t, witness=tuple(reps[i] for i in hit))
    if best.value == cap:
        return VCDimension(cap, capped=True, witness=best.witness)
    # stopped at the log2(#members) ceiling, which is exact, not a cap
    return best


def shatter_function(family: SetFamily, n: int) -> int:
    """pi_F(n): the largest number of traces the family cuts on an n-subset."""
    require(0 <= n <= family.ground_size, "n out of range for the ground set")
    if n == 0 or not family.members:
        # the empty set has one trace, cut by any member at all
        return min(1, len(family.members))
    mat = family.matrix()
    reps = _collapsed_columns(mat)
    t = min(n, len(reps))
    subsets = math.comb(len(reps), t)
    require(subsets <= MAX_SHATTER_SUBSETS, f"shatter_function: {subsets} {t}-subsets of "
            f"{len(reps)} distinct columns, over the {MAX_SHATTER_SUBSETS}-subset limit")
    best = 0
    ceiling = min(1 << t, len(family.members))
    for cols in itertools.combinations(reps, t):
        codes = mat[:, list(cols)].astype(np.int64) @ (
            np.int64(1) << np.arange(t, dtype=np.int64))
        codes.sort()
        best = max(best, 1 + int(np.count_nonzero(codes[1:] != codes[:-1])))
        if best == ceiling:
            break
    return best


def sauer_bound(d: int, n: int) -> int:
    return sum(math.comb(n, i) for i in range(0, min(d, n) + 1))


def fiber_family(H: Hypergraph, parts) -> SetFamily:
    """Fibers over V_I (= parts) indexed by the complementary side, deduplicated."""
    view = binary_view(H, tuple(parts))
    return SetFamily.from_matrix(view.fibers)


@dataclass
class EpsNet:
    points: tuple[int, ...]
    verified: bool
    strategy: str
    meta: dict = field(default_factory=dict)


def greedy_net(heavy: np.ndarray) -> list[int]:
    """Deterministic greedy over boolean heavy rows sorted in the lex order
    of their member tuples: take the lex-least unhit row, add the point of
    it hitting the most currently-unhit rows (ties by largest index, the
    classic right-endpoint rule on interval families). The hit counts are
    summed over row blocks of about ROW_BLOCK_BYTES."""
    points: list[int] = []
    step = max(1, ROW_BLOCK_BYTES // max(1, heavy.shape[1]))

    def column_sums(rows):
        return sum((heavy[rows[s:s + step]].sum(0) for s in range(0, len(rows), step)),
                   np.zeros(heavy.shape[1], dtype=np.intp))

    hits = column_sums(np.arange(heavy.shape[0]))
    unhit = np.ones(heavy.shape[0], dtype=bool)
    first = 0
    while first < heavy.shape[0]:
        members = np.flatnonzero(heavy[first])
        score = hits[members]
        best = int(members[len(members) - 1 - int(np.argmax(score[::-1]))])
        points.append(best)
        newly = np.flatnonzero(unhit & heavy[:, best])
        hits -= column_sums(newly)
        unhit[newly] = False
        rest = unhit[first:]
        first += int(np.argmax(rest)) if rest.any() else len(rest)
    return points


def net_hits_all(heavy: np.ndarray, points) -> bool:
    """Whether every boolean heavy row holds one of the points."""
    mask = np.zeros(heavy.shape[1], dtype=bool)
    mask[np.asarray(points, dtype=np.intp)] = True
    return bool((heavy @ mask).all())   # a boolean product is an any() of ands


def _atanh_bounds(z: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bounds on 2 atanh(z) = ln((1 + z) / (1 - z)), 0 <= z < 1: twice the
    first `terms` terms of sum z^(2i+1) / (2i+1), and that plus twice the
    bound z^(2 terms+1) / ((2 terms+1) (1 - z^2)) on the rest."""
    lo = 2 * sum((z ** (2 * i + 1) / (2 * i + 1) for i in range(terms)), Fraction(0))
    return lo, lo + 2 * z ** (2 * terms + 1) / ((2 * terms + 1) * (1 - z * z))


def _ceil_log_size(scale: Fraction, x: Fraction, base2: bool) -> int:
    """ceil(scale * max(1, log x)), log natural or base 2, exactly. With
    x = 2^k m, 1 <= m < 2, ln x = k ln 2 + ln m and log2 x = k + ln m / ln 2,
    where ln 2 = 2 atanh(1/3) and ln m = 2 atanh((m - 1) / (m + 1)). The
    bounds tighten until both ends give one ceiling; log x is irrational
    unless m = 1, where log2 x = k is exact, so that always happens."""
    if x <= 2:   # log x <= 1 under either reading
        return math.ceil(scale)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    k -= x < 2 ** k
    z, terms = (x / 2 ** k - 1) / (x / 2 ** k + 1), 4
    while True:
        (lo2, hi2), (lom, him) = _atanh_bounds(Fraction(1, 3), terms), _atanh_bounds(z, terms)
        lo, hi = (k + lom / hi2, k + him / lo2) if base2 else (k * lo2 + lom, k * hi2 + him)
        size = math.ceil(scale * max(1, lo))
        if size == math.ceil(scale * max(1, hi)):
            return size
        terms *= 2


def net_size_formula(d: int, eps: Fraction) -> dict:
    """Sample sizes ceil(8*d*(1/eps)*max(1, log(1/eps))) under both log
    readings, in exact arithmetic; the natural-log size is the one sampled."""
    x = 1 / Fraction(eps)
    d_eff = max(1, d)
    return {
        "size_ln": _ceil_log_size(8 * d_eff * x, x, False),
        "size_log2": _ceil_log_size(8 * d_eff * x, x, True),
        "d_used": d_eff,
    }


def epsilon_net(family: SetFamily, mu: Measure, eps: Fraction,
                strategy: str = "greedy", seed: int | None = None) -> EpsNet:
    """A point set meeting every family member of measure >= eps, verified
    exhaustively and exactly."""
    require(isinstance(eps, Fraction), "eps must be a Fraction")
    require(eps > 0, "eps must be positive")
    weights, den = mu.numerators()
    require(len(weights) == family.ground_size, "measure length does not match the ground set")
    mat = family.matrix()
    mass = SpaceWeights((mu,), (0,), (family.ground_size,)).sums(mat)
    # members are sorted tuples in sorted order, so the rows are in lex order
    heavy = mat[np.array(mass, dtype=object) >= min(ceil_fraction(eps * den), den + 1)]
    meta: dict = {"heavy_members": heavy.shape[0]}
    if strategy == "greedy":
        pts = greedy_net(heavy)
        return EpsNet(tuple(pts), net_hits_all(heavy, pts), "greedy", meta)
    if strategy != "random":
        raise InputError(f"unknown net strategy {strategy!r}")
    dim = vc_dimension_matrix(mat, cap=8, budget=500_000)
    sizes = net_size_formula(dim.value, eps)
    meta.update(sizes)
    meta["dimension"] = dim.display()
    rng = random.Random(seed)
    cum = list(itertools.accumulate(weights))
    for attempt in range(1, NET_RETRIES + 1):
        pts = [bisect.bisect_right(cum, rng.randrange(den))
               for _ in range(sizes["size_ln"])]
        if net_hits_all(heavy, pts):
            meta["attempts"] = attempt
            return EpsNet(tuple(pts), True, "random", meta)
    meta["attempts"] = NET_RETRIES
    meta["fallback"] = "greedy"
    pts = greedy_net(heavy)
    return EpsNet(tuple(pts), net_hits_all(heavy, pts), "random", meta)
