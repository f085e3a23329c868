"""Brute-force reference implementations.

Deliberately naive and independent of the production code paths: plain
enumeration over tuples, subsets, leaves, and triples. The test suite
compares engine outputs against these, exactly, and `vcreg selftest` runs
a few of those comparisons on an installed copy. Each reads the relation as
a set of tuples, `edge_set(H)`, built once per call.

Nothing here uses numpy at import: the measure-based recounts import `core`
(which does) and `block_vc_dimension` imports numpy only when called, so the
numpy-free subcommands can use the rest.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import DepthCapExceeded, VerificationError
from .jsonio import require


def edge_set(H: Hypergraph) -> frozenset[tuple[int, ...]]:
    """The relation as a frozenset of vertex tuples, built anew on each call."""
    from .core import edge_array
    return frozenset(map(tuple, edge_array(H).tolist()))


def _tuple_num(H: Hypergraph, measures):
    """(num, den): num(t), tuple t's product of per-part numerators, over den."""
    from .core import check_measures
    per = [m.numerators() for m in check_measures(H, measures)]

    def num(t) -> int:
        return math.prod(nums[v] for (nums, _), v in zip(per, t))
    return num, math.prod(den for _, den in per)


def brute_hypergraph_error(part_sizes, edges, symmetric: bool = False):
    """The message of the InputError that Hypergraph(part_sizes, edges,
    symmetric) raises, or None: each edge checked in Python, the lex-first
    bad one named (a vertex that is not an int orders after every int, by
    its repr), then the symmetric closure."""
    k = len(part_sizes)

    def fault(e):
        if not (type(e) is tuple and len(e) == k):
            return f"edge {e!r} does not have arity {k}"
        for i, v in enumerate(e):
            if not (type(v) is int and 0 <= v < part_sizes[i]):
                return f"edge {e!r} out of range in coordinate {i}"

    bad = [e for e in edges if fault(e)]
    if bad:
        return fault(min(bad, key=lambda e: [
            (type(v) is not int, v if type(v) is int else repr(v))
            for v in (e if type(e) is tuple else (e,))]))
    if symmetric and len(set(part_sizes)) != 1:
        return "symmetric flag requires equal part sizes"
    present = set(edges) if symmetric else ()
    for e in sorted(present):
        for p in itertools.permutations(e):
            if p not in present:
                return f"symmetric flag set but permutation {p} of edge {e} is absent"
    return None


def brute_fiber(H: Hypergraph, parts, b, edges=None) -> frozenset:
    """The fiber's members, by enumerating all of V_I and testing reassembled
    tuples against `edges`, edge_set(H) when not given."""
    parts = tuple(sorted(parts))
    comp = tuple(i for i in range(H.k) if i not in parts)
    edges = edge_set(H) if edges is None else edges
    members = []
    for a in itertools.product(*[range(H.part_sizes[i]) for i in parts]):
        t = [None] * H.k
        for i, v in zip(parts, a):
            t[i] = v
        for i, v in zip(comp, b):
            t[i] = v
        if tuple(t) in edges:
            members.append(a)
    return frozenset(members)


def brute_set_mass(H: Hypergraph, measures, tuples) -> Fraction:
    num, den = _tuple_num(H, measures)
    return Fraction(sum(map(num, tuples)), den)


def brute_density(H: Hypergraph, measures, box: Box) -> Fraction:
    num, _ = _tuple_num(H, measures)
    edges = edge_set(H)
    hit = total = 0
    for t in itertools.product(*box.sides):
        w = num(t)
        total += w
        if t in edges:
            hit += w
    if total == 0:
        raise ZeroDivisionError("box has measure zero")
    return Fraction(hit, total)


def brute_boxes_membership(boxes, t) -> bool:
    return any(all(t[i] in set(side) for i, side in enumerate(b.sides)) for b in boxes)


def brute_union_mass_error(H: Hypergraph, measures, boxes) -> Fraction:
    """Exact mass of the symmetric difference between the relation and a
    union of boxes, both as tuple sets. The union holds each box's tuples
    that lie in the product space: a side's vertex out of range counts
    nothing, as in brute_boxes_membership cell by cell."""
    num, den = _tuple_num(H, measures)
    covered = set()
    for b in boxes:
        covered.update(itertools.product(*[[v for v in side if 0 <= v < n]
                                           for side, n in zip(b.sides, H.part_sizes)]))
    return Fraction(sum(map(num, edge_set(H) ^ covered)), den)


def brute_fiber_atoms(H: Hypergraph, part: int, params) -> list[list[int]]:
    """The vertices of one part grouped by the membership of each tuple that
    puts the vertex at `part` and spreads a parameter over the other parts,
    groups ordered by their first member."""
    comp = tuple(i for i in range(H.k) if i != part)
    edges = edge_set(H)
    groups: dict = {}
    for v in range(H.part_sizes[part]):
        sig = []
        for b in params:
            t = [None] * H.k
            t[part] = v
            for idx, val in zip(comp, b):
                t[idx] = val
            sig.append(tuple(t) in edges)
        groups.setdefault(tuple(sig), []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def brute_shatters(members, subset) -> bool:
    subset = tuple(subset)
    traces = {tuple(v in m for v in subset) for m in members}
    return len(traces) == 2 ** len(subset)


def brute_vc_dimension(members, ground_size: int, cap: int = 8) -> int:
    """VC dimension by raw subset enumeration. Exponential; small inputs only."""
    members = [set(m) for m in members]
    d = 0
    for t in range(1, cap + 1):
        found = False
        for sub in itertools.combinations(range(ground_size), t):
            if brute_shatters(members, sub):
                found = True
                break
        if not found:
            return d
        d = t
    return d


def block_vc_dimension(mat, cap: int = 8, budget: int | None = None):
    """vc.vc_dimension_matrix by testing every t-subset of the distinct
    columns in lex order, 2048 at a time, each block with one sorted-code
    count; the budget is paid per tested subset, so the VCDimension it
    returns (budget_exhausted included) is the reference for the engine's."""
    import numpy as np
    from .vc import VCDimension
    require(cap >= 1, "cap must be >= 1")
    m = mat.shape[0]
    if m == 0:
        return VCDimension(0)
    log_bound = 0 if m == 1 else int(math.floor(math.log2(m)))
    limit = min(cap, log_bound) if log_bound else 0
    if limit == 0:
        return VCDimension(0)
    seen = {}
    for g in range(mat.shape[1]):
        seen.setdefault(mat[:, g].tobytes(), g)
    reps = sorted(seen.values())
    matr = mat[:, reps].astype(np.int64)
    spent = 0
    best = VCDimension(0)
    for t in range(1, limit + 1):
        found = None
        shifts = np.int64(1) << np.arange(t, dtype=np.int64)
        combos = itertools.combinations(range(len(reps)), t)
        while found is None:
            block = list(itertools.islice(combos, 2048))
            if not block:
                break
            take = len(block)
            if budget is not None:
                take = min(take, budget - spent)
            spent += take
            if take:
                idx = np.asarray(block[:take], dtype=np.intp)
                codes = (matr[:, idx] * shifts).sum(axis=2)
                codes.sort(axis=0)
                distinct = 1 + np.count_nonzero(np.diff(codes, axis=0), axis=0)
                hits = np.flatnonzero(distinct == (1 << t))
                if hits.size:
                    found = tuple(reps[i] for i in block[int(hits[0])])
            if found is None and take < len(block):
                return VCDimension(best.value, budget_exhausted=True,
                                   witness=best.witness)
        if found is None:
            return best
        best = VCDimension(t, witness=found)
    if best.value == cap:
        return VCDimension(cap, capped=True, witness=best.witness)
    return best


def _brute_heavy(members, weights, eps: Fraction) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(m)) for m in members
                  if sum((weights[v] for v in m), Fraction(0)) >= eps)


def _brute_greedy(heavy) -> list[int]:
    points: list[int] = []
    unhit = list(heavy)
    while unhit:
        best_pt, best_hits = None, -1
        for v in unhit[0]:
            hits = sum(1 for m in unhit if v in m)
            if hits >= best_hits:
                best_pt, best_hits = v, hits
        points.append(best_pt)
        unhit = [m for m in unhit if best_pt not in m]
    return points


def brute_greedy_net(members, weights, eps: Fraction) -> tuple[list[int], int]:
    """The greedy eps-net by plain set operations, and the number of heavy
    members (Fraction weight sum >= eps): repeatedly take the lex-least unhit
    heavy member and add its point hitting the most unhit heavy members,
    ties to the largest index."""
    heavy = _brute_heavy(members, weights, eps)
    return _brute_greedy(heavy), len(heavy)


def brute_net_size(dimension: int, eps: Fraction, base2: bool = False) -> int:
    """ceil(8 d (1/eps) max(1, log(1/eps))), the log natural or base 2, with
    the log from `decimal` at 50 digits (exact for a power of two in base 2)
    and the rest in Fractions."""
    from decimal import Decimal, localcontext
    x = 1 / Fraction(eps)
    if base2 and x.denominator == 1 and x.numerator & (x.numerator - 1) == 0:
        log = Fraction(x.numerator.bit_length() - 1)
    else:
        with localcontext() as ctx:
            ctx.prec = 50
            ln = (Decimal(x.numerator) / x.denominator).ln()
            log = Fraction(ln / Decimal(2).ln() if base2 else ln)
    return math.ceil(8 * max(1, dimension) * x * max(1, log))


def brute_random_net(members, weights, eps: Fraction, dimension: int, seed,
                     max_retries: int = 10) -> dict:
    """The seeded random eps-net: brute_net_size draws from the weights in
    lowest terms per attempt, the greedy net after max_retries failed
    attempts."""
    heavy = _brute_heavy(members, weights, eps)
    size = brute_net_size(dimension, eps)
    den = math.lcm(*(w.denominator for w in weights))
    cum = list(itertools.accumulate(int(w * den) for w in weights))
    rng = random.Random(seed)
    for attempt in range(1, max_retries + 1):
        pts = []
        for _ in range(size):
            x = rng.randrange(den)
            pts.append(next(i for i, c in enumerate(cum) if x < c))
        if all(set(pts).intersection(m) for m in heavy):
            return {"points": pts, "attempts": attempt, "size_ln": size}
    return {"points": _brute_greedy(heavy), "attempts": max_retries,
            "size_ln": size, "fallback": "greedy"}


def brute_delta_partition(H: Hypergraph, measures, eps: Fraction, measured_parts) -> dict:
    """The delta partition by sets: the greedy net over the pairs of
    distinct fibers at distance >= eps/2, classes as fingerprint atoms over
    the net (or by equal fibers when the net is not smaller than the measured
    side). For eps <= 1 and inputs small enough for brute_vc_dimension.

    The pairs (i, j), i < j, of fibers in the order of their 0/1 indicator
    vectors: while some pair agrees on every point taken, the net takes the
    point of the first such pair's symmetric difference that separates the
    most of them, ties to the largest."""
    from .core import check_measures
    left = tuple(sorted(measured_parts))
    right = tuple(i for i in range(H.k) if i not in left)
    measures = check_measures(H, measures)
    lefts = list(itertools.product(*[range(H.part_sizes[i]) for i in left]))
    rights = list(itertools.product(*[range(H.part_sizes[i]) for i in right]))
    weights = [math.prod((measures[i].weights[v] for i, v in zip(left, a)), start=Fraction(1))
               for a in lefts]
    index = {a: p for p, a in enumerate(lefts)}
    edges = edge_set(H)
    fibers = [frozenset(index[a] for a in brute_fiber(H, left, b, edges)) for b in rights]
    distinct = sorted(set(fibers), key=lambda f: [p in f for p in range(len(lefts))])
    d = brute_vc_dimension(distinct, len(lefts), cap=8)
    meta = {"fiber_dimension": f">={d}" if d == 8 else str(d),
            "fiber_dimension_value": d, "trivial_params": len(lefts)}
    keys = fibers
    params = list(range(len(lefts)))
    path = "trivial"
    if len(distinct) > 1:
        unhit = [(f, g) for f, g in itertools.combinations(distinct, 2)
                 if sum((weights[p] for p in f ^ g), Fraction(0)) >= eps / 2]
        net = []
        while unhit:
            f, g = unhit[0]
            net.append(max(f ^ g, key=lambda v: (sum((v in a) != (v in b) for a, b in unhit), v)))
            unhit = [(a, b) for a, b in unhit if (net[-1] in a) == (net[-1] in b)]
        bound = math.ceil(320 * max(d, 1) * (1 / eps) ** 2)
        meta.update({"net_size": len(net), "net_param_bound": bound})
        if len(net) < len(lefts) and len(net) <= bound:
            keys = [frozenset(f & set(net)) for f in fibers]
            params, path = sorted(net), "net"
    groups: dict = {}
    for r, key in enumerate(keys):
        groups.setdefault(key, []).append(r)
    classes = sorted(groups.values())
    worst = max((sum((weights[p] for p in fibers[x] ^ fibers[y]), Fraction(0))
                 for c in classes for x, y in itertools.combinations(c, 2)),
                default=Fraction(0))
    return {"classes": tuple(tuple(rights[r] for r in c) for c in classes),
            "params": tuple(lefts[p] for p in params), "path": path,
            "max_pair_distance": worst, "meta": meta}


def dyadic_leaves(balls, depth: int) -> list[int]:
    """All depth-L leaves under a union of prefix balls, as integers whose
    binary expansion (MSB first, width L) is the leaf word."""
    leaves = []
    for prefix in balls:
        ell = len(prefix)
        base = 0
        for c in prefix:
            base = (base << 1) | (1 if c == "1" else 0)
        lo = base << (depth - ell)
        leaves.extend(range(lo, lo + (1 << (depth - ell))))
    return sorted(leaves)


def split_level(x: int, y: int, depth: int) -> int:
    """0-indexed length of the common prefix of two distinct depth-L leaves."""
    diff = x ^ y
    return depth - diff.bit_length()


def brute_dyadic_pair_count(balls, depth: int, parity: int = 1) -> tuple[int, int]:
    """(#ordered distinct leaf pairs whose split level has the given parity,
    #ordered distinct leaf pairs), by full enumeration."""
    leaves = dyadic_leaves(balls, depth)
    hit = 0
    total = 0
    for x in leaves:
        for y in leaves:
            if x == y:
                continue
            total += 1
            if split_level(x, y, depth) % 2 == parity:
                hit += 1
    return hit, total


def brute_convexity_edges(points) -> tuple[int, int]:
    """(#strict midpoint-convex triples, #all increasing triples) over a
    strictly increasing point sequence."""
    pts = sorted(points)
    edges = 0
    total = 0
    for p, q, r in itertools.combinations(pts, 3):
        total += 1
        if p + r - 2 * q >= 0:
            edges += 1
    return edges, total


def brute_ap_count(points) -> int:
    pts = sorted(points)
    return sum(1 for p, q, r in itertools.combinations(pts, 3) if p + r == 2 * q)


def brute_ladder_index(H: Hypergraph, parts, cap: int = 8, budget: int | None = None):
    """The ladder branch and bound with every remaining a tried at every
    node and every node entered by a call, over fiber bit masks read from
    the edge set. Same order, node count and budget rule as
    stable.ladder_index, which counts the leaves in their parent's loop, so
    the certificates agree exactly, budget-exhausted ones included."""
    from .stable import LadderCertificate
    parts = tuple(sorted(parts))
    comp = tuple(i for i in range(H.k) if i not in parts)
    lefts = list(itertools.product(*[range(H.part_sizes[i]) for i in parts]))
    rights = list(itertools.product(*[range(H.part_sizes[i]) for i in comp]))
    left_index = {a: p for p, a in enumerate(lefts)}
    right_index = {b: p for p, b in enumerate(rights)}
    fiber_mask = [0] * len(rights)
    contains = [0] * len(lefts)
    for e in edge_set(H):
        a = left_index[tuple(e[i] for i in parts)]
        b = right_index[tuple(e[i] for i in comp)]
        fiber_mask[b] |= 1 << a
        contains[a] |= 1 << b

    def bits(mask: int):
        return [j for j in range(mask.bit_length()) if mask >> j & 1]

    best_len = 0
    best_stack: list[tuple[int, int]] = []
    nodes = 0
    exhausted = False

    def dfs(ca: int, cb: int, stack: list):
        nonlocal best_len, best_stack, nodes, exhausted
        if len(stack) > best_len:
            best_len = len(stack)
            best_stack = list(stack)
        if len(stack) >= cap or exhausted:
            return
        if len(stack) + min(ca.bit_count(), cb.bit_count()) <= best_len:
            return
        for a in bits(ca):
            cba = cb & contains[a]
            for b in bits(cba):
                nodes += 1
                if budget is not None and nodes > budget:
                    exhausted = True
                    return
                stack.append((a, b))
                dfs(ca & ~fiber_mask[b], cba, stack)
                stack.pop()
                if best_len >= cap or exhausted:
                    return

    dfs((1 << len(lefts)) - 1, (1 << len(rights)) - 1, [])
    return LadderCertificate(best_len, tuple(lefts[a] for a, _ in best_stack),
                             tuple(rights[b] for _, b in best_stack), parts,
                             capped=best_len >= cap, budget_exhausted=exhausted)


def brute_ladder_check(H: Hypergraph, parts, a_seq, b_seq) -> bool:
    """Direct membership check of the ladder pattern a_i in R_{b_j} iff i <= j."""
    parts = tuple(sorted(parts))
    comp = tuple(i for i in range(H.k) if i not in parts)
    if len(a_seq) != len(b_seq):
        return False
    edges = edge_set(H)
    for i, a in enumerate(a_seq):
        for j, b in enumerate(b_seq):
            t = [None] * H.k
            for idx, v in zip(parts, a):
                t[idx] = v
            for idx, v in zip(comp, b):
                t[idx] = v
            if (tuple(t) in edges) != (i <= j):
                return False
    return True


def brute_witness(hits, a_num: int, eps: Fraction):
    """The least (|2h - a|, r) over the fibers r whose mass h on a set of mass
    a is neither below eps a nor above (1 - eps) a, each side tested; its r,
    or None."""
    en, ed = eps.numerator, eps.denominator
    return min(((abs(2 * h - a_num), r) for r, h in enumerate(hits)
                if not (h * ed < en * a_num or (a_num - h) * ed < en * a_num)),
               default=(None, None))[1]


def brute_descent(H: Hypergraph, measures, part: int, eps: Fraction, depth_cap: int = 32):
    """stable.good_descent_partition as a plain per-fiber scan over lists:
    fibers read from the edge set, each fiber's mass a Python sum over the
    current vertices at every step, the witness the least (|2h - a|, r) over
    the fibers tested in band on both sides. The residue keeps its best-fit
    and re-extraction fallbacks, which the engine drops because the merge
    into the first piece is always eps-good. Returns the same GoodDescent,
    or raises DepthCapExceeded with the same tree."""
    from .core import check_measures
    from .stable import GoodDescent
    measures = check_measures(H, measures)
    comp = [i for i in range(H.k) if i != part]
    rights = list(itertools.product(*[range(H.part_sizes[i]) for i in comp]))
    size = H.part_sizes[part]
    edges = edge_set(H)
    fibers = [[(*b[:part], v, *b[part:]) in edges for v in range(size)] for b in rights]
    nums, _ = measures[part].numerators()
    per = [measures[i].numerators()[0] for i in comp]
    rnums = [math.prod(per[j][x] for j, x in enumerate(b)) for b in rights]
    eps_half = eps / 2

    def fiber_hits(current):
        return ([sum(nums[v] for v in current if row[v]) for row in fibers],
                sum(nums[v] for v in current))

    def descent_extract(support):
        current = sorted(support)
        path = []
        while True:
            hits, a_num = fiber_hits(current)
            worst_r = brute_witness(hits, a_num, eps_half)
            if worst_r is None:
                return current, path
            if len(path) >= depth_cap:
                raise DepthCapExceeded(f"descent exceeded depth cap {depth_cap}",
                                       tree=list(path))
            row = fibers[worst_r]
            inside = [v for v in current if row[v]]
            outside = [v for v in current if not row[v]]
            take_in = 2 * hits[worst_r] >= a_num
            path.append({"witness": rights[worst_r], "side": "in" if take_in else "out",
                         "sizes": (len(inside), len(outside))})
            current = inside if take_in else outside

    support = [v for v in range(size) if nums[v] > 0]
    zeros = [v for v in range(size) if nums[v] == 0]
    pieces, depths, witnesses = [], [], set()
    residue, steps, residue_action = support, 0, "none"

    def extract(until_small):
        nonlocal residue, steps
        while residue:
            if until_small and pieces:
                r_mass = sum(nums[v] for v in residue)
                p_mass = sum(nums[v] for v in pieces[0])
                if r_mass * eps_half.denominator <= eps_half.numerator * p_mass:
                    return
            piece, path = descent_extract(residue)
            steps += 1
            pieces.append(piece)
            depths.append(len(path))
            witnesses.update(step["witness"] for step in path)
            taken = set(piece)
            residue = [v for v in residue if v not in taken]

    def is_good(vertices, level):
        return brute_witness(*fiber_hits(sorted(vertices)), level) is None

    extract(until_small=True)
    if residue:
        merged = sorted(pieces[0] + residue)
        if is_good(merged, eps_half):
            pieces[0], residue_action = merged, "merged_first"
        elif is_good(merged, eps):
            pieces[0], residue_action = merged, "merged_first_at_eps"
        else:
            best_i = min(range(len(pieces)), key=lambda i: sum(
                w for w, row in zip(rnums, fibers) if row[pieces[i][0]] != row[residue[0]]))
            trial = sorted(pieces[best_i] + residue)
            if is_good(trial, eps):
                pieces[best_i], residue_action = trial, f"best_fit:{best_i}"
            else:
                residue_action = "re_extracted"
                extract(until_small=False)

    params = sorted(witnesses)
    if zeros:
        piece_of = {v: i for i, piece in enumerate(pieces) for v in piece}
        for atom in brute_fiber_atoms(H, part, params):
            home = next((piece_of[v] for v in atom if v in piece_of), 0)
            pieces[home].extend(v for v in atom if v not in piece_of)
        pieces = [sorted(p) for p in pieces]
    loose = {0} if residue_action.startswith("merged") else set()
    if residue_action.startswith("best_fit:"):
        loose = {int(residue_action.split(":")[1])}
    for i, piece in enumerate(pieces):
        positive = [v for v in piece if nums[v] > 0]
        if positive and not is_good(positive, eps if i in loose else eps_half):
            raise VerificationError(f"piece {i} failed goodness")
    return GoodDescent(part, tuple(tuple(p) for p in pieces), eps, tuple(depths),
                       tuple(params), steps, residue_action,
                       {"support": len(support), "zero_weight": len(zeros)})
