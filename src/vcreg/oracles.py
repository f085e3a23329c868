"""Brute-force reference implementations.

Deliberately naive and independent of the production code paths: plain
enumeration over tuples, subsets, leaves, and triples. The test suite and
the CLI selftest compare engine outputs against these, exactly.

Nothing here uses numpy at import: the measure-based recounts import `core`
(which does) and `block_vc_dimension` imports numpy only when called, so the
numpy-free subcommands can use the rest.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import ZeroMeasureBox
from .jsonio import require


def _product_measure(H: Hypergraph, measures):
    from .core import ProductMeasure, check_measures
    return ProductMeasure(check_measures(H, measures))


def brute_fiber(H: Hypergraph, parts, b) -> frozenset:
    """Fiber membership by enumerating all of V_I and testing reassembled tuples."""
    parts = tuple(sorted(parts))
    comp = tuple(i for i in range(H.k) if i not in parts)
    members = []
    for a in itertools.product(*[range(H.part_sizes[i]) for i in parts]):
        t = [None] * H.k
        for i, v in zip(parts, a):
            t[i] = v
        for i, v in zip(comp, b):
            t[i] = v
        if tuple(t) in H.edges:
            members.append(a)
    return frozenset(members)


def brute_set_mass(H: Hypergraph, measures, tuples) -> Fraction:
    pm = _product_measure(H, measures)
    return sum((pm.tuple_weight(t) for t in tuples), Fraction(0))


def brute_symdiff_mass(H: Hypergraph, measures, other_edges) -> Fraction:
    sym = H.edges.symmetric_difference(frozenset(other_edges))
    return brute_set_mass(H, measures, sym)


def brute_density(H: Hypergraph, measures, box: Box, distinct: bool = False) -> Fraction:
    pm = _product_measure(H, measures)
    hit = Fraction(0)
    total = Fraction(0)
    for t in itertools.product(*box.sides):
        if distinct and len(set(t)) != H.k:
            continue
        w = pm.tuple_weight(t)
        total += w
        if t in H.edges:
            hit += w
    if total == 0:
        raise ZeroDivisionError("box has measure zero")
    return hit / total


def one_pass_box_counts(H: Hypergraph, measures, classes, keys) -> list[tuple[int, int]]:
    """(edge numerator, box numerator) of each box in `keys`, a key being one
    class index per part, both over the product of the measures' common
    denominators. One pass over the edges adds each edge's numerator product
    to its box; a box's total is the product of its sides' numerator sums.
    Plain Python, so it checks partitions independently of the box-sum
    kernel that builds them. A key whose box has total 0 is a ZeroMeasureBox."""
    require(len(measures) == H.k == len(classes), "need one measure and one class list per part")
    nums = [m.numerators()[0] for m in measures]
    owner = []
    for n, part in zip(H.part_sizes, classes):
        row = [-1] * n
        for c, members in enumerate(part):
            for v in members:
                row[v] = c
        owner.append(row)
    hits: dict = {}
    for e in H.edges:
        key = tuple(o[v] for o, v in zip(owner, e))
        w = 1
        for ns, v in zip(nums, e):
            w *= ns[v]
        hits[key] = hits.get(key, 0) + w
    sides = [[sum(ns[v] for v in members) for members in part]
             for ns, part in zip(nums, classes)]
    out = []
    for key in keys:
        total = math.prod(s[c] for s, c in zip(sides, key))
        if total == 0:
            raise ZeroMeasureBox(f"box {list(key)} has measure zero")
        out.append((hits.get(key, 0), total))
    return out


def brute_boxes_membership(boxes, t) -> bool:
    return any(all(t[i] in set(side) for i, side in enumerate(b.sides)) for b in boxes)


def brute_union_mass_error(H: Hypergraph, measures, boxes) -> Fraction:
    """Exact mass of the symmetric difference between the relation and a
    union of boxes, by enumerating the whole product space."""
    pm = _product_measure(H, measures)
    err = 0
    for t in itertools.product(*[range(n) for n in H.part_sizes]):
        if (t in H.edges) != brute_boxes_membership(boxes, t):
            err += pm.tuple_num(t)
    return Fraction(err, pm.den)


def brute_atoms_by_combinations(H: Hypergraph, parts, params) -> list[frozenset]:
    """Nonempty atoms of the Boolean algebra generated by the fibers of the
    given parameters, built by explicit set intersection per sign pattern."""
    parts = tuple(sorted(parts))
    ground = set(itertools.product(*[range(H.part_sizes[i]) for i in parts]))
    fibers = [set(brute_fiber(H, parts, b)) for b in params]
    atoms = []
    for signs in itertools.product((True, False), repeat=len(fibers)):
        cell = set(ground)
        for s, f in zip(signs, fibers):
            cell &= f if s else (ground - f)
            if not cell:
                break
        if cell:
            atoms.append(frozenset(cell))
    if not fibers and ground:
        atoms = [frozenset(ground)]
    return atoms


def brute_fiber_atoms(H: Hypergraph, part: int, params) -> list[list[int]]:
    """The vertices of one part grouped by the membership of each tuple that
    puts the vertex at `part` and spreads a parameter over the other parts,
    groups ordered by their first member."""
    comp = tuple(i for i in range(H.k) if i != part)
    groups: dict = {}
    for v in range(H.part_sizes[part]):
        sig = []
        for b in params:
            t = [None] * H.k
            t[part] = v
            for idx, val in zip(comp, b):
                t[idx] = val
            sig.append(tuple(t) in H.edges)
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


def brute_random_net(members, weights, eps: Fraction, dimension: int, seed,
                     max_retries: int = 10) -> dict:
    """The seeded random eps-net: 8 d (1/eps) ln(1/eps) draws from the
    weights in lowest terms per attempt, the greedy net after max_retries
    failed attempts."""
    heavy = _brute_heavy(members, weights, eps)
    inv = 1 / float(eps)
    size = math.ceil(8 * max(1, dimension) * inv * max(1.0, math.log(inv)))
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


def brute_delta_partition(H: Hypergraph, measures, eps: Fraction, measured_parts,
                          strategy: str = "greedy", seed: int = 0) -> dict:
    """The delta partition by sets: every pairwise fiber difference, the
    eps/2-net of the heavy ones, classes as fingerprint atoms over the net
    (or by equal fibers when the net is not smaller than the measured side).
    For eps <= 1 and inputs small enough for brute_vc_dimension."""
    from .core import check_measures
    left = tuple(sorted(measured_parts))
    right = tuple(i for i in range(H.k) if i not in left)
    measures = check_measures(H, measures)
    lefts = list(itertools.product(*[range(H.part_sizes[i]) for i in left]))
    rights = list(itertools.product(*[range(H.part_sizes[i]) for i in right]))
    weights = [math.prod((measures[i].weights[v] for i, v in zip(left, a)), start=Fraction(1))
               for a in lefts]
    index = {a: p for p, a in enumerate(lefts)}
    fibers = [frozenset(index[a] for a in brute_fiber(H, left, b)) for b in rights]
    distinct = sorted({tuple(sorted(f)) for f in fibers})
    d = brute_vc_dimension(distinct, len(lefts), cap=8)
    meta = {"fiber_dimension": f">={d}" if d == 8 else str(d),
            "fiber_dimension_value": d, "trivial_params": len(lefts)}
    keys = fibers
    params = list(range(len(lefts)))
    path = "trivial"
    if len(distinct) > 1:
        diffs = {tuple(sorted(set(f) ^ set(g)))
                 for f, g in itertools.combinations(distinct, 2)}
        if strategy == "greedy":
            points, _ = brute_greedy_net(diffs, weights, eps / 2)
        else:
            dd = brute_vc_dimension(diffs, len(lefts), cap=8)
            points = brute_random_net(diffs, weights, eps / 2, dd, seed)["points"]
        net = sorted(set(points))
        bound = math.ceil(320 * max(d, 1) * (1 / eps) ** 2)
        meta.update({"net_size": len(net), "net_param_bound": bound,
                     "net_strategy": strategy})
        if len(net) < len(lefts) and len(net) <= bound:
            keys = [frozenset(f & set(net)) for f in fibers]
            params, path = net, "net"
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
    node, over fiber bit masks read from the edge set. Same order, node
    count and budget rule as stable.ladder_index, so the certificates agree
    exactly, budget-exhausted ones included."""
    from .stable import LadderCertificate
    parts = tuple(sorted(parts))
    comp = tuple(i for i in range(H.k) if i not in parts)
    lefts = list(itertools.product(*[range(H.part_sizes[i]) for i in parts]))
    rights = list(itertools.product(*[range(H.part_sizes[i]) for i in comp]))
    left_pos = {a: p for p, a in enumerate(lefts)}
    right_pos = {b: p for p, b in enumerate(rights)}
    fiber_mask = [0] * len(rights)
    contains = [0] * len(lefts)
    for e in H.edges:
        a = left_pos[tuple(e[i] for i in parts)]
        b = right_pos[tuple(e[i] for i in comp)]
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
    for i, a in enumerate(a_seq):
        for j, b in enumerate(b_seq):
            t = [None] * H.k
            for idx, v in zip(parts, a):
                t[idx] = v
            for idx, v in zip(comp, b):
                t[idx] = v
            if (tuple(t) in H.edges) != (i <= j):
                return False
    return True
