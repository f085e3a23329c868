"""Regularity machinery: fiber-distance partitions, unions of definable
boxes approximating the relation, and 0-1 regular partitions.

Everything is verified exactly as it is built. The plan:

  1. delta_approx_partition splits one side into classes whose fibers are
     pairwise closer than eps in measure, using either a greedy eps/2-net
     that separates every pair of fibers at distance >= eps/2 (classes =
     fingerprint atoms over the net) or the trivial exact grouping by equal
     fibers, whichever needs the smaller parameter set.
  2. rectangular_approximation recurses on the last coordinate: split it at
     eps/2, approximate each representative's fiber relation at eps/2, and
     glue. The exact symmetric-difference mass is computed fiberwise and
     must come out below eps.
  3. regular_partition runs 2 at delta = eps, eps/2, eps^2 in turn, takes
     per-part atoms over the box sides, collects exceptional boxes with
     sym-difference density >= eps into Sigma, and labels the rest by the
     approximation, which makes them 0-1 dense. It keeps the first delta
     whose Sigma mass, computed exactly, is <= eps; at eps^2 Markov's bound
     guarantees that, and the check still runs.

The builders sum boxes with core.box_counts and decide them all at once by
exact array comparisons; verify_regular_partition recounts them by another
algorithm (recount_boxes), so no kernel that built a partition certifies it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from .core import (MAX_DENSE_SPACE, MAX_DIFF_BYTES, ROW_BLOCK_BYTES, Box, Hypergraph, Measure,
                   SpaceWeights, atoms, binary_view, box_counts, boxes_mask, ceil_fraction,
                   check_measures, edge_array, edge_mass, exact_dtype, fiber_atoms, row_keys,
                   tuples_at)
from .errors import InputError, VerificationError, ZeroMeasureBox
from .jsonio import format_rational, parse_rational, require
from .vc import sauer_bound, vc_dimension_matrix

FIBER_DIM_BUDGET = 200_000   # search nodes for the fiber family's VC dimension


@dataclass
class DeltaPartition:
    classes: tuple[tuple[tuple[int, ...], ...], ...]   # each one's first member represents it
    params: tuple[tuple[int, ...], ...]
    path: str                     # "net" | "trivial"
    max_pair_distance: Fraction
    meta: dict = field(default_factory=dict)


def _pairwise_max_distance(x: np.ndarray, lw: SpaceWeights) -> int:
    """The largest weighted distance between two of the 0/1 rows F from
    lw.cast, with weights w, as a numerator over lw.den. A[i, j] = mass(f_i
    minus f_j), the product (F w)(not F)^T, is a subset sum of each limb, so
    it is exact like a row sum, and so are the distances A + A^T, masses of at
    most den. Both go by square tiles of about ROW_BLOCK_BYTES over the upper
    triangle (SpaceWeights.inner). It never reads the Gram matrix the classes
    came from."""
    step = max(1, math.isqrt(ROW_BLOCK_BYTES // 8))

    def minus(i: int, j: int):   # the tile of A at rows i and columns j
        return lw.inner(x[i:i + step], 1 - x[j:j + step])

    best = 0
    for i in range(0, len(x), step):
        for j in range(i, len(x), step):
            a = minus(i, j)
            best = max(best, int((a + (a if i == j else minus(j, i)).T).max()))
    return best


def _class_max_distance(x: np.ndarray, fiber_of: list, classes, lw) -> Fraction:
    """The largest _pairwise_max_distance within one class, over each class's
    distinct rows of the cast fibers `x` (fiber_of[p] is the row of right
    position p), so that equal fibers, however many, cost nothing."""
    distinct = ({fiber_of[p] for p in ps} for ps in classes if len(ps) > 1)
    return Fraction(max((_pairwise_max_distance(x[list(ids)], lw)
                         for ids in distinct if len(ids) > 1), default=0), lw.den)


def _fiber_matrix_bytes(m: int, w: int, den: int) -> int:
    """The bytes delta_approx_partition's matrices over m distinct fibers of
    w positions take, as core.MAX_DIFF_BYTES says; an m x m cell of Python
    ints (exact_dtype object, past int64) holds a pointer and an int of up to
    den's size."""
    cell = 8 if exact_dtype(den) is np.int64 else 8 + sys.getsizeof(den)
    return m * (3 * m * cell + 4 * w * 8)


def net_param_bound(d: int, eps: Fraction) -> int:
    return math.ceil(320 * max(d, 1) * (1 / eps) ** 2)


def _pair_net(fibers: np.ndarray, heavy: np.ndarray) -> list[int]:
    """The greedy net separating the pairs of rows of `fibers` that the
    symmetric boolean matrix `heavy` marks. A pair is unhit while both lie in
    one atom over the points taken. Each step takes the first unhit pair
    (i, j) in (i, j) order and adds the point of fibers[i] ^ fibers[j] that
    separates the most unhit pairs, ties to the largest.

    degree[a] counts the unhit pairs holding a, so i is the first row of
    nonzero degree (a partner before it would have one). With y = 1 - 2 *
    fibers, a pair (a, b) differs at q where y[a, q] y[b, q] is -1, so a count
    over pairs is (pairs - the sum of those products) / 2: one float32 product
    over every heavy pair, then one per point over the pairs it cuts from the
    smaller side of each atom it splits, whose row and column sums leave the
    degrees. Every count and partial sum is an integer of at most m^2 for m
    fibers, below 2^24 by the guard in delta_approx_partition, so exact."""
    y = 1 - 2 * fibers.astype(np.float32)
    degree = heavy.sum(axis=1, dtype=np.float32)
    hits = (degree.sum() - (y * (heavy.astype(np.float32) @ y)).sum(axis=0)) / 4
    atom = np.zeros(len(fibers), np.intp)
    points = []
    for _ in range(fibers.shape[1]):   # a point is new each step: at most one per column
        if not degree[i := int(np.argmax(degree > 0))]:
            break
        unhit = heavy[i, i + 1:] & (atom[i + 1:] == atom[i])
        cand = np.flatnonzero(fibers[i] != fibers[i + 1 + int(np.argmax(unhit))])
        p = int(cand[len(cand) - 1 - int(np.argmax(hits[cand][::-1]))])
        points.append(p)
        col = fibers[:, p]
        key = 2 * atom + col   # an atom's two sides of p are keys k and k ^ 1
        cnt = np.bincount(key, minlength=2 * len(fibers))
        own, other = cnt[key], cnt[key ^ 1]
        # the smaller side of each atom p splits, ties to the side holding p
        small = np.flatnonzero((other > 0) & ((own < other) | ((own == other) & col)))
        cut = (heavy[small] & ((key[small, None] ^ 1) == key)).astype(np.float32)
        per = cut.sum(axis=1)
        degree[small] -= per
        degree -= cut.sum(axis=0)
        hits -= (per.sum() - (y[small] * (cut @ y)).sum(axis=0)) / 2
        atom = (np.cumsum(cnt > 0) - 1)[key]
    return points


def delta_approx_partition(H: Hypergraph, measures, eps: Fraction,
                           measured_parts) -> DeltaPartition:
    """Partition the complement of `measured_parts` into classes of pairwise
    fiber distance < eps, with the parameter set the classes are atoms over.

    The eps/2-net is built from the distinct fibers alone: one exact
    weighted distance matrix picks the heavy pairs, at distance >= eps/2,
    and _pair_net separates them. A heavy pair left inside one atom of the
    net, recounted apart from the greedy, is a VerificationError."""
    require(isinstance(eps, Fraction) and 0 < eps <= 1, "eps must be in (0, 1]")
    measures = check_measures(H, measures)
    left = tuple(sorted(measured_parts))
    require(len(left) < H.k, "measured side must leave something to split")
    view = binary_view(H, left)
    lw = SpaceWeights(measures, view.left, H.part_sizes)

    rights = tuples_at(np.arange(view.right_size), view.right_sizes)
    _, first, fiber_of = np.unique(row_keys(view.fibers), return_index=True, return_inverse=True)
    fibers, fiber_of = view.fibers[first], fiber_of.tolist()
    m, w = fibers.shape
    need = _fiber_matrix_bytes(m, w, lw.den)
    # refused before the fiber dimension search and every m x w float copy;
    # one distinct fiber needs neither a distance matrix nor the class check
    require(m < 2 or need <= MAX_DIFF_BYTES, f"delta_approx_partition: the fiber distance "
            f"matrices need about {need} bytes ({m} distinct fibers x {w} left positions), "
            f"over the {MAX_DIFF_BYTES}-byte guard")
    x = lw.cast(fibers) if m > 1 else fibers

    def finish(ordered: list, params: tuple, path: str, meta: dict) -> DeltaPartition:
        classes = tuple(tuple(rights[p] for p in ps) for ps in ordered)
        worst = _class_max_distance(x, fiber_of, ordered, lw)
        if worst >= eps:
            raise VerificationError(
                f"class fiber distance {worst} is not below eps={eps}")
        return DeltaPartition(classes, params, path, worst, meta)

    dim = vc_dimension_matrix(fibers, cap=8, budget=FIBER_DIM_BUDGET)
    d_bound = dim.value if not dim.budget_exhausted else max(
        dim.value, max(1, m).bit_length() - 1)
    meta = {"fiber_dimension": dim.display(), "fiber_dimension_value": dim.value,
            "trivial_params": view.left_size}

    if m > 1:
        # D[i, j] = m_i + m_j - 2 G[i, j], exact in every arithmetic regime
        gram = lw.inner(x, x)
        mass = gram.diagonal()
        heavy = ((mass[:, None] - gram) + (mass[None, :] - gram)
                 >= min(ceil_fraction(eps / 2 * lw.den), lw.den + 1))
        net_points = sorted(_pair_net(fibers, heavy))
        # checked apart from the greedy: no heavy pair may share an atom
        atom = np.unique(row_keys(fibers[:, net_points]), return_inverse=True)[1]
        if (heavy & (atom[:, None] == atom)).any():
            raise VerificationError("delta_approx_partition: the net leaves a heavy "
                                    "fiber pair inside one atom")
        bound = net_param_bound(d_bound, eps)
        meta.update({"net_size": len(net_points), "net_param_bound": bound})
        if len(net_points) < view.left_size and len(net_points) <= bound:
            params = tuple(tuples_at(net_points, view.left_sizes))
            return finish(atoms(view.fibers[:, net_points]), params, "net", meta)

    params = tuple(tuples_at(np.arange(view.left_size), view.left_sizes))
    return finish(atoms(view.fibers), params, "trivial", meta)


@dataclass
class RectApprox:
    boxes: tuple[Box, ...]
    params: tuple[tuple[tuple[int, ...], ...], ...]
    error: Fraction
    levels: list = field(default_factory=list)

    def param_width(self) -> int:
        return max((len(d) for d in self.params), default=0)


def _support_rect(support) -> tuple:
    """The rect recursion on one part: the support is its one box."""
    support = tuple(support)
    return [Box((support,))] if support else [], (((),),), Fraction(0), []


def rectangular_approximation(H: Hypergraph, measures, eps: Fraction) -> RectApprox:
    """Union of boxes with definable sides within eps of the relation, with
    the parameter sets each side is definable over and the exact error."""
    require(isinstance(eps, Fraction) and 0 < eps <= 1, "eps must be in (0, 1]")
    measures = check_measures(H, measures)
    boxes, params, error, levels = _rect_recurse(H, measures, eps)
    if error >= eps:
        raise VerificationError(f"approximation error {error} not below eps={eps}")
    return RectApprox(tuple(boxes), params, error, levels)


def _rect_recurse(H: Hypergraph, measures, eps: Fraction):
    k = H.k
    if k == 1:
        return _support_rect(edge_array(H)[:, 0].tolist())

    child_eps = eps if k == 2 else eps / 2
    dp = delta_approx_partition(H, measures, child_eps, tuple(range(k - 1)))
    view = binary_view(H, tuple(range(k - 1)))
    lw = SpaceWeights(measures, view.left, H.part_sizes)
    rnums, rden = measures[k - 1].numerators()

    boxes = []
    param_sets = [set() for _ in range(k)]
    sub_levels = []
    err_num = 0
    for cls in dp.classes:
        rep_v = cls[0][0]
        if k == 2:
            # the sub-relation is one cached fiber row, and so is its mask
            amask = view.fibers[rep_v]
            sub_boxes, sub_params, _, lv = _support_rect(np.flatnonzero(amask).tolist())
        else:
            sub = Hypergraph(H.part_sizes[:-1],
                             np.argwhere(view.fibers[rep_v].reshape(view.left_sizes)))
            sub_boxes, sub_params, _, lv = _rect_recurse(sub, measures[:-1], eps / 2)
            amask = boxes_mask(view.left_sizes, (b.sides for b in sub_boxes))
        sub_levels.extend(lv)
        class_vertices = tuple(sorted(b[0] for b in cls))
        boxes.extend(Box(b.sides + (class_vertices,)) for b in sub_boxes)
        for j in range(k - 1):
            param_sets[j].update(tuple(c) + (rep_v,) for c in sub_params[j])
        # exact error contribution: nu(b) * mu_left(fiber_b Delta A_class)
        diffs = lw.sums(view.fibers[[b[0] for b in cls]] ^ amask)
        err_num += sum(rnums[b[0]] * d for b, d in zip(cls, diffs))
    param_sets[k - 1].update(map(tuple, dp.params))

    error = Fraction(err_num, rden * lw.den)
    params = tuple(tuple(sorted(s)) for s in param_sets)
    level = {
        "arity": k,
        "eps_level": format_rational(child_eps),
        "split_path": dp.path,
        "classes": len(dp.classes),
        "split_params": len(dp.params),
        "net_param_bound": dp.meta.get("net_param_bound"),
        "class_bound_sauer": sauer_bound(dp.meta.get("fiber_dimension_value", 1),
                                         len(dp.params)),
        "fiber_dimension": dp.meta.get("fiber_dimension"),
    }
    return boxes, params, error, [level] + sub_levels


@dataclass(eq=False)
class RegularPartition:
    """Per-part classes and two arrays over their boxes in row-major order:
    `labels` (0, 1, or -1 for none) and `sigma`, the ascending indices of the
    exceptional boxes. Only files hold boxes, as class-index tuples."""
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    epsilon: Fraction
    sigma: np.ndarray
    labels: np.ndarray
    provenance: tuple[tuple[tuple[int, ...], ...], ...]
    meta: dict = field(default_factory=dict)

    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def to_obj(self) -> dict:
        # row-major order is the lex order of the keys; tuples go out as lists
        counts, live = self.class_counts(), np.flatnonzero(self.labels >= 0)
        return {"epsilon": format_rational(self.epsilon), "classes": self.classes,
                "sigma": tuples_at(self.sigma, counts), "provenance": self.provenance,
                "labels": list(zip(tuples_at(live, counts), self.labels[live].tolist()))}

    @staticmethod
    def from_obj(obj) -> "RegularPartition":
        require(isinstance(obj, dict) and obj.get("classes") and "epsilon" in obj,
                "partition JSON needs classes and epsilon")
        pairs = obj.get("labels", [])
        require(isinstance(pairs, list) and set(map(type, pairs)) <= {list}
                and set(map(len, pairs)) <= {2},
                "partition field 'labels' must be a list of [box, label] pairs")
        keys, values = tuple(zip(*pairs)) or ((), ())
        ints = _flat_ints(keys, 1)   # the keys' integers, flattened once
        if ints is None or _flat_ints(values, 0) is None:
            for key, value in pairs:   # name the first bad entry
                _int_lists(key, 1, "labels"), _int_lists(value, 0, "labels")
        if not set(values) <= {0, 1}:   # the last label of a box named twice counts
            keys, values = zip(*dict(zip(map(tuple, keys), values)).items())
            ints = None
            require(set(values) <= {0, 1}, "partition labels must be 0 or 1")
        classes = _tuples(_int_lists(obj["classes"], 3, "classes"))
        counts = [len(c) for c in classes]   # as the error messages print them
        sigma = _int_lists(obj.get("sigma", []), 2, "sigma")
        return RegularPartition(classes, parse_rational(obj["epsilon"]),
                                np.flatnonzero(label_grid(sigma, 1, counts) == 1),
                                label_grid(keys, values, counts, ints),
                                _tuples(_int_lists(obj.get("provenance", []), 3, "provenance")))


def _flat_ints(items, depth: int):
    """The integers nested `depth` lists deep in `items`, flattened a level at a time, or None."""
    for _ in range(depth):
        if not set(map(type, items)) <= {list}:
            return None
        items = list(itertools.chain.from_iterable(items))
    return items if set(map(type, items)) <= {int} else None


def _int_lists(obj, depth: int, name: str):
    """`obj`, a partition field of integers nested `depth` lists deep; a bad
    field is walked in document order to name its first bad entry's kind."""
    if _flat_ints([obj], depth) is None:
        require(depth > 0, f"partition field {name!r} must hold integers")
        require(isinstance(obj, list), f"partition field {name!r} must be nested lists")
        for x in obj:
            _int_lists(x, depth - 1, name)
    return obj


def _tuples(parts):
    """Per-part lists of integer lists as tuples of tuples."""
    return tuple(tuple(map(tuple, part)) for part in parts)


def _atoms_over_sides(n: int, sides) -> list[list[int]]:
    member = np.zeros((n, len(sides)), dtype=bool)
    member[np.fromiter(itertools.chain.from_iterable(sides), np.intp),
           np.repeat(np.arange(len(sides)), [len(s) for s in sides])] = True
    return atoms(member)


def _merge_zero_measure(classes: list[list[int]], measure: Measure) -> list[list[int]]:
    nums, _ = measure.numerators()
    mass = [sum(nums[v] for v in c) for c in classes]
    keep = [list(c) for c, m in zip(classes, mass) if m > 0]
    dead = [c for c, m in zip(classes, mass) if m == 0]
    if not keep:
        raise InputError("every class has measure zero; measure is degenerate")
    for c in dead:
        keep[0].extend(c)
    return [sorted(c) for c in keep]


def band(t: np.ndarray, e: np.ndarray, eps: Fraction) -> tuple:
    """(low, high): the boxes of total t and edge sum e whose edge density is
    below eps, and above 1 - eps, by the exact tests e * ed < en * t and
    (t - e) * ed < en * t, in object dtype when exact_dtype says the products
    leave int64. The builders' test: the verifier keeps its own."""
    en, ed = eps.numerator, eps.denominator
    if exact_dtype(int(t.max()) * max(en, ed)) is object:
        t, e = t.astype(object), e.astype(object)
    return e * ed < en * t, (t - e) * ed < en * t


def label_grid(keys, values, counts, key_ints=None) -> np.ndarray:
    """The labels `values` (a sequence, or one int for all) of the boxes
    `keys` (their integers in one list `key_ints`, if given) in row-major box
    order: -1 where a box has none, the last one where a key repeats. An
    InputError names the first key that names no box."""
    require(prod(counts) <= MAX_DENSE_SPACE, f"{prod(counts)} boxes exceed the dense-array guard")
    k, arr = len(counts), None
    if set(map(len, keys)) <= {k}:
        ints = itertools.chain.from_iterable(keys) if key_ints is None else key_ints
        with contextlib.suppress(OverflowError):   # past int64
            arr = np.fromiter(ints, np.int64, len(keys) * k).reshape(-1, k)
    if arr is not None and ((arr >= 0) & (arr < counts)).all():
        flat, grid = np.ravel_multi_index(arr.T, counts), np.full(prod(counts), -1, np.int8)
        if type(values) is not int:   # numpy assigns a repeated index in no fixed order
            last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
            flat, values = flat[last], np.fromiter(values, np.int8, len(flat))[last]
        grid[flat] = values
        return grid
    stray = next(key for key in keys if len(key) != k
                 or not all(0 <= c < n for c, n in zip(key, counts)))
    raise InputError(f"label or sigma entry {list(stray)} names no box of "
                     f"class counts {counts}")


def regular_partition(H: Hypergraph, measures, eps: Fraction,
                      uniform: bool = False) -> RegularPartition:
    """0-1 regular partition at eps: per-part definable classes, exceptional
    boxes Sigma of total mass <= eps, every other box of edge density below
    eps or above 1 - eps relative to its own mass (label 0 / 1).

    uniform=True is the symmetric variant: one partition shared by every
    part, atoms over the pooled parameter set. It needs the symmetric flag
    and one measure, so every part's weights must equal part 0's."""
    return _build_regular_partition(H, measures, eps, uniform)[0]


def _rect_ladder(eps: Fraction) -> list[Fraction]:
    """The rect deltas _build_regular_partition tries, coarsest first: eps,
    eps/2 and eps^2, without repeats or any finer than eps^2. Markov's bound
    (Sigma mass <= delta / eps) vouches only for the last, so a rung is kept
    only when its Sigma mass, computed exactly, is <= eps."""
    return sorted({d for d in (eps, eps / 2, eps * eps) if d >= eps * eps}, reverse=True)


def _build_regular_partition(H: Hypergraph, measures, eps: Fraction,
                             uniform: bool) -> tuple:
    """regular_partition's partition with its box sums (t, e, den), as
    core.box_counts returns them."""
    require(isinstance(eps, Fraction) and 0 < eps, "eps must be a positive Fraction")
    require(eps <= 1, "eps above 1 makes every partition regular; pass eps <= 1")
    require(not uniform or H.symmetric, "uniform partition needs the symmetric flag")
    measures = check_measures(H, measures)
    require(not uniform or len({m.numerators() for m in measures}) == 1,
            "uniform partition needs the same weights on every part")
    attempts = []
    for delta in _rect_ladder(eps):
        ra = rectangular_approximation(H, measures, delta)
        if uniform:
            pooled = sorted(set(itertools.chain.from_iterable(ra.params)))
            per_part_classes = [fiber_atoms(H, 0, pooled)] * H.k
            provenance = (tuple(pooled),) * H.k
        else:
            per_part_classes = [_atoms_over_sides(n, sorted({b.sides[i] for b in ra.boxes}))
                                for i, n in enumerate(H.part_sizes)]
            provenance = ra.params
        # _merge_zero_measure copies the classes, so the uniform parts share none
        per_part_classes = [_merge_zero_measure(c, m) for c, m in zip(per_part_classes, measures)]

        counts, t, e, den = box_counts(H, measures, per_part_classes)
        # Up to weight-0 vertices, every class lies wholly inside or wholly outside
        # each side of every rect box: non-uniform classes are atoms over the
        # sides, uniform ones atoms over the pooled parameters that define every
        # side, and _merge_zero_measure adds only weight-0 vertices. So a box's
        # mass in the approximation A is 0 or all of it, and the box lies in A
        # exactly when one positive-weight tuple does: each class's first
        # positive-weight vertex (every class has one) stands for it.
        reps = [[next(v for v in c if nums[v]) for c in classes] for classes, (nums, _)
                in zip(per_part_classes, (m.numerators() for m in measures))]
        inside = boxes_mask(H.part_sizes, (b.sides for b in ra.boxes)).reshape(
            H.part_sizes)[np.ix_(*reps)].reshape(-1)

        # the majority label is `inside`, and the mass off it is the
        # sym-difference mass, so a positive box outside Sigma is 0-1 dense
        low, high = band(t, e, eps)
        sigma = (t > 0) & ~np.where(inside, high, low)
        labels = np.where((t > 0) & ~sigma, inside, -1).astype(np.int8)
        sigma_mass = Fraction(sum(t[sigma].tolist()), den)
        attempts.append({"delta": delta, "rect_error": ra.error, "sigma_mass": sigma_mass})
        if sigma_mass <= eps:
            break
    else:
        raise VerificationError("exceptional mass exceeds eps")

    meta = {
        "rect_error": ra.error,
        "rect_eps": delta,
        "rect_attempts": attempts,
        "levels": ra.levels,
        "sigma_mass": sigma_mass,
        "class_counts": tuple(counts),
        "param_width": ra.param_width(),
        "uniform": uniform,
    }
    return RegularPartition(_tuples(per_part_classes), eps, np.flatnonzero(sigma), labels,
                            provenance, meta), t, e, den


def recount_boxes(H: Hypergraph, measures, classes_by_part) -> tuple:
    """What core.box_counts returns, the same exact_dtype(den) arrays, counted
    by another algorithm: the edges, each with its numerator product, are
    sorted by row-major box key and each run of equal keys is summed by
    np.add.reduceat. A box's total is the product of its sides' class sums."""
    measures = check_measures(H, measures)
    require(prod(H.part_sizes) <= MAX_DENSE_SPACE, f"product space of size "
            f"{prod(H.part_sizes)} exceeds the dense-array guard")
    per = [m.numerators() for m in measures]
    den = prod(d for _, d in per)
    dt = exact_dtype(den)
    edges, keys, weights, totals = edge_array(H), 0, 1, np.ones(1, dt)
    for i, ((nums, _), classes) in enumerate(zip(per, classes_by_part)):
        members = np.fromiter(itertools.chain.from_iterable(classes), np.intp)
        owner = np.repeat(np.arange(len(classes)), list(map(len, classes)))[np.argsort(members)]
        totals = np.multiply.outer(totals, np.array([sum(nums[v] for v in c) for c in classes], dt))
        keys = keys * len(classes) + owner[edges[:, i]]
        weights = weights * np.array(nums, dt)[edges[:, i]]
    hits = np.zeros(totals.size, dt)
    if len(edges):
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        hits[keys[starts]] = np.add.reduceat(weights[order], starts)
    return [len(c) for c in classes_by_part], totals.reshape(-1), hits, den


def verify_regular_partition(H: Hypergraph, measures, partition: RegularPartition,
                             recount: tuple | None = None) -> dict:
    """Recompute every promise of a partition from scratch; lists violations.

    Checks: per-part classes partition the parts; Sigma mass <= eps; every
    non-Sigma box is 0-1 dense at eps for its label (either label accepted
    when absent); classes are unions of fingerprint atoms over the recorded
    parameters. The boxes are summed by recount_boxes, not by the kernel of
    the builders; a caller that already holds recount_boxes(H, measures,
    partition.classes) passes it as recount. A labels array without one
    entry per box, or a Sigma index that names no box, is an InputError."""
    measures = check_measures(H, measures)
    require(len(partition.classes) == H.k,
            f"partition has {len(partition.classes)} parts, the relation {H.k}")
    require(len(partition.provenance) in (0, H.k),
            f"provenance has {len(partition.provenance)} parts, the relation {H.k}")
    for i, params in enumerate(partition.provenance):
        comp = H.complement_parts((i,))
        for b in params:
            require(len(b) == len(comp) and all(type(v) is int and 0 <= v < H.part_sizes[j]
                                                for v, j in zip(b, comp)),
                    f"provenance parameter {list(b)} of part {i} is not a vertex "
                    f"tuple over parts {list(comp)}")
    eps = partition.epsilon
    require(eps > 0, f"partition epsilon must be positive, not {format_rational(eps)}")
    violations = [{"kind": "not_a_partition", "part": i}
                  for i, part_classes in enumerate(partition.classes)
                  if sorted(v for c in part_classes for v in c) != list(range(H.part_sizes[i]))]
    if violations:
        return {"ok": False, "violations": violations}

    if recount is None:
        recount = recount_boxes(H, measures, partition.classes)
    counts, t, e, den = recount
    lab, sigma = partition.labels, partition.sigma
    require(len(lab) == len(t), f"partition has {len(lab)} labels for {len(t)} boxes")
    require(((0 <= sigma) & (sigma < len(t))).all(), "a Sigma index names no box")
    in_sigma = np.zeros(len(t), bool)
    in_sigma[sigma] = True
    en, ed = eps.numerator, eps.denominator
    if exact_dtype(int(t.max()) * max(en, ed)) is object:
        t, e = t.astype(object), e.astype(object)
    low, high = e * ed < en * t, (t - e) * ed < en * t
    dense = (low & (lab != 1)) | (high & (lab != 0))   # either, when unlabelled
    bad = np.flatnonzero(~(dense | in_sigma | (t == 0)))
    for key, b in zip(tuples_at(bad, counts), bad.tolist()):
        violations.append({
            "kind": "box_not_01_dense", "box": key, "label": int(lab[b]) if lab[b] >= 0 else None,
            "edge_mass": format_rational(Fraction(int(e[b]), den)),
            "box_mass": format_rational(Fraction(int(t[b]), den)),
        })
    sigma_mass = Fraction(sum(t[in_sigma].tolist()), den)
    if sigma_mass > eps:
        violations.append({"kind": "sigma_mass_exceeds_eps",
                           "sigma_mass": format_rational(sigma_mass)})
    for i, params in enumerate(partition.provenance):
        if params:   # no two classes may share a membership row over the params' fibers
            view = binary_view(H, (i,))
            cells = np.array(params, np.intp).reshape(len(params), H.k - 1)
            pos = (np.ravel_multi_index(cells.T, view.right_sizes) if view.right
                   else [0] * len(params))   # k = 1: the one fiber, as core.fiber_atoms
            keys = list(map(bytes, np.packbits(view.fibers[pos].T, axis=1)))
            pairs = {(keys[v], ci) for ci, c in enumerate(partition.classes[i]) for v in c}
            shared = Counter(key for key, _ in pairs)
            violations += [{"kind": "class_not_definable", "part": i, "class": ci}
                           for ci in sorted({ci for key, ci in pairs if shared[key] > 1})]
    return {"ok": not violations, "violations": violations,
            "sigma_mass": format_rational(sigma_mass),
            "box_count": len(t), "class_counts": counts}


def exactly_homogeneous(H: Hypergraph, measures, partition: RegularPartition,
                        recount: tuple | None = None) -> bool:
    """Whether every labelled box holds none or all of its mass, by the
    verifier's recount (recount, when given); a labelled box of mass 0 is a
    ZeroMeasureBox."""
    if recount is None:
        recount = recount_boxes(H, measures, partition.classes)
    counts, t, e, _ = recount
    labelled = partition.labels >= 0
    empty = np.argwhere((labelled & (t == 0)).reshape(counts))
    if len(empty):
        raise ZeroMeasureBox(f"box {empty[0].tolist()} has measure zero")
    return bool(((e == 0) | (e == t))[labelled].all())


@dataclass
class DenseBox:
    box: Box
    density: Fraction
    side_masses: tuple[Fraction, ...]
    delta_guarantee: Fraction
    eps_used: Fraction
    partition_meta: dict = field(default_factory=dict)


def find_dense_box(H: Hypergraph, measures, alpha: Fraction, eps: Fraction) -> DenseBox:
    """A box of density > 1 - eps with every side mass above an explicit
    guarantee, provided the relation has mass at least alpha."""
    measures = check_measures(H, measures)
    require(isinstance(alpha, Fraction) and 0 < alpha <= 1, "alpha must be in (0, 1]")
    require(isinstance(eps, Fraction) and 0 < eps < 1, "eps must be in (0, 1)")
    e_mass = edge_mass(H, measures)
    if e_mass < alpha:
        raise InputError(f"relation mass {e_mass} is below alpha={alpha}")
    eps_p = min(alpha, eps) / 4
    part, t, e, den = _build_regular_partition(H, measures, eps_p, False)
    counts = part.class_counts()
    delta = eps_p / prod(counts)
    one = part.labels == 1
    # the first heaviest labelled-1 box in row-major order
    best = int(np.argmax(np.where(one, t, -1)))
    if not (one[best] and Fraction(int(t[best]), den) > delta):
        raise VerificationError(
            "no labeled-1 box above the mass guarantee; the partition engine broke its promise")
    # label 1 means band's high test held: the density is above 1 - eps_p
    sides = [cls[c] for cls, c in zip(part.classes, tuples_at([best], counts)[0])]
    side_masses = tuple(m.mass(side) for m, side in zip(measures, sides))
    return DenseBox(Box.of(sides), Fraction(int(e[best]), int(t[best])), side_masses, delta,
                    eps_p, {"class_counts": counts,
                            "sigma_mass": format_rational(part.meta["sigma_mass"])})
