"""Regularity machinery: fiber-distance partitions, unions of definable
boxes approximating the relation, and 0-1 regular partitions.

Everything is verified exactly as it is built. The plan:

  1. delta_approx_partition splits one side into classes whose fibers are
     pairwise closer than eps in measure, using either an eps/2-net for the
     fiber-difference family (classes = fingerprint atoms over the net) or
     the trivial exact grouping by equal fibers, whichever needs the smaller
     parameter set.
  2. rectangular_approximation recurses on the last coordinate: split it at
     eps/2, approximate each representative's fiber relation at eps/2, and
     glue. The exact symmetric-difference mass is computed fiberwise and
     must come out below eps.
  3. regular_partition runs 2 at eps^2, takes per-part atoms over the box
     sides, collects exceptional boxes with sym-difference density >= eps
     into Sigma, and labels the rest by the approximation, which makes them
     0-1 dense. Sigma mass <= eps is re-checked exactly before returning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from .core import (MAX_DIFF_BYTES, Box, Hypergraph, Measure, SpaceWeights, atoms,
                   binary_view, box_counts, boxes_mask, ceil_fraction, check_measures,
                   edge_array, edge_mass, fiber_atoms, weighted_inner)
from .errors import InputError, VerificationError
from .jsonio import format_rational, require
from .vc import (ROW_BLOCK_BYTES, heavy_net, net_dimension, packed_lex_keys,
                 sauer_bound, unpack_rows, vc_dimension_matrix)


@dataclass
class DeltaPartition:
    measured_parts: tuple[int, ...]
    split_parts: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    representatives: tuple[tuple[int, ...], ...]
    params: tuple[tuple[int, ...], ...]
    epsilon: Fraction
    path: str                     # "net" | "trivial" | "single"
    max_pair_distance: Fraction | None = None
    meta: dict = field(default_factory=dict)


def _pairwise_max_distance(rows: np.ndarray, lw: SpaceWeights) -> Fraction:
    best = max((max(lw.sums(rows[i] ^ rows[i + 1:])) for i in range(len(rows) - 1)),
               default=0)
    return Fraction(best, lw.den)


def net_param_bound(d: int, eps: Fraction) -> int:
    return math.ceil(320 * max(d, 1) * (1 / eps) ** 2)


def _difference_rows(packed: np.ndarray, width: int, ii: np.ndarray,
                     jj: np.ndarray) -> np.ndarray:
    """The distinct rows packed[ii] ^ packed[jj], still packed, in the lex
    order of their member tuples; `packed` holds fibers of `width` positions
    packed by np.packbits(axis=1)."""
    need = len(ii) * width
    if need > MAX_DIFF_BYTES:
        raise InputError(
            f"delta_approx_partition: the fiber-difference matrix needs about "
            f"{need} bytes ({len(ii)} fiber pairs x {width} left positions), "
            f"over the {MAX_DIFF_BYTES}-byte guard")
    if not len(ii):
        return packed[:0]
    # XOR-ed and keyed in blocks: only the keys, two bits per position, are
    # held for every pair at once
    step = max(1, ROW_BLOCK_BYTES // max(1, width))
    keys = np.concatenate([packed_lex_keys(packed[ii[s:s + step]] ^ packed[jj[s:s + step]],
                                           width)
                           for s in range(0, len(ii), step)])
    _, first = np.unique(keys, return_index=True)
    return packed[ii[first]] ^ packed[jj[first]]


def delta_approx_partition(H: Hypergraph, measures, eps: Fraction, measured_parts,
                           strategy: str = "greedy", seed: int = 0,
                           d_budget: int = 200_000) -> DeltaPartition:
    """Partition the complement of `measured_parts` into classes of pairwise
    fiber distance < eps, with the parameter set the classes are atoms over.

    The eps/2-net for the fiber-difference family is built from the distinct
    fibers alone: one exact weighted distance matrix picks the heavy pairs,
    only those are XOR-ed, and the greedy net runs on the heavy rows."""
    require(isinstance(eps, Fraction) and eps > 0, "eps must be a positive Fraction")
    measures = check_measures(H, measures)
    left = tuple(sorted(measured_parts))
    require(len(left) < H.k, "measured side must leave something to split")
    view = binary_view(H, left)
    lw = SpaceWeights(measures, view.left, H.part_sizes)

    if eps > 1:
        members = tuple(view.right_tuple(r) for r in range(view.right_size))
        return DeltaPartition(left, view.right, (members,), (members[0],), (),
                              eps, "single",
                              _pairwise_max_distance(view.fibers, lw))

    def finish(ordered: list, params: tuple, path: str, meta: dict) -> DeltaPartition:
        classes = tuple(tuple(view.right_tuple(p) for p in ps) for ps in ordered)
        reps = tuple(c[0] for c in classes)
        worst = Fraction(0)
        for ps in ordered:
            if len(ps) > 1:
                worst = max(worst, _pairwise_max_distance(view.fibers[list(ps)], lw))
        if worst >= eps:
            raise VerificationError(
                f"class fiber distance {worst} is not below eps={eps}")
        return DeltaPartition(left, view.right, classes, reps, params, eps,
                              path, worst, meta)

    fibers = np.unique(view.fibers, axis=0)
    dim = vc_dimension_matrix(fibers, cap=8, budget=d_budget)
    d_bound = dim.value if not dim.budget_exhausted else max(
        dim.value, max(1, len(fibers)).bit_length() - 1)
    meta = {"fiber_dimension": dim.display(), "fiber_dimension_value": dim.value,
            "trivial_params": view.left_size}

    if len(fibers) > 1:
        # D[i, j] = m_i + m_j - 2 G[i, j], exact in every arithmetic regime
        gram = weighted_inner(fibers, fibers, lw.nums, lw.den)
        mass = gram.diagonal()
        dist = (mass[:, None] - gram) + (mass[None, :] - gram)
        half = eps / 2
        heavy_pair = np.triu(dist >= min(ceil_fraction(half * lw.den), lw.den + 1), 1)
        packed, width = np.packbits(fibers, axis=1), fibers.shape[1]
        heavy = _difference_rows(packed, width, *np.nonzero(heavy_pair))
        # the random sampler draws from the measure in lowest terms
        g = math.gcd(lw.den, *lw.nums)
        net = heavy_net(heavy, width, [n // g for n in lw.nums], lw.den // g, half,
                        lambda: net_dimension(unpack_rows(_difference_rows(
                            packed, width, *np.triu_indices(len(fibers), 1)), width)),
                        strategy=strategy, seed=seed)
        if not net.verified:
            raise VerificationError("difference-family net failed verification")
        net_points = sorted(set(net.points))
        bound = net_param_bound(d_bound, eps)
        meta.update({"net_size": len(net_points), "net_param_bound": bound,
                     "net_strategy": strategy})
        if len(net_points) < view.left_size and len(net_points) <= bound:
            params = tuple(view.left_tuple(p) for p in net_points)
            return finish(atoms(view.fibers[:, net_points]), params, "net", meta)

    params = tuple(view.left_tuple(p) for p in range(view.left_size))
    return finish(atoms(view.fibers), params, "trivial", meta)


@dataclass
class RectApprox:
    boxes: tuple[Box, ...]
    params: tuple[tuple[tuple[int, ...], ...], ...]
    error: Fraction
    epsilon: Fraction
    levels: list = field(default_factory=list)

    def param_width(self) -> int:
        return max((len(d) for d in self.params), default=0)


def _support_rect(support) -> tuple:
    """The rect recursion on one part: the support is its one box."""
    support = tuple(support)
    return [Box((support,))] if support else [], (((),),), Fraction(0), []


def rectangular_approximation(H: Hypergraph, measures, eps: Fraction,
                              strategy: str = "greedy", seed: int = 0) -> RectApprox:
    """Union of boxes with definable sides within eps of the relation, with
    the parameter sets each side is definable over and the exact error."""
    require(isinstance(eps, Fraction) and eps > 0, "eps must be a positive Fraction")
    measures = check_measures(H, measures)
    boxes, params, error, levels = _rect_recurse(H, measures, eps, strategy, seed)
    if error >= eps:
        raise VerificationError(f"approximation error {error} not below eps={eps}")
    return RectApprox(tuple(boxes), params, error, eps, levels)


def _rect_recurse(H: Hypergraph, measures, eps: Fraction, strategy: str, seed: int):
    k = H.k
    if k == 1:
        return _support_rect(edge_array(H)[:, 0].tolist())

    child_eps = eps if k == 2 else eps / 2
    dp = delta_approx_partition(H, measures, child_eps, tuple(range(k - 1)),
                                strategy=strategy, seed=seed)
    view = binary_view(H, tuple(range(k - 1)))
    lw = SpaceWeights(measures, view.left, H.part_sizes)
    rnums, rden = measures[k - 1].numerators()

    boxes = []
    param_sets = [set() for _ in range(k)]
    sub_levels = []
    err_num = 0
    for cls, rep in zip(dp.classes, dp.representatives):
        rep_v = rep[0]
        if k == 2:
            # the sub-relation is one cached fiber row
            sub_boxes, sub_params, _, lv = _support_rect(
                np.flatnonzero(view.fibers[rep_v]).tolist())
        else:
            sub = Hypergraph(H.part_sizes[:-1],
                             np.argwhere(view.fibers[rep_v].reshape(view.left_sizes)))
            sub_boxes, sub_params, _, lv = _rect_recurse(
                sub, measures[:-1], eps / 2, strategy, seed)
        sub_levels.extend(lv)
        class_vertices = tuple(sorted(b[0] for b in cls))
        for b in sub_boxes:
            boxes.append(Box(b.sides + (class_vertices,)))
        for j in range(k - 1):
            for c in sub_params[j]:
                param_sets[j].add(tuple(c) + (rep_v,))
        # exact error contribution: nu(b) * mu_left(fiber_b Delta A_class)
        amask = boxes_mask(view.left_sizes, (b.sides for b in sub_boxes))
        diffs = lw.sums(view.fibers[[view.right_pos(b) for b in cls]] ^ amask)
        err_num += sum(rnums[b[0]] * d for b, d in zip(cls, diffs))
    for c in dp.params:
        param_sets[k - 1].add(tuple(c))

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


@dataclass
class RegularPartition:
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    epsilon: Fraction
    sigma: tuple[tuple[int, ...], ...]
    labels: dict
    provenance: tuple[tuple[tuple[int, ...], ...], ...]
    meta: dict = field(default_factory=dict)

    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def to_obj(self) -> dict:
        # the JSON encoder writes the tuples as lists; nothing is copied
        return {"epsilon": format_rational(self.epsilon), "classes": self.classes,
                "sigma": self.sigma, "labels": sorted(self.labels.items()),
                "provenance": self.provenance}

    @staticmethod
    def from_obj(obj) -> "RegularPartition":
        require(isinstance(obj, dict) and "classes" in obj and "epsilon" in obj,
                "partition JSON needs classes and epsilon")
        from .jsonio import parse_rational
        pairs = obj.get("labels", [])
        require(isinstance(pairs, list) and all(isinstance(x, list) and len(x) == 2
                                                for x in pairs),
                "partition field 'labels' must be a list of [box, label] pairs")
        labels = {_int_lists(kbox, 1, "labels"): _int_lists(v, 0, "labels")
                  for kbox, v in pairs}
        return RegularPartition(_int_lists(obj["classes"], 3, "classes"),
                                parse_rational(obj["epsilon"]),
                                _int_lists(obj.get("sigma", []), 2, "sigma"), labels,
                                _int_lists(obj.get("provenance", []), 3, "provenance"))


def _int_lists(obj, depth: int, name: str):
    """A partition field of integers nested `depth` lists deep, as tuples."""
    if depth == 0:
        require(type(obj) is int, f"partition field {name!r} must hold integers")
        return obj
    require(isinstance(obj, list), f"partition field {name!r} must be nested lists")
    return tuple(_int_lists(x, depth - 1, name) for x in obj)


def _atoms_over_sides(n: int, sides) -> list[list[int]]:
    member = boxes_mask((n, len(sides)), ((s, (j,)) for j, s in enumerate(sides)))
    return atoms(member.reshape(n, len(sides)))


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


def regular_partition(H: Hypergraph, measures, eps: Fraction,
                      uniform: bool = False, strategy: str = "greedy",
                      seed: int = 0) -> RegularPartition:
    """0-1 regular partition at eps: per-part definable classes, exceptional
    boxes Sigma of total mass <= eps, every other box of edge density below
    eps or above 1 - eps relative to its own mass (label 0 / 1)."""
    require(isinstance(eps, Fraction) and 0 < eps, "eps must be a positive Fraction")
    require(eps <= 1, "eps above 1 makes every partition regular; pass eps <= 1")
    measures = check_measures(H, measures)
    if uniform:
        require(H.symmetric, "uniform partition needs the symmetric flag")
    ra = rectangular_approximation(H, measures, eps * eps, strategy=strategy, seed=seed)

    per_part_classes = []
    if uniform:
        pooled = sorted(set(itertools.chain.from_iterable(ra.params)))
        pooled_atoms = fiber_atoms(H, 0, pooled)
        for i in range(H.k):
            per_part_classes.append([list(a) for a in pooled_atoms])
        provenance = tuple(tuple(pooled) for _ in range(H.k))
    else:
        for i in range(H.k):
            sides = sorted({b.sides[i] for b in ra.boxes})
            per_part_classes.append(_atoms_over_sides(H.part_sizes[i], sides))
        provenance = ra.params
    per_part_classes = [
        _merge_zero_measure(cls, measures[i]) for i, cls in enumerate(per_part_classes)
    ]

    counts, tot, w_edge, den = box_counts(H, measures, per_part_classes)
    # Up to weight-0 vertices, every class lies wholly inside or wholly outside
    # each side of every rect box: non-uniform classes are atoms over the
    # sides, uniform ones atoms over the pooled parameters that define every
    # side, and _merge_zero_measure adds only weight-0 vertices. So a box's
    # mass in the approximation A is 0 or all of it, and the box lies in A
    # exactly when one positive-weight tuple does: map each rect side to the
    # classes of its positive-weight vertices.
    owners = []
    for classes, m in zip(per_part_classes, measures):
        nums = m.numerators()[0]
        owners.append({v: c for c, members in enumerate(classes) for v in members if nums[v]})
    inside = boxes_mask(tuple(counts), (
        [sorted({o[v] for v in side if v in o}) for o, side in zip(owners, b.sides)]
        for b in ra.boxes)).tolist()

    en, ed = eps.numerator, eps.denominator
    sigma_idx, labels = [], {}
    sigma_num = 0
    for key, t, e, a in zip(itertools.product(*map(range, counts)), tot, w_edge, inside):
        if t == 0:
            continue
        # the majority label is int(a), and the mass off it is the
        # sym-difference mass, so a box outside Sigma is 0-1 dense
        if (t - e if a else e) * ed >= en * t:
            sigma_idx.append(key)
            sigma_num += t
        else:
            labels[key] = int(a)
    if sigma_num * ed > en * den:
        raise VerificationError("exceptional mass exceeds eps")

    meta = {
        "rect_error": ra.error,
        "rect_eps": eps * eps,
        "levels": ra.levels,
        "sigma_mass": Fraction(sigma_num, den),
        "class_counts": tuple(counts),
        "param_width": ra.param_width(),
        "uniform": uniform,
    }
    classes = tuple(tuple(tuple(int(v) for v in c) for c in part)
                    for part in per_part_classes)
    # numpy scalars leak out of the rect-approx params; JSON writers stringify
    # them, so force native ints before they reach the partition record
    provenance = tuple(tuple(tuple(int(v) for v in p) for p in part)
                       for part in provenance)
    return RegularPartition(classes, eps, tuple(sigma_idx), labels, provenance, meta)


def uniform_regular_partition(H: Hypergraph, mu: Measure, eps: Fraction,
                              strategy: str = "greedy", seed: int = 0) -> RegularPartition:
    """Symmetric variant: one partition shared by every coordinate, atoms over
    the pooled parameter set."""
    require(H.symmetric, "uniform partition needs a symmetric hypergraph")
    measures = tuple(Measure(i, mu.weights) for i in range(H.k))
    return regular_partition(H, measures, eps, uniform=True, strategy=strategy, seed=seed)


def verify_regular_partition(H: Hypergraph, measures, partition: RegularPartition) -> dict:
    """Recompute every promise of a partition from scratch; lists violations.

    Checks: per-part classes partition the parts; Sigma mass <= eps; every
    non-Sigma box is 0-1 dense at eps for its label (either label accepted
    when absent); classes are unions of fingerprint atoms over the recorded
    parameters. A label or Sigma entry that names no box, or a label other
    than 0 or 1, is an InputError."""
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
    require(set(partition.labels.values()) <= {0, 1}, "partition labels must be 0 or 1")
    eps = partition.epsilon
    violations = []
    for i, part_classes in enumerate(partition.classes):
        seen = sorted(v for c in part_classes for v in c)
        if seen != list(range(H.part_sizes[i])):
            violations.append({"kind": "not_a_partition", "part": i})
    if violations:
        return {"ok": False, "violations": violations}

    counts, tot, w_edge, den = box_counts(H, measures, partition.classes)

    sigma = {tuple(s) for s in partition.sigma}
    en, ed = eps.numerator, eps.denominator
    sigma_num = named = 0
    for key, t, e in zip(itertools.product(*map(range, counts)), tot, w_edge):
        lab = partition.labels.get(key)
        named += (lab is not None) + (key in sigma)
        if key in sigma:
            sigma_num += t
            continue
        low = e * ed < en * t
        high = (t - e) * ed < en * t
        if t == 0:
            low = high = True
        ok = (high if lab == 1 else low) if lab in (0, 1) else (low or high)
        if not ok:
            violations.append({
                "kind": "box_not_01_dense", "box": list(key), "label": lab,
                "edge_mass": format_rational(Fraction(e, den)),
                "box_mass": format_rational(Fraction(t, den)),
            })
    # each label and Sigma entry names a box exactly when the walk met them all
    if named < len(partition.labels) + len(sigma):
        stray = next(key for key in [*partition.labels, *sigma] if len(key) != H.k
                     or not all(0 <= c < n for c, n in zip(key, counts)))
        raise InputError(f"label or sigma entry {list(stray)} names no box of "
                         f"class counts {counts}")
    sigma_mass = Fraction(sigma_num, den)
    if sigma_mass > eps:
        violations.append({"kind": "sigma_mass_exceeds_eps",
                           "sigma_mass": format_rational(sigma_mass)})

    if partition.provenance:
        for i, params in enumerate(partition.provenance):
            if not params:
                continue
            part_atoms = fiber_atoms(H, i, params)
            atom_of = {}
            for ai, a in enumerate(part_atoms):
                for v in a:
                    atom_of[v] = ai
            for ci, c in enumerate(partition.classes[i]):
                hit_atoms = {atom_of[v] for v in c}
                for a in hit_atoms:
                    if not set(part_atoms[a]).issubset(c):
                        violations.append({"kind": "class_not_definable",
                                           "part": i, "class": ci})
                        break
    return {"ok": not violations, "violations": violations,
            "sigma_mass": format_rational(sigma_mass),
            "box_count": len(tot), "class_counts": counts}


@dataclass
class DenseBox:
    box: Box
    density: Fraction
    side_masses: tuple[Fraction, ...]
    delta_guarantee: Fraction
    eps_used: Fraction
    partition_meta: dict = field(default_factory=dict)


def find_dense_box(H: Hypergraph, measures, alpha: Fraction, eps: Fraction,
                   strategy: str = "greedy", seed: int = 0) -> DenseBox:
    """A box of density > 1 - eps with every side mass above an explicit
    guarantee, provided the relation has mass at least alpha."""
    measures = check_measures(H, measures)
    require(isinstance(alpha, Fraction) and 0 < alpha <= 1, "alpha must be in (0, 1]")
    require(isinstance(eps, Fraction) and 0 < eps < 1, "eps must be in (0, 1)")
    e_mass = edge_mass(H, measures)
    if e_mass < alpha:
        raise InputError(f"relation mass {e_mass} is below alpha={alpha}")
    eps_p = min(alpha, eps) / 4
    part = regular_partition(H, measures, eps_p, strategy=strategy, seed=seed)
    counts = part.class_counts()
    delta = eps_p / prod(counts)

    _, tot, w_edge, den = box_counts(H, measures, part.classes)
    # the first heaviest labelled-1 box in row-major order
    best_key, best_t, hit = None, 0, 0
    for key, t, e in zip(itertools.product(*map(range, counts)), tot, w_edge):
        if part.labels.get(key) == 1 and t > best_t and Fraction(t, den) > delta:
            best_key, best_t, hit = key, t, e
    if best_key is None:
        raise VerificationError(
            "no labeled-1 box above the mass guarantee; the partition engine broke its promise")
    sides = [part.classes[i][best_key[i]] for i in range(H.k)]
    box = Box.of(sides)
    dens = Fraction(hit, best_t)
    if not dens > 1 - eps_p:
        raise VerificationError(f"dense box density {dens} not above {1 - eps_p}")
    side_masses = tuple(m.mass(side) for m, side in zip(measures, sides))
    return DenseBox(box, dens, side_masses, delta, eps_p,
                    {"class_counts": counts,
                     "sigma_mass": format_rational(part.meta["sigma_mass"])})
