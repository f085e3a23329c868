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
     into Sigma, and labels the rest 0 or 1. Sigma mass <= eps and the 0-1
     conditions are re-checked exactly before returning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import numpy as np

from .core import (Box, Hypergraph, Measure, ProductSpace, SpaceWeights,
                   binary_view, ceil_fraction, check_measures, weighted_inner)
from .errors import InputError, VerificationError
from .jsonio import format_rational, require
from .vc import (ROW_BLOCK_BYTES, heavy_net, lex_keys, net_dimension,
                 sauer_bound, vc_dimension_matrix)


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
    best = 0
    w = lw.np_nums()
    for i in range(len(rows) - 1):
        diff = rows[i] ^ rows[i + 1:]
        if w is not None:
            m = int((diff @ w).max()) if diff.size else 0
        else:
            m = max((lw.nums_of_bool(d) for d in diff), default=0)
        best = max(best, m)
    return Fraction(best, lw.den)


def net_param_bound(d: int, eps: Fraction) -> int:
    return math.ceil(320 * max(d, 1) * (1 / eps) ** 2)


# Largest fiber-difference matrix (one byte per fiber pair and left
# position) the delta partition will allocate; `reg partition` on a 384x384
# half-graph at eps 1/4 needs about 27 MB, a 1024x1024 one about 504 MB.
MAX_DIFF_BYTES = 1 << 28


def _difference_rows(fibers: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The distinct rows fibers[ii] ^ fibers[jj], in the lex order of their
    member tuples."""
    width = fibers.shape[1]
    need = len(ii) * width
    if need > MAX_DIFF_BYTES:
        raise InputError(
            f"delta_approx_partition: the fiber-difference matrix needs about "
            f"{need} bytes ({len(ii)} fiber pairs x {width} left positions), "
            f"over the {MAX_DIFF_BYTES}-byte guard")
    if not len(ii):
        return np.zeros((0, width), dtype=bool)
    # XOR-ed and keyed in blocks: only the packed keys, a quarter of the
    # rows' size, are held for every pair at once
    step = max(1, ROW_BLOCK_BYTES // max(1, width))
    keys = np.concatenate([lex_keys(fibers[ii[s:s + step]] ^ fibers[jj[s:s + step]])
                           for s in range(0, len(ii), step)])
    _, first = np.unique(keys, return_index=True)
    return fibers[ii[first]] ^ fibers[jj[first]]


def _groups(labels) -> dict:
    """Right positions grouped by label, each group in increasing order."""
    groups: dict = {}
    for r, lab in enumerate(labels):
        groups.setdefault(lab, []).append(r)
    return groups


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

    def finish(groups: dict, params: tuple, path: str, meta: dict) -> DeltaPartition:
        ordered = sorted(groups.values(), key=lambda ps: ps[0])
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

    fibers, fiber_of = np.unique(view.fibers, axis=0, return_inverse=True)
    fiber_of = fiber_of.reshape(-1)
    dim = vc_dimension_matrix(fibers, cap=8, budget=d_budget)
    d_bound = dim.value if not dim.budget_exhausted else max(
        dim.value, int(math.floor(math.log2(max(1, len(fibers))))))
    meta = {"fiber_dimension": dim.display(), "trivial_params": view.left_size}

    if len(fibers) > 1:
        # D[i, j] = m_i + m_j - 2 G[i, j], exact in every arithmetic regime
        gram = weighted_inner(fibers, fibers, lw.nums, lw.den)
        mass = gram.diagonal()
        dist = (mass[:, None] - gram) + (mass[None, :] - gram)
        half = eps / 2
        heavy_pair = np.triu(dist >= min(ceil_fraction(half * lw.den), lw.den + 1), 1)
        heavy = _difference_rows(fibers, *np.nonzero(heavy_pair))
        # the random sampler draws from the measure in lowest terms
        g = math.gcd(lw.den, *lw.nums)
        net = heavy_net(heavy, [n // g for n in lw.nums], lw.den // g, half,
                        lambda: net_dimension(_difference_rows(
                            fibers, *np.triu_indices(len(fibers), 1))),
                        strategy=strategy, seed=seed)
        if not net.verified:
            raise VerificationError("difference-family net failed verification")
        net_points = sorted(set(net.points))
        bound = net_param_bound(d_bound, eps)
        meta.update({"net_size": len(net_points), "net_param_bound": bound,
                     "net_strategy": strategy})
        if len(net_points) < view.left_size and len(net_points) <= bound:
            if net_points:
                _, atom = np.unique(fibers[:, net_points], axis=0, return_inverse=True)
                labels = atom.reshape(-1)[fiber_of].tolist()
            else:
                labels = [0] * view.right_size
            params = tuple(view.left_tuple(p) for p in net_points)
            return finish(_groups(labels), params, "net", meta)

    params = tuple(view.left_tuple(p) for p in range(view.left_size))
    return finish(_groups(fiber_of.tolist()), params, "trivial", meta)


@dataclass
class RectApprox:
    boxes: tuple[Box, ...]
    params: tuple[tuple[tuple[int, ...], ...], ...]
    error: Fraction
    epsilon: Fraction
    levels: list = field(default_factory=list)

    def param_width(self) -> int:
        return max((len(d) for d in self.params), default=0)


def _sub_relation(H: Hypergraph, last_vertex: int) -> Hypergraph:
    view = binary_view(H, tuple(range(H.k - 1)))
    cells = np.argwhere(view.fibers[last_vertex].reshape(view.left_sizes))
    return Hypergraph(H.part_sizes[:-1], frozenset(map(tuple, cells.tolist())), False)


def _boxes_mask(shape: tuple[int, ...], boxes) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    for b in boxes:
        if all(len(s) for s in b.sides):
            m[np.ix_(*[np.asarray(s, dtype=np.intp) for s in b.sides])] = True
    return m.reshape(-1)


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
        support = tuple(sorted(e[0] for e in H.edges))
        boxes = [Box((support,))] if support else []
        return boxes, (((),),), Fraction(0), []

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
        sub = _sub_relation(H, rep_v)
        if k == 2:
            sub_boxes, sub_params, sub_err, lv = _rect_recurse(
                sub, measures[:-1], eps, strategy, seed)
        else:
            sub_boxes, sub_params, sub_err, lv = _rect_recurse(
                sub, measures[:-1], eps / 2, strategy, seed)
        sub_levels.extend(lv)
        class_vertices = tuple(sorted(b[0] for b in cls))
        for b in sub_boxes:
            boxes.append(Box(b.sides + (class_vertices,)))
        for j in range(k - 1):
            for c in sub_params[j]:
                param_sets[j].add(tuple(c) + (rep_v,))
        # exact error contribution: nu(b) * mu_left(fiber_b Delta A_class)
        amask = _boxes_mask(view.left_sizes, sub_boxes)
        w = lw.np_nums()
        for b in cls:
            diff = view.fibers[view.right_pos(b)] ^ amask
            contrib = int(diff @ w) if w is not None else lw.nums_of_bool(diff)
            err_num += rnums[b[0]] * contrib
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
        "class_bound_sauer": sauer_bound(
            int(str(dp.meta.get("fiber_dimension", "1")).lstrip(">=") or 1),
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
        return {
            "epsilon": format_rational(self.epsilon),
            "classes": [[[int(v) for v in c] for c in part] for part in self.classes],
            "sigma": [[int(v) for v in s] for s in self.sigma],
            "labels": [[[int(v) for v in kbox], int(lab)]
                       for kbox, lab in sorted(self.labels.items())],
            "provenance": [[[int(v) for v in p] for p in part]
                           for part in self.provenance],
        }

    @staticmethod
    def from_obj(obj) -> "RegularPartition":
        require(isinstance(obj, dict) and "classes" in obj and "epsilon" in obj,
                "partition JSON needs classes and epsilon")
        from .jsonio import parse_rational
        classes = tuple(tuple(tuple(c) for c in part) for part in obj["classes"])
        sigma = tuple(tuple(s) for s in obj.get("sigma", []))
        labels = {tuple(kbox): int(v) for kbox, v in obj.get("labels", [])}
        prov = tuple(tuple(tuple(p) for p in part) for part in obj.get("provenance", []))
        return RegularPartition(classes, parse_rational(obj["epsilon"]), sigma,
                                labels, prov)


def _atoms_over_sides(n: int, sides) -> list[list[int]]:
    groups: dict = {}
    side_sets = [frozenset(s) for s in sides]
    for v in range(n):
        key = tuple(v in s for s in side_sets)
        groups.setdefault(key, []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def _atoms_over_params(H: Hypergraph, part: int, params) -> list[list[int]]:
    """Fingerprint classes of one part over recorded parameter tuples.

    For symmetric pooled parameters the vertex is tested in coordinate 0;
    otherwise the parameter is spread over the complementary parts."""
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


def _box_accumulate(ps: ProductSpace, ids: np.ndarray, nboxes: int, masks: dict):
    """Per-box integer numerator sums for each named boolean mask (plus the
    total), exact under the declared guards."""
    w = ps.weights.np_nums()
    out = {}
    if w is not None and ps.weights.den < (1 << 53):
        wf = w.astype(np.float64)
        out["total"] = np.rint(np.bincount(ids, weights=wf, minlength=nboxes)).astype(np.int64)
        for name, m in masks.items():
            out[name] = np.rint(np.bincount(ids[m], weights=wf[m], minlength=nboxes)).astype(np.int64)
        return out
    totals = [0] * nboxes
    per = {name: [0] * nboxes for name in masks}
    nums = ps.weights.nums
    for p in range(ps.size):
        b = int(ids[p])
        totals[b] += nums[p]
        for name, m in masks.items():
            if m[p]:
                per[name][b] += nums[p]
    out["total"] = totals
    for name in masks:
        out[name] = per[name]
    return out


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
        atoms = _atoms_over_params(H, 0, pooled)
        for i in range(H.k):
            per_part_classes.append([list(a) for a in atoms])
        provenance = tuple(tuple(pooled) for _ in range(H.k))
    else:
        for i in range(H.k):
            sides = sorted({b.sides[i] for b in ra.boxes})
            per_part_classes.append(_atoms_over_sides(H.part_sizes[i], sides))
        provenance = ra.params
    per_part_classes = [
        _merge_zero_measure(cls, measures[i]) for i, cls in enumerate(per_part_classes)
    ]

    ps = ProductSpace(H, measures)
    counts = [len(c) for c in per_part_classes]
    ids = np.zeros(H.part_sizes, dtype=np.int64)
    for i, classes in enumerate(per_part_classes):
        cls_of = np.zeros(H.part_sizes[i], dtype=np.int64)
        for ci, c in enumerate(classes):
            cls_of[list(c)] = ci
        shape = [1] * H.k
        shape[i] = H.part_sizes[i]
        ids = ids * counts[i] + cls_of.reshape(shape)
    ids = ids.reshape(-1)
    nboxes = prod(counts)

    amask = ps.boxes_mask(ra.boxes)
    emask = ps.edge_mask
    sym = amask ^ emask
    acc = _box_accumulate(ps, ids, nboxes, {"edge": emask, "sym": sym, "inA": amask})
    tot, w_edge, w_sym, w_a = acc["total"], acc["edge"], acc["sym"], acc["inA"]

    en, ed = eps.numerator, eps.denominator
    sigma_idx, labels = [], {}
    sigma_num = 0
    for b in range(nboxes):
        t = int(tot[b])
        if t == 0:
            continue
        key = tuple(int(x) for x in np.unravel_index(b, counts))
        if int(w_sym[b]) * ed >= en * t:
            sigma_idx.append(key)
            sigma_num += t
            continue
        lab = 1 if 2 * int(w_a[b]) >= t else 0
        off = (t - int(w_edge[b])) if lab == 1 else int(w_edge[b])
        if off * ed >= en * t:
            raise VerificationError(
                f"box {key} (label {lab}) fails the 0-1 density condition")
        labels[key] = lab
    if sigma_num * ed > en * ps.weights.den:
        raise VerificationError("exceptional mass exceeds eps")

    meta = {
        "rect_error": ra.error,
        "rect_eps": eps * eps,
        "levels": ra.levels,
        "sigma_mass": Fraction(sigma_num, ps.weights.den),
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
    parameters."""
    measures = check_measures(H, measures)
    eps = partition.epsilon
    violations = []
    for i, part_classes in enumerate(partition.classes):
        seen = sorted(v for c in part_classes for v in c)
        if seen != list(range(H.part_sizes[i])):
            violations.append({"kind": "not_a_partition", "part": i})
    if violations:
        return {"ok": False, "violations": violations}

    ps = ProductSpace(H, measures)
    counts = [len(c) for c in partition.classes]
    ids = np.zeros(H.part_sizes, dtype=np.int64)
    for i, classes in enumerate(partition.classes):
        cls_of = np.zeros(H.part_sizes[i], dtype=np.int64)
        for ci, c in enumerate(classes):
            cls_of[list(c)] = ci
        shape = [1] * H.k
        shape[i] = H.part_sizes[i]
        ids = ids * counts[i] + cls_of.reshape(shape)
    ids = ids.reshape(-1)
    nboxes = prod(counts)
    acc = _box_accumulate(ps, ids, nboxes, {"edge": ps.edge_mask})
    tot, w_edge = acc["total"], acc["edge"]

    sigma = {tuple(s) for s in partition.sigma}
    en, ed = eps.numerator, eps.denominator
    sigma_num = 0
    for b in range(nboxes):
        key = tuple(int(x) for x in np.unravel_index(b, counts))
        t = int(tot[b])
        if key in sigma:
            sigma_num += t
            continue
        e = int(w_edge[b])
        low = e * ed < en * t
        high = (t - e) * ed < en * t
        if t == 0:
            low = high = True
        lab = partition.labels.get(key)
        ok = (high if lab == 1 else low) if lab in (0, 1) else (low or high)
        if not ok:
            violations.append({
                "kind": "box_not_01_dense", "box": list(key), "label": lab,
                "edge_mass": format_rational(Fraction(e, ps.weights.den)),
                "box_mass": format_rational(Fraction(t, ps.weights.den)),
            })
    sigma_mass = Fraction(sigma_num, ps.weights.den)
    if sigma_mass > eps:
        violations.append({"kind": "sigma_mass_exceeds_eps",
                           "sigma_mass": format_rational(sigma_mass)})

    if partition.provenance:
        for i, params in enumerate(partition.provenance):
            if not params:
                continue
            atoms = _atoms_over_params(H, i, params)
            atom_of = {}
            for ai, a in enumerate(atoms):
                for v in a:
                    atom_of[v] = ai
            for ci, c in enumerate(partition.classes[i]):
                hit_atoms = {atom_of[v] for v in c}
                for a in hit_atoms:
                    if not set(atoms[a]).issubset(c):
                        violations.append({"kind": "class_not_definable",
                                           "part": i, "class": ci})
                        break
    return {"ok": not violations, "violations": violations,
            "sigma_mass": format_rational(sigma_mass),
            "box_count": nboxes, "class_counts": counts}


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
    ps = ProductSpace(H, measures)
    e_mass = ps.mass_of(ps.edge_mask)
    if e_mass < alpha:
        raise InputError(f"relation mass {e_mass} is below alpha={alpha}")
    eps_p = min(alpha, eps) / 4
    part = regular_partition(H, measures, eps_p, strategy=strategy, seed=seed)
    counts = part.class_counts()
    delta = eps_p / prod(counts)

    pm_nums = [m.numerators() for m in measures]
    best_key, best_mass = None, Fraction(0)
    # per-box masses recomputed exactly for the candidates
    for key, lab in sorted(part.labels.items()):
        if lab != 1:
            continue
        sides = [part.classes[i][key[i]] for i in range(H.k)]
        mass = Fraction(1)
        for i, side in enumerate(sides):
            nums, den = pm_nums[i]
            mass *= Fraction(sum(nums[v] for v in side), den)
        if mass > delta and mass > best_mass:
            best_key, best_mass = key, mass
    if best_key is None:
        raise VerificationError(
            "no labeled-1 box above the mass guarantee; the partition engine broke its promise")
    sides = [part.classes[i][best_key[i]] for i in range(H.k)]
    box = Box.of(sides)
    hit = sum(ps.weights.nums[ps.pos(e)] for e in H.edges
              if all(e[i] in set(sides[i]) for i in range(H.k)))
    dens = Fraction(hit, ps.weights.den) / best_mass
    if not dens > 1 - eps_p:
        raise VerificationError(f"dense box density {dens} not above {1 - eps_p}")
    side_masses = tuple(
        Fraction(sum(pm_nums[i][0][v] for v in sides[i]), pm_nums[i][1])
        for i in range(H.k))
    return DenseBox(box, dens, side_masses, delta, eps_p,
                    {"class_counts": counts,
                     "sigma_mass": format_rational(part.meta["sigma_mass"])})
