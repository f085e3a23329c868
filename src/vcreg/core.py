"""Finite k-partite hypergraphs with exact weighted counting measures.

Vertices of part i are the integers 0..part_sizes[i]-1 and relations live in
V_0 x ... x V_{k-1}. All measure arithmetic is exact, on integer numerators
over a common denominator den: a Measure holds nothing else (its Fraction
`weights` are a view), and over a product of parts den is the product of
the per-part ones.

A Hypergraph stores its relation once: a read-only (#edges, k) intp array of
the distinct edges in lex order (`edge_array`) with their ascending row-major
keys, which `Hypergraph.has` searches. Tuple and integer-array input are
validated on that array, and a refused input names its lex-first bad edge.
There is no second, set form: the oracles build their own (`oracles.edge_set`).

The counting kernels live here once each:

  exact_dtype           the one arithmetic-regime rule: np.int64 while a
                        bound on every value and partial sum is below
                        INT64_SAFE = 2^62, object (Python integers) beyond;
  box_counts            per-box weight and edge sums of a partition, from the
                        edge list: one np.add.at into exact_dtype(den) arrays
                        (the builders' kernel: the verifier recounts with
                        regularity.recount_boxes);
  SpaceWeights.inner    every exact weight sum of 0/1 rows: the weights split
                        once into float limbs (float_limbs; one float32 limb
                        below 2^24, float64 below 2^53), whose BLAS products
                        on `cast` rows it recombines in exact_dtype(den), for
                        SpaceWeights.sums (row blocks of ROW_BLOCK_BYTES), the
                        delta partition's fiber Gram matrix and class check
                        and the stable descent's fiber masses;
  boxes_mask, atoms,    box masks, fingerprint atoms and the packed row keys
  row_keys              every distinct-rows step sorts (boolean only).

Coordinate splits: for an index set I of parts, V_I is the product of those
parts in increasing part order, enumerated row-major. A BinaryView presents
the relation as left side V_I versus right side V_{I complement}, with the
fiber of each right element cached as a boolean row. Engines work on
positions; `tuples_at` is the one way back to vertex tuples, and tuples go
to positions by np.ravel_multi_index. `edge_mass` and `density` sum Python
products of `Measure.numerators()` over the edge list.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import InputError, ZeroMeasureBox
from .jsonio import rational_terms, require

# Largest product space a box count accepts, and largest binary-view side.
MAX_DENSE_SPACE = 1 << 22
# Largest dense matrix built at once, in bytes: a boolean one at one byte per
# cell (the binary view's fibers, a set family's matrix), and the delta
# partition's float ones over m distinct fibers of w positions, three m x m and
# four m x w at float64's 8 m (3 m + 4 w): 8.3 MB on the 384x384 half-graph.
# Past int64 an m x m cell is a pointer plus a Python int, not 8 bytes.
MAX_DIFF_BYTES = 1 << 28
# int64 sums and products stay exact while a bound on them is below this.
INT64_SAFE = 1 << 62
# Row blocks copied out of a large boolean matrix are kept near this size.
ROW_BLOCK_BYTES = 1 << 22


def exact_dtype(bound: int):
    """np.int64 when every value and partial sum of an exact integer kernel
    is at most `bound` and that is below INT64_SAFE, object (Python integers)
    beyond: the one place the int64-or-object choice is made."""
    return np.int64 if bound < INT64_SAFE else object


class Hypergraph:
    """A relation R in V_0 x ... x V_{k-1}, stored as the module docstring says."""

    def __init__(self, part_sizes, edges, symmetric: bool = False):
        sizes = self.part_sizes = tuple(part_sizes)
        self.symmetric = symmetric
        require(len(sizes) >= 1, "hypergraph needs at least one part")
        # type(.) is int: bool is an int subclass, but true/false are not
        # sizes or vertices
        require(all(type(n) is int and n >= 1 for n in sizes),
                "part sizes must be positive integers")
        require(prod(sizes) < 1 << 63, f"part sizes {sizes} span over 2^63 edge keys")
        k, arr, keys = len(sizes), None, None
        if isinstance(edges, np.ndarray):
            require(edges.dtype.kind in "iu" and edges.shape[1:] == (k,),
                    f"an edge array needs an integer dtype and {k} columns, "
                    f"not {edges.dtype} and shape {edges.shape}")
            arr = edges
        else:
            edges = list(edges)
            if set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) <= {k}:
                flat = list(itertools.chain.from_iterable(edges))
                if set(map(type, flat)) <= {int}:
                    with contextlib.suppress(OverflowError):   # past int64: out of range
                        arr = np.fromiter(flat, np.intp, len(flat)).reshape(-1, k)
        if arr is not None:
            with contextlib.suppress(ValueError):   # a vertex out of range
                keys = np.sort(np.ravel_multi_index(arr.T, sizes))
        if keys is None:
            # name the lex-first bad edge, a list one as a tuple; a vertex that
            # is not an int orders after every int, by its repr, an edge that
            # is neither a tuple nor a list as (e,)
            for e in sorted(edges if arr is None else arr.tolist(),
                            key=lambda e: [(0, v) if type(v) is int else (1, repr(v))
                                           for v in (e if type(e) in (tuple, list) else (e,))]):
                e = tuple(e) if type(e) is list else e
                if type(e) is not tuple or len(e) != k:
                    raise InputError(f"edge {e!r} does not have arity {k}")
                for i, (v, n) in enumerate(zip(e, sizes)):
                    if type(v) is not int or not 0 <= v < n:
                        raise InputError(f"edge {e!r} out of range in coordinate {i}")
        # a sort and one comparison, not np.unique: 12x faster under numpy 2.4
        keys = self._keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
        self._array = np.column_stack(np.unravel_index(keys, sizes))
        keys.setflags(write=False)
        self._array.setflags(write=False)
        if symmetric:
            require(len(set(sizes)) == 1, "symmetric flag requires equal part sizes")
            perms = list(itertools.permutations(range(k)))
            missing = np.array([~self.has(self._array[:, p]) for p in perms]).T
            if missing.any():   # (edge, permutation) pairs: lex-first edge first
                row, j = np.argwhere(missing)[0]
                e = tuple(self._array[row].tolist())
                raise InputError(f"symmetric flag set but permutation "
                                 f"{tuple(e[i] for i in perms[j])} of edge {e} is absent")

    def has(self, cells) -> np.ndarray:
        """Membership of each of a sequence of in-range vertex tuples."""
        keys = np.ravel_multi_index(
            np.asarray(cells, dtype=np.intp).reshape(-1, self.k).T, self.part_sizes)
        return np.append(self._keys, -1)[np.searchsorted(self._keys, keys)] == keys

    def _identity(self):
        return self.part_sizes, self.symmetric, self._keys.tobytes()

    def __eq__(self, other):
        return isinstance(other, Hypergraph) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())

    @property
    def k(self) -> int:
        return len(self.part_sizes)

    def complement_parts(self, parts: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if i not in parts)

    def to_obj(self) -> dict:
        return {
            "k": self.k,
            "part_sizes": list(self.part_sizes),
            "edges": self._array.tolist(),
            "symmetric": self.symmetric,
        }

    @staticmethod
    def from_obj(obj) -> "Hypergraph":
        require(isinstance(obj, dict), "hypergraph JSON must be an object")
        for key in ("k", "part_sizes", "edges"):
            require(key in obj, f"hypergraph JSON missing key {key!r}")
        try:
            sizes = tuple(obj["part_sizes"])
            edges = obj["edges"]
            if isinstance(edges, np.ndarray):   # jsonio.decode_json's (n, k') int64 array
                if edges.shape[1] != len(sizes):   # refused as the lists would be
                    edges = edges.tolist()
            elif not set(map(type, edges)) <= {list}:   # edge lists go in as they are
                edges = list(map(tuple, edges))
        except TypeError:
            raise InputError("part_sizes must be a list of integers and edges "
                             "a list of integer lists") from None
        require(type(obj["k"]) is int and obj["k"] == len(sizes),
                "k must be an integer equal to the part_sizes length")
        symmetric = obj.get("symmetric", False)
        require(type(symmetric) is bool, "symmetric must be true or false")
        return Hypergraph(sizes, edges, symmetric)


@dataclass(frozen=True, init=False)
class Measure:
    """Exact weighted counting measure on one part: numerators summing to den,
    the lcm of the reduced weights' denominators. Built from Fractions or
    from numerators over any common denominator, `num_den=(nums, d)`,
    reduced here; `weights`, the Fractions, is a view built on first use."""
    part: int
    num_den: tuple[tuple[int, ...], int]

    def __init__(self, part: int, weights=(), *, num_den=None):
        if num_den is None:
            require(all(isinstance(w, Fraction) for w in weights),
                    "measure weights must be Fractions")
            den = lcm(*(w.denominator for w in weights))
            num_den = [w.numerator * (den // w.denominator) for w in weights], den
        nums, den = num_den
        require(min(nums, default=0) >= 0, "measure weights must be nonnegative")
        require(sum(nums) == den > 0, f"measure weights on part {part} must sum to exactly 1")
        g = gcd(*nums, den)
        object.__setattr__(self, "part", part)
        nums = tuple(n // g for n in nums) if g > 1 else tuple(nums)
        object.__setattr__(self, "num_den", (nums, den // g))

    @functools.cached_property
    def weights(self) -> tuple[Fraction, ...]:
        nums, den = self.num_den
        return tuple(Fraction(n, den) for n in nums)

    @staticmethod
    def uniform(part: int, n: int) -> "Measure":
        require(n >= 1, "uniform measure needs a nonempty part")
        return Measure(part, num_den=((1,) * n, n))

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """Weights as integer numerators over a single common denominator."""
        return self.num_den

    def mass(self, subset) -> Fraction:
        nums, den = self.numerators()
        return Fraction(sum(nums[v] for v in subset), den)

    def to_obj(self) -> dict:
        # each weight reduced, as format_rational writes it, with no Fraction made
        nums, den = self.num_den
        gs = map(gcd, nums, itertools.repeat(den))
        return {"part": self.part, "weights": [f"{n // g}/{den // g}" for n, g in zip(nums, gs)]}

    @staticmethod
    def from_obj(obj) -> "Measure":
        require(isinstance(obj, dict) and type(obj.get("part")) is int
                and isinstance(obj.get("weights"), list),
                'measure JSON must be {"part": int, "weights": [...]}')
        nums, dens = rational_terms(obj["weights"])
        den = lcm(*dens)
        return Measure(obj["part"], num_den=([n * (den // d) for n, d in zip(nums, dens)], den))


def require_dense(what: str, rows: int, cols: int) -> None:
    """Refuse a rows x cols boolean matrix larger than MAX_DIFF_BYTES."""
    if rows * cols > MAX_DIFF_BYTES:
        raise InputError(f"{what}: a dense {rows} x {cols} boolean matrix needs "
                         f"{rows * cols} bytes, over the {MAX_DIFF_BYTES}-byte guard")


def uniform_measures(H: Hypergraph) -> tuple[Measure, ...]:
    return tuple(Measure.uniform(i, n) for i, n in enumerate(H.part_sizes))


def check_measures(H: Hypergraph, measures) -> tuple[Measure, ...]:
    measures = tuple(measures)
    require(len(measures) == H.k, f"need {H.k} measures, got {len(measures)}")
    for i, m in enumerate(measures):
        require(m.part == i, f"measure at position {i} is labeled part {m.part}")
        check_weight_count(m, i, H.part_sizes[i])
    return measures


def check_weight_count(m: Measure, i: int, size: int) -> None:
    """Refuse a measure on part i whose weight count is not the part's size."""
    n = len(m.numerators()[0])
    require(n == size, f"measure on part {i} has {n} weights, part has {size}")


@dataclass(frozen=True)
class Box:
    """A combinatorial box: one vertex subset per part, stored sorted."""
    sides: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(sides) -> "Box":
        return Box(tuple(tuple(sorted(set(s))) for s in sides))

    def to_obj(self) -> dict:
        return {"sides": [list(s) for s in self.sides]}


class SpaceWeights:
    """Integer weight numerators over the product of a subset of parts.

    Position p enumerates V_I row-major; nums[p] is the product of per-part
    numerators and den is the product of per-part denominators, so that
    mass(S) = sum(nums[p] for p in S) / den exactly. `limbs` and `dt` are
    float_limbs(nums, den, size) and exact_dtype(den), read by inner and cast.
    """

    def __init__(self, measures, parts: tuple[int, ...], sizes: tuple[int, ...]):
        self.parts = parts
        self.sizes = tuple(sizes[i] for i in parts)
        self.size = prod(self.sizes)
        per = [measures[i].numerators() for i in parts]
        self.den = prod(den for _, den in per)
        self.nums = [1]
        for nums, _ in per:
            self.nums = [a * b for a in self.nums for b in nums]
        self.limbs = float_limbs(self.nums, self.den, self.size)
        self.dt = exact_dtype(self.den)

    def cast(self, rows: np.ndarray) -> np.ndarray:
        """0/1 rows as a copy in the limbs' float dtype, the rows inner takes."""
        return rows.astype(self.limbs[0][1].dtype)

    def inner(self, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """Exact a . diag(nums) . b^T for 0/1 rows a from cast against 0/1 rows
        b, one 0/1 row b, or all ones (b None): the float product with one
        limb, else each limb's cast to int64 and recombined, shifted, in dt."""
        out = 0
        for shift, limb in self.limbs:
            # .dot, not @: no ufunc dispatch, 0.3 us of a 1-2 us call on a few rows
            p = a.dot(limb if b is None else (limb * b).T)
            if len(self.limbs) == 1:
                return p
            out = out + (p.astype(np.int64).astype(self.dt, copy=False) << shift)
        return out

    def sums(self, mask: np.ndarray):
        """Exact numerator sum of the positions a boolean row selects (an int),
        or of each row of a boolean matrix (a list of ints): inner over cast
        copies of the rows, one block of at most ROW_BLOCK_BYTES at a time."""
        rows = mask if mask.ndim > 1 else mask[None]
        step = max(1, ROW_BLOCK_BYTES // (8 * self.size))
        if len(rows) > step:   # each block's float copy dies with its sums
            return [x for s in range(0, len(rows), step) for x in self.sums(rows[s:s + step])]
        out = list(map(int, self.inner(self.cast(rows)).tolist()))
        return out if mask.ndim > 1 else out[0]


def ceil_fraction(q: Fraction) -> int:
    return -(-q.numerator // q.denominator)


def float_limbs(nums, den: int, width: int) -> list[tuple[int, np.ndarray]]:
    """The nonnegative integer nums, summing to at most den, as float limbs
    (shift, limb), nums = sum(limb << shift), whose product with a 0/1 row of
    `width` positions is exact: nums itself, in float32 while den < 2^24 (each
    value and partial sum is an integer <= den; BLAS runs it at about twice the
    float64 speed) and in float64 while den < 2^53, else float64 limbs of
    53 - width.bit_length() bits, so that width * 2^bits <= 2^53."""
    if den < (1 << 53):
        return [(0, np.asarray(nums, dtype=np.float32 if den < (1 << 24) else np.float64))]
    bits = 53 - max(1, width).bit_length()
    low = (1 << bits) - 1
    return [(shift, np.asarray([(n >> shift) & low for n in nums], dtype=np.float64))
            for shift in range(0, den.bit_length(), bits)]


class BinaryView:
    """The relation reindexed as left side V_I versus right side V_{I comp}.

    fibers[r] is the boolean row over left positions of the fiber of the
    right element at position r, one byte per cell, read-only; the partition
    engines read the fibers from these rows.
    """

    def __init__(self, H: Hypergraph, left: tuple[int, ...]):
        left = tuple(sorted(left))
        require(left and all(0 <= i < H.k for i in left) and len(set(left)) == len(left),
                f"bad index set {left!r}")
        self.left = left
        self.right = H.complement_parts(left)
        self.left_sizes = tuple(H.part_sizes[i] for i in self.left)
        self.right_sizes = tuple(H.part_sizes[i] for i in self.right)
        self.left_size = prod(self.left_sizes)
        self.right_size = prod(self.right_sizes) if self.right else 1
        require(self.left_size <= MAX_DENSE_SPACE and self.right_size <= MAX_DENSE_SPACE,
                "binary view too large for dense fiber cache")
        require_dense("binary view", self.right_size, self.left_size)
        fib = np.zeros((self.right_size, self.left_size), dtype=bool)
        cells = edge_array(H).T
        rows = np.ravel_multi_index(cells[list(self.right)], self.right_sizes) \
            if self.right else 0
        fib[rows, np.ravel_multi_index(cells[list(left)], self.left_sizes)] = True
        fib.setflags(write=False)   # a cached instance (cli) shares it across jobs
        self.fibers = fib


def tuples_at(positions, sizes) -> list[tuple[int, ...]]:
    """The vertex tuples at row-major positions (a sequence of ints) over the
    product of `sizes`; () at each position when sizes is ()."""
    positions = np.asarray(positions, dtype=np.intp)
    if not sizes:
        return [()] * len(positions)
    return list(zip(*(c.tolist() for c in np.unravel_index(positions, sizes))))


def edge_array(H: Hypergraph) -> np.ndarray:
    """The edges as H stores them: a read-only (#edges, k) intp array of
    distinct rows in lex order, the same object on every call."""
    return H._array


def binary_view(H: Hypergraph, left) -> BinaryView:
    """The BinaryView of H for one left index set, cached on H itself: a
    lookup never hashes or compares edge sets, and the views go when H does."""
    left = tuple(sorted(left))
    views = H.__dict__.setdefault("_views", {})
    view = views.get(left)
    if view is None:
        view = views[left] = BinaryView(H, left)
    return view


def box_counts(H: Hypergraph, measures, classes_by_part) -> tuple:
    """(class counts, per-box weight sums, per-box edge weight sums, den) of a
    partition, the sums exact_dtype(den) arrays over den in row-major box
    order.

    A box's total is the product of its sides' numerator sums. Each edge adds
    its numerator product to the key of its box by np.add.at; no product or
    partial sum exceeds den."""
    measures = check_measures(H, measures)
    require(prod(H.part_sizes) <= MAX_DENSE_SPACE, f"product space of size "
            f"{prod(H.part_sizes)} exceeds the dense-array guard")
    per = [m.numerators() for m in measures]
    den = prod(d for _, d in per)
    dt = exact_dtype(den)
    edges = edge_array(H)
    totals, keys, weights = np.ones(1, dt), 0, np.ones(len(edges), dt)
    for i, ((nums, _), classes) in enumerate(zip(per, classes_by_part)):
        cls_of = np.zeros(H.part_sizes[i], dtype=np.int64)
        for c, members in enumerate(classes):
            cls_of[list(members)] = c
        sums = np.array([sum(nums[v] for v in members) for members in classes], dt)
        totals = np.multiply.outer(totals, sums)
        keys = keys * len(classes) + cls_of[edges[:, i]]
        weights = weights * np.array(nums, dt)[edges[:, i]]
    hits = np.zeros(totals.size, dt)
    np.add.at(hits, keys, weights)
    return [len(c) for c in classes_by_part], totals.reshape(-1), hits, den


def boxes_mask(shape: tuple[int, ...], boxes) -> np.ndarray:
    """Flat row-major boolean mask over the product of `shape` of the union
    of boxes, each box given by its sides."""
    m = np.zeros(shape, dtype=bool)
    for sides in boxes:
        m[np.ix_(*[np.asarray(s, dtype=np.intp) for s in sides])] = True
    return m.reshape(-1)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One np.void key per row of a 2-D boolean matrix, a view of its packed
    bytes: equal keys mean equal rows, and keys sort as the rows do in
    lexicographic order, the order of unique rows along axis 0. Zero-width rows
    get equal keys. numpy's axis=0 dedup sorts one structured field per column:
    9 ms against 0.05 ms for this on the 256^2 half-graph's fibers."""
    packed = np.ascontiguousarray(np.packbits(rows, axis=1) if rows.shape[1]
                                  else np.zeros((len(rows), 1), np.uint8))
    return packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]


def atoms(signatures: np.ndarray) -> list[list[int]]:
    """Row indices grouped by equal rows of a boolean signature matrix, each
    group ascending, groups ordered by their first member."""
    _, first, label = np.unique(row_keys(signatures), return_index=True, return_inverse=True)
    members = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label)).tolist()
    starts = [0] + ends[:-1]
    return [members[starts[g]:ends[g]] for g in np.argsort(first).tolist()]


def fiber_atoms(H: Hypergraph, part: int, params) -> list[list[int]]:
    """The vertices of one part grouped by membership in the fibers of the
    given parameters, tuples over the other parts in increasing order."""
    view = binary_view(H, (part,))
    cells = np.asarray(params, dtype=np.intp).reshape(len(params), H.k - 1)
    rows = np.ravel_multi_index(cells.T, view.right_sizes) if view.right \
        else np.zeros(len(cells), np.intp)
    return atoms(view.fibers[rows].T)


def _edge_num(H: Hypergraph, measures, sides=None) -> tuple[int, int]:
    """(numerator sum, den) of the edges inside the box `sides` (per-part
    vertex sets; every edge when None): one Python product of per-part
    numerators per edge."""
    per = [m.numerators() for m in check_measures(H, measures)]
    hit = 0
    for e in edge_array(H).tolist():
        if sides is None or all(v in side for v, side in zip(e, sides)):
            hit += prod(nums[v] for (nums, _), v in zip(per, e))
    return hit, prod(den for _, den in per)


def edge_mass(H: Hypergraph, measures) -> Fraction:
    return Fraction(*_edge_num(H, measures))


def density(H: Hypergraph, measures, box: Box) -> Fraction:
    """Exact relative measure of the edge set inside a box."""
    measures = check_measures(H, measures)
    require(len(box.sides) == H.k, "box arity mismatch")
    total = prod((m.mass(side) for m, side in zip(measures, box.sides)), start=Fraction(1))
    if total == 0:
        raise ZeroMeasureBox("box has measure zero")
    return Fraction(*_edge_num(H, measures, [frozenset(s) for s in box.sides])) / total
