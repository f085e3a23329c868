"""Stability detection and the exception-free partition pipeline.

A ladder of length d is a pair of sequences a_1..a_d, b_1..b_d with
a_i in R_{b_j} exactly when i <= j; its maximal length measures how far the
relation is from stable. Stable relations admit regular partitions with no
exceptional boxes: every box is eps-homogeneous. The pipeline here:

  good_descent_partition splits one part into eps/2-good pieces by walking
  down non-goodness witnesses (each witness fiber cuts the current set into
  two parts of relative measure >= eps/4 each, so descents are shallow for
  stable relations); stable_regular_partition runs that on every part at
  eps / 2^(k+1), as in Malliaris-Shelah, and the pieces are the classes.
  Every box must then have density below eps or above 1 - eps, exactly, or
  the pipeline fails loudly, never with a silent Sigma. Density exactly 0 or
  1 is not promised: regularity.exactly_homogeneous checks it, and can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (Hypergraph, SpaceWeights, binary_view, box_counts, check_measures,
                   fiber_atoms, row_keys, tuples_at)
from .errors import DepthCapExceeded, RefinementFailed, VerificationError
from .jsonio import require
from .regularity import RegularPartition, band

# How deep one descent may go before it gives up with DepthCapExceeded. A
# guard, not the paper's bound: Malliaris-Shelah bound the height by an
# exponential in the ladder index, which `stable ladder` measures on request.
DEPTH_CAP = 32


@dataclass(frozen=True)
class LadderCertificate:
    length: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    parts: tuple[int, ...]
    capped: bool = False
    budget_exhausted: bool = False

    def display(self) -> str:
        return f">={self.length}" if (self.capped or self.budget_exhausted) else str(self.length)

    def verify(self, H: Hypergraph) -> bool:
        # a row of flat lists its coordinates in the order parts, complement
        flat = np.array([[*a, *b] for a in self.left for b in self.right], dtype=np.intp)
        cells = np.empty((len(flat), H.k), dtype=np.intp)
        cells[:, [*self.parts, *H.complement_parts(self.parts)]] = flat.reshape(-1, H.k)
        want = [i <= j for i in range(len(self.left)) for j in range(len(self.right))]
        return bool((H.has(cells) == want).all())


def _row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with bit j set where row[j] is."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def ladder_index(H: Hypergraph, parts, cap: int = 8, budget: int | None = None) -> LadderCertificate:
    """Longest ladder across the split parts / complement, exact up to cap.

    Branch and bound over (a, b) extensions: a new a must avoid every chosen
    b's fiber, a new b must contain every chosen a. Deterministic ascending
    order; budget (node count) turns the result into a verified lower bound.

    A child (a, b) that can extend nothing is counted in its parent's loop
    without a call: one the length bound prunes (all of a's children at once
    when the bound prunes every one), and one that leaves no a contained in a
    b it leaves. A node scans only the a's that some b it leaves contains.
    Neither changes the visiting order, the node count or the certificate of
    the plain search, oracles.brute_ladder_index.
    """
    require(cap >= 1, "cap must be >= 1")
    require(budget is None or budget >= 0, "budget must be >= 0")
    parts = tuple(sorted(parts))
    view = binary_view(H, parts)
    nl, nr = view.left_size, view.right_size
    fiber_mask = _row_masks(view.fibers)
    avoid = [~f for f in fiber_mask]
    contains = _row_masks(view.fibers.T)

    def reach(cb: int) -> int:
        """The a's that some b in cb contains."""
        out = 0
        while cb:
            low = cb & -cb
            cb ^= low
            out |= fiber_mask[low.bit_length() - 1]
        return out

    best_len = 0
    best_stack: list[tuple[int, int]] = []
    nodes = 0
    limit = math.inf if budget is None else budget
    exhausted = False

    def dfs(ca: int, cb: int, scan: int, stack: list):
        """Visit the children (a, b), a in scan, of the node stack, which
        leaves the a's ca and the b's cb. A child leaving a's and b's is a
        pruned leaf when the fewer of them is at most lim = best_len - its
        length, which is below 0 until a child reaches a new length."""
        nonlocal best_len, best_stack, nodes, exhausted
        d = len(stack) + 1
        lim = best_len - d
        while scan:
            low = scan & -scan
            scan ^= low
            a = low.bit_length() - 1
            cba = cb & contains[a]
            nb = cba.bit_count()
            if nb <= lim:
                nodes += nb     # nb pruned leaves
                if nodes > limit:
                    exhausted = True
                    return
                continue
            ra = None
            bs = cba
            while bs:
                low = bs & -bs
                bs ^= low
                b = low.bit_length() - 1
                nodes += 1
                if nodes > limit:
                    exhausted = True
                    return
                if lim < 0:
                    best_len, best_stack, lim = d, [*stack, (a, b)], 0
                    if d >= cap:
                        return
                # the bound is min(|cab|, nb), and nb > lim stays true: a
                # ladder found below an earlier (a, b') takes b' and all its
                # later b's from cba, so it has at most d - 1 + nb rungs
                cab = ca & avoid[b]
                if cab.bit_count() <= lim:
                    continue
                if ra is None:
                    ra = reach(cba)
                if cab & ra:
                    stack.append((a, b))
                    dfs(cab, cba, cab & ra, stack)
                    stack.pop()
                    if best_len >= cap or exhausted:
                        return
                    lim = best_len - d

    full_b = (1 << nr) - 1
    dfs((1 << nl) - 1, full_b, reach(full_b), [])
    a_seq = tuples_at([a for a, _ in best_stack], view.left_sizes)
    b_seq = tuples_at([b for _, b in best_stack], view.right_sizes)
    cert = LadderCertificate(best_len, tuple(a_seq), tuple(b_seq), parts,
                             capped=best_len >= cap, budget_exhausted=exhausted)
    if not cert.verify(H):
        raise VerificationError("ladder certificate failed direct verification")
    return cert


class _PartFibers:
    """One part's distinct fibers in order of their first position `first`, as
    boolean rows and a copy lw.cast makes, and its weights `lw`."""

    def __init__(self, view, lw: SpaceWeights):
        self.first = np.sort(np.unique(row_keys(view.fibers), return_index=True)[1]).tolist()
        self.rows = view.fibers[self.first]
        self.dense = lw.cast(self.rows)
        self.lw = lw
        self.right_sizes = view.right_sizes

    def hits(self, mask: np.ndarray) -> np.ndarray:
        """Each distinct fiber's exact numerator mass on the vertices of mask."""
        return self.lw.inner(self.dense, mask)


def _witness(hits: np.ndarray, a_num: int, eps: Fraction) -> int | None:
    """The position of the fiber whose density h / a_num on A is neither below
    eps nor above 1 - eps and sits closest to 1/2, ties to the least; None
    when every fiber is outside that band. The band, |2h - a| ed <= a (ed - 2 en)
    on Python ints (a ed passes 2^63 in the int64 regime), is monotone in
    |2h - a|, so the first minimum of |2h - a| is in it if any fiber is. Float
    hits hold exact integers, and |2h - a| <= a_num < 2^24 (2^53) in float32
    (float64)."""
    dist = np.abs(2 * hits - a_num)
    r = int(dist.argmin())
    en, ed = eps.numerator, eps.denominator
    return r if int(dist[r]) * ed <= a_num * (ed - 2 * en) else None


@dataclass
class GoodDescent:
    part: int
    pieces: tuple[tuple[int, ...], ...]
    epsilon: Fraction
    depths: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]
    steps: int
    residue_action: str
    meta: dict = field(default_factory=dict)


def _descent_extract(fib: _PartFibers, mask: np.ndarray, a_num: int, eps_half: Fraction,
                     depth_cap: int):
    """One eps/2-good piece found by descending from mask (of mass a_num) through
    non-goodness witnesses, always into the heavier child: (piece mask, path,
    its numerator mass). A step names its witness by its fiber's first position
    (equal fibers tie); the DepthCapExceeded tree names them by vertex tuple."""
    path = []
    size = int(np.count_nonzero(mask))
    while True:
        hits = fib.hits(mask)
        worst_r = _witness(hits, a_num, eps_half)
        if worst_r is None:
            return mask, path, a_num
        if len(path) >= depth_cap:
            tuples = tuples_at([step["witness"] for step in path], fib.right_sizes)
            raise DepthCapExceeded(f"descent exceeded depth cap {depth_cap}; the relation "
                                   f"is less stable than assumed",
                                   tree=[dict(step, witness=t) for step, t in zip(path, tuples)])
        inside = mask & fib.rows[worst_r]
        n_in = int(np.count_nonzero(inside))
        h = int(hits[worst_r])   # the mass inside the fiber
        take_in = 2 * h >= a_num
        path.append({"witness": fib.first[worst_r], "side": "in" if take_in else "out",
                     "sizes": (n_in, size - n_in)})
        mask, a_num, size = ((inside, h, n_in) if take_in
                             else (mask ^ inside, a_num - h, size - n_in))


def good_descent_partition(H: Hypergraph, measures, part: int, eps: Fraction,
                           depth_cap: int = DEPTH_CAP) -> GoodDescent:
    """Partition one part into eps/2-good pieces plus a merged small residue.

    Extraction repeats until the residue mass drops to (eps/2) of the first
    piece; the residue then merges into the first piece, which stays
    eps-good. Only that merged piece is tested again. Zero-weight vertices
    join the class of their fingerprint atom so every class stays definable.
    """
    require(isinstance(eps, Fraction) and 0 < eps <= 1, "eps must be in (0, 1]")
    require(depth_cap >= 1, "depth_cap must be >= 1")
    measures = check_measures(H, measures)
    require(0 <= part < H.k, "part out of range")
    view = binary_view(H, (part,))
    lw = SpaceWeights(measures, (part,), H.part_sizes)
    fib = _PartFibers(view, lw)
    eps_half = eps / 2
    positive = np.array([n > 0 for n in lw.nums], dtype=bool)

    pieces: list[np.ndarray] = []    # boolean masks until the zeros join
    depths: list[int] = []
    witnesses: set = set()    # fiber positions
    live, r_mass, p_mass = positive, lw.sums(positive), 0   # live: the residue
    while live.any() and not (pieces and r_mass * eps_half.denominator
                              <= eps_half.numerator * p_mass):
        piece, path, mass = _descent_extract(fib, live, r_mass, eps_half, depth_cap)
        r_mass, p_mass = r_mass - mass, p_mass or mass   # p_mass: the first piece's
        pieces.append(piece)
        depths.append(len(path))
        witnesses.update(step["witness"] for step in path)
        live = live ^ piece
    steps = len(pieces)

    # Every piece left _descent_extract with no eps/2 witness. The first piece
    # (mass p) and the residue (r <= eps/2 p) make an eps-good union: a fiber
    # holding less than eps/2 p of the piece holds less than eps/2 p + r <=
    # eps (p + r) of the union, and one leaving out less than eps/2 p leaves
    # out less than eps (p + r). That union alone is tested again.
    residue_action = "none"
    if live.any():
        pieces[0] = pieces[0] | live
        hits, a_num = fib.hits(pieces[0]), p_mass + r_mass
        if _witness(hits, a_num, eps_half) is None:
            residue_action = "merged_first"
        elif _witness(hits, a_num, eps) is None:
            residue_action = "merged_first_at_eps"
        else:
            raise VerificationError(f"piece 0 failed goodness at {eps}")

    # attach zero-weight vertices by fingerprint atom
    pieces = [np.flatnonzero(p).tolist() for p in pieces]
    params = tuples_at(sorted(witnesses), view.right_sizes)   # row-major is lex order
    zeros = np.flatnonzero(~positive).tolist()
    if zeros:
        piece_of = {v: i for i, piece in enumerate(pieces) for v in piece}
        for atom in fiber_atoms(H, part, params):
            home = next((piece_of[v] for v in atom if v in piece_of), 0)
            pieces[home].extend(v for v in atom if v not in piece_of)
        pieces = [sorted(p) for p in pieces]

    return GoodDescent(part, tuple(tuple(p) for p in pieces), eps,
                       tuple(depths), tuple(params), steps, residue_action,
                       {"support": int(positive.sum()), "zero_weight": len(zeros)})


def stable_regular_partition(H: Hypergraph, measures, eps: Fraction,
                             depth_cap: int = DEPTH_CAP) -> RegularPartition:
    """Regular partition with Sigma empty: every positive box eps-homogeneous.

    The per-part eps/2^(k+1)-good descents, then one exact check that every box
    of their pieces has density below eps or above 1 - eps (the first that does
    not raises RefinementFailed); each positive box gets its majority label."""
    require(isinstance(eps, Fraction) and 0 < eps <= 1, "eps must be in (0, 1]")
    measures = check_measures(H, measures)
    eps0 = eps / (1 << (H.k + 1))
    descents = [good_descent_partition(H, measures, i, eps0, depth_cap)
                for i in range(H.k)]
    classes = tuple(d.pieces for d in descents)
    counts, t, e, _ = box_counts(H, measures, classes)
    low, high = band(t, e, eps)
    mixed = np.flatnonzero((t > 0) & ~(low | high))
    if len(mixed):
        raise RefinementFailed("box of the descent pieces is not eps-homogeneous",
                               box=tuples_at(mixed[:1], counts)[0])
    labels = np.where(t > 0, t - e <= e, -1).astype(np.int8)

    meta = {
        "pipeline": "stable",
        "eps0": eps0,
        "depth_cap": depth_cap,
        "descent_steps": tuple(d.steps for d in descents),
        "descent_depths": tuple(d.depths for d in descents),
        "residue_actions": tuple(d.residue_action for d in descents),
        "class_counts": tuple(counts),
        "sigma_mass": Fraction(0),
    }
    return RegularPartition(classes, eps, np.zeros(0, np.intp), labels,
                            tuple(d.witnesses for d in descents), meta)
