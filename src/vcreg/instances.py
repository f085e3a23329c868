"""Seeded generators for instances with known structure.

Each kind fixes the structural parameters that matter downstream: interval
graphs have fiber VC dimension exactly 2 (four forced intervals pin the
lower bound), half-graphs have VC dimension 1 and ladder index min(n0, n1),
block unions have ladder index 1, staircases are the monotone-tuple
relations. Randomness comes from random.Random(seed), i.e. MT19937 with
integer draws only, which is deterministic across platforms; generate() is
a pure function of its spec.

Measured parameters (VC dimension of the part-0 fiber family and the ladder
index, both under caps) are recorded alongside every generated instance.

The builders `half_graph`, `block_pair_graph`, `same_block_equivalence` and
`interval_family` make the fixed worked examples that the tests and
`vcreg selftest` check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import prod

from .core import Hypergraph, Measure, uniform_measures
from .dyadic import dyadic_hypergraph
from .jsonio import KINDS, require
from .stable import ladder_index
from .vc import SetFamily, fiber_family, vc_dimension

# Most cells a generator builds over, inside every binary-view bound: at 2^20
# `gen --out` took up to 2.4 s and 350 MB of peak RSS (block-union, one block:
# every cell an edge; Python 3.11, numpy 2.4, 2-vCPU Xeon VM).
MAX_GEN_CELLS = 1 << 20


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    sizes: tuple[int, ...]
    k: int
    seed: int = 0
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        require(self.kind in KINDS, f"unknown generator kind {self.kind!r}")
        require(self.k == len(self.sizes), "k must match the number of part sizes")
        require(self.sizes and all(isinstance(s, int) and s >= 1 for s in self.sizes),
                "part sizes must be positive integers")
        require(prod(self.sizes) <= MAX_GEN_CELLS, f"part sizes {list(self.sizes)} span "
                f"{prod(self.sizes)} cells, over the generators' {MAX_GEN_CELLS}")
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "params", tuple(sorted(dict(self.params).items())))

    def param(self, name: str, default: int) -> int:
        return dict(self.params).get(name, default)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "sizes": list(self.sizes), "k": self.k,
                "seed": self.seed, "params": dict(self.params)}


@dataclass
class Generated:
    spec: GeneratorSpec
    hypergraph: Hypergraph
    measures: tuple[Measure, ...]
    measured: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"spec": self.spec.to_obj(),
                "hypergraph": self.hypergraph.to_obj(),
                "measures": [m.to_obj() for m in self.measures],
                "measured": self.measured}


def half_graph(n0: int, n1: int | None = None) -> Hypergraph:
    """The half-graph i <= j on n0 x n1 (n1 defaults to n0)."""
    n1 = n0 if n1 is None else n1
    return Hypergraph((n0, n1), frozenset((i, j) for i in range(n0)
                                          for j in range(n1) if i <= j))


def block_pair_graph(n: int, blocks: int, symmetric: bool = False) -> Hypergraph:
    """Bipartite n x n, edge iff both endpoints in the same block of the
    balanced contiguous split."""
    lab = [v * blocks // n for v in range(n)]
    return Hypergraph((n, n), [(i, j) for i in range(n) for j in range(n)
                               if lab[i] == lab[j]], symmetric)


def same_block_equivalence(n: int, blocks: int) -> Hypergraph:
    return block_pair_graph(n, blocks, True)


def interval_family(n: int) -> SetFamily:
    """The empty set and every interval of the ground set range(n)."""
    sets = [()] + [tuple(range(a, b + 1)) for a in range(n) for b in range(a, n)]
    return SetFamily.from_sets(n, sets)


def _interval_graph(spec: GeneratorSpec) -> Hypergraph:
    n0, n1 = spec.sizes
    require(n0 >= 3 and n1 >= 4, "interval-graph needs >= 3 points and >= 4 intervals")
    rng = random.Random(spec.seed)
    # forced intervals give traces {0..n0-1}, {0}, {n0-1}, {} on {0, n0-1},
    # so the fiber family shatters a pair; intervals never shatter a triple
    ivals = [(0, n0 - 1), (0, 0), (n0 - 1, n0 - 1), (1, 1)]
    while len(ivals) < n1:
        lo = rng.randrange(n0)
        hi = rng.randrange(lo, n0)
        ivals.append((lo, hi))
    edges = frozenset((p, j) for j, (lo, hi) in enumerate(ivals)
                     for p in range(lo, hi + 1))
    return Hypergraph((n0, n1), edges)


def _block_union(spec: GeneratorSpec) -> Hypergraph:
    blocks = spec.param("blocks", 3)
    require(blocks >= 1, "block count must be positive")
    require(all(s >= blocks for s in spec.sizes),
            "every part needs at least one vertex per block")
    rng = random.Random(spec.seed)
    # block b of each part is a run of vertices between two sorted cuts
    bounds = [[0] + sorted(rng.sample(range(1, size), blocks - 1)) + [size]
              for size in spec.sizes]
    return Hypergraph(spec.sizes, [
        t for b in range(blocks)
        for t in itertools.product(*[range(bd[b], bd[b + 1]) for bd in bounds])])


def _staircase(spec: GeneratorSpec) -> Hypergraph:
    cells = itertools.combinations_with_replacement(range(max(spec.sizes)), spec.k)
    return Hypergraph(spec.sizes, [t for t in cells
                                   if all(v < n for v, n in zip(t, spec.sizes))])


def _random_capped(spec: GeneratorSpec) -> Hypergraph:
    n0, n1 = spec.sizes
    rng = random.Random(spec.seed)
    edges = frozenset((i, j) for i in range(n0) for j in range(n1)
                      if rng.getrandbits(1))
    return Hypergraph((n0, n1), edges)


def generate(spec: GeneratorSpec) -> Generated:
    """Build the instance for spec with uniform default measures and the
    measured VC dimension / ladder index (capped) attached."""
    if spec.kind in ("interval-graph", "half-graph", "random-vc-capped"):
        require(spec.k == 2, f"{spec.kind} is a binary generator")
    if spec.kind == "interval-graph":
        H = _interval_graph(spec)
    elif spec.kind == "half-graph":
        H = half_graph(*spec.sizes)
    elif spec.kind == "block-union":
        require(spec.k >= 2, "block-union needs at least two parts")
        H = _block_union(spec)
    elif spec.kind == "staircase":
        require(spec.k >= 2, "staircase needs at least two parts")
        H = _staircase(spec)
    elif spec.kind == "random-vc-capped":
        H = _random_capped(spec)
    else:
        depth = spec.param("depth", 4)
        require(spec.k == 2 and spec.sizes == (1 << depth, 1 << depth),
                "dyadic-export sizes must be (2^depth, 2^depth)")
        parity = "even" if spec.param("even", 0) else "odd"
        H = dyadic_hypergraph(depth, parity=parity)

    # the cap on random-vc-capped bounds measurement effort, not the instance
    cap = spec.param("cap", 4) if spec.kind == "random-vc-capped" else 4
    vc = vc_dimension(fiber_family(H, (0,)), cap=cap, budget=200_000)
    lad = ladder_index(H, (0,), cap=8, budget=100_000)
    measured = {
        "vc_dimension": {"value": vc.value, "capped": vc.capped,
                         "budget_exhausted": vc.budget_exhausted,
                         "display": vc.display()},
        "ladder_index": {"value": lad.length, "capped": lad.capped,
                         "budget_exhausted": lad.budget_exhausted,
                         "display": lad.display()},
    }
    return Generated(spec, H, uniform_measures(H), measured)
