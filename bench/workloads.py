"""Seeded inputs and job streams for the four benchmark workloads.

Pure Python, no vcreg import: the benchmark makes every input itself from
the seed, and the program only ever sees the files written here and the
flags of each job.

A workload is an endless, deterministic stream of jobs. The timed loop runs
jobs in stream order, one at a time, so a job that reads a file always runs
after the job that writes it. The first `digest_jobs` jobs are the digest
set: every run completes them, and the workload digest covers exactly them,
so it does not depend on how fast the program is.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction


# The part of a job's instance tag that names one draw rather than a kind of
# work: the cli-batch spec seed, the cli-cold cycle, the weighted regime and draw.
_DRAW = re.compile(r"^c\d+$|-s\d+$|-(float64|int64|bigint)-d\d+$")


@dataclass
class Job:
    id: str               # "<instance tag>/<step>"
    argv: list
    # instance file this job reads, for the outside checks
    instance: str | None = None
    # file the job writes its RunReport to (--out), instead of stdout
    report_file: str | None = None
    expect: dict = field(default_factory=dict)

    @property
    def kind(self):
        """The job with its draw removed, e.g. `interval-graph/stable-partition`."""
        tag, _, step = self.id.partition("/")
        tag = _DRAW.sub("", tag)
        return f"{tag}/{step}" if tag else step


@dataclass
class Workload:
    name: str
    in_process: bool
    # the timed loop only stops after a whole number of units, so every run
    # has the same job mix
    unit: int
    digest_jobs: int
    jobs: object          # iterator of Job
    notes: dict = field(default_factory=dict)
    # the timed loop runs at least this many jobs, however short --seconds
    min_jobs: int = 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


def _hypergraph(sizes, edges):
    return {"k": len(sizes), "part_sizes": list(sizes),
            "edges": sorted([list(e) for e in edges]), "symmetric": False}


# ------------------------------------------------------------- cli-batch

EPS_SWEEP = ("1/2", "1/4", "1/8")
# Every other acceptance-1 spec seed: sizes 8 to 32 in steps of two, half
# the run time of all 25.
BATCH_SPECS = range(0, 25, 2)
KINDS = ("interval-graph", "half-graph", "block-union", "staircase")


def pipeline_spec(kind, s):
    """The acceptance-1 generator specs: sizes and flags for `vcreg gen`,
    every part at most 32."""
    if kind == "interval-graph":
        return [8 + s % 25, 8 + (7 * s) % 25], []
    if kind == "half-graph":
        return [8 + s % 25] * 2, []
    if kind == "block-union":
        return [8 + s % 25, 8 + (3 * s) % 25], ["--blocks", str(2 + s % 3)]
    return [4 + s % 7, 4 + (3 * s) % 7, 4 + (5 * s) % 7], []


def _batch_jobs(order):
    for kind, s in itertools.cycle(order):
        sizes, extra = pipeline_spec(kind, s)
        tag = f"{kind}-s{s}"
        inst = f"{tag}.json"
        yield Job(f"{tag}/gen", ["gen", kind, "--sizes", ",".join(map(str, sizes)),
                                 "--seed", str(s), "--out", inst, *extra])
        for eps in EPS_SWEEP:
            part = f"{tag}.part-{eps.replace('/', '_')}.json"
            yield Job(f"{tag}/reg-partition-{eps}",
                      ["reg", "partition", "--in", inst, "--epsilon", eps,
                       "--out", part], instance=inst, report_file=part)
        for eps in EPS_SWEEP:
            part = f"{tag}.part-{eps.replace('/', '_')}.json"
            yield Job(f"{tag}/reg-verify-{eps}",
                      ["reg", "verify", "--in", inst, "--partition", part],
                      instance=inst)
        yield Job(f"{tag}/reg-rect", ["reg", "rect", "--in", inst, "--epsilon", "1/4"],
                  instance=inst)
        yield Job(f"{tag}/stable-partition",
                  ["stable", "partition", "--in", inst, "--epsilon", "1/8"],
                  instance=inst)
        yield Job(f"{tag}/vc-dim", ["vc", "dim", "--in", inst], instance=inst,
                  expect={"instance_kind": kind})


def cli_batch(seed, workdir):
    # One pass is the acceptance-1 specs BATCH_SPECS of every kind (52
    # instances, 520 jobs). The seed sets the order only. Drawing the
    # instances by seed was tried: the slowest job
    # (interval-graph s = 21, stable partition, ~0.7 s against <= 0.4 s for
    # any other) then comes and goes with the seed, and job_max_s spread by
    # more than 100 % between seeds.
    rng = random.Random(seed)
    order = [(kind, s) for kind in KINDS for s in BATCH_SPECS]
    rng.shuffle(order)
    return Workload("cli-batch", True, unit=10 * len(order), digest_jobs=80,
                    jobs=_batch_jobs(order))


# -------------------------------------------------------------- cli-cold

def _interval_family(rng, ground, count):
    members = set()
    while len(members) < count:
        lo = rng.randrange(ground)
        hi = rng.randrange(lo, ground)
        members.add(tuple(range(lo, hi + 1)))
    return {"ground_size": ground, "members": sorted(list(m) for m in members)}


# The involution job's time grows with its interval (6 ms at width 20, 22 ms
# at 60, against ~0.2 s of interpreter start), and all cli-cold jobs take
# about as long, so seeded widths let the seed decide whether it is the
# slowest kind (job_max_s). Every run takes each of these widths once.
INVOLUTION_WIDTHS = (20, 33, 47, 60)


def _cold_jobs(rng, workdir):
    for c in itertools.count():
        fam = f"family-{c % 8}.json"
        if c < 8:
            _write(os.path.join(workdir, fam), _interval_family(rng, 32, 24))
        lo = rng.randrange(1, 11)
        hi = lo + INVOLUTION_WIDTHS[c % len(INVOLUTION_WIDTHS)]
        gseed = str(rng.randrange(1000))
        tag = f"c{c}"
        yield Job(f"{tag}/dyadic-density", ["dyadic", "density", "--depth", "6"],
                  expect={"density": "1/3"})
        yield Job(f"{tag}/dyadic-report", ["dyadic", "report", "--depth", "6"])
        yield Job(f"{tag}/dyadic-bound",
                  ["dyadic", "bound", "--prefix", "0", "--prefix", "10", "--depth", "8"])
        yield Job(f"{tag}/convexity-density", ["convexity", "density", "--n", "100"],
                  expect={"density": "67/132"})
        yield Job(f"{tag}/convexity-involution",
                  ["convexity", "involution", "--interval", f"{lo}..{hi}"])
        yield Job(f"{tag}/rodl-search",
                  ["rodl", "search", "--depth", "6", "--eps", "6/25"])
        yield Job(f"{tag}/gen", ["gen", "half-graph", "--sizes", "24,24",
                                 "--seed", gseed, "--out", "half24.json"])
        yield Job(f"{tag}/reg-partition",
                  ["reg", "partition", "--in", "half24.json", "--epsilon", "1/4",
                   "--out", "half24.part.json"],
                  instance="half24.json", report_file="half24.part.json")
        yield Job(f"{tag}/reg-verify", ["reg", "verify", "--in", "half24.json",
                                        "--partition", "half24.part.json"],
                  instance="half24.json")
        yield Job(f"{tag}/stable-ladder", ["stable", "ladder", "--in", "half24.json"],
                  instance="half24.json")
        yield Job(f"{tag}/vc-net", ["vc", "net", "--in", fam, "--epsilon", "1/4"])


def cli_cold(seed, workdir):
    rng = random.Random(seed)
    # four cycles at least, so that job_tail_s (ten jobs beyond it) is a
    # percentile of 44 jobs
    return Workload("cli-cold", False, unit=11, digest_jobs=11, min_jobs=44,
                    jobs=_cold_jobs(rng, workdir))


# ------------------------------------------------------------ half-sweep

def _half_graph(n):
    return _hypergraph((n, n), ((i, j) for i in range(n) for j in range(i, n)))


def half_sweep(seed, workdir):
    # The half-graphs are fixed; the seed changes nothing here. Relabelling
    # the vertices per seed moves the greedy net, and with it the class
    # counts (129x128 against 134x134 to 137x136 at eps 1/8) and the job
    # time by up to 30 %, which would swamp the run-to-run spread.
    _write(os.path.join(workdir, "half256.json"), {"hypergraph": _half_graph(256)})
    _write(os.path.join(workdir, "half384.json"), {"hypergraph": _half_graph(384)})
    sweep = [("half256.json", eps) for eps in ("1/2", "1/4", "1/8", "1/16")]
    sweep.append(("half384.json", "1/4"))
    jobs = [Job(f"{f[:-5]}/reg-partition-{eps}",
                ["reg", "partition", "--in", f, "--epsilon", eps], instance=f)
            for f, eps in sweep]
    return Workload("half-sweep", True, unit=len(jobs), digest_jobs=len(jobs),
                    jobs=itertools.cycle(jobs))


# ------------------------------------------------------- weighted-stable

# Per-part prime denominators, in bits, that put the product denominator in
# each arithmetic regime: float64-bincount (< 2^53), int64 ([2^53, 2^62))
# and Python bigint (>= 2^62). Indexed by the number of parts.
REGIME_BITS = {
    2: {"float64": 24, "int64": 29, "bigint": 33},
    3: {"float64": 16, "int64": 20, "bigint": 23},
}
REGIME_RANGE = {"float64": (0, 53), "int64": (53, 62), "bigint": (62, None)}


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(rng, bits):
    n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while not _is_prime(n):
        n += 2
    return n


def _weights(rng, n, bits):
    """Exact weights over a prime denominator: about 10 % zero, the rest
    positive and uneven, summing to exactly 1."""
    den = _prime(rng, bits)
    zero = set(rng.sample(range(n), max(1, n // 10)))
    live = [v for v in range(n) if v not in zero]
    raw = {v: rng.randrange(1, 1000) for v in live}
    tot = sum(raw.values())
    nums = {v: max(1, raw[v] * den // tot) for v in live}
    nums[live[0]] += den - sum(nums.values())
    assert nums[live[0]] > 0
    return [f"{nums.get(v, 0)}/{den}" for v in range(n)]


def product_denominator(measures):
    """Product over parts of the common denominator of the part's weights,
    the quantity that selects the arithmetic path."""
    return math.prod(math.lcm(*(Fraction(w).denominator for w in m["weights"]))
                     for m in measures)


def regime_of(den):
    for name, (lo, hi) in REGIME_RANGE.items():
        if den >= (1 << lo) and (hi is None or den < (1 << hi)):
            return name
    raise ValueError(den)


def instance_regime(path):
    """Arithmetic regime of an instance file; uniform measures when absent."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if "measures" in obj:
        return regime_of(product_denominator(obj["measures"]))
    return regime_of(math.prod(obj.get("hypergraph", obj)["part_sizes"]))


def _block_union(rng, sizes, blocks):
    """Blocks of near-equal size (random cuts within 1/8 of a block of the
    even split) over shuffled vertex labels. Fully random cuts were tried:
    the stable partition of the 256^2 instance then took 0.9 to 2.9 s
    depending on the seed."""
    labels = []
    for n in sizes:
        jitter = max(1, n // (8 * blocks))
        bounds = [0] + [n * b // blocks + rng.randint(-jitter, jitter)
                        for b in range(1, blocks)] + [n]
        lab = [b for b in range(blocks) for _ in range(bounds[b], bounds[b + 1])]
        rng.shuffle(lab)
        labels.append(lab)
    by_block = [[[v for v in range(n) if lab[v] == b] for n, lab in zip(sizes, labels)]
                for b in range(blocks)]
    return _hypergraph(sizes, (t for sides in by_block for t in itertools.product(*sides)))


def _interval_graph(rng, n0, n1):
    edges = []
    for j in range(n1):
        lo = rng.randrange(n0)
        hi = rng.randrange(lo, n0)
        edges.extend((p, j) for p in range(lo, hi + 1))
    return _hypergraph((n0, n1), edges)


WEIGHTED_SHAPES = (
    ("block256", lambda rng: _block_union(rng, (256, 256), 8)),
    ("block128", lambda rng: _block_union(rng, (128, 128), 6)),
    ("block40x3", lambda rng: _block_union(rng, (40, 40, 40), 4)),
    # the intervals are fixed: whether stable partition fails, gives up or
    # succeeds on an interval graph depends on them, and with them its time
    ("interval64x96", lambda rng: _interval_graph(random.Random(0), 64, 96)),
    ("half96", lambda rng: _hypergraph((96, 96), ((i, j) for i in range(96)
                                                  for j in range(i, 96)))),
)


WEIGHTED_DRAWS = 2


def weighted_stable(seed, workdir):
    # WEIGHTED_DRAWS independent draws of every shape and regime make one
    # pass, and a run is always a single pass: a second pass over the same
    # instances runs with warm caches (binary views are cached per
    # hypergraph) and made p50 and tail read 20 % lower. Three draws were
    # tried: job_tail_s and job_max_s spread as much as with two (about 9 %
    # over five seeds), and the run took 40 % longer.
    rng = random.Random(seed)
    jobs, regimes = [], {}
    for draw, (shape, make) in itertools.product(range(WEIGHTED_DRAWS),
                                                 WEIGHTED_SHAPES):
        hobj = make(rng)
        for regime, bits in REGIME_BITS[hobj["k"]].items():
            measures = [{"part": i, "weights": _weights(rng, n, bits)}
                        for i, n in enumerate(hobj["part_sizes"])]
            den = product_denominator(measures)
            # regime guard: a reseed must never drop an arithmetic path
            if regime_of(den) != regime:
                raise RuntimeError(f"{shape}/{regime}: product denominator "
                                   f"2^{den.bit_length() - 1} is outside its range")
            tag = f"{shape}-{regime}-d{draw}"
            inst = f"{tag}.json"
            regimes[tag] = regime
            _write(os.path.join(workdir, inst),
                   {"hypergraph": hobj, "measures": measures})
            part = f"{tag}.part.json"
            jobs.append(Job(f"{tag}/stable-partition",
                            ["stable", "partition", "--in", inst, "--epsilon", "1/8"],
                            instance=inst))
            jobs.append(Job(f"{tag}/reg-partition",
                            ["reg", "partition", "--in", inst, "--epsilon", "1/4",
                             "--out", part], instance=inst, report_file=part))
            jobs.append(Job(f"{tag}/reg-verify",
                            ["reg", "verify", "--in", inst, "--partition", part],
                            instance=inst))
    order = list(range(len(jobs) // 3))
    rng.shuffle(order)
    jobs = [jobs[3 * i + j] for i in order for j in range(3)]
    return Workload("weighted-stable", True, unit=len(jobs), digest_jobs=len(jobs),
                    jobs=itertools.cycle(jobs), notes={"regime_of_instance": regimes})


BUILDERS = {
    "cli-cold": cli_cold,
    "cli-batch": cli_batch,
    "half-sweep": half_sweep,
    "weighted-stable": weighted_stable,
}
