"""The acceptance gate. Ten end-to-end criteria, each printing one
ACCEPTANCE n: PASS/FAIL line (run with pytest -s to see them all).

Every numeric claim is checked with exact Fractions; the only tolerances
that appear are the ones the criteria themselves state (a slope cap, a
90-of-100 success count, a runtime budget).
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from vcreg import cli
from vcreg.convexity import IntegerInterval, convexity_density, reflection_involution_check
from vcreg.core import Measure, density, edge_mass, uniform_measures
from vcreg.dyadic import (DyadicBall, anti_homogeneity_bound_check,
                          level_pair_counts, odd_split_density, random_ball_union)
from vcreg.instances import GeneratorSpec, generate
from vcreg.jsonio import canonical_dumps, dump_json, parse_rational
from vcreg.oracles import (brute_convexity_edges, brute_union_mass_error,
                           dyadic_leaves, split_level)
from vcreg.regularity import find_dense_box, rectangular_approximation, regular_partition
from vcreg.instances import interval_family
from vcreg.vc import (SetFamily, epsilon_net, fiber_family, sauer_bound, shatter_function,
                      vc_dimension)

HALF = Fraction(1, 2)
EPS_SWEEP = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


def announce(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def write_instance(spec, path):
    dump_json(generate(spec).to_obj(), str(path))
    return str(path)


def pipeline_spec(kind, seed):
    """Seeded instance specs with every part size <= 32."""
    if kind == "interval-graph":
        return GeneratorSpec(kind, (8 + seed % 25, 8 + (7 * seed) % 25), 2, seed)
    if kind == "half-graph":
        return GeneratorSpec(kind, (8 + seed % 25,) * 2, 2, seed)
    if kind == "block-union":
        return GeneratorSpec(kind, (8 + seed % 25, 8 + (3 * seed) % 25), 2, seed,
                             (("blocks", 2 + seed % 3),))
    return GeneratorSpec("staircase",
                         (4 + seed % 7, 4 + (3 * seed) % 7, 4 + (5 * seed) % 7),
                         3, seed)


def test_acceptance_01_regularity_pipeline(tmp_path):
    t0 = time.perf_counter()
    runs = 0
    for kind in ("interval-graph", "half-graph", "block-union", "staircase"):
        for seed in range(50):
            path = write_instance(pipeline_spec(kind, seed),
                                  tmp_path / f"{kind}-{seed}.json")
            for eps in EPS_SWEEP:
                code, rep = run_cli(["reg", "partition", "--in", path,
                                     "--epsilon", str(eps)])
                assert code == 0, (kind, seed, eps)
                ver = rep["verification"]
                assert ver["ok"] and ver["violations"] == [], (kind, seed, eps, ver)
                assert parse_rational(ver["sigma_mass"]) <= eps
                runs += 1
    elapsed = time.perf_counter() - t0
    ok = runs == 600 and elapsed < 60.0
    announce(1, ok, f"{runs} reg partition runs verified in {elapsed:.1f}s")


def small_corpus():
    """Seeded instances of every generator kind with all parts <= 6."""
    specs = []
    for sizes in ((3, 4), (4, 5), (5, 6), (6, 6), (6, 4)):
        for seed in range(3):
            specs.append(GeneratorSpec("interval-graph", sizes, 2, seed))
    for n in range(2, 7):
        specs.append(GeneratorSpec("half-graph", (n, n), 2, 0))
    for sizes in ((4, 4), (5, 6), (6, 5), (6, 6)):
        for blocks in (2, 3):
            for seed in range(2):
                specs.append(GeneratorSpec("block-union", sizes, 2, seed,
                                           (("blocks", blocks),)))
    for sizes in ((3, 3, 3), (4, 3, 5), (6, 6, 6), (2, 4, 6)):
        specs.append(GeneratorSpec("staircase", sizes, 3, 0))
    for sizes in ((4, 6), (5, 5), (6, 6)):
        for seed in range(3):
            specs.append(GeneratorSpec("random-vc-capped", sizes, 2, seed))
    for even in (0, 1):
        specs.append(GeneratorSpec("dyadic-export", (4, 4), 2, 0,
                                   (("depth", 2), ("even", even))))
    return [generate(s) for s in specs]


def test_acceptance_02_rect_approx_equals_oracle():
    checked = 0
    for g in small_corpus():
        assert all(n <= 6 for n in g.hypergraph.part_sizes)
        for eps in EPS_SWEEP:
            ra = rectangular_approximation(g.hypergraph, g.measures, eps)
            brute = brute_union_mass_error(g.hypergraph, g.measures, ra.boxes)
            assert brute == ra.error, (g.spec, eps)
            assert brute < eps, (g.spec, eps)
            checked += 1
    announce(2, checked >= 150,
             f"{checked} rect runs on parts <= 6, brute symdiff == stored error, zero tolerance")


def test_acceptance_03_halfgraph_partition_scaling():
    g = generate(GeneratorSpec("half-graph", (256, 256), 2, 0))
    xs, ys = [], []
    for eps in (HALF, Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        rp = regular_partition(g.hypergraph, g.measures, eps)
        size = sum(len(p) for p in rp.classes)
        xs.append(math.log(float(1 / eps)))
        ys.append(math.log(size))
    slope = float(np.polyfit(xs, ys, 1)[0])
    # d=1, k=2: the bound exponent is 2(k-1)d^2 + 1 = 3
    announce(3, slope <= 3.0, f"log-log slope {slope:.3f} <= 3 on half-graphs")


def test_acceptance_04_stable_partition_block_unions(tmp_path):
    eps = Fraction(1, 8)
    budget = int((1 / eps) ** 2)
    checked = 0
    for blocks in (2, 3, 4):
        for seed in range(6):
            spec = GeneratorSpec("block-union",
                                 (blocks + 4 + seed, blocks + 5 + 2 * seed), 2,
                                 seed, (("blocks", blocks),))
            path = write_instance(spec, tmp_path / f"b{blocks}-{seed}.json")
            code, rep = run_cli(["stable", "partition", "--in", path,
                                 "--epsilon", str(eps)])
            assert code == 0, (blocks, seed)
            ver = rep["verification"]
            assert ver["sigma_empty"], (blocks, seed)
            assert ver["all_boxes_exactly_homogeneous"], (blocks, seed)
            counts = rep["outputs"]["class_counts"]
            assert max(counts) <= blocks + 1, (blocks, seed, counts)
            assert max(counts) <= budget
            checked += 1
    announce(4, checked == 18,
             f"{checked} block unions: Sigma empty, boxes exact, counts <= blocks+1 <= {budget}")


def test_acceptance_05_dense_box_guarantee():
    eps = Fraction(1, 10)
    found = 0
    for seed in range(60):
        n0, n1 = 10 + seed % 15, 10 + (3 * seed) % 15
        g = generate(GeneratorSpec("block-union", (n0, n1), 2, seed,
                                   (("blocks", 2),)))
        alpha = edge_mass(g.hypergraph, g.measures)
        if alpha < Fraction(2, 5):
            continue
        db = find_dense_box(g.hypergraph, g.measures, alpha, eps)
        assert db.density > Fraction(9, 10), (seed, db.density)
        assert db.delta_guarantee > 0
        assert all(m >= db.delta_guarantee for m in db.side_masses), seed
        # re-derive everything from the box itself, exactly
        assert density(g.hypergraph, g.measures, db.box) == db.density
        for mu, side in zip(g.measures, db.box.sides):
            assert mu.mass(side) in db.side_masses or mu.mass(side) >= db.delta_guarantee
        found += 1
    announce(5, found >= 30,
             f"{found} two-block instances with mass >= 2/5: density > 9/10, sides >= delta > 0")


def test_acceptance_06_dyadic_exactness():
    whole = [DyadicBall("")]
    for L in range(2, 13, 2):
        assert odd_split_density(whole, L) == Fraction(1, 3), L
    for L in (3, 5, 7, 9, 11):  # co-depth L-1 even
        for prefix in ("0", "1"):
            assert odd_split_density([DyadicBall(prefix)], L) == Fraction(2, 3), (prefix, L)
    for L in range(1, 9):
        for prefixes in ([""], ["0", "10"], ["00", "01", "1"], ["01", "1"]):
            if max(len(p) for p in prefixes) > L:
                continue
            balls = [DyadicBall(p) for p in prefixes]
            leaves = dyadic_leaves(prefixes, L)
            want = [0] * L
            for x in leaves:
                for y in leaves:
                    if x != y:
                        want[split_level(x, y, L)] += 1
            assert level_pair_counts(balls, L) == want, (prefixes, L)
    passed = 0
    for seed in range(1000):
        L = 2 + seed % 9
        balls = random_ball_union(L, seed)
        b = min(balls, key=lambda x: (len(x.prefix), x.prefix))
        if anti_homogeneity_bound_check(balls, b, L).verdict:
            passed += 1
    announce(6, passed == 1000,
             f"densities 1/3 and 2/3 exact, level counts brute-matched, {passed}/1000 unions bounded")


def test_acceptance_07_convexity_density():
    for N in range(3, 101):
        want = HALF + Fraction((N - 1) ** 2 // 4, 2 * math.comb(N, 3))
        got = convexity_density(N, IntegerInterval(1, N))
        hit, total = brute_convexity_edges(range(1, N + 1))
        assert got == want == Fraction(hit, total), N
    gap = abs(convexity_density(100, IntegerInterval(1, 100)) - HALF)
    assert gap < Fraction(1, 50)
    rng = random.Random(7)
    for _ in range(200):
        lo = rng.randint(-40, 40)
        assert reflection_involution_check(IntegerInterval(lo, lo + rng.randint(2, 29)))
    announce(7, True,
             f"closed form == brute for N <= 100, |d(100) - 1/2| = {gap} < 1/50, 200 involutions")


def test_acceptance_08_epsilon_nets(tmp_path):
    fam_paths = {}
    for n in (20, 60):
        p = tmp_path / f"intervals-{n}.json"
        dump_json(interval_family(n).to_obj(), str(p))
        fam_paths[n] = str(p)
    inst = write_instance(GeneratorSpec("half-graph", (12, 12), 2, 0),
                          tmp_path / "half-12.json")
    nets = 0
    for eps in EPS_SWEEP:
        for strategy in ("greedy", "random"):
            for n, p in fam_paths.items():
                code, rep = run_cli(["vc", "net", "--in", p, "--epsilon", str(eps),
                                     "--strategy", strategy, "--seed", "1"])
                assert code == 0 and rep["verification"]["verified_exhaustively"]
                nets += 1
            code, rep = run_cli(["vc", "net", "--in", inst, "--parts", "0",
                                 "--epsilon", str(eps), "--strategy", strategy,
                                 "--seed", "1"])
            assert code == 0 and rep["verification"]["verified_exhaustively"]
            nets += 1
    fam = interval_family(60)
    mu = Measure.uniform(0, fam.ground_size)
    first_try = 0
    for seed in range(100):
        net = epsilon_net(fam, mu, Fraction(1, 4), strategy="random", seed=seed)
        assert net.verified
        if net.meta["attempts"] == 1:
            assert len(net.points) == net.meta["size_ln"]
            first_try += 1
    announce(8, first_try >= 90,
             f"{nets} nets all verified exhaustively; random first-try {first_try}/100 >= 90")


def test_acceptance_09_sauer_on_generated_families():
    families = [interval_family(n) for n in (4, 6, 8, 10, 12)]
    for n in (4, 6, 8, 10, 12):
        families.append(fiber_family(generate(
            GeneratorSpec("half-graph", (n, n), 2, 0)).hypergraph, (0,)))
    for seed in range(3):
        families.append(fiber_family(generate(
            GeneratorSpec("interval-graph", (8, 10), 2, seed)).hypergraph, (0,)))
        families.append(fiber_family(generate(
            GeneratorSpec("block-union", (6, 6), 2, seed,
                          (("blocks", 2 + seed % 2),))).hypergraph, (0,)))
    families.append(fiber_family(generate(
        GeneratorSpec("staircase", (4, 4, 4), 3, 0)).hypergraph, (0,)))
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(4, 12)
        members = [rng.sample(range(n), rng.randint(0, n))
                   for _ in range(rng.randint(1, 40))]
        families.append(SetFamily.from_sets(n, members))
    checked = 0
    for fam in families:
        n = fam.ground_size
        if n > 12:
            continue
        dim = vc_dimension(fam, cap=6)
        if dim.capped or dim.budget_exhausted or dim.value > 4:
            continue
        assert shatter_function(fam, n) <= sauer_bound(dim.value, n), (n, dim.value)
        checked += 1
    announce(9, checked >= 140,
             f"Sauer's bound holds on {checked} families with d <= 4, n <= 12")


def test_acceptance_10_deterministic_reports(tmp_path):
    half = write_instance(GeneratorSpec("half-graph", (16, 16), 2, 0),
                          tmp_path / "half-16.json")
    blocks = write_instance(GeneratorSpec("block-union", (12, 12), 2, 5,
                                          (("blocks", 3),)),
                            tmp_path / "blocks.json")
    fam = tmp_path / "intervals-40.json"
    dump_json(interval_family(40).to_obj(), str(fam))
    invocations = [
        ["gen", "half-graph", "--sizes", "8,8", "--seed", "3"],
        ["gen", "interval-graph", "--sizes", "10,12", "--seed", "7"],
        ["vc", "dim", "--in", str(fam)],
        ["vc", "net", "--in", str(fam), "--epsilon", "1/4",
         "--strategy", "random", "--seed", "11"],
        ["reg", "partition", "--in", half, "--epsilon", "1/4"],
        ["reg", "rect", "--in", half, "--epsilon", "1/8"],
        ["stable", "partition", "--in", blocks, "--epsilon", "1/8"],
        ["dyadic", "density", "--depth", "6"],
        ["convexity", "density", "--n", "30"],
    ]
    for argv in invocations:
        (c1, r1), (c2, r2) = run_cli(argv), run_cli(argv)
        assert c1 == c2 == 0, argv
        r1.pop("timing"), r2.pop("timing")
        assert canonical_dumps(r1) == canonical_dumps(r2), argv
    announce(10, True, f"{len(invocations)} seeded invocations byte-identical modulo timing")
