"""Named end-to-end checks of the worked example values.

Every check recomputes a frozen value with the brute-force oracles and
compares it against the library path, so a regression in either shows up as
a loud mismatch. The CLI command examples are exercised by the test suite;
this module covers their substance (the densities, partitions, and bounds
the commands report).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .convexity import (IntegerInterval, ap_count, convexity_density,
                        reflection_involution_check)
from .core import (Box, Hypergraph, Measure, density, edge_mass, fiber,
                   fubini_mass, full_box, uniform_measures, weak_fubini_check)
from .dyadic import (DyadicBall, anti_homogeneity_bound_check,
                     ball_parity_report, level_pair_counts, odd_split_density)
from .homog import ball_family_search, definable_homogeneous_search
from .instances import GeneratorSpec, generate, roundtrip
from .jsonio import canonical_dumps, dump_json
from .oracles import (brute_ap_count, brute_atoms_by_combinations,
                      brute_convexity_edges, brute_dyadic_pair_count,
                      brute_fiber, brute_symdiff_mass, brute_union_mass_error,
                      brute_vc_dimension)
from .regularity import (RegularPartition, delta_approx_partition,
                         find_dense_box, rectangular_approximation,
                         regular_partition, uniform_regular_partition,
                         verify_regular_partition)
from .stable import (good_check, good_descent_partition, ladder_index,
                     product_goodness_check, stable_regular_partition)
from .vc import (SetFamily, epsilon_net, fiber_family, sauer_bound,
                 shatter_function, vc_dimension)

CHECKS: list[tuple[str, object]] = []


def check(name):
    def deco(fn):
        CHECKS.append((name, fn))
        return fn
    return deco


def half_graph(n0: int, n1: int | None = None) -> Hypergraph:
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
    sets = [()] + [tuple(range(a, b + 1)) for a in range(n) for b in range(a, n)]
    return SetFamily.from_sets(n, sets)


def expect(cond: bool, msg: str):
    if not cond:
        raise AssertionError(msg)


def _expect_in_blocks(classes, n: int, blocks: int):
    """Every class lies inside one block of block_pair_graph(n, blocks)."""
    for cls in classes:
        expect(len({v * blocks // n for v in cls}) == 1, f"class {cls} straddles blocks")


def _expect_homogeneous(H: Hypergraph, mu, rp):
    """Every labelled box of a partition has density exactly 0 or 1."""
    for key in rp.labels:
        d = density(H, mu, Box.of([rp.classes[i][key[i]] for i in range(H.k)]))
        expect(d in (Fraction(0), Fraction(1)), f"box {key} density {d}")


@check("core.fiber.half-graph-4x4")
def _fiber_example():
    H = half_graph(4)
    f = fiber(H, (0,), (2,))
    expect(f.members == frozenset({(0,), (1,), (2,)}), f"fiber {f.members}")
    expect(brute_fiber(H, (0,), (2,)) == f.members, "oracle disagrees")
    return "R_(b=2) over part 0 = {0,1,2}"


@check("core.mass.half-graph-4x4")
def _mass_example():
    H = half_graph(4)
    mu = uniform_measures(H)
    m = edge_mass(H, mu)
    expect(m == Fraction(10, 16), f"edge mass {m}")
    expect(brute_symdiff_mass(H, mu, ()) == m, "symdiff against empty set disagrees")
    expect(density(H, mu, full_box(H)) == m, "full-box density disagrees")
    for split in ((0,), (1,)):
        expect(fubini_mass(H, mu, split) == m, f"Fubini split {split} disagrees")
    return "mass 10/16 by direct count, symdiff, density, both Fubini splits"


@check("core.weak-fubini.random-6x6")
def _weak_fubini_example():
    g = generate(GeneratorSpec("random-vc-capped", (6, 6), 2, seed=11))
    H, mu = g.hypergraph, g.measures
    probe = weak_fubini_check(H, mu, Fraction(1, 2))
    eps = probe["max_fiber_mass"] + Fraction(1, 100)
    rep = weak_fubini_check(H, mu, eps)
    expect(rep["premise"] and rep["holds"], f"weak Fubini failed: {rep}")
    return f"premise at eps={eps} implies product mass {rep['product_mass']} < eps"


@check("vc.dimension.intervals-6")
def _vc_intervals():
    F = interval_family(6)
    d = vc_dimension(F)
    expect(d.value == 2 and not d.capped, f"vc {d}")
    expect(brute_vc_dimension(F.members, 6) == 2, "oracle disagrees")
    return "interval traces on 6 points have VC dimension 2"


@check("vc.shatter.sauer")
def _shatter_sauer():
    F = interval_family(10)
    expect(shatter_function(F, 3) == 7, "pi_F(3) != 7")
    expect(sauer_bound(2, 3) == 7, "Sauer bound 1+3+3 != 7")
    half = fiber_family(half_graph(8), (0,))
    expect(shatter_function(half, 4) <= sauer_bound(1, 4),
           "nested fibers exceed the d=1 bound on 4 points")
    return "pi(3)=7 for intervals; half-graph fibers within Sauer d=1 bound"


@check("vc.atoms.half-graph-4x4")
def _atoms_example():
    H = half_graph(4)
    atoms = brute_atoms_by_combinations(H, (0,), [(0,), (1,), (2,), (3,)])
    expect(len(atoms) == 4, f"{len(atoms)} nonempty atoms")
    expect(sorted(map(sorted, atoms)) == [[(0,)], [(1,)], [(2,)], [(3,)]],
           f"atoms {atoms}")
    return "4 nonempty nested-difference atoms (the 5th fingerprint class is empty)"


@check("vc.net.intervals-20")
def _net_example():
    F = interval_family(20)
    net = epsilon_net(F, Measure.uniform(0, 20), Fraction(1, 4), strategy="greedy")
    expect(net.verified, "net failed verification")
    expect(net.points == (4, 9, 14, 19), f"net {net.points}")
    return "greedy 1/4-net on 20 uniform points = every 5th point"


@check("regularity.delta.half-graph-4x4")
def _delta_example():
    H = half_graph(4)
    mu = uniform_measures(H)
    eps = Fraction(3, 10)
    dp = delta_approx_partition(H, mu, eps, (0,))
    expect(dp.max_pair_distance is not None and dp.max_pair_distance < eps,
           f"pair distance {dp.max_pair_distance}")
    w0 = mu[0]
    for cls in dp.classes:
        for b in cls:
            for c in cls:
                fb = {t[0] for t in brute_fiber(H, (0,), b)}
                fc = {t[0] for t in brute_fiber(H, (0,), c)}
                d = w0.mass(fb ^ fc)
                expect(d < eps, f"pair {b},{c} at distance {d}")
    return f"classes {dp.classes} pass the exhaustive pairwise check ({dp.path} path)"


@check("regularity.rect.half-graph-4x4")
def _rect_half():
    H = half_graph(4)
    mu = uniform_measures(H)
    ra = rectangular_approximation(H, mu, Fraction(3, 10))
    brute = brute_union_mass_error(H, mu, ra.boxes)
    expect(ra.error < Fraction(3, 10), f"error {ra.error}")
    expect(brute == ra.error, f"stored {ra.error} != brute {brute}")
    return f"error {ra.error} < 3/10, brute recount agrees on all 16 pairs"


@check("regularity.rect.staircase-4^3")
def _rect_staircase():
    H = generate(GeneratorSpec("staircase", (4, 4, 4), 3)).hypergraph
    mu = uniform_measures(H)
    ra = rectangular_approximation(H, mu, Fraction(1, 2))
    brute = brute_union_mass_error(H, mu, ra.boxes)
    expect(ra.error < Fraction(1, 2) and brute == ra.error,
           f"stored {ra.error}, brute {brute}")
    return f"error {ra.error} < 1/2, brute recount agrees on all 64 triples"


@check("regularity.partition.two-blocks-8x8")
def _regular_blocks():
    H = block_pair_graph(8, 2)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 10))
    rep = verify_regular_partition(H, mu, rp)
    expect(rep["ok"], f"verifier: {rep['violations']}")
    expect(rp.sigma == (), "Sigma should be empty")
    _expect_in_blocks([c for part in rp.classes for c in part], 8, 2)
    _expect_homogeneous(H, mu, rp)
    return "partition refines the blocks, Sigma empty, every box homogeneous"


@check("regularity.partition.half-graph-16x16")
def _regular_half16():
    H = half_graph(16)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 4))
    rep = verify_regular_partition(H, mu, rp)
    expect(rep["ok"], f"verifier: {rep['violations']}")
    return (f"Sigma mass {rep['sigma_mass']} <= 1/4, "
            f"{rep['box_count']} boxes all 0-1 dense")


@check("regularity.uniform.three-cliques-12")
def _regular_cliques():
    H = same_block_equivalence(12, 3)
    rp = uniform_regular_partition(H, Measure.uniform(0, 12), Fraction(1, 8))
    rep = verify_regular_partition(H, uniform_measures(H), rp)
    expect(rep["ok"], f"verifier: {rep['violations']}")
    expect(rp.sigma == (), "Sigma should be empty")
    _expect_in_blocks([c for part in rp.classes for c in part], 12, 3)
    return "partition refines the 3 cliques with Sigma empty"


@check("regularity.uniform.same-half-k3")
def _regular_k3():
    n = 8
    half = [v // 4 for v in range(n)]
    edges = frozenset((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                      if half[x] == half[y] == half[z])
    H = Hypergraph((n, n, n), edges, True)
    rp = uniform_regular_partition(H, Measure.uniform(0, n), Fraction(1, 4))
    rep = verify_regular_partition(H, uniform_measures(H), rp)
    expect(rep["ok"], f"verifier: {rep['violations']}")
    return f"k=3 same-half relation verified, class counts {rep['class_counts']}"


@check("regularity.verifier.rejects-adversarial")
def _verifier_rejects():
    H = half_graph(4)
    mu = uniform_measures(H)
    bad = RegularPartition(classes=(((0, 1, 2, 3),), ((0, 1, 2, 3),)),
                           epsilon=Fraction(1, 10), sigma=(), labels={},
                           provenance=((), ()))
    rep = verify_regular_partition(H, mu, bad)
    expect(not rep["ok"], "adversarial partition accepted")
    kinds = [v["kind"] for v in rep["violations"]]
    expect("box_not_01_dense" in kinds, f"violations {kinds}")
    v = next(v for v in rep["violations"] if v["kind"] == "box_not_01_dense")
    expect(v["edge_mass"] == "5/8", f"density payload {v}")
    return "single-class partition rejected: full box at density 10/16"


@check("regularity.densebox.two-blocks")
def _densebox_blocks():
    H = block_pair_graph(8, 2)
    mu = uniform_measures(H)
    db = find_dense_box(H, mu, Fraction(2, 5), Fraction(1, 10))
    expect(db.density == 1, f"density {db.density}")
    sides = db.box.sides
    expect(all(all(v < 4 for v in s) or all(v >= 4 for v in s) for s in sides),
           f"box {sides} not inside one block")
    expect(all(m >= db.delta_guarantee > 0 for m in db.side_masses),
           "side masses below the guarantee")
    return f"one block returned at density 1, side masses {db.side_masses}"


@check("regularity.densebox.half-graph-16x16")
def _densebox_half():
    H = half_graph(16)
    mu = uniform_measures(H)
    db = find_dense_box(H, mu, Fraction(1, 2), Fraction(1, 4))
    expect(db.density > Fraction(3, 4), f"density {db.density}")
    expect(all(m > 0 for m in db.side_masses), "zero-mass side")
    expect(density(H, mu, db.box) == db.density, "density recompute disagrees")
    return f"box of density {db.density} > 3/4 with positive sides"


@check("stable.ladder.half-graph-8")
def _ladder_half8():
    H = half_graph(8)
    cert = ladder_index(H, (0,), cap=10)
    expect(cert.length == 8 and not cert.capped, f"ladder {cert.display()}")
    d = vc_dimension(fiber_family(H, (0,)))
    expect(d.value == 1, f"vc {d.value}")
    return "ladder index 8 (exact), fiber VC dimension 1"


@check("stable.ladder.block-union")
def _ladder_blocks():
    g = generate(GeneratorSpec("block-union", (12, 12), 2, seed=0,
                               params=(("blocks", 3),)))
    li = g.measured["ladder_index"]
    expect(li["value"] == 1 and not li["capped"], f"ladder {li}")
    return "3-block union on 12x12 has ladder index 1"


@check("stable.good.half-graph-10x10")
def _good_half10():
    H = half_graph(10)
    mu = uniform_measures(H)
    A = [(j,) for j in range(10)]
    rep = good_check(H, mu, A, (1,), Fraction(1, 5))
    expect(not rep.good, "A = V_1 reported good")
    expect(rep.witness == (5,), f"witness {rep.witness}")
    expect(rep.witness_density == Fraction(1, 2), f"density {rep.witness_density}")
    return "not good; middle parameter b=5 splits A exactly in half"


@check("stable.descent.three-blocks-12x12")
def _descent_blocks():
    H = block_pair_graph(12, 3)
    mu = uniform_measures(H)
    eps = Fraction(1, 8)
    gd = good_descent_partition(H, mu, 1, eps)
    _expect_in_blocks(gd.pieces, 12, 3)
    for piece in gd.pieces:
        expect(good_check(H, mu, [(v,) for v in piece], (1,), eps).good,
               f"piece {piece} not eps-good")
    return f"{len(gd.pieces)} pieces refine the blocks, all eps-good"


@check("stable.descent.half-graph-8x8")
def _descent_half8():
    H = half_graph(8)
    mu = uniform_measures(H)
    eps = Fraction(1, 4)
    gd = good_descent_partition(H, mu, 1, eps, depth_cap=8)
    for piece in gd.pieces:
        expect(good_check(H, mu, [(v,) for v in piece], (1,), eps).good,
               f"piece {piece} not good")
    d = vc_dimension(fiber_family(H, (1,))).value
    bound = (Fraction(1) / eps) ** (d + 1)
    expect(len(gd.pieces) <= bound, f"{len(gd.pieces)} pieces > {bound}")
    return f"{len(gd.pieces)} good pieces <= (1/eps)^(d+1) = {bound} at d={d}"


@check("stable.partition.four-blocks")
def _stable_blocks():
    H = block_pair_graph(16, 4)
    mu = uniform_measures(H)
    sp = stable_regular_partition(H, mu, Fraction(1, 8))
    expect(sp.sigma == (), "Sigma should be empty")
    _expect_in_blocks([c for part in sp.classes for c in part], 16, 4)
    _expect_homogeneous(H, mu, sp)
    return "blocks recovered, Sigma empty, every box exactly homogeneous"


@check("stable.partition.same-block-k3")
def _stable_k3():
    n = 8
    half = [v // 4 for v in range(n)]
    edges = frozenset((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                      if half[x] == half[y] == half[z])
    H = Hypergraph((n, n, n), edges, True)
    mu = uniform_measures(H)
    sp = stable_regular_partition(H, mu, Fraction(1, 8))
    expect(sp.class_counts() == (2, 2, 2), f"class counts {sp.class_counts()}")
    expect(sp.sigma == (), "Sigma should be empty")
    _expect_homogeneous(H, mu, sp)
    expect(len(sp.labels) == 8, f"{len(sp.labels)} boxes")
    return "2 classes per part, all 8 boxes exactly homogeneous"


@check("stable.product-good.blocks")
def _product_good():
    H = block_pair_graph(12, 2)
    mu = uniform_measures(H)
    A = [(j,) for j in range(3)]
    B = Box.of([(0, 1, 2, 3)])
    expect(product_goodness_check(H, mu, A, B, Fraction(1, 8)),
           "same-block product not good")
    return "A and B inside one block: product is good (density 1 on R)"


@check("dyadic.density.L4")
def _dyadic_l4():
    d = odd_split_density([DyadicBall("")], 4)
    expect(d == Fraction(1, 3), f"density {d}")
    hit, total = brute_dyadic_pair_count([""], 4)
    expect((hit, total) == (80, 240), f"brute {hit}/{total}")
    counts = level_pair_counts([DyadicBall("")], 4)
    expect(counts == [128, 64, 32, 16], f"level counts {counts}")
    return "80/240 = 1/3 exactly; split-level counts 128/64/32/16"


@check("dyadic.density.L5-prefix1")
def _dyadic_l5():
    ball = DyadicBall("0")
    d = odd_split_density([ball], 5)
    expect(d == Fraction(2, 3), f"density {d}")
    hit, total = brute_dyadic_pair_count([ball.prefix], 5)
    expect(Fraction(hit, total) == d, "brute disagrees")
    return "single ball of prefix length 1 at L=5: exactly 2/3"


@check("dyadic.report.parity-law")
def _dyadic_report():
    r4 = ball_parity_report(4)
    expect(r4[0]["density"] == Fraction(1, 3), f"L=4 l=0: {r4[0]}")
    r5 = ball_parity_report(5)
    expect(r5[1]["density"] == Fraction(2, 3), f"L=5 l=1: {r5[1]}")
    for rows in (r4, r5):
        expect(all(row["ok"] for row in rows), "a row violates the parity law")
    return "every row matches the 1/3-2/3 law within the truncation bound"


@check("dyadic.anti-homogeneity")
def _dyadic_antihomog():
    a = [DyadicBall("0"), DyadicBall("1")]
    rep6 = anti_homogeneity_bound_check(a, a[0], 6)
    hit, _ = brute_dyadic_pair_count([x.prefix for x in a], 6)
    expect(rep6.verdict, "L=6 bound fails")
    expect(rep6.pair_mass == Fraction(hit, 4 ** 6), "pair mass vs oracle")
    rep8 = anti_homogeneity_bound_check(a, a[0], 8)
    expect(rep8.gamma == Fraction(1, 2), f"gamma {rep8.gamma}")
    want = 1 - Fraction(1, 12) + rep8.slack
    expect(rep8.bound == want * rep8.mu_union ** 2, "bound shape")
    expect(rep8.verdict, "L=8 bound fails")
    return f"pair mass {rep8.pair_mass} <= (1 - 1/12 + {rep8.slack}) at gamma=1/2"


@check("convexity.density.small")
def _convexity_small():
    expect(convexity_density(3, IntegerInterval(1, 3)) == 1, "C={1,2,3} != 1")
    d4 = convexity_density(4, IntegerInterval(1, 4))
    expect(d4 == Fraction(3, 4), f"C={{1..4}}: {d4}")
    edges, total = brute_convexity_edges(range(1, 5))
    expect((edges, total) == (3, 4), f"brute {edges}/{total}")
    return "single triple gives 1; {1..4} gives 3/4 with (1,3,4) the non-edge"


@check("convexity.density.formula")
def _convexity_formula():
    for n in range(3, 41):
        pts = range(1, n + 1)
        edges, total = brute_convexity_edges(pts)
        want = Fraction(1, 2) + Fraction(ap_count(n), 2 * comb(n, 3))
        expect(Fraction(edges, total) == want, f"n={n}")
        expect(brute_ap_count(pts) == ap_count(n), f"AP count at n={n}")
    return "density = 1/2 + AP(n)/(2 C(n,3)) for all n <= 40, AP(n) = floor((n-1)^2/4)"


@check("convexity.involution")
def _convexity_involution():
    expect(reflection_involution_check(IntegerInterval(1, 4)), "{1..4}")
    expect(reflection_involution_check(IntegerInterval(5, 10)), "{5..10}")
    return "reflection swaps the off-balance triples, fixing the balanced ones"


@check("search.ball-family.L6")
def _search_balls():
    rep = ball_family_search(6, Fraction(6, 25))
    expect(not rep.found, "a single ball should never be near-homogeneous")
    lo, hi = Fraction(1, 4), Fraction(3, 4)
    for row in ball_parity_report(6):
        if row["co_depth"] >= 2:
            expect(lo < row["density"] < hi, f"row {row}")
    expect(rep.max_deviation >= Fraction(1, 3) - Fraction(1, 21),
           f"max deviation {rep.max_deviation}")
    return "best single-ball density stays in the 1/3-2/3 band, never past 3/4"


@check("search.two-cliques")
def _search_cliques():
    n = 16
    edges = frozenset((x, y) for x in range(n) for y in range(n)
                      if x != y and (x < 8) == (y < 8))
    H = Hypergraph((n, n), edges, True)
    res = definable_homogeneous_search(H, Measure.uniform(0, n), Fraction(1, 8), 2)
    expect(res.found and res.exhaustive, "no witness found")
    expect(res.density == 1, f"density {res.density}")
    expect(res.mass == Fraction(1, 2), f"mass {res.mass}")
    expect(set(res.vertices) in ({*range(8)}, {*range(8, 16)}),
           f"vertices {res.vertices}")
    return "one clique recovered at density exactly 1, mass 1/2"


@check("instances.half-graph-8.measured")
def _instance_half8():
    g = generate(GeneratorSpec("half-graph", (8, 8), 2))
    expect(g.measured["vc_dimension"]["value"] == 1, "vc != 1")
    expect(g.measured["ladder_index"]["value"] == 8, "ladder != 8")
    return "half-graph n=8: measured VC 1, ladder index 8"


@check("instances.staircase.20-edges")
def _instance_staircase():
    H = generate(GeneratorSpec("staircase", (4, 4, 4), 3)).hypergraph
    expect(len(H.edges) == 20, f"{len(H.edges)} edges")
    expect(all(x <= y <= z for (x, y, z) in H.edges), "non-monotone edge")
    return "staircase on 4^3 has exactly C(6,3) = 20 monotone triples"


@check("instances.roundtrip")
def _instance_roundtrip():
    empty = Hypergraph((3, 3), frozenset())
    expect(Hypergraph.from_obj(empty.to_obj()) == empty, "empty roundtrip")
    h4 = half_graph(4)
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "h4.json")
        dump_json(h4.to_obj(), p)
        back = roundtrip(p)
        expect(back == h4, "half-graph 4x4 roundtrip")
        expect(canonical_dumps(back.to_obj()) == canonical_dumps(h4.to_obj()),
               "serialization not bit-identical")
        big = generate(GeneratorSpec("random-vc-capped", (128, 160), 2, seed=7))
        expect(len(big.hypergraph.edges) >= 9000, "instance too small")
        p2 = os.path.join(td, "big.json")
        dump_json(big.to_obj(), p2)
        expect(roundtrip(p2) == big.hypergraph, "large-instance roundtrip")
    return "empty, half-graph, and a 10^4-edge instance all roundtrip bit-identically"


@dataclass
class SelfTestReport:
    ok: bool
    passed: int
    failed: int
    results: list

    def to_obj(self) -> dict:
        return {"ok": self.ok, "passed": self.passed, "failed": self.failed,
                "results": self.results}


def run_selftest(names: list[str] | None = None) -> SelfTestReport:
    results = []
    passed = failed = 0
    for name, fn in CHECKS:
        if names and not any(s in name for s in names):
            continue
        try:
            detail = fn()
            results.append({"name": name, "ok": True, "detail": detail})
            passed += 1
        except Exception as exc:  # noqa: BLE001 - report every failure kind
            results.append({"name": name, "ok": False, "detail": repr(exc)})
            failed += 1
    return SelfTestReport(failed == 0 and passed > 0, passed, failed, results)
