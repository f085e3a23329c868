"""A quick check that an installed copy of vcreg works.

The test suite does not ship with the package, so `vcreg selftest` runs one
named check per engine module: the engine on a worked example against a
brute-force oracle or a frozen value. The test suite is the full check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .convexity import ap_count
from .core import Hypergraph, Measure, binary_view, uniform_measures
from .dyadic import DyadicBall, level_pair_counts, odd_split_density
from .homog import definable_homogeneous_search
from .instances import GeneratorSpec, generate, half_graph, interval_family
from .oracles import (brute_ap_count, brute_convexity_edges,
                      brute_descent, brute_dyadic_pair_count, brute_fiber,
                      brute_ladder_index, brute_union_mass_error, brute_vc_dimension)
from .regularity import rectangular_approximation
from .stable import good_descent_partition, ladder_index
from .vc import vc_dimension

CHECKS: list[tuple[str, object]] = []


def check(name):
    def deco(fn):
        CHECKS.append((name, fn))
        return fn
    return deco


def expect(cond: bool, msg: str):
    if not cond:
        raise AssertionError(msg)


@check("core.fiber.half-graph-4x4")
def _fiber_example():
    H = half_graph(4)
    f = frozenset((int(a),) for a in binary_view(H, (0,)).fibers[2].nonzero()[0])
    expect(f == frozenset({(0,), (1,), (2,)}), f"fiber {f}")
    expect(brute_fiber(H, (0,), (2,)) == f, "oracle disagrees")
    return "R_(b=2) over part 0 = {0,1,2}"


@check("vc.dimension.intervals-6")
def _vc_intervals():
    F = interval_family(6)
    d = vc_dimension(F)
    expect(d.value == 2 and not d.capped, f"vc {d}")
    expect(brute_vc_dimension(F.members, 6) == 2, "oracle disagrees")
    return "interval traces on 6 points have VC dimension 2"


@check("regularity.rect.staircase-4^3")
def _rect_staircase():
    H = generate(GeneratorSpec("staircase", (4, 4, 4), 3)).hypergraph
    mu = uniform_measures(H)
    ra = rectangular_approximation(H, mu, Fraction(1, 2))
    brute = brute_union_mass_error(H, mu, ra.boxes)
    expect(ra.error < Fraction(1, 2) and brute == ra.error,
           f"stored {ra.error}, brute {brute}")
    return f"error {ra.error} < 1/2, brute recount agrees on all 64 triples"


@check("stable.ladder-descent.half-graph-8")
def _ladder_descent_half8():
    H = half_graph(8)
    cert = ladder_index(H, (0,), cap=10)
    expect(cert.length == 8 and not cert.capped, f"ladder {cert.display()}")
    expect(brute_ladder_index(H, (0,), cap=10) == cert, "oracle disagrees")
    # the search visits 120 nodes; one fewer trips the budget in a step that
    # counts a block of pruned leaves at once
    short = ladder_index(H, (0,), cap=10, budget=119)
    expect(short.budget_exhausted and short.display() == ">=8", f"ladder {short.display()}")
    expect(brute_ladder_index(H, (0,), cap=10, budget=119) == short,
           "oracle disagrees at budget 119")
    mu = (Measure(0, tuple(Fraction(v, 28) for v in range(8))), Measure.uniform(1, 8))
    gd = good_descent_partition(H, mu, 0, Fraction(1, 4))
    expect(gd.depths == (3, 2, 2, 3, 2, 1, 0), f"descent depths {gd.depths}")
    expect(brute_descent(H, mu, 0, Fraction(1, 4)) == gd, "descent oracle disagrees")
    return "ladder index 8 (exact), >=8 at budget 119; ladder and weighted descent match oracles"


@check("dyadic.density.L4")
def _dyadic_l4():
    d = odd_split_density([DyadicBall("")], 4)
    expect(d == Fraction(1, 3), f"density {d}")
    hit, total = brute_dyadic_pair_count([""], 4)
    expect((hit, total) == (80, 240), f"brute {hit}/{total}")
    counts = level_pair_counts([DyadicBall("")], 4)
    expect(counts == [128, 64, 32, 16], f"level counts {counts}")
    return "80/240 = 1/3 exactly; split-level counts 128/64/32/16"


@check("convexity.density.formula")
def _convexity_formula():
    for n in range(3, 41):
        pts = range(1, n + 1)
        edges, total = brute_convexity_edges(pts)
        want = Fraction(1, 2) + Fraction(ap_count(n), 2 * comb(n, 3))
        expect(Fraction(edges, total) == want, f"n={n}")
        expect(brute_ap_count(pts) == ap_count(n), f"AP count at n={n}")
    return "density = 1/2 + AP(n)/(2 C(n,3)) for all n <= 40, AP(n) = floor((n-1)^2/4)"


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


@dataclass
class SelfTestReport:
    ok: bool
    passed: int
    failed: int
    results: list


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
