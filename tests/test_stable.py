"""Ladders, goodness, descent partitions, and the Sigma-free pipeline."""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from vcreg import (Box, Hypergraph, Measure, RefinementFailed, density,
                   fiber_family, good_descent_partition, ladder_index,
                   stable_regular_partition, uniform_measures, vc_dimension)
from vcreg.cli import main
from vcreg.oracles import brute_ladder_check, brute_ladder_index, brute_witness, edge_set
from vcreg.instances import GeneratorSpec, block_pair_graph, generate, half_graph


def _labels(sp):
    """A partition's labels as a dict of class-index tuples, as its file has them."""
    return dict((tuple(k), v) for k, v in sp.to_obj()["labels"])


def test_ladder_frozen_values():
    assert ladder_index(Hypergraph((4, 4), frozenset()), (0,)).length == 0
    full = Hypergraph((4, 4), frozenset((i, j) for i in range(4)
                                        for j in range(4)))
    assert ladder_index(full, (0,)).length == 1
    cert = ladder_index(half_graph(8), (0,), cap=10)
    assert cert.length == 8 and not cert.capped


def test_ladder_certificate_verifies():
    cert = ladder_index(half_graph(6), (0,), cap=10)
    assert cert.verify(half_graph(6))
    assert brute_ladder_check(half_graph(6), (0,), cert.left, cert.right)


def test_ladder_cap_reported():
    cert = ladder_index(half_graph(8), (0,), cap=3)
    assert cert.length == 3 and cert.capped
    assert cert.display() == ">=3"


def _random_relation(rng: random.Random) -> Hypergraph:
    """A random relation with k <= 3: independent cells at a random density,
    or a block union with a few cells flipped (few distinct fibers)."""
    k = rng.randint(1, 3)
    sizes = tuple(rng.randint(1, (12, 10, 5)[k - 1]) for _ in range(k))
    cells = list(itertools.product(*map(range, sizes)))
    if rng.random() < 0.5:
        p = rng.random()
        edges = {t for t in cells if rng.random() < p}
    else:
        blocks = rng.randint(1, 4)
        label = [[rng.randrange(blocks) for _ in range(n)] for n in sizes]
        edges = {t for t in cells if len({label[i][v] for i, v in enumerate(t)}) == 1}
        edges ^= set(rng.sample(cells, min(len(cells), rng.randint(0, 3))))
    return Hypergraph(sizes, frozenset(edges))


def _nodes_needed(H: Hypergraph, parts, cap: int) -> int:
    """Nodes the plain search visits: the least budget it does not exhaust."""
    def done(budget):
        return not brute_ladder_index(H, parts, cap, budget).budget_exhausted
    if done(0):
        return 0
    lo, hi = 0, 1       # not done(lo); done(hi) once the doubling stops
    while not done(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if done(mid) else (mid, hi)
    return hi


def test_ladder_index_matches_brute_search():
    """Skipping the a's no remaining b contains keeps the node count, so
    every budget, one that trips included, gives the certificate of the
    plain search; budgets n - 1 and n show any change in the count n."""
    rng = random.Random(5)
    for _ in range(80):
        H = _random_relation(rng)
        for r in range(1, H.k + 1):
            for parts in itertools.combinations(range(H.k), r):
                for cap in range(1, 9):
                    n = _nodes_needed(H, parts, cap)
                    for budget in {None, 1, 3, 10, 50, 200, max(n - 1, 0), n}:
                        assert ladder_index(H, parts, cap, budget) == \
                            brute_ladder_index(H, parts, cap, budget), (H, parts, cap, budget)


def test_ladder_index_at_the_pipeline_budget():
    """Cap 8 and budget 100,000, as stable_regular_partition asks: the budget
    trips on a 64x96 interval graph. On a 16-block union each of the 461
    nodes is a leaf that extends nothing (d-hat is 1), counted whole or cut
    off by a budget of 300."""
    H = generate(GeneratorSpec("interval-graph", (64, 96), 2, 0)).hypergraph
    cert = ladder_index(H, (0,), 8, 100_000)
    assert cert.budget_exhausted
    assert cert == brute_ladder_index(H, (0,), 8, 100_000)
    B = generate(GeneratorSpec("block-union", (96, 96), 2, 0, (("blocks", 16),))).hypergraph
    for budget, tripped in ((100_000, False), (300, True)):
        cert = ladder_index(B, (0,), 8, budget)
        assert cert.length == 1 and cert.budget_exhausted == tripped
        assert cert == brute_ladder_index(B, (0,), 8, budget)


def test_ladder_length_survives_relabelling():
    """Permuting the vertices within each part keeps the longest ladder, so
    where neither search runs out of budget the lengths agree. Certificates
    may differ: ties break by vertex order."""
    rng = random.Random(13)
    compared = 0
    for _ in range(60):
        H = _random_relation(rng)
        perm = [rng.sample(range(n), n) for n in H.part_sizes]
        P = Hypergraph(H.part_sizes, frozenset(tuple(p[v] for p, v in zip(perm, e))
                                              for e in edge_set(H)))
        for r in range(1, H.k + 1):
            for parts in itertools.combinations(range(H.k), r):
                for cap in (3, 8):
                    a, b = ladder_index(H, parts, cap, 2_000), ladder_index(P, parts, cap, 2_000)
                    if not (a.budget_exhausted or b.budget_exhausted):
                        assert a.length == b.length, (H, parts, cap)
                        compared += 1
    assert compared >= 200


def _good(H, mu, piece, eps):
    """No fiber over part 0 has density in [eps, 1 - eps] on the part-1 set
    `piece`, by plain sums of the part-1 weights."""
    w, edges = mu[1].weights, edge_set(H)
    hits = [sum(w[a] for a in piece if (b, a) in edges) for b in range(H.part_sizes[0])]
    return brute_witness(hits, sum(w[a] for a in piece), eps) is None


def test_descent_pieces_are_good():
    H = block_pair_graph(12, 3)
    mu = uniform_measures(H)
    eps = Fraction(1, 8)
    gd = good_descent_partition(H, mu, 1, eps)
    lab = [v * 3 // 12 for v in range(12)]
    for piece in gd.pieces:
        assert len({lab[v] for v in piece}) == 1
        assert _good(H, mu, piece, eps)


def test_descent_piece_count_bound():
    H = half_graph(8)
    mu = uniform_measures(H)
    eps = Fraction(1, 4)
    gd = good_descent_partition(H, mu, 1, eps, depth_cap=8)
    d = vc_dimension(fiber_family(H, (1,))).value
    assert len(gd.pieces) <= (Fraction(1) / eps) ** (d + 1)
    for piece in gd.pieces:
        assert _good(H, mu, piece, eps)


def test_stable_partition_four_blocks():
    H = block_pair_graph(16, 4)
    mu = uniform_measures(H)
    sp = stable_regular_partition(H, mu, Fraction(1, 8))
    assert len(sp.sigma) == 0
    lab = [v * 4 // 16 for v in range(16)]
    for part in sp.classes:
        for cls in part:
            assert len({lab[v] for v in cls}) == 1
    for key in _labels(sp):
        sides = [sp.classes[i][key[i]] for i in range(2)]
        assert density(H, mu, Box.of(sides)) in (Fraction(0), Fraction(1))


def test_stable_partition_threeway_equivalence():
    n = 8
    half = [v // 4 for v in range(n)]
    edges = frozenset((x, y, z) for x in range(n) for y in range(n)
                      for z in range(n) if half[x] == half[y] == half[z])
    H = Hypergraph((n, n, n), edges, True)
    mu = uniform_measures(H)
    sp = stable_regular_partition(H, mu, Fraction(1, 8))
    assert sp.class_counts() == (2, 2, 2)
    assert len(sp.sigma) == 0
    assert len(_labels(sp)) == 8
    for key in _labels(sp):
        sides = [sp.classes[i][key[i]] for i in range(3)]
        assert density(H, mu, Box.of(sides)) in (Fraction(0), Fraction(1))


def test_inhomogeneous_descent_box_raises(monkeypatch, tmp_path):
    """One-piece stand-in descents on the 8+4 block graph, vertices 3 and 9
    of part 0 weightless: the one box mixes both blocks, so the engine
    raises with that box and the CLI exits 1 naming it."""
    import vcreg.stable
    block = [0] * 8 + [1] * 4
    H = Hypergraph((12, 12), frozenset((a, b) for a in range(12) for b in range(12)
                                       if block[a] == block[b]))
    mu = (Measure(0, tuple(Fraction(0 if v in (3, 9) else 1, 10) for v in range(12))),
          Measure.uniform(1, 12))
    monkeypatch.setattr(vcreg.stable, "good_descent_partition",
                        lambda H, measures, part, eps, depth_cap: vcreg.stable.GoodDescent(
                            part, (tuple(range(12)),), eps, (0,), (), 1, "none"))
    with pytest.raises(RefinementFailed) as exc:
        stable_regular_partition(H, mu, Fraction(1, 8))
    assert exc.value.box == (0, 0)

    inst = tmp_path / "blocks.json"
    inst.write_text(json.dumps({"hypergraph": H.to_obj(),
                                "measures": [m.to_obj() for m in mu]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["stable", "partition", "--in", str(inst), "--epsilon", "1/8"])
    rep = json.loads(out.getvalue())
    assert code == 1 and not rep["ok"]
    assert rep["error"]["kind"] == "verification" and rep["error"]["box"] == [0, 0]
