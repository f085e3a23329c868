"""Seeded generators: reproducibility, measured invariants, file roundtrips."""

import pytest

from vcreg import GeneratorSpec, Hypergraph, InputError, dyadic_hypergraph, generate
from vcreg.cli import _load_instance
from vcreg.instances import half_graph
from vcreg.jsonio import canonical_dumps, dump_json
from vcreg.oracles import edge_set


def test_spec_validation():
    with pytest.raises(InputError):
        GeneratorSpec("moebius", (4, 4), 2)
    with pytest.raises(InputError):
        GeneratorSpec("half-graph", (4, 4), 3)
    with pytest.raises(InputError):
        GeneratorSpec("half-graph", (0, 4), 2)


def test_spec_roundtrip():
    spec = GeneratorSpec("block-union", (12, 12), 2, seed=3,
                         params=(("blocks", 3),))
    assert spec.to_obj() == {"kind": "block-union", "sizes": [12, 12], "k": 2,
                             "seed": 3, "params": {"blocks": 3}}


def test_same_seed_same_instance():
    a = generate(GeneratorSpec("random-vc-capped", (10, 10), 2, seed=4))
    b = generate(GeneratorSpec("random-vc-capped", (10, 10), 2, seed=4))
    assert a.hypergraph == b.hypergraph
    c = generate(GeneratorSpec("random-vc-capped", (10, 10), 2, seed=5))
    assert c.hypergraph != a.hypergraph


def test_half_graph_measured():
    g = generate(GeneratorSpec("half-graph", (8, 8), 2))
    assert g.measured["vc_dimension"]["value"] == 1
    assert g.measured["ladder_index"]["value"] == 8


def test_block_union_is_one_stable():
    g = generate(GeneratorSpec("block-union", (12, 12), 2, seed=0,
                               params=(("blocks", 3),)))
    li = g.measured["ladder_index"]
    assert li["value"] == 1 and not li["capped"]


def test_interval_graph_measured_dimension():
    for seed in (0, 1, 2):
        g = generate(GeneratorSpec("interval-graph", (8, 10), 2, seed=seed))
        assert g.measured["vc_dimension"]["value"] == 2


def test_staircase_edge_count():
    H = generate(GeneratorSpec("staircase", (4, 4, 4), 3)).hypergraph
    assert len(edge_set(H)) == 20
    assert all(x <= y <= z for (x, y, z) in edge_set(H))


def test_dyadic_export_matches_module():
    g = generate(GeneratorSpec("dyadic-export", (8, 8), 2,
                               params=(("depth", 3),)))
    assert g.hypergraph == dyadic_hypergraph(3)


def test_dyadic_export_size_check():
    with pytest.raises(InputError):
        generate(GeneratorSpec("dyadic-export", (8, 16), 2,
                               params=(("depth", 3),)))


@pytest.mark.parametrize("kind", ["interval-graph", "half-graph", "random-vc-capped"])
def test_binary_generators_refuse_other_arities(kind):
    for sizes in ((8,), (8, 8, 8)):
        with pytest.raises(InputError, match="binary generator"):
            generate(GeneratorSpec(kind, sizes, len(sizes)))


def test_file_roundtrip_bit_identical(tmp_path):
    big = GeneratorSpec("random-vc-capped", (128, 160), 2, seed=7)
    for spec in (GeneratorSpec("interval-graph", (6, 8), 2, seed=9), big):
        g = generate(spec)
        p = str(tmp_path / "inst.json")
        dump_json(g.to_obj(), p)
        back = _load_instance(p, {})[0]
        assert back == g.hypergraph
        assert canonical_dumps(back.to_obj()) == canonical_dumps(g.hypergraph.to_obj())
    assert len(edge_set(g.hypergraph)) >= 9000


def test_bare_hypergraph_roundtrip(tmp_path):
    for H in (Hypergraph((3, 3), frozenset({(0, 1), (2, 2)})),
              Hypergraph((3, 3), frozenset()), half_graph(4)):
        p = str(tmp_path / "bare.json")
        dump_json(H.to_obj(), p)
        back = _load_instance(p, {})[0]
        assert back == H
        assert canonical_dumps(back.to_obj()) == canonical_dumps(H.to_obj())
