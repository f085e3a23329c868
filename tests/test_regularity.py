"""Delta approximations, box unions, 0-1 partitions, and the dense box."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_cli import report, run
from test_kernel_oracle import _instance
from test_net_oracle import P_BIG, P_INT64, REGIMES, _regime, _weights
from vcreg import regularity
from vcreg import (Box, Hypergraph, InputError, Measure, RegularPartition,
                   delta_approx_partition, density, find_dense_box,
                   rectangular_approximation, regular_partition,
                   uniform_measures, verify_regular_partition)
from vcreg.oracles import (brute_boxes_membership, brute_fiber, brute_set_mass,
                           brute_union_mass_error, edge_set)
from vcreg.instances import (GeneratorSpec, block_pair_graph, generate, half_graph,
                             same_block_equivalence)
from vcreg.jsonio import canonical_dumps, format_rational


def _labels(rp):
    """A partition's labels as a dict of class-index tuples, as its file has them."""
    return dict((tuple(k), v) for k, v in rp.to_obj()["labels"])


def test_delta_partition_pairwise_distance():
    H = half_graph(4)
    mu = uniform_measures(H)
    eps = Fraction(3, 10)
    dp = delta_approx_partition(H, mu, eps, (0,))
    assert dp.max_pair_distance is not None and dp.max_pair_distance < eps
    w0 = mu[0]
    for cls in dp.classes:
        for b in cls:
            for c in cls:
                fb = {t[0] for t in brute_fiber(H, (0,), b)}
                fc = {t[0] for t in brute_fiber(H, (0,), c)}
                assert w0.mass(fb ^ fc) < eps


def test_class_distance_check_catches_a_wrong_gram_matrix(monkeypatch):
    """The class check computes each class's fiber distances itself, from the
    class's fibers and their complements, so a Gram matrix of zeros (no heavy
    pair, one class) fails the partition built on it."""
    from vcreg.errors import VerificationError
    monkeypatch.setattr(regularity, "weighted_inner",
                        lambda a, b, nums, den: np.zeros((len(a), len(b))))
    H = half_graph(24)
    with pytest.raises(VerificationError) as exc:
        regular_partition(H, uniform_measures(H), Fraction(1, 4))
    assert str(exc.value) == "class fiber distance 23/24 is not below eps=1/4"


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(2)])
def test_delta_partition_and_rect_refuse_eps_outside_zero_one(eps):
    H = half_graph(6)
    mu = uniform_measures(H)
    with pytest.raises(InputError, match=r"eps must be in \(0, 1\]"):
        delta_approx_partition(H, mu, eps, (0,))
    with pytest.raises(InputError, match=r"eps must be in \(0, 1\]"):
        rectangular_approximation(H, mu, eps)


def _random_graph(seed, n0, n1):
    rng = random.Random(seed)
    edges = frozenset((i, j) for i in range(n0) for j in range(n1)
                      if rng.getrandbits(1))
    return Hypergraph((n0, n1), edges)


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 10)])
def test_rect_error_equals_brute_on_half_graph(eps):
    H = half_graph(4)
    mu = uniform_measures(H)
    ra = rectangular_approximation(H, mu, eps)
    assert ra.error < eps
    assert brute_union_mass_error(H, mu, ra.boxes) == ra.error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n0=st.integers(2, 6), n1=st.integers(2, 6))
def test_rect_error_equals_brute_on_random_graphs(seed, n0, n1):
    H = _random_graph(seed, n0, n1)
    mu = uniform_measures(H)
    ra = rectangular_approximation(H, mu, Fraction(1, 3))
    assert ra.error < Fraction(1, 3)
    assert brute_union_mass_error(H, mu, ra.boxes) == ra.error


def test_rect_threeway_against_brute():
    rng = random.Random(5)
    edges = frozenset((x, y, z) for x in range(4) for y in range(4)
                      for z in range(4) if rng.getrandbits(1))
    H = Hypergraph((4, 4, 4), edges)
    mu = uniform_measures(H)
    ra = rectangular_approximation(H, mu, Fraction(1, 2))
    assert ra.error < Fraction(1, 2)
    assert brute_union_mass_error(H, mu, ra.boxes) == ra.error
    assert ra.levels  # the per-level bound table is filled in


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_union_mass_error_matches_per_cell_enumeration(k, regime, seed, data):
    # sides may be empty, repeat a vertex or hold one out of range (-1 or n)
    H, measures = _instance(random.Random(seed), regime, k)
    assert _regime(math.prod(m.numerators()[1] for m in measures)) == regime
    box = st.tuples(*[st.lists(st.integers(-1, n), max_size=5).map(tuple)
                      for n in H.part_sizes]).map(Box)
    boxes = data.draw(st.lists(box, max_size=4))
    edges = edge_set(H)
    wrong = [t for t in itertools.product(*map(range, H.part_sizes))
             if (t in edges) != brute_boxes_membership(boxes, t)]
    assert brute_union_mass_error(H, measures, boxes) == brute_set_mass(H, measures, wrong)


def test_regular_partition_blocks_is_exact():
    H = block_pair_graph(8, 2)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 10))
    rep = verify_regular_partition(H, mu, rp)
    assert rep["ok"], rep["violations"]
    assert len(rp.sigma) == 0
    assert all(len({v * 2 // 8 for v in c}) == 1 for part in rp.classes for c in part)
    for key in _labels(rp):
        sides = [rp.classes[i][key[i]] for i in range(2)]
        assert density(H, mu, Box.of(sides)) in (Fraction(0), Fraction(1))


def test_regular_partition_half16_verifies():
    H = half_graph(16)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 4))
    rep = verify_regular_partition(H, mu, rp)
    assert rep["ok"], rep["violations"]
    assert Fraction(*map(int, rep["sigma_mass"].split("/"))) <= Fraction(1, 4)


def test_partition_survives_json_roundtrip():
    # the verifier must accept its own serialized output
    H = half_graph(16)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 4))
    back = RegularPartition.from_obj(json.loads(json.dumps(rp.to_obj())))
    assert back.classes == rp.classes
    assert back.provenance == rp.provenance
    assert _labels(back) == _labels(rp)
    assert verify_regular_partition(H, mu, back)["ok"]


def test_repeated_partition_entries_are_counted_once():
    # eps = 1/2 leaves a box in Sigma; listing every Sigma box twice and one
    # label twice must not change the verdict or the Sigma mass
    H = half_graph(16)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 2))
    obj = json.loads(json.dumps(rp.to_obj()))
    assert obj["sigma"]
    twice = {**obj, "sigma": obj["sigma"] * 2, "labels": obj["labels"] + obj["labels"][:1]}
    want = verify_regular_partition(H, mu, RegularPartition.from_obj(obj))
    assert want["ok"] and Fraction(want["sigma_mass"]) > 0
    for again in (RegularPartition.from_obj(twice),
                  dataclasses.replace(rp, sigma=np.repeat(rp.sigma, 2))):
        got = verify_regular_partition(H, mu, again)
        assert (got["ok"], got["sigma_mass"]) == (want["ok"], want["sigma_mass"])


def test_verifier_refuses_arrays_that_do_not_fit_the_boxes():
    H = half_graph(8)
    mu = uniform_measures(H)
    rp = regular_partition(H, mu, Fraction(1, 4))
    with pytest.raises(InputError, match="63 labels for 64 boxes"):
        verify_regular_partition(H, mu, dataclasses.replace(rp, labels=rp.labels[:-1]))
    for sigma in ([-1], [64]):
        with pytest.raises(InputError, match="Sigma index names no box"):
            verify_regular_partition(H, mu, dataclasses.replace(rp, sigma=np.array(sigma)))


def test_uniform_partition_shares_classes_across_parts():
    H = same_block_equivalence(12, 3)
    rp = regular_partition(H, uniform_measures(H), Fraction(1, 8), uniform=True)
    assert rp.classes[0] == rp.classes[1]
    rep = verify_regular_partition(H, uniform_measures(H), rp)
    assert rep["ok"], rep["violations"]
    assert len(rp.sigma) == 0
    assert all(len({v * 3 // 12 for v in c}) == 1 for c in rp.classes[0])
    # one more input: k = 3, the relation "all three in the same half of 8"
    H3 = Hypergraph((8, 8, 8), [t for t in itertools.product(range(8), repeat=3)
                                if len({v // 4 for v in t}) == 1], True)
    rp = regular_partition(H3, uniform_measures(H3), Fraction(1, 4), uniform=True)
    assert rp.classes[0] == rp.classes[1] == rp.classes[2]
    rep = verify_regular_partition(H3, uniform_measures(H3), rp)
    assert rep["ok"], rep["violations"]


def test_uniform_partition_refuses_unequal_weights():
    # with weight 0 on vertices 0-3 of part 1 only, the zero-weight class
    # would merge on part 1 alone, and the parts would not share classes
    H = same_block_equivalence(12, 3)
    part1 = Measure(1, (Fraction(0),) * 4 + (Fraction(1, 8),) * 8)
    with pytest.raises(InputError, match="same weights on every part"):
        regular_partition(H, (Measure.uniform(0, 12), part1), Fraction(1, 8), uniform=True)


def test_verifier_rejects_single_class_partition():
    H = half_graph(4)
    mu = uniform_measures(H)
    bad = RegularPartition(classes=(((0, 1, 2, 3),), ((0, 1, 2, 3),)),
                           epsilon=Fraction(1, 10), sigma=np.zeros(0, np.intp),
                           labels=np.full(1, -1, np.int8),
                           provenance=((), ()))
    rep = verify_regular_partition(H, mu, bad)
    assert not rep["ok"]
    v = next(v for v in rep["violations"] if v["kind"] == "box_not_01_dense")
    assert v["edge_mass"] == "5/8"


def test_verifier_rejects_non_partition():
    H = half_graph(4)
    mu = uniform_measures(H)
    bad = RegularPartition(classes=(((0, 1),), ((0, 1, 2, 3),)),
                           epsilon=Fraction(1, 2), sigma=np.zeros(0, np.intp),
                           labels=np.full(1, -1, np.int8),
                           provenance=((), ()))
    rep = verify_regular_partition(H, mu, bad)
    assert not rep["ok"]
    assert any(v["kind"] == "not_a_partition" for v in rep["violations"])


def test_verifier_rejects_undeclared_class():
    # classes must be unions of fingerprint atoms over the recorded params
    H = half_graph(4)
    mu = uniform_measures(H)
    bad = RegularPartition(
        classes=((tuple(range(4)),), ((0, 2), (1, 3))),
        epsilon=Fraction(1, 1), sigma=np.zeros(0, np.intp), labels=np.full(2, -1, np.int8),
        provenance=((), ((0,), (1,), (2,))))
    rep = verify_regular_partition(H, mu, bad)
    assert any(v["kind"] == "class_not_definable" for v in rep["violations"])


def test_regular_partition_eps_validation():
    H = half_graph(4)
    mu = uniform_measures(H)
    with pytest.raises(InputError):
        regular_partition(H, mu, Fraction(0))
    with pytest.raises(InputError):
        regular_partition(H, mu, 0.25)


def test_dense_box_on_two_blocks():
    H = block_pair_graph(8, 2)
    mu = uniform_measures(H)
    db = find_dense_box(H, mu, Fraction(2, 5), Fraction(1, 10))
    assert db.density == 1
    assert db.delta_guarantee > 0
    assert all(m >= db.delta_guarantee for m in db.side_masses)
    assert density(H, mu, db.box) == db.density
    assert all(len({v // 4 for v in s}) == 1 for s in db.box.sides)
    # one more input: on the half-graph the box is dense, not complete
    H = half_graph(16)
    mu = uniform_measures(H)
    db = find_dense_box(H, mu, Fraction(1, 2), Fraction(1, 4))
    assert db.density > Fraction(3, 4) and all(m > 0 for m in db.side_masses)
    assert density(H, mu, db.box) == db.density


def test_dense_box_premise_checked():
    H = Hypergraph((4, 4), frozenset({(0, 0)}))
    mu = uniform_measures(H)
    with pytest.raises(InputError):
        find_dense_box(H, mu, Fraction(1, 2), Fraction(1, 10))


# primes p with p^k in [2^53, 2^62) for k = 1, 2, 3 parts
_INT64_PRIMES = {1: P_INT64, 2: 2 ** 28 - 57, 3: 2 ** 19 - 1}


def _symmetric_instance(rng, regime):
    """A random symmetric relation on k <= 3 equal parts with zero weights and
    one measure on every part, whose product denominator lies in the regime."""
    k = rng.choice((1, 2, 3))
    n = rng.randint(2, 5)
    edges = {t for t in itertools.combinations_with_replacement(range(n), k)
             if rng.getrandbits(1)}
    H = Hypergraph((n,) * k, frozenset(p for t in edges for p in itertools.permutations(t)),
                   symmetric=True)
    den = {"float64": rng.randint(2, 40), "int64": _INT64_PRIMES[k], "bigint": P_BIG}[regime]
    w = _weights(rng, n, den)
    return H, tuple(Measure(i, w) for i in range(k))


@pytest.mark.parametrize("uniform", [False, True])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(REGIMES),
       # coarse eps leave boxes in Sigma; at 1/8 the three rect deltas differ
       eps=st.sampled_from((Fraction(1, 8), Fraction(1, 5), Fraction(1, 2), Fraction(3, 4),
                            Fraction(1))))
def test_regular_partition_labels_match_brute_approximation(uniform, seed, regime, eps):
    # every box's mass in the rect approximation A the builder kept, recounted
    # tuple by tuple
    rng = random.Random(seed)
    H, measures = (_symmetric_instance if uniform else _instance)(rng, regime)
    assert _regime(math.prod(m.numerators()[1] for m in measures)) == regime
    rp = regular_partition(H, measures, eps, uniform=uniform)
    boxes = rectangular_approximation(H, measures, rp.meta["rect_eps"]).boxes
    sigma = {tuple(key) for key in rp.to_obj()["sigma"]}
    labels = _labels(rp)
    edges = edge_set(H)
    for key in itertools.product(*map(range, rp.class_counts())):
        cell = list(itertools.product(*[rp.classes[i][c] for i, c in enumerate(key)]))
        t = brute_set_mass(H, measures, cell)
        if t == 0:
            assert key not in sigma and key not in labels
            continue
        in_a = {x for x in cell if brute_boxes_membership(boxes, x)}
        a = brute_set_mass(H, measures, in_a)
        sym = brute_set_mass(H, measures, [x for x in cell if (x in edges) != (x in in_a)])
        assert a in (0, t)
        if key in sigma:
            assert key not in labels and sym / t >= eps
        else:
            assert sym / t < eps
            assert labels[key] == (1 if 2 * a >= t else 0)


def _threshold_graph(n):
    """The symmetric relation i + j < n on n x n."""
    return Hypergraph((n, n), frozenset((i, j) for i in range(n) for j in range(n - i)),
                      symmetric=True)


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
def test_the_last_rect_rung_gives_the_eps_squared_partition(uniform, eps, monkeypatch,
                                                              write_json, tmp_path):
    # every rung coarser than eps^2 gets a boxless approximation: one class a
    # part, Sigma the whole mass, so each of them fails its Sigma check
    H = _threshold_graph(24) if uniform else half_graph(24)
    mu = uniform_measures(H)
    assert regularity._rect_ladder(eps)[-1] == eps * eps
    with monkeypatch.context() as m:
        m.setattr(regularity, "_rect_ladder", lambda e: [e * e])
        want = regular_partition(H, mu, eps, uniform=uniform)
    real = regularity.rectangular_approximation
    monkeypatch.setattr(regularity, "rectangular_approximation", lambda H, measures, delta: (
        real(H, measures, delta) if delta <= eps * eps
        else regularity.RectApprox((), ((),) * H.k, Fraction(0))))
    got = regular_partition(H, mu, eps, uniform=uniform)
    assert canonical_dumps(got.to_obj()) == canonical_dumps(want.to_obj())
    attempts = got.meta["rect_attempts"]
    assert [a["delta"] for a in attempts] == regularity._rect_ladder(eps)
    assert len(attempts) > 1 and all(a["sigma_mass"] > eps for a in attempts[:-1])
    assert attempts[-1] == {"delta": eps * eps, "rect_error": want.meta["rect_error"],
                            "sigma_mass": want.meta["sigma_mass"]}
    assert got.meta["rect_eps"] == eps * eps
    # reg verify accepts the fallback's report
    inst = write_json("inst.json", {"hypergraph": H.to_obj()})
    out = str(tmp_path / "part.json")
    argv = ["reg", "partition", "--in", inst, "--epsilon", format_rational(eps), "--out", out]
    assert run(argv + ["--uniform"] * uniform)[0] == 0
    with open(out) as f:
        assert json.load(f)["outputs"]["meta"]["rect_eps"] == format_rational(eps * eps)
    code, rep = report(["reg", "verify", "--in", inst, "--partition", out])
    assert code == 0 and rep["verification"]["ok"]


def test_a_rung_with_sigma_mass_exactly_eps_is_kept(monkeypatch):
    # the complete 4 x 1 relation, whose first rung (delta = eps = 1/4) is
    # given the one box {0, 1, 2} x {0}: vertex 3's box, of mass 1/4, is
    # outside it at density 1, so Sigma is that box and its mass is eps
    H, eps = Hypergraph((4, 1), frozenset((i, 0) for i in range(4))), Fraction(1, 4)
    mu = uniform_measures(H)
    real = regularity.rectangular_approximation
    monkeypatch.setattr(regularity, "rectangular_approximation", lambda H, measures, delta: (
        real(H, measures, delta) if delta < eps
        else regularity.RectApprox((Box(((0, 1, 2), (0,))),), ((), ()), Fraction(1, 4))))
    rp = regular_partition(H, mu, eps)
    assert [(a["delta"], a["sigma_mass"]) for a in rp.meta["rect_attempts"]] == [(eps, eps)]
    assert rp.meta["rect_eps"] == eps and rp.class_counts() == (2, 1)
    assert verify_regular_partition(H, mu, rp)["ok"]


@pytest.mark.parametrize("H", [generate(GeneratorSpec("block-union", (32, 32), 2, 0)).hypergraph,
                               half_graph(64)], ids=["block-union", "half-graph"])
def test_eh_box_guarantee_is_no_smaller_than_at_eps_squared(H, monkeypatch, write_json):
    inst = write_json("inst.json", {"hypergraph": H.to_obj()})
    argv = ["reg", "eh-box", "--in", inst, "--alpha", "1/4", "--epsilon", "1/4"]
    code, rep = report(argv)
    monkeypatch.setattr(regularity, "_rect_ladder", lambda e: [e * e])
    code_sq, rep_sq = report(argv)
    assert code == code_sq == 0
    got, want = (Fraction(r["outputs"]["delta_guarantee"]) for r in (rep, rep_sq))
    assert got >= want > 0


def _ref_int_lists(obj, depth, name):
    """The partition reader before it read a level at a time: one call per
    entry, building tuples."""
    if depth == 0:
        if type(obj) is not int:
            raise InputError(f"partition field {name!r} must hold integers")
        return obj
    if not isinstance(obj, list):
        raise InputError(f"partition field {name!r} must be nested lists")
    return tuple(_ref_int_lists(x, depth - 1, name) for x in obj)


def _ref_label_grid(labels, counts):
    grid = np.full(math.prod(counts), -1, np.int8)
    for key, label in labels.items():
        if len(key) != len(counts) or not all(0 <= c < n for c, n in zip(key, counts)):
            raise InputError(f"label or sigma entry {list(key)} names no box of "
                             f"class counts {counts}")
        grid[np.ravel_multi_index(key, counts)] = label
    return grid


def _ref_partition(obj):
    """What a partition file reads as, by dicts of key tuples."""
    if not (isinstance(obj, dict) and obj.get("classes") and "epsilon" in obj):
        raise InputError("partition JSON needs classes and epsilon")
    pairs = obj.get("labels", [])
    if not (isinstance(pairs, list) and all(isinstance(x, list) and len(x) == 2
                                            for x in pairs)):
        raise InputError("partition field 'labels' must be a list of [box, label] pairs")
    labels = {_ref_int_lists(k, 1, "labels"): _ref_int_lists(v, 0, "labels") for k, v in pairs}
    if not set(labels.values()) <= {0, 1}:
        raise InputError("partition labels must be 0 or 1")
    classes = _ref_int_lists(obj["classes"], 3, "classes")
    counts = [len(c) for c in classes]
    sigma = dict.fromkeys(_ref_int_lists(obj.get("sigma", []), 2, "sigma"), 1)
    sigma = np.flatnonzero(_ref_label_grid(sigma, counts) == 1)
    labels = _ref_label_grid(labels, counts)
    return (labels.tolist(), sigma.tolist(), classes,
            _ref_int_lists(obj.get("provenance", []), 3, "provenance"))


def _paths(obj, path=()):
    yield path
    if isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _paths(x, path + (i,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_partition_reader_matches_the_dict_reader(data):
    counts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    boxes = list(itertools.product(*map(range, counts)))
    ints = st.lists(st.integers(0, 9), max_size=3)
    obj = {"epsilon": "1/4",
           "classes": [data.draw(st.lists(ints, min_size=n, max_size=n)) for n in counts],
           "labels": [[list(b), data.draw(st.integers(0, 1))]
                      for b in data.draw(st.lists(st.sampled_from(boxes), unique=True))],
           "sigma": [list(b) for b in data.draw(st.lists(st.sampled_from(boxes), unique=True))],
           "provenance": [data.draw(st.lists(ints, max_size=2)) for _ in counts]}
    for i, label, before in data.draw(st.lists(st.tuples(
            st.integers(0, 99), st.sampled_from([0, 1, 2, True]), st.booleans()), max_size=2)):
        # a box labelled twice: the later label counts, a bad earlier one too
        if obj["labels"]:
            i %= len(obj["labels"])
            obj["labels"].insert(i + (not before), [list(obj["labels"][i][0]), label])
    for _ in range(data.draw(st.integers(0, 2))):
        # replace one node of one field: by a bool, a string, another int
        # (2, -1, past int64), a deeper or a shallower node, or the node and
        # a copy of it (a duplicate key or label pair)
        field = data.draw(st.sampled_from(["labels", "sigma", "classes", "provenance"]))
        *up, at = (field,) + data.draw(st.sampled_from(list(_paths(obj[field]))))
        parent = obj
        for i in up:
            parent = parent[i]
        old = parent[at]
        resized = [old[0], old[:-1], old + old[:1]] if isinstance(old, list) and old else []
        new = data.draw(st.sampled_from([True, False, "1", 2, -1, 2 ** 70, [old], "twice"]
                                        + resized))
        if new == "twice" and isinstance(parent, list):
            parent.insert(at, json.loads(json.dumps(old)))
        else:
            parent[at] = new
    obj = json.loads(json.dumps(obj))
    try:
        want = _ref_partition(obj)
    except InputError as exc:
        want = str(exc)
    try:
        rp = RegularPartition.from_obj(obj)
        got = rp.labels.tolist(), rp.sigma.tolist(), rp.classes, rp.provenance
    except InputError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("labels, message", [
    ([[[0, 0], True], [5, 1]], "partition field 'labels' must hold integers"),
    ([[5, 1], [[0, 0], True]], "partition field 'labels' must be nested lists"),
])
def test_partition_reader_names_the_first_bad_label_pair(labels, message):
    obj = {"epsilon": "1/4", "classes": [[[0]], [[0]]], "labels": labels}
    for read in (RegularPartition.from_obj, _ref_partition):
        with pytest.raises(InputError) as exc:
            read(obj)
        assert str(exc.value) == message
