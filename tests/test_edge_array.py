"""The instance route's edge-list decoder against json.loads: equal
Hypergraphs and measures, or the same InputError, for every drawn file."""

import contextlib
import json
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import vcreg
from vcreg import cli, jsonio
from vcreg.errors import InputError

# per-part common denominators of the three arithmetic regimes, and none: uniform
_DEN_RANGES = {"float64": (1, 2 ** 53 - 1), "int64": (2 ** 53, 2 ** 62 - 1),
               "bigint": (2 ** 62, 2 ** 100), "uniform": None}
_LAYOUTS = [{"separators": (",", ":")}, {"indent": 1}, {"indent": "\t"},
            {"indent": " \r"}, {"separators": (" ,\n", " :\t")}]
# what a vertex is swapped for: refused by json.loads, or read by it as a
# number, a bool, null, a string or a list; none of them is the decoder's
_VERTICES = ["-0", "01", "007", "1" * 19, str(2 ** 63), "1.0", "1e2", "true", "null",
             '"3"', "[1]"]
_BAD_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]
# corruptions after which the decoder must hand the whole document to json.loads
_DECLINED = {"vertex", "trailing comma", "outer trailing comma", "escaped key",
             "second key", "string value", "moved", "utf8"}
_HOLE = '"@hole"'


@st.composite
def instance_files(draw):
    """(file bytes, corruption or None, whether the edge list is nonempty)."""
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 120), min_size=k, max_size=k))
    edges = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in sizes)).map(list),
                          max_size=10))
    rng = draw(st.randoms(use_true_random=False))
    if edges and draw(st.booleans()):   # duplicates, in any order
        edges += [list(e) for e in rng.choices(edges, k=rng.randint(1, len(edges)))]
        rng.shuffle(edges)
    if edges and draw(st.integers(0, 5)) == 0:   # a vertex out of its part
        rng.choice(edges)[rng.randrange(k)] = draw(st.integers(0, 10 ** 18 - 1))
    hg = {"k": k, "part_sizes": sizes, "edges": edges, "symmetric": draw(st.booleans())}
    doc = {"hypergraph": hg} if draw(st.booleans()) else hg
    bounds = _DEN_RANGES[draw(st.sampled_from(sorted(_DEN_RANGES)))]
    if bounds is not None:
        doc["measures"] = []
        for part, n in enumerate(sizes):
            den = rng.randint(*bounds)
            cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
            doc["measures"].append({"part": part, "weights": [
                f"{b - a}/{den}" for a, b in zip([0, *cuts], [*cuts, den])]})
    corruption = draw(st.sampled_from([None, None, None, "vertex", "arity", "trailing comma",
                                       "outer trailing comma", "escaped key", "second key",
                                       "string value", "moved", "utf8"]))
    if corruption in ("vertex", "arity", "trailing comma", "outer trailing comma", "moved") \
            and not edges:
        edges.append([0] * k)
    edge = rng.choice(edges) if edges else None
    if corruption == "vertex":
        edge[rng.randrange(k)] = "@hole"
    elif corruption == "arity":
        edge.append(0) if len(edge) == 1 or rng.random() < 0.5 else edge.pop()
    elif corruption == "trailing comma":
        edge.append("@hole")
    elif corruption == "outer trailing comma":
        edges.append("@hole")
    elif corruption == "string value":
        doc["note"] = "edges"
    elif corruption == "moved":   # the one "edges" key, but not the hypergraph's
        hg["edge_list"] = hg.pop("edges")
        doc["spec"] = {"edges": hg["edge_list"]}
    text = json.dumps(doc, sort_keys=draw(st.booleans()), **draw(st.sampled_from(_LAYOUTS)))
    if corruption == "vertex":
        text = text.replace(_HOLE, draw(st.sampled_from(_VERTICES)))
    elif corruption in ("trailing comma", "outer trailing comma"):
        text = text.replace(_HOLE, "")
    elif corruption == "escaped key":
        text = text.replace('"edges"', '"\\u0065dges"', 1)
    elif corruption == "second key":
        extra = json.dumps(draw(st.sampled_from([[[0] * k], [], "edges", [[1, 0]]])))
        text = f'{{"edges": {extra}, {text[1:]}' if draw(st.booleans()) \
            else f'{text[:-1]}, "edges": {extra}}}'
    raw = text.encode("utf-8")
    if corruption == "utf8":
        at = rng.randrange(len(raw) + 1)
        raw = raw[:at] + draw(st.sampled_from(_BAD_UTF8)) + raw[at:]
    return raw, corruption, bool(edges)


def _load(path, decline):
    """What cli._load_instance gives on a fresh memo: (Hypergraph, measure
    numerators, files) or ("InputError", message, files)."""
    vcreg.reset()
    files = {}
    with mock.patch.object(jsonio, "_edge_array", lambda raw: None) if decline \
            else contextlib.nullcontext():
        try:
            H, measures = cli._load_instance(path, files)
        except InputError as exc:
            return "InputError", str(exc), files
    return H, [m.numerators() for m in measures], files


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=instance_files())
def test_the_edge_array_route_loads_what_json_loads_loads(tmp_path_factory, drawn):
    raw, corruption, nonempty = drawn
    path = str(tmp_path_factory.mktemp("inst") / "h.json")
    with open(path, "wb") as fh:
        fh.write(raw)
    assert _load(path, decline=False) == _load(path, decline=True)
    taken = jsonio._instance_tree(raw) is not None
    if corruption is None:
        assert taken == nonempty
    elif corruption in _DECLINED:
        assert not taken


def test_the_edge_array_route_reads_the_benchmark_layout():
    rng = random.Random(5)
    edges = sorted({(rng.randrange(300), rng.randrange(1000)) for _ in range(400)})
    raw = json.dumps({"hypergraph": {"k": 2, "part_sizes": [300, 1000],
                                     "edges": [list(e) for e in edges], "symmetric": False}},
                     separators=(",", ":")).encode()
    tree = jsonio._instance_tree(raw)
    assert tree["hypergraph"]["edges"].dtype == "int64"
    assert tree["hypergraph"]["edges"].tolist() == [list(e) for e in edges]
    assert tree == {"hypergraph": {"k": 2, "part_sizes": [300, 1000], "symmetric": False,
                                   "edges": tree["hypergraph"]["edges"]}}
