"""Malformed instance files through every `--in` subcommand, and malformed
partition files through `reg verify --partition`: exit 0, 1 or 2, never 3,
and every exit 2 a JSON error of kind "input"."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from vcreg import cli
from vcreg.core import uniform_measures
from vcreg.instances import GeneratorSpec, block_pair_graph, generate


def _symmetric(H):
    return {"hypergraph": H.to_obj(), "measures": [m.to_obj() for m in uniform_measures(H)]}


# valid instances, the last one symmetric, which `rodl search` needs
BASES = [generate(GeneratorSpec("half-graph", (5, 5), 2)).to_obj(),
         generate(GeneratorSpec("block-union", (6, 4), 2, 1, (("blocks", 2),))).to_obj(),
         generate(GeneratorSpec("staircase", (3, 2, 3), 3)).to_obj(),
         _symmetric(block_pair_graph(6, 2, symmetric=True))]
# each subcommand that reads --in, with the flags it requires ("P" is a
# partition of the unmutated instance)
ARGVS = [["vc", "dim"], ["vc", "shatter", "--n", "1"], ["vc", "net", "--epsilon", "1/2"],
         ["reg", "partition", "--epsilon", "1/2"], ["reg", "verify", "--partition", "P"],
         ["reg", "rect", "--epsilon", "1/2"], ["reg", "eh-box", "--epsilon", "1/2", "--alpha", "1/4"],
         ["stable", "ladder"], ["stable", "partition", "--epsilon", "1/4"],
         ["rodl", "search", "--eps", "1/4", "--m", "1"]]
TARGETS = ["k", "part_sizes", "edges", "edge", "vertex", "measures", "measure", "weight",
           "whole"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
    | st.sampled_from([2 ** 63, -1 - 2 ** 63, 10 ** 30, "1/2", "0/1", "1/0", "edges", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["k", "part_sizes", "edges", "part", "weights", "x"]),
                      inner, max_size=3),
    max_leaves=8)
# half of the drawn values a small int, which often leaves a valid instance
values = st.integers(0, 6) | json_values


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _mutate(obj, target, value, i, j):
    """obj with one field, edge, vertex, measure or weight, or all of it,
    replaced by value; i and j pick the item (modulo its list's length)."""
    obj = copy.deepcopy(obj)
    hg, measures = obj["hypergraph"], obj["measures"]
    if target in ("k", "part_sizes", "edges"):
        hg[target] = value
    elif target == "edge":
        hg["edges"][i % len(hg["edges"])] = value
    elif target == "vertex":
        edge = hg["edges"][i % len(hg["edges"])]
        edge[j % len(edge)] = value
    elif target == "measures":
        obj["measures"] = value
    elif target == "measure":
        measures[i % len(measures)] = value
    elif target == "weight":
        weights = measures[i % len(measures)]["weights"]
        weights[j % len(weights)] = value
    else:
        return value
    return obj


@settings(max_examples=200, deadline=None, derandomize=True)
@given(base=st.sampled_from(range(len(BASES))), target=st.sampled_from(TARGETS),
       value=values, i=st.integers(0, 20), j=st.integers(0, 3),
       layout=st.sampled_from([{"separators": (",", ":")}, {"indent": 1}]))
def test_no_malformed_instance_ends_in_exit_3_or_a_traceback(tmp_path_factory, base, target,
                                                            value, i, j, layout):
    d = tmp_path_factory.mktemp("fuzz")
    inst, part = str(d / "h.json"), str(d / "p.json")
    obj = BASES[base]
    with open(inst, "w") as fh:
        json.dump(obj, fh)
    assert _main(["reg", "partition", "--in", inst, "--epsilon", "1/2", "--out", part])[0] == 0
    with open(inst, "w") as fh:
        json.dump(_mutate(obj, target, value, i, j), fh, **layout)
    for argv in ARGVS:
        argv = [a if a != "P" else part for a in argv] + ["--in", inst]
        code, out, err = _main(argv)
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, out, err)
        if code == 2:
            assert json.loads(out)["error"]["kind"] == "input", (argv, out)


def _replace_node(doc, steps, value):
    """doc with one node replaced by value: the walk from the root takes the
    child steps[0] (modulo the node's keys in sorted order, or its items),
    then steps[1], ..., and stops early at a scalar or an empty container."""
    if not steps or not isinstance(doc, (dict, list)) or not doc:
        return value
    doc = copy.copy(doc)
    key = (sorted(doc) if isinstance(doc, dict) else range(len(doc)))[steps[0] % len(doc)]
    doc[key] = _replace_node(doc[key], steps[1:], value)
    return doc


@pytest.fixture(scope="module")
def partition_report(tmp_path_factory):
    """A valid instance, the report of its partition, and a path to write to."""
    d = tmp_path_factory.mktemp("partition")
    inst, part = str(d / "h.json"), str(d / "p.json")
    with open(inst, "w") as fh:
        json.dump(BASES[1], fh)
    assert _main(["reg", "partition", "--in", inst, "--epsilon", "1/2", "--out", part])[0] == 0
    with open(part) as fh:
        return inst, json.load(fh), str(d / "bad.json")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wrapped=st.booleans(), steps=st.lists(st.integers(0, 20), max_size=5), value=values)
def test_no_malformed_partition_ends_in_exit_3_or_a_traceback(partition_report, wrapped,
                                                             steps, value):
    """One node of the partition file, or of the report that wraps it,
    replaced by a drawn JSON value."""
    inst, rep, bad = partition_report
    doc = _replace_node(rep if wrapped else rep["outputs"]["partition"], steps, value)
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    code, out, err = _main(["reg", "verify", "--in", inst, "--partition", bad])
    assert code in (0, 1, 2) and "Traceback" not in err, (doc, code, out, err)
    if code == 2:
        assert json.loads(out)["error"]["kind"] == "input", (doc, out)
