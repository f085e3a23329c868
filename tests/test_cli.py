"""End-to-end command runs: reports, exit codes, determinism."""

import io
import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest

import vcreg
from vcreg import cli
from vcreg.cli import DATA_KEYS, _build_parser, main
from vcreg.jsonio import KINDS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(vcreg.__file__)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def report(argv):
    code, out, _ = run(argv)
    return code, json.loads(out)


def test_dyadic_density_frozen():
    code, rep = report(["dyadic", "density", "--depth", "4"])
    assert code == 0
    assert rep["outputs"]["density"] == "1/3"
    assert rep["verification"]["brute_recount_equal"]


def test_vc_dim_empty_family(write_json):
    p = write_json("empty.json", {"ground_size": 5, "members": []})
    code, rep = report(["vc", "dim", "--in", p])
    assert code == 0
    assert rep["outputs"]["value"] == 0


def test_reg_partition_on_half16(tmp_path):
    inst = str(tmp_path / "half16.json")
    code, _rep = report(["gen", "half-graph", "--sizes", "16,16",
                         "--out", inst])
    assert code == 0
    code, rep = report(["reg", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 0
    assert rep["ok"] and rep["verification"]["ok"]
    num, den = map(int, rep["verification"]["sigma_mass"].split("/"))
    assert num * 4 <= den


def test_gen_writes_instance_not_report(tmp_path):
    inst = str(tmp_path / "i.json")
    code, rep = report(["gen", "block-union", "--sizes", "12,12",
                        "--blocks", "3", "--seed", "1", "--out", inst])
    assert code == 0
    obj = json.load(open(inst))
    assert set(obj) == {"spec", "hypergraph", "measures", "measured"}
    assert rep["verification"]["roundtrip_equal"]


def test_partition_report_feeds_verify(tmp_path):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "12,12", "--out", inst])
    rep_path = str(tmp_path / "rep.json")
    code, _, _ = run(["reg", "partition", "--in", inst, "--epsilon", "1/4",
                      "--out", rep_path])
    assert code == 0
    code, rep = report(["reg", "verify", "--in", inst, "--epsilon", "1/4",
                        "--partition", rep_path])
    assert code == 0 and rep["ok"]


def test_verify_rejects_bad_partition(tmp_path, write_json):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "4,4", "--out", inst])
    bad = write_json("bad.json", {
        "epsilon": "1/10",
        "classes": [[[0, 1, 2, 3]], [[0, 1, 2, 3]]],
        "sigma": [], "labels": [], "provenance": [[], []],
    })
    code, rep = report(["reg", "verify", "--in", inst, "--partition", bad])
    assert code == 1
    assert not rep["ok"]
    kinds = {v["kind"] for v in rep["verification"]["violations"]}
    assert "box_not_01_dense" in kinds


def test_exit_codes():
    code, _, _ = run(["dyadic", "density", "--no-such-flag"])
    assert code == 2
    code, rep = report(["vc", "dim", "--in", "/nonexistent.json"])
    assert code == 2 and rep["error"]["kind"] == "input"
    # decimal epsilon is rejected: rationals are num/den strings
    code, _, _ = run(["dyadic", "density", "--depth", "4"])
    assert code == 0
    code, _, _ = run(["reg", "partition", "--in", "x.json",
                      "--epsilon", "0.25"])
    assert code == 2


def test_ehbox_premise_failure_is_input_error(tmp_path):
    inst = str(tmp_path / "sparse.json")
    report(["gen", "block-union", "--sizes", "16,16", "--blocks", "4",
            "--seed", "3", "--out", inst])
    code, rep = report(["reg", "eh-box", "--in", inst, "--epsilon", "1/10",
                        "--alpha", "2/5"])
    assert code == 2
    assert rep["error"]["kind"] == "input"


def test_every_computing_report_has_verification(tmp_path):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    for argv in (
        ["vc", "dim", "--in", inst],
        ["vc", "shatter", "--in", inst, "--n", "4"],
        ["vc", "net", "--in", inst, "--epsilon", "1/4"],
        ["reg", "partition", "--in", inst, "--epsilon", "1/2"],
        ["reg", "rect", "--in", inst, "--epsilon", "1/2"],
        ["stable", "ladder", "--in", inst],
        ["stable", "partition", "--in", inst, "--epsilon", "1/4"],
        ["dyadic", "density", "--depth", "3"],
        ["dyadic", "report", "--depth", "4"],
        ["dyadic", "bound", "--depth", "5", "--prefix", "0", "--prefix", "10"],
        ["convexity", "density", "--n", "8"],
        ["convexity", "involution", "--interval", "1..5"],
        ["rodl", "search", "--depth", "5", "--eps", "1/3"],
        ["gen", "half-graph", "--sizes", "8,8"],
        ["selftest", "core.fiber"],
    ):
        code, rep = report(argv)
        assert code == 0, (argv, rep.get("error"))
        assert rep["ok"] is (code == 0), argv
        assert rep["verification"], argv
        for key, value in rep["verification"].items():
            assert value is True or value == "skipped-large" or key in DATA_KEYS, (argv, key)


def test_data_keys_are_the_figures_only():
    assert DATA_KEYS == {"violations", "sigma_mass", "box_count", "class_counts",
                         "note", "results", "edge_count", "measured"}


@pytest.mark.parametrize("verification, code", [
    ({"check": True, "note": "a figure"}, 0),
    ({"check": "skipped-large", "violations": []}, 0),
    ({"check": True, "other": False}, 1),
    ({"check": None}, 1),
    ({"check": 1}, 1),
    ({"check": "true"}, 1),
    ({"note": "no verdict at all"}, 2),
])
def test_verdict_rule_fails_closed(monkeypatch, verification, code):
    import vcreg.cli
    key = ("dyadic", "report")
    monkeypatch.setitem(vcreg.cli.COMMANDS, key, (lambda args, files: ({}, verification),
                                                  *vcreg.cli.COMMANDS[key][1:]))
    got, rep = report(["dyadic", "report", "--depth", "2"])
    assert got == code and rep["ok"] is (code == 0)


def _flip_rect_recount(monkeypatch):
    import vcreg.oracles
    real = vcreg.oracles.brute_union_mass_error
    monkeypatch.setattr(vcreg.oracles, "brute_union_mass_error",
                        lambda *a: real(*a) + Fraction(1, 1 << 20))


def _skew_rect_error(monkeypatch):
    # the builder's side: the approximation reports an error off by 2^-20
    import vcreg.regularity
    real = vcreg.regularity.rectangular_approximation

    def skewed(*a):
        ra = real(*a)
        return dataclasses.replace(ra, error=ra.error + Fraction(1, 1 << 20))
    monkeypatch.setattr(vcreg.regularity, "rectangular_approximation", skewed)


def _flip_homogeneity(monkeypatch):
    import vcreg.regularity
    monkeypatch.setattr(vcreg.regularity, "exactly_homogeneous", lambda *a: False)


def _flip_roundtrip(monkeypatch):
    # the reader drops every edge of the instance written
    from vcreg.core import Hypergraph
    real = Hypergraph.from_obj
    monkeypatch.setattr(Hypergraph, "from_obj", lambda obj: real({**obj, "edges": []}))


@pytest.mark.parametrize("argv, flip, check", [
    (["reg", "rect", "--epsilon", "1/2"], _flip_rect_recount, "brute_recount_equal"),
    (["reg", "rect", "--epsilon", "1/2"], _skew_rect_error, "brute_recount_equal"),
    (["stable", "partition", "--epsilon", "1/4"], _flip_homogeneity,
     "all_boxes_exactly_homogeneous"),
    (["gen", "half-graph", "--sizes", "8,8"], _flip_roundtrip, "roundtrip_equal"),
], ids=["reg rect", "reg rect builder", "stable partition", "gen"])
def test_one_false_check_fails_the_run(tmp_path, monkeypatch, argv, flip, check):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    if argv[0] != "gen":
        argv = argv + ["--in", inst]
    code, rep = report(argv)
    assert code == 0 and rep["verification"][check] is True
    flip(monkeypatch)
    code, rep = report(argv)
    assert code == 1 and rep["ok"] is False
    assert [k for k, v in rep["verification"].items()
            if k not in DATA_KEYS and v not in (True, "skipped-large")] == [check]


def test_reports_are_deterministic(tmp_path):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "16,16", "--out", inst])
    argv = ["reg", "partition", "--in", inst, "--epsilon", "1/4"]
    _, a = report(argv)
    _, b = report(argv)
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_out_file_matches_stdout(tmp_path):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    argv = ["stable", "ladder", "--in", inst]
    _, via_stdout = report(argv)
    out_path = str(tmp_path / "r.json")
    code, stdout_text, _ = run(argv + ["--out", out_path])
    assert code == 0 and stdout_text == ""
    via_file = json.load(open(out_path))
    via_stdout.pop("timing"), via_file.pop("timing")
    assert via_file == via_stdout


def test_rodl_ball_mode_recounts_without_the_search_kernel(monkeypatch):
    """The ball scan's densities are recounted by brute-force pair counting,
    so a wrong odd_split_density fails the report; above depth 8 the recount
    is skipped."""
    code, rep = report(["rodl", "search", "--depth", "9", "--eps", "6/25"])
    assert code == 0 and rep["verification"] == {
        "deviation_recomputed_equal": "skipped-large"}
    assert rep["inputs"]["flags"]["parity"] == "odd"   # ball mode's default
    import vcreg.cli
    import vcreg.dyadic
    import vcreg.homog
    for mod in (vcreg.dyadic, vcreg.cli, vcreg.homog):
        monkeypatch.setattr(mod, "odd_split_density", lambda *a, **kw: Fraction(1, 2),
                            raising=False)
    code, rep = report(["rodl", "search", "--depth", "6", "--eps", "6/25"])
    assert code == 1 and rep["verification"]["deviation_recomputed_equal"] is False


def _two_cliques(write_json, n=8):
    edges = [[x, y] for x in range(n) for y in range(n)
             if x != y and (x < n // 2) == (y < n // 2)]
    return write_json("cliques.json", {"hypergraph": {
        "k": 2, "part_sizes": [n, n], "edges": edges, "symmetric": True}})


def test_rodl_graph_mode(write_json):
    code, rep = report(["rodl", "search", "--in", _two_cliques(write_json, 12), "--eps", "1/8",
                        "--m", "2"])
    assert code == 0
    assert rep["outputs"]["found"]
    assert rep["outputs"]["density"] == "1/1"
    assert "parity" not in rep["inputs"]["flags"]   # graph mode reads none


def test_rodl_graph_mode_budget(write_json):
    argv = ["rodl", "search", "--in", _two_cliques(write_json), "--eps", "1/8", "--m", "2"]
    code, rep = report(argv)   # no --budget: all C(8, 2) = 28 tuples
    assert code == 0 and rep["outputs"]["examined"] == 28 and rep["outputs"]["exhaustive"]
    code, rep = report(argv + ["--budget", "1"])
    assert code == 0 and rep["outputs"]["examined"] == 1
    assert rep["outputs"]["exhaustive"] is False
    for budget in ("0", "-5"):
        code, rep = report(argv + ["--budget", budget])
        assert code == 2 and rep["error"]["kind"] == "input", budget
        assert rep["error"]["message"] == \
            f"vcreg rodl search: argument --budget: budget must be >= 1, not {budget}"


@pytest.mark.parametrize("extra, message", [
    (["--depth", "6", "--m", "2"], "--m applies only to graph mode, not ball mode"),
    (["--depth", "6", "--budget", "10"], "--budget applies only to graph mode, not ball mode"),
    (["--depth", "6", "--seed", "0"], "--seed applies only to graph mode, not ball mode"),
    (["--in", None, "--m", "2", "--depth", "6"],
     "--depth applies only to ball mode, not graph mode"),
    (["--in", None, "--m", "2", "--parity", "even"],
     "--parity applies only to ball mode, not graph mode"),
    (["--in", None, "--m", "2", "--parity", "odd"],
     "--parity applies only to ball mode, not graph mode"),
])
def test_rodl_refuses_a_flag_its_mode_does_not_read(write_json, extra, message):
    extra = [_two_cliques(write_json) if x is None else x for x in extra]
    code, rep = report(["rodl", "search", "--eps", "6/25", *extra])
    assert code == 2 and rep["error"] == {"kind": "input", "message": message}


@pytest.mark.parametrize("argv", [["gen", "half-graph", "--sizes", "8,8", "--blocks", "3"],
                                  ["gen", "half-graph", "--blocks", "3"]])
def test_a_mode_refusal_is_a_parse_error(argv):
    # refused as the flags are parsed, like a missing flag: no subcommand, no flags
    code, rep = report(argv)
    assert code == 2 and rep["error"]["kind"] == "input"
    assert rep["subcommand"] is None and rep["inputs"] == {"flags": {}, "files": {}}


@pytest.mark.parametrize("m", ["0", "-1", "4"])
def test_rodl_graph_mode_names_an_out_of_range_m(write_json, m):
    code, rep = report(["rodl", "search", "--in", _two_cliques(write_json), "--eps", "1/8",
                        "--m", m])
    assert code == 2 and rep["error"] == {
        "kind": "input", "message": f"vcreg rodl search: argument --m: m must be between 1 and 3, "
                                    f"not {m}"}


@pytest.mark.parametrize("sub, extra", [("dim", []), ("shatter", ["--n", "2"]),
                                        ("net", ["--epsilon", "1/4"])])
def test_vc_refuses_parts_on_a_set_family(write_json, sub, extra):
    fam = write_json("fam.json", {"ground_size": 4, "members": [[0], [1, 2], [3]]})
    code, rep = report(["vc", sub, "--in", fam, *extra])
    assert code == 0 and rep["inputs"]["flags"]["parts"] == "0"   # the default, unread
    for parts in ("0", "1"):
        code, rep = report(["vc", sub, "--in", fam, "--parts", parts, *extra])
        assert code == 2 and rep["error"] == {
            "kind": "input", "message": "--parts applies only to a hypergraph input, "
                                        "not a set family"}


def test_rodl_graph_mode_past_int64_weights(write_json):
    # denominator 2^70 + 25 and one numerator 2^63: only the bigint path fits
    den = (1 << 70) + 25
    nums = [1 << 63, 1, 1, 1, 1]
    weights = [f"{x}/{den}" for x in nums + [den - sum(nums)]]
    edges = [[x, y] for x in range(6) for y in range(6)
             if x != y and (x < 3) == (y < 3)]
    p = write_json("big.json", {
        "hypergraph": {"k": 2, "part_sizes": [6, 6], "edges": edges, "symmetric": True},
        "measures": [{"part": 0, "weights": weights}, {"part": 1, "weights": weights}]})
    code, rep = report(["rodl", "search", "--in", p, "--eps", "1/8", "--m", "2"])
    assert code == 0 and rep["outputs"]["found"]
    assert all(v is True for v in rep["verification"].values())


def test_selftest_subcommand_filter():
    from vcreg.selftest import CHECKS
    for names in (["core.fiber"], []):
        code, out, err = run(["selftest", *names])
        assert code == 0
        rep = json.loads(out)
        assert rep["outputs"]["passed"] >= 1
        assert "PASS" in err
    # the empty filter runs every check, one per engine module
    assert rep["outputs"]["passed"] == len(CHECKS)
    ran = {r["name"].split(".")[0] for r in rep["verification"]["results"]}
    assert ran == {"core", "vc", "regularity", "stable", "dyadic", "convexity",
                   "search", "instances"}
    # a filter that matches no check runs none: an input error, not a failed check
    code, rep = report(["selftest", "nosuch"])
    assert code == 2 and rep["error"] == {"kind": "input",
                                          "message": "no check name contains 'nosuch'"}


def test_rational_outputs_never_use_floats(tmp_path):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    code, out, _ = run(["reg", "rect", "--in", inst, "--epsilon", "1/3"])
    rep = json.loads(out)
    assert code == 0

    def no_float(x):
        assert not isinstance(x, float), x
        if isinstance(x, dict):
            for v in x.values():
                no_float(v)
        elif isinstance(x, list):
            for v in x:
                no_float(v)

    body = dict(rep)
    body.pop("timing")  # wall-clock seconds are the one sanctioned float
    no_float(body)


def _with_measures(measures):
    return {"hypergraph": {"k": 2, "part_sizes": [2, 2], "edges": [[0, 0]]},
            "measures": measures}


_HALVES = ["1/2", "1/2"]


@pytest.mark.parametrize("hobj", [
    {"k": 2, "part_sizes": [2, 2], "edges": 5},
    {"k": 2, "part_sizes": [True, 2], "edges": []},
    {"k": 2, "part_sizes": [2, 2], "edges": [5]},
    {"k": 2, "part_sizes": [2, 2], "edges": [[True, 0]]},
    _with_measures([{"part": "x", "weights": _HALVES}, {"part": 1, "weights": _HALVES}]),
    _with_measures([{"part": 0, "weights": 3}, {"part": 1, "weights": _HALVES}]),
    _with_measures([{"part": 0, "weights": _HALVES}, {"part": 1.5, "weights": _HALVES}]),
    _with_measures(5),
    {"k": True, "part_sizes": [3], "edges": [[0]]},
    {"k": 1, "part_sizes": [3], "edges": [[0]], "symmetric": "false"},
])
def test_malformed_instance_is_input_error(write_json, hobj):
    p = write_json("bad.json", hobj)
    code, rep = report(["reg", "partition", "--in", p, "--epsilon", "1/4"])
    assert code == 2
    assert rep["error"]["kind"] == "input" and not rep["ok"]


@pytest.mark.parametrize("fobj", [
    {"ground_size": 3, "members": [["a"]]},
    {"ground_size": 3, "members": [5]},
    {"ground_size": 3, "members": "ab"},
    {"ground_size": None, "members": []},
    {"ground_size": 3, "members": [[0.5]]},
    {"ground_size": 3, "members": [[True]]},
    {"ground_size": "3", "members": [[0]]},
    {"ground_size": 3.7, "members": [[0]]},
    {"ground_size": 10 ** 30, "members": []},
])
def test_malformed_set_family_is_input_error(write_json, fobj):
    code, out, err = run(["vc", "dim", "--in", write_json("f.json", fobj)])
    rep = json.loads(out)
    assert code == 2 and "Traceback" not in err
    assert rep["error"]["kind"] == "input" and not rep["ok"]


def test_dyadic_depth_beyond_print_limit_is_input_error():
    code, rep = report(["dyadic", "density", "--depth", "100000"])
    assert code == 2
    assert rep["error"]["kind"] == "input"
    assert "7142" in rep["error"]["message"]


def test_difference_guard_is_input_error(tmp_path, monkeypatch):
    import vcreg.regularity
    inst = str(tmp_path / "half24.json")
    report(["gen", "half-graph", "--sizes", "24,24", "--out", inst])
    monkeypatch.setattr(vcreg.regularity, "MAX_DIFF_BYTES", 1000)
    # refused before the distance matrices are built
    monkeypatch.setattr(vcreg.regularity, "weighted_inner", lambda *a: pytest.fail("built"))
    code, rep = report(["reg", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 2
    assert rep["error"]["kind"] == "input"
    assert "delta_approx_partition" in rep["error"]["message"]


def test_delta_partition_guard_counts_python_int_cells(tmp_path, write_json, monkeypatch):
    """Past int64 the delta partition's m x m matrices hold Python ints: the
    200^2 half-graph at eps 1/8 peaks near 5.9 MB traced with weights over
    2^63 - 25, against 1.8 MB uniform, and the guard counts 6.6 and 2.2 MB."""
    import vcreg.regularity
    inst = str(tmp_path / "half200.json")
    report(["gen", "half-graph", "--sizes", "200,200", "--out", inst])
    with open(inst) as f:
        obj = json.load(f)
    den = (1 << 63) - 25
    nums = [den // 200] * 199 + [den - 199 * (den // 200)]
    weights = [f"{x}/{den}" for x in nums]
    big = write_json("big.json", {"hypergraph": obj["hypergraph"], "measures": [
        {"part": 0, "weights": weights}, {"part": 1, "weights": weights}]})
    monkeypatch.setattr(vcreg.regularity, "MAX_DIFF_BYTES", 4_000_000)
    code, rep = report(["reg", "partition", "--in", inst, "--epsilon", "1/8"])
    assert code == 0
    monkeypatch.setattr(vcreg.regularity, "weighted_inner", lambda *a: pytest.fail("built"))
    code, rep = report(["reg", "partition", "--in", big, "--epsilon", "1/8"])
    assert code == 2 and rep["error"]["kind"] == "input"
    assert "delta_approx_partition" in rep["error"]["message"]


def test_delta_partition_net_is_checked_apart_from_the_greedy(tmp_path, monkeypatch):
    import vcreg.regularity
    inst = str(tmp_path / "half24.json")
    report(["gen", "half-graph", "--sizes", "24,24", "--out", inst])
    greedy = vcreg.regularity._pair_net
    monkeypatch.setattr(vcreg.regularity, "_pair_net", lambda *a: greedy(*a)[:-1])
    code, rep = report(["reg", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 1 and rep["error"] == {
        "kind": "verification", "message": "delta_approx_partition: the net leaves a heavy "
                                           "fiber pair inside one atom"}


@pytest.mark.parametrize("obj, what, need", [
    ({"k": 2, "part_sizes": [64, 64], "edges": [[0, 0]]}, "binary view", 4096),
    ({"ground_size": 2000, "members": [[0], [1]]}, "set family matrix", 4000),
])
def test_dense_matrix_guard_is_input_error(write_json, monkeypatch, obj, what, need):
    import vcreg.core
    p = write_json("wide.json", obj)
    monkeypatch.setattr(vcreg.core, "MAX_DIFF_BYTES", 1000)
    code, rep = report(["vc", "dim", "--in", p])
    assert code == 2
    assert rep["error"]["kind"] == "input"
    assert what in rep["error"]["message"] and f"{need} bytes" in rep["error"]["message"]


_GOOD_PARTITION = {"epsilon": "1/2", "classes": [[[0, 1, 2, 3]], [[0, 1, 2, 3]]],
                   "sigma": [], "labels": [], "provenance": [[[1]], [[2]]]}


@pytest.mark.parametrize("change", [
    {"classes": 5},
    {"classes": [[[0, 1, 2, True]], [[0, 1, 2, 3]]]},
    {"classes": [[[0, 1, 2, 3]]]},
    {"sigma": 5},
    {"labels": [[0, 0]]},
    {"provenance": [5, [[2]]]},
    {"provenance": [[[99]], [[2]]]},
    {"provenance": [[[1, 0]], [[2]]]},
    {"provenance": [[["1"]], [[2]]]},
    {"provenance": [[[1]]]},
    # 3000 x 3000 boxes, over core.MAX_DENSE_SPACE: refused before a grid is built
    {"classes": [[[0, 1, 2, 3]] * 3000, [[0, 1, 2, 3]] * 3000]},
])
def test_malformed_partition_is_input_error(tmp_path, write_json, change):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "4,4", "--out", inst])
    code, rep = report(["reg", "verify", "--in", inst, "--partition",
                        write_json("p.json", _GOOD_PARTITION)])
    assert code == 0 and rep["ok"]
    code, rep = report(["reg", "verify", "--in", inst, "--partition",
                        write_json("bad.json", {**_GOOD_PARTITION, **change})])
    assert code == 2
    assert rep["error"]["kind"] == "input" and not rep["ok"]


def _floats_outside_timing(rep):
    found = []
    json.loads(json.dumps({k: v for k, v in rep.items() if k != "timing"}),
               parse_float=found.append)
    return found


def test_stable_partition_where_one_minus_x_d_rounds_to_one(tmp_path):
    inst = str(tmp_path / "h24.json")
    report(["gen", "half-graph", "--sizes", "24,24", "--out", inst])
    code, out, _ = run(["stable", "partition", "--in", inst, "--epsilon", "1/8"])
    assert code in (0, 1)
    rep = json.loads(out)
    assert _floats_outside_timing(rep) == []
    assert rep["ok"] is (code == 0)


def test_stable_partition_on_an_interval_graph_at_the_default_depth_cap(tmp_path):
    # its deepest descent takes 10 steps, so a cap of 9 or less stops it
    from vcreg.cli import _load_instance
    from vcreg.core import Box
    from vcreg.oracles import brute_density
    inst = str(tmp_path / "iv.json")
    report(["gen", "interval-graph", "--sizes", "32,48", "--seed", "1", "--out", inst])
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/8"])
    assert code == 0 and rep["ok"], rep.get("error")
    meta = rep["outputs"]["meta"]
    assert meta["depth_cap"] == 32
    assert not {"d_hat", "descent_step_bound", "rounds_used", "violating_history"} & set(meta)
    H, measures = _load_instance(inst, {})
    classes = rep["outputs"]["partition"]["classes"]
    for key, label in rep["outputs"]["partition"]["labels"]:
        box = Box.of([classes[i][c] for i, c in enumerate(key)])
        assert brute_density(H, measures, box) == label, key
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/8",
                        "--depth-cap", "3"])
    assert code == 1 and "depth cap 3" in rep["error"]["message"]
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/8",
                        "--depth-cap", "0"])
    assert code == 2 and rep["error"]["kind"] == "input"


@pytest.mark.parametrize("argv", [
    ["vc", "dim"], ["vc", "shatter", "--n", "2"], ["vc", "net", "--epsilon", "1/4"],
    ["reg", "partition", "--epsilon", "1/4"], ["reg", "verify", "--partition", "p.json"],
    ["reg", "rect", "--epsilon", "1/4"], ["reg", "eh-box", "--epsilon", "1/4", "--alpha", "1/2"],
    ["stable", "ladder"], ["stable", "partition", "--epsilon", "1/8"],
    ["rodl", "search", "--eps", "1/4", "--m", "2"],
], ids=lambda argv: "-".join(argv[:2]))
def test_missing_in_is_input_error(argv):
    code, rep = report(argv)
    assert code == 2 and not rep["ok"]
    # without --in, rodl search is in ball mode, which requires --depth
    named = "--depth (ball mode)" if argv[0] == "rodl" else "--in"
    assert rep["error"]["kind"] == "input" and named in rep["error"]["message"]


def _sha256(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def test_files_entries_hash_the_bytes_read_or_written(tmp_path, write_json):
    inst = str(tmp_path / "h.json")
    code, gen = report(["gen", "half-graph", "--sizes", "6,6", "--out", inst])
    assert code == 0 and gen["inputs"]["files"] == {"out": _sha256(inst)}
    rep_path = str(tmp_path / "rep.json")
    code, _, _ = run(["reg", "partition", "--in", inst, "--epsilon", "1/4",
                      "--out", rep_path])
    part = json.loads(pathlib.Path(rep_path).read_text())
    assert code == 0 and part["inputs"]["files"] == {"in": gen["inputs"]["files"]["out"]}
    # the same instance with other whitespace is other bytes, so another hash
    spaced = write_json("spaced.json", json.loads(pathlib.Path(inst).read_text()))
    assert _sha256(spaced) != _sha256(inst)
    code, rep = report(["reg", "verify", "--in", spaced, "--partition", rep_path])
    assert code == 0
    assert rep["inputs"]["files"] == {"in": _sha256(spaced), "partition": _sha256(rep_path)}
    fam = write_json("fam.json", {"ground_size": 4, "members": [[0, 1], [2], [1, 3]]})
    w = write_json("w.json", {"part": 0, "weights": ["1/2", "1/4", "1/8", "1/8"]})
    code, rep = report(["vc", "net", "--in", fam, "--epsilon", "1/2", "--weights", w])
    assert code == 0 and rep["inputs"]["files"] == {"in": _sha256(fam), "weights": _sha256(w)}


@pytest.mark.parametrize("bad", ["not-utf8", "directory"])
@pytest.mark.parametrize("flag", ["--in", "--partition", "--weights"])
def test_unreadable_input_is_input_error(tmp_path, write_json, flag, bad):
    path = tmp_path / "bad.json"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff{}")
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "4,4", "--out", inst])
    fam = write_json("fam.json", {"ground_size": 2, "members": [[0]]})
    argv = {"--in": ["reg", "partition", "--in", str(path), "--epsilon", "1/4"],
            "--partition": ["reg", "verify", "--in", inst, "--partition", str(path)],
            "--weights": ["vc", "net", "--in", fam, "--epsilon", "1/2",
                          "--weights", str(path)]}[flag]
    code, rep = report(argv)
    assert code == 2 and not rep["ok"]
    assert rep["error"]["kind"] == "input" and str(path) in rep["error"]["message"]
    if bad == "directory":   # the OS error names no decoding
        assert rep["error"]["message"].startswith(f"cannot read {path}: [Errno ")
        assert "UTF-8" not in rep["error"]["message"]


def _fresh(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "vcreg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def _without_timing(code, out):
    rep = json.loads(out) if out else None
    if rep is not None:
        rep.pop("timing")
    return code, rep


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    inst = str(tmp_path / "h.json")
    calls = [
        ["gen", "half-graph", "--sizes", "12,12", "--out", inst],
        ["gen", "half-graph", "--sizes", "6,6"],
        ["dyadic", "density", "--no-such-flag"],
        ["reg", "partition", "--in", inst, "--epsilon", "1/4"],
        ["dyadic", "density", "--depth", "5"],
        ["stable", "partition", "--in", inst, "--epsilon", "1/8"],
        ["reg", "partition", "--in", inst, "--epsilon", "0.25"],
        ["convexity", "density", "--n", "30"],
    ]
    in_process = []
    for argv in calls:
        code, out, _ = run(argv)
        in_process.append(_without_timing(code, out))
    assert [c for c, _ in in_process] == [0, 0, 2, 0, 0, 0, 2, 0]
    assert in_process[2][1]["subcommand"] is None
    assert in_process[2][1]["error"]["kind"] == "input"
    # the second gen has no --out: its report goes to stdout, no file is made
    assert in_process[1][1]["subcommand"] == "gen"
    assert os.listdir(tmp_path) == ["h.json"]
    assert [_without_timing(*_fresh(argv)) for argv in calls] == in_process
    assert _build_parser.cache_info().misses == 1


def test_every_public_name_resolves():
    for name in vcreg.__all__:
        assert getattr(vcreg, name) is not None, name
    assert set(vcreg.__all__) <= set(dir(vcreg))
    with pytest.raises(AttributeError):
        vcreg.no_such_name


def test_numpy_free_subcommands_do_not_load_numpy():
    code = ("import io, contextlib, sys\n"
            "import vcreg.cli\n"
            "assert 'numpy' not in sys.modules, 'import vcreg.cli'\n"
            "for argv in (['dyadic', 'density', '--depth', '6'],\n"
            "             ['dyadic', 'report', '--depth', '6'],\n"
            "             ['dyadic', 'bound', '--depth', '8', '--prefix', '0'],\n"
            "             ['convexity', 'density', '--n', '40'],\n"
            "             ['rodl', 'search', '--depth', '6', '--eps', '6/25']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert vcreg.cli.main(argv) == 0\n"
            "    assert 'numpy' not in sys.modules, argv\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _stand_in_partition(monkeypatch, classes, labels):
    import numpy as np
    import vcreg.stable
    from vcreg.regularity import RegularPartition, label_grid
    grid = label_grid(tuple(labels), tuple(labels.values()), [len(c) for c in classes])
    monkeypatch.setattr(vcreg.stable, "stable_regular_partition",
                        lambda H, measures, eps, **kw: RegularPartition(
                            classes, eps, np.zeros(0, np.intp), grid, ((), ()), {}))


def test_stable_partition_check_flags_inhomogeneous_box(tmp_path, monkeypatch):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "6,6", "--out", inst])
    whole = (tuple(range(6)),)
    _stand_in_partition(monkeypatch, (whole, whole), {(0, 0): 1})
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/8"])
    assert code == 1 and not rep["ok"]
    assert rep["verification"]["all_boxes_exactly_homogeneous"] is False


def test_stable_partition_zero_mass_box_is_input_error(tmp_path, monkeypatch, write_json):
    w = ["0/1", "1/2", "1/2"]
    inst = write_json("z.json", {
        "hypergraph": {"k": 2, "part_sizes": [3, 3], "symmetric": False,
                       "edges": [[1, 1], [2, 2]]},
        "measures": [{"part": 0, "weights": w}, {"part": 1, "weights": w}]})
    _stand_in_partition(monkeypatch, (((0,), (1,), (2,)), ((0,), (1,), (2,))),
                        {(0, 0): 0, (1, 1): 1, (2, 2): 1, (1, 2): 0, (2, 1): 0})
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/8"])
    assert code == 2 and rep["error"]["kind"] == "input"
    assert "measure zero" in rep["error"]["message"]


def test_vc_shatter_on_empty_family_passes(write_json):
    p = write_json("empty.json", {"ground_size": 3, "members": []})
    code, rep = report(["vc", "shatter", "--in", p, "--n", "2"])
    assert code == 0 and rep["ok"]
    assert rep["outputs"]["table"] == {"0": 0, "1": 0, "2": 0}
    assert rep["verification"] == {"within_power_bound": True, "monotone": True}


@pytest.mark.parametrize("n, code", [(4, 2), (3, 0)])
def test_vc_shatter_refuses_too_many_subsets_up_front(write_json, monkeypatch, n, code):
    # interval_family(40) has 40 distinct columns: C(40, 4) = 91,390 subsets
    # are over the limit, C(40, 3) = 9,880 are not
    import vcreg.vc
    from vcreg.instances import interval_family
    counted = []
    real = vcreg.vc.shatter_function
    monkeypatch.setattr(vcreg.vc, "shatter_function",
                        lambda fam, m: counted.append(m) or real(fam, m))
    p = write_json("intervals.json", interval_family(40).to_obj())
    got, rep = report(["vc", "shatter", "--in", p, "--n", str(n)])
    assert got == code
    if code == 2:
        assert rep["error"]["kind"] == "input"
        assert "shatter_function" in rep["error"]["message"]
        assert "91390 4-subsets" in rep["error"]["message"]
        assert counted == [4]   # refused before any other count ran
    else:
        assert rep["ok"] and rep["outputs"]["value"] == 7


def test_vc_shatter_checks_each_field_on_its_own(tmp_path, monkeypatch):
    # a table within the power bound that falls from n = 1 to n = 2
    import vcreg.vc
    inst = str(tmp_path / "half.json")
    report(["gen", "half-graph", "--sizes", "6,6", "--out", inst])
    monkeypatch.setattr(vcreg.vc, "shatter_function", lambda fam, n: [1, 2, 1][n])
    code, rep = report(["vc", "shatter", "--in", inst, "--n", "2"])
    assert code == 1 and not rep["ok"]
    assert rep["verification"] == {"within_power_bound": True, "monotone": False}


@pytest.mark.parametrize("argv", [["vc", "dim"], ["stable", "ladder"]])
def test_negative_budget_is_input_error(tmp_path, argv):
    inst = str(tmp_path / "half.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    for budget in ("-1", "0"):
        code, rep = report(argv + ["--in", inst, "--budget", budget])
        assert code == 2 and not rep["ok"]
        assert rep["error"]["kind"] == "input"
        assert "budget" in rep["error"]["message"]


@pytest.mark.parametrize("n", ["0", "2", "-1"])
def test_convexity_density_names_an_n_below_three(n):
    code, rep = report(["convexity", "density", "--n", n])
    assert code == 2 and rep["error"] == {
        "kind": "input", "message": f"vcreg convexity density: argument --n: n must be >= 3, not {n}"}


def _half8_partition(tmp_path):
    inst = str(tmp_path / "h8.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    out = str(tmp_path / "rep.json")
    code, _, _ = run(["reg", "partition", "--in", inst, "--epsilon", "1/4", "--out", out])
    assert code == 0
    with open(out) as f:
        return inst, json.load(f)["outputs"]["partition"]


@pytest.mark.parametrize("change", [
    lambda p: {"labels": [[key, 7] for key, _ in p["labels"]]},
    lambda p: {"labels": p["labels"] + [[[99, 99], 1]]},
    lambda p: {"labels": p["labels"] + [[[0], 1]]},
    lambda p: {"sigma": p["sigma"] + [[50, 50]]},
    lambda p: {"sigma": p["sigma"] + [[1, 2, 3]]},
], ids=["label-7", "label-99-99", "label-0", "sigma-50-50", "sigma-1-2-3"])
def test_verify_rejects_labels_and_sigma_naming_no_box(tmp_path, write_json, change):
    inst, part = _half8_partition(tmp_path)
    code, rep = report(["reg", "verify", "--in", inst,
                        "--partition", write_json("p.json", part)])
    assert code == 0 and rep["ok"]
    code, rep = report(["reg", "verify", "--in", inst, "--partition",
                        write_json("bad.json", {**part, **change(part)})])
    assert code == 2 and not rep["ok"]
    assert rep["error"]["kind"] == "input"


@pytest.mark.parametrize("where", ["file", "flag"])
def test_verify_refuses_a_zero_epsilon(tmp_path, write_json, where):
    inst, part = _half8_partition(tmp_path)
    argv = ["reg", "verify", "--in", inst, "--partition"]
    if where == "file":
        argv.append(write_json("p.json", {**part, "epsilon": "0/3"}))
    else:
        argv += [write_json("p.json", part), "--epsilon", "0"]
    code, rep = report(argv)
    assert code == 2 and not rep["ok"]
    assert rep["error"]["kind"] == "input" and "positive" in rep["error"]["message"]


def _outputs_bytes(rep):
    return json.dumps(rep["outputs"], sort_keys=True, separators=(",", ":"))


def test_uniform_partition_on_weighted_symmetric_instance(write_json):
    # two 4-cliques joined by two edges; vertex 0 weighs nothing
    edges = {(x, y) for c in (range(4), range(4, 8)) for x in c for y in c}
    edges |= {(3, 4), (4, 3), (0, 6), (6, 0)}
    w = ["0/1", "1/8", "1/8", "1/4", "1/8", "1/8", "1/8", "1/8"]
    inst = write_json("sym.json", {
        "hypergraph": {"k": 2, "part_sizes": [8, 8], "symmetric": True,
                       "edges": sorted(map(list, edges))},
        "measures": [{"part": 0, "weights": w}, {"part": 1, "weights": w}]})
    code, rep = report(["reg", "partition", "--in", inst, "--epsilon", "1/2", "--uniform"])
    assert code == 0 and rep["ok"]
    assert rep["verification"]["ok"] and rep["verification"]["violations"] == []
    assert _outputs_bytes(rep) == (
        '{"class_counts":[5,5],"meta":{"class_counts":[5,5],"levels":[{"arity":2,'
        '"class_bound_sauer":7,"classes":4,"eps_level":"1/2","fiber_dimension":"2",'
        '"net_param_bound":2560,"split_params":3,"split_path":"net"}],"param_width":4,'
        '"rect_attempts":[{"delta":"1/2","rect_error":"1/32","sigma_mass":"1/32"}],'
        '"rect_eps":"1/2","rect_error":"1/32","sigma_mass":"1/32","uniform":true},'
        '"partition":{"classes":[[[0,1,2],[3],[4],[5,7],[6]],[[0,1,2],[3],[4],[5,7],[6]]],'
        '"epsilon":"1/2","labels":[[[0,0],1],[[0,1],1],[[0,2],0],[[0,3],0],[[0,4],0],'
        '[[1,0],1],[[1,1],1],[[1,2],1],[[1,3],0],[[1,4],0],[[2,0],0],[[2,2],1],'
        '[[2,3],1],[[2,4],1],[[3,0],0],[[3,1],0],[[3,2],1],[[3,3],1],[[3,4],1],[[4,0],0],'
        '[[4,1],0],[[4,2],1],[[4,3],1],[[4,4],1]],"provenance":[[[0],[1],[3],[4],[5],[6],[7]],'
        '[[0],[1],[3],[4],[5],[6],[7]]],"sigma":[[2,1]]}}')


def test_eh_box_in_the_bigint_regime(write_json):
    # part 0 weighs over the prime 2^63 - 25, so den = 7 (2^63 - 25) >= 2^62
    p = 2 ** 63 - 25
    nums = [p // 5, p // 7, p // 3, 0, p // 11]
    w0 = [f"{n}/{p}" for n in nums + [p - sum(nums)]]
    edges = {(x, y) for x in range(4) for y in range(3)} | {(5, 5), (4, 0)}
    inst = write_json("big.json", {
        "hypergraph": {"k": 2, "part_sizes": [6, 6], "edges": sorted(map(list, edges))},
        "measures": [{"part": 0, "weights": w0},
                     {"part": 1, "weights": ["1/7", "2/7", "1/7", "1/7", "0/1", "2/7"]}]})
    code, rep = report(["reg", "eh-box", "--in", inst, "--alpha", "1/4", "--epsilon", "1/2"])
    assert code == 0 and rep["ok"]
    assert all(v is True for v in rep["verification"].values())
    assert _outputs_bytes(rep) == (
        '{"box":{"sides":[[0,1,2,3],[1,2]]},"delta_guarantee":"1/192","density":"1/1",'
        '"eps_used":"1/16","partition_meta":{"class_counts":[3,4],"sigma_mass":"0/1"},'
        '"side_masses":["6236756329682753147/9223372036854775783","3/7"]}')


def test_verifier_and_stable_check_run_without_box_counts(tmp_path, monkeypatch):
    from fractions import Fraction
    import vcreg.core
    import vcreg.regularity
    from vcreg.cli import _load_instance
    from vcreg.regularity import exactly_homogeneous, verify_regular_partition
    from vcreg.stable import stable_regular_partition
    inst, part = str(tmp_path / "b.json"), str(tmp_path / "p.json")
    report(["gen", "block-union", "--sizes", "12,12", "--blocks", "3", "--out", inst])
    assert run(["reg", "partition", "--in", inst, "--epsilon", "1/4", "--out", part])[0] == 0
    H, measures = _load_instance(inst, {})
    sp = stable_regular_partition(H, measures, Fraction(1, 4))

    def refuse(*args):
        raise AssertionError("the verifier called the builders' box kernel")
    monkeypatch.setattr(vcreg.core, "box_counts", refuse)
    monkeypatch.setattr(vcreg.regularity, "box_counts", refuse)
    code, rep = report(["reg", "verify", "--in", inst, "--partition", part])
    assert code == 0 and rep["ok"]
    assert verify_regular_partition(H, measures, sp)["ok"]
    assert exactly_homogeneous(H, measures, sp)


def test_stable_partition_recounts_the_boxes_once(tmp_path, monkeypatch):
    """verify_regular_partition and exactly_homogeneous share one recount."""
    import vcreg.regularity
    calls = []
    recount = vcreg.regularity.recount_boxes
    monkeypatch.setattr(vcreg.regularity, "recount_boxes",
                        lambda *args: calls.append(args) or recount(*args))
    inst = str(tmp_path / "b.json")
    report(["gen", "block-union", "--sizes", "12,12", "--blocks", "3", "--out", inst])
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 0 and rep["verification"]["all_boxes_exactly_homogeneous"] is True
    assert len(calls) == 1


def test_stable_partition_never_builds_the_edge_set(tmp_path, monkeypatch):
    import vcreg.oracles
    inst = str(tmp_path / "b.json")
    report(["gen", "block-union", "--sizes", "12,12", "--blocks", "3", "--out", inst])
    monkeypatch.setattr(vcreg.oracles, "edge_set",
                        lambda H: pytest.fail("stable partition built the edge set"))
    code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 0 and rep["verification"]["all_boxes_exactly_homogeneous"] is True


@pytest.mark.parametrize("exc", [RuntimeError("kernel broke"), MemoryError()],
                         ids=["RuntimeError", "MemoryError"])
def test_an_internal_error_ends_in_a_report_not_a_traceback(exc, tmp_path, monkeypatch):
    import vcreg.core

    def broken(*args):
        raise exc
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    monkeypatch.setattr(vcreg.core.SpaceWeights, "sums", broken)
    code, out, err = run(["reg", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 3 and "Traceback" not in err
    rep = json.loads(out)
    assert rep["ok"] is False and rep["subcommand"] == "reg partition"
    assert rep["error"] == {"kind": "internal", "type": type(exc).__name__,
                            "message": str(exc)}


def test_vc_net_recounts_the_masses_without_the_net_kernel(write_json, monkeypatch):
    import vcreg.vc
    fam = write_json("f.json", {"ground_size": 12, "members": [[i, i + 1] for i in range(11)]})
    argv = ["vc", "net", "--in", fam, "--epsilon", "1/8"]
    code, rep = report(argv)
    assert code == 0 and rep["verification"]["verified_exhaustively"] is True
    monkeypatch.setattr(vcreg.vc.SpaceWeights, "sums", lambda self, mask: [0] * len(mask))
    code, rep = report(argv)
    assert rep["outputs"]["points"] == []
    assert code == 1 and rep["verification"]["verified_exhaustively"] is False


def test_reg_partition_checks_definability_without_the_atoms_kernel(write_json, monkeypatch):
    """class_not_definable groups the vertices by their membership rows
    itself, so a fiber_atoms that splits every atom into singletons fails the
    uniform partition built with it."""
    import vcreg.core
    import vcreg.regularity
    import vcreg.stable
    from vcreg.instances import same_block_equivalence
    p = write_json("blocks.json", {"hypergraph": same_block_equivalence(16, 4).to_obj()})
    argv = ["reg", "partition", "--in", p, "--uniform", "--epsilon", "1/2"]
    code, rep = report(argv)
    assert code == 0 and rep["outputs"]["class_counts"] == [4, 4]
    for mod in (vcreg.core, vcreg.regularity, vcreg.stable):
        monkeypatch.setattr(mod, "fiber_atoms",
                            lambda H, part, params: [[v] for v in range(H.part_sizes[part])])
    code, rep = report(argv)
    assert rep["outputs"]["class_counts"] == [16, 16]
    kinds = {v["kind"] for v in rep["verification"]["violations"]}
    assert code == 1 and kinds == {"class_not_definable"}


def test_interval_flag_is_recorded_as_its_endpoints():
    code, rep = report(["convexity", "involution", "--interval", "3..9"])
    assert code == 0
    assert rep["inputs"]["flags"]["interval"] == [3, 9]
    code, rep = report(["convexity", "involution", "--interval=-5..5"])
    assert code == 0 and rep["inputs"]["flags"]["interval"] == [-5, 5]


@pytest.mark.parametrize("argv", [
    ["gen", "random-vc-capped", "--sizes", "8,8", "--d", "-1"],   # not read as --depth
    ["stable", "partition", "--in", "h.json", "--epsilon", "1/8",
     "--depth", "3"],                                             # not read as --depth-cap
])
def test_flag_prefixes_are_not_expanded(argv):
    code, rep = report(argv)
    assert code == 2 and rep["error"]["kind"] == "input"
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in rep["error"]["message"]


def _parse_error(argv):
    """The one report of a run that argparse refused."""
    code, out, err = run(argv)
    rep = json.loads(out)   # exactly one JSON document
    assert code == 2 and err == ""
    assert rep["error"]["kind"] == "input" and not rep["ok"]
    assert rep["subcommand"] is None and rep["inputs"] == {"flags": {}, "files": {}}
    return rep["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["dyadic", "density", "--depth", "4", "--no-such-flag"],
    ["reg", "partition", "--in", "h.json", "--epsilon", "0.25"],
    ["convexity", "density", "--n", "ten"],
    ["no-such-command"],
    ["vc"],
    # flags no run reads
    ["reg", "partition", "--in", "h.json", "--epsilon", "1/4", "--strategy", "random"],
    ["reg", "verify", "--in", "h.json", "--partition", "p.json", "--seed", "1"],
    ["rodl", "search", "--eps", "1/4", "--prefix", "0"],
])
def test_parse_errors_are_input_reports(argv):
    message = _parse_error(argv)
    if "0.25" in argv:   # a refused rational keeps its reason
        assert "decimal rationals are not accepted: '0.25'" in message


@pytest.mark.parametrize("argv, reason", [
    (["reg", "eh-box", "--in", "h.json", "--epsilon", "1/4", "--alpha", "0.5"],
     "argument --alpha: decimal rationals are not accepted"),
    (["reg", "verify", "--in", "h.json", "--partition", "p.json", "--epsilon", "1/0"],
     "argument --epsilon: cannot parse rational '1/0'"),
    (["rodl", "search", "--eps", "1e-2"], "argument --eps: decimal rationals are not accepted"),
    (["convexity", "involution", "--interval", "3"],
     "argument --interval: interval must look like 'lo..hi'"),
    (["convexity", "involution", "--interval", "9..3"],
     "argument --interval: interval endpoints out of order"),
    (["convexity", "density", "--n", "10", "--interval", "9:3"],
     "argument --interval: interval endpoints out of order"),
    # argparse takes a value that starts with "-" for a flag
    (["convexity", "involution", "--interval", "-5..5"], "argument --interval: expected one "
     "argument; a value that starts with '-' is passed as --interval=VALUE"),
])
def test_refused_flag_value_keeps_its_reason(argv, reason):
    assert reason in _parse_error(argv)


def _sample(kw, mode=None):
    """A value of the flag's type that parses: the mode if it is a choice, the
    low end of an integer range."""
    if "choices" in kw:
        return mode if mode in kw["choices"] else kw["choices"][0]
    if hasattr(kw.get("type"), "lo"):
        return str(kw["type"].lo)
    return {cli._rational: "1/4", int: "4", cli._parse_interval: "3..9",
            None: "h.json"}[kw.get("type")]


# the modes of a subcommand whose flags differ by mode, each with the flags
# that select it besides its required ones (a gen kind is required)
_MODES = {("gen", None): {kind: {} for kind in KINDS},
          ("rodl", "search"): {"ball mode": {}, "graph mode": {"--in": "h.json"}}}


def _required(key, mode):
    """Each flag COMMANDS[key] requires in `mode`, with a value that parses."""
    _, _, *rows = cli.COMMANDS[key]
    return {name: _sample(kw, mode) for name, kw, *modes in rows
            if kw.get("required") and (not modes or mode in modes)}


# per subcommand and mode: the subcommand, its required flags and the flags
# that select the mode
_REQUIRED = {" ".join(filter(None, (*key, mode))): (" ".join(filter(None, key)),
                                                     _required(key, mode), select)
             for key in cli.COMMANDS for mode, select in _MODES.get(key, {None: {}}).items()
             if _required(key, mode)}


def _argv(name, flags):
    """The subcommand with each (flag, value); a positional gives its value only."""
    return name.split() + [x for flag, value in flags
                           for x in ((flag, value) if flag.startswith("-") else (value,))]


def _run_argv(name, leave_out=None):
    """A run of the _REQUIRED entry `name`, without the flag `leave_out`."""
    sub, required, select = _REQUIRED[name]
    return _argv(sub, [*select.items(), *((f, v) for f, v in required.items() if f != leave_out)])


@pytest.mark.parametrize("name, missing", [(name, flag) for name, (_, flags, _) in _REQUIRED.items()
                                           for flag in flags])
def test_missing_required_flag_is_named(name, missing):
    message = _parse_error(_run_argv(name, leave_out=missing))
    assert "the following arguments are required" in message and missing in message


@pytest.mark.parametrize("argv, named", [
    (["stable", "partition", "--bogus"], ["--in, --epsilon", "unrecognized arguments: --bogus"]),
    (["reg", "verify", "--in", "h.json", "--no-such-flag", "3"],
     ["--partition", "unrecognized arguments: --no-such-flag 3"]),
    (["gen", "--sizes", "8,8", "--bogus"], ["kind", "unrecognized arguments: --bogus"]),
    # a flag a mode requires is tagged with the mode
    (["rodl", "search", "--bogus"], ["--eps, --depth (ball mode)", "unrecognized arguments"]),
    (["gen", "half-graph", "--bogus"], ["--sizes (half-graph)", "unrecognized arguments"]),
])
def test_missing_and_unknown_flags_are_named_together(argv, named):
    message = _parse_error(argv)
    assert "the following arguments are required" in message
    assert all(x in message for x in named), message
    # a refused parse leaves the next one as it was
    assert "arguments are required: --in, --epsilon" in _parse_error(["stable", "partition"])


@pytest.mark.parametrize("name", sorted(_REQUIRED))
def test_required_flags_are_all_a_run_needs_to_parse(name):
    # past the parser: the report names its subcommand (missing files are input errors)
    code, rep = report(_run_argv(name))
    assert rep["subcommand"] == _REQUIRED[name][0]
    assert code == 0 or rep["error"]["kind"] == "input"


# an argv with each flag a run in the mode requires, per mode
_MODE_ARGV = {key: {mode: _run_argv(" ".join(filter(None, (*key, mode)))) for mode in modes}
              for key, modes in _MODES.items()}


@pytest.mark.parametrize("key, flag, kw, modes, other", [
    pytest.param(key, name, kw, modes, other, id=f"{key[0]} {name} in {other}")
    for key, (_, _, *rows) in cli.COMMANDS.items() for name, kw, *modes in rows if modes
    for other in _MODE_ARGV[key] if other not in modes])
def test_every_other_mode_refuses_a_mode_flag(key, flag, kw, modes, other):
    assert set(modes) < set(_MODE_ARGV[key])   # every mode named is one a run can be in
    code, rep = report(_MODE_ARGV[key][other] + [flag, _sample(kw)])
    assert code == 2 and rep["error"] == {
        "kind": "input", "message": f"{flag} applies only to {' or '.join(modes)}, not {other}"}


# each integer-range flag, in each mode that reads it
_RANGES = [pytest.param(name, flag, kw, id=f"{name} {flag}")
           for key, (_, _, *rows) in cli.COMMANDS.items() for mode in _MODES.get(key, [None])
           for flag, kw, *modes in rows
           if hasattr(kw.get("type"), "lo") and (not modes or mode in modes)
           for name in [" ".join(filter(None, (*key, mode)))]]


@pytest.mark.parametrize("name, flag, kw", _RANGES)
def test_integer_ranges_are_refused_as_the_flags_are_parsed(name, flag, kw):
    lo, hi = kw["type"].lo, kw["type"].hi
    inside, outside = ([lo], [lo - 1]) if hi is None else ([lo, hi], [lo - 1, hi + 1])
    argv = _run_argv(name, leave_out=flag)
    for n in inside:
        _, args = cli._parse_args(argv + [flag, str(n)])
        assert getattr(args, cli._dest(flag, kw)) == n
    for n in outside:
        message = _parse_error(argv + [flag, str(n)])
        assert f"argument {flag}: " in message and f" must be " in message
        assert f", not {n}" in message


def test_help_exits_zero_without_a_report():
    code, out, _ = run(["--help"])
    assert code == 0 and out.startswith("usage: vcreg")


def test_subcommand_help_marks_the_required_flags():
    code, out, _ = run(["vc", "net", "--help"])
    assert code == 0 and out.startswith("usage: vcreg vc net")
    marked = {line.split()[0] for line in out.splitlines() if line.endswith("(required)")}
    assert marked == {"--in", "--epsilon"}


@pytest.mark.parametrize("argv", [
    ["gen", "half-graph", "--sizes", "1048576,1048576"],   # 2^40 cells, over MAX_DIFF_BYTES
    ["gen", "half-graph", "--sizes", "4194305,1"],         # a side over MAX_DENSE_SPACE
    ["gen", "staircase", "--sizes", "1024,1024,1024"],
    ["gen", "dyadic-export", "--depth", "-1"],
    ["gen", "dyadic-export", "--depth", "11"],
    # a flag the kind does not read
    ["gen", "half-graph", "--sizes", "8,8", "--blocks", "3"],
    ["gen", "block-union", "--sizes", "8,8", "--cap", "3"],
    ["gen", "interval-graph", "--sizes", "8,8", "--depth", "3"],
    ["gen", "dyadic-export", "--depth", "3", "--sizes", "8,8"],
    ["gen", "random-vc-capped", "--sizes", "8,8", "--blocks", "2", "--cap", "3"],
])
def test_gen_refuses_an_unbuildable_instance_before_building(monkeypatch, argv):
    import vcreg.instances

    def never(*args, **kwargs):
        pytest.fail("a generator ran on a spec the guard should refuse")
    for builder in ("half_graph", "dyadic_hypergraph", "_staircase", "_interval_graph",
                    "_block_union", "_random_capped"):
        monkeypatch.setattr(vcreg.instances, builder, never)
    code, rep = report(argv)
    assert code == 2 and rep["error"]["kind"] == "input"


def test_gen_input_error_report_goes_to_stdout_not_to_the_instance_path(tmp_path):
    inst = tmp_path / "F.json"
    code, rep = report(["gen", "half-graph", "--sizes", "0,4", "--out", str(inst)])
    assert code == 2 and rep["subcommand"] == "gen"
    assert rep["error"] == {"kind": "input", "message": "part sizes must be positive integers"}
    assert not inst.exists()


def test_gen_internal_error_report_leaves_the_instance_path_unchanged(tmp_path, monkeypatch):
    import vcreg.instances

    def broken(*args, **kwargs):
        raise RuntimeError("generator broke")
    monkeypatch.setattr(vcreg.instances, "half_graph", broken)
    inst = tmp_path / "F.json"
    inst.write_text("an earlier instance\n")
    code, rep = report(["gen", "half-graph", "--sizes", "4,4", "--out", str(inst)])
    assert code == 3 and rep["subcommand"] == "gen"
    assert rep["error"] == {"kind": "internal", "type": "RuntimeError",
                            "message": "generator broke"}
    assert inst.read_text() == "an earlier instance\n"


def test_rect_refuses_eps_above_one(tmp_path):
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    code, rep = report(["reg", "rect", "--in", inst, "--epsilon", "2"])
    assert code == 2 and rep["subcommand"] == "reg rect"
    assert rep["error"] == {"kind": "input", "message": "eps must be in (0, 1]"}


def test_closed_stdout_ends_without_traceback():
    # a 183 KB report: more than a pipe holds, so the writer sees the close
    proc = subprocess.Popen([sys.executable, "-m", "vcreg.cli", "gen", "half-graph",
                             "--sizes", "200,200"], env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head.startswith(b"{") and "Traceback" not in err, err


def test_json_booleans_are_not_rationals(tmp_path, write_json):
    # true/false are ints to Python, but no weight or epsilon in a file
    inst = write_json("b.json", {
        "hypergraph": {"k": 2, "part_sizes": [2, 2], "edges": [[0, 0]]},
        "measures": [{"part": 0, "weights": [True, False]},
                     {"part": 1, "weights": ["1/2", "1/2"]}]})
    code, rep = report(["reg", "partition", "--in", inst, "--epsilon", "1/4"])
    assert code == 2 and rep["error"]["kind"] == "input"
    assert rep["error"]["message"] == "rational must be a 'num/den' string, got bool"
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "4,4", "--out", inst])
    code, rep = report(["reg", "verify", "--in", inst, "--partition",
                        write_json("p.json", {**_GOOD_PARTITION, "epsilon": True})])
    assert code == 2 and rep["error"]["kind"] == "input"
    assert rep["error"]["message"] == "rational must be a 'num/den' string, got bool"


def test_eh_box_checks_the_masses_of_the_reported_sides(tmp_path, monkeypatch):
    import vcreg.regularity
    inst = str(tmp_path / "h.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    # box {0} x {0} is one edge, of density 1, but each side weighs 1/8,
    # under the guarantee of 1/4 that the inflated side masses claim to meet
    light = vcreg.regularity.DenseBox(vcreg.Box.of([[0], [0]]), Fraction(1), (Fraction(1),) * 2,
                                      Fraction(1, 4), Fraction(1, 16))
    monkeypatch.setattr(vcreg.regularity, "find_dense_box", lambda *a: light)
    code, rep = report(["reg", "eh-box", "--in", inst, "--epsilon", "1/4", "--alpha", "1/4"])
    assert code == 1 and not rep["ok"]
    assert rep["verification"] == {"density_recomputed_equal": True,
                                   "density_above_threshold": True,
                                   "sides_above_guarantee": False}


# ------------------------------------------------ the one-entry instance memo

def _inputs() -> dict:
    """The memo's "input" table: sha256 of the last --in file -> its value."""
    return vcreg.MEMO.get("input", {})


def _report_text(argv):
    """(exit code, the report as written to stdout or --out, "timing" taken out)."""
    code, out, _ = run(argv)
    if "--out" in argv:
        out = pathlib.Path(argv[argv.index("--out") + 1]).read_text()
    return code, re.sub(r',?"timing":\{[^{}]*\}', "", out)


def _cold_text(argv):
    vcreg.reset()
    return _report_text(argv)


def _count_decodes(monkeypatch):
    calls = []
    real = cli.decode_json
    monkeypatch.setattr(cli, "decode_json", lambda *a: calls.append(a[1]) or real(*a))
    return calls


def test_consecutive_jobs_on_one_file_match_cold_jobs(tmp_path, monkeypatch):
    inst, out, part = (str(tmp_path / name) for name in ("b.json", "out.json", "p.json"))
    report(["gen", "block-union", "--sizes", "12,12", "--blocks", "3", "--seed", "2",
            "--out", inst])
    assert run(["reg", "partition", "--in", inst, "--epsilon", "1/4", "--out", part])[0] == 0
    jobs = [["reg", "partition", "--in", inst, "--epsilon", "1/4", "--out", out],
            ["reg", "partition", "--in", inst, "--epsilon", "1/8"],
            ["reg", "verify", "--in", inst, "--partition", part]]
    decodes = _count_decodes(monkeypatch)
    vcreg.reset()
    warm = [_report_text(argv) for argv in jobs]
    assert decodes == [inst] and list(_inputs()) == [_sha256(inst)]
    assert [code for code, _ in warm] == [0, 0, 0]
    assert [_cold_text(argv) for argv in jobs] == warm and len(decodes) == 4
    assert json.loads(warm[2][1])["inputs"]["files"]["in"] == _sha256(inst)


def test_a_rewritten_file_is_read_fresh(tmp_path):
    inst = str(tmp_path / "h.json")
    argv = ["reg", "partition", "--in", inst, "--epsilon", "1/4"]
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    code, first = report(argv)
    report(["gen", "block-union", "--sizes", "10,10", "--blocks", "2", "--out", inst])
    warm = _report_text(argv)
    assert warm == _cold_text(argv) and warm[0] == 0
    rep = json.loads(warm[1])
    assert rep["inputs"]["files"]["in"] == _sha256(inst) != first["inputs"]["files"]["in"]
    assert [len(c) for c in rep["outputs"]["partition"]["classes"][0]] != \
        [len(c) for c in first["outputs"]["partition"]["classes"][0]]


def test_a_new_file_is_built_once_the_last_one_is_dropped(tmp_path, monkeypatch):
    from vcreg.core import Hypergraph
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    report(["gen", "half-graph", "--sizes", "8,8", "--out", a])
    report(["gen", "block-union", "--sizes", "10,10", "--blocks", "2", "--out", b])
    held, real = [], Hypergraph.from_obj
    monkeypatch.setattr(Hypergraph, "from_obj",
                        staticmethod(lambda obj: held.append(len(_inputs())) or real(obj)))
    for inst in (a, b, b, a):
        assert report(["reg", "partition", "--in", inst, "--epsilon", "1/4"])[0] == 0
        assert list(_inputs()) == [_sha256(inst)]
    assert held == [0, 0, 0]   # never two instances held at once


@pytest.mark.parametrize("bad", [
    b'{"k": 2, "part_sizes": [8, 8], "edges": [[0, 1]',
    b"[1, 2]",
    b'{"k": 2, "part_sizes": [8, 8], "edges": [[0, 9]]}',
    b'{"hypergraph": {"k": 1, "part_sizes": [2], "edges": []}, "measures": {}}',
    b'{"k": 1, "part_sizes": [2], "edges": [], "measures": [{"part": 0, "weights": ["1/3"]}]}',
], ids=["malformed", "not-an-object", "bad-edge", "measures-not-a-list", "bad-measure"])
def test_a_failed_load_is_never_stored(tmp_path, bad):
    inst = str(tmp_path / "h.json")
    argv = ["reg", "partition", "--in", inst, "--epsilon", "1/4"]
    report(["gen", "half-graph", "--sizes", "8,8", "--out", inst])
    assert report(argv)[0] == 0 and list(_inputs()) == [_sha256(inst)]
    pathlib.Path(inst).write_bytes(bad)
    warm = _report_text(argv)
    assert _inputs() == {}
    assert warm[0] == 2 and json.loads(warm[1])["error"]["kind"] == "input"
    assert _cold_text(argv) == warm and _inputs() == {}


def test_uniform_job_after_a_weighted_job_replicates_part_0(write_json):
    # a symmetric 4-clique pair with other weights on each part
    edges = sorted([x, y] for c in (range(4), range(4, 8)) for x in c for y in c)
    w0 = ["1/8"] * 8
    w1 = ["1/4", "1/4", "1/16", "1/16", "1/16", "1/16", "1/8", "1/8"]
    inst = write_json("sym.json", {
        "hypergraph": {"k": 2, "part_sizes": [8, 8], "symmetric": True, "edges": edges},
        "measures": [{"part": 0, "weights": w0}, {"part": 1, "weights": w1}]})
    weighted = ["reg", "partition", "--in", inst, "--epsilon", "1/2"]
    uniform = weighted + ["--uniform"]
    cold = {" ".join(argv): _cold_text(argv) for argv in (weighted, uniform)}
    vcreg.reset()
    for argv in (weighted, uniform, weighted, uniform):
        assert _report_text(argv) == cold[" ".join(argv)]
    [(H, measures)] = _inputs().values()
    assert [m.to_obj()["weights"] for m in measures] == [w0, w1]
    assert json.loads(cold[" ".join(uniform)][1])["outputs"]["meta"]["uniform"] is True


def test_verify_on_a_cached_instance_recounts(tmp_path, monkeypatch):
    import vcreg.regularity
    inst, part = str(tmp_path / "h.json"), str(tmp_path / "p.json")
    report(["gen", "half-graph", "--sizes", "12,12", "--out", inst])
    assert run(["reg", "partition", "--in", inst, "--epsilon", "1/4", "--out", part])[0] == 0
    verify = ["reg", "verify", "--in", inst, "--partition", part]
    decodes = _count_decodes(monkeypatch)
    real = vcreg.regularity.recount_boxes

    def wrong(*args):   # every box's edge mass swapped for its non-edge mass
        counts, t, e, den = real(*args)
        return counts, t, t - e, den
    monkeypatch.setattr(vcreg.regularity, "recount_boxes", wrong)
    code, rep = report(verify)
    assert decodes == [] and code == 1
    assert rep["ok"] is False and rep["verification"]["ok"] is False
    assert rep["verification"]["violations"]
    monkeypatch.setattr(vcreg.regularity, "recount_boxes", real)
    code, rep = report(verify)
    assert decodes == [] and code == 0 and rep["verification"]["ok"] is True


# ------------------------------------------------- input errors and relabellings

def test_the_one_reader_names_a_set_family_and_checks_every_instances_measures(write_json):
    fam = write_json("fam.json", {"ground_size": 4, "members": [[0], [1, 2], [3]]})
    for argv in (["reg", "partition", "--epsilon", "1/4"], ["reg", "rect", "--epsilon", "1/4"],
                 ["stable", "ladder"], ["rodl", "search", "--eps", "1/4", "--m", "1"]):
        code, rep = report([*argv, "--in", fam])
        assert code == 2 and rep["error"] == {
            "kind": "input", "message": f"{fam} holds a set family, not a hypergraph"}
        assert rep["inputs"]["files"] == {"in": _sha256(fam)}
    assert report(["vc", "dim", "--in", fam])[0] == 0   # the memo's family, as vc reads it
    # a measure that does not sum to 1: refused by vc dim|shatter|net as by stable ladder
    bad = write_json("bad.json", {"hypergraph": {"k": 2, "part_sizes": [2, 2], "edges": [[0, 1]]},
                                  "measures": [{"part": 0, "weights": ["1/3"]}]})
    for argv in (["vc", "dim"], ["vc", "shatter", "--n", "1"], ["vc", "net", "--epsilon", "1/4"],
                 ["stable", "ladder"]):
        code, rep = report([*argv, "--in", bad])
        assert code == 2 and rep["error"] == {
            "kind": "input", "message": "measure weights on part 0 must sum to exactly 1"}
        assert rep["inputs"]["files"] == {"in": _sha256(bad)} and _inputs() == {}


# prime denominators of the two parts' weights; their product picks the
# arithmetic regime: float64 below 2^53, int64 below 2^62, Python ints beyond
_REGIME_PRIMES = {"float64": (97, 89), "int64": (2 ** 31 - 1,) * 2,
                  "bigint": (2 ** 31 - 1, 2 ** 61 - 1)}


@pytest.mark.parametrize("regime", list(_REGIME_PRIMES))
def test_reg_partition_verifies_on_every_relabelling(write_json, regime):
    """Each part's vertices permuted: the partition verifies with Sigma mass
    at most eps on every relabelling; the greedy net, and so the class
    counts, may move with the labels."""
    rng, sizes, primes = random.Random(regime), (24, 20), _REGIME_PRIMES[regime]
    assert (2 ** 53 <= prod(primes), 2 ** 62 <= prod(primes)) == \
        {"float64": (False, False), "int64": (True, False), "bigint": (True, True)}[regime]
    starts = [rng.randrange(16) for _ in range(sizes[0])]
    edges = [(x, y) for x, lo in enumerate(starts) for y in range(lo, lo + rng.randint(2, 8))
             if y < sizes[1]]
    weights = []
    for n, p in zip(sizes, primes):
        cuts = sorted(rng.sample(range(1, p), n - 1))
        weights.append([b - a for a, b in zip([0, *cuts], [*cuts, p])])
    eps = Fraction(1, 8)
    for trial in range(4):
        perms = [rng.sample(range(n), n) if trial else list(range(n)) for n in sizes]
        moved = [[0] * n for n in sizes]
        for i, perm in enumerate(perms):
            for v, w in enumerate(weights[i]):
                moved[i][perm[v]] = f"{w}/{primes[i]}"
        inst = write_json(f"{regime}-{trial}.json", {
            "hypergraph": {"k": 2, "part_sizes": list(sizes),
                           "edges": sorted([perms[0][x], perms[1][y]] for x, y in edges)},
            "measures": [{"part": i, "weights": moved[i]} for i in range(2)]})
        code, rep = report(["reg", "partition", "--in", inst, "--epsilon", str(eps)])
        assert code == 0 and rep["ok"] is True and rep["verification"]["ok"] is True, trial
        assert Fraction(rep["verification"]["sigma_mass"]) <= eps
        classes = rep["outputs"]["partition"]["classes"]
        assert [sorted(v for c in part for v in c) for part in classes] == \
            [list(range(n)) for n in sizes]


# one prime denominator per part: the stable descent weighs one part at a
# time, so each part's own denominator picks its arithmetic regime
_PART_PRIMES = {"float64": (97, 89), "int64": (2 ** 61 - 1,) * 2, "bigint": (2 ** 89 - 1,) * 2}


@pytest.mark.parametrize("regime", list(_PART_PRIMES))
def test_stable_partition_finds_the_relabelled_blocks(write_json, regime):
    """A weighted 24 x 20 union of 3 blocks, each part's vertices permuted:
    every relabelling gives an exactly homogeneous partition with Sigma
    empty whose classes are the relabelled blocks."""
    rng, sizes, primes = random.Random(regime), (24, 20), _PART_PRIMES[regime]
    assert {(2 ** 53 <= p, 2 ** 62 <= p) for p in primes} == \
        {{"float64": (False, False), "int64": (True, False), "bigint": (True, True)}[regime]}
    blocks = [sorted(rng.sample(range(1, n), 2)) for n in sizes]
    block_of = [[sum(v >= c for c in cuts) for v in range(n)] for cuts, n in zip(blocks, sizes)]
    edges = [(x, y) for x in range(sizes[0]) for y in range(sizes[1])
             if block_of[0][x] == block_of[1][y]]
    weights = []
    for n, p in zip(sizes, primes):
        cuts = set()
        while len(cuts) < n - 1:   # randrange: range(1, p) has no len() past 2^63
            cuts.add(rng.randrange(1, p))
        cuts = sorted(cuts)
        weights.append([b - a for a, b in zip([0, *cuts], [*cuts, p])])
    for trial in range(6):
        perms = [rng.sample(range(n), n) if trial else list(range(n)) for n in sizes]
        moved = [[0] * n for n in sizes]
        for i, perm in enumerate(perms):
            for v, w in enumerate(weights[i]):
                moved[i][perm[v]] = f"{w}/{primes[i]}"
        inst = write_json(f"{regime}-{trial}.json", {
            "hypergraph": {"k": 2, "part_sizes": list(sizes),
                           "edges": sorted([perms[0][x], perms[1][y]] for x, y in edges)},
            "measures": [{"part": i, "weights": moved[i]} for i in range(2)]})
        code, rep = report(["stable", "partition", "--in", inst, "--epsilon", "1/8"])
        assert code == 0 and rep["ok"] is True, (trial, rep.get("error"))
        ver = rep["verification"]
        assert ver["ok"] is True and ver["sigma_empty"] is True, trial
        assert ver["all_boxes_exactly_homogeneous"] is True, trial
        want = [sorted(sorted(perm[v] for v in range(n) if part[v] == b) for b in range(3))
                for perm, part, n in zip(perms, block_of, sizes)]
        assert [sorted(map(sorted, part)) for part in rep["outputs"]["partition"]["classes"]] \
            == want, trial
