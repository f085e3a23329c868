"""The one JSON encoding of reports, files and input hashes."""

import gc
import json
from fractions import Fraction

import numpy as np
import pytest

from vcreg import cli, jsonio
from vcreg.errors import InputError
from vcreg.instances import half_graph
from vcreg.jsonio import _json_default, canonical_dumps, load_json


class Record:
    def to_obj(self):
        return {"mass": Fraction(1, 3), "members": {2, 1}}


class Opaque:
    def __str__(self):
        return "opaque"


def test_canonical_dumps_encoding_rules():
    value = {"fraction": Fraction(-6, 4), "set": {3, 1, 2},
             "frozenset": frozenset({"b", "a"}), "tuple": (1, (2, Fraction(1, 2))),
             "int64": np.int64(1 << 40), "record": [Record()],
             "native": [None, True, 0.5, "x", -7]}
    assert canonical_dumps(value) == (
        '{"fraction":"-3/2","frozenset":["a","b"],'
        '"int64":1099511627776,"native":[null,true,0.5,"x",-7],'
        '"record":[{"mass":"1/3","members":[1,2]}],"set":[1,2,3],"tuple":[1,[2,"1/2"]]}')
    # a value of no known type fails rather than being written as its str;
    # numpy 2's bool_ has no __index__, so it is one of them
    for unknown in (np.bool_(True), Opaque()):
        with pytest.raises(TypeError):
            canonical_dumps({"value": [unknown]})


def test_canonical_dumps_skips_only_the_cycle_check(write_json, monkeypatch, capsys):
    """Without the encoder's cycle check, the largest report the engines
    write (reg partition of the 256^2 half-graph at eps 1/16) encodes to
    the same bytes as with it."""
    reports = []
    monkeypatch.setattr(cli, "canonical_dumps", lambda rep: reports.append(rep) or "")
    path = write_json("half256.json", {"hypergraph": half_graph(256).to_obj()})
    assert cli.main(["reg", "partition", "--in", path, "--epsilon", "1/16"]) == 0
    capsys.readouterr()
    (rep,) = reports
    checked = json.dumps(rep, sort_keys=True, separators=(",", ":"), default=_json_default,
                         check_circular=True)
    assert len(checked) > 800_000 and canonical_dumps(rep) == checked


def test_load_json_parses_with_the_collector_paused(tmp_path, monkeypatch):
    seen = []
    real_loads = jsonio.json.loads

    def loads(text):
        seen.append(gc.isenabled())
        return real_loads(text)

    monkeypatch.setattr(jsonio.json, "loads", loads)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"edges": [[0, 1]]}')
    bad.write_text('{"edges": [[0, 1]')
    was = gc.isenabled()
    try:
        gc.enable()
        assert load_json(good)[0] == {"edges": [[0, 1]]}
        assert gc.isenabled()
        with pytest.raises(InputError, match="malformed JSON"):
            load_json(bad)
        assert gc.isenabled()
        # a collector the caller switched off stays off
        gc.disable()
        load_json(good)
        assert not gc.isenabled()
        with pytest.raises(InputError):
            load_json(bad)
        assert not gc.isenabled()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert seen == [False] * 4
