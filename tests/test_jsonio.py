"""The one JSON encoding of reports, files and input hashes."""

import gc
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vcreg
from vcreg import cli, jsonio
from vcreg.core import Measure
from vcreg.errors import InputError
from vcreg.instances import GeneratorSpec, generate
from vcreg.jsonio import _json_default, canonical_dumps, load_json, parse_rational


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
    """Without the encoder's cycle check, a report of the largest kind the
    engines write encodes to the same bytes as with it: reg partition of a
    random 256^2 relation of VC dimension <= 2 at eps 1/16, whose classes
    stay singletons (65,536 boxes)."""
    reports = []
    monkeypatch.setattr(cli, "canonical_dumps", lambda rep: reports.append(rep) or "")
    g = generate(GeneratorSpec("random-vc-capped", (256, 256), 2, 1))
    path = write_json("capped256.json", {"hypergraph": g.hypergraph.to_obj()})
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


def test_the_instance_is_built_with_the_collector_paused(tmp_path, monkeypatch, capsys):
    from vcreg.core import Hypergraph
    inst = str(tmp_path / "h.json")
    assert cli.main(["gen", "half-graph", "--sizes", "8,8", "--out", inst]) == 0
    seen, real = [], Hypergraph.from_obj
    monkeypatch.setattr(Hypergraph, "from_obj",
                        staticmethod(lambda obj: seen.append(gc.isenabled()) or real(obj)))
    vcreg.reset()
    assert gc.isenabled()
    assert cli.main(["reg", "partition", "--in", inst, "--epsilon", "1/4"]) == 0
    assert seen == [False] and gc.isenabled()


def test_decode_json_restores_the_callers_collector_around_build():
    def refuse(tree):
        raise InputError("refused")

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert jsonio.decode_json(b'[1]', "a.json", lambda t: (gc.isenabled(), t)) \
                == (False, [1])
            assert gc.isenabled() is enabled
            for raw, build in ((b'{"k": [1', None), (b'{"k": [1', refuse), (b'\xff', refuse),
                               (b'[1]', refuse)):
                with pytest.raises(InputError):
                    jsonio.decode_json(raw, "a.json", build)
                assert gc.isenabled() is enabled, (raw, build)
    finally:
        gc.enable() if was else gc.disable()


# reduced common denominators of the three arithmetic regimes
_DEN_RANGES = {"float64": (1, 2 ** 53 - 1), "int64": (2 ** 53, 2 ** 62 - 1),
               "bigint": (2 ** 62, 2 ** 100)}


@settings(max_examples=90, deadline=None, derandomize=True)
@given(regime=st.sampled_from(sorted(_DEN_RANGES)), data=st.data())
def test_rational_reader_matches_fraction(regime, data):
    # numerators summing to den, the first 1, so that den is the lcm of the
    # reduced weights' denominators; each weight written reduced, over den,
    # over a multiple of den, or (a zero) over any denominator
    den = data.draw(st.integers(*_DEN_RANGES[regime]))
    cuts = sorted(data.draw(st.lists(st.integers(1, den), max_size=6)))
    nums = [b - a for a, b in zip([0, 1] + cuts, [1] + cuts + [den])]
    texts = []
    for n in nums:
        q, m = Fraction(n, den), data.draw(st.integers(1, 2 ** 70))
        texts.append(data.draw(st.sampled_from([
            f"{q.numerator}/{q.denominator}", f"{n}/{den}", f"{n * m}/{den * m}",
            f"0/{m}" if n == 0 else f"{n}/{den}", str(q.numerator) if q.denominator == 1
            else f"0{n}/00{den}"])))
    assert [parse_rational(t) for t in texts] == [Fraction(t) for t in texts]
    mu = Measure.from_obj({"part": 0, "weights": texts})
    assert mu.numerators() == Measure(0, tuple(map(Fraction, texts))).numerators()
    assert mu.numerators()[1] == den and mu.to_obj()["weights"] == [
        jsonio.format_rational(Fraction(t)) for t in texts]
    # a near miss of one weight, including the classes Fraction reads
    # (signs, spaces, "_", non-ASCII digits), is refused by both readers
    i = data.draw(st.integers(0, len(texts) - 1))
    t = texts[i]
    miss = data.draw(st.sampled_from([
        "+" + t, "-" + t, " " + t, t + " ", t + "\n", t[0] + "_" + t[1:] if len(t) > 1 else "_" + t,
        t.replace("0", "٠").replace("1", "١").replace("2", "٢") + "٣",
        t.replace("/", "//") if "/" in t else t + "/", t + "/0", t + "/00", "/" + t,
        t.split("/")[0] + "/3/4", "", "1/-2", "１/２", "0x10"]))
    with pytest.raises(InputError):
        parse_rational(miss)
    with pytest.raises(InputError):
        Measure.from_obj({"part": 0, "weights": texts[:i] + [miss] + texts[i + 1:]})


@pytest.mark.parametrize("value, message", [
    (True, "rational must be a 'num/den' string, got bool"),
    (0.5, "rational must be a 'num/den' string, got float"),
    ("0.5", "decimal rationals are not accepted: '0.5'"),
    # a "." or an "e" alone does not make a decimal numeral
    ("one", "cannot parse rational 'one'"),
    ("1/2e", "cannot parse rational '1/2e'"),
    ("1/0", "cannot parse rational '1/0'"),
    # strings Fraction reads, refused by the file format: a sign, a space,
    # an "_" separator, non-ASCII digits
    ("-1/2", "cannot parse rational '-1/2'"),
    ("+1/2", "cannot parse rational '+1/2'"),
    (" 1/2", "cannot parse rational ' 1/2'"),
    ("1_0/3", "cannot parse rational '1_0/3'"),
    ("١/٢", "cannot parse rational '١/٢'"),
])
def test_rational_reader_messages(value, message):
    with pytest.raises(InputError) as exc:
        parse_rational(value)
    assert str(exc.value).startswith(message)
    with pytest.raises(InputError) as exc:
        Measure.from_obj({"part": 0, "weights": ["1/2", value]})
    assert str(exc.value).startswith(message)
