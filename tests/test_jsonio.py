"""The one JSON encoding of reports, files and input hashes."""

from fractions import Fraction

import numpy as np
import pytest

from vcreg.jsonio import canonical_dumps


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
