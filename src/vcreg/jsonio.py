"""Exact-rational JSON serialization and the on-disk schemas.

Every rational crosses the boundary as a "num/den" string. One is read from
a JSON integer (not true/false) or an ASCII [0-9]+ or [0-9]+/[0-9]+, the
denominator nonzero; no sign, space, "_", other digit or decimal gets in.

Hypergraph JSON: {"k": int, "part_sizes": [int], "edges": [[int, ...]], "symmetric": bool}
Measure JSON:    {"part": int, "weights": ["num/den", ...]}
Set family JSON: {"ground_size": int in 0..2^22, "members": [[int in 0..ground_size-1, ...]]}
Partition JSON:  {"epsilon": "num/den" > 0, "classes": [[[int, ...]]] (per part, its classes),
                  "sigma": [[int, ...]], "labels": [[[int, ...], 0 or 1]],
                  "provenance": [[[int, ...]]] (per part, its parameter tuples)},
                 a box being one class index per part; `reg verify --partition`
                 also takes a whole report and reads its outputs.partition.
Generator spec:  {"kind": one of KINDS, "sizes": [int], "k": int, "seed": int, "params": {name: int}}
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import re
import tempfile
from fractions import Fraction

from .errors import InputError

# Generator kinds of instance files, and the largest fiber-combination
# complexity of `homog`'s search; here rather than in `instances` and `homog`
# so that the CLI's flag table reads them without importing the engines.
KINDS = ("interval-graph", "half-graph", "block-union", "staircase",
         "random-vc-capped", "dyadic-export")
MAX_COMPLEXITY = 3

# the docstring's rational string, and the numerals refused as decimals (those
# with a "." or an "e"); re compiles and caches each on first use, not while
# `import vcreg.cli` runs
_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_DECIMAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"


def parse_rational(s) -> Fraction:
    """Read one rational of the module docstring's grammar as a Fraction."""
    if type(s) is int:   # bool is an int subclass, but true/false are not numbers
        return Fraction(s)
    if type(s) is not str:
        raise InputError(f"rational must be a 'num/den' string, got {type(s).__name__}")
    num, _, den = s.partition("/")
    if re.fullmatch(_RATIONAL, s) and (not den or int(den)):
        return Fraction(int(num), int(den or 1))
    if ("." in s or "e" in s.lower()) and re.fullmatch(_DECIMAL, s):
        raise InputError(f"decimal rationals are not accepted: {s!r}")
    raise InputError(f"cannot parse rational {s!r}: not [0-9]+ or [0-9]+/[0-9]+ "
                     "with a nonzero denominator")


def rational_terms(items) -> tuple[list[int], list[int]]:
    """Numerators and denominators of a list of rationals read as parse_rational
    reads each: a type and a regex pass, then str.partition and int."""
    if items and set(map(type, items)) <= {str} and all(map(re.compile(_RATIONAL).fullmatch, items)):
        nums, _, dens = zip(*map(str.partition, items, itertools.repeat("/")))
        dens = [int(d) if d else 1 for d in dens]
        if 0 not in dens:
            return list(map(int, nums)), dens
    # an integer item, or a bad one, which parse_rational names
    qs = list(map(parse_rational, items))
    return [q.numerator for q in qs], [q.denominator for q in qs]


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _json_default(x):
    # a value the C encoder does not know; it encodes the result in turn
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if hasattr(x, "to_obj"):
        return x.to_obj()
    if hasattr(x, "__index__"):
        return int(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """The one JSON encoding of reports and files. Keys are sorted as they
    are, so every dict key must be built as a str."""
    # every report and file is an acyclic tree, so the encoder need not
    # keep an id per container to catch a cycle
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default,
                      check_circular=False)


def read_bytes(path) -> tuple[bytes, str]:
    """The bytes of a file and their sha256, read once."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return raw, hashlib.sha256(raw).hexdigest()


def decode_json(raw: bytes, path, build=None):
    """The UTF-8 JSON document `raw`, the bytes of the file `path`, or
    build(document) if a function is given.

    A parsed JSON tree holds no reference cycles, so a collection during the
    parse frees nothing; it only rescans every list parsed so far. The
    collector waits through the parse and `build`, which walks those lists
    again, and resumes, as the caller had it, once the tree is freed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            tree = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {path} as UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {path}: {exc}") from None
        if build is not None:
            tree = build(tree)   # the last reference to the parsed tree goes here
        return tree
    finally:
        if enabled:
            gc.enable()


def load_json(path):
    """The parsed UTF-8 JSON file and the sha256 of its bytes, read once."""
    raw, digest = read_bytes(path)
    return decode_json(raw, path), digest


def dump_json(obj, path) -> str:
    """Write the canonical form and a newline atomically (tmp file + rename,
    so no reader sees a torn file); returns the sha256 of the bytes written."""
    data = (canonical_dumps(obj) + "\n").encode("utf-8")
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return hashlib.sha256(data).hexdigest()


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)
