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

An instance file's edge list is decoded straight into one (n, k) int64 array
(`_edge_array`, on decode_json's instance route): only digits, commas,
brackets and JSON whitespace, k numbers per edge, no leading zero and at most
18 digits per vertex. json.loads reads the rest of the document, and reads
whole every document that decoder declines (an escape, "edges" other than
once, any other token or layout, bytes that are not UTF-8), so it names
every error as it would without the decoder.
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
# what follows an instance's "edges" key up to its list's "[", the string
# decode_json parses in that list's place, and _edge_array's code of each byte:
# "#" for a digit, " " for JSON whitespace, itself for ",[]" and 0 for any other
_AFTER_EDGES = rb"[ \t\n\r]*:[ \t\n\r]*\["
_SENTINEL = "vcreg:edge-array"
_CODES = bytes(ord("#") if b in b"0123456789" else ord(" ") if b in b" \t\n\r"
               else b if b in b",[]" else 0 for b in range(256))


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


def _edge_array(raw: bytes):
    """The value of an instance document's one "edges" key as an (n, k) int64
    array, and the document with the string _SENTINEL in that value's place;
    None where the value is not a list of n >= 1 lists of k plain integers.

    The value is found from the raw bytes: a document with a backslash (an
    escape) or with "edges" other than once is declined. Its bytes must be
    ASCII digits, ",", brackets and JSON whitespace, up to the last "]" before
    any other byte. With each digit run written "#" and the whitespace taken
    out, they must spell [[#,...,#],...] exactly, so the list is valid JSON;
    a run of at most 18 digits with no leading zero is an int below 2^63.
    Whatever follows stays in the document for json.loads to judge."""
    start = raw.find(b'"edges"')
    if b"\\" in raw or start < 0 or raw.find(b'"edges"', start + 1) >= 0:
        return None
    key = re.compile(_AFTER_EDGES).match(raw, start + 7)
    if key is None:
        return None
    start = key.end() - 1   # the "["
    code = raw.translate(_CODES)
    stop = code.find(b"\0", start)
    end = code.rfind(b"]", start, len(code) if stop < 0 else stop) + 1
    if end <= start:
        return None
    import numpy as np
    value = np.frombuffer(raw, np.uint8, end - start, start)
    code = np.frombuffer(code, np.uint8, end - start, start)
    digit = code == ord("#")
    bounds = np.flatnonzero(digit[1:] != digit[:-1]) + 1   # each digit run's start and end
    starts, lens = bounds[::2], bounds[1::2] - bounds[::2]
    keep = code > ord("#")   # ",[]" and each run's first digit, as "#"
    keep[starts] = True
    shape = code[keep].tobytes()
    n = shape.count(b"[") - 1
    k = len(starts) // max(n, 1)
    edge = b"[" + b"#," * (k - 1) + b"#]"
    if n < 1 or k < 1 or shape != b"[" + (edge + b",") * (n - 1) + edge + b"]":
        return None
    nums, top = value[starts] - ord("0"), int(lens.max())
    if top > 18 or ((nums == 0) & (lens > 1)).any():
        return None
    nums = nums.astype(np.int64)
    for j in range(1, top):   # Horner's rule, one digit column at a time
        nums = np.where(lens > j, nums * 10 + (value.take(starts + j, mode="clip") - 48), nums)
    return nums.reshape(n, k), raw[:start] + b'"%s"' % _SENTINEL.encode() + raw[end:]


def _instance_tree(raw: bytes):
    """The instance document `raw` with its edge list as _edge_array's int64
    array at obj.get("hypergraph", obj)["edges"], or None to parse it all."""
    found = _edge_array(raw)
    if found is None:
        return None
    edges, doc = found
    try:
        tree = json.loads(doc.decode("utf-8"))
    except (ValueError, RecursionError):   # json.loads on `raw` names the error
        return None
    hg = tree.get("hypergraph", tree) if isinstance(tree, dict) else None
    if not isinstance(hg, dict) or hg.get("edges") != _SENTINEL:
        return None
    hg["edges"] = edges
    return tree


def decode_json(raw: bytes, path, build=None):
    """The UTF-8 JSON document `raw`, the bytes of the file `path`, or
    build(document) if a function is given.

    `build` is given for an instance file, and is handed its edge list as an
    (n, k) int64 array where _edge_array reads it; json.loads reads the rest
    of the document, and every document the array decoder declines whole.

    A parsed JSON tree holds no reference cycles, so a collection during the
    parse frees nothing; it only rescans every list parsed so far. The
    collector waits through the parse and `build`, which walks those lists
    again, and resumes, as the caller had it, once the tree is freed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree = None if build is None else _instance_tree(raw)
        if tree is None:
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


def write_bytes(data: bytes, path) -> str:
    """Write `data` atomically (tmp file + rename, so no reader sees a torn
    file); returns its sha256."""
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


def dump_json(obj, path) -> str:
    """Write the canonical form and a newline with write_bytes; returns the
    sha256 of the bytes written."""
    return write_bytes((canonical_dumps(obj) + "\n").encode("utf-8"), path)


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)
