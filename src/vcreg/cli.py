"""Command-line entry point wiring every module together.

Each computing subcommand emits one RunReport JSON object: the subcommand,
input hashes and flag values, the outputs, a non-empty verification section,
and timing. Reports are deterministic for fixed flags and seed except the
"timing" block. Rationals on the command line are "num/den" strings of ASCII
digits, read by the same `jsonio` grammar as the files.

Handlers return engine values as they are; `jsonio.canonical_dumps` is the
one encoder of reports and `--out` files. JSON-native values go out as they
are, a Fraction as "num/den", a set as a sorted list, a record through
`to_obj`, a numpy integer as an int; anything else raises TypeError. Every
dict key in a report is built as a str. `inputs.files` holds the sha256 of
the bytes of each file read once (`--in`, `--partition`, `--weights`) or
written (`gen --out`), so other whitespace gives another hash.

Exit codes: 0 all verifications pass; 1 a verification failed (e.g. a box
of the stable descents' pieces is not eps-homogeneous); 2 input error (unknown
or missing flags, flags the run does not read, malformed files, bad rationals,
a `gen` instance too large for any engine), whose report has "subcommand":
null if the parse refused the flags, a flag the run's mode does not read
included; 3 an internal error, a bug: any other exception, MemoryError
included, reported as error kind "internal" with its class name ("type").
Only `--help` writes no report. A closed stdout ends it without a
traceback. Handlers return (outputs, verification);
`main` alone sets "ok", true when every verification entry is True or
"skipped-large", except the data keys that carry figures (`DATA_KEYS`:
violations, sigma_mass, box_count, class_counts, note, results, edge_count,
measured). Any other value fails the run (exit 1).

`stable partition` also checks, on the verifier's own recount of the boxes
(`regularity.exactly_homogeneous`), that each labelled box holds none or all
of its mass. The descents promise only density below eps or above 1 - eps,
so this exact check can fail (exit 1) where the verifier passes.

One table, `COMMANDS`, declares each subcommand's handler and flags: their
argparse keywords, required state and the modes that read them (a `gen` kind;
`rodl search` is in graph mode with `--in`, else in ball mode). The parser,
the missing-flag message, the mode refusals and the dispatch read it. The
parse refuses every integer out of its range (`argument --m: m must be between
1 and 3, not 0`, or `must be >= 1`) and every flag missing where the run's mode
requires it (`required: --eps, --depth (ball mode)`). `selftest` filters that
match no check exit 2; `vc dim`, `vc shatter` and `vc net` refuse `--parts` on
a set family file, and every other `--in` subcommand refuses the file.

The argparse tree is built once per process. Jobs in one process share
vcreg's memo of the last `--in` file (`_load_instance`) and of the fiber
families' VC dimensions, which `vcreg.reset()` empties. Each handler imports the
engine modules and oracles it needs. `dyadic` and `convexity` never load
numpy, so the `dyadic` and `convexity` subcommands and `rodl search` without
`--in` (the ball scan, `dyadic.ball_family_search`) run without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from fractions import Fraction
from math import comb, prod

from . import remember
from .convexity import (IntegerInterval, ap_count, convexity_density,
                        reflection_involution_check)
from .dyadic import (EXPORT_DEPTHS, anti_homogeneity_bound_check, ball_family_search,
                     ball_parity_report, level_pair_counts, odd_split_density,
                     parse_balls)
from .errors import InputError, VerificationError
from .jsonio import (KINDS, MAX_COMPLEXITY, canonical_dumps, decode_json, dump_json,
                     load_json, parse_rational, read_bytes, require, write_bytes)


def _parse_ints(s: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in s.split(","))
    except ValueError:
        raise InputError(f"cannot parse {what} {s!r}") from None


def _parse_parts(s: str) -> tuple[int, ...]:
    parts = _parse_ints(s, "parts list")
    require(len(set(parts)) == len(parts), "repeated part index")
    return parts


# Flag types. argparse keeps the message of an ArgumentTypeError and
# replaces that of any other ValueError, an InputError too.
def _rational(s: str) -> Fraction:
    try:
        return parse_rational(s)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_interval(s: str) -> IntegerInterval:
    for sep in ("..", ":"):
        if sep in s:
            lo, hi = s.split(sep, 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                break
            try:
                return IntegerInterval(lo, hi)
            except InputError as exc:   # endpoints out of order
                raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"interval must look like 'lo..hi', got {s!r}")


def _int_in(what: str, lo: int, hi: int | None = None, why: str = ""):
    """The one integer flag type with a range: `what` >= lo, and <= hi if given;
    `why` follows a value above hi. It keeps lo and hi, and argparse names it
    int in "invalid int value"."""
    def parse(s: str) -> int:
        n = int(s)
        if n < lo or hi is not None and n > hi:
            bound = f">= {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"{what} must be {bound}, not {n}{why * (n > lo)}")
        return n
    parse.lo, parse.hi, parse.__name__ = lo, hi, "int"
    return parse


def _load_instance(path: str, files: dict, vc_args=None):
    """The --in file's Hypergraph and measures (uniform if it has none), or,
    given a `vc` subcommand's flags, a set family: the file's own, refusing
    --parts, or the fibers over --parts. The file is read and hashed on every
    call. The memo's "input" table keeps one file's value by sha256, so only
    other bytes are decoded, validated and built, under decode_json's
    collector pause."""
    from .core import Hypergraph, Measure, uniform_measures
    raw, digest = read_bytes(path)

    def build(obj):
        require(isinstance(obj, dict), f"{path} must hold a JSON object")
        files["in"] = digest
        if "members" in obj and "ground_size" in obj:
            from .vc import SetFamily
            return SetFamily.from_obj(obj)
        H = Hypergraph.from_obj(obj.get("hypergraph", obj))
        if "measures" not in obj:
            return H, uniform_measures(H)
        require(isinstance(obj["measures"], list), f"{path}: 'measures' must be a list")
        return H, tuple(Measure.from_obj(m) for m in obj["measures"])

    got = remember("input", 1, digest, lambda: decode_json(raw, path, build))
    files["in"] = digest
    if vc_args is None:
        require(isinstance(got, tuple), f"{path} holds a set family, not a hypergraph")
        return got
    if isinstance(got, tuple):
        from .vc import fiber_family
        return fiber_family(got[0], _parse_parts(vc_args.parts))
    require("parts" in vc_args.defaulted,
            "--parts applies only to a hypergraph input, not a set family")
    return got


# ---------------------------------------------------------------- handlers

def _cmd_vc_dim(args, files):
    from .oracles import brute_shatters
    from .vc import vc_dimension
    fam = _load_instance(args.infile, files, args)
    d = vc_dimension(fam, cap=args.cap, budget=args.budget)
    outputs = {"value": d.value, "capped": d.capped,
               "budget_exhausted": d.budget_exhausted,
               "display": d.display(), "witness": d.witness}
    witness_ok = d.value == 0 or brute_shatters(fam.members, d.witness)
    size_ok = d.value == 0 or len(d.witness) == d.value
    return outputs, {"witness_shattered": witness_ok, "witness_size_matches": size_ok}


def _cmd_vc_shatter(args, files):
    from .vc import shatter_function
    fam = _load_instance(args.infile, files, args)
    # largest n first: a refusal (vc.MAX_SHATTER_SUBSETS) precedes the counts
    vals = [shatter_function(fam, n) for n in range(args.n, -1, -1)][::-1]
    outputs = {"n": args.n, "value": vals[-1],
               "table": {str(n): v for n, v in enumerate(vals)}}
    verification = {
        "within_power_bound": all(v <= (1 << n) for n, v in enumerate(vals)),
        "monotone": all(vals[n] <= vals[n + 1] for n in range(args.n)),
    }
    return outputs, verification


def _cmd_vc_net(args, files):
    from .core import Measure
    from .vc import epsilon_net
    fam = _load_instance(args.infile, files, args)
    if args.weights is None:
        mu = Measure.uniform(0, fam.ground_size)
    else:
        wobj, files["weights"] = load_json(args.weights)
        mu = Measure.from_obj(wobj)
    net = epsilon_net(fam, mu, args.epsilon, strategy=args.strategy,
                      seed=args.seed if args.seed is not None else 0)
    outputs = {"points": net.points, "size": len(net.points),
               "strategy": net.strategy, "meta": net.meta}
    # every member's mass recounted in Python ints, not by the net's mass kernel
    nums, den = mu.numerators()
    en, ed, pts = args.epsilon.numerator, args.epsilon.denominator, set(net.points)
    return outputs, {"verified_exhaustively": net.verified and all(
        not pts.isdisjoint(m) for m in fam.members if sum(nums[v] for v in m) * ed >= en * den)}


def _cmd_reg_partition(args, files):
    from .core import Measure
    from .regularity import regular_partition, verify_regular_partition
    H, measures = _load_instance(args.infile, files)
    if args.uniform:
        # the symmetric variant runs on part 0's measure replicated everywhere
        measures = tuple(Measure(i, num_den=measures[0].numerators()) for i in range(H.k))
    rp = regular_partition(H, measures, args.epsilon, uniform=args.uniform)
    rep = verify_regular_partition(H, measures, rp)
    outputs = {"partition": rp.to_obj(), "meta": rp.meta,
               "class_counts": rp.class_counts()}
    return outputs, rep


def _cmd_reg_verify(args, files):
    from .regularity import RegularPartition, verify_regular_partition
    H, measures = _load_instance(args.infile, files)
    pobj, files["partition"] = load_json(args.partition)
    if isinstance(pobj, dict) and isinstance(pobj.get("outputs"), dict):
        pobj = pobj["outputs"].get("partition", pobj)
    rp = RegularPartition.from_obj(pobj)
    if args.epsilon is not None and args.epsilon != rp.epsilon:
        rp = dataclasses.replace(rp, epsilon=args.epsilon)
    rep = verify_regular_partition(H, measures, rp)
    return {"epsilon": rp.epsilon, "class_counts": rp.class_counts()}, rep


def _cmd_reg_rect(args, files):
    from .oracles import brute_union_mass_error
    from .regularity import rectangular_approximation
    H, measures = _load_instance(args.infile, files)
    ra = rectangular_approximation(H, measures, args.epsilon)
    outputs = {
        "boxes": [b.to_obj() for b in ra.boxes],
        "params": ra.params,
        "error": ra.error,
        "param_width": ra.param_width(),
        "bound_table": ra.levels,
    }
    recount = "skipped-large"
    if prod(H.part_sizes) <= 1 << 16:
        recount = brute_union_mass_error(H, measures, ra.boxes) == ra.error
    return outputs, {"error_below_eps": ra.error < args.epsilon, "brute_recount_equal": recount}


def _cmd_reg_ehbox(args, files):
    from .core import density
    from .regularity import find_dense_box
    H, measures = _load_instance(args.infile, files)
    db = find_dense_box(H, measures, args.alpha, args.epsilon)
    outputs = {"box": db.box, "density": db.density, "side_masses": db.side_masses,
               "delta_guarantee": db.delta_guarantee, "eps_used": db.eps_used,
               "partition_meta": db.partition_meta}
    dens = density(H, measures, db.box)
    verification = {
        "density_recomputed_equal": dens == db.density,
        "density_above_threshold": dens > 1 - db.eps_used,
        # the masses of the reported sides, not the builder's side_masses
        "sides_above_guarantee": all(m.mass(side) >= db.delta_guarantee > 0
                                     for m, side in zip(measures, db.box.sides)),
    }
    return outputs, verification


def _cmd_stable_ladder(args, files):
    from .stable import ladder_index
    H, measures = _load_instance(args.infile, files)
    cert = ladder_index(H, _parse_parts(args.parts), cap=args.cap,
                        budget=args.budget)
    outputs = {"length": cert.length, "display": cert.display(),
               "capped": cert.capped, "budget_exhausted": cert.budget_exhausted,
               "left": cert.left, "right": cert.right}
    return outputs, {"certificate_checks": cert.verify(H)}


def _cmd_stable_partition(args, files):
    from .regularity import exactly_homogeneous, recount_boxes, verify_regular_partition
    from .stable import DEPTH_CAP, stable_regular_partition
    H, measures = _load_instance(args.infile, files)
    cap = DEPTH_CAP if args.depth_cap is None else args.depth_cap
    sp = stable_regular_partition(H, measures, args.epsilon, depth_cap=cap)
    recount = recount_boxes(H, measures, sp.classes)   # one recount for both checks
    rep = verify_regular_partition(H, measures, sp, recount)
    homogeneous = exactly_homogeneous(H, measures, sp, recount)
    outputs = {"partition": sp.to_obj(), "meta": sp.meta,
               "class_counts": sp.class_counts()}
    return outputs, {**rep, "sigma_empty": len(sp.sigma) == 0,
                     "all_boxes_exactly_homogeneous": homogeneous}


def _cmd_dyadic_density(args, files):
    from .oracles import brute_dyadic_pair_count
    balls = parse_balls(args.prefix or [""])
    d = odd_split_density(balls, args.depth, parity=args.parity)
    counts = level_pair_counts(balls, args.depth)
    leaves = sum(b.leaf_count(args.depth) for b in balls)
    outputs = {"density": d, "level_pair_counts": counts,
               "leaf_count": leaves, "parity": args.parity}
    verification = {"levels_sum_to_all_pairs":
                    sum(counts) == leaves * leaves - leaves}
    if args.depth <= 8:
        want = 1 if args.parity == "odd" else 0
        hit, total = brute_dyadic_pair_count([b.prefix for b in balls],
                                             args.depth, parity=want)
        verification["brute_recount_equal"] = Fraction(hit, total) == d
    return outputs, verification


def _cmd_dyadic_report(args, files):
    rows = ball_parity_report(args.depth, parity=args.parity)
    return ({"rows": rows, "parity": args.parity},
            {"all_rows_within_bound": all(r["ok"] for r in rows)})


def _cmd_dyadic_bound(args, files):
    from .oracles import brute_dyadic_pair_count
    balls = parse_balls(args.prefix or [""])
    rep = anti_homogeneity_bound_check(balls, balls[0], args.depth,
                                       parity=args.parity)
    outputs = {"pair_mass": rep.pair_mass, "bound": rep.bound, "gamma": rep.gamma,
               "slack": rep.slack, "mu_union": rep.mu_union, "density": rep.density,
               "ball": balls[0].prefix or "(root)"}
    verification = {"pair_mass_within_bound": rep.verdict}
    if args.depth <= 8:
        want = 1 if args.parity == "odd" else 0
        hit, _ = brute_dyadic_pair_count([b.prefix for b in balls],
                                         args.depth, parity=want)
        verification["brute_recount_equal"] = \
            rep.pair_mass == Fraction(hit, 1 << (2 * args.depth))
    return outputs, verification


def _cmd_convexity_density(args, files):
    from .oracles import brute_convexity_edges
    iv = args.interval if args.interval else IntegerInterval(1, args.n)
    d = convexity_density(args.n, iv)
    n = len(iv)
    outputs = {"density": d, "interval": iv.to_obj(),
               "ap_count": ap_count(n), "triples": comb(n, 3),
               "distance_to_half": abs(d - Fraction(1, 2))}
    recount = "skipped-large"
    if n <= 200:
        edges, total = brute_convexity_edges(iv.points())
        recount = Fraction(edges, total) == d
    return outputs, {"brute_recount_equal": recount}


def _cmd_convexity_involution(args, files):
    holds = reflection_involution_check(args.interval)
    return {"interval": args.interval.to_obj(), "holds": holds}, {"involution_holds": holds}


def _cmd_rodl_search(args, files):
    if args.infile is None:   # ball mode: the ball scan, recounted by brute force to depth 8
        from .oracles import brute_dyadic_pair_count
        rep = ball_family_search(args.depth, args.epsilon, parity=args.parity)
        outputs = {"mode": "ball-family", "found": rep.found,
                   "prefix_length": rep.prefix_length, "density": rep.density,
                   "mass": rep.mass, "max_deviation": rep.max_deviation,
                   "scanned": rep.scanned}
        verification = {"deviation_recomputed_equal": "skipped-large"}
        if rep.found:
            verification["density_recomputed_equal"] = "skipped-large"
        if args.depth <= 8:
            want = 1 if args.parity == "odd" else 0
            dens = [Fraction(*brute_dyadic_pair_count(["0" * l], args.depth, parity=want))
                    for l in range(rep.scanned)]
            verification["deviation_recomputed_equal"] = \
                max(min(d, 1 - d) for d in dens) == rep.max_deviation
            if rep.found:
                verification["density_recomputed_equal"] = dens[rep.prefix_length] == rep.density
        return outputs, verification

    from .core import check_measures, edge_array
    from .homog import EXACT_TUPLE_BUDGET, definable_homogeneous_search
    H, measures = _load_instance(args.infile, files)
    measures = check_measures(H, measures)
    budget = EXACT_TUPLE_BUDGET if args.budget is None else args.budget
    res = definable_homogeneous_search(H, measures[0], args.epsilon, args.m,
                                       budget=budget, seed=args.seed or 0)
    outputs = {"mode": "boolean-combinations", "found": res.found,
               "examined": res.examined, "exhaustive": res.exhaustive}
    if res.found:
        outputs.update({"params": res.params, "patterns": res.patterns,
                        "vertices": res.vertices, "density": res.density,
                        "mass": res.mass})
        nums, den = measures[0].numerators()
        aset = set(res.vertices)
        e_num = sum(nums[x] * nums[y] for (x, y) in edge_array(H).tolist()
                    if x != y and x in aset and y in aset)
        w = sum(nums[v] for v in aset)
        tot = w * w - sum(nums[v] * nums[v] for v in aset)
        en, ed = args.epsilon.numerator, args.epsilon.denominator
        verification = {
            "density_recomputed_equal": Fraction(e_num, tot) == res.density,
            "mass_recomputed_equal": Fraction(w, den) == res.mass,
            "strictly_outside_band": e_num * ed < en * tot
            or (tot - e_num) * ed < en * tot,
        }
    else:
        n = H.part_sizes[0]
        covered = res.examined == comb(n, min(args.m, n)) if res.exhaustive \
            else res.examined == budget
        verification = {"scan_covered_claim": covered,
                        "note": "absence of a witness is a valid outcome"}
    return outputs, verification


def _cmd_gen(args, files):
    from .core import Hypergraph, edge_array
    from .instances import GeneratorSpec, generate
    # --out names the instance file; the report, whatever the outcome, goes to stdout
    out, args.out = args.out, None
    params = dict(args.mode_flags)
    # dyadic-export reads --depth, whose flag type checked dyadic_hypergraph's range
    sizes = _parse_ints(params.pop("sizes"), "sizes") if "sizes" in params \
        else (1 << args.depth,) * 2
    spec = GeneratorSpec(args.kind, sizes, len(sizes), args.seed or 0, tuple(params.items()))
    g = generate(spec)
    outputs = g.to_obj()
    # the instance's bytes, encoded once; their relation read back as `--in` reads it
    data = (canonical_dumps(outputs) + "\n").encode("utf-8")
    back = decode_json(data, out or "gen", lambda obj: Hypergraph.from_obj(obj["hypergraph"]))
    verification = {"roundtrip_equal": back == g.hypergraph,
                    "edge_count": len(edge_array(g.hypergraph)),
                    "measured": g.measured}
    if out:
        files["out"] = write_bytes(data, out)
    return outputs, verification


def _cmd_selftest(args, files):
    from .selftest import run_selftest
    rep = run_selftest(args.names or None)
    require(bool(rep.results), f"no check name contains {' or '.join(map(repr, args.names))}")
    for r in rep.results:
        tag = "PASS" if r["ok"] else "FAIL"
        print(f"{tag} {r['name']}: {r['detail']}", file=sys.stderr)
    return ({"passed": rep.passed, "failed": rep.failed},
            {"results": rep.results, "all_passed": rep.ok})


# ------------------------------------------------------------ command table

# Flag rows of several subcommands: (name, argparse keywords).
_IN = ("--in", {"dest": "infile", "required": True, "help": "instance or family JSON"})
_EPSILON = ("--epsilon", {"type": _rational, "required": True, "help": "exact rational like 1/4"})
_OUT = ("--out", {"help": "write the report here (atomic)"})
_PARTS = ("--parts", {"default": "0"})
_CAP = ("--cap", {"type": _int_in("cap", 1), "default": 8})
_BUDGET = ("--budget", {"type": _int_in("budget", 1)})
# Deepest dyadic tree: level pair counts reach 2^(2 depth - 1), and 2^14283
# has no more than 4300 decimal digits, the default limit on printing an int.
MAX_DYADIC_DEPTH = 7142
_DEPTH = ("--depth", {"required": True, "type": _int_in("depth", 0, MAX_DYADIC_DEPTH, (
    ": exact counts that deep exceed the 4300-digit limit on printing an integer"))})
_PARITY = ("--parity", {"choices": ("odd", "even"), "default": "odd", "help": "default odd"})
_PREFIX = ("--prefix", {"action": "append",
                        "help": "ball prefix; repeat for a union; first is B for `bound`"})

# Each subcommand, declared once: (cmd, sub) -> (handler, mode, *flag rows).
# A row is (name, argparse keywords, modes that read it...); "required" is
# checked by _parse_args, in the modes that read the row. `mode` maps parsed
# flags to the run's mode; a row naming modes is refused in the others and
# defaulted in its own, in the same walk of _parse_args.
COMMANDS = {
    ("vc", "dim"): (_cmd_vc_dim, None, _IN, _OUT, _PARTS, _CAP, _BUDGET),
    ("vc", "shatter"): (_cmd_vc_shatter, None, _IN, _OUT, _PARTS,
                        ("--n", {"type": _int_in("n", 0), "required": True})),
    ("vc", "net"): (
        _cmd_vc_net, None, _IN, _EPSILON, _OUT, _PARTS,
        ("--strategy", {"choices": ("greedy", "random"), "default": "greedy"}),
        ("--seed", {"type": int}), ("--weights", {"help": "Measure JSON for the ground set"})),
    ("reg", "partition"): (
        _cmd_reg_partition, None, _IN, _EPSILON, _OUT,
        ("--uniform", {"action": "store_true", "help": "symmetric single-partition variant"})),
    ("reg", "verify"): (
        _cmd_reg_verify, None, _IN, _OUT,
        ("--epsilon", {"type": _rational, "help": "check at this epsilon, not the partition's"}),
        ("--partition", {"required": True, "help": "partition JSON or a prior report"})),
    ("reg", "rect"): (_cmd_reg_rect, None, _IN, _EPSILON, _OUT),
    ("reg", "eh-box"): (_cmd_reg_ehbox, None, _IN, _EPSILON, _OUT,
                        ("--alpha", {"type": _rational, "required": True})),
    ("stable", "ladder"): (_cmd_stable_ladder, None, _IN, _OUT, _PARTS, _CAP, _BUDGET),
    ("stable", "partition"): (_cmd_stable_partition, None, _IN, _EPSILON, _OUT,
                              ("--depth-cap", {"type": _int_in("depth-cap", 1)})),
    ("dyadic", "density"): (_cmd_dyadic_density, None, _OUT, _DEPTH, _PARITY, _PREFIX),
    ("dyadic", "report"): (_cmd_dyadic_report, None, _OUT, _DEPTH, _PARITY),
    ("dyadic", "bound"): (_cmd_dyadic_bound, None, _OUT, _DEPTH, _PARITY, _PREFIX),
    ("convexity", "density"): (
        _cmd_convexity_density, None, _OUT, ("--n", {"type": _int_in("n", 3), "required": True}),
        ("--interval", {"type": _parse_interval})),
    ("convexity", "involution"): (_cmd_convexity_involution, None, _OUT,
                                  ("--interval", {"type": _parse_interval, "required": True})),
    ("rodl", "search"): (
        _cmd_rodl_search, lambda args: "ball mode" if args.infile is None else "graph mode",
        _OUT, ("--in", {"dest": "infile", "help": "instance JSON (graph mode)"}),
        ("--eps", {"dest": "epsilon", "type": _rational, "required": True}),
        ("--depth", {**_DEPTH[1], "help": "scan the split graph's balls"}, "ball mode"),
        (*_PARITY, "ball mode"),
        ("--m", {"type": _int_in("m", 1, MAX_COMPLEXITY), "required": True,
                 "help": "fiber-combination complexity"}, "graph mode"),
        (*_BUDGET, "graph mode"), ("--seed", {"type": int}, "graph mode")),
    # --seed is recorded in every spec, so every kind takes it
    ("gen", None): (
        _cmd_gen, lambda args: args.kind,
        ("kind", {"choices": KINDS, "nargs": "?", "required": True}),
        ("--sizes", {"required": True, "help": "comma-separated part sizes, e.g. 16,16"},
         *(kind for kind in KINDS if kind != "dyadic-export")),   # whose sizes are 2^depth
        ("--seed", {"type": int, "default": 0}),
        ("--blocks", {"type": _int_in("blocks", 1)}, "block-union"),
        ("--cap", {"dest": "vc_cap", "type": _int_in("cap", 1)}, "random-vc-capped"),
        ("--depth", {"type": _int_in("depth", *EXPORT_DEPTHS), "required": True}, "dyadic-export"),
        ("--out", {"help": "write the instance here (atomic)"})),
    ("selftest", None): (_cmd_selftest, None, _OUT,
                         ("names", {"nargs": "*", "help": "substring filters on check names"})),
}


def _dest(name: str, kw: dict) -> str:
    return kw.get("dest", name.lstrip("-").replace("-", "_"))


class _Parser(argparse.ArgumentParser):
    """No prefix matching (`--d` is not `--depth`) and parse errors as InputError,
    here and in every subparser (add_subparsers makes them of this class)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        flag, _, reason = message.partition(": ")
        if reason == "expected one argument":   # argparse took a value like -5..5 for a flag
            message += f"; a value that starts with '-' is passed as {flag.split()[-1]}=VALUE"
        raise InputError(f"{self.prog}: {message}")


@functools.cache   # parsing leaves the tree as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of COMMANDS. It requires nothing, so that one parse
    finds the missing arguments and the unknown ones; the help says which."""
    top = _Parser(prog="vcreg", description=__doc__)
    cmds, groups = top.add_subparsers(dest="cmd"), {}
    for (cmd, sub), (_, _, *rows) in COMMANDS.items():
        if sub is None:
            p = cmds.add_parser(cmd)
        else:
            if cmd not in groups:
                groups[cmd] = cmds.add_parser(cmd).add_subparsers(dest="sub")
            p = groups[cmd].add_parser(sub)
        for name, kw, *modes in rows:
            kw, notes = dict(kw), [f"{' or '.join(modes)} only"] if modes else []
            kw.pop("default", None)   # _parse_args fills it in, where it applies
            if kw.pop("required", False):
                notes.append("required")
            if notes:
                kw["help"] = f"{kw.get('help', '')} ({'; '.join(notes)})".lstrip()
            p.add_argument(name, **kw)
    return top


def _parse_args(argv) -> tuple[tuple, argparse.Namespace]:
    """(cmd, sub) and the flags of one parse, from one walk over the rows of
    COMMANDS. The missing arguments required in the run's mode are named with
    the unknown ones, as argparse names them; then a flag the run's mode does
    not read is refused. A flag's default is filled in where it was not given,
    in the modes that read it; `args.defaulted` names the dests filled so and
    `args.mode_flags` holds the (flag, value) pairs of the mode flags set."""
    args, extras = _build_parser().parse_known_args(argv)
    key = (args.cmd, getattr(args, "sub", None))
    _, mode, *rows = COMMANDS.get(key, (None, None))
    now = mode(args) if mode else None
    missing = [] if key in COMMANDS else ["sub" if args.cmd else "cmd"]
    refused, args.defaulted, args.mode_flags = "", set(), []
    for name, kw, *modes in rows:
        dest = _dest(name, kw)
        value = getattr(args, dest)
        if modes and now not in modes:
            if value is not None and not refused:
                refused = f"{name} applies only to {' or '.join(modes)}, not {now}"
            continue
        if value is None and kw.get("required"):
            missing.append(f"{name} ({now})" if modes else name)
        elif value is None and "default" in kw:
            value = kw["default"]
            setattr(args, dest, value)
            args.defaulted.add(dest)
        if modes and value is not None:
            args.mode_flags.append((name.lstrip("-"), value))
    errors = [f"the following arguments are required: {', '.join(missing)}"] * bool(missing) \
        + [f"unrecognized arguments: {' '.join(extras)}"] * bool(extras)
    if errors:   # argparse names the missing in the subparser, the unknown at the top
        prog = " ".join(filter(None, ("vcreg", *key))) if missing else "vcreg"
        raise InputError(f"{prog}: {'; '.join(errors)}")
    require(not refused, refused)
    return key, args


_FLAG_SKIP = {"cmd", "sub", "out", "defaulted", "mode_flags"}

# Verification entries that carry figures, not verdicts (see "Exit codes").
DATA_KEYS = frozenset({"violations", "sigma_mass", "box_count", "class_counts",
                       "note", "results", "edge_count", "measured"})


def _emit(report: dict, out_path: str | None):
    if out_path:
        dump_json(report, out_path)
        return
    try:
        print(canonical_dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left, and the exit flush, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    inputs = {"flags": {}, "files": {}}
    report = {"subcommand": None, "inputs": inputs}
    args = None
    try:
        try:
            key, args = _parse_args(argv)
        except SystemExit:   # --help wrote its text; parse errors raise InputError
            return 0
        report["subcommand"] = " ".join(filter(None, key))
        inputs["flags"] = {k: v for k, v in vars(args).items()
                           if k not in _FLAG_SKIP and v is not None}
        outputs, verification = COMMANDS[key][0](args, inputs["files"])
        verdicts = [v for k, v in verification.items() if k not in DATA_KEYS]
        require(bool(verdicts), "internal: no verdict in the verification section")
        ok = all(v is True or v == "skipped-large" for v in verdicts)
        report.update({"outputs": outputs, "verification": verification, "ok": ok})
        code = 0 if ok else 1
    except InputError as exc:
        report.update({"error": {"kind": "input", "message": str(exc)}, "ok": False})
        code = 2
    except VerificationError as exc:
        detail = {"kind": "verification", "message": str(exc)}
        if getattr(exc, "box", None) is not None:
            detail["box"] = exc.box
        if getattr(exc, "tree", None) is not None:
            detail["tree"] = exc.tree
        report.update({"error": detail, "ok": False})
        code = 1
    except Exception as exc:   # a bug, MemoryError included: a report, not a traceback
        report.update({"error": {"kind": "internal", "type": type(exc).__name__,
                                 "message": str(exc)}, "ok": False})
        code = 3
    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    _emit(report, getattr(args, "out", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
