"""Output checks made from outside the program, plus report digests.

Every job's RunReport is parsed and classified. A job fails when it ends
without a report (an uncaught exception or a traceback), exits 2, or exits 0
with a report that is not ok. Exit 1 with a verification report is an honest
negative result, not a failure.

The checks never trust a verifier that shares kernels with the engine: a
`reg partition` or `stable partition` result on a product space of at most
2^12 tuples has its Sigma mass and every non-Sigma box density recounted
with the brute-force oracles, by plain tuple enumeration.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
from fractions import Fraction

from vcreg.core import Box, Hypergraph, Measure, uniform_measures
from vcreg.oracles import brute_density, brute_set_mass

BRUTE_SPACE = 1 << 12

# Defects on main that the corpus keeps on purpose (failures are counted,
# never filtered out): (subcommand, exception type, raising function).
KNOWN_DEFECTS = {
    ("stable partition", "ZeroDivisionError", "descent_step_bound"):
        "stable.descent_step_bound divides by log(1 - x**d) == 0 once x**d "
        "drops below float precision (a high ladder index at eps 1/8)",
}

# Exact values the package documents for these jobs.
VC_DIM_OF_KIND = {"half-graph": 1, "interval-graph": 2, "block-union": 1}


def subcommand_of(argv):
    return argv[0] if argv[0] in ("gen", "selftest") else f"{argv[0]} {argv[1]}"


def strip_volatile(report):
    """The report without `timing` and `trace`. The hash of a `--partition`
    input goes too: that file is a whole earlier report, timing included."""
    out = {k: v for k, v in report.items() if k not in ("timing", "trace")}
    files = out.get("inputs", {}).get("files", {})
    if "partition" in files:
        out["inputs"] = dict(out["inputs"],
                             files={k: v for k, v in files.items() if k != "partition"})
    return out


def report_digest(report):
    """sha256 of the canonical report with `timing` and `trace` removed."""
    text = json.dumps(strip_volatile(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def count_floats(obj):
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, float):
        return 1
    if isinstance(obj, dict):
        return sum(count_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(count_floats(v) for v in obj)
    return 0


_FRAME = re.compile(r'File ".*", line \d+, in (\S+)')


def failure_from_stderr(stderr):
    """(exception type, innermost function) from a printed traceback."""
    lines = [l for l in stderr.strip().splitlines() if l.strip()]
    if not lines or not any(l.startswith("Traceback") for l in lines):
        return None, None
    exc = lines[-1].split(":", 1)[0].strip()
    frames = [m.group(1) for m in map(_FRAME.search, lines) if m]
    return exc, frames[-1] if frames else None


def classify(code, report, exc_type=None):
    """'ok', 'negative' or 'failed', and a reason for failures."""
    if report is None:
        return "failed", exc_type or "no_report"
    if code == 2:
        return "failed", "exit_2"
    if code == 0 and report.get("ok") is not True:
        return "failed", "exit_0_not_ok"
    if code == 1:
        return "negative", None
    if code != 0:
        return "failed", f"exit_{code}"
    return "ok", None


class InstanceCache:
    """The last instance file read, as JSON and as vcreg objects; parsed
    again only when the file's content changes."""

    def __init__(self, workdir):
        self.workdir = workdir
        self._key = self._obj = self._model = None

    def obj(self, name):
        with open(os.path.join(self.workdir, name), "rb") as fh:
            raw = fh.read()
        key = hashlib.sha256(raw).hexdigest()
        if key != self._key:
            self._key, self._obj, self._model = key, json.loads(raw), None
        return self._obj

    def model(self, name):
        obj = self.obj(name)
        if self._model is None:
            H = Hypergraph.from_obj(obj.get("hypergraph", obj))
            if "measures" in obj:
                ms = tuple(Measure.from_obj(m) for m in obj["measures"])
            else:
                ms = uniform_measures(H)
            self._model = (H, ms)
        return self._model


def _side_masses(measures, classes):
    return [[sum((m.weights[v] for v in c), Fraction(0)) for c in part]
            for m, part in zip(measures, classes)]


def brute_partition_check(H, measures, partition, homogeneous=False):
    """Recount a partition with the oracles: (problems, brute Sigma mass)."""
    eps = Fraction(partition["epsilon"])
    classes = [[tuple(c) for c in part] for part in partition["classes"]]
    problems = []
    for i, part in enumerate(classes):
        if sorted(v for c in part for v in c) != list(range(H.part_sizes[i])):
            problems.append(f"part {i} classes are not a partition")
    if problems:
        return problems, None
    sigma = {tuple(s) for s in partition.get("sigma", [])}
    labels = {tuple(k): v for k, v in partition.get("labels", [])}
    sig_tuples = [t for key in sorted(sigma)
                  for t in itertools.product(*[classes[i][key[i]] for i in range(H.k)])]
    sigma_mass = brute_set_mass(H, measures, sig_tuples)
    if sigma_mass > eps:
        problems.append(f"sigma mass {sigma_mass} exceeds eps {eps}")
    if homogeneous and sigma:
        problems.append("stable partition has a nonempty sigma")
    masses = _side_masses(measures, classes)
    for key in itertools.product(*[range(len(p)) for p in classes]):
        if key in sigma:
            continue
        mass = Fraction(1)
        for i, ci in enumerate(key):
            mass *= masses[i][ci]
        if mass == 0:
            continue
        d = brute_density(H, measures, Box(tuple(classes[i][ci] for i, ci in enumerate(key))))
        lab = labels.get(key)
        if homogeneous:
            good = d in (0, 1) and (lab is None or d == lab)
        else:
            low, high = d < eps, 1 - d < eps
            good = high if lab == 1 else low if lab == 0 else (low or high)
        if not good:
            problems.append(f"box {list(key)} label {lab} has brute density {d}")
            break
    return problems, sigma_mass


def check_report(job, report, instances):
    """Outside checks of one ok (exit 0) report; returns problems."""
    sub = subcommand_of(job.argv)
    problems = []
    if report.get("subcommand") != sub:
        problems.append(f"subcommand {report.get('subcommand')!r} != {sub!r}")
    ver = report.get("verification")
    if not isinstance(ver, dict) or not ver:
        return problems + ["empty verification section"]
    out = report.get("outputs", {})
    if "density" in job.expect and out.get("density") != job.expect["density"]:
        problems.append(f"density {out.get('density')} != {job.expect['density']}")
    if sub == "gen" and ver.get("roundtrip_equal") is not True:
        problems.append("gen roundtrip failed")
    if sub == "vc dim":
        want = VC_DIM_OF_KIND.get(job.expect.get("instance_kind"))
        if want is not None and out.get("value") != want:
            problems.append(f"vc dim {out.get('value')} != {want}")
        if ver.get("witness_shattered") is not True:
            problems.append("vc dim witness not shattered")
    if sub in ("reg partition", "reg verify") and \
            (ver.get("ok") is not True or ver.get("violations")):
        problems.append("partition verification not ok")
    if sub == "stable partition" and not (
            ver.get("sigma_empty") is True
            and ver.get("all_boxes_exactly_homogeneous") is True):
        problems.append("stable partition is not sigma-free and homogeneous")
    if sub in ("reg partition", "stable partition") and job.instance:
        obj = instances.obj(job.instance)
        if math.prod((obj.get("hypergraph") or obj)["part_sizes"]) <= BRUTE_SPACE:
            H, ms = instances.model(job.instance)
            brute_problems, sigma_mass = brute_partition_check(
                H, ms, out["partition"], homogeneous=sub == "stable partition")
            problems += brute_problems
            if sigma_mass is not None and "sigma_mass" in ver and \
                    Fraction(ver["sigma_mass"]) != sigma_mass:
                problems.append(f"reported sigma mass {ver['sigma_mass']} != "
                                f"brute {sigma_mass}")
    return problems
