"""One workload in one fresh process: build inputs, run the timed loop, check.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts pinned to 1. One client runs jobs back to back in
a closed loop. In-process workloads call vcreg.cli.main(argv) with stdout
captured; cli-cold starts one `python -m vcreg.cli` process per job.
Every timed job is paired with runs of the reference unit of speed.py, and
its latency is reported normalised to a fixed machine speed.

With --trace 1 the same jobs run a second time with spans recorded, and
the ratio of the two normalised job times is the tracing overhead. The
traced pass takes its reference runs the same way, so span times include
the reference runs made inside them (about 0.6 %). End-to-end numbers
always come from the untraced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import spans
import speed
import workloads

import numpy
import vcreg.cli

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_TIMEOUT_S = 120


@dataclass
class Result:
    job: workloads.Job
    latency: float        # measured seconds, reference runs taken out
    code: int | None      # None: the job ended without a report
    text: str             # the RunReport as written
    exc_type: str | None = None
    exc_where: str | None = None
    ref: float | None = None   # reference time around the job (speed.py)

    @property
    def normalised(self):
        return self.latency if self.ref is None else speed.normalise(self.latency, self.ref)


def _read_report(job, code, stdout_text):
    if job.report_file and code is not None and os.path.exists(job.report_file):
        with open(job.report_file, encoding="utf-8") as fh:
            return fh.read()
    return stdout_text


def run_in_process(job, recorder=None, measure=False):
    """One in-process job; with `measure`, reference runs before, during
    (from a timer signal) and after it."""
    buf = io.StringIO()
    exc_type = exc_where = None
    if job.report_file and os.path.exists(job.report_file):
        os.unlink(job.report_file)
    if recorder is not None:
        recorder.job = job.id
    before = speed.bracket() if measure else []
    sampler = speed.InsideSampler() if measure else contextlib.nullcontext()
    with sampler:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = vcreg.cli.main(list(job.argv))
        except Exception as exc:  # a crashing job is a counted failure, not the end of the run
            code = None
            exc_type = type(exc).__name__
            exc_where = traceback.extract_tb(exc.__traceback__)[-1].name
        latency = time.perf_counter() - t0
    ref = None
    if measure:
        latency -= sampler.spent
        ref = speed.reference(before, sampler.samples, speed.bracket())
    if recorder is not None:
        recorder.job = None
    return Result(job, latency, code, _read_report(job, code, buf.getvalue()),
                  exc_type, exc_where, ref)


def run_cold(job, span_file=None):
    """One `python -m vcreg.cli` process, with reference runs just before
    and after it (run.py keeps this process and its children on one CPU)."""
    if job.report_file and os.path.exists(job.report_file):
        os.unlink(job.report_file)
    if span_file is None:
        cmd = [sys.executable, "-m", "vcreg.cli", *job.argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "coldtrace.py"), span_file,
               job.id, *job.argv]
    before = speed.bracket()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    latency = time.perf_counter() - t0
    ref = speed.reference(before, [], speed.bracket())
    code = proc.returncode
    exc_type, exc_where = checks.failure_from_stderr(proc.stderr)
    text = _read_report(job, code, proc.stdout)
    if exc_type is not None and not text.strip():
        code = None
    return Result(job, latency, code, text, exc_type, exc_where, ref)


def timed_loop(jobs, unit, min_jobs, seconds, runner, on_result):
    """Closed loop, one client. Each result is handed to `on_result` (the
    checks) outside the job time. Stops at the first unit boundary after
    `seconds` of normalised job time once `min_jobs` are done, so that the
    machine's speed does not decide how many passes a run makes. Returns the
    job count and the measured job time."""
    n, busy, normalised = 0, 0.0, 0.0
    for job in jobs:
        r = runner(job)
        on_result(r)
        busy += r.latency
        normalised += r.normalised
        n += 1
        if n % unit == 0 and n >= min_jobs and normalised >= seconds:
            break
    return n, busy


def per_job_latency(rows, key):
    """One latency per distinct job: the median over its repeats, so that a
    run of two identical passes yields the same statistics as one pass."""
    by_id = {}
    for row in rows:
        by_id.setdefault(row["id"], []).append(row[key])
    return {job_id: statistics.median(v) for job_id, v in by_id.items()}


def slowest_kind(rows, latency):
    """(kind, mean latency) of the job kind with the highest mean.

    One sub-second job still swings by about 10 % from run to run after
    normalisation; the mean over the draws of one kind does not. A median
    would jump between the modes of a kind whose draws split into fast and
    slow ones (cli-batch staircase/stable-partition)."""
    kind_of = {row["id"]: row["kind"] for row in rows}
    by_kind = {}
    for job_id, lat in latency.items():
        by_kind.setdefault(kind_of[job_id], []).append(lat)
    return max(((k, statistics.fmean(v)) for k, v in by_kind.items()),
               key=lambda kv: kv[1])


def latency_metrics(rows, key):
    """The latency metrics of one run from the per-job `key` times, plus
    what the record says about them."""
    latency = per_job_latency(rows, key)
    distinct = list(latency.values())
    tail_s, tail_pct = tail(distinct)
    max_kind, max_s = slowest_kind(rows, latency)
    metrics = {
        "jobs_per_s": len(rows) / sum(row[key] for row in rows),
        "job_p50_s": statistics.median(distinct),
        "job_tail_s": tail_s,
        "job_max_s": max_s,
    }
    extra = {"job_tail_percentile": tail_pct, "job_samples": len(distinct),
             "slowest_kind": max_kind,
             "slowest_job": max(latency.items(), key=lambda kv: kv[1])}
    return metrics, extra


def tail(latencies):
    """Highest percentile with at least ten jobs beyond it, and that
    percentile; the maximum when there are fewer than eleven jobs.

    The percentile is estimated by the mean of the five order statistics
    centred on it. A single order statistic moved by 10-15 % from run to run:
    each sub-second job still carries about 10 % noise after normalisation,
    and the tail position falls between clusters of jobs whose size depends
    on the seed."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 11:
        return lat[-1], 100.0
    at = n - 11
    return statistics.fmean(lat[max(0, at - 2):at + 3]), 100.0 * (n - 10) / n


class Evaluator:
    """Classifies each job, digests its report, counts floats and runs the
    outside checks. A job that repeats an earlier job id (a later pass over
    the same inputs) must reproduce its digest; it is not checked again."""

    def __init__(self, instances, check=True):
        self.instances = instances
        self.check = check
        self.rows, self.problems = [], []
        self.floats = 0
        self._seen = {}

    def __call__(self, r):
        sub = checks.subcommand_of(r.job.argv)
        report = None
        if r.code is not None and r.text.strip():
            try:
                report = json.loads(r.text)
            except json.JSONDecodeError:
                report = None
        status, reason = checks.classify(r.code, report, r.exc_type)
        row = {"id": r.job.id, "kind": r.job.kind, "latency_s": r.normalised,
               "raw_s": r.latency, "ref_s": r.ref, "code": r.code, "status": status}
        if report is not None:
            row["digest"] = checks.report_digest(report)
            row["floats"] = checks.count_floats(checks.strip_volatile(report))
            self.floats += row["floats"]
        self.rows.append(row)
        first = self._seen.setdefault(r.job.id, row)
        if first is not row:
            if first.get("digest") != row.get("digest") or first["status"] != status:
                self.problems.append(f"{r.job.id}: report differs from its first run")
            return
        if status == "failed":
            row.update(reason=reason, exception=r.exc_type, raised_in=r.exc_where)
            known = checks.KNOWN_DEFECTS.get((sub, r.exc_type, r.exc_where))
            if known:
                row["known_defect"] = known
            else:
                self.problems.append(f"{r.job.id}: unexpected failure {reason} "
                                     f"({r.exc_type} in {r.exc_where})")
        elif status == "ok" and self.check:
            try:
                found = checks.check_report(r.job, report, self.instances)
            except Exception as exc:  # a check that cannot run is a failed check
                found = [f"check raised {type(exc).__name__}: {exc}"]
            self.problems.extend(f"{r.job.id}: {p}" for p in found)
        elif status == "negative" and not (report.get("verification")
                                           or report.get("error")):
            self.problems.append(f"{r.job.id}: exit 1 without a verification report")


def workload_digest(per_job, n):
    h = hashlib.sha256()
    for row in per_job[:n]:
        h.update(f"{row['id']} {row.get('digest') or row.get('exception')}\n".encode())
    return h.hexdigest()


def traced_pass(wl, jobs, on_result):
    """The jobs again with spans recorded; returns the recorder and the wall
    time. cli-cold jobs run under coldtrace.py, which writes its spans to a
    file that is merged here."""
    rec = spans.Recorder()
    if wl.in_process:
        patcher = spans.install(rec)
        try:
            _, wall = timed_loop(jobs, 1, len(jobs), 0,
                                 lambda j: run_in_process(j, rec, measure=True),
                                 on_result)
        finally:
            patcher.undo()
        return rec, wall

    span_file = os.path.abspath("job.spans.json")

    def runner(job):
        r = run_cold(job, span_file)
        if os.path.exists(span_file):
            with open(span_file, encoding="utf-8") as fh:
                got = json.load(fh)
            os.unlink(span_file)
            base = len(rec.spans)
            for name, t0, t1, parent, job_id in got["spans"]:
                rec.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, job_id])
            for k, v in got["counters"].items():
                rec.counters[k] = rec.counters.get(k, 0) + v
        return r

    _, wall = timed_loop(jobs, 1, len(jobs), 0, runner, on_result)
    return rec, wall


def alloc_probe(rec, jobs):
    """Re-run the first job that called delta_approx_partition with
    tracemalloc on around that function only. Its time is not measured."""
    first = next((s[4] for s in rec.spans
                  if s[0] == "regularity.delta_approx_partition"), None)
    job = next((j for j in jobs if j.id == first), None)
    if job is None:
        return 0.0, None
    probe = spans.PeakAlloc()
    p = spans.Patcher()
    p.patch(probe.wrapper, want=lambda name: name == "regularity.delta_approx_partition")
    try:
        run_in_process(job)
    finally:
        p.undo()
    return probe.peak / 2**20, job.id


def layer_metrics(rec, jobs):
    rows, modules, counters = spans.summarize(rec.spans, rec.counters)

    def s(name, key="s"):
        return rows.get(name, {}).get(key, 0)

    def c(name):
        return counters.get(name, 0)

    m = {
        "cli.main.self_s": s("cli.main", "self_s"),
        "cli.jsonable.s": s("cli.jsonable"),
        "jsonio.load_json.s": s("jsonio.load_json"),
        "jsonio.load_json.bytes": c("jsonio.load_json.bytes"),
        "jsonio.canonical_dumps.s": s("jsonio.canonical_dumps"),
        "jsonio.canonical_dumps.bytes": c("jsonio.canonical_dumps.bytes"),
        "jsonio.dump_json.s": s("jsonio.dump_json"),
        "jsonio.dump_json.bytes": c("jsonio.dump_json.bytes"),
        "core.Hypergraph.post_init.calls": s("core.Hypergraph.post_init", "calls"),
        "core.Hypergraph.from_obj.s": s("core.Hypergraph.from_obj"),
        "core.BinaryView.init.s": s("core.BinaryView.init"),
        "core.ProductSpace.init.s": s("core.ProductSpace.init"),
        "core.density.s": s("core.density"),
        "vc.SetFamily.from_matrix.s": s("vc.SetFamily.from_matrix"),
        "vc.SetFamily.from_matrix.rows": c("vc.SetFamily.from_matrix.rows"),
        "vc.epsilon_net.s": s("vc.epsilon_net"),
        "vc.epsilon_net.heavy_members": c("vc.epsilon_net.heavy_members"),
        "vc.epsilon_net.net_size": c("vc.epsilon_net.net_size"),
        "vc.vc_dimension.s": s("vc.vc_dimension"),
        "regularity.delta_approx_partition.s": s("regularity.delta_approx_partition"),
        "regularity.delta_approx_partition.self_s":
            s("regularity.delta_approx_partition", "self_s"),
        "regularity.delta_approx_partition.fibers":
            c("regularity.delta_approx_partition.fibers"),
        "regularity.delta_approx_partition.classes":
            c("regularity.delta_approx_partition.classes"),
        "regularity.rectangular_approximation.self_s":
            s("regularity.rectangular_approximation", "self_s"),
        "regularity.regular_partition.self_s": s("regularity.regular_partition", "self_s"),
        "regularity.regular_partition.boxes": c("regularity.regular_partition.boxes"),
        "regularity.regular_partition.sigma_boxes":
            c("regularity.regular_partition.sigma_boxes"),
        "regularity.verify_regular_partition.s": s("regularity.verify_regular_partition"),
        "regularity.verify_regular_partition.boxes":
            c("regularity.verify_regular_partition.boxes"),
        "stable.ladder_index.s": s("stable.ladder_index"),
        "stable.good_descent_partition.s": s("stable.good_descent_partition"),
        "stable.good_descent_partition.steps": c("stable.good_descent_partition.steps"),
        "stable.stable_regular_partition.self_s":
            s("stable.stable_regular_partition", "self_s"),
        "stable.stable_regular_partition.rounds_used":
            c("stable.stable_regular_partition.rounds_used"),
        "instances.generate.s": s("instances.generate"),
        "oracles.s": modules.get("oracles", 0.0),
        "dyadic.s": modules.get("dyadic", 0.0),
        "convexity.s": modules.get("convexity", 0.0),
        "homog.s": modules.get("homog", 0.0),
    }
    for name in ("brute_shatters", "brute_union_mass_error",
                 "brute_dyadic_pair_count", "brute_convexity_edges"):
        m[f"oracles.{name}.s"] = s(f"oracles.{name}")
    rows_in = c("vc.SetFamily.from_matrix.rows")
    m["vc.SetFamily.from_matrix.dedup_ratio"] = (
        c("vc.SetFamily.from_matrix.members") / rows_in if rows_in else 0.0)
    dcalls = s("regularity.delta_approx_partition", "calls")
    m["regularity.delta_approx_partition.net_path_share"] = (
        c("regularity.delta_approx_partition.net_path") / dcalls if dcalls else 0.0)
    views = s("core.binary_view", "calls")
    m["core.binary_view.hit_ratio"] = (
        1 - s("core.BinaryView.init", "calls") / views if views else 0.0)
    # jobs per arithmetic regime, among the jobs that built box statistics
    boxed = {sp[4] for sp in rec.spans
             if sp[0] in ("core.ProductSpace.init", "core.density")}
    regimes = dict.fromkeys(workloads.REGIME_RANGE, 0)
    for job_id, inst in {j.id: j.instance for j in jobs}.items():
        if job_id in boxed and inst:
            regimes[workloads.instance_regime(inst)] += 1
    for name, n in regimes.items():
        m[f"core.regime.{name}.jobs"] = n
    return m, rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--replay", type=int, default=0,
                    help="run exactly the first N jobs with spans recorded")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    os.chdir(args.workdir)
    wl = workloads.BUILDERS[args.workload](args.seed, ".")
    instances = checks.InstanceCache(".")
    if args.replay:
        return replay(args, wl, instances)

    if wl.in_process:
        runner = functools.partial(run_in_process, measure=True)
    else:
        runner = run_cold
    ev = Evaluator(instances)
    t0 = time.perf_counter()
    n, wall = timed_loop(wl.jobs, wl.unit, max(wl.digest_jobs, wl.min_jobs),
                         args.seconds, runner, ev)
    loop_s = time.perf_counter() - t0
    # our own process; for cli-cold, the largest child
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    metrics, extra = latency_metrics(ev.rows, "latency_s")
    raw_metrics, _ = latency_metrics(ev.rows, "raw_s")
    metrics["peak_rss_mb"] = raw_metrics["peak_rss_mb"] = peak_rss_mb
    n_failed = sum(1 for row in ev.rows if row["status"] == "failed")
    out = {
        "workload": args.workload,
        "numpy": numpy.__version__,
        "attempted": n,
        "failed": n_failed,
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        **extra,
        "speed": {"nominal_s": speed.NOMINAL_S,
                  "reference_median_s": statistics.median(r["ref_s"] for r in ev.rows)},
        "failed_share": n_failed / n,
        "timed_wall_s": wall,
        "timed_normalised_s": sum(row["latency_s"] for row in ev.rows),
        "loop_wall_s": loop_s,
        "negative_results": sum(1 for row in ev.rows if row["status"] == "negative"),
        "float_fields": ev.floats,
        "workload_digest": workload_digest(ev.rows, wl.digest_jobs),
        "digest_jobs": wl.digest_jobs,
        "problems": ev.problems,
        "jobs": ev.rows,
        "notes": wl.notes,
    }
    if wl.notes.get("regime_of_instance"):
        counts = dict.fromkeys(workloads.REGIME_RANGE, 0)
        for row in ev.rows:
            counts[wl.notes["regime_of_instance"][row["id"].split("/", 1)[0]]] += 1
        out["regime_jobs"] = counts
        if not all(counts.values()):
            ev.problems.append(f"an arithmetic regime ran no job: {counts}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def replay(args, wl, instances):
    """The traced run: the first N jobs again, in a fresh process like the
    untraced run, with spans; then the allocation probe."""
    jobs = list(itertools.islice(wl.jobs, args.replay))
    ev = Evaluator(instances, check=False)
    rec, wall = traced_pass(wl, jobs, ev)
    layers, rows = layer_metrics(rec, jobs)
    layers["jsonio.float_fields"] = ev.floats
    t = time.perf_counter()
    peak_mb, probe_job = alloc_probe(rec, jobs)
    layers["regularity.delta_approx_partition.peak_alloc_mb"] = peak_mb
    out = {"traced_wall_s": wall,
           "traced_normalised_s": sum(row["latency_s"] for row in ev.rows),
           "reference_median_s": statistics.median(row["ref_s"] for row in ev.rows),
           "layers": layers, "span_rows": rows,
           "digests": [row.get("digest") for row in ev.rows],
           "alloc_probe": {"job": probe_job, "s": time.perf_counter() - t},
           "spans": len(rec.spans)}
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for sp in rec.spans:
                fh.write(json.dumps(sp) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
