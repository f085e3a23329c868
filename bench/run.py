"""vcreg benchmark: one command runs a workload, checks it, prints metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare OLD NEW

Run from the root of a checkout. The package is not installed: it runs from
the checkout's src/ through PYTHONPATH, with the OpenMP/BLAS thread counts
pinned to 1. Each run:

  1. starts fresh interpreters that import vcreg.cli and reports the median
     spawn-to-import time as setup_s;
  2. runs the workload in one fresh worker process (bench/worker.py): one
     client, closed loop, for --seconds, then checks every job's report;
  3. prints one line per metric and, last, one JSON object with `correct`,
     `attempted`, `failed` and `metrics` (the end-to-end metrics of
     BENCHMARK.json, or its per-layer metrics with --trace 1);
  4. writes a full run record to .bench_records/ for --compare.

Every time in the result line is normalised to a fixed machine speed with
the reference unit of speed.py, measured on the same CPU around (and, in
process, during) each timed interval; this process and all it starts stay
on one CPU. The record holds the raw times too.

--compare diffs two record files or directories of them, metric by metric
and workload by workload, against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RECORDS = os.path.join(ROOT, ".bench_records")
RUN_LIMIT_S = 175
SETUP_SPAWNS = 12
NUMPY_SPAWNS = 5
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PROBE = ("import time; t0 = time.perf_counter(); import {mod}; "
         "t1 = time.perf_counter(); print(repr(t0), repr(t1))")


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_import(mod, env, cwd):
    """(interpreter start, import time, spawn-to-import, reference time) of
    one fresh process; the first three measured, the last from reference
    runs just before and after it."""
    before = speed.bracket()
    ts = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE.format(mod=mod)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60,
                          check=True)
    t0, t1 = (float(x) for x in proc.stdout.split())
    ref = speed.reference(before, [], speed.bracket())
    return t0 - ts, t1 - t0, t1 - ts, ref


def process_metrics(cli, numpy, norm=True):
    """Medians over the spawns, normalised to the nominal speed or raw."""
    def med(samples, i):
        return statistics.median(speed.normalise(c[i], c[3]) if norm else c[i]
                                 for c in samples)
    out = {"setup_s": med(cli, 2),
           "process.interpreter_s": med(cli, 0),
           "process.import_vcreg_cli_s": med(cli, 1)}
    if numpy:
        out["process.import_numpy_s"] = med(numpy, 1)
    return out


def line_counts():
    out, total = {}, 0
    pkg = os.path.join(SRC, "vcreg")
    for path in sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            n = sum(1 for _ in fh)
        name = os.path.relpath(path, pkg)[:-3].replace(os.sep, ".")
        out[f"loc.{name}"] = n
        total += n
    out["loc.total"] = total
    return out


class WorkerFailed(Exception):
    pass


def worker(args, env, workdir, start, extra):
    """Run bench/worker.py in a fresh process and return its result."""
    out = os.path.join(workdir, "worker-result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--out", out, *extra]
    budget = RUN_LIMIT_S - (time.perf_counter() - start)
    # its own session, so that a timeout also stops the cli-cold job it runs
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed("the run exceeded its time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise WorkerFailed(f"exit code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(args):
    if not os.path.isfile(os.path.join(SRC, "vcreg", "cli.py")):
        print(f"no vcreg package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    start = time.perf_counter()
    speed.pin_one_cpu()
    env = child_env()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(RECORDS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    rec_base = os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    try:
        spawn_import("vcreg.cli", env, workdir)  # warm the bytecode cache; not counted
        # half the setup probes before the workload and half after, so that
        # setup_s spans the whole run
        cli = [spawn_import("vcreg.cli", env, workdir) for _ in range(SETUP_SPAWNS // 2)]
        res = worker(args, env, workdir, start, ["--seconds", str(args.seconds)])
        if args.trace:
            traced = worker(args, env, workdir, start,
                            ["--replay", str(res["attempted"]),
                             "--spans-out", rec_base + ".spans.jsonl"])
        cli += [spawn_import("vcreg.cli", env, workdir) for _ in range(SETUP_SPAWNS // 2)]
        numpy = [spawn_import("numpy", env, workdir)
                 for _ in range(NUMPY_SPAWNS if args.trace else 0)]
    except WorkerFailed as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    proc_metrics = process_metrics(cli, numpy)
    computed = dict(res["metrics"])
    computed["setup_s"] = proc_metrics["setup_s"]
    raw = dict(res["raw_metrics"])
    raw["setup_s"] = process_metrics(cli, [], norm=False)["setup_s"]
    problems = list(res["problems"])
    layers = {}
    if args.trace:
        layers.update(traced["layers"])
        layers["trace.overhead_share"] = (traced["traced_normalised_s"]
                                          / res["timed_normalised_s"] - 1)
        for row, digest in zip(res["jobs"], traced["digests"]):
            if row.get("digest") != digest:
                problems.append(f"{row['id']}: traced report differs from untraced")
    layers.update({k: v for k, v in proc_metrics.items() if k.startswith("process.")})
    loc = line_counts()
    layers.update(loc)
    layers["jobs.failed_share"] = res["failed_share"]

    kind = "per_layer" if args.trace else "end_to_end"
    pool = layers if args.trace else computed
    missing = [m["name"] for m in bench[kind] if m["name"] not in pool]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": pool.get(m["name"], 0), "unit": m["unit"]}
               for m in bench[kind]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": res.get("numpy"), "platform": platform.platform(),
                "threads": {k: env.get(k) for k in (*THREAD_ENV, "VCREG_THREADS")}},
        "end_to_end": computed, "end_to_end_raw": raw, "per_layer": layers, "loc": loc,
        "setup_samples": [{"s": c[2], "ref_s": c[3]} for c in cli],
        **{k: v for k, v in res.items() if k not in ("metrics", "raw_metrics")},
        "traced": {k: v for k, v in traced.items() if k != "layers"} if args.trace else None,
        "problems": problems,
    }
    with open(rec_base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        measured = f"  (measured {raw[name]:.6g})" if name in raw else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{measured}")
    print(f"times are normalised to the speed at which the reference unit takes "
          f"{speed.NOMINAL_S * 1e3:g} ms; it took {res['speed']['reference_median_s'] * 1e3:.4g} "
          f"ms (median) in this run")
    print(f"job_tail_s is p{res['job_tail_percentile']:.1f} of {res['job_samples']} jobs; "
          f"failed_share = {res['failed_share']:.4f} "
          f"({res['failed']}/{res['attempted']}); negative results = "
          f"{res['negative_results']}; workload digest {res['workload_digest'][:16]}")
    known = sorted({(r["id"].split("/")[-1], r.get("exception")) for r in res["jobs"]
                    if r.get("known_defect")})
    if known:
        print(f"known defects hit: {known}")
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    print(f"record: {os.path.relpath(rec_base, ROOT)}.json")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


# ------------------------------------------------------------------ compare

def _records(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def compare(old_path, new_path):
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    groups = {}
    for side, path in (("old", old_path), ("new", new_path)):
        for r in _records(path):
            key = (r["workload"], r["trace"])
            groups.setdefault(key, {"old": [], "new": []})[side].append(r)
    worse = 0
    for (wl, trace), g in sorted(groups.items()):
        print(f"== {wl} ({'traced' if trace else 'untraced'}): "
              f"{len(g['old'])} old runs, {len(g['new'])} new runs")
        if not g["old"] or not g["new"]:
            continue
        section = "per_layer" if trace else "end_to_end"
        names = sorted(set().union(*(r[section] for r in g["old"] + g["new"])))
        for name in names:
            o = [r[section][name] for r in g["old"] if name in r[section]]
            n = [r[section][name] for r in g["new"] if name in r[section]]
            if not o or not n:
                continue
            mo, mn = statistics.median(o), statistics.median(n)
            change = f"{mn / mo - 1:+8.2%}" if mo else "     n/a"
            flag = ""
            b = bounds.get(name)
            if b and not trace and mo:
                worse_by = (mn / mo - 1) * (1 if b["better"] == "lower" else -1)
                if worse_by > b["bound"]:
                    flag = f"  WORSE by more than its bound {b['bound']}"
                    worse += 1
            print(f"  {name:52s} {mo:12.6g} -> {mn:12.6g}  {change}{flag}")
        digests = {}
        for side in ("old", "new"):
            for r in g[side]:
                digests.setdefault(r["seed"], {"old": set(), "new": set()})[side].add(
                    r["workload_digest"])
        shared = [d for d in digests.values() if d["old"] and d["new"]]
        if shared:
            same = sum(d["old"] == d["new"] for d in shared)
            print(f"  reports identical outside timing/trace on {same}/{len(shared)} "
                  f"shared seeds")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("cli-cold", "cli-batch", "half-sweep",
                                           "weighted-stable"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
