#!/usr/bin/env python3
"""Benchmark of the RSG pipeline: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds perfbench/rsgbench.exe
with dune into $CARGO_TARGET_DIR (default .bench_build), then runs the
workload's passes, each in a fresh process:

  --trace 0  a timed pass of S seconds of jobs, plus four set-up-only
             passes; prints every end-to-end metric.
  --trace 1  an untraced and two traced passes of the same fixed job
             list (the traced ones must agree on every work count and
             minor-word total), short traced passes of the other
             workloads for the layers this one never calls, and a
             traced place-anneal pass at 2 domains; prints every
             per-layer metric and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["verify-cold", "place-anneal", "regen-edit", "serve-mix"]

# job count of the fixed-list passes of --trace 1 (serve-mix: per client)
TRACE_JOBS = {"verify-cold": 3, "place-anneal": 4, "regen-edit": 3, "serve-mix": 40}

# job count of the short pass that measures, for another workload, the
# layers it never calls: enough to reach every kind of job (a serve-mix
# block; a verify-cold or regen-edit job is a whole round)
BORROW_JOBS = {"verify-cold": 1, "place-anneal": 1, "regen-edit": 1, "serve-mix": 20}

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("lang.parse_s", "s"), ("lang.interp_s", "s"), ("lang.mwords", "Mwords"),
    ("flatten.s", "s"), ("flatten.mwords", "Mwords"), ("flatten.distinct", "count"),
    ("flatten.seeded", "count"), ("cif.write_s", "s"), ("cif.kb", "kB"),
    ("drc.s", "s"), ("drc.mwords", "Mwords"), ("drc.levels", "count"),
    ("drc.replayed_frac", "ratio"),
    ("erc.s", "s"), ("erc.mwords", "Mwords"), ("erc.nets", "count"), ("erc.devices", "count"),
    ("hcompact.s", "s"), ("hcompact.condense_s", "s"), ("hcompact.stitch_s", "s"),
    ("hcompact.condensed_per_candidate", "count"), ("hcompact.mwords_per_candidate", "Mwords"),
    ("hcompact.mwords_per_candidate_d2", "Mwords"),
    ("hcompact.constraints", "count"), ("scanline.generations", "count"),
    ("anneal.candidates", "count"), ("anneal.candidates_per_s", "1/s"),
    ("anneal.candidates_per_s_d2", "1/s"), ("anneal.memo_frac", "ratio"),
    ("place.evaluate_s", "s"), ("par.d2_speedup", "ratio"),
    ("codec.encode_s", "s"), ("codec.decode_s", "s"), ("codec.kb", "kB"),
    ("store.harvest_s", "s"), ("store.save_s", "s"), ("store.find_s", "s"),
    ("store.hit_frac", "ratio"),
    ("serve.generate_p50_s", "s"), ("serve.drc_p50_s", "s"), ("serve.erc_p50_s", "s"),
    ("serve.compact_p50_s", "s"), ("serve.mem_hit_frac", "ratio"),
    ("serve.analysis_replayed_frac", "ratio"), ("serve.coalesced", "count"),
    ("serve.queue_full", "count"),
]

PASS_TIMEOUT = 150

# Host-speed correction (NOTES.md, Steadiness).  jobs_per_s, job_p50_s
# and job_tail_s are scaled by (REF_S / the pass's median
# reference-kernel time) ** HOST_EXP.  REF_S is the kernel's time
# (common.ml, ref_kernel) on the VM that NOTES.md describes.  In a host
# phase the kernel's time moves about twice as far as a job's, in log
# terms, hence the square root.  The measured seconds are logged beside
# the corrected ones; setup_s is not corrected.
REF_S = 0.007
HOST_EXP = 0.5

# set-up-only passes of --trace 0, besides the timed pass's own set-up:
# setup_s is the median of SETUP_PASSES + 1 fresh processes
SETUP_PASSES = 4


def log(msg):
    print(msg, flush=True)


def fail(msg):
    """Exit without a result line."""
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an rsg source checkout (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./perfbench/rsgbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "rsgbench.exe")
    if not os.path.isfile(exe):
        fail("build produced no " + exe)
    return exe


def run_pass(exe, work_dir, args, mode, jobs=None, domains=1, workload=None):
    cmd = [exe, "--workload", workload or args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--domains", str(domains),
           "--work-dir", work_dir]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    env = dict(os.environ, RSG_DOMAINS=str(domains))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=PASS_TIMEOUT, env=env)
    except subprocess.TimeoutExpired:
        fail("%s pass timed out" % mode)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        fail("%s pass exited with %d" % (mode, r.returncode))
    return json.loads(lines[-1])


def tail(lats):
    """Latency at the highest percentile with at least ten samples beyond it."""
    s = sorted(lats)
    return s[len(s) - 11] if len(s) >= 11 else s[-1]


def e2e(p, scale=None):
    """Throughput and latency quantiles of a pass, in host-corrected
    seconds (see REF_S); scale=1 gives the measured seconds."""
    if scale is None:
        scale = (REF_S / statistics.median(p["ref_s"])) ** HOST_EXP
    lats = [l * scale for l in p["lats"]]
    return {
        "jobs_per_s": len(lats) / (p["window_s"] * scale),
        "job_p50_s": statistics.median(lats),
        "job_tail_s": tail(lats),
    }


def by_tag(p):
    groups = {}
    for lat, tag in zip(p["lats"], p["tags"]):
        groups.setdefault(tag, []).append(lat)
    for tag in sorted(groups):
        v = groups[tag]
        log("  %-24s n=%-4d p50 %8.4f s  min %8.4f  max %8.4f"
            % (tag, len(v), statistics.median(v), min(v), max(v)))


def checks_ok(p):
    bad = [k for k, ok in p["self_checks"].items() if not ok]
    for f in p["failures"][:10]:
        log("  FAILED " + f)
    for k in bad:
        log("  SELF-CHECK NOT REJECTED: " + k)
    return not bad


def metric(name, value, unit):
    return name, {"value": value, "unit": unit}


def trace0(exe, work_dir, args):
    timed = run_pass(exe, work_dir, args, "timed")
    setups = [timed["setup_s"]] + [run_pass(exe, work_dir, args, "setup")["setup_s"]
                                   for _ in range(SETUP_PASSES)]
    ok = checks_ok(timed)
    m = e2e(timed)
    log("workload %s seed %d: %d jobs in %.2f s of window" %
        (args.workload, args.seed, timed["attempted"], timed["window_s"]))
    by_tag(timed)
    log("  tail sample: %d samples, tail = 11th largest" % len(timed["lats"]))
    raw = e2e(timed, scale=1.0)
    log("  reference kernel: median %.2f ms over %d samples (REF_S %.2f ms)"
        % (1e3 * statistics.median(timed["ref_s"]), len(timed["ref_s"]), 1e3 * REF_S))
    log("  measured seconds: jobs_per_s %.4f  job_p50_s %.4f  job_tail_s %.4f"
        % (raw["jobs_per_s"], raw["job_p50_s"], raw["job_tail_s"]))
    log("  set-up seconds: " + ", ".join("%.3f" % s for s in setups))
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": m["jobs_per_s"],
        "job_p50_s": m["job_p50_s"],
        "job_tail_s": m["job_tail_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    if "area_ratio" in timed["extra"]:
        # place-anneal: Σ best area / Σ greedy area over its first jobs
        log("  area_ratio %.6f" % timed["extra"]["area_ratio"])
    metrics = dict(metric(n, values[n], u) for n, u in END_TO_END)
    return ok, timed["attempted"], timed["failed"], metrics


def trace1(exe, work_dir, args):
    jobs = TRACE_JOBS[args.workload]
    plain = run_pass(exe, work_dir, args, "timed", jobs=jobs)
    a = run_pass(exe, work_dir, args, "traced", jobs=jobs)
    b = run_pass(exe, work_dir, args, "traced", jobs=jobs)
    passes = [plain, a, b]
    ok = all([checks_ok(p) for p in passes])
    log("workload %s seed %d: fixed list of %d jobs" % (args.workload, args.seed, jobs))
    log("tracing overhead (same jobs, fresh processes):")
    ep, et = e2e(plain), e2e(a)
    for k in ("jobs_per_s", "job_p50_s"):
        log("  %-12s untraced %10.4f  traced %10.4f  (%+.1f%%)"
            % (k, ep[k], et[k], 100.0 * (et[k] - ep[k]) / ep[k]))
    log("layer shares of job time (traced pass):")
    for k, v in sorted(a["shares"].items(), key=lambda kv: -kv[1]):
        log("  %-24s %6.1f%%" % (k, 100.0 * v))
    # determinism: two traced runs, same seed, 1 domain
    da, db = a["deterministic"], b["deterministic"]
    differ = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
    if differ:
        for k in differ:
            log("  DIFFERS between traced runs: %s (%s vs %s)" % (k, da.get(k), db.get(k)))
    else:
        log("determinism: %d work counts and minor-word totals identical in two traced runs"
            % len(da))
    layers = dict(a["layers"])
    # A layer this workload's jobs never call is measured by a short
    # traced pass of a workload that calls it, so every per-layer value
    # is a measurement of this run.
    borrowed = {}
    for other in WORKLOADS:
        missing = [n for n, _ in PER_LAYER
                   if n not in layers and n not in borrowed
                   and not n.endswith("_d2") and n != "par.d2_speedup"]
        if other == args.workload or not missing:
            continue
        p = run_pass(exe, work_dir, args, "traced", jobs=BORROW_JOBS[other], workload=other)
        passes.append(p)
        ok = checks_ok(p) and ok
        taken = [n for n in missing if n in p["layers"]]
        for n in taken:
            borrowed[n] = p["layers"][n]
        if taken:
            log("from a %d-job %s pass (not this workload's jobs): %s"
                % (BORROW_JOBS[other], other, ", ".join(taken)))
    layers.update(borrowed)
    # place-anneal again at 2 domains (ungated), on the job list of its
    # 1-domain figures above
    pa_jobs = jobs if args.workload == "place-anneal" else BORROW_JOBS["place-anneal"]
    d2 = run_pass(exe, work_dir, args, "traced", jobs=pa_jobs, domains=2, workload="place-anneal")
    passes.append(d2)
    ok = checks_ok(d2) and ok
    layers["anneal.candidates_per_s_d2"] = d2["layers"]["anneal.candidates_per_s"]
    layers["hcompact.mwords_per_candidate_d2"] = d2["layers"]["hcompact.mwords_per_candidate"]
    layers["par.d2_speedup"] = (layers["anneal.candidates_per_s_d2"]
                                / layers["anneal.candidates_per_s"])
    log("place-anneal, domains 1 vs 2 (ungated): candidates/s %.1f vs %.1f, "
        "Mwords/candidate %.3f vs %.3f"
        % (layers["anneal.candidates_per_s"], layers["anneal.candidates_per_s_d2"],
           layers["hcompact.mwords_per_candidate"], layers["hcompact.mwords_per_candidate_d2"]))
    metrics = dict(metric(n, float(layers.get(n, 0.0)), u) for n, u in PER_LAYER)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return ok and not differ, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    # relative, so the daemon's socket path stays short
    work_dir = os.path.relpath(os.path.join(build_dir, "perfbench-work"))
    os.makedirs(work_dir, exist_ok=True)
    t0 = time.time()
    ok, attempted, failed, metrics = (trace1 if args.trace else trace0)(exe, work_dir, args)
    log("passes took %.1f s" % (time.time() - t0))
    print(json.dumps({"correct": bool(ok and failed == 0), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
