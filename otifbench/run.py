#!/usr/bin/env python3
"""OTIF benchmark: builds otif_bench from source, runs one workload, checks
its outputs and prints the metrics.

Usage (from the repository root):
  python3 otifbench/run.py --workload job|execute_cold|execute_warm \\
      --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the full report: environment
fingerprint, every rep's samples and digests, and (traced runs) the
telemetry snapshot and profiler top frames. See otifbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "otifbench")
BINARY = os.path.join(BUILD_DIR, "otif_bench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("job", "execute_cold", "execute_warm")
# Timeline ring per thread (events). One traced Prepare emits ~16k events
# on its busiest thread; a ring that still wraps is reported as truncated.
TIMELINE_EVENTS = 1 << 17
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import intervals  # noqa: E402


def fail(msg):
    print("otifbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds otif_bench; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no OTIF sources at %s; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "otif_bench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def fingerprint(report):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    return {
        "git_sha": sha,
        "build_type": report["build_type"],
        "compiler": report["compiler"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "pool_width": report["pool_width"],
        "executor": report["executor"],
        "workload": report["workload"],
        "seed": report["seed"],
    }


def check_outputs(report):
    """Counts clips whose outputs differ from the first rep (and, for the
    execute workloads, from the serial single-worker reference).

    Returns (attempted, failed, problems)."""
    reps = report["untraced"] + report.get("traced", [])
    first = reps[0]
    refs = [("rep 0", first)]
    if report["reference"] is not None:
        refs.append(("serial reference", report["reference"][0]))
    per_pass = len(first["clip_digests"]) // len(first["set_digests"])
    attempted = 0
    failed = 0
    problems = []
    for i, rep in enumerate(reps):
        attempted += len(rep["clip_digests"])
        bad = set()
        for ref_name, ref in refs:
            if len(rep["clip_digests"]) != len(ref["clip_digests"]):
                bad.update(range(len(rep["clip_digests"])))
                problems.append("rep %d: clip count differs from %s"
                                % (i, ref_name))
                continue
            for c, (a, b) in enumerate(zip(rep["clip_digests"],
                                           ref["clip_digests"])):
                if a != b:
                    bad.add(c)
            for p, (a, b) in enumerate(zip(rep["set_digests"],
                                           ref["set_digests"])):
                if a != b:
                    bad.update(range(p * per_pass, (p + 1) * per_pass))
        for key in ("sim_s", "accuracy", "tuner_evaluations", "frames"):
            if rep[key] != first[key]:
                bad.update(range(len(rep["clip_digests"])))
                problems.append("rep %d: %s %r != %r"
                                % (i, key, rep[key], first[key]))
        if bad:
            problems.append("rep %d: %d clip(s) differ" % (i, len(bad)))
        failed += len(bad)
    return attempted, failed, problems


def end_to_end(report):
    reps = report["untraced"]
    first = reps[0]
    return {
        "setup_s": (median(report["setup_s"]), "s"),
        "execute_s": (median([r["execute_s"] for r in reps]), "s"),
        "job_s": (median([r["wall_s"] for r in reps]), "s"),
        "frames_per_s": (median([r["frames"] / r["execute_s"] for r in reps]),
                         "1/s"),
        "cpu_s": (median([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "sim_s": (first["sim_s"], "s"),
        "accuracy": (first["accuracy"], "frac"),
    }


def per_layer(report, timeline_path):
    traced = report["traced"]
    n = len(traced)
    tel = report["telemetry"]
    counters = tel["counters"]
    gauges = tel["gauges"]
    hists = tel["histograms"]
    spans = tel["spans"]

    def span_s(name):
        return spans.get(name, {}).get("total_seconds", 0.0) / n

    def span_calls(name):
        return spans.get(name, {}).get("count", 0) / n

    def counter(name):
        return counters.get(name, 0) / n

    def hist_mean(name):
        h = hists.get(name)
        return h["sum"] / h["count"] if h and h["count"] else 0.0

    def hist_p99(name):
        h = hists.get(name)
        return h["p99"] if h else 0.0

    m = {}
    # core.otif: Prepare phases from the timeline of the last traced rep.
    phases = {"pipeline_s": 0.0, "tune_s": 0.0, "train_s": 0.0}
    if report["workload"] == "job":
        try:
            phases = intervals.prepare_phases(
                intervals.load_events(timeline_path), TIMELINE_EVENTS)[-1]
        except intervals.TruncatedTimeline as e:
            fail("truncated timeline: %s" % e)
    for key in ("pipeline_s", "tune_s", "train_s"):
        m["prepare." + key] = (phases[key], "s")
    # nn: profiler shares (inclusive: samples with the kernel on the stack).
    prof = report["profile"]
    shares = prof["shares"]
    m["nn.gemm_share"] = (shares["gemm"], "frac")
    m["nn.im2col_share"] = (shares["im2col"], "frac")
    m["nn.relu_share"] = (shares["relu"], "frac")
    m["nn.conv_ref_forward_share"] = (shares["conv_ref_forward"], "frac")
    m["nn.conv_backward_share"] = (shares["conv_backward"], "frac")
    m["profile.samples"] = (prof["samples"], "count")
    # sim: frame rendering inside the proxy stage.
    m["sim.render_s"] = (span_s("proxy/render"), "s")
    m["sim.render_calls"] = (span_calls("proxy/render"), "count")
    # models.
    m["models.proxy_score_s"] = (span_s("proxy/score"), "s")
    m["models.proxy_frames_scored"] = (
        hists.get("proxy.invocation_frames", {}).get("sum", 0.0) / n, "count")
    m["models.detect_frames_per_call"] = (
        hist_mean("detect.invocation_frames"), "frames")
    # core.stages.
    for stage in ("decode", "proxy", "detect", "track", "refine"):
        m["stage.%s.wall_s" % stage] = (span_s("stage/" + stage), "s")
        m["stage.%s.sim_s" % stage] = (
            gauges.get("stage/%s.sim_seconds" % stage, 0.0) / n, "s")
    m["proxy.group_cells_s"] = (span_s("proxy/group_cells"), "s")
    m["pipeline.runs"] = (counter("pipeline.runs"), "count")
    m["pipeline.frames"] = (counter("pipeline.frames"), "count")
    m["pipeline.run_s"] = (span_s("pipeline/run"), "s")
    # core.proxy_cache.
    hits = counter("proxy_cache.hits")
    misses = counter("proxy_cache.misses")
    renders = span_calls("proxy/render")
    m["proxy_cache.hits"] = (hits, "count")
    m["proxy_cache.misses"] = (misses, "count")
    m["proxy_cache.evictions"] = (counter("proxy_cache.evictions"), "count")
    m["proxy_cache.hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0, "frac")
    m["proxy.useful_render_frac"] = (misses / renders if renders else 0.0,
                                     "frac")
    # core.tuner.
    m["tuner.evaluations"] = (counter("tuner.evaluations"), "count")
    m["tuner.cache_detection_s"] = (span_s("tuner/cache_detection"), "s")
    m["tuner.cache_proxy_s"] = (span_s("tuner/cache_proxy"), "s")
    m["tuner.rounds_s"] = (span_s("tuner/round"), "s")
    # core.executor (streaming executor batches and channels).
    m["executor.proxy_fill_mean"] = (
        hist_mean("executor.batch.proxy.fill"), "frames")
    m["executor.detect_fill_mean"] = (
        hist_mean("executor.batch.detect.fill"), "frames")
    for ch in ("proxy", "detect", "commit"):
        m["executor.channel_occupancy_p99." + ch] = (
            hist_p99("executor.channel.%s.occupancy" % ch), "items")
    m["executor.retries"] = (counter("executor.retries"), "count")
    # util.thread_pool.
    busy = gauges.get("threadpool.busy_seconds", 0.0)
    m["pool.busy_s"] = (busy / n, "s")
    m["pool.utilization"] = (
        busy / (report["traced_wall_s"] * report["pool_width"]), "frac")
    m["pool.tasks"] = (counter("threadpool.tasks_executed"), "count")
    m["pool.queue_depth_p99"] = (hist_p99("threadpool.queue_depth"),
                                 "batches")
    # mem.
    mem = report["memory"]
    acquires = mem["pool_hits"] + mem["pool_misses"]
    m["mem.pool_hit_rate"] = (
        mem["pool_hits"] / acquires if acquires else 1.0, "frac")
    m["mem.allocations_per_clip"] = (
        (mem["pool_misses"] + mem["arena_allocations"])
        / (report["clips_per_rep"] * n), "count")
    m["mem.bytes_retained"] = (mem["bytes_retained"], "bytes")
    # track.
    m["track.refine_all_s"] = (span_s("refine/refine_all"), "s")
    # Tracing cost: traced vs untraced rep wall time in this process.
    m["trace.overhead_frac"] = (
        median([r["wall_s"] for r in traced])
        / median([r["wall_s"] for r in report["untraced"]]) - 1.0, "frac")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ)
    timeline_path = None
    if args.trace and args.workload == "job":
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        timeline_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--timeline", timeline_path]
        env["OTIF_TRACE_TIMELINE_EVENTS"] = str(TIMELINE_EVENTS)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("otif_bench exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("otif_bench exited with %d" % proc.returncode)
    report = json.loads(out.strip().splitlines()[-1])

    attempted, failed, problems = check_outputs(report)
    for p in problems:
        print("otifbench: output check: " + p, file=sys.stderr)
    metrics = (per_layer(report, timeline_path) if args.trace
               else end_to_end(report))
    report["fingerprint"] = fingerprint(report)
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
