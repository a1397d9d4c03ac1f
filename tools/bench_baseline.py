#!/usr/bin/env python3
"""Perf-baseline recorder and regression gate.

Builds a machine-readable perf baseline from the end-to-end benches:

  * bench_throughput  -- clips/sec per worker count, per-stage wall seconds,
                         queue-depth percentiles, proxy cache hit rate
  * bench_fig6_cost_breakdown (OTIF_BENCH_JSON=...) -- per-stage simulated
                         and wall seconds for the tuned OTIF configuration

Usage:
  tools/bench_baseline.py record  --out BENCH_baseline.json
  tools/bench_baseline.py compare --baseline BENCH_baseline.json

`record` runs the benches (or consumes pre-captured reports via
--from-throughput/--from-cost) and writes a compact baseline file intended
to be committed. `compare` produces a fresh measurement the same way, then
diffs it against the baseline and exits non-zero on regression:

  * wall-clock metrics (clips/sec, stage wall seconds) gate at --wall-tol
    (default 0.50: generous, machines differ);
  * simulated seconds are deterministic for a given scale, so they gate at
    the much tighter --sim-tol (default 0.10);
  * the proxy cache hit rate gates on an absolute drop of 0.05;
  * the buffer-pool memory section gates hard at the single-worker serial
    sweep point: steady-state hot-loop allocations may not grow at all,
    and the pool hit rate may not drop by more than 0.005 absolute.

Worker counts present in only one of the two files (different machine
widths) are skipped. Stage wall regressions below --wall-floor seconds are
ignored as noise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SIM_STAGES = ("decode", "proxy", "detect", "track", "refine")


def run_throughput(build_dir, clips, frames):
    exe = os.path.join(build_dir, "bench", "bench_throughput")
    env = dict(os.environ, OTIF_LOG_LEVEL="warning")
    out = subprocess.run(
        [exe, str(clips), str(frames)],
        check=True, stdout=subprocess.PIPE, env=env)
    return json.loads(out.stdout)


def run_cost_breakdown(build_dir, scale):
    exe = os.path.join(build_dir, "bench", "bench_fig6_cost_breakdown")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        path = f.name
    try:
        env = dict(os.environ, OTIF_LOG_LEVEL="warning",
                   OTIF_BENCH_JSON=path, OTIF_BENCH_SCALE=scale)
        subprocess.run([exe], check=True, stdout=subprocess.DEVNULL, env=env)
        with open(path) as f:
            return json.load(f)
    finally:
        os.unlink(path)


def load_or_run(args):
    """Returns (throughput, cost) reports from files or fresh runs."""
    if args.from_throughput:
        with open(args.from_throughput) as f:
            throughput = json.load(f)
    else:
        throughput = run_throughput(args.build_dir, args.clips, args.frames)
    if args.from_cost:
        with open(args.from_cost) as f:
            cost = json.load(f)
    else:
        cost = run_cost_breakdown(args.build_dir, args.scale)
    return throughput, cost


def build_baseline(throughput, cost, args):
    """Distills the two bench reports into the committed baseline shape."""
    sweep = {}
    for entry in throughput["results"]:
        sweep[str(entry["workers"])] = {
            "clips_per_sec": entry["clips_per_sec"],
            "stage_wall_seconds": entry["stage_wall_seconds"],
            "queue_depth": entry["queue_depth"],
            "cache_hit_rate": entry["proxy_cache"]["hit_rate"],
            "memory": {
                "allocations": entry["memory"]["allocations"],
                "pool_hit_rate": entry["memory"]["pool_hit_rate"],
            },
        }
    return {
        "schema": 3,
        "workload": {"clips": throughput["clips"],
                     "frames_per_clip": throughput["frames_per_clip"],
                     "scale": args.scale},
        "throughput": sweep,
        "cost_breakdown": {
            "stages": {k: cost["stages"][k] for k in SIM_STAGES},
            "sim_total": cost["sim_total"],
            "cache_hit_rate": cost["cache_hit_rate"],
        },
    }


def cmd_record(args):
    throughput, cost = load_or_run(args)
    baseline = build_baseline(throughput, cost, args)
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} "
          f"({len(baseline['throughput'])} sweep points)")
    return 0


def cmd_compare(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    throughput, cost = load_or_run(args)
    current = build_baseline(throughput, cost, args)

    if baseline.get("workload") != current["workload"]:
        print(f"note: workload differs (baseline {baseline.get('workload')}"
              f" vs current {current['workload']}); comparing anyway")

    failures = []
    rows = []

    def check(metric, base, cur, kind, gate=True):
        """kind: 'higher-better-wall', 'lower-better-wall', 'lower-better-sim'."""
        if base is None or cur is None:
            return
        if kind == "higher-better-wall":
            limit = base * (1.0 - args.wall_tol)
            bad = cur < limit
        elif kind == "lower-better-wall":
            limit = base * (1.0 + args.wall_tol)
            bad = cur > limit and (cur - base) > args.wall_floor
        else:  # lower-better-sim
            limit = base * (1.0 + args.sim_tol)
            bad = cur > limit
        delta = (cur - base) / base * 100.0 if base else float("inf")
        if not gate:
            rows.append((metric, base, cur, delta, "info"))
            return
        rows.append((metric, base, cur, delta, "FAIL" if bad else "ok"))
        if bad:
            failures.append(metric)

    common = sorted(set(baseline["throughput"]) & set(current["throughput"]),
                    key=int)
    skipped = set(baseline["throughput"]) ^ set(current["throughput"])
    if skipped:
        print(f"note: skipping worker counts {sorted(skipped)} "
              "(present in only one file)")
    for w in common:
        b, c = baseline["throughput"][w], current["throughput"][w]
        check(f"throughput[{w}].clips_per_sec",
              b["clips_per_sec"], c["clips_per_sec"], "higher-better-wall")
        for stage in SIM_STAGES:
            # Per-stage wall times gate only on the serial sweep point:
            # under multi-worker contention they are scheduling noise, and
            # a real parallel regression still shows up in clips_per_sec.
            check(f"throughput[{w}].stage_wall.{stage}",
                  b["stage_wall_seconds"].get(stage),
                  c["stage_wall_seconds"].get(stage), "lower-better-wall",
                  gate=(w == "1"))
        if b.get("memory") is None:
            if w == "1":
                print("note: baseline predates the buffer pool "
                      "(no memory section); skipping memory gates")
        else:
            bm, cm = b["memory"], c["memory"]
            # Allocation counts are deterministic only in the single-worker
            # serial replay; elsewhere they are scheduling-dependent info.
            alloc_bad = cm["allocations"] > bm["allocations"]
            rows.append((f"throughput[{w}].mem.allocations",
                         bm["allocations"], cm["allocations"],
                         0.0,
                         ("FAIL" if alloc_bad else "ok") if w == "1"
                         else "info"))
            if w == "1" and alloc_bad:
                failures.append(f"throughput[{w}].mem.allocations")
            hit_bad = (bm["pool_hit_rate"] - cm["pool_hit_rate"]) > 0.005
            rows.append((f"throughput[{w}].mem.pool_hit_rate",
                         bm["pool_hit_rate"], cm["pool_hit_rate"],
                         (cm["pool_hit_rate"] - bm["pool_hit_rate"]) * 100.0,
                         ("FAIL" if hit_bad else "ok") if w == "1"
                         else "info"))
            if w == "1" and hit_bad:
                failures.append(f"throughput[{w}].mem.pool_hit_rate")

    bc, cc = baseline["cost_breakdown"], current["cost_breakdown"]
    for stage in SIM_STAGES:
        check(f"cost_breakdown.sim_seconds.{stage}",
              bc["stages"][stage]["sim_seconds"],
              cc["stages"][stage]["sim_seconds"], "lower-better-sim")
    check("cost_breakdown.sim_total", bc["sim_total"], cc["sim_total"],
          "lower-better-sim")

    hit_drop = bc["cache_hit_rate"] - cc["cache_hit_rate"]
    status = "FAIL" if hit_drop > 0.05 else "ok"
    rows.append(("cost_breakdown.cache_hit_rate", bc["cache_hit_rate"],
                 cc["cache_hit_rate"], -hit_drop * 100.0, status))
    if status == "FAIL":
        failures.append("cost_breakdown.cache_hit_rate")

    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'baseline':>12} {'current':>12} "
          f"{'delta%':>8}  status")
    for metric, base, cur, delta, stat in rows:
        print(f"{metric:<{width}}  {base:>12.4f} {cur:>12.4f} "
              f"{delta:>+8.1f}  {stat}")

    if failures:
        print(f"\nREGRESSION: {len(failures)} metric(s) beyond tolerance "
              f"(wall {args.wall_tol:.0%}, sim {args.sim_tol:.0%}):")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    print(f"\nbaseline compare ok ({len(rows)} metrics within tolerance)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common_args(p):
        p.add_argument("--build-dir", default="build")
        p.add_argument("--clips", type=int, default=8,
                       help="bench_throughput clip count")
        p.add_argument("--frames", type=int, default=120,
                       help="bench_throughput frames per clip")
        p.add_argument("--scale", default="tiny",
                       help="OTIF_BENCH_SCALE for the cost breakdown")
        p.add_argument("--from-throughput", metavar="FILE",
                       help="reuse a captured bench_throughput report")
        p.add_argument("--from-cost", metavar="FILE",
                       help="reuse a captured OTIF_BENCH_JSON report")

    rec = sub.add_parser("record", help="run benches, write baseline file")
    common_args(rec)
    rec.add_argument("--out", default="BENCH_baseline.json")

    cmp_ = sub.add_parser("compare",
                          help="run benches, diff against a baseline")
    common_args(cmp_)
    cmp_.add_argument("--baseline", default="BENCH_baseline.json")
    cmp_.add_argument("--wall-tol", type=float,
                      default=float(os.environ.get("OTIF_BASELINE_TOL", 0.5)),
                      help="relative tolerance for wall-clock metrics")
    cmp_.add_argument("--sim-tol", type=float, default=0.10,
                      help="relative tolerance for simulated seconds")
    cmp_.add_argument("--wall-floor", type=float, default=0.02,
                      help="ignore stage wall regressions below this many "
                           "absolute seconds")

    args = parser.parse_args()
    return cmd_record(args) if args.cmd == "record" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
