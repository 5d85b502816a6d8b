#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
perfbench package (Release) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only rebuild what changed. The program then runs
the workload for the given wall-clock budget. The report goes to standard
output, one metric per line with its unit and direction, and the last line
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run, and the spans are written as Chrome
trace-event JSON under <build dir>/traces/ (open it in Perfetto).

Exits non-zero, without a result line, if the engine sources are missing,
the build fails, or the program fails or runs out of time.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170

WORKLOADS = ["steady", "crash_restart", "archive_pit", "fleet_failover"]

# name: (unit, direction). End-to-end metrics come from untraced runs.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "txn_host_us": ("us", "lower"),
    "slice_ms_p50": ("ms", "lower"),
    "slice_ms_p95": ("ms", "lower"),
    "slice_ms_p99": ("ms", "lower"),
    "recovery_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_tpmc": ("tpm", "higher"),
    "sim_recovery_s": ("s", "lower"),
}

# Printed with the end-to-end metrics but not bounded: the wall-clock time
# spreads wider than any allowed bound on a shared host, the lost
# transactions are 0 on crash_restart and pinned by the correctness gate,
# and the p90 response is the same for every seed.
REPORTED = {
    "iteration_wall_s": ("s", "lower"),
    "sim_lost_txns": ("count", "lower"),
    "sim_neworder_p90_ms": ("ms", "lower"),
}

PER_LAYER = {
    "tpcc.load_s": ("s", "lower"),
    "tpcc.new_order_us": ("us", "lower"),
    "tpcc.payment_us": ("us", "lower"),
    "tpcc.order_status_us": ("us", "lower"),
    "tpcc.delivery_us": ("us", "lower"),
    "tpcc.stock_level_us": ("us", "lower"),
    "tpcc.consistency_s": ("s", "lower"),
    "engine.create_s": ("s", "lower"),
    "engine.startup_s": ("s", "lower"),
    "storage.cache_hit_ratio": ("ratio", "higher"),
    "storage.reads_per_txn": ("count", "lower"),
    "storage.writes_per_txn": ("count", "lower"),
    "storage.ckpt_pages_written": ("count", "lower"),
    "wal.redo_bytes_per_txn": ("bytes", "lower"),
    "wal.commits_per_redo_write": ("ratio", "higher"),
    "wal.log_switches": ("count", "lower"),
    "wal.archived_logs": ("count", "lower"),
    "replay.records_applied": ("count", "lower"),
    "replay.drains": ("count", "lower"),
    "replay.records_per_drain": ("ratio", "higher"),
    "replay.us_per_record": ("us", "lower"),
    "recovery.backup_s": ("s", "lower"),
    "recovery.pit_s": ("s", "lower"),
    "recovery.archives_read": ("count", "lower"),
    "txn.cc_commit_ratio": ("ratio", "higher"),
    "txn.cc_lock_waits": ("count", "lower"),
    "txn.wait_die_aborts": ("count", "lower"),
    "txn.cc_txn_host_us": ("us", "lower"),
    "fleet.setup_s": ("s", "lower"),
    "fleet.promote_s": ("s", "lower"),
    "fleet.cross_shard_share": ("ratio", "lower"),
    "wait.log_file_sync_us": ("us", "lower"),
    "wait.db_file_sequential_read_us": ("us", "lower"),
    "wait.buffer_busy_us": ("us", "lower"),
    "wait.enq_lock_wait_us": ("us", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "sim_lost_txns": ("count", "lower"),
    "self.bench_s": ("s", "lower"),
    "self.tpcc_s": ("s", "lower"),
    "self.engine_s": ("s", "lower"),
    "self.recovery_s": ("s", "lower"),
    "self.fleet_s": ("s", "lower"),
    "self.faults_s": ("s", "lower"),
}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.normpath(os.path.join(ROOT, base))
    if os.path.commonpath([path, ROOT]) != ROOT:
        fail("build directory %s is outside the checkout" % path, 2)
    return os.path.join(path, "perfbench")


def build(bdir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.hpp")):
        fail("engine sources not found under %s/src" % ROOT, 2)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step), 2)


def read_threads(pid):
    try:
        with open("/proc/%d/status" % pid) as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def run(binary, args, trace_path):
    """Runs the driver, sampling its thread count; returns (json, peak)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    # The engine reads these; the benchmark runs the engine's defaults.
    env = {k: v for k, v in os.environ.items()
           if k not in ("VDB_JOBS", "VDB_QUICK", "VDB_RESTART_MODE")}
    out_path = os.path.join(os.path.dirname(binary), "result.json")
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT, env=env)
        peak_threads = 0
        deadline = time.monotonic() + RUN_TIMEOUT_S
        try:
            while proc.poll() is None:
                peak_threads = max(peak_threads, read_threads(proc.pid))
                if time.monotonic() > deadline:
                    fail("run exceeded %d s" % RUN_TIMEOUT_S)
                time.sleep(0.02)
        finally:
            # Also reached on SIGTERM (see main) and on the timeout above.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    try:
        with open(out_path) as out:
            return json.loads(out.read().strip().splitlines()[-1]), peak_threads
    except (ValueError, IndexError):
        fail("driver printed no result")


def show(section, values, table):
    print("[%s]" % section)
    for name, (unit, better) in table.items():
        if name in values:
            print("  %-34s %16.6g %-6s (%s is better)"
                  % (name, values[name], unit, better))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so run() stops the driver it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    bdir = build_dir()
    build(bdir)
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(os.path.dirname(bdir), "traces"),
                    exist_ok=True)
        trace_path = os.path.join(os.path.dirname(bdir), "traces",
                                  "%s-seed%d.trace.json"
                                  % (args.workload, args.seed))
    doc, peak_threads = run(os.path.join(bdir, "perfbench"), args, trace_path)

    env = doc["env"]
    # Informational: threads of a joined pool can still be listed while they
    # exit, so a pool started right after another may be counted twice.
    env["threads_observed_peak"] = peak_threads
    print("workload %s  seed %d  budget %gs  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("[env] " + json.dumps(env, sort_keys=True))
    if not env["thread_cap_held"]:
        print("WARNING: planned threads (%d) exceed the %d processors"
              % (env["thread_cap"], env["nproc"]))
    print("[samples] " + json.dumps(
        dict(doc["report"], iteration_run_s=doc["iteration_run_s"]),
        sort_keys=True))
    show("end-to-end", doc["metrics"], END_TO_END)
    show("reported", doc["report"], REPORTED)
    if args.trace:
        show("per-layer", doc["per_layer"], PER_LAYER)
        print("[trace] " + os.path.relpath(trace_path, ROOT))
    for error in doc["errors"]:
        print("CORRECTNESS: " + error)

    chosen = doc["per_layer"] if args.trace else doc["metrics"]
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": chosen[name], "unit": unit}
               for name, (unit, _) in table.items()}
    print(json.dumps({"correct": doc["correct"],
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
