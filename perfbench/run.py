#!/usr/bin/env python3
"""hydra's host-cost benchmark: one command per workload.

    python3 perfbench/run.py --workload paper_relay --seed 1 --seconds 50 --trace 0

Run from the root of a hydra source tree. It builds the runner
(perfbench/CMakeLists.txt) into .bench_build/ on first use, runs the
workload's experiments in a closed loop for --seconds, checks that the
outputs are correct, prints a readable summary and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the per-layer ones, and the recorded spans are written to
.bench_build/spans-<workload>-<seed>.json. The exit code is 0 only when
every correctness check passes. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_relay", "flood_grid_10k", "mesh_tcp_400")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent invocations share it
        if not os.path.exists(binary):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return binary


def run_binary(binary, args):
    raw_path = os.path.join(build_dir(), "raw-%s-%d-%d-%d.json" % (
        args.workload, args.seed, args.trace, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)
    return raw


def write_spans(raw, path):
    spans = raw["spans"]
    own = metrics.self_times([tuple(s) for s in spans])
    doc = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "fields": ["name", "start_s", "end_s", "parent", "experiment",
                   "self_s"],
        "spans": [list(s) + [o] for s, o in zip(spans, own)],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        raw = run_binary(build(), args)
    except (OSError, subprocess.SubprocessError) as err:
        log("perfbench: %s" % err)
        return 1

    checks = metrics.check(raw)
    outcome, flows = metrics.outcomes(raw, metrics.by_pass(
        metrics.records(raw, "timed"))[0])
    if args.trace:
        reported = metrics.per_layer(raw)
        spans_path = os.path.join(build_dir(), "spans-%s-%d.json" % (
            args.workload, args.seed))
        write_spans(raw, spans_path)
    else:
        reported = metrics.end_to_end(raw)

    print("workload %s  seed %d  trace %d  experiments %d (the exp_wall "
          "samples)  timed passes %d  flows %d" % (
              args.workload, args.seed, args.trace, len(raw["experiments"]),
              len(metrics.by_pass(metrics.records(raw, "timed"))), flows))
    for name, (value, unit) in list(reported.items()) + [
            ("(sim) " + k, v) for k, v in outcome.items()
            if k not in reported]:
        print("  %-28s %16.6g %s" % (name, value, unit))
    if args.trace:
        print("  spans written to %s" % os.path.relpath(spans_path, ROOT))
    for name, ok, detail in checks:
        print("  check %-28s %s  %s" % (name, "ok" if ok else "FAILED",
                                         detail))

    failed = sum(1 for _, ok, _ in checks if not ok)
    attempted = len(raw["records"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in reported.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
