#!/usr/bin/env python3
"""Tests for the benchmark's own code.

    python3 perfbench/test_perfbench.py

The metric-set, percentile, self-time and check tests need nothing but
Python. The runner tests (generated inputs, a short real run) need the
built runner in .bench_build/ (any run.py invocation builds it) and are
skipped without it.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                      "perfbench")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_record(phase, pass_, id_, wall=1.0, events=100.0):
    counts = {k: 1.0 for k in (
        "sim.end_ns", "sim.pending_peak", "phy.tx_frames", "phy.deliveries",
        "phy.rebuilds", "mac.data_frames", "mac.bcast_subframes",
        "mac.ucast_subframes", "mac.rts", "mac.retries", "mac.retry_drops",
        "mac.queue_drops", "mac.collisions", "mac.crc_failures",
        "mac.delivered_up", "mac.overhead_ns", "mac.airtime_ns",
        "net.forwards", "net.injected_drops", "tcp.segments_sent",
        "tcp.retransmits", "tcp.fast_retransmits", "tcp.timeouts",
        "tcp.acks_sent", "tcp.acks_delayed", "tcp.dup_acks",
        "app.flood_sent")}
    counts["sim.events"] = events
    return {
        "phase": phase, "pass": pass_, "id": id_,
        "host": {"build_s": 0.1, "attach_s": 0.01, "loop_s": wall - 0.2,
                 "collect_s": 0.01, "wall_s": wall},
        "mem": {"build_heap_bytes": 1.0, "loop_allocs": 1.0,
                "loop_heap_bytes": 1.0, "pool_requests": 2.0,
                "pool_recycled": 1.0},
        "counts": counts,
        "trace": ({"net.local_deliveries": 1.0, "net.broadcasts": 1.0,
                   "net.trace_digest": 7.0}
                  if phase == "traced" else {}),
        "mac_fingerprint": "00000000000000ff",
        "flows": [[200000, True, 2.0]],
    }


REF = metrics.FULL_SPEED_PROBE_S


def fake_raw(traced, passes=3):
    exps = [{"label": "x%d" % i, "kind": "tcp-file", "topology": "t",
             "scheme": "BA", "ack": "imm", "mode": 0, "nodes": 3,
             "payload_bytes": 40, "horizon_s": 600.0} for i in range(2)]
    recs = [fake_record("warmup", 0, 0)]
    for p in range(passes):
        recs += [fake_record("timed", p, i, wall=1.0 + p) for i in range(2)]
    spans = []
    if traced:
        for p in range(2):
            recs += [fake_record("traced", p, i) for i in range(2)]
        spans = [["experiment", 0.0, 1.0, -1, 0],
                 ["topo.build", 0.0, 0.2, 0, 0],
                 ["sim.run_slice", 0.2, 0.9, 0, 0]]
    return {"workload": "mesh_tcp_400", "seed": 1, "traced": traced,
            "peak_rss_kb": 2048, "probe_s": [2 * REF, 1.5 * REF, 2 * REF],
            "experiments": exps, "records": recs,
            "spans": spans}


class MetricSetTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        bench = benchmark_json()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            self.assertRegex(name, metrics.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_set_matches_benchmark_json(self):
        listed = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
        printed = metrics.end_to_end(fake_raw(False))
        self.assertEqual(set(printed), set(listed))
        for name, (_, unit) in printed.items():
            self.assertEqual(unit, listed[name], name)

    def test_per_layer_set_matches_benchmark_json(self):
        listed = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
        printed = metrics.per_layer(fake_raw(True))
        self.assertEqual(set(printed), set(listed))
        for name, (_, unit) in printed.items():
            self.assertEqual(unit, listed[name], name)

    def test_end_to_end_scales_median_of_few_repeats(self):
        # Passes of 1, 2 and 3 s per experiment: the median is 2 s each.
        # The median probe is twice the full-speed one, so host times
        # read at half.
        e2e = metrics.end_to_end(fake_raw(False))
        self.assertAlmostEqual(e2e["wall_s"][0], 2.0)
        self.assertAlmostEqual(e2e["setup_s"][0], 0.11)
        self.assertAlmostEqual(e2e["events_per_s"][0], 200.0 / 1.8)
        self.assertAlmostEqual(e2e["exp_wall_p75_ms"][0], 1000.0)

    def test_end_to_end_uses_fastest_of_many_repeats(self):
        # Passes of 1..10 s per experiment: the fastest is 1 s each,
        # unscaled.
        e2e = metrics.end_to_end(fake_raw(False, passes=10))
        self.assertAlmostEqual(e2e["wall_s"][0], 2.0)
        self.assertAlmostEqual(e2e["setup_s"][0], 0.22)
        self.assertAlmostEqual(e2e["events_per_s"][0], 200.0 / 1.6)
        self.assertAlmostEqual(e2e["exp_wall_p50_ms"][0], 1000.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(metrics.percentile(values, 50), (5, 10))
        self.assertEqual(metrics.percentile(values, 75), (8, 10))
        self.assertEqual(metrics.percentile(values, 100), (10, 10))
        self.assertEqual(metrics.percentile(values, 1), (1, 10))

    def test_order_and_count_independent_of_input_order(self):
        self.assertEqual(metrics.percentile([9, 1, 5, 3], 50), (3, 4))
        self.assertEqual(metrics.percentile([9, 1, 5, 3], 75), (5, 4))

    def test_single_sample(self):
        self.assertEqual(metrics.percentile([4.5], 50), (4.5, 1))
        self.assertEqual(metrics.percentile([4.5], 75), (4.5, 1))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1], 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [("root", 0.0, 10.0, -1, 0),
                 ("child", 2.0, 5.0, 0, 0),
                 ("grandchild", 3.0, 4.0, 1, 0)]
        self.assertEqual(metrics.self_times(spans), [7.0, 2.0, 1.0])

    def test_back_to_back_children(self):
        spans = [("root", 0.0, 10.0, -1, 0),
                 ("a", 1.0, 4.0, 0, 0),
                 ("b", 4.0, 6.0, 0, 0),
                 ("c", 6.0, 9.0, 0, 0)]
        self.assertEqual(metrics.self_times(spans), [2.0, 3.0, 2.0, 3.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [("root", 0.0, 10.0, -1, 0),
                 ("a", 1.0, 5.0, 0, 0),
                 ("b", 3.0, 7.0, 0, 0),
                 ("c", 9.0, 12.0, 0, 0)]
        self.assertEqual(metrics.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_by_name_sums_over_experiments(self):
        spans = [("experiment", 0.0, 4.0, -1, 0),
                 ("sim.run_slice", 1.0, 3.0, 0, 0),
                 ("experiment", 4.0, 6.0, -1, 1),
                 ("sim.run_slice", 4.5, 5.0, 2, 1)]
        self.assertEqual(metrics.self_time_by_name(spans),
                         {"experiment": 3.5, "sim.run_slice": 2.5})


class CheckTest(unittest.TestCase):
    def test_fake_run_passes(self):
        for name, ok, detail in metrics.check(fake_raw(True)):
            self.assertTrue(ok, "%s: %s" % (name, detail))

    def test_changed_count_fails_rerun_check(self):
        raw = fake_raw(True)
        raw["records"][0]["counts"]["sim.events"] += 1
        verdicts = {name: ok for name, ok, _ in metrics.check(raw)}
        self.assertFalse(verdicts["rerun_identical"])

    def test_changed_traced_count_fails(self):
        raw = fake_raw(True)
        metrics.records(raw, "traced")[0]["counts"]["mac.retries"] += 1
        verdicts = {name: ok for name, ok, _ in metrics.check(raw)}
        self.assertFalse(verdicts["traced_equals_untraced"])

    def test_changed_trace_digest_fails(self):
        raw = fake_raw(True)
        metrics.records(raw, "traced")[-1]["trace"]["net.trace_digest"] += 1
        verdicts = {name: ok for name, ok, _ in metrics.check(raw)}
        self.assertFalse(verdicts["trace_digest_stable"])

    def test_ordering(self):
        exps = [{"topology": "t", "ack": "imm", "scheme": s}
                for s in ("NA", "UA", "BA")]

        def recs(goodputs):
            return [{"id": i, "flows": [[g * 1e6 / 8, True, 1.0]]}
                    for i, g in enumerate(goodputs)]

        self.assertTrue(metrics.ordering_checks(exps, recs([1, 2, 2]))[0][1])
        self.assertFalse(metrics.ordering_checks(exps, recs([2, 2, 3]))[0][1])
        self.assertFalse(metrics.ordering_checks(exps, recs([1, 3, 2]))[0][1])


@unittest.skipUnless(os.path.exists(BINARY), "runner not built")
class RunnerTest(unittest.TestCase):
    def dump(self, workload, seed):
        return subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--dump-inputs"], check=True, capture_output=True).stdout

    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in ("paper_relay", "flood_grid_10k", "mesh_tcp_400"):
            first = self.dump(workload, 5)
            self.assertEqual(first, self.dump(workload, 5), workload)
            self.assertNotEqual(first, self.dump(workload, 6), workload)

    def test_printed_metrics_are_exactly_the_listed_ones(self):
        bench = benchmark_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 "paper_relay", "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace)],
                check=True, capture_output=True, text=True, cwd=ROOT).stdout
            result = json.loads(out.strip().splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in bench[key]})
            for m in bench[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])


if __name__ == "__main__":
    unittest.main()
