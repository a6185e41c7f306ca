"""Turns perfbench's raw per-experiment records into metrics and verdicts.

Pure functions over the JSON document the C++ runner writes (see
perfbench.cc); run.py calls them and test_perfbench.py tests them.
"""

import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

MB = 1024.0 * 1024.0

# End-to-end host times are readings at the host's full speed. An
# experiment repeated at least this often has such a reading among its
# repetitions: interference only ever adds time, so its fastest one is it.
MIN_FASTEST_REPEATS = 10

# A host-probe sample (perfbench.cc, HostProbe) at full speed on the
# 4-vCPU Xeon VM the benchmark was tuned on: the lowest decile of its
# samples there. Experiments repeated fewer times have their median
# repetition scaled by this over the run's median sample.
FULL_SPEED_PROBE_S = 0.00185


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it. Returns (value, sample count)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)  # ceil(p/100 * n) without floats
    return ordered[int(rank) - 1], len(ordered)


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    merged, so back-to-back or nested children are never counted twice).

    spans: list of (name, start, end, parent_index, experiment).
    Returns a list of self times aligned with `spans`.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans):
    """Total self time per span name."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def records(raw, phase):
    return [r for r in raw["records"] if r["phase"] == phase]


def by_pass(recs):
    passes = {}
    for r in recs:
        passes.setdefault(r["pass"], []).append(r)
    return [passes[k] for k in sorted(passes)]


def pass_sum(recs, group, key):
    return sum(r[group].get(key, 0.0) for r in recs)


# --- End-to-end metrics -----------------------------------------------------

def repeats(recs, value):
    """Each experiment's values over its repetitions (every pass repeats
    identical simulations): experiment id -> list."""
    reps = {}
    for r in recs:
        reps.setdefault(r["id"], []).append(value(r))
    return reps


def median_repeats(recs, value):
    return {k: statistics.median(v) for k, v in repeats(recs, value).items()}


def host_scale(raw):
    """Factor that turns a median host time of this run into one at full
    speed: the full-speed probe time over the run's median probe time.

    A shared host's speed drifts by tens of percent over tens of seconds
    and moves the probe with it, while hydra's own speed does not move
    the probe at all.
    """
    return FULL_SPEED_PROBE_S / statistics.median(raw["probe_s"])


def full_speed_repeats(raw, recs, value):
    """Each experiment's host time at full speed: experiment id -> value.

    The fastest repetition if there are at least MIN_FASTEST_REPEATS,
    else the median one scaled by host_scale."""
    scale = host_scale(raw)
    return {k: min(v) if len(v) >= MIN_FASTEST_REPEATS
            else statistics.median(v) * scale
            for k, v in repeats(recs, value).items()}


def end_to_end(raw):
    """Host-cost metrics of the untraced timed passes (name -> (value, unit)),
    with host times at the host's full speed."""
    timed = records(raw, "timed")
    first = by_pass(timed)[0]

    def host(value):
        return full_speed_repeats(raw, timed, value)

    walls = host(lambda r: r["host"]["wall_s"])
    setup = host(lambda r: r["host"]["build_s"] + r["host"]["attach_s"])
    loop = host(lambda r: r["host"]["loop_s"])
    exp_ms = [v * 1e3 for v in walls.values()]
    p50, _ = percentile(exp_ms, 50)
    p75, _ = percentile(exp_ms, 75)
    return {
        "wall_s": (sum(walls.values()), "s"),
        "setup_s": (sum(setup.values()), "s"),
        "events_per_s": (pass_sum(first, "counts", "sim.events") /
                         sum(loop.values()), "1/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "exp_wall_p50_ms": (p50, "ms"),
        "exp_wall_p75_ms": (p75, "ms"),
    }


# --- Simulated outcomes -----------------------------------------------------

def flow_failed(experiment, flow):
    """A file flow fails if it does not complete; a bulk flow if it
    delivers no byte by the horizon."""
    bytes_, completed, _ = flow
    if experiment["kind"] == "tcp-file":
        return not completed
    return bytes_ == 0


def outcomes(raw, recs):
    """Simulated outcomes of one pass (deterministic in the seed)."""
    exps = raw["experiments"]
    goodputs, fcts = [], []
    attempted = failed = 0
    flood_sent = flood_rx = 0.0
    for r in recs:
        e = exps[r["id"]]
        if e["kind"] == "flood":
            sim_s = r["counts"]["sim.end_ns"] / 1e9
            goodputs.append(r["counts"]["mac.delivered_up"] *
                            e["payload_bytes"] * 8 / sim_s / 1e6)
            flood_sent += r["counts"]["app.flood_sent"]
            flood_rx += r["counts"]["mac.delivered_up"]
            continue
        total = 0.0
        for flow in r["flows"]:
            bytes_, _, active_s = flow
            attempted += 1
            failed += flow_failed(e, flow)
            fcts.append(active_s)
            if active_s > 0:
                total += bytes_ * 8 / active_s / 1e6
        goodputs.append(total)
    out = {
        "goodput_mbps": (statistics.fmean(goodputs), "Mbps"),
        "flows_failed_frac": (failed / attempted if attempted else 0.0,
                              "ratio"),
        "bcast_rx_per_tx": (flood_rx / flood_sent if flood_sent else 0.0,
                            "ratio"),
    }
    if fcts:
        out["fct_p50_s"] = (percentile(fcts, 50)[0], "s")
        out["fct_p75_s"] = (percentile(fcts, 75)[0], "s")
    else:  # no flows: flood traffic runs open-ended to the horizon
        horizon = max(exps[r["id"]]["horizon_s"] for r in recs)
        out["fct_p50_s"] = (horizon, "s")
        out["fct_p75_s"] = (horizon, "s")
    return out, attempted


# --- Per-layer metrics (traced run) ------------------------------------------

def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw):
    """Per-layer metrics of the traced passes (name -> (value, unit))."""
    traced = records(raw, "traced")
    passes = by_pass(traced)
    first = passes[0]
    spans = [tuple(s) for s in raw["spans"]]
    n_passes = len(passes)

    # Span self time per name, averaged per traced pass.
    own = {k: v / n_passes for k, v in self_time_by_name(spans).items()}

    def span_s(name):
        return own.get(name, 0.0)

    def count(key):
        return pass_sum(first, "counts", key)

    def mem(key):
        return statistics.median(pass_sum(p, "mem", key) for p in passes)

    def trace(key):
        return pass_sum(first, "trace", key)

    events = count("sim.events")
    tx = count("phy.tx_frames")
    deliveries = count("phy.deliveries")
    loop_s = span_s("sim.run_slice")
    subframes = count("mac.bcast_subframes") + count("mac.ucast_subframes")
    segments = count("tcp.segments_sent")
    views = (span_s("topo.positions") + span_s("topo.adjacency") +
             span_s("topo.next_hops"))
    requests = mem("pool_requests")

    def median_wall(recs):
        return sum(median_repeats(recs, lambda r: r["host"]["wall_s"])
                   .values())

    out = {
        "topo.build_s": (span_s("topo.build"), "s"),
        "topo.positions_s": (span_s("topo.positions"), "s"),
        "topo.adjacency_s": (span_s("topo.adjacency"), "s"),
        "topo.next_hops_s": (span_s("topo.next_hops"), "s"),
        "topo.build_rest_s": (span_s("topo.build") - views, "s"),
        "topo.build_heap_mb": (mem("build_heap_bytes") / MB, "MB"),
        "app.attach_s": (span_s("app.attach"), "s"),
        "app.collect_s": (span_s("app.collect"), "s"),
        "app.experiments": (len(records(raw, "timed")), "count"),
        "app.bench_self_s": (span_s("experiment"), "s"),
        "sim.loop_s": (loop_s, "s"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (ratio(loop_s, events) * 1e9, "ns"),
        "sim.pending_peak": (max(r["counts"]["sim.pending_peak"]
                                 for r in first), "count"),
        "sim.events_per_frame": (ratio(events, tx), "ratio"),
        "phy.tx_frames": (tx, "count"),
        "phy.deliveries": (deliveries, "count"),
        "phy.fanout": (ratio(deliveries, tx), "ratio"),
        "phy.deliveries_per_s": (ratio(deliveries, loop_s), "1/s"),
        "phy.rebuilds": (count("phy.rebuilds"), "count"),
        "core.subframes_per_frame": (ratio(subframes,
                                           count("mac.data_frames")), "ratio"),
        "core.bcast_subframe_frac": (ratio(count("mac.bcast_subframes"),
                                           subframes), "ratio"),
        "mac.data_frames": (count("mac.data_frames"), "count"),
        "mac.rts": (count("mac.rts"), "count"),
        "mac.retries": (count("mac.retries"), "count"),
        "mac.retry_drops": (count("mac.retry_drops"), "count"),
        "mac.queue_drops": (count("mac.queue_drops"), "count"),
        "mac.collisions": (count("mac.collisions"), "count"),
        "mac.crc_failures": (count("mac.crc_failures"), "count"),
        "mac.overhead_frac": (ratio(count("mac.overhead_ns"),
                                    count("mac.airtime_ns")), "ratio"),
        "net.forwards": (count("net.forwards"), "count"),
        "net.local_deliveries": (trace("net.local_deliveries"), "count"),
        "net.broadcasts": (trace("net.broadcasts"), "count"),
        "net.forwards_per_delivery": (ratio(count("net.forwards"),
                                            trace("net.local_deliveries")),
                                      "ratio"),
        "net.injected_drops": (count("net.injected_drops"), "count"),
        "tcp.segments_sent": (segments, "count"),
        "tcp.retransmits": (count("tcp.retransmits"), "count"),
        "tcp.retx_frac": (ratio(count("tcp.retransmits"), segments), "ratio"),
        "tcp.fast_retransmits": (count("tcp.fast_retransmits"), "count"),
        "tcp.timeouts": (count("tcp.timeouts"), "count"),
        "tcp.acks_sent": (count("tcp.acks_sent"), "count"),
        "tcp.acks_per_segment": (ratio(count("tcp.acks_sent"), segments),
                                 "ratio"),
        "tcp.acks_delayed": (count("tcp.acks_delayed"), "count"),
        "tcp.dup_acks": (count("tcp.dup_acks"), "count"),
        "util.loop_allocs_per_event": (ratio(mem("loop_allocs"), events),
                                       "ratio"),
        "util.loop_heap_mb": (mem("loop_heap_bytes") / MB, "MB"),
        "util.pool_requests": (requests, "count"),
        "util.pool_recycle_frac": (ratio(mem("pool_recycled"), requests),
                                   "ratio"),
        "trace.overhead_frac": (median_wall(traced) /
                                median_wall(records(raw, "timed")) - 1.0,
                                "ratio"),
        "host.probe_ms": (statistics.median(raw["probe_s"]) * 1e3, "ms"),
    }
    out.update(outcomes(raw, first)[0])
    return out


# --- Correctness checks ------------------------------------------------------

def same_run(a, b):
    """Two runs of one experiment agree on every deterministic output."""
    return (a["counts"] == b["counts"] and a["flows"] == b["flows"] and
            a["mac_fingerprint"] == b["mac_fingerprint"])


def check(raw):
    """Returns a list of (name, passed, detail) correctness verdicts."""
    results = []
    exps = raw["experiments"]
    timed = records(raw, "timed")
    passes = by_pass(timed)
    first = {r["id"]: r for r in passes[0]}

    warm = records(raw, "warmup")[0]
    results.append(("rerun_identical", same_run(warm, first[0]),
                    "warm-up rerun of %s vs timed pass 0" % exps[0]["label"]))
    stable = all(same_run(r, first[r["id"]]) for r in timed)
    results.append(("passes_identical", stable,
                    "%d timed passes agree on every count" % len(passes)))

    if raw["traced"]:
        traced = records(raw, "traced")
        ok = all(same_run(r, first[r["id"]]) for r in traced)
        results.append(("traced_equals_untraced", ok,
                        "%d traced runs vs untraced pass 0" % len(traced)))
        traced0 = {r["id"]: r for r in traced if r["pass"] == 0}
        ok = all(r["trace"] == traced0[r["id"]]["trace"] for r in traced)
        results.append(("trace_digest_stable", ok,
                        "net.* trace counts and digest repeat in every "
                        "traced pass"))

    if raw["workload"] == "paper_relay":
        ref = records(raw, "reference")[0]
        composed = first[0]
        ok = (ref["counts"]["sim.events"] == composed["counts"]["sim.events"] and
              ref["counts"]["sim.end_ns"] == composed["counts"]["sim.end_ns"] and
              ref["mac_fingerprint"] == composed["mac_fingerprint"] and
              [f[:2] for f in ref["flows"]] ==
              [f[:2] for f in composed["flows"]] and
              all(abs(a[2] - b[2]) < 1e-9
                  for a, b in zip(ref["flows"], composed["flows"])))
        results.append(("matches_run_experiment", ok,
                        "%s composed vs app::run_experiment"
                        % exps[0]["label"]))

        incomplete = [exps[r["id"]]["label"] for r in passes[0]
                      if not all(f[1] for f in r["flows"])]
        results.append(("all_flows_complete", not incomplete,
                        "incomplete: %s" % (incomplete or "none")))

        results.extend(ordering_checks(exps, passes[0]))
    return results


def ordering_checks(exps, recs):
    """Per topology and ACK policy, goodput summed over the paper rates
    orders NA < UA <= BA."""
    sums = {}
    for r in recs:
        e = exps[r["id"]]
        goodput = sum(f[0] * 8 / f[2] / 1e6 for f in r["flows"] if f[2] > 0)
        key = (e["topology"], e["ack"])
        sums.setdefault(key, {}).setdefault(e["scheme"], 0.0)
        sums[key][e["scheme"]] += goodput
    out = []
    for (topology, ack), s in sorted(sums.items()):
        ok = s["NA"] < s["UA"] <= s["BA"]
        out.append(("order_%s_%s" % (topology, ack), ok,
                    "NA %.3f < UA %.3f <= BA %.3f" % (s["NA"], s["UA"],
                                                      s["BA"])))
    return out
