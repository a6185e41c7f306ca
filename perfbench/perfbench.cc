// hydra's host-cost benchmark runner.
//
// Drives the library from outside, through its public API only, in a
// closed loop: one experiment at a time on one thread, serial scheduler,
// MediumPolicy::kAuto. Around every call it makes into a layer it reads
// a steady clock (Scenario::build, app attach, each Simulation::run_for
// slice, result collection) and, after the run, the layers' public
// counters. Everything is written as one raw JSON document; run.py turns
// it into the benchmark's metrics and correctness verdict.
//
//   perfbench --workload paper_relay --seed 1 --seconds 50 --trace 0 --out raw.json
//   perfbench --workload mesh_tcp_400 --seed 1 --dump-inputs
//
// --dump-inputs prints the generated experiment list in a canonical text
// form instead of running it: the same seed gives byte-identical output.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "app/file_transfer.h"
#include "app/flood.h"
#include "core/policy.h"
#include "proto/mode.h"
#include "topo/experiment.h"
#include "topo/scenario.h"
#include "util/alloc_stats.h"
#include "util/pool.h"

using namespace hydra;

namespace {

using Clock = std::chrono::steady_clock;

constexpr proto::Port kTcpPort = 5001;

// --- Seeded input generation -------------------------------------------

// SplitMix64: the benchmark's own generator, so every generated input is
// a function of --seed alone (no library RNG state involved).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n), n > 0 (modulo bias is irrelevant at these sizes).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

enum class Kind {
  kTcpFile,  // one file transfer per session, run until every one completes
  kTcpBulk,  // unbounded transfers, run for a fixed horizon
  kFlood,    // every node broadcasts periodically, fixed horizon
};

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kTcpFile: return "tcp-file";
    case Kind::kTcpBulk: return "tcp-bulk";
    case Kind::kFlood: return "flood";
  }
  return "?";
}

// One generated experiment: everything the library receives.
struct Experiment {
  std::string label;
  // Grouping keys for run.py's ordering check (paper_relay only).
  std::string topology, scheme, ack;
  std::size_t mode_index = 0;

  topo::ScenarioSpec spec;
  std::uint64_t sim_seed = 1;
  Kind kind = Kind::kTcpFile;
  transport::TcpConfig tcp;
  std::uint64_t file_bytes = 0;
  // kTcpFile: the completion cap; otherwise the fixed simulated horizon.
  sim::Duration horizon;
  sim::Duration slice;
  // kFlood only.
  std::uint32_t flood_payload_bytes = 40;
  sim::Duration flood_interval;
  std::vector<sim::Duration> flood_offsets;
};

// paper_relay: the paper's two-hop chain, three-hop chain and Fig. 6
// star x NA/UA/BA/DBA x the four paper rates x immediate/adaptive ACKs,
// one 0.2 MB file transfer per point, run to completion. The seed draws
// each point's simulation seed (backoff and channel draws).
std::vector<Experiment> paper_relay(std::uint64_t seed) {
  SeedRng rng(seed);
  const std::pair<const char*, topo::ScenarioSpec> topologies[] = {
      {"two_hop", topo::ScenarioSpec::two_hop()},
      {"three_hop", topo::ScenarioSpec::three_hop()},
      {"fig6_star", topo::ScenarioSpec::fig6_star()},
  };
  const std::pair<const char*, core::AggregationPolicy> schemes[] = {
      {"NA", core::AggregationPolicy::na()},
      {"UA", core::AggregationPolicy::ua()},
      {"BA", core::AggregationPolicy::ba()},
      {"DBA", core::AggregationPolicy::dba()},
  };
  const std::pair<const char*, transport::AckScheme> acks[] = {
      {"imm", transport::AckScheme::kImmediate},
      {"adpt", transport::AckScheme::kAdaptive},
  };
  std::vector<Experiment> out;
  for (const auto& [topo_name, spec] : topologies) {
    for (const auto& [scheme_name, policy] : schemes) {
      for (std::size_t mode = 0; mode < 4; ++mode) {
        for (const auto& [ack_name, ack] : acks) {
          Experiment e;
          e.topology = topo_name;
          e.scheme = scheme_name;
          e.ack = ack_name;
          e.mode_index = mode;
          e.label = std::string(topo_name) + "/" + scheme_name + "/m" +
                    std::to_string(mode) + "/" + ack_name;
          e.spec = spec;
          e.spec.node.policy = policy;
          e.spec.node.unicast_mode = proto::mode_by_index(mode);
          e.spec.node.broadcast_mode = proto::mode_by_index(mode);
          e.sim_seed = 1 + rng.below(1u << 30);
          e.kind = Kind::kTcpFile;
          e.tcp.tuning.ack = ack;
          e.file_bytes = 200'000;
          e.horizon = sim::Duration::seconds(600);
          e.slice = sim::Duration::millis(200);
          out.push_back(std::move(e));
        }
      }
    }
  }
  return out;
}

// flood_grid_10k: a 100x100 grid at 10 m spacing with the scenario
// defaults (static routes on), every node flooding 40 B every 250 ms
// from a seed-drawn phase, run for a fixed horizon.
std::vector<Experiment> flood_grid_10k(std::uint64_t seed) {
  SeedRng rng(seed);
  Experiment e;
  e.label = "grid-100x100/flood";
  e.spec = topo::ScenarioSpec::grid(100, 100);
  e.spec.spacing_m = 10.0;
  e.sim_seed = 1 + rng.below(1u << 30);
  e.kind = Kind::kFlood;
  e.horizon = sim::Duration::seconds(1);
  e.slice = sim::Duration::millis(50);
  e.flood_payload_bytes = 40;
  e.flood_interval = sim::Duration::millis(250);
  const std::size_t n = e.spec.node_count();
  e.flood_offsets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    e.flood_offsets.push_back(sim::Duration::micros(
        static_cast<std::int64_t>(1 + rng.below(250'000))));
  }
  return {std::move(e)};
}

// mesh_tcp_400: ScenarioSpec::random(400, seed-drawn placement) with
// eight bulk BA TCP flows between seed-drawn endpoint pairs (sixteen
// distinct nodes), run for a fixed horizon. kMeshes such meshes, each
// from its own draws, make up one pass. One mesh's work varies by about
// a third with its draws (whether one of its flows gets through), so
// the pass needs many meshes for its total and its per-mesh percentiles
// to read the same from seed to seed.
constexpr std::size_t kMeshes = 128;
constexpr std::size_t kMeshFlows = 8;

std::vector<Experiment> mesh_tcp_400(std::uint64_t seed) {
  SeedRng rng(seed);
  std::vector<Experiment> out;
  for (std::size_t m = 0; m < kMeshes; ++m) {
    Experiment e;
    const std::uint64_t placement = 1 + rng.below(1u << 30);
    e.spec = topo::ScenarioSpec::random(400, placement);
    e.spec.node.policy = core::AggregationPolicy::ba();
    e.label = "random-400/p" + std::to_string(placement);
    std::vector<std::uint32_t> used;
    e.spec.sessions.clear();
    const auto draw = [&] {
      for (;;) {
        const auto v = static_cast<std::uint32_t>(rng.below(400));
        if (std::find(used.begin(), used.end(), v) == used.end()) {
          used.push_back(v);
          return v;
        }
      }
    };
    for (std::size_t f = 0; f < kMeshFlows; ++f) {
      const auto sender = draw();
      const auto receiver = draw();
      e.spec.sessions.push_back({sender, receiver});
    }
    e.sim_seed = 1 + rng.below(1u << 30);
    e.kind = Kind::kTcpBulk;
    e.file_bytes = 1ULL << 40;  // never completes within the horizon
    e.horizon = sim::Duration::millis(1200);
    e.slice = sim::Duration::millis(100);
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<Experiment> generate(const std::string& workload,
                                 std::uint64_t seed) {
  if (workload == "paper_relay") return paper_relay(seed);
  if (workload == "flood_grid_10k") return flood_grid_10k(seed);
  if (workload == "mesh_tcp_400") return mesh_tcp_400(seed);
  return {};
}

// Canonical text form of the generated inputs (--dump-inputs).
std::string describe(const std::vector<Experiment>& experiments) {
  std::string out;
  char buf[256];
  for (const auto& e : experiments) {
    const auto& s = e.spec;
    std::snprintf(buf, sizeof buf,
                  "%s kind=%s family=%s nodes=%zu rows=%zu cols=%zu "
                  "spacing=%.17g placement=%" PRIu64 " sim_seed=%" PRIu64
                  " mode=%zu policy=%d ack=%d file=%" PRIu64
                  " horizon_ns=%" PRId64 " slice_ns=%" PRId64 "\n",
                  e.label.c_str(), to_string(e.kind),
                  topo::to_string(s.family).c_str(), s.nodes, s.rows, s.cols,
                  s.spacing_m, s.placement_seed, e.sim_seed, e.mode_index,
                  static_cast<int>(s.node.policy.mode),
                  static_cast<int>(e.tcp.tuning.ack), e.file_bytes,
                  e.horizon.ns(), e.slice.ns());
    out += buf;
    out += "  sessions:";
    for (const auto& session : s.sessions) {
      std::snprintf(buf, sizeof buf, " %u>%u", session.sender,
                    session.receiver);
      out += buf;
    }
    out += "\n";
    if (!e.flood_offsets.empty()) {
      out += "  flood_offsets_ns:";
      for (const auto& d : e.flood_offsets) {
        out += ' ';
        out += std::to_string(d.ns());
      }
      out += "\n";
    }
  }
  return out;
}

// --- Spans ----------------------------------------------------------------

struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  // index into the span list, -1 for an experiment root
  int experiment;
};

// In-memory span recorder; a disabled tracer records nothing.
class Tracer {
 public:
  Tracer(Clock::time_point origin, bool enabled)
      : origin_(origin), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int open(const char* name, int experiment) {
    if (!enabled_) return -1;
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back(),
                      experiment});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- Running one experiment -------------------------------------------------

struct FlowRecord {
  std::uint64_t bytes = 0;
  bool completed = false;
  double active_s = 0.0;  // completion time, or start-to-horizon if open
};

using Fields = std::vector<std::pair<std::string, double>>;

struct Record {
  std::string phase;
  int pass = 0;
  std::size_t id = 0;
  Fields host;    // host seconds per layer call
  Fields mem;     // allocation meters (warm-up dependent)
  Fields counts;  // deterministic in the seed
  Fields trace;   // traced runs only (capture_traces)
  std::vector<FlowRecord> flows;
  std::uint64_t mac_fingerprint = 0;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- Host speed probe -------------------------------------------------------
//
// On a shared host the speed of the cores drifts by tens of percent over
// tens of seconds as other tenants load the machine. The runner samples
// that speed with fixed work of hydra's kind that runs none of hydra's
// code: a small discrete-event loop over a binary-heap queue of 4096
// timestamps and a table of per-id state. Its memory is allocated once
// and stays cache-resident, so neither hydra's allocator nor its
// footprint moves it. A sample is the fastest of kProbeRepeats runs of
// that loop. One sample falls due per kProbeEvery of wall time, and due
// samples are taken between experiments, never inside one. run.py scales
// host times by the run's median sample.
class HostProbe {
 public:
  HostProbe() : state_(kSlots) { queue_.reserve(kIds); }

  void sample_if_due() {
    while (Clock::now() >= next_) {
      double best = 0.0;
      for (int i = 0; i < kProbeRepeats; ++i) {
        const auto t = Clock::now();
        event_loop();
        const double took = seconds_since(t);
        if (i == 0 || took < best) best = took;
      }
      samples_.push_back(best);
      next_ += kProbeEvery;
    }
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  // Queue keys are time << 12 | id, so the smallest key is the next event.
  void push(std::uint64_t key) {
    queue_.push_back(key);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
  }
  std::uint64_t pop() {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
    const auto key = queue_.back();
    queue_.pop_back();
    return key;
  }

  void event_loop() {
    queue_.clear();
    std::fill(state_.begin(), state_.end(), 0);
    SeedRng rng(0x5eed);
    for (std::uint64_t id = 0; id < kIds; ++id) {
      push(rng.below(1'000'000) << 12 | id);
    }
    std::uint64_t acc = 0;
    for (int i = 0; i < kProbeEvents; ++i) {
      const auto key = pop();
      const auto at = key >> 12;
      const auto id = static_cast<std::uint32_t>(key & (kIds - 1));
      auto& slot = state_[(id * 2654435761u) & (kSlots - 1)];
      slot += at;
      for (std::uint32_t b = 0; b < 8 + (id & 31); ++b) acc += slot >> b;
      push((at + 1 + rng.below(1000)) << 12 | (acc & (kIds - 1)));
    }
    sink_ = acc;
  }

  static constexpr std::uint64_t kIds = 4096;
  static constexpr std::uint32_t kSlots = 65536;
  static constexpr int kProbeEvents = 20'000;
  static constexpr int kProbeRepeats = 3;
  static constexpr auto kProbeEvery = std::chrono::milliseconds(500);
  std::vector<std::uint64_t> queue_;
  std::vector<std::uint64_t> state_;
  Clock::time_point next_ = Clock::now();
  volatile std::uint64_t sink_ = 0;
  std::vector<double> samples_;
};

// FNV-1a over every per-node MAC counter, including the airtime split.
std::uint64_t mac_fingerprint(const std::vector<mac::MacStats>& stats) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& s : stats) {
    for (const auto v :
         {s.data_frames_tx, s.broadcast_subframes_tx, s.unicast_subframes_tx,
          s.data_bytes_tx, s.mac_header_bytes_tx, s.rts_tx, s.cts_tx, s.ack_tx,
          s.retries, s.retry_drops, s.queue_drops, s.delivered_up,
          s.dropped_not_for_us, s.crc_failures, s.aggregate_discards,
          s.duplicates_suppressed, s.acks_rx, s.collisions}) {
      mix(v);
    }
    for (const auto d : {s.time.payload, s.time.mac_header, s.time.phy_header,
                         s.time.control, s.time.ifs, s.time.backoff}) {
      mix(static_cast<std::uint64_t>(d.ns()));
    }
  }
  return h;
}

Record run_one(const Experiment& e, Tracer& tracer, int instance) {
  Record r;
  const int root = tracer.open("experiment", instance);
  const auto t_start = Clock::now();

  // The public spec views, timed on their own (traced runs only: at
  // N=10k next_hops() is a 400 MB matrix that Scenario::build computes
  // again internally).
  if (tracer.enabled()) {
    int span = tracer.open("topo.positions", instance);
    const auto positions = e.spec.positions();
    tracer.close(span);
    span = tracer.open("topo.adjacency", instance);
    const auto adjacency = e.spec.adjacency(positions);
    tracer.close(span);
    span = tracer.open("topo.next_hops", instance);
    { const auto next_hops = e.spec.next_hops(adjacency); }
    tracer.close(span);
  }

  // topo: build.
  const auto alloc_build = util::alloc_snapshot();
  auto t = Clock::now();
  int span = tracer.open("topo.build", instance);
  auto scenario = topo::Scenario::build(e.spec, e.sim_seed);
  tracer.close(span);
  r.host.emplace_back("build_s", seconds_since(t));
  r.mem.emplace_back(
      "build_heap_bytes",
      static_cast<double>(util::alloc_snapshot().bytes - alloc_build.bytes));
  if (tracer.enabled()) scenario.capture_traces();

  sim::Simulation& simulation = scenario.sim();
  const std::size_t n = scenario.size();

  // app: attach, in app::run_experiment's construction order.
  t = Clock::now();
  span = tracer.open("app.attach", instance);
  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  std::vector<std::unique_ptr<app::FileReceiverApp>> receivers(n);
  std::vector<std::unique_ptr<app::FileSenderApp>> senders;
  std::vector<std::size_t> flows_at(n, 0);
  const auto& sessions = e.spec.sessions;
  if (e.kind == Kind::kFlood) {
    for (std::uint32_t i = 0; i < n; ++i) {
      app::FloodConfig fc;
      fc.payload_bytes = e.flood_payload_bytes;
      fc.interval = e.flood_interval;
      fc.initial_offset = e.flood_offsets.at(i);
      flooders.push_back(
          std::make_unique<app::FloodApp>(simulation, scenario.node(i), fc));
      flooders.back()->start();
    }
  } else {
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto [src, dst] = sessions[s];
      if (!receivers[dst]) {
        receivers[dst] = std::make_unique<app::FileReceiverApp>(
            simulation, scenario.node(dst), kTcpPort, e.file_bytes, e.tcp);
      }
      ++flows_at[dst];
      senders.push_back(std::make_unique<app::FileSenderApp>(
          simulation, scenario.node(src),
          proto::Endpoint{proto::Ipv4Address::for_node(dst), kTcpPort},
          e.file_bytes, e.tcp));
      senders.back()->start(
          sim::TimePoint::at(sim::Duration::millis(10) * (s + 1)));
    }
  }
  tracer.close(span);
  r.host.emplace_back("attach_s", seconds_since(t));

  // sim: the event loop, in slices. A file experiment stops at the first
  // slice boundary where every flow has completed (app::run_experiment's
  // loop exactly); the others run to the horizon.
  const auto all_done = [&] {
    for (std::size_t d = 0; d < n; ++d) {
      if (receivers[d] && !receivers[d]->all_complete(flows_at[d])) {
        return false;
      }
    }
    return true;
  };
  auto& scheduler = simulation.scheduler();
  const auto deadline = sim::TimePoint::at(e.horizon);
  std::uint64_t pending_peak = scheduler.pending_events();
  std::uint64_t slices = 0;
  const auto alloc_loop = util::alloc_snapshot();
  const auto pool_loop = util::BufferPool::stats();
  t = Clock::now();
  while (simulation.now() < deadline) {
    if (e.kind == Kind::kTcpFile && all_done()) break;
    span = tracer.open("sim.run_slice", instance);
    simulation.run_for(e.slice);
    tracer.close(span);
    ++slices;
    pending_peak = std::max<std::uint64_t>(pending_peak,
                                           scheduler.pending_events());
  }
  r.host.emplace_back("loop_s", seconds_since(t));
  const auto alloc_end = util::alloc_snapshot();
  const auto pool_end = util::BufferPool::stats();
  r.mem.emplace_back("loop_allocs", static_cast<double>(
                                        alloc_end.allocations -
                                        alloc_loop.allocations));
  r.mem.emplace_back("loop_heap_bytes",
                     static_cast<double>(alloc_end.bytes - alloc_loop.bytes));
  r.mem.emplace_back("pool_requests", static_cast<double>(
                                          pool_end.requests -
                                          pool_loop.requests));
  r.mem.emplace_back("pool_recycled", static_cast<double>(
                                          pool_end.recycled -
                                          pool_loop.recycled));

  // app: collect, through the public accessors.
  t = Clock::now();
  span = tracer.open("app.collect", instance);
  const auto count = [&r](const char* name, std::uint64_t v) {
    r.counts.emplace_back(name, static_cast<double>(v));
  };
  const auto sim_now = simulation.now();
  count("sim.end_ns", static_cast<std::uint64_t>(sim_now.since_origin().ns()));
  count("sim.events", scheduler.executed_events());
  count("sim.pending_peak", pending_peak);
  count("sim.slices", slices);
  auto& medium = scenario.medium();
  count("phy.tx_frames", medium.transmissions_started());
  count("phy.deliveries", medium.deliveries_scheduled());
  count("phy.rebuilds", medium.rebuilds());

  std::vector<mac::MacStats> node_stats;
  node_stats.reserve(n);
  mac::MacStats sum;
  sim::Duration overhead, airtime;
  std::uint64_t forwards = 0, injected = 0, ttl_drops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& node = scenario.node(i);
    const auto& st = node.mac_stats();
    node_stats.push_back(st);
    sum.data_frames_tx += st.data_frames_tx;
    sum.broadcast_subframes_tx += st.broadcast_subframes_tx;
    sum.unicast_subframes_tx += st.unicast_subframes_tx;
    sum.rts_tx += st.rts_tx;
    sum.retries += st.retries;
    sum.retry_drops += st.retry_drops;
    sum.queue_drops += st.queue_drops;
    sum.collisions += st.collisions;
    sum.crc_failures += st.crc_failures;
    sum.delivered_up += st.delivered_up;
    overhead += st.time.overhead();
    airtime += st.time.total();
    forwards += node.stack().forwarded();
    injected += node.stack().injected_drops();
    ttl_drops += node.stack().ttl_drops();
  }
  r.mac_fingerprint = mac_fingerprint(node_stats);
  count("mac.data_frames", sum.data_frames_tx);
  count("mac.bcast_subframes", sum.broadcast_subframes_tx);
  count("mac.ucast_subframes", sum.unicast_subframes_tx);
  count("mac.rts", sum.rts_tx);
  count("mac.retries", sum.retries);
  count("mac.retry_drops", sum.retry_drops);
  count("mac.queue_drops", sum.queue_drops);
  count("mac.collisions", sum.collisions);
  count("mac.crc_failures", sum.crc_failures);
  count("mac.delivered_up", sum.delivered_up);
  count("mac.overhead_ns", static_cast<std::uint64_t>(overhead.ns()));
  count("mac.airtime_ns", static_cast<std::uint64_t>(airtime.ns()));
  count("net.forwards", forwards);
  count("net.injected_drops", injected);
  count("net.ttl_drops", ttl_drops);

  transport::TcpStats tcp;
  const auto add_tcp = [&tcp](const transport::TcpConnection& conn) {
    const auto& st = conn.stats();
    tcp.segments_sent += st.segments_sent;
    tcp.retransmits += st.retransmits;
    tcp.fast_retransmits += st.fast_retransmits;
    tcp.timeouts += st.timeouts;
    tcp.acks_sent += st.acks_sent;
    tcp.acks_delayed += st.acks_delayed;
    tcp.dup_acks_seen += st.dup_acks_seen;
  };
  for (const auto& sender : senders) {
    if (sender->connection()) add_tcp(*sender->connection());
  }
  for (const auto& recv : receivers) {
    if (!recv) continue;
    for (std::size_t i = 0; i < recv->flow_count(); ++i) {
      add_tcp(recv->connection(i));
    }
  }
  count("tcp.segments_sent", tcp.segments_sent);
  count("tcp.retransmits", tcp.retransmits);
  count("tcp.fast_retransmits", tcp.fast_retransmits);
  count("tcp.timeouts", tcp.timeouts);
  count("tcp.acks_sent", tcp.acks_sent);
  count("tcp.acks_delayed", tcp.acks_delayed);
  count("tcp.dup_acks", tcp.dup_acks_seen);

  std::uint64_t flood_sent = 0;
  for (const auto& f : flooders) flood_sent += f->packets_sent();
  count("app.flood_sent", flood_sent);

  // Flows: sessions at a shared receiver are accepted in start order.
  std::vector<std::size_t> seen_at(n, 0);
  for (std::size_t s = 0; s < senders.size(); ++s) {
    const auto [src, dst] = sessions[s];
    (void)src;
    FlowRecord fr;
    const auto& recv = *receivers[dst];
    const std::size_t flow_index = seen_at[dst]++;
    const auto start = senders[s]->started_at();
    if (flow_index < recv.flow_count()) {
      const auto& flow = recv.flow(flow_index);
      fr.bytes = std::min(flow.received, e.file_bytes);
      fr.completed = flow.complete;
      fr.active_s = flow.complete ? (flow.completed_at - start).seconds_f()
                                  : (sim_now - start).seconds_f();
    } else {
      fr.active_s = (sim_now - start).seconds_f();
    }
    r.flows.push_back(fr);
  }

  if (tracer.enabled()) {
    std::uint64_t local = 0, bcast = 0;
    for (const auto& line : scenario.trace()) {
      if (line.find(" local ") != std::string::npos) ++local;
      if (line.find(" bcast ") != std::string::npos) ++bcast;
    }
    r.trace.emplace_back("net.local_deliveries", static_cast<double>(local));
    r.trace.emplace_back("net.broadcasts", static_cast<double>(bcast));
    r.trace.emplace_back("net.trace_digest",
                         static_cast<double>(scenario.trace_digest()));
  }
  tracer.close(span);
  r.host.emplace_back("collect_s", seconds_since(t));
  r.host.emplace_back("wall_s", seconds_since(t_start));
  tracer.close(root);
  return r;
}

// The composed run's app::run_experiment twin, for the equivalence check.
Record run_reference(const Experiment& e) {
  topo::ExperimentConfig cfg;
  cfg.scenario = e.spec;
  cfg.traffic = topo::TrafficKind::kTcp;
  cfg.tcp_file_bytes = e.file_bytes;
  cfg.tcp = e.tcp;
  cfg.seed = e.sim_seed;
  cfg.max_sim_time = e.horizon;
  const auto result = app::run_experiment(cfg);
  Record r;
  r.counts.emplace_back("sim.events",
                        static_cast<double>(result.sched_executed_events));
  r.counts.emplace_back("sim.end_ns",
                        static_cast<double>(result.sim_time.ns()));
  for (const auto& flow : result.flows) {
    r.flows.push_back({flow.completed ? flow.bytes : 0, flow.completed,
                       flow.elapsed.seconds_f()});
  }
  r.mac_fingerprint = mac_fingerprint(result.node_stats);
  return r;
}

// --- Output ------------------------------------------------------------------

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_fields(std::string& out, const char* key, const Fields& fields) {
  out += "\"";
  out += key;
  out += "\": {";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields[i].first + "\": ";
    append_number(out, fields[i].second);
  }
  out += "}";
}

void append_record(std::string& out, const Record& r) {
  out += "{\"phase\": \"" + r.phase + "\", \"pass\": " +
         std::to_string(r.pass) + ", \"id\": " + std::to_string(r.id) + ", ";
  append_fields(out, "host", r.host);
  out += ", ";
  append_fields(out, "mem", r.mem);
  out += ", ";
  append_fields(out, "counts", r.counts);
  out += ", ";
  append_fields(out, "trace", r.trace);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, r.mac_fingerprint);
  out += ", \"mac_fingerprint\": \"";
  out += buf;
  out += "\", \"flows\": [";
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    if (i > 0) out += ", ";
    out += '[';
    out += std::to_string(r.flows[i].bytes);
    out += r.flows[i].completed ? ", true, " : ", false, ";
    append_number(out, r.flows[i].active_s);
    out += "]";
  }
  out += "]}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{paper_relay|flood_grid_10k|mesh_tcp_400} --seed N "
               "[--seconds S] [--trace 0|1] [--out FILE] [--dump-inputs]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_path;
  std::uint64_t seed = 0;
  bool have_seed = false, traced = false, dump = false;
  double seconds = 50.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      traced = value() == "1";
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--dump-inputs") {
      dump = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  const auto experiments = generate(workload, seed);
  if (experiments.empty()) usage(("unknown workload '" + workload + "'").c_str());
  if (dump) {
    std::fputs(describe(experiments).c_str(), stdout);
    return 0;
  }
  if (out_path.empty()) usage("--out is required");

  const auto origin = Clock::now();
  Tracer off(origin, false), on(origin, traced);
  HostProbe probe;
  std::vector<Record> records;
  int instance = 0;

  // Warm-up: the first experiment once, untimed. It fills the
  // process-global buffer pool and is the same-seed rerun the
  // determinism check compares against the first timed pass.
  {
    probe.sample_if_due();
    auto r = run_one(experiments.front(), off, instance++);
    r.phase = "warmup";
    records.push_back(std::move(r));
  }

  // Timed passes over the whole experiment list, at least one and then
  // as many as fit in the budget at the longest pass so far; a traced
  // invocation splits the budget between an untraced and a traced half. Every pass repeats the same simulations, so the process
  // reaches its simulation peak RSS by the end of the first untraced
  // pass; later passes only grow this runner's record list.
  std::uint64_t peak_rss_kb = 0;
  const auto run_passes = [&](const char* phase, Tracer& tracer,
                              double budget_s) {
    const auto start = Clock::now();
    int pass = 0;
    double longest_s = 0.0;
    do {
      const auto pass_start = Clock::now();
      for (std::size_t id = 0; id < experiments.size(); ++id) {
        probe.sample_if_due();
        auto r = run_one(experiments[id], tracer, instance++);
        r.phase = phase;
        r.pass = pass;
        r.id = id;
        records.push_back(std::move(r));
      }
      if (peak_rss_kb == 0) peak_rss_kb = util::peak_rss_kb();
      longest_s = std::max(longest_s, seconds_since(pass_start));
      ++pass;
    } while (seconds_since(start) + longest_s <= budget_s);
  };
  run_passes("timed", off, traced ? seconds / 2 : seconds);
  if (traced) run_passes("traced", on, seconds / 2);
  probe.sample_if_due();

  if (workload == "paper_relay") {
    auto r = run_reference(experiments.front());
    r.phase = "reference";
    records.push_back(std::move(r));
  }

  std::string doc = "{\"workload\": \"" + workload + "\", \"seed\": " +
                    std::to_string(seed) + ", \"traced\": " +
                    (traced ? "true" : "false") +
                    ", \"peak_rss_kb\": " + std::to_string(peak_rss_kb) +
                    ", \"probe_s\": [";
  for (std::size_t i = 0; i < probe.samples().size(); ++i) {
    if (i > 0) doc += ", ";
    append_number(doc, probe.samples()[i]);
  }
  doc += "], \"experiments\": [";
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const auto& e = experiments[i];
    if (i > 0) doc += ", ";
    doc += "{\"label\": \"" + e.label + "\", \"kind\": \"" +
           to_string(e.kind) + "\", \"topology\": \"" + e.topology +
           "\", \"scheme\": \"" + e.scheme + "\", \"ack\": \"" + e.ack +
           "\", \"mode\": " + std::to_string(e.mode_index) +
           ", \"nodes\": " + std::to_string(e.spec.node_count()) +
           ", \"payload_bytes\": " + std::to_string(e.flood_payload_bytes) +
           ", \"horizon_s\": ";
    append_number(doc, e.horizon.seconds_f());
    doc += "}";
  }
  doc += "], \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) doc += ",\n";
    append_record(doc, records[i]);
  }
  doc += "], \"spans\": [";
  const auto& spans = on.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) doc += ",\n";
    const auto& s = spans[i];
    doc += "[\"";
    doc += s.name;
    doc += "\", ";
    append_number(doc, s.start_s);
    doc += ", ";
    append_number(doc, s.end_s);
    doc += ", " + std::to_string(s.parent) + ", " +
           std::to_string(s.experiment) + "]";
  }
  doc += "]}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  return 0;
}
