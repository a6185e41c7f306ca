// The medium's differential determinism harness: culled delivery must
// be indistinguishable from the full mesh. Each scenario family — the
// four paper specs plus chain/star/grid/ring/random, including a wide
// random world where culling really drops receivers — runs once on the
// medium's own culled backend and once on the full-mesh reference
// (tests/support/full_mesh_backend.h), and both runs must produce
//
//   - the same trace digest (CRC-32 over the network-event trace),
//   - the same per-node MAC stats table, byte for byte, and
//   - the same transmission count.
//
// A change that reorders deliveries, culls an audible receiver or lets
// geometry leak into the per-pair arithmetic fails here before it can
// skew a paper figure. (The tests keep their `ShardDeterminism` suite
// name so their ids stay stable across versions.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/flood.h"
#include "app/udp_cbr.h"
#include "app/udp_sink.h"
#include "support/full_mesh_backend.h"
#include "topo/scenario.h"

namespace hydra {
namespace {

struct RunFingerprint {
  std::uint32_t digest = 0;
  std::string stats;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
};

enum class Workload {
  kCbr,   // UDP CBR over the spec's first session (exercises routing)
  kFlood  // every node broadcasts (exercises pure fan-out)
};

RunFingerprint run_scenario(const topo::ScenarioSpec& spec, bool full_mesh,
                            std::uint64_t seed, Workload workload) {
  auto s = topo::Scenario::build(spec, seed);
  if (full_mesh) {
    s.medium().set_backend(std::make_unique<testsupport::FullMeshBackend>());
  }
  s.capture_traces();

  std::unique_ptr<app::UdpSinkApp> sink;
  std::unique_ptr<app::UdpCbrApp> cbr;
  std::vector<std::unique_ptr<app::FloodApp>> flooders;
  if (workload == Workload::kCbr) {
    const auto sender = spec.sessions.front().sender;
    const auto receiver = spec.sessions.front().receiver;
    sink = std::make_unique<app::UdpSinkApp>(s.sim(), s.node(receiver), 9001);
    app::UdpCbrConfig cbr_cfg;
    cbr_cfg.destination = {proto::Ipv4Address::for_node(receiver), 9001};
    cbr_cfg.packets_per_tick = 3;
    cbr_cfg.stop = sim::TimePoint::at(sim::Duration::seconds(2));
    cbr = std::make_unique<app::UdpCbrApp>(s.sim(), s.node(sender), cbr_cfg);
    cbr->start();
  } else {
    for (std::size_t i = 0; i < s.size(); ++i) {
      app::FloodConfig fc;
      fc.interval = sim::Duration::millis(400);
      fc.initial_offset = sim::Duration::millis(17) * (i + 1);
      flooders.push_back(
          std::make_unique<app::FloodApp>(s.sim(), s.node(i), fc));
      flooders.back()->start();
    }
  }
  s.run_for(sim::Duration::seconds(3));

  EXPECT_FALSE(s.trace().empty()) << spec.label();
  if (workload == Workload::kCbr) {
    EXPECT_GT(sink->packets(), 0u) << spec.label();
  }
  RunFingerprint fp;
  fp.digest = s.trace_digest();
  fp.stats = s.metrics_summary();
  fp.transmissions = s.medium().transmissions_started();
  fp.deliveries = s.medium().deliveries_scheduled();
  return fp;
}

// Runs `spec` on the culled medium and on the full-mesh reference and
// asserts the contract. Returns how many deliveries culling skipped.
std::uint64_t assert_backends_agree(const topo::ScenarioSpec& spec,
                                    std::uint64_t seed, Workload workload) {
  const auto culled = run_scenario(spec, false, seed, workload);
  const auto full_mesh = run_scenario(spec, true, seed, workload);
  EXPECT_EQ(full_mesh.digest, culled.digest)
      << spec.label() << " seed " << seed << ": full-mesh digest diverged";
  EXPECT_EQ(full_mesh.stats, culled.stats)
      << spec.label() << " seed " << seed << ": full-mesh stats diverged";
  EXPECT_EQ(full_mesh.transmissions, culled.transmissions);
  EXPECT_LE(culled.deliveries, full_mesh.deliveries);
  return full_mesh.deliveries - culled.deliveries;
}

// ---------------------------------------------------------------------
// Paper topologies: the figures themselves must be backend-invariant.
// ---------------------------------------------------------------------

TEST(ShardDeterminism, PaperSpecs) {
  for (const auto& spec :
       {topo::ScenarioSpec::one_hop(), topo::ScenarioSpec::two_hop(),
        topo::ScenarioSpec::three_hop(), topo::ScenarioSpec::fig6_star()}) {
    for (const std::uint64_t seed : {3, 7}) {
      // Everyone is in reach: culling skips no delivery at all.
      EXPECT_EQ(assert_backends_agree(spec, seed, Workload::kCbr), 0u)
          << spec.label();
    }
  }
}

// ---------------------------------------------------------------------
// One test per open-ended family (ctest runs them in parallel).
// ---------------------------------------------------------------------

TEST(ShardDeterminism, ChainFamily) {
  assert_backends_agree(topo::ScenarioSpec::chain(6), 5, Workload::kCbr);
}

TEST(ShardDeterminism, StarFamily) {
  assert_backends_agree(topo::ScenarioSpec::star(4), 5, Workload::kCbr);
}

TEST(ShardDeterminism, GridFamily) {
  assert_backends_agree(topo::ScenarioSpec::grid(3, 3), 5, Workload::kCbr);
}

TEST(ShardDeterminism, RingFamily) {
  assert_backends_agree(topo::ScenarioSpec::ring(7), 5, Workload::kCbr);
}

TEST(ShardDeterminism, RandomFamilySeedSweep) {
  for (const std::uint64_t placement : {1, 2}) {
    for (const std::uint64_t seed : {5, 11}) {
      assert_backends_agree(topo::ScenarioSpec::random(10, placement), seed,
                            Workload::kCbr);
    }
  }
}

// ---------------------------------------------------------------------
// A wide world: the paper topologies fit inside one reach radius, where
// culling drops nobody. This one spans several, so the culled lists are
// genuinely shorter than the full mesh's.
// ---------------------------------------------------------------------

TEST(ShardDeterminism, WideRandomPlacement) {
  // Placement chains every node within range_m of an earlier one, so
  // the default 3.5 m range keeps 20 nodes inside ~17 m whatever the
  // spacing; a 10 m range over a 100 m square spreads them ~51 m across.
  auto spec = topo::ScenarioSpec::random(20, 4);
  spec.spacing_m = 20.0;
  spec.range_m = 10.0;
  ASSERT_GT(spec.world_bounds().diagonal_m(), spec.max_reach_m());
  EXPECT_GT(assert_backends_agree(spec, 9, Workload::kFlood), 0u);
}

}  // namespace
}  // namespace hydra
