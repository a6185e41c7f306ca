// Edge cases of the discrete-event scheduler: cancellation semantics,
// FIFO ordering at one instant, run_until clock handling, pending-event
// accounting under cancellations, peek_next_time, and the boundary
// behaviour of parallel lookahead windows (exact-boundary events,
// in-window cancellation, zero-lookahead fallback).
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sim/scheduler.h"

namespace hydra::sim {
namespace {

TEST(SchedulerEdge, CancelAfterRunReturnsFalse) {
  Scheduler sched;
  int runs = 0;
  const auto id = sched.schedule_in(Duration::millis(1), [&] { ++runs; });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(sched.cancel(id));  // already executed
}

TEST(SchedulerEdge, CancelTwiceReturnsFalseTheSecondTime) {
  Scheduler sched;
  const auto id = sched.schedule_in(Duration::millis(1), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
  EXPECT_EQ(sched.run(), 0u);
}

TEST(SchedulerEdge, InvalidIdCancelReturnsFalse) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
}

TEST(SchedulerEdge, SameInstantEventsRunInSchedulingOrder) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  for (int i = 0; i < 8; ++i) {
    sched.schedule_at(at, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SchedulerEdge, FifoHoldsForEventsScheduledFromCallbacks) {
  Scheduler sched;
  std::vector<int> order;
  const auto at = TimePoint::at(Duration::millis(5));
  sched.schedule_at(at, [&] {
    order.push_back(0);
    // Same-instant event scheduled while running: goes to the back.
    sched.schedule_at(at, [&] { order.push_back(2); });
  });
  sched.schedule_at(at, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerEdge, RunUntilAdvancesNowAndKeepsLaterEventsQueued) {
  Scheduler sched;
  int early = 0, late = 0;
  sched.schedule_in(Duration::millis(10), [&] { ++early; });
  sched.schedule_in(Duration::millis(30), [&] { ++late; });
  const auto deadline = TimePoint::at(Duration::millis(20));
  EXPECT_EQ(sched.run_until(deadline), 1u);
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(sched.now(), deadline);  // clock lands on the deadline
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(late, 1);
}

TEST(SchedulerEdge, PendingEventsExcludesCancellations) {
  Scheduler sched;
  const auto a = sched.schedule_in(Duration::millis(1), [] {});
  sched.schedule_in(Duration::millis(2), [] {});
  const auto c = sched.schedule_in(Duration::millis(3), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_TRUE(sched.cancel(c));
  EXPECT_EQ(sched.pending_events(), 1u);
  // Only the surviving event executes and the counters settle.
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(SchedulerEdge, PeekNextTimeSkipsCancelledHeads) {
  Scheduler sched;
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
  const auto a = sched.schedule_in(Duration::millis(1), [] {});
  sched.schedule_in(Duration::millis(2), [] {});
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(1)));
  // Cancelling the head must not leave a stale peek: the tombstone is
  // dropped and the next live event surfaces.
  EXPECT_TRUE(sched.cancel(a));
  EXPECT_EQ(sched.peek_next_time(), TimePoint::at(Duration::millis(2)));
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.peek_next_time(), std::nullopt);
}

// ---------------------------------------------------------------------
// Parallel-window boundaries. These drive the window engine directly
// with a hand-rolled lookahead provider; the scenario-level digest
// contract lives in parallel_sched_test.
// ---------------------------------------------------------------------

TEST(SchedulerEdge, EventExactlyAtWindowBoundaryWaitsForTheNextWindow) {
  Scheduler sched;
  sched.set_lookahead_provider([] { return Duration::millis(10); });
  sched.set_execution(ExecutionPolicy::kParallelWindows, 2);

  // The window is [now, now + lookahead): an event exactly at the
  // boundary is NOT safe to run concurrently (an in-window event may
  // schedule onto another node at exactly now + lookahead), so it must
  // land in the next window, after the clock has advanced.
  std::vector<int> order;
  Scheduler::AffinityScope scope(0);
  sched.schedule_at(TimePoint::at(Duration::millis(0)),
                    [&] { order.push_back(0); });
  sched.schedule_at(TimePoint::at(Duration::millis(10)),
                    [&] { order.push_back(1); });
  EXPECT_EQ(sched.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_GE(sched.windows_executed(), 2u)
      << "the boundary event must not be absorbed into the first window";
}

TEST(SchedulerEdge, CancelFromInsideAWindow) {
  Scheduler sched;
  sched.set_lookahead_provider([] { return Duration::millis(50); });
  sched.set_execution(ExecutionPolicy::kParallelWindows, 2);

  // Both the canceller and the victim sit inside one window on the same
  // node, so the in-window cancel path (not the deferred-op commit) is
  // what keeps the victim from running.
  Scheduler::AffinityScope scope(3);
  int victim_runs = 0;
  EventId victim;
  victim = sched.schedule_at(TimePoint::at(Duration::millis(2)),
                             [&] { ++victim_runs; });
  bool cancelled = false;
  sched.schedule_at(TimePoint::at(Duration::millis(1)),
                    [&] { cancelled = sched.cancel(victim); });
  // A post-window victim exercises the deferred-cancel path too.
  int late_runs = 0;
  EventId late;
  late = sched.schedule_at(TimePoint::at(Duration::millis(200)),
                           [&] { ++late_runs; });
  sched.schedule_at(TimePoint::at(Duration::millis(3)),
                    [&] { sched.cancel(late); });

  sched.run();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(victim_runs, 0);
  EXPECT_EQ(late_runs, 0);
  EXPECT_EQ(sched.executed_events(), 2u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerEdge, ZeroLookaheadFallsBackToSerialStepping) {
  // Three configurations in which the parallel policy must degrade to
  // plain serial stepping: no provider, a zero provider, and untagged
  // (kNoAffinity) events under a healthy provider.
  {
    Scheduler sched;
    sched.set_execution(ExecutionPolicy::kParallelWindows, 4);
    Scheduler::AffinityScope scope(0);
    int runs = 0;
    sched.schedule_in(Duration::millis(1), [&] { ++runs; });
    sched.schedule_in(Duration::millis(2), [&] { ++runs; });
    EXPECT_EQ(sched.run(), 2u);
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(sched.windows_executed(), 0u) << "no provider, no windows";
  }
  {
    Scheduler sched;
    sched.set_lookahead_provider([] { return Duration::zero(); });
    sched.set_execution(ExecutionPolicy::kParallelWindows, 4);
    Scheduler::AffinityScope scope(0);
    int runs = 0;
    sched.schedule_in(Duration::millis(1), [&] { ++runs; });
    EXPECT_EQ(sched.run(), 1u);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sched.windows_executed(), 0u) << "zero lookahead, no windows";
  }
  {
    Scheduler sched;
    sched.set_lookahead_provider([] { return Duration::millis(10); });
    sched.set_execution(ExecutionPolicy::kParallelWindows, 4);
    int runs = 0;
    sched.schedule_in(Duration::millis(1), [&] { ++runs; });  // untagged
    EXPECT_EQ(sched.run(), 1u);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sched.windows_executed(), 0u)
        << "untagged events are serial barriers";
  }
}

TEST(SchedulerEdge, ParallelCountersTrackWindowsAndOverlap) {
  Scheduler sched;
  sched.set_lookahead_provider([] { return Duration::millis(100); });
  sched.set_execution(ExecutionPolicy::kParallelWindows, 4);

  // Four events on four distinct nodes inside one window: one window,
  // four events executed with more than one concurrent group. The
  // groups really run concurrently, so the shared counter is atomic.
  std::atomic<int> runs = 0;
  for (std::uint32_t node = 0; node < 4; ++node) {
    Scheduler::AffinityScope scope(node);
    sched.schedule_at(TimePoint::at(Duration::millis(1 + node)),
                      [&] { ++runs; });
  }
  EXPECT_EQ(sched.run(), 4u);
  EXPECT_EQ(runs.load(), 4);
  EXPECT_EQ(sched.windows_executed(), 1u);
  EXPECT_EQ(sched.parallel_events_executed(), 4u);
  EXPECT_EQ(sched.executed_events(), 4u);

  // A single-group window executes but contributes no "parallel" events.
  {
    Scheduler::AffinityScope scope(0);
    sched.schedule_in(Duration::millis(1), [&] { ++runs; });
  }
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(sched.windows_executed(), 2u);
  EXPECT_EQ(sched.parallel_events_executed(), 4u);
}

}  // namespace
}  // namespace hydra::sim
