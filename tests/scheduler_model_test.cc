// Model-based test of the serial scheduler: seeded random sequences of
// schedule_at / schedule_in / schedule_batch (with and without ids),
// cancel (live, stale, already-cancelled, invalid), pending, step,
// run_until across deadlines and peek_next_time, with callbacks that
// themselves schedule and cancel, all checked against a reference
// model — a std::set ordered by (at, seq) plus an id map. Every
// execution is checked against the model's head as it happens, and
// every return value and counter after every operation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace hydra::sim {
namespace {

class SchedulerModel {
 public:
  explicit SchedulerModel(std::uint64_t seed) : rng_(seed) {}

  void run_ops(int count) {
    for (int i = 0; i < count && !::testing::Test::HasFailure(); ++i) {
      top_level_op();
      check_counters();
    }
    // Drain: everything still queued, and whatever the drained
    // callbacks add, runs in model order.
    deadline_ = std::numeric_limits<std::int64_t>::max();
    nested_budget_ = 64;
    const std::uint64_t before = executed_;
    const std::size_t ran = sched_.run();
    EXPECT_EQ(ran, executed_ - before);
    EXPECT_TRUE(queue_.empty());
    EXPECT_EQ(sched_.peek_next_time(), std::nullopt);
    check_counters();
  }

 private:
  enum class State { kPending, kRan, kCancelled };
  struct Event {
    std::int64_t at;
    std::uint64_t seq;
    State state;
  };
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at ns, seq)

  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

  // Mostly tiny delays so same-instant ties (the FIFO contract) are
  // common, with occasional long ones so the queue gets deep.
  Duration draw_delay() {
    switch (draw(4)) {
      case 0: return Duration::zero();
      case 1: return Duration::nanos(static_cast<std::int64_t>(draw(4)));
      case 2: return Duration::nanos(static_cast<std::int64_t>(draw(200)));
      default:
        return Duration::nanos(static_cast<std::int64_t>(draw(20000)));
    }
  }

  // Registers a new event in the model (the scheduler assigns the next
  // sequence number) and returns its tag; the callback checks it runs
  // exactly when the model says.
  int model_add(TimePoint at) {
    const int tag = static_cast<int>(events_.size());
    events_.push_back(Event{at.ns(), next_seq_++, State::kPending});
    queue_.emplace(at.ns(), events_.back().seq);
    tag_of_[Key{at.ns(), events_.back().seq}] = tag;
    return tag;
  }

  Scheduler::Callback callback(int tag) {
    return [this, tag] { on_run(tag); };
  }

  void schedule_one(bool absolute) {
    const Duration delay = draw_delay();
    const TimePoint at = sched_.now() + delay;
    const int tag = model_add(at);
    const EventId id = absolute ? sched_.schedule_at(at, callback(tag))
                                : sched_.schedule_in(delay, callback(tag));
    ASSERT_TRUE(id.valid());
    ids_.emplace_back(id, tag);
  }

  void schedule_batch() {
    const bool with_ids = draw(2) == 0;
    const std::size_t n = 1 + draw(24);
    std::vector<int> tags;
    for (std::size_t i = 0; i < n; ++i) {
      const TimePoint at = sched_.now() + draw_delay();
      tags.push_back(model_add(at));
      batch_.push_back({at, callback(tags.back())});
    }
    std::vector<EventId> ids{EventId{}};  // appended to, not cleared
    sched_.schedule_batch(batch_, with_ids ? &ids : nullptr);
    EXPECT_TRUE(batch_.empty());
    if (!with_ids) {
      EXPECT_EQ(ids.size(), 1u);
      return;
    }
    ASSERT_EQ(ids.size(), n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(ids[i + 1].valid());
      ids_.emplace_back(ids[i + 1], tags[i]);
    }
  }

  // Cancels a known id — live, already run or already cancelled, so
  // stale handles to reused slots are exercised — or the invalid id.
  void cancel_one() {
    if (ids_.empty() || draw(16) == 0) {
      EXPECT_FALSE(sched_.cancel(EventId{}));
      return;
    }
    const auto [id, tag] = ids_[draw(ids_.size())];
    Event& e = events_[static_cast<std::size_t>(tag)];
    const bool live = e.state == State::kPending;
    EXPECT_EQ(sched_.cancel(id), live) << "tag " << tag;
    if (live) {
      e.state = State::kCancelled;
      queue_.erase(Key{e.at, e.seq});
    }
  }

  void check_pending() {
    if (ids_.empty()) {
      EXPECT_FALSE(sched_.pending(EventId{}));
      return;
    }
    const auto [id, tag] = ids_[draw(ids_.size())];
    EXPECT_EQ(sched_.pending(id),
              events_[static_cast<std::size_t>(tag)].state ==
                  State::kPending)
        << "tag " << tag;
  }

  void on_run(int tag) {
    Event& e = events_[static_cast<std::size_t>(tag)];
    ASSERT_FALSE(queue_.empty()) << "ran tag " << tag << " off an empty model";
    ASSERT_EQ(tag_of_.at(*queue_.begin()), tag) << "out of (at, seq) order";
    ASSERT_LE(e.at, deadline_) << "ran past the run_until deadline";
    ASSERT_EQ(e.state, State::kPending);
    queue_.erase(queue_.begin());
    e.state = State::kRan;
    ++executed_;
    EXPECT_EQ(sched_.now(), TimePoint::at(Duration::nanos(e.at)));
    // Callbacks schedule and cancel too, a bounded number of times so
    // the queue cannot grow without end.
    if (nested_budget_ == 0) return;
    --nested_budget_;
    switch (draw(4)) {
      case 0: schedule_one(draw(2) == 0); break;
      case 1: schedule_batch(); break;
      case 2: cancel_one(); break;
      default: break;
    }
  }

  void top_level_op() {
    nested_budget_ = 4;
    deadline_ = std::numeric_limits<std::int64_t>::max();
    switch (draw(10)) {
      case 0:
      case 1: schedule_one(true); break;
      case 2: schedule_one(false); break;
      case 3: schedule_batch(); break;
      case 4: cancel_one(); break;
      case 5: check_pending(); break;
      case 6: {
        const bool any = !queue_.empty();
        const std::uint64_t before = executed_;
        const bool stepped = sched_.step();
        EXPECT_EQ(stepped, any);
        EXPECT_EQ(executed_ - before, any ? 1u : 0u);
        break;
      }
      case 7: {
        const TimePoint deadline = sched_.now() + draw_delay();
        deadline_ = deadline.ns();
        const std::uint64_t before = executed_;
        const std::size_t ran = sched_.run_until(deadline);
        EXPECT_EQ(ran, executed_ - before);
        EXPECT_EQ(sched_.now(), deadline);
        if (!queue_.empty()) {
          EXPECT_GT(queue_.begin()->first, deadline.ns());
        }
        break;
      }
      case 8: {
        const auto next = sched_.peek_next_time();
        if (queue_.empty()) {
          EXPECT_EQ(next, std::nullopt);
        } else {
          EXPECT_EQ(next,
                    TimePoint::at(Duration::nanos(queue_.begin()->first)));
        }
        break;
      }
      default: {
        // A same-instant burst: pure FIFO ties.
        const TimePoint at = sched_.now() + draw_delay();
        for (int i = 0; i < 3; ++i) {
          const int tag = model_add(at);
          ids_.emplace_back(sched_.schedule_at(at, callback(tag)), tag);
        }
        break;
      }
    }
  }

  void check_counters() {
    EXPECT_EQ(sched_.pending_events(), queue_.size());
    EXPECT_EQ(sched_.executed_events(), executed_);
  }

  std::mt19937_64 rng_;
  Scheduler sched_;
  std::vector<Scheduler::BatchEvent> batch_;
  std::vector<Event> events_;  // by tag
  std::set<Key> queue_;        // pending events in execution order
  std::map<Key, int> tag_of_;
  std::vector<std::pair<EventId, int>> ids_;  // every id handed out
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::int64_t deadline_ = 0;
  int nested_budget_ = 0;
};

TEST(SchedulerModel, RandomOperationSequencesMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerModel model(seed);
    model.run_ops(1500);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace hydra::sim
