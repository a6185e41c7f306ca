// Discrete-event scheduler: a stable 4-ary min-heap of (time, sequence)
// keys over a slot table that holds each event's callback.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.h"
#include "util/small_fn.h"

namespace hydra::sim {

// Opaque handle for cancelling a scheduled event: a slot index stamped
// with the slot's generation, so a handle goes stale the moment its
// event runs or is cancelled and the slot is reused. Id 0 is "invalid".
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return id_ != 0; }
  friend constexpr auto operator<=>(EventId, EventId) = default;

 private:
  friend class Scheduler;
  constexpr explicit EventId(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

// Single-threaded event loop. Events scheduled for the same instant run
// in scheduling order (FIFO), which keeps protocol traces deterministic.
class Scheduler {
 public:
  // Move-only with inline capture storage (boxed through the
  // BufferPool past 48 bytes), so scheduling an event allocates nothing
  // from the system heap in steady state. Accepts any void() callable,
  // like std::function, but is moved — never copied — through the heap.
  using Callback = util::SmallFn;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (must not be in the past).
  EventId schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventId schedule_in(Duration delay, Callback cb);

  // One event of a batch commit.
  struct BatchEvent {
    TimePoint at;
    Callback cb;
  };
  // Commits every event of `events` (in order — the sequence numbers are
  // assigned contiguously, so same-instant FIFO semantics match N
  // schedule_at calls exactly). The medium uses this to commit a whole
  // transmission's delivery fan-out at once.
  // With `ids`, the EventId of every committed event is appended in
  // batch order (the ids cost nothing extra — batch events already
  // occupy cancel slots), so callers can cancel individual deliveries
  // later; without it the batch is fire-and-forget. `events` is left
  // cleared for reuse; `ids` is appended to, not cleared.
  void schedule_batch(std::vector<BatchEvent>& events,
                      std::vector<EventId>* ids = nullptr);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or the id is invalid.
  bool cancel(EventId id);

  // True while the event is still queued (not yet run, not cancelled).
  // Stale-handle-safe, like cancel(): a reused slot reports false.
  bool pending(EventId id) const;

  // The time of the next live event, dropping any cancelled entries off
  // the head of the queue on the way; nullopt when the queue is empty.
  std::optional<TimePoint> peek_next_time();

  // Runs events until the queue is empty. Returns the number executed.
  std::size_t run();
  // Runs events with time <= deadline; leaves later events queued and
  // advances now() to the deadline. Returns the number executed.
  std::size_t run_until(TimePoint deadline);
  // Executes at most one event. Returns false if the queue is empty.
  bool step();

  std::size_t pending_events() const { return pending_count_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  // What the heap orders: plain 24-byte keys, so sifting never touches
  // a callback. An event's callback stays parked in callbacks_[slot]
  // from schedule until it is moved out, once, to run (or destroyed in
  // place when its cancelled key surfaces).
  struct Key {
    TimePoint at;
    std::uint64_t seq;   // tie-breaker: FIFO among same-time events
    std::uint32_t slot;  // index into slots_ / callbacks_
  };
  // One live-event slot. `generation` stamps the EventId handed out for
  // the slot's current occupant; vacating the slot bumps it, so cancel()
  // can tell "still pending" from "already ran / already cancelled /
  // slot reused" with two array loads instead of hash-set lookups. Kept
  // apart from the callbacks so the run loop's liveness check on the
  // head touches only this small array.
  struct Slot {
    std::uint32_t generation = 1;
    bool pending = false;
  };

  // Takes a free slot for a new event and parks its callback there.
  std::uint32_t acquire_slot(Callback cb);
  void vacate(std::uint32_t slot);
  // Vacates a cancelled event's slot when its key surfaces, destroying
  // the parked callback.
  void discard(std::uint32_t slot);
  // Runs the live event of `key`, already popped off the heap.
  void run_event(const Key& key);
  // The event loop shared by run() and run_until().
  void run_loop(TimePoint deadline);

  // 4-ary heap over heap_, sifting a hole rather than swapping: half
  // the depth of a binary heap, and the four children of a node are
  // adjacent keys.
  static bool before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void push_key(const Key& key);
  void pop_key();
  void sift_up(std::size_t hole, Key key);

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  std::vector<Key> heap_;
  // Slot storage grows to the high-water mark of concurrently scheduled
  // events and is then recycled through the free list; cancelled keys
  // are dropped lazily when they surface. callbacks_ parallels slots_.
  std::vector<Slot> slots_;
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace hydra::sim
