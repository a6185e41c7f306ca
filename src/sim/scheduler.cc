#include "sim/scheduler.h"

#include <type_traits>

#include "util/assert.h"

namespace hydra::sim {

namespace {

constexpr std::uint64_t pack_id(std::uint32_t generation,
                                std::uint32_t slot) {
  return (std::uint64_t{generation} << 32) | slot;
}

}  // namespace

Scheduler::Scheduler() {
  // 4096 keys (96 KB of address space, touched only as the queue grows)
  // spare a simulation the first dozen doublings of the key heap. The
  // size is deliberate: freeing a block of at least 64 KB makes glibc
  // consolidate its small-chunk free lists, so tearing a simulation down
  // leaves its memory coalesced for the next one instead of deferring
  // that work into the next Scenario::build (measured on a 4-vCPU VM:
  // +34% setup time on the paper's small topologies with a 3 KB heap).
  // It stays below the 128 KB mmap threshold, which would bypass the
  // arena.
  heap_.reserve(4096);
}

std::uint32_t Scheduler::acquire_slot(Callback cb) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  slots_[slot].pending = true;
  ++pending_count_;
  return slot;
}

EventId Scheduler::schedule_at(TimePoint at, Callback cb) {
  HYDRA_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  HYDRA_ASSERT(cb != nullptr);
  const std::uint32_t slot = acquire_slot(std::move(cb));
  push_key(Key{at, next_seq_++, slot});
  // generation >= 1 always, so a packed id is never 0 (the invalid id).
  return EventId(pack_id(slots_[slot].generation, slot));
}

EventId Scheduler::schedule_in(Duration delay, Callback cb) {
  HYDRA_ASSERT_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::schedule_batch(std::vector<BatchEvent>& events,
                               std::vector<EventId>* ids) {
  if (events.empty()) return;
  heap_.reserve(heap_.size() + events.size());
  if (ids) ids->reserve(ids->size() + events.size());
  for (auto& event : events) {
    HYDRA_ASSERT_MSG(event.at >= now_, "cannot schedule into the past");
    HYDRA_ASSERT(event.cb != nullptr);
    const std::uint32_t slot = acquire_slot(std::move(event.cb));
    if (ids) ids->push_back(EventId(pack_id(slots_[slot].generation, slot)));
    push_key(Key{event.at, next_seq_++, slot});
  }
  events.clear();
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  if (slot >= slots_.size()) return false;
  auto& s = slots_[slot];
  // A stale generation means the event already ran (or was already
  // cancelled) and the slot moved on; cancelling it is a no-op that must
  // report failure.
  if (s.generation != generation || !s.pending) return false;
  // Lazy deletion: clear the pending flag; the heap entry is dropped
  // (and the slot vacated) when it surfaces.
  s.pending = false;
  --pending_count_;
  return true;
}

bool Scheduler::pending(EventId id) const {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(id.id_);
  const auto generation = static_cast<std::uint32_t>(id.id_ >> 32);
  if (slot >= slots_.size()) return false;
  const auto& s = slots_[slot];
  return s.generation == generation && s.pending;
}

void Scheduler::vacate(std::uint32_t slot) {
  auto& s = slots_[slot];
  s.pending = false;
  // Bumping the generation invalidates every id handed out for this
  // occupancy. Wrap-around after 2^32 reuses of one slot is accepted:
  // a handle would have to be held across four billion rearms of the
  // same slot to alias.
  ++s.generation;
  if (s.generation == 0) s.generation = 1;  // keep packed ids non-zero
  free_slots_.push_back(slot);
}

void Scheduler::discard(std::uint32_t slot) {
  callbacks_[slot] = nullptr;
  vacate(slot);
}

void Scheduler::sift_up(std::size_t hole, Key key) {
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void Scheduler::push_key(const Key& key) {
  heap_.push_back(key);
  sift_up(heap_.size() - 1, key);
}

void Scheduler::pop_key() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Walk the root's hole down along the smallest children to a leaf,
  // then let the displaced last key rise from there: it came from the
  // bottom, so it rarely rises far, and the walk down skips comparing
  // against it on every level.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 3 < n) {
      const std::size_t lo = before(heap_[first + 1], heap_[first])
                                 ? first + 1 : first;
      const std::size_t hi = before(heap_[first + 3], heap_[first + 2])
                                 ? first + 3 : first + 2;
      best = before(heap_[hi], heap_[lo]) ? hi : lo;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  sift_up(hole, last);
}

std::optional<TimePoint> Scheduler::peek_next_time() {
  while (!heap_.empty()) {
    const Key head = heap_.front();
    if (slots_[head.slot].pending) return head.at;
    pop_key();
    discard(head.slot);
  }
  return std::nullopt;
}

void Scheduler::run_event(const Key& key) {
  // Moved out before anything else: the callback may schedule events,
  // which can reuse this slot or grow (reallocate) the slot table.
  Callback cb = std::move(callbacks_[key.slot]);
  vacate(key.slot);
  --pending_count_;
  HYDRA_ASSERT(key.at >= now_);
  now_ = key.at;
  ++executed_;
  cb();
}

void Scheduler::run_loop(TimePoint deadline) {
  while (!heap_.empty()) {
    const Key head = heap_.front();
    if (!slots_[head.slot].pending) {  // cancelled: drop lazily
      pop_key();
      discard(head.slot);
      continue;
    }
    if (head.at > deadline) break;
    pop_key();
    run_event(head);
  }
}

std::size_t Scheduler::run() {
  const auto before = executed_;
  run_loop(TimePoint::at(Duration::infinite()));
  return executed_ - before;
}

std::size_t Scheduler::run_until(TimePoint deadline) {
  const auto before = executed_;
  run_loop(deadline);
  if (now_ < deadline) now_ = deadline;
  return executed_ - before;
}

bool Scheduler::step() {
  if (!peek_next_time()) return false;
  const Key head = heap_.front();
  pop_key();
  run_event(head);
  return true;
}

}  // namespace hydra::sim
