// Discrete-event scheduler: a binary heap of (time, sequence, callback).
//
// Events scheduled for the same instant execute in scheduling order (the
// sequence number breaks ties), which keeps runs deterministic. Cancellation
// is lazy and O(1): an EventHandle points into a slab of generation-counted
// slots owned by the scheduler; cancelling flips the slot's live bit and the
// dead heap entry is skipped when it surfaces — or reclaimed wholesale by a
// compaction pass once dead entries outnumber live ones.
//
// Re-arming a timer to a later deadline (RTO, delayed ACK) does not touch
// the heap at all: defer() rewrites the slot's true (time, sequence) key and
// leaves the heap entry under its old, earlier key. When that stale entry
// surfaces, skim() re-inserts it under the true key before anything fires,
// so the firing order is exactly that of cancel + schedule_at.
//
// Callbacks are stored in a move-only small-buffer UniqueFunction instead of
// std::function, and handles are (slot index, generation) pairs instead of
// shared_ptr<bool>, which removes two heap allocations and the refcount
// traffic from the per-event hot path.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace pi2::sim {

class Scheduler;

/// Position of an event in the firing order: time first, then the sequence
/// number the scheduler handed out when the event was scheduled (or when
/// the key was reserved with Scheduler::reserve_seq()).
struct EventKey {
  Time at;
  std::uint64_t seq = 0;
};

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles refer to no event. Copies share the same underlying event. A
/// handle must not outlive the scheduler that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the event is still scheduled to fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot, std::uint32_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  /// Schedules `fn` to run at absolute time `at`. `at` must not be before
  /// the current time of the owning simulator (checked by Simulator).
  EventHandle schedule_at(Time at, UniqueFunction fn) {
    return schedule(EventKey{at, next_seq_++}, std::move(fn));
  }

  /// Schedules `fn` under a key whose sequence number came from
  /// reserve_seq(): the event fires exactly where an event scheduled at
  /// reservation time would have.
  EventHandle schedule(EventKey key, UniqueFunction fn);

  /// Hands out the next sequence number without scheduling anything.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Moves a pending event to `at` with a fresh sequence number, exactly as
  /// cancel() + schedule_at(at, same callback) would, and returns true. If
  /// `at` is earlier than the event's current time, the event is cancelled
  /// instead and false is returned (the caller schedules afresh). False too
  /// when the handle is not pending.
  bool defer(const EventHandle& handle, Time at);

  /// True if no live events remain.
  [[nodiscard]] bool empty() const;

  /// Time of the earliest live event; kTimeInfinity if none.
  [[nodiscard]] Time next_time() const;

  /// Pops and runs the earliest live event; returns its time.
  /// Precondition: !empty().
  Time run_next();

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Number of events cancelled before they fired (defer() fallbacks
  /// included).
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

  /// Heap entries currently held, including cancelled ones awaiting
  /// reclamation. Bounded at < 2x the live count by compaction.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  /// Scheduled-and-not-yet-cancelled events in the heap.
  [[nodiscard]] std::size_t live_size() const { return heap_.size() - dead_; }

  /// Number of compaction passes performed (observability / tests).
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  friend class EventHandle;

  /// Heap entries are trivially-copyable 24-byte records: every sift during
  /// push/pop moves only these, never a callback. The callback lives in the
  /// slab slot and is touched exactly twice: stored on schedule, moved out
  /// on fire. An entry's key may be older (never later) than its slot's.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  /// One slab slot per in-heap event, holding the event's true key.
  /// `generation` invalidates stale handles once the slot is recycled;
  /// `live` is cleared by cancel() or on fire. Cancelling destroys the
  /// callback immediately (releasing its captures) even though the heap
  /// entry lingers until skim/compaction.
  struct Slot {
    UniqueFunction fn;
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;
    bool live = false;
  };

  void cancel(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool pending(std::uint32_t slot, std::uint32_t generation) const;

  std::uint32_t allocate_slot();
  /// Recycles a slot whose heap entry has been removed (fired or skimmed).
  void release_slot(std::uint32_t slot);

  /// Drops cancelled entries from the top of the heap and re-keys a
  /// deferred one, so the top entry is live and carries its true key.
  void skim();
  /// Rebuilds the heap without its dead entries once they are the majority.
  void maybe_compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t dead_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace pi2::sim
