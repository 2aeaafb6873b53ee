#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pi2::sim {

namespace {
/// Below this heap size compaction is pointless churn; skim() handles it.
constexpr std::size_t kMinCompactionSize = 64;
}  // namespace

void EventHandle::cancel() {
  if (scheduler_ != nullptr) scheduler_->cancel(slot_, generation_);
}

bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->pending(slot_, generation_);
}

EventHandle Scheduler::schedule(EventKey key, UniqueFunction fn) {
  const std::uint32_t slot = allocate_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.at = key.at;
  s.seq = key.seq;
  heap_.push_back(Entry{key.at, key.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{this, slot, s.generation};
}

bool Scheduler::defer(const EventHandle& handle, Time at) {
  if (handle.scheduler_ != this || !pending(handle.slot_, handle.generation_)) {
    return false;
  }
  Slot& s = slots_[handle.slot_];
  if (at < s.at) {
    cancel(handle.slot_, handle.generation_);
    return false;
  }
  // The heap entry keeps its earlier key; skim() moves it when it surfaces.
  s.at = at;
  s.seq = next_seq_++;
  return true;
}

std::uint32_t Scheduler::allocate_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].live = true;
  return slot;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = UniqueFunction{};
  s.live = false;
  ++s.generation;
  free_slots_.push_back(slot);
}

void Scheduler::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation || !s.live) return;
  s.live = false;
  // Free the callback (and whatever it captures) right away; the heap entry
  // itself is skipped lazily or reclaimed by compaction.
  s.fn = UniqueFunction{};
  ++dead_;
  ++cancelled_;
  maybe_compact();
}

bool Scheduler::pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slots_.size() && slots_[slot].generation == generation &&
         slots_[slot].live;
}

void Scheduler::skim() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.live && s.seq == top.seq) return;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry& entry = heap_.back();
    if (s.live) {
      // Deferred: the true key is later than the stale one, so re-inserting
      // it under the true key is exact.
      entry.at = s.at;
      entry.seq = s.seq;
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      continue;
    }
    release_slot(entry.slot);
    heap_.pop_back();
    --dead_;
  }
}

void Scheduler::maybe_compact() {
  if (heap_.size() < kMinCompactionSize || dead_ * 2 < heap_.size()) return;
  auto is_dead = [this](const Entry& e) { return !slots_[e.slot].live; };
  for (Entry& e : heap_) {
    if (is_dead(e)) {
      release_slot(e.slot);
    } else {
      e.at = slots_[e.slot].at;  // the heap is rebuilt anyway: drop stale keys
      e.seq = slots_[e.slot].seq;
    }
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
  ++compactions_;
}

bool Scheduler::empty() const {
  const_cast<Scheduler*>(this)->skim();
  return heap_.empty();
}

Time Scheduler::next_time() const {
  const_cast<Scheduler*>(this)->skim();
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

Time Scheduler::run_next() {
  skim();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  // Move the callback out before running it: it may schedule new events,
  // which mutates both the heap and the slab. The slot is released first so
  // that pending() is false and the slot is reusable inside the callback.
  UniqueFunction fn = std::move(slots_[entry.slot].fn);
  release_slot(entry.slot);
  ++executed_;
  fn();
  return entry.at;
}

}  // namespace pi2::sim
