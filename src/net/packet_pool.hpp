// Slab pool for Packet batches.
//
// At large flow counts the per-packet cost is not the queue logic but the
// bookkeeping around each packet in flight: an event that captured the
// Packet in its lambda would exceed UniqueFunction's inline buffer and
// heap-allocate, once per packet per hop. The BatchDelayPipe instead parks
// packets in pooled slabs (vectors recycled through a free list), so steady
// state performs zero allocations on the packet path: a slab is acquired,
// filled, flushed, and returned.
#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.hpp"

namespace pi2::net {

class PacketSlabPool {
 public:
  using Slab = std::vector<Packet>;

  /// `slab_capacity` is the reserve applied to fresh slabs; recycled slabs
  /// keep whatever capacity they grew to.
  explicit PacketSlabPool(std::size_t slab_capacity = 64)
      : slab_capacity_(slab_capacity) {}

  /// An empty slab, recycled when possible.
  [[nodiscard]] Slab acquire() {
    if (free_.empty()) {
      ++allocated_;
      Slab slab;
      slab.reserve(slab_capacity_);
      return slab;
    }
    ++reused_;
    Slab slab = std::move(free_.back());
    free_.pop_back();
    return slab;
  }

  /// Returns a slab to the free list (cleared, capacity retained).
  void release(Slab slab) {
    slab.clear();
    free_.push_back(std::move(slab));
  }

  /// Slabs created from the heap (steady state: stops growing).
  [[nodiscard]] std::size_t allocated() const { return allocated_; }
  /// Acquisitions served from the free list.
  [[nodiscard]] std::size_t reused() const { return reused_; }
  [[nodiscard]] std::size_t free_slabs() const { return free_.size(); }

 private:
  std::size_t slab_capacity_;
  std::vector<Slab> free_;
  std::size_t allocated_ = 0;
  std::size_t reused_ = 0;
};

}  // namespace pi2::net
