// Batched fixed-delay pipe: the O(buckets)-not-O(packets) ACK clock.
//
// A DelayPipe (net/delay_pipe.hpp) delivers every packet at its exact time
// with one event per packet, though only its FIFO head is in the scheduler
// at once. At 10⁵ flows even that is millions of events per simulated
// second.
//
// BatchDelayPipe quantizes due times onto a grid: packets whose delivery
// falls in the same quantum share one scheduler event and one pooled slab.
// The first packet to land in a quantum opens the batch (acquiring a slab
// from the PacketSlabPool and scheduling a single flush); later arrivals
// from ANY flow with the same quantized due time just append. On flush the
// slab is drained through the sink in arrival order and returned to the
// pool — steady state runs with zero allocations and O(quanta) timers.
//
// Delivery is deferred to the end of the quantum containing the exact due
// time, bounding added latency by one quantum. The quantum must be positive:
// exact timing is the DelayPipe's job.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulator.hpp"

namespace pi2::net {

class BatchDelayPipe {
 public:
  BatchDelayPipe(pi2::sim::Simulator& sim, pi2::sim::Duration delay,
                 pi2::sim::Duration quantum, PacketSlabPool& pool)
      : sim_(sim), delay_(delay), quantum_(quantum), pool_(pool) {
    assert(quantum_.count() > 0);
  }

  void set_sink(std::function<void(Packet)> sink) { sink_ = std::move(sink); }
  void set_delay(pi2::sim::Duration delay) { delay_ = delay; }
  [[nodiscard]] pi2::sim::Duration delay() const { return delay_; }

  void send(Packet packet) {
    const pi2::sim::Time due = sim_.now() + delay_;
    const pi2::sim::Time slot = quantize(due);
    auto [it, opened] = open_.try_emplace(slot.count());
    if (opened) {
      it->second = pool_.acquire();
      ++batches_;
      sim_.at(slot, [this, slot] { flush(slot); });
    }
    it->second.push_back(std::move(packet));
  }

  /// Scheduler events this pipe has created (one per open batch). The
  /// per-packet equivalent would equal the packet count.
  [[nodiscard]] std::uint64_t batches() const { return batches_; }

 private:
  [[nodiscard]] pi2::sim::Time quantize(pi2::sim::Time due) const {
    // Round up: a batch must never deliver before its packets' exact due
    // times (that would hand a receiver a packet from its own future).
    const std::int64_t q = quantum_.count();
    const std::int64_t slot = (due.count() + q - 1) / q * q;
    return pi2::sim::Time{slot};
  }

  void flush(pi2::sim::Time slot) {
    auto it = open_.find(slot.count());
    if (it == open_.end()) return;
    PacketSlabPool::Slab slab = std::move(it->second);
    open_.erase(it);
    for (Packet& p : slab) {
      if (sink_) sink_(std::move(p));
    }
    pool_.release(std::move(slab));
  }

  pi2::sim::Simulator& sim_;
  pi2::sim::Duration delay_;
  pi2::sim::Duration quantum_;
  PacketSlabPool& pool_;
  std::function<void(Packet)> sink_;
  /// Batches not yet flushed, keyed by quantized due tick.
  std::unordered_map<std::int64_t, PacketSlabPool::Slab> open_;
  std::uint64_t batches_ = 0;
};

}  // namespace pi2::net
