// Delay line: models propagation (and the uncongested reverse path).
//
// Each packet is delivered at exactly the (time, sequence) key an
// `after(delay, ...)` call made when it was sent would have fired at: send()
// reserves that key from the scheduler. Packets whose due keys arrive in
// order wait in a FIFO, and only the FIFO's head holds a scheduler event;
// when it fires, the pipe schedules the next head under its reserved key
// and delivers. A packet due before the FIFO's tail (its delay shrank, e.g.
// an RTT step down) gets its own event under its reserved key instead.
// Either way the firing order is the per-packet-event order, bit for bit,
// and a constant-delay pipe holds one heap entry whose callback captures
// only the pipe.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace pi2::net {

class DelayPipe {
 public:
  DelayPipe(pi2::sim::Simulator& sim, pi2::sim::Duration delay)
      : sim_(sim), delay_(delay) {}

  DelayPipe(const DelayPipe&) = delete;
  DelayPipe& operator=(const DelayPipe&) = delete;

  void set_sink(std::function<void(Packet)> sink) { sink_ = std::move(sink); }

  /// Delivers `packet` to the sink after the pipe's delay.
  void send(Packet packet) { send(std::move(packet), delay_); }

  /// Delivers `packet` to the sink after `delay` (per-packet delays, e.g. a
  /// flow's current half RTT).
  void send(Packet packet, pi2::sim::Duration delay) {
    const pi2::sim::EventKey key = sim_.reserve(delay);
    if (!line_.empty() && key.at < line_.back().key.at) {
      sim_.at(key, [this, packet]() mutable {
        if (sink_) sink_(std::move(packet));
      });
      return;
    }
    line_.push_back(InFlight{key, std::move(packet)});
    if (line_.size() == 1) schedule_head();
  }

  /// Packets waiting in the FIFO (not counting out-of-order ones).
  [[nodiscard]] std::size_t queued() const { return line_.size(); }

 private:
  struct InFlight {
    pi2::sim::EventKey key;
    Packet packet;
  };

  void schedule_head() {
    sim_.at(line_.front().key, [this] { deliver_head(); });
  }

  void deliver_head() {
    Packet packet = std::move(line_.front().packet);
    line_.pop_front();
    if (!line_.empty()) schedule_head();
    if (sink_) sink_(std::move(packet));
  }

  pi2::sim::Simulator& sim_;
  pi2::sim::Duration delay_;
  std::function<void(Packet)> sink_;
  std::deque<InFlight> line_;
};

}  // namespace pi2::net
