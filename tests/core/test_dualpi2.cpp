// DualPI2 through the first-class path: a BottleneckLink with a
// DualPi2Qdisc classifies by ECN codepoint into its L and C bands, serves
// them with the time-shifted scheduler, and signals per band.
#include "core/dualpi2.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "dualq_link.hpp"
#include "sim/simulator.hpp"

namespace pi2::core {
namespace {

using pi2::core::testing::DualQLink;
using pi2::core::testing::from_l;
using pi2::core::testing::packet_with;
using pi2::net::Ecn;
using pi2::net::Packet;
using pi2::sim::from_millis;
using pi2::sim::from_seconds;
using pi2::sim::Simulator;

TEST(DualPi2, ClassifiesByEcnCodepoint) {
  Simulator sim{1};
  DualQLink q{sim, 40e6};
  q.link->send(packet_with(Ecn::kEct1));
  q.link->send(packet_with(Ecn::kNotEct));
  q.link->send(packet_with(Ecn::kEct0));
  q.link->send(packet_with(Ecn::kCe));
  // ECT(1) + CE
  EXPECT_EQ(q.link->band_counters(DualPi2Qdisc::kLBand).enqueued, 2);
  // Not-ECT + ECT(0)
  EXPECT_EQ(q.link->band_counters(DualPi2Qdisc::kCBand).enqueued, 2);
}

TEST(DualPi2, DeliversBothClasses) {
  Simulator sim{1};
  DualQLink q{sim, 40e6};
  int l = 0;
  int c = 0;
  q.link->add_departure_probe([&](const Packet& p, pi2::sim::Duration) {
    (from_l(p) ? l : c) += 1;
  });
  for (int i = 0; i < 10; ++i) {
    q.link->send(packet_with(Ecn::kEct1));
    q.link->send(packet_with(Ecn::kNotEct));
  }
  sim.run_until(from_seconds(5));
  EXPECT_EQ(l, 10);
  EXPECT_EQ(c, 10);
}

TEST(DualPi2, LQueueGetsPriorityUnderTimeShift) {
  Simulator sim{1};
  DualQLink q{sim, 1.2e6};  // 10 ms per packet
  std::vector<bool> order;
  q.link->add_departure_probe(
      [&](const Packet& p, pi2::sim::Duration) { order.push_back(from_l(p)); });
  // Fill C first, then L 5 ms later: only the 30 ms time shift lets the
  // younger L packets jump ahead of the queued C packets.
  for (int i = 0; i < 5; ++i) q.link->send(packet_with(Ecn::kNotEct));
  sim.run_until(from_millis(5));
  for (int i = 0; i < 5; ++i) q.link->send(packet_with(Ecn::kEct1));
  sim.run_until(from_seconds(5));
  ASSERT_EQ(order.size(), 10u);
  // First departure is C (transmission already started), then L drains.
  EXPECT_FALSE(order[0]);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(order[i]) << i;
}

TEST(DualPi2, NativeRampMarksLongSojourns) {
  Simulator sim{1};
  DualQLink q{sim, 1.2e6};  // 10 ms per packet: sojourn quickly exceeds 2 ms
  int marked = 0;
  q.link->add_departure_probe([&](const Packet& p, pi2::sim::Duration) {
    if (from_l(p) && p.ecn == Ecn::kCe) ++marked;
  });
  for (int i = 0; i < 20; ++i) q.link->send(packet_with(Ecn::kEct1));
  sim.run_until(from_seconds(5));
  // Every packet past the first few has sojourn > l_min_th + l_range.
  EXPECT_GT(marked, 10);
}

TEST(DualPi2, NoMarksWhenIdleAndShallow) {
  Simulator sim{1};
  DualQLink q{sim, 100e6};  // 0.12 ms per packet: far below the ramp
  int marked = 0;
  q.link->add_departure_probe([&](const Packet& p, pi2::sim::Duration) {
    if (from_l(p) && p.ecn == Ecn::kCe) ++marked;
  });
  for (int i = 0; i < 10; ++i) {
    q.link->send(packet_with(Ecn::kEct1));
    sim.run_until(sim.now() + from_millis(10));  // drain: zero queue
  }
  EXPECT_EQ(marked, 0);
}

TEST(DualPi2, SharedBufferTailDrops) {
  Simulator sim{1};
  DualQLink q{sim, 1e6, /*buffer_packets=*/5};
  for (int i = 0; i < 20; ++i) q.link->send(packet_with(Ecn::kEct1));
  EXPECT_GT(q.link->counters().tail_dropped, 0);
}

TEST(DualPi2, QueueDelaysAreTrackedSeparately) {
  Simulator sim{1};
  DualQLink q{sim, 1.2e6};
  for (int i = 0; i < 10; ++i) q.link->send(packet_with(Ecn::kNotEct));
  EXPECT_GT(q.band_delay(DualPi2Qdisc::kCBand), from_millis(50));
  EXPECT_EQ(q.band_delay(DualPi2Qdisc::kLBand), from_millis(0));
}

TEST(DualPi2, CoupledProbabilityReachesLQueue) {
  // Sustain a deep C queue so the PI controller raises p'; L packets must
  // then see coupled marking k*p' even with tiny L sojourn.
  Simulator sim{1};
  DualQLink q{sim, 2e6};
  int l_marked = 0;
  int l_total = 0;
  q.link->add_departure_probe([&](const Packet& p, pi2::sim::Duration) {
    if (from_l(p)) {
      ++l_total;
      if (p.ecn == Ecn::kCe) ++l_marked;
    }
  });
  // Keep the C queue loaded for 10 s while trickling L packets.
  std::function<void()> feed = [&] {
    for (int i = 0; i < 20; ++i) q.link->send(packet_with(Ecn::kNotEct));
    q.link->send(packet_with(Ecn::kEct1));
    if (sim.now() < from_seconds(10)) sim.after(from_millis(100), feed);
  };
  sim.after(from_millis(0), feed);
  // Sample p' while the C queue is still loaded (it rightly collapses to
  // zero once the feed stops and the queue drains).
  sim.run_until(from_seconds(9));
  const double p_prime_loaded = q.qdisc->p_prime();
  sim.run_until(from_seconds(11));
  ASSERT_GT(l_total, 50);
  EXPECT_GT(p_prime_loaded, 0.0);
  EXPECT_GT(l_marked, 0);
}

}  // namespace
}  // namespace pi2::core
