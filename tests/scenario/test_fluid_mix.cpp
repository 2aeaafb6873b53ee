// Hybrid fluid/packet scenarios: determinism, conservation, coexistence,
// and the batched ACK clock. These are the scenario-level guarantees the
// flow-scale engine rests on — run_dumbbell() must stay a pure function of
// its config whatever mix of engine tiers is active.
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/dumbbell.hpp"

namespace pi2::scenario {
namespace {

using pi2::sim::from_millis;
using pi2::sim::from_seconds;

DumbbellConfig mixed_config() {
  DumbbellConfig cfg;
  cfg.link_rate_bps = 20e6;
  cfg.duration = from_seconds(4.0);
  cfg.stats_start = from_seconds(1.0);
  cfg.aqm.type = AqmType::kPi2;
  cfg.aqm.ecn_drop_threshold = 1.0;
  TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = from_millis(20);
  cfg.tcp_flows.push_back(cubic);
  TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = from_millis(20);
  cfg.tcp_flows.push_back(dctcp);
  FluidFlowSpec fluid;
  fluid.cc = tcp::CcType::kReno;
  fluid.count = 20;
  fluid.base_rtt = from_millis(20);
  cfg.fluid_flows.push_back(fluid);
  return cfg;
}

TEST(FluidMix, RerunIsBitwiseDeterministic) {
  const DumbbellConfig cfg = mixed_config();
  const RunResult a = run_dumbbell(cfg);
  const RunResult b = run_dumbbell(cfg);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.fluid.ticks, b.fluid.ticks);
  EXPECT_EQ(a.fluid.arrival_bytes, b.fluid.arrival_bytes);
  EXPECT_EQ(a.fluid.served_bytes, b.fluid.served_bytes);
  EXPECT_EQ(a.fluid.dropped_bytes, b.fluid.dropped_bytes);
  EXPECT_EQ(a.fluid.final_backlog_bytes, b.fluid.final_backlog_bytes);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].goodput_mbps, b.flows[i].goodput_mbps) << i;
  }
  EXPECT_EQ(a.mean_qdelay_ms, b.mean_qdelay_ms);
}

TEST(FluidMix, FluidConservationHoldsWholeRun) {
  const RunResult result = run_dumbbell(mixed_config());
  EXPECT_GT(result.fluid.ticks, 0u);
  EXPECT_GT(result.fluid.arrival_bytes, 0.0);
  // arrival == served + dropped + final backlog, exactly by construction
  // (1e-6 relative slack for FP summation order only).
  const double residual = std::abs(
      result.fluid.arrival_bytes -
      (result.fluid.served_bytes + result.fluid.dropped_bytes +
       result.fluid.final_backlog_bytes));
  EXPECT_LE(residual, 1e-6 * std::max(1.0, result.fluid.arrival_bytes));
}

TEST(FluidMix, FluidAndPacketTiersCoexist) {
  const RunResult result = run_dumbbell(mixed_config());
  // The fluid background carried real bytes through the link...
  EXPECT_GT(result.fluid.served_bytes, 0.0);
  // ...and each foreground packet flow still made progress against it.
  ASSERT_EQ(result.flows.size(), 3u);  // cubic, dctcp, one fluid spec
  EXPECT_GT(result.flows[0].goodput_mbps, 0.0);
  EXPECT_GT(result.flows[1].goodput_mbps, 0.0);
  EXPECT_TRUE(result.flows[2].is_fluid);
  EXPECT_GT(result.flows[2].goodput_mbps, 0.0);
  // 20 fluid Reno flows against 2 packet flows must dominate the link, and
  // the link should be busy.
  EXPECT_GT(result.utilization, 0.5);
  EXPECT_EQ(result.clamped_events, 0u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(FluidMix, FluidStatsAreZeroWithoutFluidSpecs) {
  DumbbellConfig cfg = mixed_config();
  cfg.fluid_flows.clear();
  const RunResult result = run_dumbbell(cfg);
  EXPECT_EQ(result.fluid.ticks, 0u);
  EXPECT_EQ(result.fluid.arrival_bytes, 0.0);
  EXPECT_EQ(result.fluid.served_bytes, 0.0);
  EXPECT_EQ(result.fluid.dropped_bytes, 0.0);
  EXPECT_EQ(result.fluid.final_backlog_bytes, 0.0);
}

TEST(FluidMix, MeanGoodputExcludesFluidSpecs) {
  const DumbbellConfig cfg = mixed_config();
  const RunResult result = run_dumbbell(cfg);
  // mean_goodput_mbps(kReno) must not pick up the fluid Reno spec.
  EXPECT_EQ(result.mean_goodput_mbps(tcp::CcType::kReno), 0.0);
  EXPECT_GT(result.mean_goodput_mbps(tcp::CcType::kCubic), 0.0);
}

TEST(BatchedAckClock, FewerSchedulerEventsSameMacroBehaviour) {
  // 20 packet flows, exact vs 1 ms-quantum ACK clock. Batching must cut
  // scheduler events meaningfully while leaving the macroscopic outcome —
  // aggregate goodput, utilization — in the same regime (delivery shifts by
  // at most one quantum, so per-flow dynamics are not bit-identical).
  DumbbellConfig cfg;
  cfg.link_rate_bps = 20e6;
  cfg.duration = from_seconds(4.0);
  cfg.stats_start = from_seconds(1.0);
  cfg.aqm.type = AqmType::kPi2;
  TcpFlowSpec flows;
  flows.cc = tcp::CcType::kCubic;
  flows.count = 20;
  flows.base_rtt = from_millis(40);
  cfg.tcp_flows.push_back(flows);

  const RunResult exact = run_dumbbell(cfg);
  cfg.ack_quantum = from_millis(1);
  const RunResult batched = run_dumbbell(cfg);

  EXPECT_LT(static_cast<double>(batched.events_executed),
            static_cast<double>(exact.events_executed) * 0.8)
      << "batching saved <20% of scheduler events";

  auto total_goodput = [](const RunResult& r) {
    double sum = 0.0;
    for (const auto& f : r.flows) sum += f.goodput_mbps;
    return sum;
  };
  EXPECT_NEAR(total_goodput(batched), total_goodput(exact),
              0.25 * total_goodput(exact));
  EXPECT_NEAR(batched.utilization, exact.utilization, 0.2);
  EXPECT_EQ(batched.clamped_events, 0u);
}

TEST(BatchedAckClock, BatchedRunIsDeterministic) {
  DumbbellConfig cfg = mixed_config();
  cfg.ack_quantum = from_millis(1);
  const RunResult a = run_dumbbell(cfg);
  const RunResult b = run_dumbbell(cfg);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.counters.forwarded, b.counters.forwarded);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].goodput_mbps, b.flows[i].goodput_mbps) << i;
  }
}

TEST(FluidMix, ValidatesFluidFields) {
  DumbbellConfig cfg = mixed_config();
  cfg.fluid_flows[0].count = -1;
  EXPECT_NE(cfg.validate(), "");
  cfg = mixed_config();
  cfg.fluid_dt = pi2::sim::Duration{0};
  EXPECT_NE(cfg.validate(), "");
  cfg = mixed_config();
  cfg.ack_quantum = -from_millis(1);
  EXPECT_NE(cfg.validate(), "");
  cfg = mixed_config();
  EXPECT_EQ(cfg.validate(), "");
}

}  // namespace
}  // namespace pi2::scenario
