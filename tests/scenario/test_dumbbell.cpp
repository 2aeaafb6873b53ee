#include "scenario/dumbbell.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/pi2.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/sampler.hpp"

namespace pi2::scenario {
namespace {

using pi2::sim::from_millis;
using pi2::sim::Time;
using std::chrono::seconds;

DumbbellConfig base_config() {
  DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  cfg.duration = Time{seconds{30}};
  cfg.stats_start = Time{seconds{10}};
  TcpFlowSpec flow;
  flow.cc = tcp::CcType::kReno;
  flow.count = 2;
  flow.base_rtt = from_millis(50);
  cfg.tcp_flows = {flow};
  cfg.aqm.type = AqmType::kPi2;
  cfg.aqm.ecn = false;
  return cfg;
}

TEST(Dumbbell, AchievesHighUtilization) {
  const auto r = run_dumbbell(base_config());
  EXPECT_GT(r.utilization, 0.85);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
}

TEST(Dumbbell, GoodputSumsToNearLinkRate) {
  const auto r = run_dumbbell(base_config());
  double total = 0.0;
  for (const auto& f : r.flows) total += f.goodput_mbps;
  EXPECT_GT(total, 8.5);
  EXPECT_LT(total, 10.1);
}

TEST(Dumbbell, QueueDelayNearAqmTarget) {
  const auto r = run_dumbbell(base_config());
  EXPECT_GT(r.mean_qdelay_ms, 5.0);
  EXPECT_LT(r.mean_qdelay_ms, 40.0);
}

TEST(Dumbbell, DeterministicForSameSeed) {
  const auto a = run_dumbbell(base_config());
  const auto b = run_dumbbell(base_config());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].goodput_mbps, b.flows[i].goodput_mbps);
  }
  EXPECT_DOUBLE_EQ(a.mean_qdelay_ms, b.mean_qdelay_ms);
  EXPECT_EQ(a.counters.aqm_dropped, b.counters.aqm_dropped);
}

TEST(Dumbbell, DifferentSeedsDiffer) {
  auto cfg = base_config();
  const auto a = run_dumbbell(cfg);
  cfg.seed = 99;
  const auto b = run_dumbbell(cfg);
  EXPECT_NE(a.counters.aqm_dropped, b.counters.aqm_dropped);
}

TEST(Dumbbell, FlowChurnStartsAndStops) {
  auto cfg = base_config();
  TcpFlowSpec late;
  late.cc = tcp::CcType::kReno;
  late.count = 3;
  late.start = Time{seconds{10}};
  late.stop = Time{seconds{20}};
  late.base_rtt = from_millis(50);
  cfg.tcp_flows.push_back(late);
  const auto r = run_dumbbell(cfg);
  ASSERT_EQ(r.flows.size(), 5u);
  // The late flows got some but less throughput (only active 1/3 of the
  // stats window).
  EXPECT_GT(r.flows[2].goodput_mbps, 0.0);
  EXPECT_LT(r.flows[2].goodput_mbps, r.flows[0].goodput_mbps);
}

TEST(Dumbbell, UdpFlowsDeliverAtTheirRate) {
  auto cfg = base_config();
  UdpFlowSpec udp;
  udp.rate_bps = 2e6;
  udp.count = 1;
  udp.base_rtt = from_millis(50);
  cfg.udp_flows = {udp};
  const auto r = run_dumbbell(cfg);
  // UDP is unresponsive: it should get close to its sending rate while the
  // TCP flows absorb the drops.
  EXPECT_NEAR(r.mean_udp_goodput_mbps(), 2.0, 0.4);
}

TEST(Dumbbell, RateChangeTakesEffect) {
  auto cfg = base_config();
  cfg.rate_changes = {{Time{seconds{15}}, 2e6}};
  const auto r = run_dumbbell(cfg);
  // Total delivered rate after the change is bounded by the new rate.
  const double late_rate =
      r.total_throughput_series.mean_over(Time{seconds{20}}, Time{seconds{30}});
  EXPECT_LT(late_rate, 2.6);
}

TEST(Dumbbell, StatsWindowExcludesWarmup) {
  // An absurd 25 s warmup in a 30 s run leaves a 5 s stats window; per-packet
  // samples must only come from it.
  auto cfg = base_config();
  cfg.stats_start = Time{seconds{25}};
  const auto r = run_dumbbell(cfg);
  // 5 s at ~833 pkt/s max.
  EXPECT_LT(r.qdelay_ms_packets.count(), 6000);
  EXPECT_GT(r.qdelay_ms_packets.count(), 100);
}

TEST(Dumbbell, ObservedSignalRateConsistentWithCounters) {
  const auto r = run_dumbbell(base_config());
  const double rate = r.observed_signal_rate();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_GT(r.counters.aqm_dropped, 0);
}

TEST(Dumbbell, RateStepViaFaultScheduleTakesEffect) {
  // The FaultInjector path must constrain throughput exactly like the
  // legacy rate_changes hook does.
  auto cfg = base_config();
  cfg.faults.rate_step(Time{seconds{15}}, 2e6);
  const auto r = run_dumbbell(cfg);
  const double late_rate =
      r.total_throughput_series.mean_over(Time{seconds{20}}, Time{seconds{30}});
  EXPECT_LT(late_rate, 2.6);
  EXPECT_EQ(r.fault_counters.rate_changes, 1);
}

TEST(Dumbbell, InvariantMonitorRunsByDefault) {
  const auto r = run_dumbbell(base_config());
  EXPECT_GT(r.invariant_checks, 0u);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.guard_events, 0u);

  auto cfg = base_config();
  cfg.check_invariants = false;
  EXPECT_EQ(run_dumbbell(cfg).invariant_checks, 0u);
}

TEST(DumbbellValidate, AcceptsWellFormedConfig) {
  EXPECT_EQ(base_config().validate(), "");
}

TEST(DumbbellValidate, MessagesNameFieldAndConstraint) {
  auto cfg = base_config();
  cfg.link_rate_bps = 0;
  EXPECT_NE(cfg.validate().find("link_rate_bps"), std::string::npos);
  EXPECT_NE(cfg.validate().find("must be finite and > 0"), std::string::npos);

  cfg = base_config();
  cfg.stats_start = cfg.duration + Time{seconds{1}};
  EXPECT_NE(cfg.validate().find("stats_start"), std::string::npos);

  cfg = base_config();
  cfg.aqm.max_classic_prob = 1.5;
  EXPECT_NE(cfg.validate().find("aqm.max_classic_prob"), std::string::npos);
}

TEST(DumbbellValidate, RejectsDegenerateAndNonFiniteFields) {
  auto cfg = base_config();
  cfg.link_rate_bps = std::numeric_limits<double>::infinity();
  EXPECT_NE(cfg.validate().find("link_rate_bps"), std::string::npos);

  cfg = base_config();
  cfg.aqm.alpha_hz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate().find("aqm.alpha_hz"), std::string::npos);

  cfg = base_config();
  cfg.tcp_flows[0].max_cwnd = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate().find("max_cwnd"), std::string::npos);

  cfg = base_config();
  UdpFlowSpec udp;
  udp.rate_bps = 1e6;
  udp.packet_bytes = 0;
  cfg.udp_flows.push_back(udp);
  EXPECT_NE(cfg.validate().find("packet_bytes"), std::string::npos);
  cfg.udp_flows[0].packet_bytes = 100000;  // above the 65535 datagram cap
  EXPECT_NE(cfg.validate().find("packet_bytes"), std::string::npos);

  cfg = base_config();
  cfg.rate_changes.push_back({Time{seconds{5}},
                              std::numeric_limits<double>::quiet_NaN()});
  EXPECT_NE(cfg.validate().find("rate_changes"), std::string::npos);
}

TEST(DumbbellValidate, RejectsNonPositiveRecorderInterval) {
  telemetry::Recorder recorder{telemetry::RecorderConfig{
      ::testing::TempDir(), "validate_interval", from_millis(100)}};
  auto cfg = base_config();
  cfg.recorder = &recorder;
  EXPECT_EQ(cfg.validate(), "");  // a sane interval passes
  // A zero interval can only be checked through the config: the Sampler
  // constructor itself refuses it, which is the second line of defence.
  EXPECT_THROW(
      telemetry::Sampler(recorder.registry(), pi2::sim::Duration{0}),
      std::invalid_argument);
}

TEST(DumbbellValidate, FlowErrorsCarryTheFlowIndex) {
  auto cfg = base_config();
  TcpFlowSpec bad;
  bad.base_rtt = from_millis(0);
  cfg.tcp_flows.push_back(bad);
  const auto msg = cfg.validate();
  EXPECT_NE(msg.find("tcp_flows[1].base_rtt"), std::string::npos) << msg;
}

TEST(DumbbellValidate, FaultScheduleErrorsPropagate) {
  auto cfg = base_config();
  cfg.faults.rate_step(Time{seconds{5}}, 0.0);
  const auto msg = cfg.validate();
  EXPECT_NE(msg.find("fault event #0"), std::string::npos) << msg;
}

TEST(DumbbellValidate, RunDumbbellThrowsOnMalformedConfig) {
  auto cfg = base_config();
  cfg.buffer_packets = 0;
  try {
    run_dumbbell(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string{err.what()}.find("DumbbellConfig: buffer_packets"),
              std::string::npos)
        << err.what();
  }
}

TEST(AqmFactory, MakesEveryConfiguredType) {
  for (auto type : {AqmType::kFifo, AqmType::kPie, AqmType::kBarePie, AqmType::kPi,
                    AqmType::kPi2, AqmType::kCoupledPi2, AqmType::kRed,
                    AqmType::kCodel}) {
    AqmConfig cfg;
    cfg.type = type;
    EXPECT_NE(cfg.make(), nullptr) << to_string(type);
  }
}

TEST(AqmFactory, GainOverridesPropagate) {
  AqmConfig cfg;
  cfg.type = AqmType::kPi2;
  cfg.alpha_hz = 0.9;
  cfg.beta_hz = 9.0;
  auto aqm = cfg.make();
  auto* pi2_aqm = dynamic_cast<core::Pi2Aqm*>(aqm.get());
  ASSERT_NE(pi2_aqm, nullptr);
  EXPECT_DOUBLE_EQ(pi2_aqm->params().alpha_hz, 0.9);
  EXPECT_DOUBLE_EQ(pi2_aqm->params().beta_hz, 9.0);
}

TEST(AqmFactory, NamesAreUnique) {
  std::set<std::string_view> names;
  for (auto type : {AqmType::kFifo, AqmType::kPie, AqmType::kBarePie, AqmType::kPi,
                    AqmType::kPi2, AqmType::kCoupledPi2, AqmType::kRed,
                    AqmType::kCodel}) {
    names.insert(to_string(type));
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(SchedulerWork, CancelledEventsStayUnderOnePercentOfForwarded) {
  // Deterministic work gate: re-arming the RTO on every ACK must not leave
  // a cancelled scheduler event behind (it used to: about one per ACK).
  DumbbellConfig cfg;
  cfg.link_rate_bps = 200e6;
  cfg.aqm.type = AqmType::kCoupledPi2;
  cfg.duration = Time{seconds{5}};
  cfg.stats_start = Time{seconds{1}};
  for (const tcp::CcType cc : {tcp::CcType::kCubic, tcp::CcType::kDctcp}) {
    TcpFlowSpec flow;
    flow.cc = cc;
    flow.count = 10;
    flow.base_rtt = from_millis(20);
    cfg.tcp_flows.push_back(flow);
  }
  telemetry::MetricsRegistry registry;
  cfg.registry = &registry;
  run_dumbbell(cfg);
  const double forwarded = registry.gauge("link.forwarded").value();
  const double cancelled = registry.gauge("sim.sched_cancelled").value();
  ASSERT_GT(forwarded, 50'000.0);
  EXPECT_LE(cancelled, 0.01 * forwarded)
      << cancelled << " cancelled events for " << forwarded << " forwarded packets";
}

}  // namespace
}  // namespace pi2::scenario
