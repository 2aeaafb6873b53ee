// run_topology(): multi-bottleneck behavior — parking-lot fairness shape,
// per-link accounting, fluid scoping, and digest determinism.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/oracles.hpp"
#include "topology/topology.hpp"

namespace pi2::topology {
namespace {

/// N-hop parking lot: one long flow crossing every hop, one cross flow per
/// hop, equal link rates and RTTs.
TopologyConfig parking_lot(int hops) {
  TopologyConfig cfg;
  for (int i = 0; i <= hops; ++i) {
    std::string node = "n";
    node += std::to_string(i);
    cfg.nodes.push_back(std::move(node));
  }
  for (int i = 0; i < hops; ++i) {
    LinkSpec link;
    link.from = cfg.nodes[static_cast<std::size_t>(i)];
    link.to = cfg.nodes[static_cast<std::size_t>(i) + 1];
    link.rate_bps = 10e6;
    link.aqm.type = scenario::AqmType::kCoupledPi2;
    link.aqm.ecn = true;
    cfg.links.push_back(link);
  }
  TcpRoute longflow;
  longflow.spec.cc = tcp::CcType::kCubic;
  longflow.spec.count = 1;
  longflow.spec.base_rtt = pi2::sim::from_millis(10);
  longflow.path = cfg.nodes;
  cfg.tcp_flows.push_back(longflow);
  for (int i = 0; i < hops; ++i) {
    TcpRoute cross;
    cross.spec.cc = tcp::CcType::kCubic;
    cross.spec.count = 1;
    cross.spec.base_rtt = pi2::sim::from_millis(10);
    cross.path = {cfg.nodes[static_cast<std::size_t>(i)],
                  cfg.nodes[static_cast<std::size_t>(i) + 1]};
    cfg.tcp_flows.push_back(cross);
  }
  cfg.duration = pi2::sim::from_seconds(10.0);
  cfg.stats_start = pi2::sim::from_seconds(2.0);
  cfg.seed = 1;
  return cfg;
}

TEST(Topology, ParkingLotPenalizesTheLongFlow) {
  const auto cfg = parking_lot(3);
  const TopologyResult result = run_topology(cfg);

  ASSERT_EQ(result.links.size(), 3u);
  ASSERT_EQ(result.flows.size(), 4u);
  ASSERT_EQ(result.flow_route.size(), 4u);

  // The long flow crosses three coupled-PI2 bottlenecks and accumulates
  // three hops of marking, so each cross flow must out-throughput it.
  const double long_mbps = result.route_goodput_mbps(0);
  EXPECT_GT(long_mbps, 0.1);
  for (std::int32_t route = 1; route <= 3; ++route) {
    EXPECT_GT(result.route_goodput_mbps(route), long_mbps)
        << "cross route " << route << " should beat the 3-hop flow";
  }

  // Every link forwarded the long flow plus its own cross flow.
  for (const LinkResult& link : result.links) {
    EXPECT_GT(link.counters.forwarded, 0) << link.name;
    EXPECT_GT(link.qdelay_ms_series.size(), 0u) << link.name;
    EXPECT_GT(link.utilization, 0.5) << link.name;
  }

  // The per-link books must balance exactly.
  std::vector<check::OracleFailure> failures;
  check::check_topology_links(cfg, result, failures);
  for (const auto& failure : failures) {
    ADD_FAILURE() << "[" << failure.oracle << "] " << failure.detail;
  }
}

TEST(Topology, SingleHopMatchesItsOwnSliceInFlattening) {
  auto cfg = parking_lot(1);
  const scenario::RunResult flat = to_run_result(run_topology(cfg));
  ASSERT_EQ(flat.links.size(), 1u);
  EXPECT_EQ(flat.links[0].name, "n0->n1");
  EXPECT_EQ(flat.links[0].counters.forwarded, flat.counters.forwarded);
  EXPECT_EQ(flat.links[0].counters.marked, flat.counters.marked);
  EXPECT_DOUBLE_EQ(flat.links[0].utilization, flat.utilization);
  EXPECT_DOUBLE_EQ(flat.links[0].mean_qdelay_ms, flat.mean_qdelay_ms);
}

TEST(Topology, FluidStaysScopedToItsLink) {
  TopologyConfig cfg;
  cfg.nodes = {"a", "b", "c"};
  LinkSpec ab;
  ab.from = "a";
  ab.to = "b";
  ab.aqm.type = scenario::AqmType::kCoupledPi2;
  ab.aqm.ecn = true;
  LinkSpec bc = ab;
  bc.from = "b";
  bc.to = "c";
  cfg.links = {ab, bc};
  TcpRoute tcp;
  tcp.spec.cc = tcp::CcType::kCubic;
  tcp.spec.count = 1;
  tcp.spec.base_rtt = pi2::sim::from_millis(10);
  tcp.path = {"a", "b", "c"};
  cfg.tcp_flows.push_back(tcp);
  FluidRoute fluid;
  fluid.spec.cc = tcp::CcType::kDctcp;
  fluid.spec.count = 10;
  fluid.spec.base_rtt = pi2::sim::from_millis(10);
  fluid.path = {"b", "c"};  // second hop only
  cfg.fluid_flows.push_back(fluid);
  cfg.duration = pi2::sim::from_seconds(5.0);
  cfg.stats_start = pi2::sim::from_seconds(1.0);

  const TopologyResult result = run_topology(cfg);
  ASSERT_EQ(result.links.size(), 2u);
  EXPECT_EQ(result.links[0].fluid.ticks, 0u);
  EXPECT_EQ(result.links[0].fluid.arrival_bytes, 0.0);
  EXPECT_GT(result.links[1].fluid.ticks, 0u);
  EXPECT_GT(result.links[1].fluid.arrival_bytes, 0.0);

  // One fluid FlowResult, mapped to the fluid route (global route index 1).
  ASSERT_EQ(result.flows.size(), 2u);
  EXPECT_TRUE(result.flows[1].is_fluid);
  EXPECT_EQ(result.flow_route[1], 1);

  std::vector<check::OracleFailure> failures;
  check::check_topology_links(cfg, result, failures);
  for (const auto& failure : failures) {
    ADD_FAILURE() << "[" << failure.oracle << "] " << failure.detail;
  }
}

TEST(Topology, DigestIsDeterministic) {
  const auto cfg = parking_lot(2);
  const std::uint64_t a = check::topology_result_digest(run_topology(cfg));
  const std::uint64_t b = check::topology_result_digest(run_topology(cfg));
  EXPECT_EQ(a, b);

  auto tweaked = cfg;
  tweaked.seed = 2;
  EXPECT_NE(check::topology_result_digest(run_topology(tweaked)), a);
}

TEST(Topology, FuzzedTopologiesPassTheOracles) {
  // A couple of fuzzer-drawn multi-hop cases through the full per-link
  // oracle suite — the same path check_fuzz batches take.
  check::FuzzOptions options;
  options.base_seed = 7;
  const check::ScenarioFuzzer fuzzer{options};
  for (std::uint64_t index : {0ull, 1ull}) {
    const auto cfg = fuzzer.make_topology_config(index);
    const auto outcome = check::run_topology_case_oracles(cfg, index);
    for (const auto& failure : outcome.failures) {
      ADD_FAILURE() << "case " << index << " [" << failure.oracle << "] "
                    << failure.detail;
    }
  }
}

}  // namespace
}  // namespace pi2::topology
