// dumbbell_topology_equivalence: run_dumbbell() must be digest-identical to
// a hand-built two-node topology — the dumbbell is the trivial instance of
// the topology engine, not a parallel implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "scenario/dumbbell.hpp"
#include "topology/dumbbell_adapter.hpp"
#include "topology/topology.hpp"

namespace pi2::topology {
namespace {

/// Figure 15–18 style mixes: one Classic + one Scalable spec over one
/// AQM-managed bottleneck.
scenario::DumbbellConfig paper_mix(scenario::AqmType aqm, std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = 10e6;
  cfg.aqm.type = aqm;
  cfg.aqm.ecn = true;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.count = 2;
  cubic.base_rtt = pi2::sim::from_millis(50);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.count = 2;
  dctcp.base_rtt = pi2::sim::from_millis(50);
  cfg.tcp_flows = {cubic, dctcp};
  cfg.duration = pi2::sim::from_seconds(5.0);
  cfg.stats_start = pi2::sim::from_seconds(1.0);
  cfg.seed = seed;
  return cfg;
}

/// The same scenario written directly against the topology API.
TopologyConfig by_hand(const scenario::DumbbellConfig& dumbbell) {
  TopologyConfig topo;
  topo.nodes = {"snd", "rcv"};
  LinkSpec link;
  link.name = "bottleneck";
  link.from = "snd";
  link.to = "rcv";
  link.rate_bps = dumbbell.link_rate_bps;
  link.buffer_packets = dumbbell.buffer_packets;
  link.aqm = dumbbell.aqm;
  link.rate_changes = dumbbell.rate_changes;
  link.faults = dumbbell.faults;
  topo.links.push_back(link);
  for (const auto& spec : dumbbell.tcp_flows) {
    topo.tcp_flows.push_back({spec, {"snd", "rcv"}});
  }
  for (const auto& spec : dumbbell.udp_flows) {
    topo.udp_flows.push_back({spec, {"snd", "rcv"}});
  }
  for (const auto& spec : dumbbell.fluid_flows) {
    topo.fluid_flows.push_back({spec, {"snd", "rcv"}});
  }
  topo.fluid_dt = dumbbell.fluid_dt;
  topo.ack_quantum = dumbbell.ack_quantum;
  topo.duration = dumbbell.duration;
  topo.stats_start = dumbbell.stats_start;
  topo.seed = dumbbell.seed;
  topo.sample_interval = dumbbell.sample_interval;
  topo.check_invariants = dumbbell.check_invariants;
  return topo;
}

class DumbbellTopologyEquivalence
    : public ::testing::TestWithParam<scenario::AqmType> {};

TEST_P(DumbbellTopologyEquivalence, DigestsMatch) {
  const auto dumbbell = paper_mix(GetParam(), 42);
  const std::uint64_t legacy = check::result_digest(run_dumbbell(dumbbell));
  const std::uint64_t handbuilt =
      check::result_digest(to_run_result(run_topology(by_hand(dumbbell))));
  EXPECT_EQ(legacy, handbuilt)
      << "run_dumbbell diverged from the two-node topology";
}

TEST_P(DumbbellTopologyEquivalence, AdapterMatchesTheHandBuiltConfig) {
  const auto dumbbell = paper_mix(GetParam(), 7);
  const std::uint64_t adapted = check::topology_result_digest(
      run_topology(from_dumbbell(dumbbell)));
  const std::uint64_t handbuilt =
      check::topology_result_digest(run_topology(by_hand(dumbbell)));
  EXPECT_EQ(adapted, handbuilt);
}

INSTANTIATE_TEST_SUITE_P(
    PaperAqms, DumbbellTopologyEquivalence,
    ::testing::Values(scenario::AqmType::kCoupledPi2,
                      scenario::AqmType::kDualPi2, scenario::AqmType::kPie),
    [](const ::testing::TestParamInfo<scenario::AqmType>& param_info) {
      switch (param_info.param) {
        case scenario::AqmType::kCoupledPi2:
          return std::string("CoupledPi2");
        case scenario::AqmType::kDualPi2:
          return std::string("DualPi2");
        case scenario::AqmType::kPie:
          return std::string("Pie");
        default:
          return std::string("Other");
      }
    });

TEST(DumbbellTopologyEquivalence, HoldsWithFluidAndUdpLoad) {
  auto dumbbell = paper_mix(scenario::AqmType::kCoupledPi2, 99);
  scenario::UdpFlowSpec udp;
  udp.rate_bps = 2e6;
  udp.base_rtt = pi2::sim::from_millis(50);
  dumbbell.udp_flows.push_back(udp);
  scenario::FluidFlowSpec fluid;
  fluid.cc = tcp::CcType::kDctcp;
  fluid.count = 50.0;
  fluid.base_rtt = pi2::sim::from_millis(50);
  dumbbell.fluid_flows.push_back(fluid);

  const std::uint64_t legacy = check::result_digest(run_dumbbell(dumbbell));
  const std::uint64_t handbuilt =
      check::result_digest(to_run_result(run_topology(by_hand(dumbbell))));
  EXPECT_EQ(legacy, handbuilt);
}

}  // namespace
}  // namespace pi2::topology
