// Where PI2 went next: the DualQ Coupled AQM (DualPI2, later RFC 9332).
// The single-queue coupled AQM of the paper gives rate fairness but forces
// Scalable traffic to share the Classic queue's 20 ms of delay; the DualQ
// splits the queues — same k = 2 coupling, but DCTCP now rides a
// sub-millisecond queue while Cubic keeps its own 20 ms-target queue.
//
// This example runs the identical Cubic+DCTCP mix through both arrangements
// and prints the delay each flow's packets actually experienced, and the
// measured Cubic/DCTCP rate ratio of each arrangement. The dual
// queue's per-band delays come from the packet trace: Cubic departures sit
// in the C band, DCTCP departures in L.
#include <cstdio>

#include "net/trace.hpp"
#include "scenario/dumbbell.hpp"
#include "stats/percentile.hpp"

namespace {

using namespace pi2;

constexpr double kLinkMbps = 40.0;
constexpr double kRttMs = 10.0;

/// One Cubic and one DCTCP flow; spec order fixes the flow ids (0 = Cubic,
/// 1 = DCTCP).
scenario::DumbbellConfig mix(scenario::AqmType aqm) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = kLinkMbps * 1e6;
  cfg.duration = sim::from_seconds(80.0);
  cfg.stats_start = sim::from_seconds(20.0);
  cfg.aqm.type = aqm;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(kRttMs);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(kRttMs);
  cfg.tcp_flows = {cubic, dctcp};
  return cfg;
}

/// Prints both rates and returns the Cubic/DCTCP ratio.
double print_rates(const scenario::RunResult& r) {
  const double cubic = r.mean_goodput_mbps(tcp::CcType::kCubic);
  const double dctcp = r.mean_goodput_mbps(tcp::CcType::kDctcp);
  const double ratio = dctcp > 0 ? cubic / dctcp : 0.0;
  std::printf("  rates: cubic %.1f, dctcp %.1f Mb/s (ratio %.2f)\n", cubic,
              dctcp, ratio);
  return ratio;
}

bool within_2x(double ratio) { return ratio >= 0.5 && ratio <= 2.0; }

}  // namespace

int main() {
  // Single queue (the paper's interim arrangement).
  const auto single = scenario::run_dumbbell(mix(scenario::AqmType::kCoupledPi2));
  std::printf("Coupled PI2, single queue (the paper):\n");
  std::printf("  shared queue delay: mean %.2f ms, p99 %.2f ms\n",
              single.mean_qdelay_ms, single.p99_qdelay_ms);
  const double single_ratio = print_rates(single);

  // Dual queue, with the departures traced for the per-band delays.
  auto cfg = mix(scenario::AqmType::kDualPi2);
  net::PacketTrace trace{1u << 22};
  cfg.trace = &trace;
  const auto dual = scenario::run_dumbbell(cfg);
  stats::PercentileSampler l_ms;
  stats::PercentileSampler c_ms;
  for (const net::TraceRecord& rec : trace.records()) {
    if (rec.type != net::TraceEventType::kDeparture || rec.t < cfg.stats_start) {
      continue;
    }
    (rec.flow == 1 ? l_ms : c_ms).add(sim::to_millis(rec.sojourn));
  }
  std::printf("\nDualPI2 (two queues):\n");
  std::printf("  dctcp queue delay: mean %.2f ms, p99 %.2f ms\n", l_ms.mean(),
              l_ms.p99());
  std::printf("  cubic queue delay: mean %.2f ms, p99 %.2f ms\n", c_ms.mean(),
              c_ms.p99());
  const double dual_ratio = print_rates(dual);

  std::printf(
      "\nSame k = 2 coupling; the dual queue removes the Classic queue's\n"
      "delay from the Scalable flow's path. Cubic/DCTCP rate ratio: %.2f\n"
      "single queue (%s), %.2f dual queue (%s).\n",
      single_ratio, within_2x(single_ratio) ? "within 2x" : "NOT within 2x",
      dual_ratio, within_2x(dual_ratio) ? "within 2x" : "NOT within 2x");
  return 0;
}
