// Extension: DualPI2 (the DualQ Coupled AQM of the paper's references
// [12]/[13], later RFC 9332) — the deployment the single-queue paper builds
// towards. Demonstrates the property the single queue cannot deliver:
// Scalable traffic keeps sub-millisecond queuing delay while Classic traffic
// gets its own 20 ms-target queue. The footer reports the measured
// Cubic/DCTCP rate ratio per link and says "within 2x" only when it is.
//
// Runs through the first-class scenario path (AqmType::kDualPi2 behind
// run_dumbbell) rather than wiring the queue by hand, so the invariant
// monitor's band-conservation and coupled-law checks ride along; per-queue
// delay is recovered from the packet trace (Cubic departures sit in the C
// band, DCTCP departures in L).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "net/trace.hpp"
#include "stats/percentile.hpp"

int main(int argc, char** argv) {
  using namespace pi2;
  const auto opts = bench::parse_options(argc, argv);
  bench::print_header("Extension",
                      "DualPI2: L-queue latency isolation with rate fairness",
                      opts);

  const double duration_s = opts.duration_s_override > 0
                                ? opts.duration_s_override
                                : (opts.full ? 100.0 : 40.0);
  const double stats_start_s = opts.stats_start_s_override > 0
                                   ? opts.stats_start_s_override
                                   : duration_s * 0.3;
  const double rtt_ms = 10.0;

  bool healthy = true;
  std::string ratios;
  bool within_2x = true;
  for (const double link_mbps : {40.0, 120.0}) {
    scenario::DumbbellConfig cfg;
    cfg.link_rate_bps = link_mbps * 1e6;
    cfg.aqm.type = scenario::AqmType::kDualPi2;
    cfg.duration = sim::from_seconds(duration_s);
    cfg.stats_start = sim::from_seconds(stats_start_s);
    cfg.seed = opts.seed;

    // One Cubic and one DCTCP flow through the dual queue. Spec order fixes
    // the flow ids: 0 = Cubic (Classic band), 1 = DCTCP (L band).
    scenario::TcpFlowSpec cubic;
    cubic.cc = tcp::CcType::kCubic;
    cubic.base_rtt = sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(cubic);
    scenario::TcpFlowSpec dctcp;
    dctcp.cc = tcp::CcType::kDctcp;
    dctcp.base_rtt = sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(dctcp);

    net::PacketTrace trace{1u << 22};
    cfg.trace = &trace;

    const scenario::RunResult result = scenario::run_dumbbell(cfg);

    stats::PercentileSampler l_delay_ms;
    stats::PercentileSampler c_delay_ms;
    const auto stats_from = sim::from_seconds(stats_start_s);
    for (const net::TraceRecord& rec : trace.records()) {
      if (rec.type != net::TraceEventType::kDeparture || rec.t < stats_from) {
        continue;
      }
      (rec.flow == 1 ? l_delay_ms : c_delay_ms).add(sim::to_millis(rec.sojourn));
    }

    const double cubic_mbps = result.mean_goodput_mbps(tcp::CcType::kCubic);
    const double dctcp_mbps = result.mean_goodput_mbps(tcp::CcType::kDctcp);
    const double ratio = dctcp_mbps > 0 ? cubic_mbps / dctcp_mbps : 0.0;
    within_2x = within_2x && ratio >= 0.5 && ratio <= 2.0;
    char entry[48];
    std::snprintf(entry, sizeof entry, "%s%.3f (%.0f Mb/s)",
                  ratios.empty() ? "" : ", ", ratio, link_mbps);
    ratios += entry;

    std::printf("\n== link %.0f Mb/s, RTT %.0f ms ==\n", link_mbps, rtt_ms);
    std::printf("L queue delay [ms]: mean=%.3f p99=%.3f\n", l_delay_ms.mean(),
                l_delay_ms.p99());
    std::printf("C queue delay [ms]: mean=%.3f p99=%.3f\n", c_delay_ms.mean(),
                c_delay_ms.p99());
    std::printf("cubic=%.2f Mb/s dctcp=%.2f Mb/s ratio=%.3f\n", cubic_mbps,
                dctcp_mbps, ratio);
    std::printf("marks: L=%lld C=%lld drops: C=%lld  (window)\n",
                static_cast<long long>(result.window_band_l.marked),
                static_cast<long long>(result.window_band_c.marked),
                static_cast<long long>(result.window_band_c.aqm_dropped));
    if (trace.dropped_records() != 0) {
      std::printf("# trace overflow: %zu record(s) lost\n",
                  trace.dropped_records());
    }
    if (!result.violations.empty() || result.clamped_events != 0 ||
        result.guard_events != 0) {
      std::printf("!! %llu violation(s), %llu clamped, %llu guard trip(s)\n",
                  static_cast<unsigned long long>(result.violations.size()),
                  static_cast<unsigned long long>(result.clamped_events),
                  static_cast<unsigned long long>(result.guard_events));
      healthy = false;
    }
  }
  std::printf(
      "\n# expectation: the L (DCTCP) queue holds ~1 ms delay — an order of\n"
      "# magnitude below the single queue's 20 ms.\n"
      "# measured cubic/dctcp rate ratio: %s — %s\n",
      ratios.c_str(),
      within_2x ? "within 2x (the single-queue paper's fairness carried over)"
                : "NOT within 2x: the single-queue fairness does not carry "
                  "over here");
  return healthy ? 0 : 1;
}
