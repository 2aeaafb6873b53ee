// Ablation: coupled Curvy RED (the DualQ draft's RED-like example AQM, [13])
// vs the coupled PI2 of this paper, on the coexistence workload. Both use
// the same k = 2 square coupling; the difference is the controller — a
// queue-position ramp vs a PI integral. Curvy RED needs a standing queue to
// hold any probability, so its delay floats with load while PI2 pins the
// target.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pi2;
  using namespace pi2::scenario;
  const auto opts = bench::parse_options(argc, argv);
  bench::print_header("Ablation", "coupled Curvy RED vs coupled PI2", opts);

  std::printf("%-12s %-10s %-12s | %-10s %-10s %-10s %-8s\n", "aqm",
              "link[Mbps]", "rtt[ms]", "ratio", "mean[ms]", "p99[ms]", "util");
  for (const auto aqm : {AqmType::kCurvyRed, AqmType::kCoupledPi2}) {
    for (const double link : {12.0, 40.0, 120.0}) {
      for (const double rtt : {10.0, 50.0}) {
        auto cfg = bench::mix_config(aqm, bench::MixKind::kCubicVsDctcp, link, rtt,
                                     opts, 0, 0);
        const auto r = run_dumbbell(cfg);
        const double cubic = r.mean_goodput_mbps(tcp::CcType::kCubic);
        const double dctcp = r.mean_goodput_mbps(tcp::CcType::kDctcp);
        std::printf("%-12s %-10g %-12g | %-10.3f %-10.1f %-10.1f %-8.3f\n",
                    std::string(to_string(aqm)).c_str(), link, rtt,
                    dctcp > 0 ? cubic / dctcp : 0.0, r.mean_qdelay_ms,
                    r.p99_qdelay_ms, r.utilization);
      }
    }
  }
  std::printf(
      "\n# expectation: both achieve rough rate fairness (the k = 2 coupling\n"
      "# does that), but Curvy RED's queue delay drifts with load while PI2\n"
      "# holds ~20 ms everywhere — the reason the paper builds on PI.\n");
  return 0;
}
