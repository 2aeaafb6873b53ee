// Figure 20: normalized per-flow rate (rate divided by the equal-share fair
// rate) with P1/mean/P99 across flows, for the Figure 19 combinations at
// link = 40 Mb/s, RTT = 10 ms.
#include <cstdio>

#include "bench_common.hpp"
#include "stats/percentile.hpp"

int main(int argc, char** argv) {
  using namespace pi2;
  using namespace pi2::bench;
  const auto opts = parse_options(argc, argv);
  print_header("Figure 20", "normalized per-flow rates, P1/mean/P99", opts);

  struct Combo {
    int a;
    int b;
  };
  const std::vector<Combo> combos = opts.full
      ? std::vector<Combo>{{1, 1}, {9, 2}, {8, 3}, {7, 4}, {6, 6}, {4, 7},
                           {3, 8}, {2, 9}, {1, 10}, {10, 1}, {5, 5}}
      : std::vector<Combo>{{1, 1}, {9, 2}, {5, 5}, {2, 9}, {1, 10}};

  for (const auto aqm : {scenario::AqmType::kPie, scenario::AqmType::kCoupledPi2}) {
    for (const auto mix : {MixKind::kCubicVsEcnCubic, MixKind::kCubicVsDctcp}) {
      std::printf("\n== %s, %s ==\n",
                  aqm == scenario::AqmType::kPie ? "PIE" : "PI2(coupled)",
                  to_string(mix));
      std::printf("%-10s | %-22s | %-22s\n", "A-B", "cubic P1/mean/P99",
                  "other P1/mean/P99");
      for (const Combo& combo : combos) {
        const auto cfg =
            mix_config(aqm, mix, 40.0, 10.0, opts, 0, 0, combo.a, combo.b);
        const auto r = scenario::run_dumbbell(cfg);
        const double fair = 40.0 / (combo.a + combo.b);
        stats::PercentileSampler a_norm;
        stats::PercentileSampler b_norm;
        for (const auto& f : r.flows) {
          if (f.is_udp) continue;
          (f.cc == tcp::CcType::kCubic ? a_norm : b_norm).add(f.goodput_mbps / fair);
        }
        std::printf("A%d-B%-7d | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
                    combo.a, combo.b, a_norm.p01(), a_norm.mean(), a_norm.p99(),
                    b_norm.p01(), b_norm.mean(), b_norm.p99());
      }
    }
  }
  std::printf(
      "\n# expectation: under PI2 both classes sit near 1.0 with tight\n"
      "# percentiles for every combination; under PIE the DCTCP class sits\n"
      "# far above 1 and Cubic far below.\n");
  return 0;
}
