// Figure 19: per-flow throughput balance for different combinations of flow
// counts (A = Cubic, B = DCTCP or ECN-Cubic) at link = 40 Mb/s, RTT = 10 ms,
// under PIE and coupled PI2. The x-axis combos run A1-B1, A9-B2, ..., A1-B10
// in the paper; we reproduce a representative ladder.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pi2;
  using namespace pi2::bench;
  const auto opts = parse_options(argc, argv);
  print_header("Figure 19", "per-flow rate balance vs flow-count combinations",
               opts);

  struct Combo {
    int a;  // Cubic flows
    int b;  // DCTCP / ECN-Cubic flows
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
      std::printf("%-10s %-16s %-16s %-14s\n", "A-B", "cubic/flow[Mbps]",
                  "other/flow[Mbps]", "ratio(A/B)");
      for (const Combo& combo : combos) {
        const auto cfg =
            mix_config(aqm, mix, 40.0, 10.0, opts, 0, 0, combo.a, combo.b);
        const auto r = scenario::run_dumbbell(cfg);
        const double a_rate = r.mean_goodput_mbps(tcp::CcType::kCubic);
        const double b_rate = r.mean_goodput_mbps(other_cc(mix));
        std::printf("A%d-B%-7d %-16.3f %-16.3f %-14.3f\n", combo.a, combo.b,
                    a_rate, b_rate, b_rate > 0 ? a_rate / b_rate : 0.0);
      }
    }
  }
  std::printf(
      "\n# expectation: PI2 keeps the per-flow ratio near 1 for every combo;\n"
      "# PIE's cubic/dctcp ratio collapses regardless of flow counts.\n");
  return 0;
}
