// The pi2_campaign templates (dumbbell sweep, overload, parking lot, RTT
// mix, resilience, capacity-step response), one TemplateDescriptor each:
// the scenario config builder and run call, the table header and row, the
// ok --json record's field list, the health predicate and the cross-point
// hook (headline, gate, expectation footer). bench/pi2_campaign looks the
// descriptor up once per campaign and writes every record's framing
// itself; perfbench replays the resilience points through
// resilience_json_record, so its records match the driver's bytes.
//
// Field lists and formats here are the committed golden baselines' schema;
// change them only together with tests/golden/*.json.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "bench_common.hpp"
#include "campaign/record.hpp"
#include "campaign/spec.hpp"
#include "durable/atomic_file.hpp"
#include "durable/journal.hpp"
#include "durable/shutdown.hpp"
#include "faults/fault_presets.hpp"
#include "runner/parallel_runner.hpp"
#include "stats/percentile.hpp"
#include "stats/recovery.hpp"
#include "topology/topology.hpp"

namespace pi2::bench {

inline const char* aqm_label(scenario::AqmType aqm) {
  return aqm == scenario::AqmType::kPie ? "PIE" : "PI2(coupled)";
}

/// Escapes error messages and paths embedded in JSON records.
using durable::json_escape;
using campaign::RecordFields;
using campaign::write_record;

namespace detail {
/// Per-point telemetry run id: the artifacts of point i are named
/// `<dir>/point_<i>.*`, so a resumed or merged run can name them again.
inline std::string point_run_id(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "point_%04zu", i);
  return buf;
}
}  // namespace detail

/// Maps a campaign-spec axis value onto an AqmType. Names follow
/// scenario::to_string(AqmType); callers pass validated spec values.
inline scenario::AqmType aqm_from_name(const std::string& name) {
  using scenario::AqmType;
  if (name == "fifo") return AqmType::kFifo;
  if (name == "pie") return AqmType::kPie;
  if (name == "bare-pie") return AqmType::kBarePie;
  if (name == "pi") return AqmType::kPi;
  if (name == "pi2") return AqmType::kPi2;
  if (name == "coupled-pi2") return AqmType::kCoupledPi2;
  if (name == "red") return AqmType::kRed;
  if (name == "codel") return AqmType::kCodel;
  if (name == "curvy-red") return AqmType::kCurvyRed;
  if (name == "step") return AqmType::kStep;
  return AqmType::kDualPi2;
}

inline MixKind mix_from_name(const std::string& name) {
  return name == "cubic/dctcp" ? MixKind::kCubicVsDctcp
                               : MixKind::kCubicVsEcnCubic;
}

inline net::Ecn ecn_from_name(const std::string& name) {
  if (name == "ect0") return net::Ecn::kEct0;
  if (name == "ect1") return net::Ecn::kEct1;
  return net::Ecn::kNotEct;
}

/// The machinery half of every figure's health check: a clean run has no
/// invariant violations, no clamped events and no guard trips.
inline bool machinery_healthy(const scenario::RunResult& result) {
  return result.violations.empty() && result.clamped_events == 0 &&
         result.guard_events == 0;
}

// ---- the descriptor --------------------------------------------------------

/// One point as a template sees it: the expansion's fixed parameters and
/// the point's axis values, looked up by axis name.
struct PointView {
  const campaign::Expansion& x;
  const campaign::CampaignPoint& p;

  [[nodiscard]] const std::string& text(const std::string& axis) const {
    return x.text(p, axis);
  }
  [[nodiscard]] double num(const std::string& axis) const {
    return x.number(p, axis);
  }
  [[nodiscard]] scenario::AqmType aqm() const {
    return aqm_from_name(text("aqm"));
  }
};

/// What the driver resolves before any point runs.
struct TemplateInputs {
  Options opts;  ///< the shared flags (dumbbell_sweep durations)
  /// dumbbell_sweep background tiers (--packet/--fluid-background).
  int packet_background = 0;
  int fluid_background = 0;
  /// Every fault_schedule axis value, resolved once by the driver's
  /// preflight, so lookups from `run` are total.
  std::map<std::string, faults::FaultSchedule> schedules;
};

/// Everything that differs per template. `run` is called on worker
/// threads; every other member on the driver's thread, in point order.
struct TemplateDescriptor {
  /// The table's caption and column header.
  std::function<void(const campaign::Expansion&)> print_header;
  /// Builds the point's config and runs it; `recorder` may be null.
  std::function<scenario::RunResult(const PointView&, telemetry::Recorder*)>
      run;
  std::function<void(const PointView&, const scenario::RunResult&)> print_row;
  /// The ok record's fields after "index" and "status".
  std::function<void(const PointView&, const scenario::RunResult&,
                     RecordFields&)>
      fields;
  /// Per-point health; prints its own diagnostics.
  std::function<bool(const PointView&, const scenario::RunResult&)> healthy;
  /// Cross-point hook: sees every ok point (empty = none).
  std::function<void(const PointView&, const scenario::RunResult&)> record{};
  /// Closes the table of a whole grid; `healthy` is false once any point
  /// failed or was unhealthy (empty = no footer).
  std::function<void(bool healthy)> footer{};
  /// Cross-point gate over a whole grid, checked after the points-ok line;
  /// false fails the campaign (empty = none).
  std::function<bool()> gate{};
};

/// Runs one point's config under the shutdown flag, with the point's
/// telemetry recorder when it has one.
template <typename Config>
scenario::RunResult run_config(Config cfg, telemetry::Recorder* recorder) {
  cfg.stop = durable::ShutdownController::flag();
  if (recorder != nullptr) cfg.recorder = recorder;
  if constexpr (std::is_same_v<Config, topology::TopologyConfig>) {
    return topology::to_run_result(topology::run_topology(cfg));
  } else {
    return scenario::run_dumbbell(cfg);
  }
}

// ---- dumbbell sweep (Figures 15-18: link rate x RTT, PIE vs coupled PI2) --

/// Cubic-to-other goodput ratio of a point (0 when the other flow starved).
inline double dumbbell_ratio(const scenario::RunResult& result, MixKind mix) {
  const double other = result.mean_goodput_mbps(other_cc(mix));
  return other > 0 ? result.mean_goodput_mbps(tcp::CcType::kCubic) / other
                   : 0.0;
}

/// Figure 15's headline over the grid: PI2's worst-case Cubic/DCTCP
/// imbalance and PIE's weakest DCTCP-over-Cubic dominance.
struct DumbbellHeadline {
  double worst_pi2_log_ratio = 0.0;
  double best_pie_dctcp_ratio = 1e9;

  void record(scenario::AqmType aqm, MixKind mix, double ratio) {
    if (mix != MixKind::kCubicVsDctcp || ratio <= 0) return;
    if (aqm == scenario::AqmType::kCoupledPi2) {
      worst_pi2_log_ratio =
          std::max(worst_pi2_log_ratio, std::abs(std::log2(ratio)));
    } else if (aqm == scenario::AqmType::kPie) {
      best_pie_dctcp_ratio = std::min(best_pie_dctcp_ratio, 1.0 / ratio);
    }
  }

  void print() const {
    std::printf("# PI2 cubic/dctcp worst-case imbalance: 2^%.2f = %.2fx\n",
                worst_pi2_log_ratio, std::exp2(worst_pi2_log_ratio));
    std::printf("# PIE dctcp/cubic dominance (min over grid): %.1fx\n",
                best_pie_dctcp_ratio);
  }
};

inline constexpr const char* kDumbbellExpectation =
    "# expectation: PIE lets DCTCP dominate ~10x; PI2 keeps the balance\n"
    "# near 1 over the whole range; the ECN-Cubic control is fair under "
    "both.\n"
    "# expectation: both AQMs hold ~20 ms mean; PI2's P99 lower than\n"
    "# PIE's at 4 Mb/s.\n"
    "# expectation: probabilities fall with BDP; under coupled PI2 the\n"
    "# scalable probability is ~2*sqrt(classic), well above it.\n"
    "# expectation: utilization >90% across the grid for both AQMs.\n";

/// One table row carries every column Figures 15-18 report: per-cc goodput
/// and their ratio (Fig. 15), queue delay (Fig. 16), Classic and Scalable
/// signal probability (Fig. 17) and the utilization spread of the 1 s
/// samples after the stats start (Fig. 18). With a background tier the
/// record adds "background_mbps"; the committed baselines run without one,
/// so they keep their exact field set.
inline TemplateDescriptor dumbbell_template(const TemplateInputs& in) {
  const auto headline = std::make_shared<DumbbellHeadline>();
  const bool with_background =
      in.packet_background > 0 || in.fluid_background > 0;
  return {
      .print_header = [](const campaign::Expansion&) {
        std::printf("%-14s %-16s %-10s %-8s %-8s %-8s %-8s %-8s %-8s "
                    "%-23s %-23s %s\n",
                    "aqm", "mix", "link[Mbps]", "rtt[ms]", "cubic",
                    "other", "ratio", "qdelay", "p99",
                    "classic% p25/mean/p99", "scalable% p25/mean/p99",
                    "util% P1/mean/P99");
      },
      .run = [in](const PointView& v, telemetry::Recorder* recorder) {
        // Durations come from the shared flags, the background tiers
        // from the driver's; the seed is the campaign's own.
        auto cfg = mix_config(v.aqm(), mix_from_name(v.text("cc_mix")),
                              v.num("rate_mbps"), v.num("rtt_ms"), in.opts,
                              in.packet_background, in.fluid_background);
        cfg.seed = v.p.seed;
        return run_config(std::move(cfg), recorder);
      },
      .print_row = [window_start = stats_start(in.opts)](
          const PointView& v, const scenario::RunResult& r) {
        // Violations are reported but not fatal: Figures 15-18 have no
        // machinery gate.
        if (!r.violations.empty()) {
          std::printf("!! point %zu: %llu invariant violation(s), see "
                      "JSON\n",
                      v.p.index,
                      static_cast<unsigned long long>(r.violations.size()));
        }
        const MixKind mix = mix_from_name(v.text("cc_mix"));
        const auto& classic = r.classic_prob_samples;
        const auto& scalable = r.scalable_prob_samples;
        stats::PercentileSampler util;
        for (const auto& point : r.utilization_series.points()) {
          if (point.t >= window_start) util.add(point.value);
        }
        std::printf(
            "%-14s %-16s %-10g %-8g %-8.2f %-8.2f %-8.3f %-8.2f %-8.2f "
            "%7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %5.1f %5.1f %5.1f\n",
            aqm_label(v.aqm()), to_string(mix), v.num("rate_mbps"),
            v.num("rtt_ms"), r.mean_goodput_mbps(tcp::CcType::kCubic),
            r.mean_goodput_mbps(other_cc(mix)), dumbbell_ratio(r, mix),
            r.mean_qdelay_ms, r.p99_qdelay_ms, classic.p25() * 100.0,
            classic.mean() * 100.0, classic.p99() * 100.0,
            scalable.p25() * 100.0, scalable.mean() * 100.0,
            scalable.p99() * 100.0, util.p01() * 100.0,
            r.utilization * 100.0, util.p99() * 100.0);
      },
      .fields = [with_background](const PointView& v,
                                  const scenario::RunResult& r,
                                  RecordFields& f) {
        const MixKind mix = mix_from_name(v.text("cc_mix"));
        const auto& c = r.window_counters;
        f.add("aqm", aqm_label(v.aqm()))
            .add("mix", to_string(mix))
            .add("link_mbps", v.num("rate_mbps"))
            .add("rtt_ms", v.num("rtt_ms"))
            .add("seed", v.p.seed)
            .add("mean_qdelay_ms", r.mean_qdelay_ms)
            .add("p99_qdelay_ms", r.p99_qdelay_ms)
            .add("utilization", r.utilization)
            .add("signal_rate", r.observed_signal_rate())
            .add("cubic_mbps", r.mean_goodput_mbps(tcp::CcType::kCubic))
            .add("other_mbps", r.mean_goodput_mbps(other_cc(mix)))
            .add("enqueued", c.enqueued)
            .add("forwarded", c.forwarded)
            .add("aqm_dropped", c.aqm_dropped)
            .add("tail_dropped", c.tail_dropped)
            .add("marked", c.marked)
            .add("events_executed", r.events_executed)
            .add("clamped_events", r.clamped_events)
            .add("invariant_violations", r.violations.size())
            .add("guard_events", r.guard_events);
        if (!with_background) return;
        // The background load is Reno at either engine tier (mix_config);
        // the aggregate rate is the mean-field quantity the two
        // renderings must agree on, so the fluid golden gates it.
        double background_mbps = 0.0;
        for (const auto& flow : r.flows) {
          if (flow.cc == tcp::CcType::kReno && !flow.is_udp) {
            background_mbps += flow.goodput_mbps * flow.count;
          }
        }
        f.add("background_mbps", background_mbps);
      },
      .healthy = [](const PointView&, const scenario::RunResult&) {
        return true;
      },
      .record = [headline](const PointView& v, const scenario::RunResult& r) {
        const MixKind mix = mix_from_name(v.text("cc_mix"));
        headline->record(v.aqm(), mix, dumbbell_ratio(r, mix));
      },
      .footer = [headline](bool) {
        std::printf("\n");
        headline->print();
        std::fputs(kDumbbellExpectation, stdout);
      },
  };
}

// ---- overload (RFC 9332 §4.2 UDP floods vs DualPI2) ------------------------

inline scenario::DumbbellConfig overload_config(net::Ecn ecn, double udp_mult,
                                                double link_mbps, double rtt_ms,
                                                double total_s,
                                                double stats_start_s,
                                                std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = scenario::AqmType::kDualPi2;
  // RFC 9332 overload protection assumes the Classic drop probability can
  // ramp all the way to 1: a 2x unresponsive flood needs 50%+ drop to keep
  // the queue governed, which the paper's single-queue 25% cap
  // (kDefaultMaxClassicProb) would forbid.
  cfg.aqm.max_classic_prob = 1.0;
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(dctcp);
  scenario::UdpFlowSpec flood;
  flood.rate_bps = udp_mult * cfg.link_rate_bps;
  flood.ecn = ecn;
  flood.base_rtt = sim::from_millis(rtt_ms);
  cfg.udp_flows.push_back(flood);
  return cfg;
}

inline constexpr const char* kOverloadExpectation =
    "# expectation: floods above 1x lose their excess to drops (Not-ECT) or "
    "to the\n"
    "# l_drop switchover (ECT(1): marks give way to squared-probability "
    "drops), while\n"
    "# the Classic queue's delay stays governed by the PI target, not the "
    "buffer.\n";

inline TemplateDescriptor overload_template() {
  return {
      .print_header = [](const campaign::Expansion& x) {
        std::printf("# link %.0f Mb/s, RTT %.0f ms, %.0f s/run; flood = 1 "
                    "UDP sender, mix = 1 Cubic + 1 DCTCP\n",
                    x.link_mbps, x.rtt_ms, x.duration_s);
        std::printf(
            "%-9s %-9s %-7s %-7s %-7s %-9s %-9s %-11s %-11s %-9s %-7s\n",
            "ecn", "udp_mult", "cubic", "dctcp", "udp", "qdelay", "p99",
            "L mark/drop", "C mark/drop", "tail L/C", "guards");
      },
      .run = [](const PointView& v, telemetry::Recorder* recorder) {
        return run_config(
            overload_config(ecn_from_name(v.text("ecn")),
                            v.num("udp_mult"), v.x.link_mbps, v.x.rtt_ms,
                            v.x.duration_s, v.x.stats_start_s, v.p.seed),
            recorder);
      },
      .print_row = [](const PointView& v, const scenario::RunResult& r) {
        const auto& l = r.window_band_l;
        const auto& c = r.window_band_c;
        std::printf(
            "%-9s %-9.2f %-7.2f %-7.2f %-7.2f %-9.2f %-9.2f %5lld/%-5lld "
            "%5lld/%-5lld %4lld/%-4lld %-7llu\n",
            v.text("ecn").c_str(), v.num("udp_mult"),
            r.mean_goodput_mbps(tcp::CcType::kCubic),
            r.mean_goodput_mbps(tcp::CcType::kDctcp),
            r.mean_udp_goodput_mbps(), r.mean_qdelay_ms, r.p99_qdelay_ms,
            static_cast<long long>(l.marked),
            static_cast<long long>(l.aqm_dropped),
            static_cast<long long>(c.marked),
            static_cast<long long>(c.aqm_dropped),
            static_cast<long long>(l.tail_dropped),
            static_cast<long long>(c.tail_dropped),
            static_cast<unsigned long long>(r.guard_events));
      },
      .fields = [](const PointView& v, const scenario::RunResult& r,
                   RecordFields& f) {
        const auto& l = r.window_band_l;
        const auto& c = r.window_band_c;
        f.add("ecn", v.text("ecn"))
            .add("seed", v.p.seed)
            .add("link_mbps", v.x.link_mbps)
            .add("rtt_ms", v.x.rtt_ms)
            .add("udp_mult", v.num("udp_mult"))
            .add("cubic_mbps", r.mean_goodput_mbps(tcp::CcType::kCubic))
            .add("dctcp_mbps", r.mean_goodput_mbps(tcp::CcType::kDctcp))
            .add("udp_mbps", r.mean_udp_goodput_mbps())
            .add("utilization", r.utilization)
            .add("mean_qdelay_ms", r.mean_qdelay_ms)
            .add("p99_qdelay_ms", r.p99_qdelay_ms)
            .add("l_enqueued", l.enqueued)
            .add("l_marked", l.marked)
            .add("l_dropped", l.aqm_dropped)
            .add("l_tail_dropped", l.tail_dropped)
            .add("c_enqueued", c.enqueued)
            .add("c_marked", c.marked)
            .add("c_dropped", c.aqm_dropped)
            .add("c_tail_dropped", c.tail_dropped)
            .add("invariant_violations", r.violations.size())
            .add("guard_events", r.guard_events);
      },
      .healthy = [](const PointView&, const scenario::RunResult& r) {
        return machinery_healthy(r);
      },
      .footer = [](bool) {
        std::printf("\n");
        std::fputs(kOverloadExpectation, stdout);
      },
  };
}

// ---- parking lot (long flow vs per-hop cross flows) ------------------------

/// The N-hop parking lot: nodes n0..nN, one long Cubic flow over the whole
/// chain, one Cubic cross flow per hop, every hop the same rate and AQM.
inline topology::TopologyConfig parking_lot_config(
    scenario::AqmType aqm, int hops, double link_mbps, double rtt_ms,
    double total_s, double stats_start_s, std::uint64_t seed) {
  topology::TopologyConfig cfg;
  for (int i = 0; i <= hops; ++i) {
    std::string node = "n";
    node += std::to_string(i);
    cfg.nodes.push_back(std::move(node));
  }
  for (int i = 0; i < hops; ++i) {
    topology::LinkSpec link;
    link.from = cfg.nodes[static_cast<std::size_t>(i)];
    link.to = cfg.nodes[static_cast<std::size_t>(i) + 1];
    link.rate_bps = link_mbps * 1e6;
    link.aqm.type = aqm;
    link.aqm.ecn = true;
    cfg.links.push_back(link);
  }
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.count = 1;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  topology::TcpRoute longflow;
  longflow.spec = cubic;
  longflow.path = cfg.nodes;
  cfg.tcp_flows.push_back(longflow);
  for (int i = 0; i < hops; ++i) {
    topology::TcpRoute cross;
    cross.spec = cubic;
    cross.path = {cfg.nodes[static_cast<std::size_t>(i)],
                  cfg.nodes[static_cast<std::size_t>(i) + 1]};
    cfg.tcp_flows.push_back(cross);
  }
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  return cfg;
}

struct ParkingSummary {
  double long_mbps = 0;
  double cross_mbps = 0;
  double ratio = 0;
  double util_min = 1.0;
};

/// Flow order is the route order: flows[0] is the long flow, flows[1..hops]
/// the cross flows.
inline ParkingSummary parking_summary(const scenario::RunResult& result,
                                      int hops) {
  ParkingSummary s;
  s.long_mbps = result.flows[0].goodput_mbps;
  double cross_sum = 0.0;
  for (int h = 0; h < hops; ++h) {
    cross_sum += result.flows[static_cast<std::size_t>(h) + 1].goodput_mbps;
  }
  s.cross_mbps = cross_sum / hops;
  s.ratio = s.cross_mbps > 0 ? s.long_mbps / s.cross_mbps : 0.0;
  for (const auto& link : result.links) {
    if (link.utilization < s.util_min) s.util_min = link.utilization;
  }
  return s;
}

inline constexpr const char* kParkingExpectation =
    "# expectation: the ratio column sits near 1.0 at one hop and falls "
    "below 1.0\n"
    "# beyond it — the long flow pays every hop's marking while each cross "
    "flow pays one.\n";

inline TemplateDescriptor parking_lot_template() {
  return {
      .print_header = [](const campaign::Expansion& x) {
        std::printf("# chain of 10 Mb/s links, RTT %.0f ms, %.0f s/run; 1 "
                    "long Cubic + 1 Cubic cross flow per hop\n",
                    x.rtt_ms, x.duration_s);
        std::printf("%-12s %-5s %-7s %-7s %-7s %-8s %-21s %-21s\n", "aqm",
                    "hops", "long", "cross", "ratio", "util",
                    "qdelay/hop (ms)", "signals/hop");
      },
      .run = [](const PointView& v, telemetry::Recorder* recorder) {
        return run_config(
            parking_lot_config(v.aqm(), static_cast<int>(v.num("hops")),
                               v.x.link_mbps, v.x.rtt_ms, v.x.duration_s,
                               v.x.stats_start_s, v.p.seed),
            recorder);
      },
      .print_row = [](const PointView& v, const scenario::RunResult& r) {
        const int hops = static_cast<int>(v.num("hops"));
        const ParkingSummary s = parking_summary(r, hops);
        char qdelay_col[64] = "";
        char marks_col[64] = "";
        std::size_t q_at = 0;
        std::size_t m_at = 0;
        for (const auto& link : r.links) {
          q_at += static_cast<std::size_t>(std::snprintf(
              qdelay_col + q_at, sizeof(qdelay_col) - q_at, "%s%.2f",
              q_at == 0 ? "" : "/", link.mean_qdelay_ms));
          m_at += static_cast<std::size_t>(std::snprintf(
              marks_col + m_at, sizeof(marks_col) - m_at, "%s%lld",
              m_at == 0 ? "" : "/",
              static_cast<long long>(link.counters.marked +
                                     link.counters.aqm_dropped)));
        }
        std::printf("%-12s %-5d %-7.2f %-7.2f %-7.2f %-8.3f %-21s %-21s\n",
                    v.text("aqm").c_str(), hops, s.long_mbps, s.cross_mbps,
                    s.ratio, s.util_min, qdelay_col, marks_col);
      },
      .fields = [](const PointView& v, const scenario::RunResult& r,
                   RecordFields& f) {
        const int hops = static_cast<int>(v.num("hops"));
        const ParkingSummary s = parking_summary(r, hops);
        f.add("aqm", v.text("aqm"))
            .add("hops", hops)
            .add("seed", v.p.seed)
            .add("link_mbps", v.x.link_mbps)
            .add("rtt_ms", v.x.rtt_ms)
            .add("long_mbps", s.long_mbps)
            .add("cross_mbps", s.cross_mbps)
            .add("ratio", s.ratio)
            .add("util_min", s.util_min);
        for (std::size_t h = 0; h < r.links.size(); ++h) {
          const std::string hop = "hop" + std::to_string(h);
          f.add(hop + "_qdelay_ms", r.links[h].mean_qdelay_ms)
              .add(hop + "_marked", r.links[h].counters.marked)
              .add(hop + "_dropped", r.links[h].counters.aqm_dropped);
        }
        f.add("invariant_violations", r.violations.size())
            .add("guard_events", r.guard_events);
      },
      // Beyond one hop the long flow must not out-throughput the cross
      // flows.
      .healthy = [](const PointView& v, const scenario::RunResult& r) {
        const int hops = static_cast<int>(v.num("hops"));
        const ParkingSummary s = parking_summary(r, hops);
        if (hops > 1 && s.long_mbps >= s.cross_mbps) {
          std::printf("# UNHEALTHY: long flow (%.2f Mb/s) >= cross mean "
                      "(%.2f Mb/s) over %d hops\n",
                      s.long_mbps, s.cross_mbps, hops);
          return false;
        }
        return machinery_healthy(r);
      },
      .footer = [](bool) {
        std::printf("\n");
        std::fputs(kParkingExpectation, stdout);
      },
  };
}

// ---- RTT mix (10/50/100 ms branches sharing one bottleneck) ----------------

inline constexpr double kBranchRttMs[] = {10.0, 50.0, 100.0};
inline constexpr std::size_t kBranches = 3;
inline constexpr int kFlowsPerBranch = 2;  // 1 Cubic + 1 DCTCP

/// Branch topology: r10/r50/r100 -> agg over FIFO access links, agg -> sink
/// over the AQM bottleneck. The bottleneck is links[0], so it owns the
/// flattened result's top-level series and telemetry scope.
inline topology::TopologyConfig rtt_mix_config(scenario::AqmType aqm,
                                               double link_mbps, double total_s,
                                               double stats_start_s,
                                               std::uint64_t seed) {
  topology::TopologyConfig cfg;
  cfg.nodes = {"agg", "sink", "r10", "r50", "r100"};
  topology::LinkSpec bottleneck;
  bottleneck.name = "bottleneck";
  bottleneck.from = "agg";
  bottleneck.to = "sink";
  bottleneck.rate_bps = link_mbps * 1e6;
  bottleneck.aqm.type = aqm;
  bottleneck.aqm.ecn = true;
  cfg.links.push_back(bottleneck);
  for (std::size_t b = 0; b < kBranches; ++b) {
    topology::LinkSpec access;
    access.from = cfg.nodes[2 + b];
    access.to = "agg";
    access.rate_bps = 40e6;  // never the bottleneck
    access.aqm.type = scenario::AqmType::kFifo;
    cfg.links.push_back(access);
  }
  for (std::size_t b = 0; b < kBranches; ++b) {
    const std::vector<std::string> path = {cfg.nodes[2 + b], "agg", "sink"};
    scenario::TcpFlowSpec cubic;
    cubic.cc = tcp::CcType::kCubic;
    cubic.count = 1;
    cubic.base_rtt = sim::from_millis(kBranchRttMs[b]);
    cfg.tcp_flows.push_back({cubic, path});
    scenario::TcpFlowSpec dctcp;
    dctcp.cc = tcp::CcType::kDctcp;
    dctcp.count = 1;
    dctcp.base_rtt = sim::from_millis(kBranchRttMs[b]);
    cfg.tcp_flows.push_back({dctcp, path});
  }
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  return cfg;
}

struct RttMixSummary {
  double branch_mbps[kBranches] = {};
  double ratio = 0;  ///< 10 ms / 100 ms branch goodput
  double jain = 0;
};

/// Flow order is the route order: branch b owns flows[2b] (Cubic) and
/// flows[2b+1] (DCTCP).
inline RttMixSummary rtt_mix_summary(const scenario::RunResult& result) {
  RttMixSummary s;
  for (std::size_t b = 0; b < kBranches; ++b) {
    for (int f = 0; f < kFlowsPerBranch; ++f) {
      s.branch_mbps[b] +=
          result.flows[b * kFlowsPerBranch + static_cast<std::size_t>(f)]
              .goodput_mbps;
    }
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double g : s.branch_mbps) {
    sum += g;
    sum_sq += g * g;
  }
  s.jain = sum_sq > 0 ? (sum * sum) / (kBranches * sum_sq) : 0.0;
  s.ratio = s.branch_mbps[2] > 0 ? s.branch_mbps[0] / s.branch_mbps[2] : 0.0;
  return s;
}

inline constexpr const char* kRttMixExpectation =
    "# expectation: short-RTT branches out-throughput long ones (ratio > 1); "
    "the AQMs\n"
    "# differ in how far Jain's index falls and where the queue delay "
    "settles.\n";

inline TemplateDescriptor rtt_mix_template() {
  return {
      .print_header = [](const campaign::Expansion& x) {
        std::printf("# bottleneck %.0f Mb/s; per branch: 1 Cubic + 1 DCTCP "
                    "at 10/50/100 ms base RTT, %.0f s/run\n",
                    x.link_mbps, x.duration_s);
        std::printf("%-12s %-8s %-8s %-8s %-9s %-6s %-8s %-8s\n", "aqm",
                    "b10", "b50", "b100", "r10/100", "jain", "qdelay",
                    "p99");
      },
      .run = [](const PointView& v, telemetry::Recorder* recorder) {
        return run_config(
            rtt_mix_config(v.aqm(), v.x.link_mbps, v.x.duration_s,
                           v.x.stats_start_s, v.p.seed),
            recorder);
      },
      .print_row = [](const PointView& v, const scenario::RunResult& r) {
        const RttMixSummary s = rtt_mix_summary(r);
        std::printf(
            "%-12s %-8.2f %-8.2f %-8.2f %-9.2f %-6.3f %-8.2f %-8.2f\n",
            v.text("aqm").c_str(), s.branch_mbps[0], s.branch_mbps[1],
            s.branch_mbps[2], s.ratio, s.jain, r.mean_qdelay_ms,
            r.p99_qdelay_ms);
      },
      .fields = [](const PointView& v, const scenario::RunResult& r,
                   RecordFields& f) {
        const RttMixSummary s = rtt_mix_summary(r);
        f.add("aqm", v.text("aqm"))
            .add("seed", v.p.seed)
            .add("link_mbps", v.x.link_mbps)
            .add("rtt10_mbps", s.branch_mbps[0])
            .add("rtt50_mbps", s.branch_mbps[1])
            .add("rtt100_mbps", s.branch_mbps[2])
            .add("ratio_10_100", s.ratio)
            .add("jain", s.jain)
            .add("utilization", r.utilization)
            .add("mean_qdelay_ms", r.mean_qdelay_ms)
            .add("p99_qdelay_ms", r.p99_qdelay_ms)
            .add("marked", r.counters.marked)
            .add("aqm_dropped", r.counters.aqm_dropped)
            .add("invariant_violations", r.violations.size())
            .add("guard_events", r.guard_events);
      },
      // Liveness: every branch must get a share.
      .healthy = [](const PointView&, const scenario::RunResult& r) {
        const RttMixSummary s = rtt_mix_summary(r);
        bool ok = machinery_healthy(r);
        for (std::size_t b = 0; b < kBranches; ++b) {
          if (s.branch_mbps[b] <= 0.0) {
            std::printf("# UNHEALTHY: branch %zu starved (%.3f Mb/s)\n", b,
                        s.branch_mbps[b]);
            ok = false;
          }
        }
        return ok;
      },
      .footer = [](bool) {
        std::printf("\n");
        std::fputs(kRttMixExpectation, stdout);
      },
  };
}

// ---- resilience (fault presets x fluid background vs recovery time) --------

/// The preset/literal scaling context for one resilience campaign: faults
/// scale to the expansion's link rate, base RTT and (override-adjusted)
/// duration, so the same spec stresses quick, full and smoke runs alike.
inline faults::PresetContext resilience_fault_context(double link_mbps,
                                                      double rtt_ms,
                                                      double total_s) {
  faults::PresetContext ctx;
  ctx.link_bps = link_mbps * 1e6;
  ctx.base_rtt = sim::from_millis(rtt_ms);
  ctx.duration = sim::from_seconds(total_s);
  return ctx;
}

/// Foreground is the coexistence pair (1 Cubic + 1 DCTCP) every AQM on the
/// grid can govern; the fluid tier renders the `fluid_flows` background as
/// one modelled-Reno ensemble, exactly the --fluid-background idiom.
inline scenario::DumbbellConfig resilience_config(
    scenario::AqmType aqm, const faults::FaultSchedule& schedule,
    double fluid_flows, double link_mbps, double rtt_ms, double total_s,
    double stats_start_s, std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = aqm;
  cfg.aqm.ecn = true;
  cfg.duration = sim::from_seconds(total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  cfg.faults = schedule;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  scenario::TcpFlowSpec dctcp;
  dctcp.cc = tcp::CcType::kDctcp;
  dctcp.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(dctcp);
  if (fluid_flows > 0) {
    scenario::FluidFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = fluid_flows;
    bg.base_rtt = sim::from_millis(rtt_ms);
    cfg.fluid_flows.push_back(bg);
  }
  return cfg;
}

/// The resilience record's fields, shared by the template and
/// resilience_json_record.
inline void resilience_fields(RecordFields& f, std::string_view aqm_name,
                              std::string_view fault, double fluid_flows,
                              std::uint64_t seed, double link_mbps,
                              double rtt_ms,
                              const scenario::RunResult& result) {
  const stats::ResilienceReport& rr = result.resilience;
  f.add("aqm", aqm_name)
      .add("fault", fault)
      .add("fluid_flows", fluid_flows)
      .add("seed", seed)
      .add("link_mbps", link_mbps)
      .add("rtt_ms", rtt_ms)
      .add("windows", rr.windows)
      .add("recovered_windows", rr.recovered_windows)
      .add("worst_recovery_s", rr.worst_recovery_s)
      .add("mean_recovery_s", rr.mean_recovery_s)
      .add("peak_qdelay_ms", rr.peak_qdelay_ms)
      .add("post_fault_delta_ms", rr.post_fault_delta_ms)
      .add("mean_qdelay_ms", result.mean_qdelay_ms)
      .add("p99_qdelay_ms", result.p99_qdelay_ms)
      .add("utilization", result.utilization)
      .add("fault_dropped", result.counters.fault_dropped)
      .add("violations_in_window", rr.violations_in_window)
      .add("violations_outside", rr.violations_outside)
      .add("invariant_violations", result.violations.size())
      .add("guard_events", result.guard_events);
}

/// One resilience ok record, for callers that run the template's points
/// without the driver (perfbench); the bytes match the driver's.
inline void resilience_json_record(durable::AtomicFile& json, bool& first,
                                   std::size_t index, const char* aqm_name,
                                   const char* fault, double fluid_flows,
                                   std::uint64_t seed, double link_mbps,
                                   double rtt_ms,
                                   const scenario::RunResult& result) {
  RecordFields fields;
  resilience_fields(fields, aqm_name, fault, fluid_flows, seed, link_mbps,
                    rtt_ms, result);
  write_record(json, first, index, "ok", fields);
}

/// Cross-point gate for the paper's robustness headline: on every fault
/// preset of the grid, PI2's worst time-to-reconverge must not exceed
/// PIE's. Scores aggregate as the max across the fluid axis, with a
/// never-recovered window (-1) counting as +inf.
struct ResilienceGate {
  struct Cell {
    double pi2 = 0.0;
    double pie = 0.0;
    bool has_pi2 = false;
    bool has_pie = false;
  };
  std::map<std::string, Cell> by_fault;

  static double settled_or_inf(double worst_recovery_s) {
    return worst_recovery_s < 0.0
               ? std::numeric_limits<double>::infinity()
               : worst_recovery_s;
  }

  void record(const std::string& fault, const std::string& aqm,
              double worst_recovery_s) {
    Cell& cell = by_fault[fault];
    const double score = settled_or_inf(worst_recovery_s);
    if (aqm == "coupled-pi2" || aqm == "pi2") {
      cell.pi2 = cell.has_pi2 ? std::max(cell.pi2, score) : score;
      cell.has_pi2 = true;
    } else if (aqm == "pie") {
      cell.pie = cell.has_pie ? std::max(cell.pie, score) : score;
      cell.has_pie = true;
    }
  }

  /// Prints per-preset diagnostics; false when any preset has PI2 slower.
  [[nodiscard]] bool check() const {
    bool ok = true;
    for (const auto& [fault, cell] : by_fault) {
      if (!cell.has_pi2 || !cell.has_pie) continue;
      if (cell.pi2 > cell.pie) {
        std::printf("# UNHEALTHY: %s: PI2 worst recovery %.2f s > PIE "
                    "%.2f s\n",
                    fault.c_str(), cell.pi2, cell.pie);
        ok = false;
      }
    }
    return ok;
  }
};

inline TemplateDescriptor resilience_template(const TemplateInputs& in) {
  const auto gate = std::make_shared<ResilienceGate>();
  return {
      .print_header = [](const campaign::Expansion& x) {
        std::printf("# link %.0f Mb/s, RTT %.0f ms, %.0f s/run; mix = 1 "
                    "Cubic + 1 DCTCP, fluid Reno background; recovery band "
                    "= 2x AQM target, hold 1 s (-1 = never reconverged)\n",
                    x.link_mbps, x.rtt_ms, x.duration_s);
        std::printf("%-12s %-16s %-8s %-8s %-8s %-8s %-8s %-8s %-7s %s\n",
                    "aqm", "fault", "fluid", "recov", "mean_rec", "peak",
                    "delta", "qdelay", "util", "viol i/o");
      },
      .run = [schedules = in.schedules](const PointView& v,
                                 telemetry::Recorder* recorder) {
        return run_config(
            resilience_config(v.aqm(),
                              schedules.at(v.text("fault_schedule")),
                              v.num("fluid_flows"), v.x.link_mbps,
                              v.x.rtt_ms, v.x.duration_s,
                              v.x.stats_start_s, v.p.seed),
            recorder);
      },
      .print_row = [](const PointView& v, const scenario::RunResult& r) {
        const stats::ResilienceReport& rr = r.resilience;
        std::printf(
            "%-12s %-16s %-8.0f %-8.2f %-8.2f %-8.2f %-8.2f %-8.2f %-7.3f "
            "%llu/%llu\n",
            v.text("aqm").c_str(), v.text("fault_schedule").c_str(),
            v.num("fluid_flows"), rr.worst_recovery_s, rr.mean_recovery_s,
            rr.peak_qdelay_ms, rr.post_fault_delta_ms, r.mean_qdelay_ms,
            r.utilization,
            static_cast<unsigned long long>(rr.violations_in_window),
            static_cast<unsigned long long>(rr.violations_outside));
      },
      .fields = [](const PointView& v, const scenario::RunResult& r,
                   RecordFields& f) {
        resilience_fields(f, v.text("aqm"), v.text("fault_schedule"),
                          v.num("fluid_flows"), v.p.seed, v.x.link_mbps,
                          v.x.rtt_ms, r);
      },
      // Clamp/guard trips stay fatal, but invariant violations are only
      // fatal *outside* a fault window or its recovery transient.
      .healthy = [](const PointView&, const scenario::RunResult& r) {
        if (r.clamped_events != 0 || r.guard_events != 0) return false;
        if (r.resilience.violations_outside != 0) {
          std::printf("# UNHEALTHY: %llu invariant violation(s) outside "
                      "any fault window\n",
                      static_cast<unsigned long long>(
                          r.resilience.violations_outside));
          return false;
        }
        return true;
      },
      .record = [gate](const PointView& v, const scenario::RunResult& r) {
        gate->record(v.text("fault_schedule"), v.text("aqm"),
                     r.resilience.worst_recovery_s);
      },
      .gate = [gate] { return gate->check(); },
  };
}

// ---- response (section 4.4: 4x capacity step, PI2 vs PIE) ----------------

/// The step and settle timing of a response run of `total_s` seconds: the
/// link drops to a quarter of its rate at T/3 and recovers at 2T/3; a run
/// has "re-converged" once the queue delay stays within 2x the 20 ms target
/// for the hold time.
struct ResponseWindow {
  double total_s = 0;
  double down_s = 0;
  double up_s = 0;
  double hold_s = 0;
  double band_ms = 0;
};

inline ResponseWindow response_window(double total_s) {
  ResponseWindow w;
  w.total_s = total_s;
  w.down_s = total_s / 3.0;
  w.up_s = 2.0 * total_s / 3.0;
  w.hold_s = total_s >= 30.0 ? 2.0 : 0.5;
  w.band_ms = 2.0 * 20.0;
  return w;
}

/// Four Cubic flows through one AQM; the capacity step is a FaultSchedule
/// (two kRateStep events) replayed by the FaultInjector, so the run also
/// exercises the fault-injection path end to end.
inline scenario::DumbbellConfig response_config(scenario::AqmType aqm,
                                                double link_mbps,
                                                double rtt_ms,
                                                const ResponseWindow& w,
                                                double stats_start_s,
                                                std::uint64_t seed) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.aqm.type = aqm;
  cfg.aqm.ecn_drop_threshold = 1.0;
  cfg.duration = sim::from_seconds(w.total_s);
  cfg.stats_start = sim::from_seconds(stats_start_s);
  cfg.seed = seed;
  scenario::TcpFlowSpec cubic;
  cubic.cc = tcp::CcType::kCubic;
  cubic.count = 4;
  cubic.base_rtt = sim::from_millis(rtt_ms);
  cfg.tcp_flows.push_back(cubic);
  cfg.faults.rate_step(sim::from_seconds(w.down_s), cfg.link_rate_bps / 4.0)
      .rate_step(sim::from_seconds(w.up_s), cfg.link_rate_bps);
  return cfg;
}

struct ResponseSummary {
  double settle_drop_s = -1;
  double settle_rise_s = -1;
  double peak_qdelay_ms = 0;  ///< max sampled queue delay after the drop
};

inline ResponseSummary response_summary(const ResponseWindow& w,
                                        const scenario::RunResult& result) {
  ResponseSummary s;
  const stats::TimeSeries& q = result.qdelay_ms_series;
  s.settle_drop_s =
      stats::settle_after_s(q, w.down_s, w.up_s, w.band_ms, w.hold_s);
  s.settle_rise_s =
      stats::settle_after_s(q, w.up_s, w.total_s, w.band_ms, w.hold_s);
  for (const auto& p : q.points()) {
    if (sim::to_seconds(p.t) >= w.down_s && p.value > s.peak_qdelay_ms) {
      s.peak_qdelay_ms = p.value;
    }
  }
  return s;
}

/// The section 4.4 headline: PI2's linearized law keeps its gain right at
/// high p, so it re-converges after the drop at least as fast as PIE.
struct ResponseHeadline {
  double pi2_drop_s = -1;
  double pie_drop_s = -1;

  void record(scenario::AqmType aqm, double settle_drop_s) {
    (aqm == scenario::AqmType::kPie ? pie_drop_s : pi2_drop_s) = settle_drop_s;
  }

  /// Prints nothing unless both AQMs settled; the driver skips it when any
  /// point was unhealthy.
  void print() const {
    if (pi2_drop_s < 0 || pie_drop_s < 0) return;
    std::printf("\n# PI2 settles %.2f s after the 4x drop vs PIE %.2f s (%s)\n",
                pi2_drop_s, pie_drop_s,
                pi2_drop_s <= pie_drop_s ? "PI2 at least as fast"
                                         : "PIE faster here");
  }
};

inline TemplateDescriptor response_template() {
  const auto headline = std::make_shared<ResponseHeadline>();
  return {
      .print_header = [](const campaign::Expansion& x) {
        const ResponseWindow w = response_window(x.duration_s);
        std::printf("# step down at %.1f s, step up at %.1f s; settle = "
                    "qdelay held <= %.0f ms for %.1f s\n",
                    w.down_s, w.up_s, w.band_ms, w.hold_s);
        std::printf("%-14s %-16s %-16s %-12s %-12s %-8s\n", "aqm",
                    "settle_drop[s]", "settle_rise[s]", "peak[ms]",
                    "invariants", "guards");
      },
      .run = [](const PointView& v, telemetry::Recorder* recorder) {
        return run_config(
            response_config(v.aqm(), v.x.link_mbps, v.x.rtt_ms,
                            response_window(v.x.duration_s),
                            v.x.stats_start_s, v.p.seed),
            recorder);
      },
      .print_row = [](const PointView& v, const scenario::RunResult& r) {
        const ResponseSummary s =
            response_summary(response_window(v.x.duration_s), r);
        std::printf("%-14s %-16.2f %-16.2f %-12.1f %-12llu %-8llu\n",
                    aqm_label(v.aqm()), s.settle_drop_s, s.settle_rise_s,
                    s.peak_qdelay_ms,
                    static_cast<unsigned long long>(r.violations.size()),
                    static_cast<unsigned long long>(r.guard_events));
      },
      .fields = [](const PointView& v, const scenario::RunResult& r,
                   RecordFields& f) {
        const ResponseSummary s =
            response_summary(response_window(v.x.duration_s), r);
        f.add("aqm", aqm_label(v.aqm()))
            .add("seed", v.p.seed)
            .add("settle_drop_s", s.settle_drop_s)
            .add("settle_rise_s", s.settle_rise_s)
            .add("peak_qdelay_ms", s.peak_qdelay_ms)
            .add("mean_qdelay_ms", r.mean_qdelay_ms)
            .add("utilization", r.utilization)
            .add("events_executed", r.events_executed)
            .add("clamped_events", r.clamped_events)
            .add("invariant_violations", r.violations.size())
            .add("guard_events", r.guard_events);
      },
      // The injector must apply both rate steps, and the run must see no
      // invariant violation and no clamped event. Whether and when a run
      // settles is the experiment's finding (short smoke windows may never
      // settle), not a health question.
      .healthy = [](const PointView& v, const scenario::RunResult& r) {
        if (r.fault_counters.rate_changes != 2) {
          std::printf("!! %s: expected 2 rate changes, injector applied "
                      "%llu\n",
                      aqm_label(v.aqm()),
                      static_cast<unsigned long long>(
                          r.fault_counters.rate_changes));
          return false;
        }
        return r.violations.empty() && r.clamped_events == 0;
      },
      .record = [headline](const PointView& v, const scenario::RunResult& r) {
        headline->record(
            v.aqm(),
            response_summary(response_window(v.x.duration_s), r)
                .settle_drop_s);
      },
      // The settle headline only when every point was healthy.
      .footer = [headline](bool healthy) {
        if (healthy) headline->print();
      },
  };
}

/// The descriptor of `id`, built once per campaign.
inline TemplateDescriptor template_descriptor(campaign::TemplateId id,
                                              const TemplateInputs& in) {
  using campaign::TemplateId;
  switch (id) {
    case TemplateId::kDumbbellSweep: return dumbbell_template(in);
    case TemplateId::kOverload: return overload_template();
    case TemplateId::kParkingLot: return parking_lot_template();
    case TemplateId::kRttMix: return rtt_mix_template();
    case TemplateId::kResilience: return resilience_template(in);
    case TemplateId::kResponse: return response_template();
  }
  return dumbbell_template(in);
}

}  // namespace pi2::bench
