#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "check/golden.hpp"
#include "core/dualpi2.hpp"
#include "durable/journal.hpp"
#include "faults/fault_schedule.hpp"
#include "durable/result_codec.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "topology/topology.hpp"

namespace pi2::check {

using pi2::telemetry::MetricsRegistry;

namespace {

void fail(std::vector<OracleFailure>& failures, std::string oracle,
          std::string detail) {
  failures.push_back({std::move(oracle), std::move(detail)});
}

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

/// Looks up a (frozen) gauge; NaN when the registry never registered it.
double gauge_value(const MetricsRegistry& registry, const char* name) {
  const auto it = registry.gauges().find(name);
  return it == registry.gauges().end() ? std::nan("")
                                       : it->second.value();
}

/// Coupling factor of the p = (p'/k)^2 law, or 0 for disciplines without it.
double coupling_k_of(const scenario::AqmConfig& aqm) {
  switch (aqm.type) {
    case scenario::AqmType::kPi2:
      return 1.0;  // single-signal: p = (p')^2
    case scenario::AqmType::kCoupledPi2:
    case scenario::AqmType::kCurvyRed:
      return aqm.coupling_k;
    default:
      return 0.0;
  }
}

/// QueueView whose delay the coupling-law driver dials directly.
class DrivenQueueView final : public net::QueueView {
 public:
  [[nodiscard]] std::int64_t backlog_bytes() const override { return bytes_; }
  [[nodiscard]] std::int64_t backlog_packets() const override {
    return bytes_ / net::kDefaultMss;
  }
  [[nodiscard]] double link_rate_bps() const override { return rate_bps_; }
  [[nodiscard]] pi2::sim::Duration queue_delay() const override {
    return pi2::sim::from_seconds(static_cast<double>(bytes_) * 8.0 / rate_bps_);
  }
  /// DualPI2's PI controller samples the Classic band's head sojourn; feed
  /// it the driven delay so the two-queue law can be exercised too.
  [[nodiscard]] pi2::sim::Duration band_head_sojourn(
      std::size_t band) const override {
    return band == core::DualPi2Qdisc::kCBand ? queue_delay()
                                              : pi2::sim::Duration{};
  }
  void set_delay_seconds(double s) {
    bytes_ = static_cast<std::int64_t>(s * rate_bps_ / 8.0);
  }

 private:
  std::int64_t bytes_ = 0;
  double rate_bps_ = 10e6;
};

}  // namespace

std::uint64_t result_digest(const scenario::RunResult& result) {
  durable::Fnv1a h;
  h.mix_u64(result.events_executed);
  h.mix_u64(result.clamped_events);
  h.mix_u64(result.invariant_checks);
  h.mix_u64(result.guard_events);
  h.mix_u64(static_cast<std::uint64_t>(result.violations.size()));
  const auto mix_counters = [&h](const net::BottleneckLink::Counters& c) {
    h.mix_u64(static_cast<std::uint64_t>(c.enqueued));
    h.mix_u64(static_cast<std::uint64_t>(c.forwarded));
    h.mix_u64(static_cast<std::uint64_t>(c.aqm_dropped));
    h.mix_u64(static_cast<std::uint64_t>(c.tail_dropped));
    h.mix_u64(static_cast<std::uint64_t>(c.marked));
    h.mix_u64(static_cast<std::uint64_t>(c.fault_dropped));
    h.mix_u64(static_cast<std::uint64_t>(c.dequeue_dropped));
  };
  mix_counters(result.counters);
  mix_counters(result.window_counters);
  const auto mix_band = [&h](const net::BottleneckLink::BandCounters& b) {
    h.mix_u64(static_cast<std::uint64_t>(b.enqueued));
    h.mix_u64(static_cast<std::uint64_t>(b.forwarded));
    h.mix_u64(static_cast<std::uint64_t>(b.marked));
    h.mix_u64(static_cast<std::uint64_t>(b.aqm_dropped));
    h.mix_u64(static_cast<std::uint64_t>(b.tail_dropped));
    h.mix_u64(static_cast<std::uint64_t>(b.dequeue_dropped));
  };
  mix_band(result.band_l);
  mix_band(result.band_c);
  mix_band(result.window_band_l);
  mix_band(result.window_band_c);
  h.mix_u64(static_cast<std::uint64_t>(result.fault_counters.dropped));
  h.mix_u64(static_cast<std::uint64_t>(result.fault_counters.bleached));
  h.mix_u64(static_cast<std::uint64_t>(result.fault_counters.reordered));
  h.mix_u64(static_cast<std::uint64_t>(result.fault_counters.rate_changes));
  h.mix_u64(static_cast<std::uint64_t>(result.fault_counters.rtt_changes));
  h.mix_double(result.mean_qdelay_ms);
  h.mix_double(result.p99_qdelay_ms);
  h.mix_double(result.utilization);
  h.mix_double(result.fluid.arrival_bytes);
  h.mix_double(result.fluid.served_bytes);
  h.mix_double(result.fluid.dropped_bytes);
  h.mix_double(result.fluid.final_backlog_bytes);
  h.mix_u64(result.fluid.ticks);
  h.mix_u64(static_cast<std::uint64_t>(result.flows.size()));
  for (const auto& flow : result.flows) {
    h.mix_u64(static_cast<std::uint64_t>(flow.cc));
    h.mix_u64(flow.is_udp ? 1 : 0);
    h.mix_u64(flow.is_fluid ? 1 : 0);
    h.mix_double(flow.count);
    h.mix_double(flow.goodput_mbps);
    h.mix_u64(static_cast<std::uint64_t>(flow.retransmits));
    h.mix_u64(static_cast<std::uint64_t>(flow.timeouts));
  }
  h.mix_u64(static_cast<std::uint64_t>(result.links.size()));
  for (const auto& link : result.links) {
    h.mix_string(link.name);
    h.mix_double(link.mean_qdelay_ms);
    h.mix_double(link.p99_qdelay_ms);
    h.mix_double(link.utilization);
    mix_counters(link.counters);
    mix_counters(link.window_counters);
    h.mix_u64(static_cast<std::uint64_t>(link.fault_counters.dropped));
    h.mix_u64(static_cast<std::uint64_t>(link.fault_counters.bleached));
    h.mix_u64(static_cast<std::uint64_t>(link.fault_counters.reordered));
    h.mix_u64(static_cast<std::uint64_t>(link.fault_counters.rate_changes));
    h.mix_u64(static_cast<std::uint64_t>(link.fault_counters.rtt_changes));
    h.mix_u64(link.guard_events);
    h.mix_u64(static_cast<std::uint64_t>(link.final_backlog_packets));
  }
  const stats::ResilienceReport& rr = result.resilience;
  h.mix_u64(rr.analyzed ? 1 : 0);
  h.mix_u64(rr.windows);
  h.mix_u64(rr.recovered_windows);
  h.mix_double(rr.worst_recovery_s);
  h.mix_double(rr.mean_recovery_s);
  h.mix_double(rr.peak_qdelay_ms);
  h.mix_double(rr.pre_fault_mean_qdelay_ms);
  h.mix_double(rr.post_fault_mean_qdelay_ms);
  h.mix_double(rr.post_fault_delta_ms);
  h.mix_u64(rr.violations_in_window);
  h.mix_u64(rr.violations_outside);
  h.mix_u64(static_cast<std::uint64_t>(rr.recovery_s.size()));
  for (const double r : rr.recovery_s) h.mix_double(r);
  return h.state;
}

std::uint64_t topology_result_digest(const topology::TopologyResult& result) {
  durable::Fnv1a h{
      result_digest(topology::to_run_result(topology::TopologyResult{result}))};
  // The flattening keeps every per-link slice but drops the flow->route
  // assignment; fold it back in so re-routed flows change the fingerprint.
  for (const std::int32_t route : result.flow_route) {
    h.mix_u64(static_cast<std::uint64_t>(route));
  }
  return h.state;
}

void check_conservation(const scenario::DumbbellConfig& config,
                        const scenario::RunResult& result,
                        const MetricsRegistry& registry,
                        std::vector<OracleFailure>& failures) {
  const auto& c = result.counters;

  // Bus vs incremental counters: the departure probe fired exactly once per
  // forwarded packet.
  const auto hist = registry.histograms().find("link.sojourn_ms");
  if (hist == registry.histograms().end()) {
    fail(failures, "conservation", "histogram link.sojourn_ms missing");
  } else if (hist->second.count() != static_cast<std::uint64_t>(c.forwarded)) {
    fail(failures, "conservation",
         fmt("departure-probe count %llu != forwarded %lld",
             static_cast<unsigned long long>(hist->second.count()),
             static_cast<long long>(c.forwarded)));
  }

  // Packet conservation: every accepted packet is forwarded, dropped at
  // dequeue, still queued, or (at most one) mid-transmission at cutoff.
  const double backlog = gauge_value(registry, "queue.backlog_packets");
  if (std::isnan(backlog)) {
    fail(failures, "conservation", "gauge queue.backlog_packets missing");
  } else {
    const std::int64_t slack = c.enqueued - c.forwarded - c.dequeue_dropped -
                               static_cast<std::int64_t>(backlog);
    if (slack < 0 || slack > 1) {
      fail(failures, "conservation",
           fmt("enqueued %lld != forwarded %lld + dequeue_dropped %lld + "
               "backlog %.0f (+ 0/1 transmitting); slack %lld",
               static_cast<long long>(c.enqueued),
               static_cast<long long>(c.forwarded),
               static_cast<long long>(c.dequeue_dropped), backlog,
               static_cast<long long>(slack)));
    }
  }

  // The frozen counter gauges and the RunResult were captured from the same
  // object at the same instant — any drift means a probe lied.
  const struct {
    const char* name;
    std::int64_t want;
  } mirrored[] = {
      {"link.enqueued", c.enqueued},         {"link.forwarded", c.forwarded},
      {"link.aqm_dropped", c.aqm_dropped},   {"link.tail_dropped", c.tail_dropped},
      {"link.marked", c.marked},             {"link.fault_dropped", c.fault_dropped},
  };
  for (const auto& m : mirrored) {
    const double got = gauge_value(registry, m.name);
    if (std::isnan(got) || static_cast<std::int64_t>(got) != m.want) {
      fail(failures, "conservation",
           fmt("gauge %s = %.0f != RunResult counter %lld", m.name, got,
               static_cast<long long>(m.want)));
    }
  }

  // Byte accounting: transmitted bytes bounded by the packet-size envelope
  // of the configured flows (ACKs return over the reverse path and never
  // cross the bottleneck).
  const auto tx = registry.counters().find("link.tx_bytes");
  if (tx == registry.counters().end()) {
    fail(failures, "conservation", "counter link.tx_bytes missing");
  } else {
    std::int64_t min_size = 0;
    std::int64_t max_size = 0;
    if (!config.tcp_flows.empty()) {
      min_size = max_size = net::kDefaultMss;
    }
    for (const auto& udp : config.udp_flows) {
      const std::int64_t size = udp.packet_bytes;
      min_size = min_size == 0 ? size : std::min(min_size, size);
      max_size = std::max(max_size, size);
    }
    const auto bytes = static_cast<std::int64_t>(tx->second.value());
    if (c.forwarded == 0) {
      if (bytes != 0) {
        fail(failures, "conservation",
             fmt("tx_bytes %lld with zero forwarded packets",
                 static_cast<long long>(bytes)));
      }
    } else if (bytes < c.forwarded * min_size || bytes > c.forwarded * max_size) {
      fail(failures, "conservation",
           fmt("tx_bytes %lld outside [%lld, %lld] for %lld forwarded packets",
               static_cast<long long>(bytes),
               static_cast<long long>(c.forwarded * min_size),
               static_cast<long long>(c.forwarded * max_size),
               static_cast<long long>(c.forwarded)));
    }
  }

  // The stats window is a sub-interval of the run.
  const struct {
    const char* name;
    std::int64_t window, whole;
  } windows[] = {
      {"enqueued", result.window_counters.enqueued, c.enqueued},
      {"forwarded", result.window_counters.forwarded, c.forwarded},
      {"aqm_dropped", result.window_counters.aqm_dropped, c.aqm_dropped},
      {"tail_dropped", result.window_counters.tail_dropped, c.tail_dropped},
      {"marked", result.window_counters.marked, c.marked},
      {"fault_dropped", result.window_counters.fault_dropped, c.fault_dropped},
  };
  for (const auto& w : windows) {
    if (w.window < 0 || w.window > w.whole) {
      fail(failures, "conservation",
           fmt("window %s %lld exceeds whole-run %lld", w.name,
               static_cast<long long>(w.window), static_cast<long long>(w.whole)));
    }
  }
}

void check_invariants_clean(const scenario::DumbbellConfig& config,
                            const scenario::RunResult& result,
                            std::vector<OracleFailure>& failures) {
  for (const auto& violation : result.violations) {
    fail(failures, "invariants",
         fmt("monitor violation [%s] at t=%.3fs: %s", violation.check.c_str(),
             pi2::sim::to_seconds(violation.at), violation.detail.c_str()));
  }
  if (result.clamped_events != 0) {
    fail(failures, "invariants",
         fmt("%llu events scheduled in the past and clamped",
             static_cast<unsigned long long>(result.clamped_events)));
  }
  if (result.guard_events != 0) {
    fail(failures, "invariants",
         fmt("AQM rejected %llu non-finite controller updates",
             static_cast<unsigned long long>(result.guard_events)));
  }
  if (config.check_invariants && result.invariant_checks == 0) {
    fail(failures, "invariants", "invariant monitor never ran a check");
  }
}

void check_fluid(const scenario::DumbbellConfig& config,
                 const scenario::RunResult& result,
                 std::vector<OracleFailure>& failures) {
  const scenario::FluidStats& f = result.fluid;
  if (config.fluid_flows.empty()) {
    if (f.ticks != 0 || f.arrival_bytes != 0.0 || f.served_bytes != 0.0 ||
        f.dropped_bytes != 0.0 || f.final_backlog_bytes != 0.0) {
      fail(failures, "fluid",
           fmt("fluid stats nonzero without fluid specs "
               "(arrival=%g served=%g dropped=%g backlog=%g ticks=%llu)",
               f.arrival_bytes, f.served_bytes, f.dropped_bytes,
               f.final_backlog_bytes, static_cast<unsigned long long>(f.ticks)));
    }
    return;
  }
  if (f.ticks == 0) {
    fail(failures, "fluid", "fluid specs configured but the ensemble never ticked");
  }
  if (!std::isfinite(f.arrival_bytes) || f.arrival_bytes < 0.0 ||
      !std::isfinite(f.served_bytes) || f.served_bytes < 0.0 ||
      !std::isfinite(f.dropped_bytes) || f.dropped_bytes < 0.0 ||
      !std::isfinite(f.final_backlog_bytes) || f.final_backlog_bytes < 0.0) {
    fail(failures, "fluid",
         fmt("fluid accounting not finite/non-negative "
             "(arrival=%g served=%g dropped=%g backlog=%g)",
             f.arrival_bytes, f.served_bytes, f.dropped_bytes,
             f.final_backlog_bytes));
    return;
  }
  // Conservation: every offered byte was carried, tail-dropped at the shared
  // buffer, or is still queued.
  const double residual = f.arrival_bytes - f.served_bytes - f.dropped_bytes -
                          f.final_backlog_bytes;
  const double scale = std::max(1.0, f.arrival_bytes);
  if (std::abs(residual) / scale > 1e-6) {
    fail(failures, "fluid",
         fmt("fluid bytes not conserved: arrival %g != served %g + dropped %g "
             "+ backlog %g (residual %g)",
             f.arrival_bytes, f.served_bytes, f.dropped_bytes,
             f.final_backlog_bytes, residual));
  }
  // The link cannot have carried more fluid than its fastest configured
  // rate sustained for the whole run. Fault-injected rate steps and flaps
  // retune the bottleneck too, so they widen the bound alongside the
  // scenario's own rate_changes.
  double max_rate_bps = config.link_rate_bps;
  for (const scenario::RateChange& change : config.rate_changes) {
    max_rate_bps = std::max(max_rate_bps, change.rate_bps);
  }
  for (const faults::FaultEvent& event : config.faults.events) {
    if (event.kind == faults::FaultKind::kRateStep ||
        event.kind == faults::FaultKind::kRateFlap) {
      max_rate_bps = std::max({max_rate_bps, event.rate_bps, event.rate2_bps});
    }
  }
  const double cap_bytes =
      max_rate_bps * pi2::sim::to_seconds(config.duration) / 8.0;
  if (f.served_bytes > cap_bytes * (1.0 + 1e-6)) {
    fail(failures, "fluid",
         fmt("fluid served %g bytes exceeds whole-run link capacity %g",
             f.served_bytes, cap_bytes));
  }
}

void check_coupling_law(const scenario::AqmConfig& aqm, std::uint64_t seed,
                        const std::string& where,
                        std::vector<OracleFailure>& failures) {
  // Failure details carry the caller's scope (the link name in topologies);
  // the single-bottleneck path passes "" and keeps the legacy message text.
  const std::string at = where.empty() ? std::string() : where + ": ";

  // DualPI2 publishes a different pair: classic = (p')^2, scalable = the
  // overload-clamped coupled probability min(k * p', 1). Drive it across the
  // same ladder and assert that law instead of the single-queue one.
  if (aqm.type == scenario::AqmType::kDualPi2) {
    const double k = aqm.coupling_k;
    pi2::sim::Simulator sim{seed};
    DrivenQueueView view;
    auto qdisc = aqm.make();
    qdisc->install(sim, view);

    const double target_s = pi2::sim::to_seconds(aqm.target);
    const double ladder[] = {0.0,          target_s * 0.5, target_s,
                             target_s * 2, target_s * 8,   target_s * 32};
    for (const double delay_s : ladder) {
      view.set_delay_seconds(delay_s);
      sim.run_until(sim.now() + aqm.t_update * 5);
      const double pc = qdisc->classic_probability();
      const double ps = qdisc->scalable_probability();
      const double expected =
          pc >= 0.0 ? std::min(k * std::sqrt(pc), 1.0) : std::nan("");
      if (!std::isfinite(pc) || !std::isfinite(ps) || pc < 0.0 ||
          pc > aqm.max_classic_prob + 1e-12 ||
          std::abs(ps - expected) > 1e-12) {
        fail(failures, "coupling-law",
             fmt("%sdualpi2 at qdelay %.4fs: p_CL = %.12g but "
                 "min(k*sqrt(p_C), 1) = %.12g (p_C = %.12g, k = %.3g, "
                 "cap = %.3g)",
                 at.c_str(), delay_s, ps, expected, pc, k,
                 aqm.max_classic_prob));
        return;
      }
    }
    return;
  }

  const double k = coupling_k_of(aqm);
  if (k <= 0.0) return;

  // Drive the discipline alone across a deterministic ladder of queue
  // states; the output law must hold at every operating point, including
  // saturation.
  pi2::sim::Simulator sim{seed};
  DrivenQueueView view;
  auto qdisc = aqm.make();
  qdisc->install(sim, view);

  const double target_s = pi2::sim::to_seconds(aqm.target);
  const double ladder[] = {0.0,          target_s * 0.5, target_s,
                           target_s * 2, target_s * 8,   target_s * 32};
  for (const double delay_s : ladder) {
    view.set_delay_seconds(delay_s);
    // Let timer-driven controllers integrate and EWMA-driven ones observe.
    sim.run_until(sim.now() + aqm.t_update * 5);
    for (int i = 0; i < 32; ++i) {
      (void)qdisc->enqueue(net::Packet{});
    }
    const double p_prime = qdisc->scalable_probability();
    const double root = p_prime / k;
    const double expected = root * root;
    const double got = qdisc->classic_probability();
    if (std::abs(got - expected) > 1e-12 ||
        !std::isfinite(got) || !std::isfinite(p_prime)) {
      fail(failures, "coupling-law",
           fmt("%s%s at qdelay %.4fs: p = %.12g but (p'/k)^2 = %.12g "
               "(p' = %.12g, k = %.3g)",
               at.c_str(),
               std::string(scenario::to_string(aqm.type)).c_str(),
               delay_s, got, expected, p_prime, k));
      return;  // one point is enough; later points would repeat the message
    }
  }
}

void check_coupling_law(const scenario::DumbbellConfig& config,
                        std::vector<OracleFailure>& failures) {
  check_coupling_law(config.aqm, config.seed, "", failures);
}

void check_coupling_snapshot(const scenario::DumbbellConfig& config,
                             const MetricsRegistry& registry,
                             std::vector<OracleFailure>& failures) {
  if (config.aqm.type == scenario::AqmType::kDualPi2) {
    const double p = gauge_value(registry, "aqm.p");
    const double p_prime = gauge_value(registry, "aqm.p_prime");
    if (std::isnan(p) || std::isnan(p_prime)) {
      fail(failures, "coupling-law", "aqm.p / aqm.p_prime gauges missing");
      return;
    }
    const double expected =
        std::min(config.aqm.coupling_k * std::sqrt(std::max(p, 0.0)), 1.0);
    if (std::abs(p_prime - expected) > 1e-12) {
      fail(failures, "coupling-law",
           fmt("final snapshot: aqm.p_prime = %.12g but min(k*sqrt(p), 1) = "
               "%.12g (p = %.12g, k = %.3g)",
               p_prime, expected, p, config.aqm.coupling_k));
    }
    return;
  }
  const double k = coupling_k_of(config.aqm);
  if (k <= 0.0) return;
  const double p = gauge_value(registry, "aqm.p");
  const double p_prime = gauge_value(registry, "aqm.p_prime");
  if (std::isnan(p) || std::isnan(p_prime)) {
    fail(failures, "coupling-law", "aqm.p / aqm.p_prime gauges missing");
    return;
  }
  const double root = p_prime / k;
  const double expected = root * root;
  if (std::abs(p - expected) > 1e-12) {
    fail(failures, "coupling-law",
         fmt("final snapshot: aqm.p = %.12g but (p'/k)^2 = %.12g "
             "(p' = %.12g, k = %.3g)",
             p, expected, p_prime, k));
  }
}

void check_dualq(const scenario::DumbbellConfig& config,
                 const scenario::RunResult& result,
                 std::vector<OracleFailure>& failures) {
  using BandCounters = net::BottleneckLink::BandCounters;
  struct Field {
    const char* name;
    std::int64_t BandCounters::*band;
  };
  static constexpr Field kFields[] = {
      {"enqueued", &BandCounters::enqueued},
      {"forwarded", &BandCounters::forwarded},
      {"marked", &BandCounters::marked},
      {"aqm_dropped", &BandCounters::aqm_dropped},
      {"tail_dropped", &BandCounters::tail_dropped},
      {"dequeue_dropped", &BandCounters::dequeue_dropped},
  };

  if (config.aqm.type != scenario::AqmType::kDualPi2) {
    // Single-queue runs must not invent per-band traffic.
    for (const auto* b : {&result.band_l, &result.band_c,
                          &result.window_band_l, &result.window_band_c}) {
      for (const Field& f : kFields) {
        if (b->*f.band != 0) {
          fail(failures, "dualq",
               fmt("single-queue run reports band %s = %lld", f.name,
                   static_cast<long long>(b->*f.band)));
          return;
        }
      }
    }
    return;
  }

  // L + C slices must reproduce the aggregate counters exactly — every
  // packet the link counted went through exactly one band.
  const struct {
    const char* scope;
    const BandCounters* l;
    const BandCounters* c;
    const net::BottleneckLink::Counters* whole;
  } scopes[] = {
      {"whole-run", &result.band_l, &result.band_c, &result.counters},
      {"window", &result.window_band_l, &result.window_band_c,
       &result.window_counters},
  };
  for (const auto& scope : scopes) {
    const struct {
      const char* name;
      std::int64_t sum;
      std::int64_t want;
    } checks[] = {
        {"enqueued", scope.l->enqueued + scope.c->enqueued,
         scope.whole->enqueued},
        {"forwarded", scope.l->forwarded + scope.c->forwarded,
         scope.whole->forwarded},
        {"marked", scope.l->marked + scope.c->marked, scope.whole->marked},
        {"aqm_dropped", scope.l->aqm_dropped + scope.c->aqm_dropped,
         scope.whole->aqm_dropped},
        {"tail_dropped", scope.l->tail_dropped + scope.c->tail_dropped,
         scope.whole->tail_dropped},
        {"dequeue_dropped", scope.l->dequeue_dropped + scope.c->dequeue_dropped,
         scope.whole->dequeue_dropped},
    };
    for (const auto& check : checks) {
      if (check.sum != check.want) {
        fail(failures, "dualq",
             fmt("%s L+C %s sums to %lld but aggregate counter says %lld",
                 scope.scope, check.name, static_cast<long long>(check.sum),
                 static_cast<long long>(check.want)));
      }
    }
  }

  // The stats window is a sub-interval of the run, per band too.
  const struct {
    const char* name;
    const BandCounters* window;
    const BandCounters* whole;
  } bands[] = {
      {"L", &result.window_band_l, &result.band_l},
      {"C", &result.window_band_c, &result.band_c},
  };
  for (const auto& band : bands) {
    for (const Field& f : kFields) {
      const std::int64_t window = band.window->*f.band;
      const std::int64_t whole = band.whole->*f.band;
      if (window < 0 || window > whole) {
        fail(failures, "dualq",
             fmt("band %s window %s %lld exceeds whole-run %lld", band.name,
                 f.name, static_cast<long long>(window),
                 static_cast<long long>(whole)));
      }
    }
  }
}

void check_telemetry_roundtrip(const std::string& jsonl_path,
                               const MetricsRegistry& registry,
                               std::vector<OracleFailure>& failures) {
  std::ifstream in{jsonl_path};
  if (!in) {
    fail(failures, "telemetry", "cannot open " + jsonl_path);
    return;
  }
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  if (last.empty()) {
    fail(failures, "telemetry", jsonl_path + " has no samples");
    return;
  }

  JsonRecord row;
  std::string error;
  if (!parse_flat_object(last, &row, &error)) {
    fail(failures, "telemetry", "final JSONL row unparsable: " + error);
    return;
  }
  if (row.numbers.count("t_s") == 0) {
    fail(failures, "telemetry", "final JSONL row lacks t_s");
  }

  // Recorder::finish() takes its last sample at the run end and then
  // freezes, so the final row must equal the frozen snapshot — up to the
  // exporter's 9-significant-digit float formatting.
  const auto snapshot = registry.snapshot();
  for (const auto& [name, value] : snapshot) {
    const auto it = row.numbers.find(name);
    if (it == row.numbers.end()) {
      fail(failures, "telemetry", "final JSONL row missing metric " + name);
      continue;
    }
    const double got = it->second;
    const double diff = std::abs(got - value);
    const double scale = std::max(std::abs(got), std::abs(value));
    if (diff > 1e-9 && diff > 1e-7 * scale) {
      fail(failures, "telemetry",
           fmt("metric %s: JSONL %.12g != snapshot %.12g", name.c_str(), got,
               value));
    }
  }
  // Everything in the stream must exist in the registry, too.
  if (row.numbers.size() != snapshot.size() + 1) {  // +1 for t_s
    fail(failures, "telemetry",
         fmt("final JSONL row has %zu fields, registry snapshot has %zu",
             row.numbers.size(), snapshot.size()));
  }
}

void check_journal_roundtrip(const scenario::RunResult& result,
                             std::vector<OracleFailure>& failures) {
  durable::JournalRecord record;
  record.kind = "point";
  record.key = result_digest(result);
  record.payload = durable::encode_result(result);
  const std::string line = durable::encode_record(record);

  durable::JournalRecord parsed;
  const durable::Status parse_status = durable::parse_record(line, parsed);
  if (!parse_status.ok()) {
    fail(failures, "journal",
         "record line failed to parse back: " + parse_status.message());
    return;
  }
  if (parsed.kind != record.kind || parsed.key != record.key ||
      parsed.payload != record.payload) {
    fail(failures, "journal", "record round-trip altered kind/key/payload");
    return;
  }
  scenario::RunResult decoded;
  const durable::Status decode_status =
      durable::decode_result(parsed.payload, decoded);
  if (!decode_status.ok()) {
    fail(failures, "journal",
         "payload failed to decode: " + decode_status.message());
    return;
  }
  const std::uint64_t got = result_digest(decoded);
  if (got != record.key) {
    fail(failures, "journal",
         fmt("digest %016llx != %016llx after journal round-trip",
             static_cast<unsigned long long>(got),
             static_cast<unsigned long long>(record.key)));
  }
}

CaseOutcome run_case_oracles(const scenario::DumbbellConfig& config,
                             std::uint64_t index, const OracleOptions& options) {
  CaseOutcome outcome;
  outcome.index = index;
  outcome.seed = config.seed;

  scenario::DumbbellConfig cfg = config;
  std::unique_ptr<telemetry::Recorder> recorder;
  telemetry::MetricsRegistry bare_registry;
  if (!options.scratch_dir.empty()) {
    telemetry::RecorderConfig rc;
    rc.dir = options.scratch_dir;
    rc.run_id = options.run_id.empty() ? "case_" + std::to_string(index)
                                       : options.run_id;
    rc.interval = cfg.sample_interval;
    recorder = std::make_unique<telemetry::Recorder>(rc);
    cfg.recorder = recorder.get();
  } else {
    cfg.registry = &bare_registry;
  }

  const scenario::RunResult result = scenario::run_dumbbell(cfg);
  outcome.digest = result_digest(result);

  const telemetry::MetricsRegistry& registry =
      recorder ? recorder->registry() : bare_registry;
  check_conservation(cfg, result, registry, outcome.failures);
  check_invariants_clean(cfg, result, outcome.failures);
  check_fluid(cfg, result, outcome.failures);
  check_coupling_law(cfg, outcome.failures);
  check_coupling_snapshot(cfg, registry, outcome.failures);
  check_dualq(cfg, result, outcome.failures);
  check_journal_roundtrip(result, outcome.failures);
  if (recorder) {
    if (!recorder->ok()) {
      fail(outcome.failures, "telemetry", "recorder reported an I/O failure");
    } else {
      check_telemetry_roundtrip(recorder->jsonl_path(), registry,
                                outcome.failures);
    }
  }

  if (!options.inject_failure.empty()) {
    fail(outcome.failures, options.inject_failure,
         "synthetic failure injected for self-test");
  }
  return outcome;
}

void check_topology_links(const topology::TopologyConfig& config,
                          const topology::TopologyResult& result,
                          std::vector<OracleFailure>& failures) {
  using BandCounters = net::BottleneckLink::BandCounters;
  if (result.links.size() != config.links.size()) {
    fail(failures, "conservation",
         fmt("result has %zu link slices for %zu configured links",
             result.links.size(), config.links.size()));
    return;
  }

  // Which links carry fluid routes (a fluid path crosses exactly one link).
  std::vector<bool> carries_fluid(config.links.size(), false);
  for (const auto& route : config.fluid_flows) {
    if (route.path.size() == 2) {
      const int li = config.link_between(route.path[0], route.path[1]);
      if (li >= 0) carries_fluid[static_cast<std::size_t>(li)] = true;
    }
  }

  for (std::size_t li = 0; li < result.links.size(); ++li) {
    const topology::LinkResult& link = result.links[li];
    const auto& c = link.counters;
    const char* name = link.name.c_str();

    // Exact per-link conservation: the slice records the end-of-run queue
    // occupancy, so unlike the gauge-based dumbbell oracle there is no
    // one-packet slack — the books must balance to zero.
    const std::int64_t residual = c.enqueued - c.forwarded -
                                  c.dequeue_dropped - link.final_backlog_packets -
                                  (link.final_transmitting ? 1 : 0);
    if (residual != 0) {
      fail(failures, "conservation",
           fmt("link %s: enqueued %lld != forwarded %lld + dequeue_dropped "
               "%lld + backlog %lld + transmitting %d (residual %lld)",
               name, static_cast<long long>(c.enqueued),
               static_cast<long long>(c.forwarded),
               static_cast<long long>(c.dequeue_dropped),
               static_cast<long long>(link.final_backlog_packets),
               link.final_transmitting ? 1 : 0,
               static_cast<long long>(residual)));
    }

    // The stats window is a sub-interval of the run, per link.
    const struct {
      const char* field;
      std::int64_t window, whole;
    } windows[] = {
        {"enqueued", link.window_counters.enqueued, c.enqueued},
        {"forwarded", link.window_counters.forwarded, c.forwarded},
        {"aqm_dropped", link.window_counters.aqm_dropped, c.aqm_dropped},
        {"tail_dropped", link.window_counters.tail_dropped, c.tail_dropped},
        {"marked", link.window_counters.marked, c.marked},
        {"fault_dropped", link.window_counters.fault_dropped, c.fault_dropped},
        {"dequeue_dropped", link.window_counters.dequeue_dropped,
         c.dequeue_dropped},
    };
    for (const auto& w : windows) {
      if (w.window < 0 || w.window > w.whole) {
        fail(failures, "conservation",
             fmt("link %s: window %s %lld exceeds whole-run %lld", name,
                 w.field, static_cast<long long>(w.window),
                 static_cast<long long>(w.whole)));
      }
    }

    // Per-band slicing, per link: DualPI2 links split every counter into
    // L + C exactly; single-queue links must keep the bands all zero.
    struct Field {
      const char* field;
      std::int64_t BandCounters::*band;
    };
    static constexpr Field kFields[] = {
        {"enqueued", &BandCounters::enqueued},
        {"forwarded", &BandCounters::forwarded},
        {"marked", &BandCounters::marked},
        {"aqm_dropped", &BandCounters::aqm_dropped},
        {"tail_dropped", &BandCounters::tail_dropped},
        {"dequeue_dropped", &BandCounters::dequeue_dropped},
    };
    if (config.links[li].aqm.type == scenario::AqmType::kDualPi2) {
      const struct {
        const char* scope;
        const BandCounters* l;
        const BandCounters* c;
        const net::BottleneckLink::Counters* whole;
      } scopes[] = {
          {"whole-run", &link.band_l, &link.band_c, &c},
          {"window", &link.window_band_l, &link.window_band_c,
           &link.window_counters},
      };
      for (const auto& scope : scopes) {
        const struct {
          const char* field;
          std::int64_t sum, want;
        } checks[] = {
            {"enqueued", scope.l->enqueued + scope.c->enqueued,
             scope.whole->enqueued},
            {"forwarded", scope.l->forwarded + scope.c->forwarded,
             scope.whole->forwarded},
            {"marked", scope.l->marked + scope.c->marked, scope.whole->marked},
            {"aqm_dropped", scope.l->aqm_dropped + scope.c->aqm_dropped,
             scope.whole->aqm_dropped},
            {"tail_dropped", scope.l->tail_dropped + scope.c->tail_dropped,
             scope.whole->tail_dropped},
            {"dequeue_dropped",
             scope.l->dequeue_dropped + scope.c->dequeue_dropped,
             scope.whole->dequeue_dropped},
        };
        for (const auto& check : checks) {
          if (check.sum != check.want) {
            fail(failures, "dualq",
                 fmt("link %s: %s L+C %s sums to %lld but aggregate says %lld",
                     name, scope.scope, check.field,
                     static_cast<long long>(check.sum),
                     static_cast<long long>(check.want)));
          }
        }
      }
    } else {
      for (const auto* b : {&link.band_l, &link.band_c, &link.window_band_l,
                            &link.window_band_c}) {
        for (const Field& f : kFields) {
          if (b->*f.band != 0) {
            fail(failures, "dualq",
                 fmt("link %s: single-queue link reports band %s = %lld", name,
                     f.field, static_cast<long long>(b->*f.band)));
          }
        }
      }
    }

    // Per-link fluid accounting mirrors check_fluid, scoped to the links
    // that actually carry fluid routes.
    const scenario::FluidStats& f = link.fluid;
    if (!carries_fluid[li]) {
      if (f.ticks != 0 || f.arrival_bytes != 0.0 || f.served_bytes != 0.0 ||
          f.dropped_bytes != 0.0 || f.final_backlog_bytes != 0.0) {
        fail(failures, "fluid",
             fmt("link %s: fluid stats nonzero without fluid routes "
                 "(arrival=%g served=%g dropped=%g backlog=%g ticks=%llu)",
                 name, f.arrival_bytes, f.served_bytes, f.dropped_bytes,
                 f.final_backlog_bytes,
                 static_cast<unsigned long long>(f.ticks)));
      }
      continue;
    }
    if (f.ticks == 0) {
      fail(failures, "fluid",
           fmt("link %s: fluid routes configured but the ensemble never "
               "ticked", name));
    }
    if (!std::isfinite(f.arrival_bytes) || f.arrival_bytes < 0.0 ||
        !std::isfinite(f.served_bytes) || f.served_bytes < 0.0 ||
        !std::isfinite(f.dropped_bytes) || f.dropped_bytes < 0.0 ||
        !std::isfinite(f.final_backlog_bytes) || f.final_backlog_bytes < 0.0) {
      fail(failures, "fluid",
           fmt("link %s: fluid accounting not finite/non-negative "
               "(arrival=%g served=%g dropped=%g backlog=%g)",
               name, f.arrival_bytes, f.served_bytes, f.dropped_bytes,
               f.final_backlog_bytes));
      continue;
    }
    const double residual_bytes = f.arrival_bytes - f.served_bytes -
                                  f.dropped_bytes - f.final_backlog_bytes;
    const double scale = std::max(1.0, f.arrival_bytes);
    if (std::abs(residual_bytes) / scale > 1e-6) {
      fail(failures, "fluid",
           fmt("link %s: fluid bytes not conserved: arrival %g != served %g "
               "+ dropped %g + backlog %g (residual %g)",
               name, f.arrival_bytes, f.served_bytes, f.dropped_bytes,
               f.final_backlog_bytes, residual_bytes));
    }
    double max_rate_bps = config.links[li].rate_bps;
    for (const scenario::RateChange& change : config.links[li].rate_changes) {
      max_rate_bps = std::max(max_rate_bps, change.rate_bps);
    }
    for (const faults::FaultEvent& event : config.links[li].faults.events) {
      if (event.kind == faults::FaultKind::kRateStep ||
          event.kind == faults::FaultKind::kRateFlap) {
        max_rate_bps = std::max({max_rate_bps, event.rate_bps, event.rate2_bps});
      }
    }
    const double cap_bytes =
        max_rate_bps * pi2::sim::to_seconds(config.duration) / 8.0;
    if (f.served_bytes > cap_bytes * (1.0 + 1e-6)) {
      fail(failures, "fluid",
           fmt("link %s: fluid served %g bytes exceeds whole-run link "
               "capacity %g", name, f.served_bytes, cap_bytes));
    }
  }
}

CaseOutcome run_topology_case_oracles(const topology::TopologyConfig& config,
                                      std::uint64_t index,
                                      const OracleOptions& options) {
  CaseOutcome outcome;
  outcome.index = index;
  outcome.seed = config.seed;

  topology::TopologyConfig cfg = config;
  std::unique_ptr<telemetry::Recorder> recorder;
  telemetry::MetricsRegistry bare_registry;
  if (!options.scratch_dir.empty()) {
    telemetry::RecorderConfig rc;
    rc.dir = options.scratch_dir;
    rc.run_id = options.run_id.empty() ? "case_" + std::to_string(index)
                                       : options.run_id;
    rc.interval = cfg.sample_interval;
    recorder = std::make_unique<telemetry::Recorder>(rc);
    cfg.recorder = recorder.get();
  } else {
    cfg.registry = &bare_registry;
  }

  topology::TopologyResult result = topology::run_topology(cfg);
  outcome.digest = topology_result_digest(result);

  check_topology_links(cfg, result, outcome.failures);

  // Invariants, across every link's monitor.
  for (const auto& violation : result.violations) {
    fail(outcome.failures, "invariants",
         fmt("monitor violation [%s] at t=%.3fs: %s", violation.check.c_str(),
             pi2::sim::to_seconds(violation.at), violation.detail.c_str()));
  }
  if (result.clamped_events != 0) {
    fail(outcome.failures, "invariants",
         fmt("%llu events scheduled in the past and clamped",
             static_cast<unsigned long long>(result.clamped_events)));
  }
  if (cfg.check_invariants && result.invariant_checks == 0) {
    fail(outcome.failures, "invariants", "invariant monitor never ran a check");
  }
  for (const auto& link : result.links) {
    if (link.guard_events != 0) {
      fail(outcome.failures, "invariants",
           fmt("link %s: AQM rejected %llu non-finite controller updates",
               link.name.c_str(),
               static_cast<unsigned long long>(link.guard_events)));
    }
  }

  // The coupled output law must hold for every link's discipline.
  for (const auto& link : cfg.links) {
    check_coupling_law(link.aqm, cfg.seed, "link " + link.display_name(),
                       outcome.failures);
  }

  // Probe-bus cross-check: links[0] owns the legacy unprefixed gauges,
  // later links the "topo.<name>."-prefixed ones; each mirrored gauge must
  // agree with the slice's counter.
  const telemetry::MetricsRegistry& registry =
      recorder ? recorder->registry() : bare_registry;
  for (std::size_t li = 0; li < result.links.size(); ++li) {
    const topology::LinkResult& link = result.links[li];
    const std::string prefix =
        li == 0 ? std::string("link.") : "topo." + link.name + ".";
    const struct {
      const char* field;
      std::int64_t want;
    } mirrored[] = {
        {"forwarded", link.counters.forwarded},
        {"marked", link.counters.marked},
        {"aqm_dropped", link.counters.aqm_dropped},
    };
    for (const auto& m : mirrored) {
      const double got = gauge_value(registry, (prefix + m.field).c_str());
      if (std::isnan(got) || static_cast<std::int64_t>(got) != m.want) {
        fail(outcome.failures, "conservation",
             fmt("gauge %s%s = %.0f != link slice counter %lld",
                 prefix.c_str(), m.field, got,
                 static_cast<long long>(m.want)));
      }
    }
  }

  // Durable round-trip: the flattened result must survive the v4 codec with
  // every per-link slice intact (the digest folds them).
  check_journal_roundtrip(topology::to_run_result(std::move(result)),
                          outcome.failures);
  if (recorder) {
    if (!recorder->ok()) {
      fail(outcome.failures, "telemetry", "recorder reported an I/O failure");
    } else {
      check_telemetry_roundtrip(recorder->jsonl_path(), registry,
                                outcome.failures);
    }
  }

  if (!options.inject_failure.empty()) {
    fail(outcome.failures, options.inject_failure,
         "synthetic failure injected for self-test");
  }
  return outcome;
}

}  // namespace pi2::check
