// The traced run's per-layer metrics, measured from outside the program:
// each module's public functions are called (or a run is repeated with one
// module switched on or off) and timed with steady_clock. Counts that the
// runs themselves report (events, counters, ticks, retries) are derived by
// perfbench/run.py from the pass records instead.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "control/fluid_flow.hpp"
#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "faults/fault_presets.hpp"
#include "net/queue_discipline.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "stats/recovery.hpp"
#include "tcp/congestion_control.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "workload.hpp"

namespace pi2::perfbench {

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Keeps a computed value alive so the optimiser cannot drop the loop.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Queue view pinned at a fixed delay on both bands, so an AQM's per-packet
/// decision is timed at the operating point the workload reached.
class PinnedView final : public net::QueueView {
 public:
  PinnedView(double delay_s, double rate_bps)
      : rate_bps_(rate_bps),
        backlog_(static_cast<std::int64_t>(delay_s * rate_bps / 8.0)) {}
  [[nodiscard]] std::int64_t backlog_bytes() const override { return backlog_; }
  [[nodiscard]] std::int64_t backlog_packets() const override {
    return backlog_ / net::kDefaultMss;
  }
  [[nodiscard]] double link_rate_bps() const override { return rate_bps_; }
  [[nodiscard]] sim::Duration queue_delay() const override {
    return sim::from_seconds(static_cast<double>(backlog_) * 8.0 / rate_bps_);
  }
  [[nodiscard]] std::size_t band_count() const override { return 2; }
  [[nodiscard]] std::int64_t band_backlog_packets(std::size_t) const override {
    return std::max<std::int64_t>(1, backlog_packets() / 2);
  }
  [[nodiscard]] sim::Duration band_head_sojourn(std::size_t) const override {
    return queue_delay();
  }

 private:
  double rate_bps_;
  std::int64_t backlog_;
};

/// Scheduler schedule + cancel + fire, replayed at the live heap size the
/// workload's sim.sched_heap gauge reported. Returns ns per (two schedules,
/// one cancel, one fire), which keeps the live size constant.
double sched_op_ns(std::size_t heap) {
  sim::Scheduler scheduler;
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t fired = 0;
  sim::Time now{0};
  const auto horizon = [&] {
    return now + sim::Duration{static_cast<std::int64_t>(next() % 20'000'000)};
  };
  for (std::size_t i = 0; i < heap; ++i) {
    scheduler.schedule_at(horizon(), [&fired] { ++fired; });
  }
  constexpr int kOps = 400'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    scheduler.schedule_at(horizon(), [&fired] { ++fired; });
    sim::EventHandle victim =
        scheduler.schedule_at(horizon(), [&fired] { ++fired; });
    victim.cancel();
    now = scheduler.run_next();
  }
  const double ns = seconds_since(t0) * 1e9 / kOps;
  keep(fired);
  return ns;
}

/// Per-ACK congestion-control work for Cubic and DCTCP, averaged: growth on
/// every ACK, a DCTCP ECN sample on every ACK (one in 16 marked), and a
/// congestion event once per ~100 ACKs, at the workload's base RTT.
double cc_ack_ns(sim::Duration rtt) {
  constexpr int kAcks = 1'000'000;
  double total_ns = 0.0;
  for (const tcp::CcType type : {tcp::CcType::kCubic, tcp::CcType::kDctcp}) {
    const std::unique_ptr<tcp::CongestionControl> cc =
        tcp::make_congestion_control(type);
    sim::Time now{0};
    const sim::Duration step = rtt / 64;
    const auto t0 = Clock::now();
    for (int i = 0; i < kAcks; ++i) {
      now += step;
      cc->on_ecn_sample(1, (i & 15) == 0, now);
      cc->on_ack(1, rtt, now, false);
      if (i % 97 == 96) cc->on_congestion_event(now);
    }
    total_ns += seconds_since(t0) * 1e9 / kAcks;
    keep(cc->cwnd());
  }
  return total_ns / 2.0;
}

/// One enqueue + dequeue decision of the AQM that AqmConfig::make() builds,
/// against a view pinned at `qdelay_s`, after 5 s of simulated updates.
double aqm_pair_ns(scenario::AqmType type, double qdelay_s, double rate_bps) {
  sim::Simulator sim{1};
  PinnedView view{qdelay_s, rate_bps};
  scenario::AqmConfig config;
  config.type = type;
  const std::unique_ptr<net::QueueDiscipline> qdisc = config.make();
  qdisc->install(sim, view);
  sim.run_until(sim::from_seconds(5.0));
  const net::Ecn codepoints[4] = {net::Ecn::kEct1, net::Ecn::kNotEct,
                                  net::Ecn::kEct1, net::Ecn::kEct0};
  net::Packet packet;
  packet.enqueued_at = sim.now() - sim::from_seconds(qdelay_s);
  constexpr int kPairs = 1'000'000;
  int verdicts = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    packet.ecn = codepoints[i & 3];
    const std::size_t band = qdisc->classify(packet);
    verdicts += static_cast<int>(qdisc->enqueue(packet));
    verdicts += static_cast<int>(qdisc->dequeue_band(packet, band));
  }
  const double ns = seconds_since(t0) * 1e9 / kPairs;
  keep(verdicts);
  return ns;
}

/// One FluidFlowEnsemble tick with fluid_mix's four specs on a bare
/// Simulator, signals pinned at a mid-range operating point.
double fluid_tick_ns() {
  sim::Simulator sim{1};
  control::FluidFlowEnsemble ensemble{sim, control::FluidFlowEnsemble::Config{}};
  for (const control::FluidSignal signal :
       {control::FluidSignal::kClassic, control::FluidSignal::kScalable}) {
    for (const double rtt_s : {0.02, 0.1}) {
      control::FluidFlowSpec spec;
      spec.signal = signal;
      spec.count = 25'000.0;
      spec.base_rtt_s = rtt_s;
      ensemble.add_spec(spec);
    }
  }
  double sunk_bps = 0.0;
  ensemble.set_sources({[] { return 0.01; }, [] { return 0.1; },
                        [] { return 0.02; }});
  ensemble.set_tick_sink([&sunk_bps](double bps) { sunk_bps += bps; });
  ensemble.start();
  const auto t0 = Clock::now();
  sim.run_until(sim::from_seconds(200.0));
  const double ns =
      seconds_since(t0) * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, ensemble.ticks()));
  keep(sunk_bps);
  return ns;
}

/// Host seconds of one run of `cfg`.
double timed_run(const scenario::DumbbellConfig& cfg) {
  const auto t0 = Clock::now();
  const scenario::RunResult result = scenario::run_dumbbell(cfg);
  keep(result.events_executed);
  return seconds_since(t0);
}

scenario::DumbbellConfig bare(const Point& p) {
  scenario::DumbbellConfig cfg = p.cfg;
  cfg.recorder = nullptr;
  cfg.registry = nullptr;
  return cfg;
}

std::uintmax_t artifact_bytes(const std::string& dir, const std::string& run_id) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(run_id + ".", 0) == 0) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

}  // namespace

JsonObject measure_layers(const Plan& plan, const Env& env,
                          const std::vector<PointRun>& sample,
                          double budget_s) {
  JsonObject out;
  const std::size_t n = plan.points.size();

  // On/off experiments, one round = every point under each variant, in an
  // order that rotates per round; per-variant medians over rounds. Each
  // variant's time is scaled by the reference kernel timed right after it,
  // relative to that kernel's median, so host speed drift between variants
  // does not read as a share.
  enum Variant { kBare, kNoMonitor, kRegistry, kRecorder, kVariants };
  std::vector<std::vector<double>> wall(kVariants);
  std::vector<std::vector<double>> ref(kVariants);
  std::vector<double> heap(n, 0.0);
  std::vector<double> compactions(n, 0.0);
  std::uintmax_t telemetry_bytes = 0;
  const std::string telemetry_dir = env.tmp_dir + "/layer_telemetry";
  const auto t0 = Clock::now();
  CpuRotation cpus;
  for (int round = 0; round < 3 || seconds_since(t0) < budget_s; ++round) {
    std::vector<double> sums(kVariants, 0.0);
    for (int k = 0; k < kVariants; ++k) {
      const auto v = static_cast<Variant>((k + round) % kVariants);
      cpus.next();
      for (std::size_t i = 0; i < n; ++i) {
        const Point& p = plan.points[i];
        scenario::DumbbellConfig cfg = bare(p);
        telemetry::MetricsRegistry registry;
        std::unique_ptr<telemetry::Recorder> recorder;
        const std::string run_id = "layer_" + std::to_string(i);
        if (v == kNoMonitor) cfg.check_invariants = false;
        if (v == kRegistry) cfg.registry = &registry;
        if (v == kRecorder) {
          telemetry::RecorderConfig rc;
          rc.dir = telemetry_dir;
          rc.run_id = run_id;
          recorder = std::make_unique<telemetry::Recorder>(rc);
          cfg.recorder = recorder.get();
        }
        sums[v] += timed_run(cfg);
        if (v == kRegistry) {
          const auto& gauges = registry.gauges();
          if (const auto it = gauges.find("sim.sched_heap"); it != gauges.end()) {
            heap[i] = it->second.value();
          }
          if (const auto it = gauges.find("sim.sched_compactions");
              it != gauges.end()) {
            compactions[i] = it->second.value();
          }
        }
        if (v == kRecorder && round == 0) {
          telemetry_bytes += artifact_bytes(telemetry_dir, run_id);
        }
      }
      ref[v].push_back(reference_kernel_s());
    }
    for (int v = 0; v < kVariants; ++v) wall[v].push_back(sums[v]);
  }
  std::vector<double> all_ref;
  for (const auto& r : ref) all_ref.insert(all_ref.end(), r.begin(), r.end());
  const double ref_s = median(all_ref);
  for (int v = 0; v < kVariants; ++v) {
    for (std::size_t r = 0; r < wall[v].size(); ++r) wall[v][r] *= ref_s / ref[v][r];
  }
  const double bare_s = median(wall[kBare]);
  out.num("faults.monitor_share", (bare_s - median(wall[kNoMonitor])) / bare_s);
  out.num("telemetry.probe_share", (median(wall[kRegistry]) - bare_s) / bare_s);
  out.num("telemetry.added_ms",
          (median(wall[kRecorder]) - bare_s) * 1e3 / static_cast<double>(n));
  out.num("telemetry.bytes_per_point",
          static_cast<double>(telemetry_bytes) / static_cast<double>(n));
  out.count("sim.sched_compactions",
            static_cast<std::uint64_t>(
                std::accumulate(compactions.begin(), compactions.end(), 0.0)));
  out.count("layer_rounds", wall[kBare].size());

  // Scheduler replay at the workload's heap size (median over points).
  const double heap_size = std::max(1.0, median(heap));
  out.num("sim.sched_heap", heap_size);
  out.num("sim.sched_op_ns", sched_op_ns(static_cast<std::size_t>(heap_size)));

  // Per-ACK congestion control at the workload's base RTT.
  const sim::Duration rtt = plan.points.front().cfg.tcp_flows.front().base_rtt;
  out.num("tcp.cc_ack_ns", cc_ack_ns(rtt));

  // AQM decisions pinned at the workload's median per-point mean qdelay,
  // capped at 1 s (overloaded fluid points report tens of seconds).
  std::vector<double> qdelays;
  for (const PointRun& run : sample) qdelays.push_back(run.result.mean_qdelay_ms);
  const double qdelay_s = std::min(1.0, median(qdelays) * 1e-3);
  out.num("aqm.pinned_qdelay_ms", qdelay_s * 1e3);
  const double rate_bps = plan.points.front().cfg.link_rate_bps;
  out.num("aqm.enqueue_ns.coupled-pi2",
          aqm_pair_ns(scenario::AqmType::kCoupledPi2, qdelay_s, rate_bps));
  out.num("aqm.enqueue_ns.dualpi2",
          aqm_pair_ns(scenario::AqmType::kDualPi2, qdelay_s, rate_bps));
  out.num("aqm.enqueue_ns.pie",
          aqm_pair_ns(scenario::AqmType::kPie, qdelay_s, rate_bps));

  out.num("fluid.tick_ns", fluid_tick_ns());

  // Topology wiring: a minimal-duration run of each point's config (no
  // fault schedule: a fault may not start after the run ends).
  {
    std::vector<double> per_point;
    for (int rep = 0; rep < 5; ++rep) {
      double total = 0.0;
      for (const Point& p : plan.points) {
        scenario::DumbbellConfig cfg = bare(p);
        cfg.duration = sim::from_millis(1);
        cfg.stats_start = sim::kTimeZero;
        cfg.faults = faults::FaultSchedule{};
        total += timed_run(cfg);
      }
      per_point.push_back(total * 1e3 / static_cast<double>(n));
    }
    out.num("topology.wire_ms", median(per_point));
  }

  // Campaign parse + validate + expand + preset resolve of the committed
  // resilience spec (the same call on every workload).
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 11; ++rep) {
      const auto s0 = Clock::now();
      const Plan grid = build_plan("campaign_grid", env.spec_path);
      ms.push_back(seconds_since(s0) * 1e3);
      keep(grid.points.size());
    }
    out.num("campaign.parse_expand_ms", median(ms));
  }

  // Durable layer on this workload's own results: codec round trip and a
  // fsync'd journal append per point.
  {
    std::vector<double> codec_us;
    std::vector<double> append_ms;
    const std::string path = env.tmp_dir + "/layers.journal";
    for (int rep = 0; rep < 3; ++rep) {
      durable::JournalWriter journal{path, 1, /*keep_existing=*/false};
      for (const PointRun& run : sample) {
        const auto c0 = Clock::now();
        const std::string payload = durable::encode_result(run.result);
        scenario::RunResult decoded;
        const durable::Status status = durable::decode_result(payload, decoded);
        codec_us.push_back(seconds_since(c0) * 1e6);
        keep(status.ok());
        const auto a0 = Clock::now();
        const durable::Status appended = journal.append_point(run.index, payload);
        append_ms.push_back(seconds_since(a0) * 1e3);
        keep(appended.ok());
      }
    }
    out.num("durable.codec_us", median(codec_us));
    out.num("durable.journal_append_ms", median(append_ms));
  }

  // Recovery analysis of each point's sampled qdelay series.
  {
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
      for (const PointRun& run : sample) {
        const scenario::DumbbellConfig& cfg = plan.points[run.index].cfg;
        const auto r0 = Clock::now();
        std::vector<stats::RecoveryWindow> windows;
        for (const faults::FaultWindow& w :
             faults::fault_windows(cfg.faults, cfg.duration)) {
          windows.push_back({w.start_s, w.end_s});
        }
        stats::RecoveryOptions opts;
        opts.band_ms = 2.0 * sim::to_millis(cfg.aqm.target);
        opts.analysis_start_s = sim::to_seconds(cfg.stats_start);
        opts.duration_s = sim::to_seconds(cfg.duration);
        const stats::ResilienceReport report = stats::analyze_recovery(
            run.result.qdelay_ms_series, windows, {}, opts);
        us.push_back(seconds_since(r0) * 1e6);
        keep(report.worst_recovery_s);
      }
    }
    out.num("stats.recovery_us", median(us));
  }
  return out;
}

}  // namespace pi2::perfbench
