// pi2_campaign: the declarative campaign driver and the only driver of the
// grid figures (Figures 15-18, overload, parking lot, RTT mix, resilience,
// the section 4.4 capacity-step response).
// A committed spec file (campaigns/*.json) names a scenario template and
// its axes, expand() turns it into an ordered grid, and the per-point
// configs, table rows and JSON records come from campaign_templates.hpp.
// The golden_campaign_* ctests pin each committed spec's --json output.
//
// Besides serial runs, the driver does distributed execution:
//
//   pi2_campaign --spec S.json                    # serial: all points
//   pi2_campaign --spec S.json --shard 2/3        # worker: its slice only
//   pi2_campaign --spec S.json --merge A B C      # stitch shard journals
//
// A shard journals its half-open point range [lo, hi) independently (header
// + shard record + one point record per completed run, fsync'd); --merge
// validates the set (per-record CRCs, digest agreement, exact tiling, no
// foreign journals) and writes a merged journal byte-identical to the one a
// serial run would have produced, replaying the decoded payloads through
// the identical consume path for the table and --json. Every merge refusal
// exits with its own code so shell tests can tell the failure modes apart:
//
//   75 interrupted (resume with --resume)   13 shard-gap
//   10 foreign-campaign                     14 duplicate-point
//   11 stale-digest                         15 corrupt journal
//   12 shard-overlap                        16 io-error
//                                           17 invalid usage/spec
//
// The flags every bench binary shares (--smoke, --full, --seed,
// --duration-s, --stats-start-s, --json) keep their bench_common meaning;
// the durable-run flags (--jobs, --resume, --journal, --deadline-s,
// --retries, --telemetry, ...) are this driver's own. Both are parsed in one
// pass, so an unknown flag, a missing value or a malformed number also
// exits 17. A killed shard is resumed with --resume, which *compacts* its
// journal (fresh header, valid points re-appended in index order) so the
// strict merge loader never sees the torn tail the kill left behind.
//
// Points fan out across --jobs worker threads; results are consumed in
// submission order on the calling thread, so every table and --json
// artifact is byte-identical to a serial run regardless of the job count.
// A point that throws or exceeds the --deadline-s watchdog is retried
// (--retries, with --backoff-ms exponential backoff) and, if it still
// fails, reported as `failed`/`timeout` while every other point completes.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/merge.hpp"
#include "campaign/spec.hpp"
#include "campaign_templates.hpp"
#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "durable/shutdown.hpp"
#include "telemetry/recorder.hpp"
#include "topology/topology.hpp"

namespace {

using namespace pi2;
using namespace pi2::bench;

/// Flags owned by the driver itself; the shared ones are parse_options'.
struct CampaignCli {
  std::string spec_path;
  bool help = false;
  bool list = false;
  bool digest_only = false;
  bool has_shard = false;
  std::size_t shard_index = 1;
  std::size_t shard_count = 1;
  bool merge = false;
  std::vector<std::string> merge_paths;
  bool use_seed = false;  ///< a literal --seed was given (overrides the spec)
  /// A literal --stats-start-s was given; the response template refuses it.
  bool stats_start_given = false;
  std::string error;      ///< non-empty = usage error

  /// Worker threads (0 = hardware_concurrency). Output is identical for
  /// every value; only wall-clock changes.
  unsigned jobs = 0;
  /// Caps every cap-enabled axis at this many values (0 = no cap); --smoke
  /// sets 2 to exercise the whole machinery in seconds.
  int grid_cap = 0;
  /// Drop rate_mbps values below this. The fluid-vs-packet agreement test
  /// uses it to stay inside the mean-field model's validity envelope: the
  /// Appendix-B window law W = sqrt(2/p) is the small-p approximation, so at
  /// links where the equilibrium marking probability is ~0.1+ (4 Mb/s on
  /// the Figures 15-18 grid) real timeout-dominated TCP and the fluid tier
  /// diverge by construction.
  double min_link_mbps = 0;
  /// Per-point wall-clock watchdog in seconds (0 = none). A point past it
  /// is retried, then reported `timeout`.
  double deadline_s = 0;
  /// Extra attempts for a failed or stuck point.
  int retries = 1;
  /// Base delay (ms) before the first retry of a point; doubles per further
  /// attempt, with deterministic seed-derived jitter (0 = retry at once).
  long long backoff_ms = 0;
  /// Replay the points found in the run journal (byte-identical output)
  /// instead of re-simulating them.
  bool resume = false;
  /// Journal path override (default: see campaign_journal_path).
  std::string journal_path;
  /// Test hooks for the partial-failure path: force point I to throw / to
  /// stall for `hang_s` wall seconds (-1 = disabled). With a deadline set,
  /// a hung point exercises the watchdog + retry machinery.
  long long inject_fail = -1;
  long long inject_hang = -1;
  double hang_s = 2.0;
  /// If non-empty, every point writes a telemetry bundle (JSONL stream,
  /// Prometheus snapshot, RunManifest) into this directory, plus a
  /// campaign-wide aggregated snapshot. Byte-identical at any --jobs value.
  std::string telemetry_dir;
  /// Telemetry sampling cadence in simulated seconds (0 = 100 ms default).
  double telemetry_interval_s = 0;
  /// Background load added to every dumbbell_sweep point, as N extra packet
  /// Reno flows or a fluid spec of N modelled Reno flows: the same scenario
  /// rendered by different engine tiers (the golden fluid-vs-packet
  /// agreement test runs the Figures 15-18 grid both ways).
  int packet_background = 0;
  int fluid_background = 0;
};

/// Parses the driver's flags and the shared flags in one pass.
Options parse_cli(int argc, char** argv, CampaignCli& cli) {
  const Options opts =
      parse_options(argc, argv, [&](const std::string& arg, int& i) {
        if (arg == "--spec") {
          cli.spec_path = flag_value(argc, argv, i);
        } else if (arg == "--help" || arg == "-h") {
          cli.help = true;
        } else if (arg == "--list") {
          cli.list = true;
        } else if (arg == "--digest") {
          cli.digest_only = true;
        } else if (arg == "--seed") {
          cli.use_seed = true;
          return false;  // the shared flags parse the value
        } else if (arg == "--stats-start-s") {
          cli.stats_start_given = true;
          return false;
        } else if (arg == "--smoke") {
          cli.grid_cap = 2;
          return false;  // the shared flags shorten the durations
        } else if (arg == "--jobs") {
          cli.jobs = flag_number<unsigned>(argc, argv, i);
        } else if (arg == "--grid-cap") {
          cli.grid_cap = flag_number<int>(argc, argv, i);
        } else if (arg == "--min-link-mbps") {
          cli.min_link_mbps = flag_number<double>(argc, argv, i);
        } else if (arg == "--deadline-s") {
          cli.deadline_s = flag_number<double>(argc, argv, i);
        } else if (arg == "--retries") {
          cli.retries = flag_number<int>(argc, argv, i);
        } else if (arg == "--backoff-ms") {
          cli.backoff_ms = flag_number<long long>(argc, argv, i);
        } else if (arg == "--resume") {
          cli.resume = true;
        } else if (arg == "--journal") {
          cli.journal_path = flag_value(argc, argv, i);
        } else if (arg == "--inject-fail") {
          cli.inject_fail = flag_number<long long>(argc, argv, i);
        } else if (arg == "--inject-hang") {
          cli.inject_hang = flag_number<long long>(argc, argv, i);
        } else if (arg == "--hang-s") {
          cli.hang_s = flag_number<double>(argc, argv, i);
        } else if (arg == "--telemetry") {
          cli.telemetry_dir = flag_value(argc, argv, i);
        } else if (arg == "--telemetry-interval") {
          cli.telemetry_interval_s = flag_number<double>(argc, argv, i);
        } else if (arg == "--packet-background") {
          cli.packet_background = flag_number<int>(argc, argv, i);
        } else if (arg == "--fluid-background") {
          cli.fluid_background = flag_number<int>(argc, argv, i);
        } else if (arg == "--shard") {
          const char* value = flag_value(argc, argv, i);
          if (campaign::parse_shard(value, cli.shard_index,
                                    cli.shard_count)) {
            cli.has_shard = true;
          } else if (cli.error.empty()) {
            cli.error = "--shard wants i/N with 1 <= i <= N (got '" +
                        std::string(value) + "')";
          }
        } else if (arg == "--merge") {
          cli.merge = true;
          while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
            cli.merge_paths.emplace_back(argv[++i]);
          }
        } else {
          return false;
        }
        return true;
      });
  if (!cli.error.empty()) return opts;
  if (cli.spec_path.empty() && !cli.help) {
    cli.error = "--spec PATH is required";
  }
  if (cli.merge && cli.has_shard) {
    cli.error = "--merge and --shard are mutually exclusive";
  }
  return opts;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// The usage text enumerates the valid templates and axis names straight
/// from the campaign registry, so a spec author never has to guess them.
void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: pi2_campaign --spec FILE [--list | --digest | --shard i/N |\n"
      "                    --merge JOURNAL...] [flags]\n"
      "  --jobs N    worker threads (default or 0: all cores; output is\n"
      "              byte-identical for every N)\n"
      "  --grid-cap N  truncate every cap-enabled axis to N values (--smoke\n"
      "              sets 2)\n"
      "  --min-link-mbps X  drop rate_mbps values below X (fluid-tier\n"
      "              agreement runs stay in the mean-field validity envelope)\n"
      "  --deadline-s S  per-point wall-clock watchdog; a point past the\n"
      "              deadline is retried, then reported `timeout`\n"
      "  --retries N retry budget per failed/stuck point (default 1)\n"
      "  --backoff-ms MS  base retry backoff, doubling per attempt with\n"
      "              deterministic seed-derived jitter (default 0)\n"
      "  --resume    replay completed points from the run journal and only\n"
      "              re-simulate the missing ones; the output is\n"
      "              byte-identical to an uninterrupted run\n"
      "  --journal PATH  journal location (default: <json>.journal, or\n"
      "              <campaign>.journal without --json)\n"
      "  --inject-fail I / --inject-hang I / --hang-s S\n"
      "              test hooks: force point I to throw, or to stall S wall\n"
      "              seconds (default 2)\n"
      "  --telemetry DIR  write per-point telemetry artifacts (JSONL,\n"
      "              Prometheus snapshot, run manifest) into DIR\n"
      "  --telemetry-interval S  telemetry sampling cadence in simulated\n"
      "              seconds (default 0.1)\n"
      "  --packet-background N / --fluid-background N\n"
      "              add N background Reno flows to every dumbbell_sweep\n"
      "              point, as packet flows or as one fluid spec\n"
      "%s"
      "templates: %s\n"
      "axes:      %s\n",
      kSharedFlagHelp, joined(campaign::template_names()).c_str(),
      joined(campaign::axis_names()).c_str());
  for (const std::string& name : campaign::template_names()) {
    std::fprintf(to, "  %-14s axes: %s\n", name.c_str(),
                 joined(campaign::axes_of_template(name)).c_str());
  }
  std::fprintf(to, "fault_schedule values: %s; or an inline literal like "
                   "'rate_step@0.4:rate=0.25'\n",
               joined(faults::preset_names()).c_str());
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "pi2_campaign: %s\n", message.c_str());
  print_usage(stderr);
  return kUsageExit;
}

/// Maps the merge/journal failure taxonomy onto distinct exit codes (doc'd
/// in the header comment) so shell tests can assert on the code alone.
int status_exit(const durable::Status& status) {
  using durable::StatusCode;
  switch (status.code()) {
    case StatusCode::kForeignCampaign: return 10;
    case StatusCode::kStaleDigest: return 11;
    case StatusCode::kShardOverlap: return 12;
    case StatusCode::kShardGap: return 13;
    case StatusCode::kDuplicatePoint: return 14;
    case StatusCode::kCorrupt: return 15;
    case StatusCode::kIoError: return 16;
    case StatusCode::kInvalid: return 17;
    default: return 1;
  }
}

std::string axis_value_str(const campaign::AxisValue& v) {
  if (!v.is_number) return v.text;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v.number);
  return buf;
}

/// Test hook honoring --inject-fail / --inject-hang: makes one point
/// misbehave so the partial-failure path can be exercised end to end. The
/// hang polls the shutdown flag so an interrupted campaign still stops at a
/// point boundary instead of waiting out the full stall.
void maybe_inject(const CampaignCli& cli, std::size_t i) {
  if (cli.inject_fail >= 0 && static_cast<std::size_t>(cli.inject_fail) == i) {
    throw std::runtime_error("injected failure (--inject-fail " +
                             std::to_string(i) + ")");
  }
  if (cli.inject_hang >= 0 && static_cast<std::size_t>(cli.inject_hang) == i) {
    const auto end =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(cli.hang_s));
    while (std::chrono::steady_clock::now() < end) {
      if (durable::ShutdownController::requested()) {
        throw durable::InterruptedError(
            "injected hang interrupted by shutdown request");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

runner::GuardOptions guard_options(const CampaignCli& cli,
                                   std::uint64_t jitter_seed) {
  runner::GuardOptions guard;
  guard.retry.attempt_deadline = std::chrono::milliseconds(
      static_cast<long long>(cli.deadline_s * 1000.0));
  guard.retry.max_attempts = 1 + std::max(0, cli.retries);
  guard.retry.backoff_base = std::chrono::milliseconds(cli.backoff_ms);
  guard.retry.jitter_seed = jitter_seed;
  guard.cancel = durable::ShutdownController::flag();
  return guard;
}

telemetry::RecorderConfig point_recorder_config(const CampaignCli& cli,
                                                std::size_t i) {
  telemetry::RecorderConfig rc;
  rc.dir = cli.telemetry_dir;
  rc.run_id = detail::point_run_id(i);
  if (cli.telemetry_interval_s > 0) {
    rc.interval = sim::from_seconds(cli.telemetry_interval_s);
  }
  return rc;
}

// ---- per-template dispatch -------------------------------------------------
//
// Each template maps a point's axis values onto its config builder, table
// row, JSON record and health predicate in campaign_templates.hpp. The
// campaign layer is scenario-free, so this is where strings/numbers become
// scenario types.

struct TemplateView {
  const campaign::Expansion& x;
  // Axis indices resolved once; -1 when the template lacks the axis.
  int aqm = -1, cc_mix = -1, rate = -1, rtt = -1, ecn = -1, udp = -1,
      hops = -1, fault = -1, fluid = -1;
  // fault_schedule axis values resolved once (presets/literals scaled to
  // the expansion's link/RTT/duration). main() preflights every value, so
  // lookups from run_point are total.
  std::map<std::string, faults::FaultSchedule> schedules;
  /// Step and settle timing of the response template.
  ResponseWindow response;

  explicit TemplateView(const campaign::Expansion& expansion)
      : x(expansion), response(response_window(expansion.duration_s)) {
    aqm = x.axis_of("aqm");
    cc_mix = x.axis_of("cc_mix");
    rate = x.axis_of("rate_mbps");
    rtt = x.axis_of("rtt_ms");
    ecn = x.axis_of("ecn");
    udp = x.axis_of("udp_mult");
    hops = x.axis_of("hops");
    fault = x.axis_of("fault_schedule");
    fluid = x.axis_of("fluid_flows");
    if (fault >= 0) {
      const faults::PresetContext ctx = resilience_fault_context(
          x.link_mbps, x.rtt_ms, x.duration_s);
      for (const auto& value :
           x.axes[static_cast<std::size_t>(fault)].values) {
        faults::FaultSchedule schedule;
        if (faults::resolve_schedule(value.text, ctx, &schedule).empty()) {
          schedules.emplace(value.text, std::move(schedule));
        }
      }
    }
  }

  const std::string& text(const campaign::CampaignPoint& p, int axis) const {
    return p.values[static_cast<std::size_t>(axis)].text;
  }
  double num(const campaign::CampaignPoint& p, int axis) const {
    return p.values[static_cast<std::size_t>(axis)].number;
  }
};

void print_table_header(const TemplateView& v) {
  switch (v.x.template_id) {
    case campaign::TemplateId::kDumbbellSweep:
      dumbbell_print_header();
      break;
    case campaign::TemplateId::kOverload:
      std::printf("# link %.0f Mb/s, RTT %.0f ms, %.0f s/run; flood = 1 UDP "
                  "sender, mix = 1 Cubic + 1 DCTCP\n",
                  v.x.link_mbps, v.x.rtt_ms, v.x.duration_s);
      std::printf(
          "%-9s %-9s %-7s %-7s %-7s %-9s %-9s %-11s %-11s %-9s %-7s\n", "ecn",
          "udp_mult", "cubic", "dctcp", "udp", "qdelay", "p99", "L mark/drop",
          "C mark/drop", "tail L/C", "guards");
      break;
    case campaign::TemplateId::kParkingLot:
      std::printf("# chain of 10 Mb/s links, RTT %.0f ms, %.0f s/run; 1 long "
                  "Cubic + 1 Cubic cross flow per hop\n",
                  v.x.rtt_ms, v.x.duration_s);
      std::printf("%-12s %-5s %-7s %-7s %-7s %-8s %-21s %-21s\n", "aqm",
                  "hops", "long", "cross", "ratio", "util", "qdelay/hop (ms)",
                  "signals/hop");
      break;
    case campaign::TemplateId::kRttMix:
      std::printf("# bottleneck %.0f Mb/s; per branch: 1 Cubic + 1 DCTCP at "
                  "10/50/100 ms base RTT, %.0f s/run\n",
                  v.x.link_mbps, v.x.duration_s);
      std::printf("%-12s %-8s %-8s %-8s %-9s %-6s %-8s %-8s\n", "aqm", "b10",
                  "b50", "b100", "r10/100", "jain", "qdelay", "p99");
      break;
    case campaign::TemplateId::kResilience:
      std::printf("# link %.0f Mb/s, RTT %.0f ms, %.0f s/run; mix = 1 Cubic "
                  "+ 1 DCTCP, fluid Reno background; recovery band = 2x AQM "
                  "target, hold 1 s (-1 = never reconverged)\n",
                  v.x.link_mbps, v.x.rtt_ms, v.x.duration_s);
      std::printf("%-12s %-16s %-8s %-8s %-8s %-8s %-8s %-8s %-7s %s\n",
                  "aqm", "fault", "fluid", "recov", "mean_rec", "peak",
                  "delta", "qdelay", "util", "viol i/o");
      break;
    case campaign::TemplateId::kResponse:
      std::printf("# step down at %.1f s, step up at %.1f s; settle = qdelay "
                  "held <= %.0f ms for %.1f s\n",
                  v.response.down_s, v.response.up_s, v.response.band_ms,
                  v.response.hold_s);
      std::printf("%-14s %-16s %-16s %-12s %-12s %-8s\n", "aqm",
                  "settle_drop[s]", "settle_rise[s]", "peak[ms]",
                  "invariants", "guards");
      break;
  }
}

/// Builds and runs point `p` (on a worker thread). `recorder` may be null.
scenario::RunResult run_point(const TemplateView& v, const Options& opts,
                              const CampaignCli& cli,
                              const campaign::CampaignPoint& p,
                              telemetry::Recorder* recorder) {
  using campaign::TemplateId;
  switch (v.x.template_id) {
    case TemplateId::kDumbbellSweep: {
      // Durations come from the shared flags (mix_config), the background
      // tiers from the driver's; the seed is the campaign's own.
      auto cfg = mix_config(aqm_from_name(v.text(p, v.aqm)),
                            mix_from_name(v.text(p, v.cc_mix)),
                            v.num(p, v.rate), v.num(p, v.rtt), opts,
                            cli.packet_background, cli.fluid_background);
      cfg.seed = p.seed;
      cfg.stop = durable::ShutdownController::flag();
      if (recorder != nullptr) cfg.recorder = recorder;
      return scenario::run_dumbbell(cfg);
    }
    case TemplateId::kOverload: {
      auto cfg = overload_config(ecn_from_name(v.text(p, v.ecn)),
                                 v.num(p, v.udp), v.x.link_mbps, v.x.rtt_ms,
                                 v.x.duration_s, v.x.stats_start_s, p.seed);
      cfg.stop = durable::ShutdownController::flag();
      if (recorder != nullptr) cfg.recorder = recorder;
      return scenario::run_dumbbell(cfg);
    }
    case TemplateId::kParkingLot: {
      auto cfg = parking_lot_config(
          aqm_from_name(v.text(p, v.aqm)), static_cast<int>(v.num(p, v.hops)),
          v.x.link_mbps, v.x.rtt_ms, v.x.duration_s, v.x.stats_start_s,
          p.seed);
      cfg.stop = durable::ShutdownController::flag();
      if (recorder != nullptr) cfg.recorder = recorder;
      return topology::to_run_result(topology::run_topology(cfg));
    }
    case TemplateId::kRttMix: {
      auto cfg = rtt_mix_config(aqm_from_name(v.text(p, v.aqm)),
                                v.x.link_mbps, v.x.duration_s,
                                v.x.stats_start_s, p.seed);
      cfg.stop = durable::ShutdownController::flag();
      if (recorder != nullptr) cfg.recorder = recorder;
      return topology::to_run_result(topology::run_topology(cfg));
    }
    case TemplateId::kResilience: {
      auto cfg = resilience_config(
          aqm_from_name(v.text(p, v.aqm)),
          v.schedules.at(v.text(p, v.fault)), v.num(p, v.fluid),
          v.x.link_mbps, v.x.rtt_ms, v.x.duration_s, v.x.stats_start_s,
          p.seed);
      cfg.stop = durable::ShutdownController::flag();
      if (recorder != nullptr) cfg.recorder = recorder;
      return scenario::run_dumbbell(cfg);
    }
    case TemplateId::kResponse: {
      auto cfg = response_config(aqm_from_name(v.text(p, v.aqm)),
                                 v.x.link_mbps, v.x.rtt_ms, v.response,
                                 v.x.stats_start_s, p.seed);
      cfg.stop = durable::ShutdownController::flag();
      if (recorder != nullptr) cfg.recorder = recorder;
      return scenario::run_dumbbell(cfg);
    }
  }
  return scenario::RunResult();
}

/// The per-template output sinks: one atomically published JSON array plus
/// the cross-point state the closing footer and gates need.
struct OutputSinks {
  std::unique_ptr<durable::AtomicFile> json;
  bool json_first = true;
  bool healthy = true;
  /// Dumbbell template: --packet-background/--fluid-background add the
  /// "background_mbps" field; Figure 18's utilization spread starts at the
  /// stats window.
  bool with_background = false;
  sim::Time stats_start{};
  DumbbellHeadline headline;
  // Cross-point recovery comparison (resilience template only); checked
  // after the consume loop.
  ResilienceGate resilience_gate;
  ResponseHeadline response_headline;

  OutputSinks(const Options& opts, const CampaignCli& cli)
      : with_background(cli.packet_background > 0 ||
                        cli.fluid_background > 0),
        stats_start(bench::stats_start(opts)) {
    if (opts.json_path.empty()) return;
    json = std::make_unique<durable::AtomicFile>(opts.json_path);
    if (!json->healthy()) {
      std::fprintf(stderr, "warning: %s; no JSON written\n",
                   json->status().message().c_str());
      json.reset();
      return;
    }
    json->write("[");
  }

  void abort() {
    if (json != nullptr) json->abort();
  }

  bool commit() {
    if (json == nullptr) return true;
    json->write("\n]\n");
    const durable::Status status = json->commit();
    if (!status.ok()) {
      std::fprintf(stderr, "error: JSON not written: %s\n",
                   status.message().c_str());
      return false;
    }
    return true;
  }
};

/// Consumes one completed point: the template's table row, JSON record and
/// health predicate. Runs on the calling thread in global index order — the
/// same consume path for live, resumed and merged points.
void consume_point(const TemplateView& v, OutputSinks& out,
                   const campaign::CampaignPoint& p,
                   const scenario::RunResult& result,
                   const std::string& manifest_path) {
  using campaign::TemplateId;
  switch (v.x.template_id) {
    case TemplateId::kDumbbellSweep: {
      const auto aqm = aqm_from_name(v.text(p, v.aqm));
      const MixKind mix = mix_from_name(v.text(p, v.cc_mix));
      if (!result.violations.empty()) {
        std::printf("!! point %zu: %llu invariant violation(s), see JSON\n",
                    p.index,
                    static_cast<unsigned long long>(result.violations.size()));
      }
      dumbbell_print_row(aqm, mix, v.num(p, v.rate), v.num(p, v.rtt),
                         out.stats_start, result);
      out.headline.record(aqm, mix, dumbbell_ratio(result, mix));
      if (out.json != nullptr) {
        dumbbell_json_record(*out.json, out.json_first, p.index, aqm, mix,
                             v.num(p, v.rate), v.num(p, v.rtt), p.seed,
                             out.with_background, manifest_path, result);
      }
      // Violations are reported above but not fatal: Figures 15-18 have no
      // machinery gate.
      return;
    }
    case TemplateId::kOverload: {
      const std::string& ecn = v.text(p, v.ecn);
      overload_print_row(ecn.c_str(), v.num(p, v.udp), result);
      if (out.json != nullptr) {
        overload_json_record(*out.json, out.json_first, p.index, ecn.c_str(),
                             p.seed, v.x.link_mbps, v.x.rtt_ms,
                             v.num(p, v.udp), result);
      }
      if (!machinery_healthy(result)) out.healthy = false;
      return;
    }
    case TemplateId::kParkingLot: {
      const std::string& aqm = v.text(p, v.aqm);
      const int hops = static_cast<int>(v.num(p, v.hops));
      const ParkingSummary summary = parking_summary(result, hops);
      parking_print_row(aqm.c_str(), hops, summary, result);
      if (out.json != nullptr) {
        parking_json_record(*out.json, out.json_first, p.index, aqm.c_str(),
                            hops, p.seed, v.x.link_mbps, v.x.rtt_ms, summary,
                            result);
      }
      if (!machinery_healthy(result)) out.healthy = false;
      if (!parking_check_headline(hops, summary)) out.healthy = false;
      return;
    }
    case TemplateId::kRttMix: {
      const std::string& aqm = v.text(p, v.aqm);
      const RttMixSummary summary = rtt_mix_summary(result);
      rtt_mix_print_row(aqm.c_str(), summary, result);
      if (out.json != nullptr) {
        rtt_mix_json_record(*out.json, out.json_first, p.index, aqm.c_str(),
                            p.seed, v.x.link_mbps, summary, result);
      }
      if (!machinery_healthy(result)) out.healthy = false;
      if (!rtt_mix_check_branches(summary)) out.healthy = false;
      return;
    }
    case TemplateId::kResilience: {
      const std::string& aqm = v.text(p, v.aqm);
      const std::string& fault = v.text(p, v.fault);
      resilience_print_row(aqm.c_str(), fault.c_str(), v.num(p, v.fluid),
                           result);
      if (out.json != nullptr) {
        resilience_json_record(*out.json, out.json_first, p.index,
                               aqm.c_str(), fault.c_str(), v.num(p, v.fluid),
                               p.seed, v.x.link_mbps, v.x.rtt_ms, result);
      }
      if (!resilience_machinery_healthy(result)) out.healthy = false;
      out.resilience_gate.record(fault, aqm,
                                 result.resilience.worst_recovery_s);
      return;
    }
    case TemplateId::kResponse: {
      const auto aqm = aqm_from_name(v.text(p, v.aqm));
      const ResponseSummary summary = response_summary(v.response, result);
      response_print_row(aqm, summary, result);
      if (out.json != nullptr) {
        response_json_record(*out.json, out.json_first, p.index, aqm, p.seed,
                             summary, result);
      }
      if (!response_machinery_healthy(aqm, result)) out.healthy = false;
      out.response_headline.record(aqm, summary.settle_drop_s);
      return;
    }
  }
}

void consume_failed(const TemplateView& v, OutputSinks& out,
                    const campaign::CampaignPoint& p,
                    runner::TaskStatus status, const std::string& message) {
  using campaign::TemplateId;
  out.healthy = false;
  switch (v.x.template_id) {
    case TemplateId::kDumbbellSweep:
      std::printf("!! point %zu (%s, %s, %g Mb/s, %g ms) %s: %s\n", p.index,
                  aqm_label(aqm_from_name(v.text(p, v.aqm))),
                  v.text(p, v.cc_mix).c_str(), v.num(p, v.rate),
                  v.num(p, v.rtt), runner::to_string(status),
                  message.c_str());
      if (out.json != nullptr) {
        dumbbell_json_failed(*out.json, out.json_first, p.index, status,
                             aqm_from_name(v.text(p, v.aqm)),
                             mix_from_name(v.text(p, v.cc_mix)),
                             v.num(p, v.rate), v.num(p, v.rtt), message);
      }
      return;
    case TemplateId::kOverload:
      std::printf("%-9s %-9.2f point %s\n", v.text(p, v.ecn).c_str(),
                  v.num(p, v.udp), runner::to_string(status));
      if (out.json != nullptr) {
        overload_json_failed(*out.json, out.json_first, p.index, status,
                             v.text(p, v.ecn).c_str(), v.num(p, v.udp));
      }
      return;
    case TemplateId::kParkingLot:
      std::printf("%-12s %-5d point %s\n", v.text(p, v.aqm).c_str(),
                  static_cast<int>(v.num(p, v.hops)),
                  runner::to_string(status));
      if (out.json != nullptr) {
        parking_json_failed(*out.json, out.json_first, p.index, status,
                            v.text(p, v.aqm).c_str(),
                            static_cast<int>(v.num(p, v.hops)));
      }
      return;
    case TemplateId::kRttMix:
      std::printf("%-12s point %s\n", v.text(p, v.aqm).c_str(),
                  runner::to_string(status));
      if (out.json != nullptr) {
        rtt_mix_json_failed(*out.json, out.json_first, p.index, status,
                            v.text(p, v.aqm).c_str());
      }
      return;
    case TemplateId::kResilience:
      std::printf("%-12s %-16s point %s\n", v.text(p, v.aqm).c_str(),
                  v.text(p, v.fault).c_str(), runner::to_string(status));
      if (out.json != nullptr) {
        resilience_json_failed(*out.json, out.json_first, p.index, status,
                               v.text(p, v.aqm).c_str(),
                               v.text(p, v.fault).c_str(),
                               v.num(p, v.fluid));
      }
      return;
    case TemplateId::kResponse: {
      const auto aqm = aqm_from_name(v.text(p, v.aqm));
      std::printf("%-14s point %s\n", aqm_label(aqm),
                  runner::to_string(status));
      if (out.json != nullptr) {
        response_json_failed(*out.json, out.json_first, p.index, status, aqm);
      }
      return;
    }
  }
}

/// Closes the table with the figure's expectation footer (for Figures
/// 15-18 also the grid-wide headline of Figure 15; for the response
/// template only its settle headline, and only when every point was
/// healthy).
void print_footer(const TemplateView& v, const OutputSinks& out) {
  using campaign::TemplateId;
  if (v.x.template_id == TemplateId::kResilience) return;
  if (v.x.template_id == TemplateId::kResponse) {
    if (out.healthy) out.response_headline.print();
    return;
  }
  std::printf("\n");
  switch (v.x.template_id) {
    case TemplateId::kDumbbellSweep:
      out.headline.print();
      std::fputs(kDumbbellExpectation, stdout);
      return;
    case TemplateId::kOverload:
      std::fputs(kOverloadExpectation, stdout);
      return;
    case TemplateId::kParkingLot:
      std::fputs(kParkingExpectation, stdout);
      return;
    case TemplateId::kRttMix:
      std::fputs(kRttMixExpectation, stdout);
      return;
    case TemplateId::kResilience:
    case TemplateId::kResponse:
      return;
  }
}

/// Journal location: --journal wins, then <json>.journal, then a name
/// derived from the campaign (shards get their slice in the filename so N
/// workers in one directory never collide).
std::string campaign_journal_path(const campaign::Expansion& x,
                                  const CampaignCli& cli,
                                  const Options& opts) {
  if (!cli.journal_path.empty()) return cli.journal_path;
  if (cli.has_shard) {
    return x.name + ".shard" + std::to_string(cli.shard_index) + "of" +
           std::to_string(cli.shard_count) + ".journal";
  }
  if (!opts.json_path.empty()) return opts.json_path + ".journal";
  return x.name + ".journal";
}

// ---- run modes -------------------------------------------------------------

int run_list(const campaign::Expansion& x) {
  std::printf("# campaign %s (%s): %zu point(s), digest %016llx\n",
              x.name.c_str(), campaign::to_string(x.template_id),
              x.points.size(), static_cast<unsigned long long>(x.digest));
  for (const auto& p : x.points) {
    std::printf("%4zu  seed=%llu ", p.index,
                static_cast<unsigned long long>(p.seed));
    for (std::size_t a = 0; a < x.axes.size(); ++a) {
      std::printf(" %s=%s", x.axes[a].name.c_str(),
                  axis_value_str(p.values[a]).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int run_campaign(const campaign::Expansion& x, const CampaignCli& cli,
                 const Options& opts) {
  const TemplateView v{x};
  const campaign::ShardRange range =
      cli.has_shard
          ? campaign::shard_range(x.points.size(), cli.shard_index,
                                  cli.shard_count)
          : campaign::ShardRange{0, x.points.size()};
  const std::size_t n = range.hi - range.lo;

  durable::ShutdownController::install();
  const std::string journal_file = campaign_journal_path(x, cli, opts);

  // --resume: the lenient loader drops the torn tail a SIGKILL leaves; the
  // writer below reopens *fresh* and the consume loop re-appends every valid
  // point in index order, so the resumed journal is compacted — the strict
  // merge loader accepts it, and its bytes match an uninterrupted run's.
  std::vector<const std::string*> replay_payload(n, nullptr);
  std::vector<std::unique_ptr<scenario::RunResult>> replay(n);
  durable::LoadedJournal loaded;
  if (cli.resume) {
    loaded = durable::load_journal(journal_file, x.digest);
    if (loaded.exists && !loaded.header_ok) {
      std::fprintf(stderr,
                   "resume: journal %s is from a different campaign "
                   "(header %016llx, expected %016llx); ignoring it\n",
                   journal_file.c_str(),
                   static_cast<unsigned long long>(loaded.header_key),
                   static_cast<unsigned long long>(x.digest));
    }
    if (loaded.dropped > 0) {
      std::fprintf(stderr,
                   "resume: dropped %zu torn/corrupt journal record(s); "
                   "affected points re-run\n",
                   loaded.dropped);
    }
    if (loaded.header_ok) {
      std::size_t replayed = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const auto it = loaded.points.find(x.points[range.lo + j].key);
        if (it == loaded.points.end()) continue;
        auto result = std::make_unique<scenario::RunResult>();
        if (durable::decode_result(it->second, *result).ok()) {
          replay[j] = std::move(result);
          replay_payload[j] = &it->second;
          ++replayed;
        } else {
          std::fprintf(stderr,
                       "resume: undecodable payload for point %zu; "
                       "re-running\n",
                       range.lo + j);
        }
      }
      std::fprintf(stderr, "resume: replaying %zu of %zu point(s) from %s%s\n",
                   replayed, n, journal_file.c_str(),
                   loaded.interrupted > 0 ? " (previous run was interrupted)"
                                          : "");
    }
  }

  durable::JournalWriter journal{journal_file, x.digest,
                                 /*keep_existing=*/false};
  if (!journal.healthy()) {
    std::fprintf(stderr,
                 "warning: run journal unavailable (%s); this campaign will "
                 "not be resumable or mergeable\n",
                 journal.status().message().c_str());
  } else {
    durable::ShardInfo shard;
    shard.present = true;
    shard.campaign = x.name;
    shard.digest = x.digest;
    shard.index = cli.shard_index;
    shard.count = cli.shard_count;
    shard.lo = range.lo;
    shard.hi = range.hi;
    (void)journal.append_shard(shard);
  }

  OutputSinks out{opts, cli};
  const runner::ParallelRunner pool{cli.jobs};
  const bool telemetry_on = !cli.telemetry_dir.empty();
  telemetry::MetricsRegistry aggregate_registry;
  telemetry::SectionProfile aggregate_profile;
  std::size_t replayed_count = 0;
  for (const auto& r : replay) {
    if (r != nullptr) ++replayed_count;
  }

  struct PointOutcome {
    scenario::RunResult result;
    std::shared_ptr<telemetry::Recorder> recorder;
  };

  std::mutex error_mutex;
  std::vector<std::string> last_error(n);
  std::size_t interrupted_points = 0;

  const runner::RunReport report = pool.run_ordered_guarded<PointOutcome>(
      n,
      [&](std::size_t j) {
        if (replay[j] != nullptr) {
          PointOutcome outcome;
          outcome.result = *replay[j];
          return outcome;
        }
        try {
          maybe_inject(cli, range.lo + j);
          PointOutcome outcome;
          if (telemetry_on) {
            outcome.recorder = std::make_shared<telemetry::Recorder>(
                point_recorder_config(cli, range.lo + j));
          }
          outcome.result = run_point(v, opts, cli, x.points[range.lo + j],
                                     outcome.recorder.get());
          return outcome;
        } catch (const std::exception& ex) {
          const std::lock_guard<std::mutex> lock{error_mutex};
          last_error[j] = ex.what();
          throw;
        }
      },
      [&](std::size_t j, runner::TaskStatus status, PointOutcome* outcome) {
        const campaign::CampaignPoint& p = x.points[range.lo + j];
        if (status == runner::TaskStatus::kInterrupted) {
          ++interrupted_points;
          return;
        }
        if (status != runner::TaskStatus::kOk || outcome == nullptr) {
          std::string message;
          if (status == runner::TaskStatus::kTimeout) {
            message = "wall-clock deadline exceeded (--deadline-s " +
                      std::to_string(cli.deadline_s) + ")";
          } else {
            const std::lock_guard<std::mutex> lock{error_mutex};
            message = last_error[j].empty() ? "unknown error" : last_error[j];
          }
          consume_failed(v, out, p, status, message);
          return;
        }
        // Journal before consume; replayed points re-append their original
        // bytes (the compaction), fresh points their own encoding.
        if (journal.healthy()) {
          (void)journal.append_point(
              p.key, replay_payload[j] != nullptr
                         ? *replay_payload[j]
                         : durable::encode_result(outcome->result));
        }
        std::string manifest_path;
        if (outcome->recorder != nullptr) {
          manifest_path = outcome->recorder->manifest_path();
          std::printf("# telemetry: %s\n", manifest_path.c_str());
          aggregate_registry.merge_from(outcome->recorder->registry());
          aggregate_profile.merge_from(outcome->recorder->profile());
          outcome->recorder.reset();
        } else if (telemetry_on && replay[j] != nullptr) {
          manifest_path = cli.telemetry_dir + "/" +
                          detail::point_run_id(range.lo + j) +
                          ".manifest.json";
        }
        consume_point(v, out, p, outcome->result, manifest_path);
      },
      guard_options(cli, opts.seed));

  if (durable::ShutdownController::requested()) {
    if (journal.healthy()) {
      (void)journal.append_interrupted(
          "signal " +
          std::to_string(durable::ShutdownController::signal_number()));
    }
    out.abort();
    std::fprintf(stderr,
                 "campaign: interrupted — %zu point(s) unfinished; re-run "
                 "with --resume to finish (journal: %s)\n",
                 interrupted_points, journal_file.c_str());
    return durable::ShutdownController::kExitInterrupted;
  }
  out.commit();

  if (telemetry_on) {
    if (replayed_count > 0) {
      std::fprintf(stderr,
                   "campaign: %zu replayed point(s) have no fresh telemetry; "
                   "skipping sweep_aggregate.prom\n",
                   replayed_count);
    } else {
      telemetry::PrometheusExporter aggregate{cli.telemetry_dir +
                                              "/sweep_aggregate.prom"};
      aggregate_registry.freeze_gauges();
      aggregate.finish(aggregate_registry);
      aggregate_profile.print(stderr, "campaign wall-clock sections");
    }
  }

  if (!cli.has_shard) print_footer(v, out);
  std::printf("# points ok: %zu/%zu\n", report.ok_count(),
              report.status.size());
  // The paper's robustness claim, as a semantic gate: PI2 must reconverge
  // at least as fast as PIE on every fault preset. A shard sees only a
  // slice of the grid, so the cross-point comparison is left to --merge.
  if (x.template_id == campaign::TemplateId::kResilience && !cli.has_shard) {
    if (!out.resilience_gate.check()) out.healthy = false;
  }
  return report.all_ok() && out.healthy ? 0 : 1;
}

int run_merge(const campaign::Expansion& x, const CampaignCli& cli,
              const Options& opts) {
  campaign::MergeResult merged;
  const durable::Status status =
      campaign::merge_shards(x, cli.merge_paths, merged);
  if (!status.ok()) {
    std::fprintf(stderr, "pi2_campaign: merge: %s\n",
                 status.message().c_str());
    return status_exit(status);
  }
  if (merged.interrupted > 0) {
    std::fprintf(stderr,
                 "merge: note: %zu interruption marker(s) across shards "
                 "(coverage is complete, so they are historical)\n",
                 merged.interrupted);
  }

  // The merged journal: header + shard 1/1 + every point in global index
  // order — byte-identical to what a serial run writes.
  const std::string journal_file = campaign_journal_path(x, cli, opts);
  durable::JournalWriter journal{journal_file, x.digest,
                                 /*keep_existing=*/false};
  if (!journal.healthy()) {
    std::fprintf(stderr, "pi2_campaign: merge: cannot write %s: %s\n",
                 journal_file.c_str(), journal.status().message().c_str());
    return status_exit(journal.status());
  }
  durable::ShardInfo shard;
  shard.present = true;
  shard.campaign = x.name;
  shard.digest = x.digest;
  shard.index = 1;
  shard.count = 1;
  shard.lo = 0;
  shard.hi = x.points.size();
  durable::Status write = journal.append_shard(shard);
  for (std::size_t i = 0; i < x.points.size() && write.ok(); ++i) {
    write = journal.append_point(x.points[i].key, merged.payloads[i]);
  }
  if (!write.ok()) {
    std::fprintf(stderr, "pi2_campaign: merge: journal write failed: %s\n",
                 write.message().c_str());
    return status_exit(write);
  }

  // Replay the merged payloads through the identical consume path, so the
  // table and --json match a serial run of the same spec. Manifest paths are
  // reconstructed from the point index exactly as --resume does: the shards
  // wrote their telemetry under the same deterministic per-point run ids.
  const TemplateView v{x};
  OutputSinks out{opts, cli};
  const bool telemetry_on = !cli.telemetry_dir.empty();
  for (std::size_t i = 0; i < x.points.size(); ++i) {
    scenario::RunResult result;
    const durable::Status decode =
        durable::decode_result(merged.payloads[i], result);
    if (!decode.ok()) {
      out.abort();
      std::fprintf(stderr,
                   "pi2_campaign: merge: point %zu payload undecodable: %s\n",
                   i, decode.message().c_str());
      return status_exit(durable::Status::corrupt(decode.message()));
    }
    std::string manifest_path;
    if (telemetry_on) {
      manifest_path = cli.telemetry_dir + "/" + detail::point_run_id(i) +
                      ".manifest.json";
    }
    consume_point(v, out, x.points[i], result, manifest_path);
  }
  out.commit();
  print_footer(v, out);
  if (x.template_id == campaign::TemplateId::kResilience) {
    if (!out.resilience_gate.check()) out.healthy = false;
  }
  std::printf("# merged %zu shard journal(s), %zu point(s) -> %s\n",
              merged.shards, x.points.size(), journal_file.c_str());
  return out.healthy ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignCli cli;
  const Options opts = parse_cli(argc, argv, cli);
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (!cli.error.empty()) return usage_error(cli.error);
  if (cli.has_shard && !opts.json_path.empty()) {
    return usage_error("--shard runs journal only; --json belongs to the "
                       "serial or --merge run");
  }

  campaign::CampaignSpec spec;
  std::string err = campaign::load_spec(cli.spec_path, spec);
  if (err.empty()) err = spec.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "pi2_campaign: %s\n", err.c_str());
    return kUsageExit;
  }

  // The response template derives its stats window from the run length
  // (T/10), so an explicit override would be silently ignored.
  if (cli.stats_start_given &&
      spec.template_id() == campaign::TemplateId::kResponse) {
    return usage_error("--stats-start-s: template 'response' derives its "
                       "stats window from the run duration (T/10)");
  }

  campaign::ExpandOptions eo;
  eo.full = opts.full;
  eo.grid_cap = cli.grid_cap;
  eo.min_link_mbps = cli.min_link_mbps;
  eo.duration_s_override = opts.duration_s_override;
  eo.stats_start_s_override = opts.stats_start_s_override;
  eo.use_seed = cli.use_seed;
  eo.seed = opts.seed;
  campaign::Expansion x = campaign::expand(spec, eo);
  // The background tiers change every dumbbell point's result without being
  // part of the spec; folding them into the digest that keys the journal
  // makes --resume and --merge refuse a journal run with other tiers.
  if (cli.packet_background > 0 || cli.fluid_background > 0) {
    durable::Fnv1a h{x.digest};
    h.mix_u64(static_cast<std::uint64_t>(cli.packet_background));
    h.mix_u64(static_cast<std::uint64_t>(cli.fluid_background));
    x.digest = h.state;
  }
  if (x.points.empty()) {
    std::fprintf(stderr, "pi2_campaign: campaign '%s' expands to 0 points "
                 "(grid cap or --min-link-mbps removed everything)\n",
                 x.name.c_str());
    return kUsageExit;
  }

  // Resolve every fault_schedule value up front: an unknown preset or a
  // malformed literal is a spec authoring error, not a mid-run surprise —
  // and TemplateView's schedule-map lookups become total.
  for (std::size_t a = 0; a < x.axes.size(); ++a) {
    if (x.axes[a].name != "fault_schedule") continue;
    const faults::PresetContext ctx =
        resilience_fault_context(x.link_mbps, x.rtt_ms, x.duration_s);
    for (std::size_t j = 0; j < x.axes[a].values.size(); ++j) {
      faults::FaultSchedule schedule;
      const std::string fault_err = faults::resolve_schedule(
          x.axes[a].values[j].text, ctx, &schedule);
      if (!fault_err.empty()) {
        std::fprintf(stderr, "pi2_campaign: axes[%zu].values[%zu]: %s\n", a, j,
                     fault_err.c_str());
        return kUsageExit;
      }
    }
  }

  if (cli.digest_only) {
    std::printf("%016llx\n", static_cast<unsigned long long>(x.digest));
    return 0;
  }
  if (cli.list) return run_list(x);
  if (cli.merge) return run_merge(x, cli, opts);

  print_header(("Campaign " + x.name).c_str(),
               campaign::to_string(x.template_id), opts);
  if (cli.has_shard) {
    const campaign::ShardRange range = campaign::shard_range(
        x.points.size(), cli.shard_index, cli.shard_count);
    std::printf("# shard %zu/%zu: points [%zu, %zu) of %zu\n",
                cli.shard_index, cli.shard_count, range.lo, range.hi,
                x.points.size());
  }
  const TemplateView view{x};
  print_table_header(view);
  return run_campaign(x, cli, opts);
}
