// pi2_campaign: the declarative campaign driver and the only driver of the
// grid figures (Figures 15-18, overload, parking lot, RTT mix, resilience,
// the section 4.4 capacity-step response).
// A committed spec file (campaigns/*.json) names a scenario template and
// its axes, expand() turns it into an ordered grid, and the template's one
// descriptor in campaign_templates.hpp supplies the per-point config, table
// row, JSON fields, health predicate and cross-point hook; the driver
// writes every record's framing and every failed point itself.
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

/// The driver's sinks: one atomically published JSON array and the
/// campaign's health.
struct OutputSinks {
  std::unique_ptr<durable::AtomicFile> json;
  bool json_first = true;
  bool healthy = true;

  explicit OutputSinks(const Options& opts) {
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

/// Consumes one completed point through its template: table row,
/// cross-point hook, ok record and health predicate. Runs on the calling
/// thread in global index order — the same consume path for live, resumed
/// and merged points.
void consume_point(const TemplateDescriptor& t, OutputSinks& out,
                   const PointView& v, const scenario::RunResult& result,
                   const std::string& manifest_path) {
  t.print_row(v, result);
  if (t.record) t.record(v, result);
  if (out.json != nullptr) {
    RecordFields fields;
    t.fields(v, result, fields);
    write_record(*out.json, out.json_first, v.p.index, "ok", fields,
                 manifest_path);
  }
  if (!t.healthy(v, result)) out.healthy = false;
}

/// A failed or timed-out point, the same for every template: the record
/// holds each axis value as --list prints it, plus the error.
void consume_failed(const campaign::Expansion& x, OutputSinks& out,
                    const campaign::CampaignPoint& p,
                    runner::TaskStatus status, const std::string& message) {
  out.healthy = false;
  std::string axes;
  RecordFields fields;
  for (std::size_t a = 0; a < x.axes.size(); ++a) {
    const campaign::AxisValue& value = p.values[a];
    axes += (a == 0 ? "" : " ") + x.axes[a].name + "=" + axis_value_str(value);
    if (value.is_number) {
      fields.add(x.axes[a].name, value.number);
    } else {
      fields.add(x.axes[a].name, value.text);
    }
  }
  std::printf("!! point %zu (%s) %s: %s\n", p.index, axes.c_str(),
              runner::to_string(status), message.c_str());
  if (out.json != nullptr) {
    fields.add("error", message);
    write_record(*out.json, out.json_first, p.index,
                 runner::to_string(status), fields);
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

int run_campaign(const campaign::Expansion& x, const TemplateDescriptor& t,
                 const CampaignCli& cli, const Options& opts) {
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

  OutputSinks out{opts};
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
          outcome.result = t.run(PointView{x, x.points[range.lo + j]},
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
          consume_failed(x, out, p, status, message);
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
        consume_point(t, out, PointView{x, p}, outcome->result,
                      manifest_path);
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

  if (!cli.has_shard && t.footer) t.footer(out.healthy);
  std::printf("# points ok: %zu/%zu\n", report.ok_count(),
              report.status.size());
  // A shard sees only a slice of the grid, so the cross-point gate is left
  // to --merge.
  if (!cli.has_shard && t.gate && !t.gate()) out.healthy = false;
  return report.all_ok() && out.healthy ? 0 : 1;
}

int run_merge(const campaign::Expansion& x, const TemplateDescriptor& t,
              const CampaignCli& cli, const Options& opts) {
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
  OutputSinks out{opts};
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
    consume_point(t, out, PointView{x, x.points[i]}, result, manifest_path);
  }
  out.commit();
  if (t.footer) t.footer(out.healthy);
  if (t.gate && !t.gate()) out.healthy = false;
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
  // and the resolved schedules are the ones the points run.
  TemplateInputs inputs{opts, cli.packet_background, cli.fluid_background,
                        {}};
  for (std::size_t a = 0; a < x.axes.size(); ++a) {
    if (x.axes[a].name != "fault_schedule") continue;
    const faults::PresetContext ctx =
        resilience_fault_context(x.link_mbps, x.rtt_ms, x.duration_s);
    for (std::size_t j = 0; j < x.axes[a].values.size(); ++j) {
      faults::FaultSchedule schedule;
      const std::string& value = x.axes[a].values[j].text;
      const std::string fault_err =
          faults::resolve_schedule(value, ctx, &schedule);
      if (!fault_err.empty()) {
        std::fprintf(stderr, "pi2_campaign: axes[%zu].values[%zu]: %s\n", a, j,
                     fault_err.c_str());
        return kUsageExit;
      }
      inputs.schedules.emplace(value, std::move(schedule));
    }
  }

  if (cli.digest_only) {
    std::printf("%016llx\n", static_cast<unsigned long long>(x.digest));
    return 0;
  }
  if (cli.list) return run_list(x);
  const TemplateDescriptor t = template_descriptor(x.template_id, inputs);
  if (cli.merge) return run_merge(x, t, cli, opts);

  print_header(("Campaign " + x.name).c_str(),
               campaign::to_string(x.template_id), opts);
  if (cli.has_shard) {
    const campaign::ShardRange range = campaign::shard_range(
        x.points.size(), cli.shard_index, cli.shard_count);
    std::printf("# shard %zu/%zu: points [%zu, %zu) of %zu\n",
                cli.shard_index, cli.shard_count, range.lo, range.hi,
                x.points.size());
  }
  t.print_header(x);
  return run_campaign(x, t, cli, opts);
}
