// Shared types of the pi2_perfbench workload driver (workload.cpp runs the
// plain and traced loops, layers.cpp the traced run's per-layer replays).
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"
#include "scenario/dumbbell.hpp"

namespace pi2::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One simulation of a workload. Campaign points also carry the axis values
/// their JSON record and journal key need.
struct Point {
  std::size_t index = 0;
  scenario::DumbbellConfig cfg;
  std::string aqm;
  std::string fault;
  double fluid_flows = 0.0;
  std::uint64_t key = 0;
};

/// Everything a workload runs in one pass, built from its definition (and,
/// for campaign_grid, from the committed spec file).
struct Plan {
  std::string workload;
  bool campaign = false;
  campaign::Expansion expansion;  ///< campaign_grid only
  std::vector<Point> points;
};

/// Builds the plan; throws std::runtime_error on an unknown workload or a
/// spec that fails to load, validate or resolve.
Plan build_plan(const std::string& workload, const std::string& spec_path);

/// JSON fragments: `fields` keeps insertion order, values are JSON text.
struct JsonObject {
  std::vector<std::pair<std::string, std::string>> fields;
  void num(const std::string& key, double value);
  void count(const std::string& key, std::uint64_t value);
  void str(const std::string& key, const std::string& value);
  void raw(const std::string& key, std::string json);
  [[nodiscard]] std::string text() const;
};

/// A completed simulation of one point.
struct PointRun {
  std::size_t index = 0;
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double sim_s = 0.0;
  scenario::RunResult result;
  std::uint64_t record_digest = 0;  ///< campaign_grid's JSON record
};

/// Moves this process to the next CPU it may use, round robin, on each
/// next(), and restores its affinity when destroyed. The reference host's
/// cores slow down and speed up for seconds at a time (other tenants' load),
/// and a sticky process samples one core's state for that long; spreading
/// passes over every allowed CPU samples more of those states per run, so
/// run medians vary less. The process stays single-threaded.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Wall time of a fixed reference job; see workload.cpp.
double reference_kernel_s();

/// Named wall-clock spans recorded from the benchmark's own files around its
/// calls into the simulator's modules; kept in memory, summarised at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::size_t parent = 0;  ///< index + 1 of the enclosing span, 0 = root
    double start_s = 0.0;
    double end_s = 0.0;
  };

  std::size_t open(const std::string& name);
  void close(std::size_t id);
  /// Per name: calls, total seconds and self seconds (total minus the
  /// time covered by direct children).
  [[nodiscard]] std::string summary_json() const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null tracer makes it free.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// Scratch locations of a run (all inside the checkout's build directory).
struct Env {
  std::string tmp_dir;
  std::string spec_path;
  std::size_t rotation = 0;  ///< campaign pass start point, from --seed
};

/// Runs one pass over the plan's points in rotated order; campaign points go
/// through the runner, journal, telemetry recorder and JSON emitter exactly
/// as pi2_campaign drives them. Results come back in plan-index order.
std::vector<PointRun> run_pass(const Plan& plan, const Env& env,
                               Tracer* tracer, std::size_t* retries);

/// The traced run's per-layer metrics (see perfbench/README.md).
JsonObject measure_layers(const Plan& plan, const Env& env,
                          const std::vector<PointRun>& sample,
                          double budget_s);

}  // namespace pi2::perfbench
