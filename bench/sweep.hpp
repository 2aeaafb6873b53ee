// Per-point plumbing shared by the grid drivers (bench/pi2_campaign and
// fig_response): the guarded runner's retry/deadline options, the
// --inject-fail/--inject-hang test hooks, per-point telemetry recorder
// configs and the default journal location.
//
// Grid points are independent simulations that fan out across --jobs worker
// threads via runner::ParallelRunner; results are consumed in submission
// order on the calling thread, so every table and --json artifact is
// byte-identical to a serial run regardless of the job count. A point that
// throws or exceeds the --deadline-s watchdog is retried (--retries, with
// --backoff-ms exponential backoff) and, if it still fails, reported as
// `failed`/`timeout` while every other point completes normally.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "durable/atomic_file.hpp"
#include "durable/journal.hpp"
#include "durable/result_codec.hpp"
#include "durable/shutdown.hpp"
#include "durable/status.hpp"
#include "runner/parallel_runner.hpp"
#include "sim/rng.hpp"
#include "telemetry/recorder.hpp"

namespace pi2::bench {

inline const char* aqm_label(scenario::AqmType aqm) {
  return aqm == scenario::AqmType::kPie ? "PIE" : "PI2(coupled)";
}

/// Escapes error messages and paths embedded in JSON records.
using durable::json_escape;

namespace detail {
/// Test hook honoring --inject-fail / --inject-hang: makes one grid point
/// misbehave so the partial-failure path can be exercised end to end. The
/// hang polls the shutdown flag so an interrupted sweep still stops at a
/// point boundary instead of waiting out the full stall.
inline void maybe_inject(const Options& opts, std::size_t i) {
  if (opts.inject_fail >= 0 &&
      static_cast<std::size_t>(opts.inject_fail) == i) {
    throw std::runtime_error("injected failure (--inject-fail " +
                             std::to_string(i) + ")");
  }
  if (opts.inject_hang >= 0 &&
      static_cast<std::size_t>(opts.inject_hang) == i) {
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(opts.hang_s));
    while (std::chrono::steady_clock::now() < end) {
      if (durable::ShutdownController::requested()) {
        throw durable::InterruptedError(
            "injected hang interrupted by shutdown request");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

inline runner::GuardOptions guard_options(const Options& opts) {
  runner::GuardOptions guard;
  guard.retry.attempt_deadline = std::chrono::milliseconds(
      static_cast<long long>(opts.deadline_s * 1000.0));
  guard.retry.max_attempts = 1 + std::max(0, opts.retries);
  guard.retry.backoff_base = std::chrono::milliseconds(opts.backoff_ms);
  guard.retry.jitter_seed = opts.seed;
  guard.cancel = durable::ShutdownController::flag();
  return guard;
}

inline std::string point_run_id(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "point_%04zu", i);
  return buf;
}

inline telemetry::RecorderConfig point_recorder_config(const Options& opts,
                                                       std::size_t i) {
  telemetry::RecorderConfig rc;
  rc.dir = opts.telemetry_dir;
  rc.run_id = point_run_id(i);
  if (opts.telemetry_interval_s > 0) {
    rc.interval = pi2::sim::from_seconds(opts.telemetry_interval_s);
  }
  return rc;
}

/// Journal location: --journal wins, then `<json>.journal`, then
/// `<binary basename>.journal` in the working directory.
inline std::string journal_path(const Options& opts) {
  if (!opts.journal_path.empty()) return opts.journal_path;
  if (!opts.json_path.empty()) return opts.json_path + ".journal";
  std::string base = opts.argv0.empty() ? "sweep" : opts.argv0;
  const std::size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  return base + ".journal";
}

}  // namespace detail

}  // namespace pi2::bench
