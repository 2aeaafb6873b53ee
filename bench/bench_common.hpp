// Shared plumbing for the figure-reproduction binaries: the strict CLI
// parser and the flags every binary shares, the table header, and the
// Cubic-vs-X flow mixes of Figures 15-20.
//
// Every binary prints the same rows/series the paper reports. By default
// shortened durations keep the whole suite runnable quickly; pass --full for
// the paper-scale parameters. Grid figures run through pi2_campaign, which
// adds its own flags (--jobs, --resume, --telemetry, ...) through the
// parse_options hook.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <system_error>

#include "scenario/dumbbell.hpp"

namespace pi2::bench {

struct Options {
  bool full = false;
  std::uint64_t seed = 1;
  /// If non-empty, binaries that emit machine-readable records write them
  /// to this path (in addition to the printed table).
  std::string json_path;
  /// --smoke: tiny durations for CI runs.
  bool smoke = false;
  /// Overrides for smoke/CI runs (0 = use the quick/full mode defaults).
  double duration_s_override = 0;
  double stats_start_s_override = 0;
};

/// Exit code for malformed command lines (unknown flag, missing value, a
/// number with trailing garbage); pi2_campaign uses it for bad specs too.
inline constexpr int kUsageExit = 17;

[[noreturn]] inline void flag_error(const char* argv0, const std::string& flag,
                                    const std::string& what) {
  std::fprintf(stderr, "%s: %s: %s (see --help)\n", argv0, flag.c_str(),
               what.c_str());
  std::exit(kUsageExit);
}

/// The value after the flag at argv[i] (advancing i); exits 17 when the
/// command line ends first.
inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) flag_error(argv[0], argv[i], "missing value");
  return argv[++i];
}

/// The flag's value parsed as a T in full; exits 17 on anything else
/// ("abc", "1x", "", or a sign an unsigned T cannot take).
template <typename T>
T flag_number(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  const char* text = flag_value(argc, argv, i);
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    flag_error(argv[0], flag, "'" + std::string(text) + "' is not a number");
  }
  return value;
}

/// A driver's own flags, tried before the shared ones: returns true when it
/// took argv[i] (advancing i past any value), false to hand it on.
using FlagHook = std::function<bool(const std::string& arg, int& i)>;

/// The shared flags' help text; pi2_campaign prints it beside its own.
inline constexpr const char* kSharedFlagHelp =
    "  --full      paper-scale parameters and durations (slower)\n"
    "  --seed N    RNG seed (default 1)\n"
    "  --smoke     tiny durations (CI smoke testing)\n"
    "  --duration-s S / --stats-start-s S\n"
    "              override the run duration and stats-window start (later\n"
    "              flags win, so they can refine --smoke; 0 = keep the mode\n"
    "              default)\n"
    "  --json PATH also write machine-readable records to PATH (binaries\n"
    "              that emit them)\n"
    "An unknown flag, a missing value or a malformed number exits 17.\n";

inline Options parse_options(int argc, char** argv, const FlagHook& hook = {}) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (hook && hook(arg, i)) continue;
    if (arg == "--full") {
      opts.full = true;
    } else if (arg == "--seed") {
      opts.seed = flag_number<std::uint64_t>(argc, argv, i);
    } else if (arg == "--json") {
      opts.json_path = flag_value(argc, argv, i);
    } else if (arg == "--smoke") {
      opts.smoke = true;
      opts.duration_s_override = 4.0;
      opts.stats_start_s_override = 1.0;
    } else if (arg == "--duration-s") {
      opts.duration_s_override = flag_number<double>(argc, argv, i);
    } else if (arg == "--stats-start-s") {
      opts.stats_start_s_override = flag_number<double>(argc, argv, i);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--full] [--seed N] [--smoke] [--duration-s S]\n"
                  "          [--stats-start-s S] [--json PATH]\n%s",
                  argv[0], kSharedFlagHelp);
      std::exit(0);
    } else {
      flag_error(argv[0], arg, "unknown flag");
    }
  }
  return opts;
}

inline void print_header(const char* figure, const char* description,
                         const Options& opts) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# mode: %s\n", opts.full ? "full (paper-scale)" : "quick (reduced)");
}

/// Durations for the steady-state runs.
inline pi2::sim::Time run_duration(const Options& opts) {
  if (opts.duration_s_override > 0) {
    return pi2::sim::from_seconds(opts.duration_s_override);
  }
  return pi2::sim::from_seconds(opts.full ? 100.0 : 40.0);
}

inline pi2::sim::Time stats_start(const Options& opts) {
  if (opts.stats_start_s_override > 0) {
    return pi2::sim::from_seconds(opts.stats_start_s_override);
  }
  return pi2::sim::from_seconds(opts.full ? 30.0 : 15.0);
}

/// One Cubic-vs-X flow mix at a grid point (the Figure 15-18 scenarios).
enum class MixKind { kCubicVsDctcp, kCubicVsEcnCubic };

inline const char* to_string(MixKind kind) {
  return kind == MixKind::kCubicVsDctcp ? "cubic/dctcp" : "cubic/ecn-cubic";
}

/// `packet_background` / `fluid_background` add that many Reno flows to
/// the mix as real packet flows or as one fluid spec (the same load at
/// different engine tiers; 0 = none).
inline scenario::DumbbellConfig mix_config(scenario::AqmType aqm, MixKind kind,
                                           double link_mbps, double rtt_ms,
                                           const Options& opts,
                                           int packet_background,
                                           int fluid_background,
                                           int n_cubic = 1, int n_other = 1) {
  scenario::DumbbellConfig cfg;
  cfg.link_rate_bps = link_mbps * 1e6;
  cfg.duration = run_duration(opts);
  cfg.stats_start = stats_start(opts);
  cfg.seed = opts.seed;
  cfg.aqm.type = aqm;
  // The paper's PIE coexistence runs rework the 10% mark->drop switchover
  // (section 5) to avoid its discontinuity; always-mark reproduces that.
  cfg.aqm.ecn_drop_threshold = 1.0;
  if (n_cubic > 0) {
    scenario::TcpFlowSpec cubic;
    cubic.cc = tcp::CcType::kCubic;
    cubic.count = n_cubic;
    cubic.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(cubic);
  }
  if (n_other > 0) {
    scenario::TcpFlowSpec other;
    other.cc = kind == MixKind::kCubicVsDctcp ? tcp::CcType::kDctcp
                                              : tcp::CcType::kEcnCubic;
    other.count = n_other;
    other.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(other);
  }
  // Background load, at either engine tier. Reno in both renderings so the
  // per-cc foreground means (cubic_mbps / other_mbps) stay comparable.
  if (packet_background > 0) {
    scenario::TcpFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = packet_background;
    bg.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.tcp_flows.push_back(bg);
  }
  if (fluid_background > 0) {
    scenario::FluidFlowSpec bg;
    bg.cc = tcp::CcType::kReno;
    bg.count = fluid_background;
    bg.base_rtt = pi2::sim::from_millis(rtt_ms);
    cfg.fluid_flows.push_back(bg);
  }
  return cfg;
}

inline tcp::CcType other_cc(MixKind kind) {
  return kind == MixKind::kCubicVsDctcp ? tcp::CcType::kDctcp
                                        : tcp::CcType::kEcnCubic;
}

}  // namespace pi2::bench
