// Golden-figure regression comparison.
//
// pi2_campaign --json emits one flat JSON record per grid point (each
// template's field list in bench/campaign_templates.hpp). A golden baseline
// is such a file committed under tests/golden/; the comparator re-parses
// baseline and candidate and checks them record by record:
//
//   * string fields (aqm, mix, status, ...) and structural fields (index)
//     must match exactly;
//   * numeric fields must agree within a per-metric relative tolerance band
//     (|a - b| <= rel_tol * max(|a|, |b|) or <= abs_floor near zero), so the
//     guard survives benign cross-toolchain floating-point drift while still
//     pinning every headline metric of figs 15-18 and fig_response.
//
// Records are read through the campaign JSON reader (campaign/json.hpp) and
// must be flat objects with string / number / bool values; a non-finite
// number is a parse error. The telemetry JSONL parse-back oracle reads its
// rows (one flat object per line) the same way.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace pi2::check {

/// One flat JSON record: {"name": 1.5, "other": "text", ...}.
struct JsonRecord {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// Parses a single flat JSON object. Returns false (and fills *error) on
/// malformed input; nested objects/arrays and null are rejected.
bool parse_flat_object(const std::string& text, JsonRecord* out,
                       std::string* error);

/// Parses a file holding a JSON array of flat objects (the --json sweep
/// format). On failure returns an empty vector and fills *error.
std::vector<JsonRecord> parse_records(const std::string& path, std::string* error);

struct GoldenOptions {
  /// Tolerance for numeric fields without a per-metric entry.
  double default_rel_tol = 0.10;
  /// Absolute slack near zero: |a - b| <= abs_floor always passes.
  double abs_floor = 1e-6;
  /// Per-metric relative tolerances (overrides the default).
  std::map<std::string, double> metric_rel_tol;
  /// Fields that must match bit-exactly (beyond the always-exact strings).
  std::vector<std::string> exact_fields = {"index", "seed", "link_mbps", "rtt_ms"};
  /// Fields skipped entirely — not compared, and allowed to be missing on
  /// either side. For baselines whose candidate is produced by a different
  /// engine tier (e.g. fluid background vs packet background on the same
  /// figure): the headline metrics must still agree, but packet/event
  /// counts legitimately differ by construction.
  std::vector<std::string> ignore_fields;
};

/// The tolerance table used by the committed baselines: tight bands on the
/// headline metrics, looser ones on raw event/packet counts.
[[nodiscard]] GoldenOptions default_golden_options();

/// Compares candidate against baseline. Returns one message per mismatch
/// (empty = pass). Missing/extra records and missing fields are mismatches.
std::vector<std::string> compare_golden(const std::string& baseline_path,
                                        const std::string& candidate_path,
                                        const GoldenOptions& options);

/// Self-test helper: copies `baseline_path` to `out_path`, bumping the first
/// tolerance-checked numeric field of the first record far beyond its band.
/// Returns the name of the perturbed field ("" on I/O or parse failure).
std::string write_perturbed_copy(const std::string& baseline_path,
                                 const std::string& out_path,
                                 const GoldenOptions& options);

}  // namespace pi2::check
