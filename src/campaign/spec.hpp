// Campaign spec: the declarative grid language behind bench/pi2_campaign.
//
// A campaign is a JSON-subset file that names a scenario *template* (which
// figure family builds the per-point config) and lists its *axes* (the
// swept parameters). expand() turns the spec into an ordered point list —
// row-major, last axis fastest — and stamps the whole expansion with a
// stable FNV-1a digest. The digest covers everything that determines
// results (template, seed, durations, resolved axis values *after* smoke
// capping), so a journal keyed by it can never replay points from a grid
// that no longer exists.
//
// Spec grammar (strict: unknown keys are parse errors):
//
//   {
//     "name": "fig15_18",              // campaign identity (journal checks)
//     "template": "dumbbell_sweep",    // | "overload" | "parking_lot"
//                                      // | "rtt_mix" | "resilience"
//                                      // | "response"
//     "seed": 1,                       // base RNG seed (CLI --seed overrides)
//     "link_mbps": 10,                 // optional fixed-parameter overrides
//     "rtt_ms": 10,
//     "axes": [
//       {"name": "aqm", "cap": false, "values": ["pie", "coupled-pi2"]},
//       {"name": "rate_mbps", "values": [4, 40, 120],
//        "full": [4, 12, 40, 120, 200]}
//     ]
//   }
//
// Per axis: `values` is the quick grid, `full` (optional) the --full grid,
// and `cap` (default true) says whether --grid-cap truncates the axis, so
// --smoke caps the numeric grids but never the AQM/mix enumerations of the
// Figures 15-18 sweep.
//
// The campaign layer is deliberately scenario-free: axis values are strings
// and numbers, and bench/pi2_campaign maps them onto scenario types. That
// keeps pi2_campaign (the library) linkable from tests and check oracles
// without dragging in the simulator. `fault_schedule` axis values follow the
// same rule: the spec treats them as opaque non-empty strings (preset names
// or inline literals, see faults/fault_presets.hpp) folded into the digest,
// and the driver resolves them against the faults registry at run time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pi2::campaign {

/// Scenario families a spec can instantiate; each maps to one
/// TemplateDescriptor in bench/campaign_templates.hpp.
enum class TemplateId {
  kDumbbellSweep,
  kOverload,
  kParkingLot,
  kRttMix,
  kResilience,
  kResponse,
};

[[nodiscard]] const char* to_string(TemplateId id);

/// All recognizable axis names, alphabetical — the same set (and order) the
/// unknown-axis validate() message lists. For CLI enumeration (--list/--help).
[[nodiscard]] const std::vector<std::string>& axis_names();

/// All template names, declaration order.
[[nodiscard]] const std::vector<std::string>& template_names();

/// The axes the named template requires (all of them mandatory in a spec);
/// empty for an unknown name.
[[nodiscard]] const std::vector<std::string>& axes_of_template(
    const std::string& name);

/// One swept value: a finite double or a non-empty string, never both.
struct AxisValue {
  bool is_number = false;
  double number = 0.0;
  std::string text;

  [[nodiscard]] bool operator==(const AxisValue& other) const {
    return is_number == other.is_number && number == other.number &&
           text == other.text;
  }
};

[[nodiscard]] AxisValue axis_number(double v);
[[nodiscard]] AxisValue axis_text(std::string v);

struct Axis {
  std::string name;
  /// --grid-cap truncates this axis (numeric grids are capped, the sweep's
  /// AQM/mix enumerations are not).
  bool cap = true;
  std::vector<AxisValue> values;       ///< quick-mode grid
  std::vector<AxisValue> full_values;  ///< --full grid (empty = use `values`)
};

struct CampaignSpec {
  std::string name;
  std::string template_name;
  std::uint64_t seed = 1;
  std::vector<Axis> axes;
  /// Fixed-parameter overrides (0 = the template's default: 10 Mb/s link,
  /// 10 ms RTT for the single-bottleneck templates; 40 Mb/s for response).
  double link_mbps = 0;
  double rtt_ms = 0;

  /// "" when the spec is well-formed; otherwise one message in the
  /// TopologyConfig::validate() house style ("axes[1].values[0] must ...").
  [[nodiscard]] std::string validate() const;

  /// Only meaningful when validate() == "".
  [[nodiscard]] TemplateId template_id() const;
};

/// Parses a spec from JSON text. Returns "" and fills `spec` on success,
/// else a parse-level error message ("spec: ..."). Semantic checks live in
/// validate(), not here.
[[nodiscard]] std::string parse_spec(const std::string& text,
                                     CampaignSpec& spec);

/// Reads and parses the file at `path`.
[[nodiscard]] std::string load_spec(const std::string& path,
                                    CampaignSpec& spec);

/// Canonical serialization: parse_spec(serialize_spec(s)) reproduces `s`
/// exactly (field order, shortest round-trip number formatting).
[[nodiscard]] std::string serialize_spec(const CampaignSpec& spec);

/// The mode/override knobs the CLI resolves before expansion (the shared
/// --full / --smoke / --grid-cap / --min-link-mbps flags).
struct ExpandOptions {
  bool full = false;
  int grid_cap = 0;             ///< truncate cap-enabled axes to this length
  double min_link_mbps = 0;     ///< drop rate_mbps values below this
  double duration_s_override = 0;
  /// Ignored by the response template, whose stats window is T/10.
  double stats_start_s_override = 0;
  bool use_seed = false;        ///< replace the spec's seed (CLI --seed)
  std::uint64_t seed = 0;
};

struct CampaignPoint {
  std::size_t index = 0;    ///< global position, row-major over the axes
  std::uint64_t seed = 0;   ///< sim::Rng::derive_seed(base_seed, index)
  std::uint64_t key = 0;    ///< journal key (digest + index + seed + values)
  std::vector<AxisValue> values;  ///< aligned with Expansion::axes
};

/// A fully resolved campaign: the ordered point list plus everything the
/// runner needs to rebuild any point's config.
struct Expansion {
  std::string name;
  TemplateId template_id = TemplateId::kDumbbellSweep;
  std::uint64_t base_seed = 1;
  double duration_s = 0;
  double stats_start_s = 0;
  double link_mbps = 0;   ///< resolved (template default applied)
  double rtt_ms = 0;
  std::vector<Axis> axes;  ///< post mode-selection/filter/cap; values only
  std::vector<CampaignPoint> points;
  std::uint64_t digest = 0;

  /// Index of `axis` in `axes`, or -1.
  [[nodiscard]] int axis_of(const std::string& axis) const;
  /// Value of `axis` at `point`; requires the axis to exist with the right
  /// kind (expansion comes from a validated spec, so lookups are total).
  [[nodiscard]] double number(const CampaignPoint& point,
                              const std::string& axis) const;
  [[nodiscard]] const std::string& text(const CampaignPoint& point,
                                        const std::string& axis) const;
};

/// Expands a *validated* spec. Order is row-major over the axes as listed
/// (last axis fastest); per-point seeds derive from (base seed, index).
[[nodiscard]] Expansion expand(const CampaignSpec& spec,
                               const ExpandOptions& opts);

}  // namespace pi2::campaign
