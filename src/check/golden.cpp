#include "check/golden.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/json.hpp"

namespace pi2::check {

namespace {

/// Fills `out` from one parsed record: strings stay strings, numbers and
/// bools (as 1/0) become numbers; a nested or null value is an error.
bool flat_record(const campaign::JsonValue& value, JsonRecord* out,
                 std::string* error) {
  using Type = campaign::JsonValue::Type;
  if (value.type != Type::kObject) {
    *error = "expected a flat object";
    return false;
  }
  out->numbers.clear();
  out->strings.clear();
  for (const auto& [key, field] : value.fields) {
    if (field.type == Type::kString) {
      out->strings[key] = field.text;
    } else if (field.type == Type::kNumber) {
      out->numbers[key] = field.number;
    } else if (field.type == Type::kBool) {
      out->numbers[key] = field.boolean ? 1.0 : 0.0;
    } else {
      *error = "value under key '" + key +
               "' is not a string, number or bool (flat objects only)";
      return false;
    }
  }
  return true;
}

std::string record_label(const std::vector<JsonRecord>& records, std::size_t i) {
  std::string label = "record " + std::to_string(i);
  const auto& r = records[i];
  if (auto it = r.strings.find("aqm"); it != r.strings.end()) {
    label += " (" + it->second;
    if (auto mix = r.strings.find("mix"); mix != r.strings.end()) {
      label += ", " + mix->second;
    }
    label += ")";
  }
  return label;
}

}  // namespace

bool parse_flat_object(const std::string& text, JsonRecord* out,
                       std::string* error) {
  campaign::JsonValue value;
  *error = campaign::parse_json(text, value);
  return error->empty() && flat_record(value, out, error);
}

std::vector<JsonRecord> parse_records(const std::string& path, std::string* error) {
  std::ifstream in{path};
  if (!in) {
    *error = "cannot open " + path;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  campaign::JsonValue doc;
  *error = campaign::parse_json(buf.str(), doc);
  if (!error->empty()) {
    *error = path + ": " + *error;
    return {};
  }
  if (doc.type != campaign::JsonValue::Type::kArray) {
    *error = path + ": expected a JSON array";
    return {};
  }
  std::vector<JsonRecord> records(doc.items.size());
  for (std::size_t i = 0; i < doc.items.size(); ++i) {
    if (!flat_record(doc.items[i], &records[i], error)) {
      *error = path + ": record " + std::to_string(i) + ": " + *error;
      return {};
    }
  }
  return records;
}

GoldenOptions default_golden_options() {
  GoldenOptions options;
  options.default_rel_tol = 0.10;
  // Headline figure metrics: tight bands.
  options.metric_rel_tol["utilization"] = 0.05;
  options.metric_rel_tol["mean_qdelay_ms"] = 0.10;
  options.metric_rel_tol["p99_qdelay_ms"] = 0.15;
  options.metric_rel_tol["signal_rate"] = 0.20;
  options.metric_rel_tol["cubic_mbps"] = 0.10;
  options.metric_rel_tol["other_mbps"] = 0.10;
  // Raw counts drift more with tiny timing differences: loose bands.
  options.metric_rel_tol["enqueued"] = 0.15;
  options.metric_rel_tol["forwarded"] = 0.15;
  options.metric_rel_tol["aqm_dropped"] = 0.50;
  options.metric_rel_tol["tail_dropped"] = 0.50;
  options.metric_rel_tol["marked"] = 0.50;
  options.metric_rel_tol["events_executed"] = 0.20;
  // Machinery health: any nonzero is a regression, so the band is absolute
  // (abs_floor) — these are 0 in every committed baseline.
  options.metric_rel_tol["invariant_violations"] = 0.0;
  options.metric_rel_tol["clamped_events"] = 0.0;
  options.metric_rel_tol["guard_events"] = 0.0;
  // fig_response settle metrics: -1 means "never settled", so relative
  // bands work for both signs; peaks wobble more.
  options.metric_rel_tol["settle_drop_s"] = 0.25;
  options.metric_rel_tol["settle_rise_s"] = 0.25;
  options.metric_rel_tol["peak_qdelay_ms"] = 0.25;
  // Resilience recovery metrics share the settle semantics (-1 = never
  // reconverged, so a sign flip always trips a relative band); the
  // post-fault delta hovers near zero, so it gets a loose band.
  options.metric_rel_tol["worst_recovery_s"] = 0.25;
  options.metric_rel_tol["mean_recovery_s"] = 0.25;
  options.metric_rel_tol["post_fault_delta_ms"] = 0.50;
  // A violation in quiet time is a regression at any count.
  options.metric_rel_tol["violations_outside"] = 0.0;
  return options;
}

std::vector<std::string> compare_golden(const std::string& baseline_path,
                                        const std::string& candidate_path,
                                        const GoldenOptions& options) {
  std::vector<std::string> mismatches;
  std::string error;
  const auto baseline = parse_records(baseline_path, &error);
  if (!error.empty()) return {"baseline: " + error};
  const auto candidate = parse_records(candidate_path, &error);
  if (!error.empty()) return {"candidate: " + error};

  if (baseline.size() != candidate.size()) {
    mismatches.push_back("record count differs: baseline " +
                         std::to_string(baseline.size()) + " vs candidate " +
                         std::to_string(candidate.size()));
  }
  const auto ignored = [&options](const std::string& key) {
    return std::find(options.ignore_fields.begin(), options.ignore_fields.end(),
                     key) != options.ignore_fields.end();
  };
  const std::size_t n = std::min(baseline.size(), candidate.size());
  for (std::size_t i = 0; i < n; ++i) {
    const JsonRecord& b = baseline[i];
    const JsonRecord& c = candidate[i];
    const std::string label = record_label(baseline, i);

    for (const auto& [key, value] : b.strings) {
      if (ignored(key)) continue;
      const auto it = c.strings.find(key);
      if (it == c.strings.end()) {
        mismatches.push_back(label + ": candidate missing field \"" + key + "\"");
      } else if (it->second != value) {
        mismatches.push_back(label + ": \"" + key + "\" differs: baseline \"" +
                             value + "\" vs candidate \"" + it->second + "\"");
      }
    }
    for (const auto& [key, value] : b.numbers) {
      if (ignored(key)) continue;
      const auto it = c.numbers.find(key);
      if (it == c.numbers.end()) {
        mismatches.push_back(label + ": candidate missing field \"" + key + "\"");
        continue;
      }
      const double got = it->second;
      bool exact = false;
      for (const auto& field : options.exact_fields) exact = exact || field == key;
      double rel_tol = options.default_rel_tol;
      if (const auto tol = options.metric_rel_tol.find(key);
          tol != options.metric_rel_tol.end()) {
        rel_tol = tol->second;
      }
      const double diff = std::abs(got - value);
      const double scale = std::max(std::abs(got), std::abs(value));
      const bool pass = exact ? got == value
                              : diff <= options.abs_floor || diff <= rel_tol * scale;
      if (!pass) {
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "\"%s\" out of band: baseline %.9g vs candidate %.9g "
                      "(rel %.3g > tol %.3g)",
                      key.c_str(), value, got, scale > 0 ? diff / scale : 0.0,
                      exact ? 0.0 : rel_tol);
        mismatches.push_back(label + ": " + buf);
      }
    }
    for (const auto& [key, value] : c.numbers) {
      (void)value;
      if (ignored(key)) continue;
      if (b.numbers.count(key) == 0 && b.strings.count(key) == 0) {
        mismatches.push_back(label + ": candidate has extra field \"" + key + "\"");
      }
    }
  }
  return mismatches;
}

std::string write_perturbed_copy(const std::string& baseline_path,
                                 const std::string& out_path,
                                 const GoldenOptions& options) {
  std::string error;
  auto records = parse_records(baseline_path, &error);
  if (!error.empty() || records.empty()) return "";

  // Pick the first tolerance-checked (non-exact) metric of record 0 and push
  // it far outside its band.
  std::string perturbed;
  for (auto& [key, value] : records[0].numbers) {
    bool exact = false;
    for (const auto& field : options.exact_fields) exact = exact || field == key;
    if (exact) continue;
    double rel_tol = options.default_rel_tol;
    if (const auto tol = options.metric_rel_tol.find(key);
        tol != options.metric_rel_tol.end()) {
      rel_tol = tol->second;
    }
    const double bump = std::max({std::abs(value) * (3.0 * rel_tol + 0.5),
                                  10.0 * options.abs_floor, 1.0});
    value += bump;
    perturbed = key;
    break;
  }
  if (perturbed.empty()) return "";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return "";
  std::fputs("[", out);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(out, "%s\n  {", i == 0 ? "" : ",");
    bool first = true;
    for (const auto& [key, value] : records[i].strings) {
      std::fprintf(out, "%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                   value.c_str());
      first = false;
    }
    for (const auto& [key, value] : records[i].numbers) {
      std::fprintf(out, "%s\"%s\": %.17g", first ? "" : ", ", key.c_str(), value);
      first = false;
    }
    std::fputs("}", out);
  }
  std::fputs("\n]\n", out);
  std::fclose(out);
  return perturbed;
}

}  // namespace pi2::check
