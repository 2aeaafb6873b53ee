// The repo's one JSON reader: a hand-rolled (dependency-free) parser for
// objects, arrays, strings, finite numbers, bools and null. The campaign
// spec loader (campaign/spec.cpp) and the golden/telemetry record checks
// (check/golden.cpp) both read through it.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace pi2::campaign {

/// One parsed JSON value. Object field order is preserved so strict key
/// checking can point at the offending key. A number also keeps its raw
/// token in `text`.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;
};

/// Parses one JSON document into `out`. Returns "" on success, else
/// "<what> at offset N". Non-finite numbers (nan, inf, overflow) are
/// errors; callers prefix the message with their own context.
[[nodiscard]] std::string parse_json(const std::string& text, JsonValue& out);

}  // namespace pi2::campaign
