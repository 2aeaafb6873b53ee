// The --json record of one campaign point. pi2_campaign writes one record
// per point through write_record: the framing ("index", "status", an
// optional "telemetry_manifest") around the fields its template lists.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

#include "durable/atomic_file.hpp"

namespace pi2::campaign {

/// The fields of one record after "index" and "status", in order. A
/// value's format follows its type: strings quoted and escaped, floating
/// point as %.6g, integers in full.
class RecordFields {
 public:
  RecordFields& add(std::string_view key, std::string_view value);
  template <typename T>
    requires std::is_arithmetic_v<T>
  RecordFields& add(std::string_view key, T value) {
    if constexpr (std::is_floating_point_v<T>) {
      return add_double(key, static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      return add_signed(key, static_cast<long long>(value));
    } else {
      return add_unsigned(key, static_cast<unsigned long long>(value));
    }
  }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  RecordFields& add_double(std::string_view key, double value);
  RecordFields& add_signed(std::string_view key, long long value);
  RecordFields& add_unsigned(std::string_view key, unsigned long long value);
  RecordFields& append(std::string_view key, std::string_view value);

  std::string text_;
};

/// Writes one record of a --json array: the separator, "index", "status",
/// the fields and, when non-empty, "telemetry_manifest".
void write_record(durable::AtomicFile& json, bool& first, std::size_t index,
                  const char* status, const RecordFields& fields,
                  const std::string& manifest_path = "");

}  // namespace pi2::campaign
