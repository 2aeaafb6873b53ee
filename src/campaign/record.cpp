#include "campaign/record.hpp"

#include <cstdio>

#include "durable/journal.hpp"

namespace pi2::campaign {

RecordFields& RecordFields::add(std::string_view key, std::string_view value) {
  append(key, "\"");
  text_ += durable::json_escape(std::string{value});
  text_ += '"';
  return *this;
}

RecordFields& RecordFields::add_double(std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return append(key, buf);
}

RecordFields& RecordFields::add_signed(std::string_view key, long long value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", value);
  return append(key, buf);
}

RecordFields& RecordFields::add_unsigned(std::string_view key,
                                         unsigned long long value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", value);
  return append(key, buf);
}

RecordFields& RecordFields::append(std::string_view key,
                                   std::string_view value) {
  text_ += ", \"";
  text_ += key;
  text_ += "\": ";
  text_ += value;
  return *this;
}

void write_record(durable::AtomicFile& json, bool& first, std::size_t index,
                  const char* status, const RecordFields& fields,
                  const std::string& manifest_path) {
  json.printf("%s\n  {\"index\": %zu, \"status\": \"%s\"", first ? "" : ",",
              index, status);
  json.write(fields.text());
  if (!manifest_path.empty()) {
    json.printf(", \"telemetry_manifest\": \"%s\"",
                durable::json_escape(manifest_path).c_str());
  }
  json.write("}");
  first = false;
}

}  // namespace pi2::campaign
