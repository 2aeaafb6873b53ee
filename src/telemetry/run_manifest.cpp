#include "telemetry/run_manifest.hpp"

#include <cstdio>

#include "durable/atomic_file.hpp"
#include "durable/journal.hpp"

namespace pi2::telemetry {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void RunManifest::set(const std::string& key, const std::string& value) {
  config[key] = value;
}

void RunManifest::set(const std::string& key, double value) {
  config[key] = format_double(value);
}

void RunManifest::set(const std::string& key, std::uint64_t value) {
  config[key] = std::to_string(value);
}

void RunManifest::capture_final(const MetricsRegistry& registry) {
  final_metrics.clear();
  for (const auto& [name, value] : registry.snapshot()) {
    final_metrics[name] = value;
  }
}

std::string RunManifest::to_json() const {
  std::string out = "{\n";
  out += "  \"run_id\": \"" + durable::json_escape(run_id) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"fault_digest\": \"" + durable::json_escape(fault_digest) + "\",\n";
  out += "  \"build_flags\": \"" + durable::json_escape(build_flags) + "\",\n";
  out += "  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config) {
    out += first ? "\n" : ",\n";
    out += "    \"" + durable::json_escape(key) + "\": \"" +
           durable::json_escape(value) + "\"";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"final_metrics\": {";
  first = true;
  for (const auto& [key, value] : final_metrics) {
    out += first ? "\n" : ",\n";
    out += "    \"" + durable::json_escape(key) + "\": " + format_double(value);
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

durable::Status RunManifest::write_json(const std::string& path) const {
  return durable::atomic_write_file(path, to_json());
}

std::string fault_schedule_digest(const faults::FaultSchedule& schedule) {
  durable::Fnv1a h;
  h.mix_u64(schedule.events.size());
  for (const auto& e : schedule.events) {
    h.mix_u64(static_cast<std::uint64_t>(e.kind));
    h.mix_u64(static_cast<std::uint64_t>(e.at.count()));
    h.mix_u64(static_cast<std::uint64_t>(e.until.count()));
    h.mix_double(e.rate_bps);
    h.mix_double(e.rate2_bps);
    h.mix_u64(static_cast<std::uint64_t>(e.period.count()));
    h.mix_u64(static_cast<std::uint64_t>(e.rtt.count()));
    h.mix_double(e.probability);
    h.mix_u64(static_cast<std::uint64_t>(e.burst_packets));
    h.mix_u64(static_cast<std::uint64_t>(e.extra_delay.count()));
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.state));
  return buf;
}

std::string build_flags_string() {
  std::string out = "cxx=";
#if defined(__clang__)
  out += "clang ";
#elif defined(__GNUC__)
  out += "gcc ";
#endif
  out += __VERSION__;
  out += " std=" + std::to_string(__cplusplus);
#ifdef NDEBUG
  out += " ndebug=1";
#else
  out += " ndebug=0";
#endif
#ifdef PI2_BUILD_TYPE
  out += std::string(" build=") + PI2_BUILD_TYPE;
#endif
#ifdef PI2_SANITIZE
  if (PI2_SANITIZE[0] != '\0') out += std::string(" sanitize=") + PI2_SANITIZE;
#endif
  return out;
}

}  // namespace pi2::telemetry
