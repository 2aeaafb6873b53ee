// check_partial_failure: the failed-point path of every committed campaign.
//
//   check_partial_failure PI2_CAMPAIGN CAMPAIGN_DIR WORK_DIR
//
// Runs each campaigns/*.json spec as a smoke grid with point 0 forced to
// throw (--inject-fail 0 --retries 0) and checks, per spec, that the
// campaign exits non-zero while its --json still parses; that record 0 is
// `failed` with a non-empty "error" and one field per spec axis; and that
// record 1 ran `ok`. Exits 0 iff every spec passes.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "check/golden.hpp"

namespace {

namespace fs = std::filesystem;
using pi2::check::JsonRecord;

std::string field(const JsonRecord& record, const std::string& key) {
  const auto it = record.strings.find(key);
  return it == record.strings.end() ? "" : it->second;
}

/// "" when the spec's failed-point run holds up, else what went wrong.
std::string check_spec(const std::string& bin, const fs::path& spec_path,
                       const fs::path& work) {
  pi2::campaign::CampaignSpec spec;
  if (std::string err = pi2::campaign::load_spec(spec_path.string(), spec);
      !err.empty()) {
    return err;
  }
  const fs::path json = work / (spec.name + ".json");
  const fs::path log = work / (spec.name + ".out");
  const std::string command =
      "'" + bin + "' --spec '" + spec_path.string() +
      "' --smoke --grid-cap 2 --inject-fail 0 --retries 0 --jobs 2 --json '" +
      json.string() + "' > '" + log.string() + "' 2>&1";
  const int status = std::system(command.c_str());
  if (!WIFEXITED(status) || WEXITSTATUS(status) == 0) {
    return "expected a non-zero exit, got status " + std::to_string(status);
  }
  std::string error;
  const std::vector<JsonRecord> records =
      pi2::check::parse_records(json.string(), &error);
  if (!error.empty()) return error;
  if (records.size() < 2) {
    return "expected at least 2 records, got " +
           std::to_string(records.size());
  }
  const JsonRecord& failed = records[0];
  if (field(failed, "status") != "failed") {
    return "record 0 status '" + field(failed, "status") + "', want failed";
  }
  if (field(failed, "error").empty()) return "record 0 has no \"error\"";
  for (const auto& axis : spec.axes) {
    if (failed.strings.count(axis.name) == 0 &&
        failed.numbers.count(axis.name) == 0) {
      return "record 0 lacks axis field \"" + axis.name + "\"";
    }
  }
  if (field(records[1], "status") != "ok") {
    return "record 1 status '" + field(records[1], "status") + "', want ok";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: check_partial_failure PI2_CAMPAIGN CAMPAIGN_DIR "
                 "WORK_DIR\n");
    return 2;
  }
  const std::string bin = argv[1];
  const fs::path work = argv[3];
  fs::create_directories(work);
  std::vector<fs::path> specs;
  for (const auto& entry : fs::directory_iterator(argv[2])) {
    if (entry.path().extension() == ".json") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());
  if (specs.empty()) {
    std::fprintf(stderr, "no campaign specs in %s\n", argv[2]);
    return 1;
  }
  int failures = 0;
  for (const fs::path& spec : specs) {
    const std::string problem = check_spec(bin, spec, work);
    std::printf("%s: %s\n", spec.filename().c_str(),
                problem.empty() ? "ok" : problem.c_str());
    if (!problem.empty()) ++failures;
  }
  std::printf("# %zu spec(s), %d failing\n", specs.size(), failures);
  return failures == 0 ? 0 : 1;
}
