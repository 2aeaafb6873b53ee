// Serial-vs-parallel equivalence of the Figures 15-18 quick grid (3x3 links
// x RTTs, both AQMs, both mixes = 36 points) through the real grid driver,
// pi2_campaign on campaigns/fig15_18.json. Run durations are shortened with
// --duration-s/--stats-start-s so the whole grid stays test-sized; the
// simulation code paths are exactly the figures'.
//
// The run journal carries every RunResult statistic of every point as hex
// IEEE bits, so comparing two journals byte for byte is a bitwise
// comparison of the results: parallelism must not perturb a single bit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Outputs of one pi2_campaign run of the grid.
struct GridRun {
  std::string journal;
  std::string json;
  fs::path telemetry_dir;
};

/// A scratch directory of its own for the current test; ctest runs the
/// cases of this suite as concurrent processes. The process id keeps two
/// ctest runs from different build trees out of each other's directories.
fs::path work_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path{::testing::TempDir()} /
                       (std::string{"pi2_sweep_eq_"} + info->name() + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

GridRun run_grid(const fs::path& dir, const std::string& tag, unsigned jobs,
                 double duration_s, double stats_start_s,
                 bool telemetry = false) {
  const fs::path base = dir / tag;
  GridRun run;
  std::ostringstream cmd;
  cmd << '"' << PI2_CAMPAIGN_BIN << "\" --spec \"" << PI2_FIG15_18_SPEC
      << "\" --seed 1 --jobs " << jobs << " --duration-s " << duration_s
      << " --stats-start-s " << stats_start_s << " --json \""
      << base.string() << ".json\" --journal \"" << base.string()
      << ".journal\"";
  if (telemetry) {
    run.telemetry_dir = dir / ("tele_" + tag);
    cmd << " --telemetry \"" << run.telemetry_dir.string() << '"';
  }
  cmd << " > \"" << base.string() << ".stdout\"";
  const int status = std::system(cmd.str().c_str());
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << cmd.str() << " -> status " << status;
  run.journal = read_file(base.string() + ".journal");
  run.json = read_file(base.string() + ".json");
  return run;
}

TEST(SweepEquivalence, Fig15QuickGridJobs1VersusJobs4) {
  const auto dir = work_dir();
  const auto serial = run_grid(dir, "j1", 1, 5.0, 2.0);
  const auto parallel = run_grid(dir, "j4", 4, 5.0, 2.0);
  ASSERT_EQ(count(serial.journal, "\"kind\":\"point\""), 36u);
  EXPECT_EQ(serial.journal, parallel.journal)
      << "--jobs 1 and --jobs 4 journals differ";
  EXPECT_EQ(serial.json, parallel.json);
  fs::remove_all(dir);
}

TEST(SweepEquivalence, ParallelRunsAreDeterministic) {
  const auto dir = work_dir();
  const auto first = run_grid(dir, "a", 4, 5.0, 2.0);
  const auto second = run_grid(dir, "b", 4, 5.0, 2.0);
  ASSERT_EQ(count(first.journal, "\"kind\":\"point\""), 36u);
  EXPECT_EQ(first.journal, second.journal) << "two --jobs 4 journals differ";
  fs::remove_all(dir);
}

TEST(SweepEquivalence, NoClampedSchedulesAcrossTheGrid) {
  const auto dir = work_dir();
  const auto run = run_grid(dir, "j2", 2, 5.0, 2.0);
  EXPECT_EQ(count(run.json, "\"status\": \"ok\""), 36u);
  EXPECT_EQ(count(run.json, "\"clamped_events\": 0,"), 36u)
      << "some grid point clamped a scheduled event";
  fs::remove_all(dir);
}

/// Every artifact file under `dir`, keyed by relative path, with its bytes.
std::map<std::string, std::string> artifact_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[fs::relative(entry.path(), dir).string()] = read_file(entry.path());
  }
  return files;
}

TEST(SweepEquivalence, TelemetryArtifactsAreByteIdenticalAcrossJobs) {
  const auto dir = work_dir();
  const auto serial = run_grid(dir, "j1", 1, 2.0, 0.5, true);
  const auto parallel = run_grid(dir, "j2", 2, 2.0, 0.5, true);
  const auto first = artifact_bytes(serial.telemetry_dir);
  const auto second = artifact_bytes(parallel.telemetry_dir);
  // 36 points x (jsonl + prom + manifest) + the sweep-level aggregate.
  ASSERT_EQ(first.size(), 36u * 3u + 1u);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [name, bytes] : first) {
    ASSERT_TRUE(second.contains(name)) << name;
    EXPECT_EQ(bytes, second.at(name)) << name << " diverged across --jobs";
    EXPECT_FALSE(bytes.empty()) << name;
  }
  fs::remove_all(dir);
}

}  // namespace
