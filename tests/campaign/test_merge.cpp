// Adversarial shard merge: merge_shards() must refuse every journal set
// that would make the merged artifact differ from a serial run, and each
// refusal must carry its own durable::StatusCode so the failure modes are
// distinguishable from the exit alone. Each test crafts real journals with
// JournalWriter (the production appender), then breaks exactly one
// invariant.
#include "campaign/merge.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "durable/journal.hpp"

namespace pi2::campaign {
namespace {

namespace fs = std::filesystem;

using durable::JournalWriter;
using durable::ShardInfo;
using durable::Status;
using durable::StatusCode;

/// A 6-point campaign (2 aqm x 3 hops) small enough to shard by hand.
Expansion small_campaign() {
  CampaignSpec spec;
  spec.name = "merge-test";
  spec.template_name = "parking_lot";
  spec.seed = 3;
  Axis aqm;
  aqm.name = "aqm";
  aqm.values = {axis_text("coupled-pi2"), axis_text("pie")};
  Axis hops;
  hops.name = "hops";
  hops.values = {axis_number(1), axis_number(2), axis_number(3)};
  spec.axes = {aqm, hops};
  EXPECT_EQ(spec.validate(), "");
  return expand(spec, ExpandOptions{});
}

std::string payload_for(std::size_t index) {
  return "payload-" + std::to_string(index);
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "pi2_merge_" + name;
}

ShardInfo shard_info(const Expansion& x, std::uint64_t index,
                     std::uint64_t count, std::uint64_t lo, std::uint64_t hi) {
  ShardInfo info;
  info.present = true;
  info.campaign = x.name;
  info.digest = x.digest;
  info.index = index;
  info.count = count;
  info.lo = lo;
  info.hi = hi;
  return info;
}

/// Writes a well-formed shard journal claiming [lo, hi) with one point
/// record per claimed index.
void write_shard(const std::string& path, const Expansion& x,
                 std::uint64_t index, std::uint64_t count, std::size_t lo,
                 std::size_t hi) {
  fs::remove(path);
  JournalWriter writer{path, x.digest, /*keep_existing=*/false};
  ASSERT_TRUE(writer.healthy());
  ASSERT_TRUE(writer.append_shard(shard_info(x, index, count, lo, hi)).ok());
  for (std::size_t i = lo; i < hi; ++i) {
    ASSERT_TRUE(writer.append_point(x.points[i].key, payload_for(i)).ok());
  }
}

class MergeShards : public ::testing::Test {
 protected:
  void SetUp() override { x_ = small_campaign(); }
  void TearDown() override {
    for (const std::string& path : cleanup_) fs::remove(path);
  }

  std::string shard_path(const std::string& name) {
    const std::string path = temp_path(name);
    cleanup_.push_back(path);
    return path;
  }

  Expansion x_;
  std::vector<std::string> cleanup_;
};

TEST_F(MergeShards, TwoShardsStitchBackInIndexOrder) {
  const std::string a = shard_path("ok_a.journal");
  const std::string b = shard_path("ok_b.journal");
  write_shard(a, x_, 1, 2, 0, 3);
  write_shard(b, x_, 2, 2, 3, 6);
  MergeResult merged;
  // Shard order on the command line must not matter.
  const Status status = merge_shards(x_, {b, a}, merged);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(merged.shards, 2u);
  EXPECT_EQ(merged.interrupted, 0u);
  ASSERT_EQ(merged.payloads.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(merged.payloads[i], payload_for(i));
  }
}

TEST_F(MergeShards, SingleSerialShardMerges) {
  const std::string a = shard_path("serial.journal");
  write_shard(a, x_, 1, 1, 0, 6);
  MergeResult merged;
  EXPECT_TRUE(merge_shards(x_, {a}, merged).ok());
  EXPECT_EQ(merged.shards, 1u);
}

TEST_F(MergeShards, ResumedReappendWithIdenticalBytesIsTolerated) {
  const std::string a = shard_path("reappend.journal");
  write_shard(a, x_, 1, 1, 0, 6);
  {
    // A resumed shard re-journals a point it already holds — same bytes.
    JournalWriter writer{a, x_.digest, /*keep_existing=*/true};
    ASSERT_TRUE(writer.append_point(x_.points[2].key, payload_for(2)).ok());
  }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(merged.payloads[2], payload_for(2));
}

TEST_F(MergeShards, InterruptedMarkersAreCountedNotFatal) {
  const std::string a = shard_path("interrupted.journal");
  write_shard(a, x_, 1, 1, 0, 6);
  {
    JournalWriter writer{a, x_.digest, /*keep_existing=*/true};
    ASSERT_TRUE(writer.append_interrupted("signal 15").ok());
  }
  MergeResult merged;
  EXPECT_TRUE(merge_shards(x_, {a}, merged).ok());
  EXPECT_EQ(merged.interrupted, 1u);
}

TEST_F(MergeShards, EmptyPathListIsInvalid) {
  MergeResult merged;
  EXPECT_EQ(merge_shards(x_, {}, merged).code(), StatusCode::kInvalid);
}

TEST_F(MergeShards, MissingFileIsIoError) {
  MergeResult merged;
  const Status status =
      merge_shards(x_, {temp_path("never_written.journal")}, merged);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(MergeShards, JournalWithoutShardRecordIsForeign) {
  // A plain resume journal: right digest, no shard claim.
  const std::string a = shard_path("no_shard_record.journal");
  {
    JournalWriter writer{a, x_.digest, false};
    ASSERT_TRUE(writer.append_point(x_.points[0].key, payload_for(0)).ok());
  }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kForeignCampaign);
  EXPECT_NE(status.message().find("no shard record"), std::string::npos);
}

TEST_F(MergeShards, WrongCampaignNameIsForeign) {
  const std::string a = shard_path("foreign_name.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, x_.digest, false};
    ShardInfo info = shard_info(x_, 1, 1, 0, 6);
    info.campaign = "somebody-else";
    ASSERT_TRUE(writer.append_shard(info).ok());
  }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kForeignCampaign);
  EXPECT_NE(status.message().find("somebody-else"), std::string::npos);
  EXPECT_NE(status.message().find("merge-test"), std::string::npos);
}

TEST_F(MergeShards, SameNameDifferentDigestIsStale) {
  // Same campaign name, but the shard ran under a different spec revision.
  Expansion stale = x_;
  stale.digest = x_.digest + 1;
  const std::string a = shard_path("stale.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, stale.digest, false};
    ASSERT_TRUE(writer.append_shard(shard_info(stale, 1, 1, 0, 6)).ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          writer.append_point(x_.points[i].key, payload_for(i)).ok());
    }
  }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kStaleDigest);
  EXPECT_NE(status.message().find("changed since the shard ran"),
            std::string::npos);
}

TEST_F(MergeShards, OverlappingClaimsAreRefused) {
  const std::string a = shard_path("overlap_a.journal");
  const std::string b = shard_path("overlap_b.journal");
  write_shard(a, x_, 1, 2, 0, 4);
  write_shard(b, x_, 2, 2, 2, 6);
  MergeResult merged;
  const Status status = merge_shards(x_, {a, b}, merged);
  EXPECT_EQ(status.code(), StatusCode::kShardOverlap);
}

TEST_F(MergeShards, MissingShardLeavesAGap) {
  const std::string a = shard_path("gap_a.journal");
  const std::string c = shard_path("gap_c.journal");
  write_shard(a, x_, 1, 3, 0, 2);
  write_shard(c, x_, 3, 3, 4, 6);
  MergeResult merged;
  const Status status = merge_shards(x_, {a, c}, merged);
  EXPECT_EQ(status.code(), StatusCode::kShardGap);
  EXPECT_NE(status.message().find("2..4"), std::string::npos);
}

TEST_F(MergeShards, TailGapIsDetected) {
  const std::string a = shard_path("tailgap.journal");
  write_shard(a, x_, 1, 1, 0, 4);  // claims to be the whole campaign, isn't
  MergeResult merged;
  EXPECT_EQ(merge_shards(x_, {a}, merged).code(), StatusCode::kShardGap);
}

TEST_F(MergeShards, PointMissingInsideDeclaredRangeIsAGap) {
  // The shard died after journaling 2 of its 3 points: the claim says
  // [0, 3) but only points 0 and 1 are on disk.
  const std::string a = shard_path("halfdead_a.journal");
  const std::string b = shard_path("halfdead_b.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, x_.digest, false};
    ASSERT_TRUE(writer.append_shard(shard_info(x_, 1, 2, 0, 3)).ok());
    ASSERT_TRUE(writer.append_point(x_.points[0].key, payload_for(0)).ok());
    ASSERT_TRUE(writer.append_point(x_.points[1].key, payload_for(1)).ok());
  }
  write_shard(b, x_, 2, 2, 3, 6);
  MergeResult merged;
  const Status status = merge_shards(x_, {a, b}, merged);
  EXPECT_EQ(status.code(), StatusCode::kShardGap);
  EXPECT_NE(status.message().find("resume it with --resume"),
            std::string::npos);
}

TEST_F(MergeShards, DuplicatePointWithDifferentPayloadIsRefused) {
  const std::string a = shard_path("dup.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, x_.digest, false};
    ASSERT_TRUE(writer.append_shard(shard_info(x_, 1, 1, 0, 6)).ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          writer.append_point(x_.points[i].key, payload_for(i)).ok());
    }
    // Nondeterministic re-run: same point, different bytes.
    ASSERT_TRUE(
        writer.append_point(x_.points[4].key, "payload-4-but-different").ok());
  }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kDuplicatePoint);
  EXPECT_NE(status.message().find("point 4"), std::string::npos);
}

TEST_F(MergeShards, PointOutsideDeclaredRangeIsInvalid) {
  // Both ranges tile the campaign (so no gap/overlap fires), but shard 1's
  // journal holds a point from shard 2's slice.
  const std::string a = shard_path("outside_a.journal");
  const std::string b = shard_path("outside_b.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, x_.digest, false};
    ASSERT_TRUE(writer.append_shard(shard_info(x_, 1, 2, 0, 3)).ok());
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          writer.append_point(x_.points[i].key, payload_for(i)).ok());
    }
    // A point from the *other* shard's slice snuck in.
    ASSERT_TRUE(writer.append_point(x_.points[5].key, payload_for(5)).ok());
  }
  write_shard(b, x_, 2, 2, 3, 6);
  MergeResult merged;
  const Status status = merge_shards(x_, {a, b}, merged);
  EXPECT_EQ(status.code(), StatusCode::kInvalid);
  EXPECT_NE(status.message().find("outside the journal's declared range"),
            std::string::npos);
}

TEST_F(MergeShards, RangeBeyondCampaignIsInvalid) {
  const std::string a = shard_path("too_wide.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, x_.digest, false};
    ASSERT_TRUE(writer.append_shard(shard_info(x_, 1, 1, 0, 9)).ok());
  }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kInvalid);
  EXPECT_NE(status.message().find("exceeds the campaign's 6 point(s)"),
            std::string::npos);
}

TEST_F(MergeShards, UnknownPointKeyIsCorrupt) {
  const std::string a = shard_path("alien_key.journal");
  fs::remove(a);
  {
    JournalWriter writer{a, x_.digest, false};
    ASSERT_TRUE(writer.append_shard(shard_info(x_, 1, 1, 0, 6)).ok());
    ASSERT_TRUE(writer.append_point(0xdeadbeefdeadbeefull, "alien").ok());
  }
  MergeResult merged;
  EXPECT_EQ(merge_shards(x_, {a}, merged).code(), StatusCode::kCorrupt);
}

TEST_F(MergeShards, TornTailIsCorruptNotSilentlyDropped) {
  // The lenient resume loader re-runs a torn point; the merge must refuse
  // instead — a shard with a torn tail needs a --resume pass first.
  const std::string a = shard_path("torn.journal");
  write_shard(a, x_, 1, 1, 0, 6);
  std::string bytes;
  {
    std::ifstream in(a, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes.resize(bytes.size() - 20);  // SIGKILL mid-append
  { std::ofstream(a, std::ios::binary | std::ios::trunc) << bytes; }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_NE(status.message().find("torn"), std::string::npos);
}

TEST_F(MergeShards, CrcMismatchIsCorrupt) {
  const std::string a = shard_path("bitrot.journal");
  write_shard(a, x_, 1, 1, 0, 6);
  std::string bytes;
  {
    std::ifstream in(a, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto pos = bytes.find("payload-2");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'q';  // flip one payload byte, leave the line intact
  { std::ofstream(a, std::ios::binary | std::ios::trunc) << bytes; }
  MergeResult merged;
  const Status status = merge_shards(x_, {a}, merged);
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
}

TEST_F(MergeShards, EveryRefusalHasADistinctCode) {
  // The taxonomy promise: no two failure modes share a StatusCode, so the
  // driver's exit-code map stays injective.
  const StatusCode codes[] = {
      StatusCode::kForeignCampaign, StatusCode::kStaleDigest,
      StatusCode::kShardOverlap,    StatusCode::kShardGap,
      StatusCode::kDuplicatePoint,  StatusCode::kCorrupt,
      StatusCode::kIoError,         StatusCode::kInvalid,
  };
  for (std::size_t i = 0; i < std::size(codes); ++i) {
    for (std::size_t j = i + 1; j < std::size(codes); ++j) {
      EXPECT_NE(codes[i], codes[j]);
    }
  }
}

}  // namespace
}  // namespace pi2::campaign
