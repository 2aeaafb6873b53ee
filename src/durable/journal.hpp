// Run journal: the append-only completion log that makes sweeps resumable.
//
// One JSONL record is appended — and fsync'd — per completed unit of work
// (a sweep grid point, a fuzz case), keyed by a digest of the unit's config
// and seed. On restart with --resume, journaled units are skipped and their
// cached payloads replayed, so the final table/JSON is byte-identical to an
// uninterrupted run while only the missing work re-executes.
//
// Record format (one per line):
//
//   {"kind":"<header|point|interrupted>","key":"<16 hex>",
//    "payload":"<escaped bytes>","crc":"<16 hex>"}
//
// `crc` is FNV-1a over kind+key+payload. A record that fails to parse or
// whose crc mismatches is *dropped* (counted in LoadedJournal::dropped) —
// the classic torn final line after a SIGKILL re-runs that point instead of
// silently reusing garbage. Records after a torn line are still recovered.
//
// The first record is a `header` keyed by a digest of the whole campaign
// (grid, seed, durations). Loading a journal whose header key differs from
// the caller's refuses the cached points: a stale journal from a different
// campaign can never leak results into this one.
//
// `interrupted` markers are appended by the graceful-shutdown path; load()
// surfaces them so a resumed run can report what it recovered from.
//
// Sharding: a campaign split across N worker processes gives each worker a
// disjoint point range and its own journal. A `shard` record (appended right
// after the header) declares which slice this journal claims — campaign
// name, shard i/N, half-open global point range [lo, hi) — keyed by the
// campaign digest like the header. The resume path ignores it; the merge
// path (load_shard_journal + the campaign layer) uses it to prove the shard
// set tiles the campaign exactly before stitching results back together.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "durable/status.hpp"

namespace pi2::durable {

struct JournalRecord {
  std::string kind;        ///< "header", "shard", "point" or "interrupted"
  std::uint64_t key = 0;   ///< config+seed digest of the unit
  std::string payload;     ///< opaque serialized result (may be empty)
};

/// The slice of a campaign one shard journal claims. Serialized as the
/// payload of a `shard` record; `digest` doubles as that record's key.
struct ShardInfo {
  bool present = false;       ///< a shard record was seen / will be written
  std::string campaign;       ///< campaign (spec) name — tells foreign from
                              ///< stale on merge
  std::uint64_t digest = 0;   ///< campaign digest the shard ran under
  std::uint64_t index = 1;    ///< 1-based shard number
  std::uint64_t count = 1;    ///< total shards in the split
  std::uint64_t lo = 0;       ///< first global point index claimed
  std::uint64_t hi = 0;       ///< one past the last point index claimed
};

/// Serializes/parses the `shard` record payload
/// (`shard=<i>/<N> range=<lo>..<hi> name=<campaign>`).
[[nodiscard]] std::string encode_shard_info(const ShardInfo& shard);
[[nodiscard]] bool parse_shard_info(const std::string& payload,
                                    ShardInfo& shard);

/// Serializes a record to its single-line wire form (newline included).
[[nodiscard]] std::string encode_record(const JournalRecord& record);

/// Parses one line (with or without trailing newline). Returns kCorrupt on
/// structural damage or crc mismatch; `record` is only valid on kOk.
[[nodiscard]] Status parse_record(const std::string& line, JournalRecord& record);

/// Everything recovered from an on-disk journal.
struct LoadedJournal {
  bool exists = false;            ///< the file was present and readable
  bool header_ok = false;         ///< first record is a header with the
                                  ///< caller's campaign key
  std::uint64_t header_key = 0;   ///< key of the header actually found
  std::size_t interrupted = 0;    ///< interrupted markers seen
  std::size_t dropped = 0;        ///< torn/corrupt records skipped
  /// Shard slice this journal declared (present=false for pre-shard
  /// journals). Only trusted when header_ok.
  ShardInfo shard;
  /// Completed units by key (last record wins). Empty unless header_ok.
  std::map<std::uint64_t, std::string> points;

  [[nodiscard]] bool has(std::uint64_t key) const {
    return points.find(key) != points.end();
  }
};

/// Reads the journal at `path`, dropping corrupt records. `campaign_key`
/// must match the header for the cached points to be trusted.
[[nodiscard]] LoadedJournal load_journal(const std::string& path,
                                         std::uint64_t campaign_key);

/// Everything a *strict* read of one shard journal recovers, for merging.
/// Unlike LoadedJournal this keeps records in file order and never drops a
/// damaged line silently — a merge must refuse corruption, not re-run it.
struct ShardJournalData {
  bool header_seen = false;
  std::uint64_t header_key = 0;
  ShardInfo shard;                ///< shard.present iff a shard record exists
  std::size_t interrupted = 0;
  /// Point records in append order (duplicates preserved for the merge's
  /// duplicate-point check).
  std::vector<std::pair<std::uint64_t, std::string>> points;
};

/// Strict loader behind `--merge`: any unreadable file is kIoError, any
/// torn/corrupt/unparseable line is kCorrupt (message carries path + line
/// number + whether the damage looks like a torn tail or a crc mismatch),
/// a missing or misplaced header is kCorrupt. Validation *against* a
/// campaign (foreign/stale/range checks) is the caller's job — this only
/// guarantees the bytes are intact.
[[nodiscard]] Status load_shard_journal(const std::string& path,
                                        ShardJournalData& out);

/// Appender. Every append is flushed and fsync'd before returning, so a
/// record that was reported written survives a SIGKILL one instruction
/// later. Shares AtomicFile's injectable write-fault budget.
class JournalWriter {
 public:
  /// Opens `path` for appending; writes a header record (and truncates any
  /// prior content) unless `keep_existing` — the resume path loads first,
  /// then reopens with keep_existing=true.
  JournalWriter(std::string path, std::uint64_t campaign_key, bool keep_existing);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends + fsyncs one completed-unit record.
  Status append_point(std::uint64_t key, const std::string& payload);
  /// Appends + fsyncs the shard-slice declaration (keyed by shard.digest).
  /// Campaign runs write it immediately after the header; resumed shards
  /// must not re-append it (check LoadedJournal::shard.present first).
  Status append_shard(const ShardInfo& shard);
  /// Appends + fsyncs a graceful-shutdown marker.
  Status append_interrupted(const std::string& reason);

  [[nodiscard]] bool healthy() const { return file_ != nullptr && status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  Status append(const JournalRecord& record);

  std::string path_;
  std::FILE* file_ = nullptr;
  Status status_;
};

/// Escapes `s` for a JSON string literal: quote, backslash, \n and \t get
/// their short forms, other control bytes \u00XX; everything else is copied.
/// The one escaper behind journals, campaign specs, manifests and the
/// bench --json records.
std::string json_escape(const std::string& s);

/// FNV-1a 64-bit streaming hasher — the digest behind journal keys and
/// record crcs. Deliberately tiny and dependency-free.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;
  void mix_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state ^= bytes[i];
      state *= 0x100000001b3ull;
    }
  }
  void mix_u64(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix_double(double v) { mix_bytes(&v, sizeof v); }
  void mix_string(const std::string& s) {
    mix_u64(s.size());
    mix_bytes(s.data(), s.size());
  }
};

}  // namespace pi2::durable
