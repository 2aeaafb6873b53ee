#include "campaign/merge.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "durable/journal.hpp"

namespace pi2::campaign {

namespace {

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::string range_str(std::uint64_t lo, std::uint64_t hi) {
  return std::to_string(lo) + ".." + std::to_string(hi);
}

}  // namespace

ShardRange shard_range(std::size_t points, std::size_t index,
                       std::size_t count) {
  ShardRange range;
  if (index == 0 || count == 0 || index > count) return range;
  range.lo = points * (index - 1) / count;
  range.hi = points * index / count;
  return range;
}

bool parse_shard(const std::string& arg, std::size_t& index,
                 std::size_t& count) {
  unsigned long long i = 0;
  unsigned long long n = 0;
  char trailing = '\0';
  if (std::sscanf(arg.c_str(), "%llu/%llu%c", &i, &n, &trailing) != 2) {
    return false;
  }
  if (i == 0 || n == 0 || i > n) return false;
  index = static_cast<std::size_t>(i);
  count = static_cast<std::size_t>(n);
  return true;
}

durable::Status merge_shards(const Expansion& campaign,
                             const std::vector<std::string>& journal_paths,
                             MergeResult& out) {
  out = MergeResult{};
  if (journal_paths.empty()) {
    return durable::Status::invalid("merge: no shard journals given");
  }
  const std::size_t total = campaign.points.size();

  // Global key -> index map; point keys are digest-salted, so a key that
  // resolves here is this campaign's by construction.
  std::map<std::uint64_t, std::size_t> key_to_index;
  for (const CampaignPoint& point : campaign.points) {
    key_to_index[point.key] = point.index;
  }

  struct ShardView {
    std::string path;
    durable::ShardJournalData data;
  };
  std::vector<ShardView> shards;
  shards.reserve(journal_paths.size());
  for (const std::string& path : journal_paths) {
    ShardView view;
    view.path = path;
    const durable::Status loaded =
        durable::load_shard_journal(path, view.data);
    if (!loaded.ok()) return loaded;

    // Identity checks, most-specific first: no shard record at all means
    // the journal was never part of a sharded campaign (a journal written
    // before shard records existed, say); a name mismatch is a different campaign; a
    // digest mismatch under the same name means the spec changed since the
    // shard ran and its grid no longer exists.
    if (!view.data.shard.present) {
      return durable::Status::foreign_campaign(
          path + ": no shard record — not a campaign shard journal");
    }
    if (view.data.shard.campaign != campaign.name) {
      return durable::Status::foreign_campaign(
          path + ": journal belongs to campaign '" + view.data.shard.campaign +
          "', expected '" + campaign.name + "'");
    }
    if (view.data.shard.digest != campaign.digest ||
        view.data.header_key != campaign.digest) {
      return durable::Status::stale_digest(
          path + ": campaign '" + campaign.name + "' digest " +
          hex64(view.data.shard.digest != campaign.digest
                    ? view.data.shard.digest
                    : view.data.header_key) +
          " does not match this spec (" + hex64(campaign.digest) +
          ") — the spec or its flags changed since the shard ran");
    }
    if (view.data.shard.hi > total || view.data.shard.lo > view.data.shard.hi) {
      return durable::Status::invalid(
          path + ": declared range " +
          range_str(view.data.shard.lo, view.data.shard.hi) +
          " exceeds the campaign's " + std::to_string(total) + " point(s)");
    }
    out.interrupted += view.data.interrupted;
    shards.push_back(std::move(view));
  }

  // The declared ranges must tile [0, total) exactly.
  std::sort(shards.begin(), shards.end(), [](const ShardView& a,
                                             const ShardView& b) {
    return a.data.shard.lo != b.data.shard.lo
               ? a.data.shard.lo < b.data.shard.lo
               : a.data.shard.hi < b.data.shard.hi;
  });
  std::uint64_t covered = 0;  ///< next uncovered index
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const durable::ShardInfo& shard = shards[s].data.shard;
    if (shard.lo < covered) {
      return durable::Status::shard_overlap(
          shards[s].path + " claims points " + range_str(shard.lo, shard.hi) +
          ", overlapping " + shards[s - 1].path + " (" +
          range_str(shards[s - 1].data.shard.lo,
                    shards[s - 1].data.shard.hi) +
          ")");
    }
    if (shard.lo > covered) {
      return durable::Status::shard_gap(
          "points " + range_str(covered, shard.lo) +
          " are not claimed by any shard journal");
    }
    covered = shard.hi;
  }
  if (covered < total) {
    return durable::Status::shard_gap(
        "points " + range_str(covered, total) +
        " are not claimed by any shard journal (missing shard?)");
  }

  // Collect payloads, enforcing that every record lands inside its shard's
  // declared claim and that re-appends (a resumed shard re-journaling a
  // point) are byte-identical.
  out.payloads.assign(total, std::string{});
  std::vector<bool> have(total, false);
  for (const ShardView& view : shards) {
    const durable::ShardInfo& shard = view.data.shard;
    for (const auto& [key, payload] : view.data.points) {
      const auto it = key_to_index.find(key);
      if (it == key_to_index.end()) {
        return durable::Status::corrupt(
            view.path + ": point key " + hex64(key) +
            " is not a point of this campaign");
      }
      const std::size_t index = it->second;
      if (index < shard.lo || index >= shard.hi) {
        return durable::Status::invalid(
            view.path + ": point " + std::to_string(index) +
            " lies outside the journal's declared range " +
            range_str(shard.lo, shard.hi));
      }
      if (have[index] && out.payloads[index] != payload) {
        return durable::Status::duplicate_point(
            view.path + ": point " + std::to_string(index) +
            " journaled twice with different payloads");
      }
      out.payloads[index] = payload;
      have[index] = true;
    }
    for (std::size_t i = shard.lo; i < shard.hi; ++i) {
      if (!have[i]) {
        return durable::Status::shard_gap(
            view.path + ": point " + std::to_string(i) +
            " is missing from its shard's declared range " +
            range_str(shard.lo, shard.hi) +
            " (shard killed mid-run? resume it with --resume first)");
      }
    }
  }
  out.shards = shards.size();
  return {};
}

}  // namespace pi2::campaign
