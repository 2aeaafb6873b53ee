// Campaign-layer property oracles: relations that must hold for *every*
// well-formed campaign spec, checked by the property tests over both the
// committed campaigns/*.json files and randomly generated specs.
//
//   determinism     — expand() run twice yields identical digests, seeds,
//                     keys and values; nothing in the expansion depends on
//                     anything but (spec, options).
//   ordering        — points come out row-major over the axes as listed
//                     (last axis fastest), index i at position i.
//   uniqueness      — point keys never collide within a campaign (a journal
//                     replay could otherwise swap two points' results).
//   round-trip      — parse(serialize(spec)) validates and expands to the
//                     same digest: the canonical form loses nothing the
//                     results depend on.
//   digest          — the digest moves when the seed, a value, or an axis
//                     order changes (a stale journal can never pass as
//                     current), and stays put across a pure re-expansion.
//   shard tiling    — for every worker count N, shard_range slices tile
//                     [0, P) exactly: contiguous, disjoint, exhaustive,
//                     within one point of even.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/spec.hpp"
#include "check/oracles.hpp"

namespace pi2::check {

/// "" when every property above holds for `spec` (which must validate())
/// under `opts`; otherwise a one-line description of the first violation.
[[nodiscard]] std::string check_campaign_properties(
    const campaign::CampaignSpec& spec, const campaign::ExpandOptions& opts);

/// Deterministic generator of well-formed specs (validate() == "") for the
/// property tests: template, axis subset order, value counts and values all
/// derive from `seed`.
[[nodiscard]] campaign::CampaignSpec random_campaign_spec(std::uint64_t seed);

/// End-to-end campaign fuzz case for check_fuzz's third sub-batch. From
/// `seed` it (a) runs the full property battery over a random spec of any
/// template, and (b) expands a randomly drawn *resilience* spec — fault
/// presets/inline literals on the fault_schedule axis, fluid background
/// scales on fluid_flows — resolves one point's schedule exactly as the
/// campaign driver does, and pushes the materialized dumbbell config
/// through every scenario oracle. The outcome digest folds the expansion
/// digest, so the batch-level --jobs/determinism rechecks also guard
/// expand().
[[nodiscard]] CaseOutcome run_campaign_case_oracles(
    std::uint64_t seed, std::uint64_t index, const OracleOptions& options = {});

}  // namespace pi2::check
