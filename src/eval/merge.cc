#include "eval/merge.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "eval/report.h"

namespace eval {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("shard merge: " + message);
}

/// Sorts (shard index, item) pairs by index and checks the indices are
/// exactly 1..count; `suffix` extends the duplicate/missing diagnostics
/// ("", or " in campaign ide/C").
template <class T>
std::vector<std::pair<unsigned, const T*>> sort_and_check_indices(
    std::vector<std::pair<unsigned, const T*>> shards, unsigned count,
    const std::string& suffix) {
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  unsigned expected = 1;
  for (const auto& [index, item] : shards) {
    (void)item;
    if (index == expected) {
      ++expected;
      continue;
    }
    if (index < expected) {
      fail("duplicate shard " + std::to_string(index) + "/" +
           std::to_string(count) + suffix);
    }
    fail("missing shard " + std::to_string(expected) + "/" +
         std::to_string(count) + suffix);
  }
  if (expected != count + 1) {
    fail("missing shard " + std::to_string(expected) + "/" +
         std::to_string(count) + suffix);
  }
  return shards;
}

/// Checks that one campaign's artifacts, given in any order, tile exactly
/// that campaign, and returns them in shard order. `kind` names the
/// campaign kind ("campaign", "fault campaign") and `units` what it samples
/// ("mutants", "scenarios") in diagnostics; `kind_fields(result)` ties the
/// kind's own metadata, which must agree across shards like the header's.
template <class Result, class KindFields>
std::vector<std::pair<unsigned, const CampaignSlice<Result>*>> check_tiling(
    const std::vector<std::pair<unsigned, const CampaignSlice<Result>*>>&
        shards,
    const char* kind, const char* units, KindFields kind_fields) {
  if (shards.empty()) fail("no shard artifacts to merge");

  const CampaignSlice<Result>& first = *shards.front().second;
  const Result& base = first.result;
  const std::string name =
      std::string(kind) + " " + base.device + "/" + first.label;
  const std::string first_index = std::to_string(shards.front().first);
  const unsigned count = static_cast<unsigned>(shards.size());

  // Every artifact must come from the same campaign configuration: the
  // fingerprint pins driver text, device binding, seed, engine and flags.
  for (const auto& [index, artifact] : shards) {
    const Result& res = artifact->result;
    if (artifact->fingerprint != first.fingerprint) {
      fail("config fingerprint mismatch for " + name + ": shard " +
           std::to_string(index) + " ran " + artifact->fingerprint +
           ", shard " + first_index + " ran " + first.fingerprint +
           " — these artifacts are from different campaign configurations "
           "and cannot be merged");
    }
    // Belt and braces for hand-edited artifacts: the fields the merge
    // copies forward must agree even if the fingerprints were doctored.
    if (res.device != base.device || artifact->label != first.label ||
        res.entry != base.entry || artifact->engine != first.engine ||
        res.sample_size != base.sample_size ||
        res.clean_fingerprint != base.clean_fingerprint ||
        kind_fields(res) != kind_fields(base)) {
      fail("shard " + std::to_string(index) + " of " + name +
           " disagrees with shard " + first_index +
           " on campaign metadata despite equal fingerprints (corrupt "
           "artifact?)");
    }
    // Baseline telemetry is deterministic: every shard re-boots the same
    // unmutated driver, so step counts and opcode profiles must agree.
    if (res.baseline_steps != base.baseline_steps ||
        !(res.baseline_opcodes == base.baseline_opcodes)) {
      fail("shard " + std::to_string(index) + " of " + name +
           " disagrees with shard " + first_index +
           " on the baseline boot telemetry (corrupt artifact?)");
    }
  }

  auto ordered = sort_and_check_indices(shards, count, " in " + name);

  // The slices must be the canonical i/N floor partition of the sample —
  // anything else means a shard ran with a different count or the artifact
  // was truncated.
  for (const auto& [index, artifact] : ordered) {
    auto [lo, hi] = sample_slice_bounds(base.sample_size,
                                        SampleSlice{index - 1, count});
    if (artifact->slice_begin != lo || artifact->slice_end != hi) {
      fail("shard " + std::to_string(index) + "/" + std::to_string(count) +
           " of " + name + " covers sample positions [" +
           std::to_string(artifact->slice_begin) + ", " +
           std::to_string(artifact->slice_end) + ") but the " +
           std::to_string(count) + "-way split of " +
           std::to_string(base.sample_size) + " sampled " + units +
           " expects [" + std::to_string(lo) + ", " + std::to_string(hi) +
           ")");
    }
  }
  return ordered;
}

/// Concatenates one campaign's slices, given in shard order, into the slice
/// that covers the whole sample; the counters are left to recount().
template <class Result>
CampaignSlice<Result> concatenate(
    const std::vector<std::pair<unsigned, const CampaignSlice<Result>*>>&
        ordered) {
  // Shard 1 brings the header, baseline and kind fields along, and the
  // slice that starts the sample.
  CampaignSlice<Result> merged = *ordered.front().second;
  merged.slice_end = merged.result.sample_size;
  auto& records = merged.result.records;
  records.reserve(merged.slice_end);
  for (size_t s = 1; s < ordered.size(); ++s) {
    const CampaignSlice<Result>& a = *ordered[s].second;
    records.insert(records.end(), a.result.records.begin(),
                   a.result.records.end());
  }
  return merged;
}

/// Merges the `list` section (mutation or fault campaigns) of whole bundles:
/// one shard count everywhere, bundle indices exactly 1..N, and the same
/// campaign list (device/label, in order) in every bundle — the bundles are
/// slices of one run, not a grab bag. Each campaign's slices must then tile
/// it (check_tiling, with `units` and `kind_fields`) and are concatenated,
/// flagged for duplicates across the whole sample (mutation campaigns run
/// with dedup) and recounted.
template <class Result, class KindFields>
std::vector<CampaignSlice<Result>> merge_bundles(
    const std::vector<ShardBundle>& bundles,
    std::vector<CampaignSlice<Result>> ShardBundle::*list, const char* kind,
    const char* units, KindFields kind_fields) {
  using Artifact = CampaignSlice<Result>;
  if (bundles.empty()) fail("no shard artifacts to merge");

  const unsigned count = bundles.front().shard.count;
  std::vector<std::pair<unsigned, const ShardBundle*>> indexed;
  indexed.reserve(bundles.size());
  for (const ShardBundle& b : bundles) {
    if (b.shard.count != count) {
      fail("shard count mismatch: got artifacts from a " +
           std::to_string(count) + "-way and a " +
           std::to_string(b.shard.count) + "-way sharding");
    }
    indexed.emplace_back(b.shard.index, &b);
  }
  indexed = sort_and_check_indices(std::move(indexed), count, "");

  const std::vector<Artifact>& reference = indexed.front().second->*list;
  for (const auto& [index, bundle] : indexed) {
    const std::vector<Artifact>& campaigns = bundle->*list;
    if (campaigns.size() != reference.size()) {
      fail("shard " + std::to_string(index) + " carries " +
           std::to_string(campaigns.size()) + " " + kind + "s but shard " +
           std::to_string(indexed.front().first) + " carries " +
           std::to_string(reference.size()));
    }
    for (size_t j = 0; j < reference.size(); ++j) {
      const std::string& device = campaigns[j].result.device;
      const std::string& ref_device = reference[j].result.device;
      if (device != ref_device || campaigns[j].label != reference[j].label) {
        fail("shard " + std::to_string(index) + " " + kind + " #" +
             std::to_string(j) + " is " + device + "/" + campaigns[j].label +
             " but shard " + std::to_string(indexed.front().first) + " ran " +
             ref_device + "/" + reference[j].label + " in that position");
      }
    }
  }

  std::vector<Artifact> merged;
  merged.reserve(reference.size());
  for (size_t j = 0; j < reference.size(); ++j) {
    std::vector<std::pair<unsigned, const Artifact*>> shards;
    shards.reserve(indexed.size());
    for (const auto& [index, bundle] : indexed) {
      shards.emplace_back(index, &(bundle->*list)[j]);
    }
    Artifact m = concatenate(check_tiling(shards, kind, units, kind_fields));
    if constexpr (std::is_same_v<Result, DriverCampaignResult>) {
      if (m.result.dedup) flag_duplicates(m.result.records);
    }
    recount(m.result);
    merged.push_back(std::move(m));
  }
  return merged;
}

/// Renders merged campaigns: a C campaign followed by the same device's
/// CDevil campaign as the paper's paired `section`; anything else (a
/// hand-built bundle) as one `table` per campaign under a "=== device ==="
/// banner with `banner_suffix`, titled `title_prefix` + label and device.
template <class Result>
void render_campaigns(
    std::string& out, const std::vector<CampaignSlice<Result>>& merged,
    std::string (*section)(const std::string&, const Result&, const Result&),
    std::string (*table)(const std::string&, const Result&),
    const char* banner_suffix, const char* title_prefix) {
  size_t i = 0;
  while (i < merged.size()) {
    const std::string& device = merged[i].result.device;
    if (i + 1 < merged.size() && device == merged[i + 1].result.device &&
        merged[i].label == "C" && merged[i + 1].label == "CDevil") {
      out += section(device, merged[i].result, merged[i + 1].result);
      i += 2;
      continue;
    }
    out += "=== " + device + banner_suffix + " ===\n\n";
    out += table(title_prefix + merged[i].label + " (" + device + ")",
                 merged[i].result);
    out += "\n";
    ++i;
  }
}

}  // namespace

std::vector<ShardArtifact> merge_shard_bundles(
    const std::vector<ShardBundle>& bundles) {
  return merge_bundles(bundles, &ShardBundle::campaigns, "campaign", "mutants",
                       [](const DriverCampaignResult& r) {
                         return std::tie(r.dedup, r.total_sites,
                                         r.total_mutants);
                       });
}

std::vector<FaultShardArtifact> merge_fault_bundles(
    const std::vector<ShardBundle>& bundles) {
  return merge_bundles(
      bundles, &ShardBundle::fault_campaigns, "fault campaign", "scenarios",
      [](const FaultCampaignResult& r) { return std::tie(r.total_scenarios); });
}

bool merge_bundle_metrics(const std::vector<ShardBundle>& bundles,
                          ProcessMetrics* out) {
  bool any = false;
  ProcessMetrics merged;
  // Counter sums and bucket-wise histogram merges are commutative and
  // associative, so the bundle order cannot change the aggregate.
  for (const ShardBundle& b : bundles) {
    if (!b.has_metrics) continue;
    merge_process_metrics(merged, b.metrics);
    any = true;
  }
  if (any && out) *out = merged;
  return any;
}

std::string render_merged_report(
    const std::vector<ShardArtifact>& merged,
    const std::vector<FaultShardArtifact>& fault_merged) {
  std::string out;
  // Fault campaigns render after the mutation sections (a `--faults`
  // bundle carries only fault campaigns, so the first call prints nothing
  // for it).
  render_campaigns(out, merged, render_device_section, render_driver_table,
                   "", "Campaign ");
  render_campaigns(out, fault_merged, render_fault_section, render_fault_table,
                   " (fault injection)", "Fault campaign ");
  return out;
}

}  // namespace eval
