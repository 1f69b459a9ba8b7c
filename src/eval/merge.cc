#include "eval/merge.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_set>

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
/// ("mutants", "scenarios") in diagnostics; `kind_fields(a)` ties the
/// kind's own metadata, which must agree across shards like the header's.
template <class Artifact, class KindFields>
std::vector<std::pair<unsigned, const Artifact*>> check_tiling(
    const std::vector<std::pair<unsigned, const Artifact*>>& shards,
    const char* kind, const char* units, KindFields kind_fields) {
  if (shards.empty()) fail("no shard artifacts to merge");

  const Artifact& first = *shards.front().second;
  const std::string name =
      std::string(kind) + " " + first.device + "/" + first.label;
  const std::string first_index = std::to_string(shards.front().first);
  const unsigned count = static_cast<unsigned>(shards.size());

  // Every artifact must come from the same campaign configuration: the
  // fingerprint pins driver text, device binding, seed, engine and flags.
  for (const auto& [index, artifact] : shards) {
    if (artifact->fingerprint != first.fingerprint) {
      fail("config fingerprint mismatch for " + name + ": shard " +
           std::to_string(index) + " ran " + artifact->fingerprint +
           ", shard " + first_index + " ran " + first.fingerprint +
           " — these artifacts are from different campaign configurations "
           "and cannot be merged");
    }
    // Belt and braces for hand-edited artifacts: the fields the merge
    // copies forward must agree even if the fingerprints were doctored.
    if (artifact->device != first.device || artifact->label != first.label ||
        artifact->entry != first.entry || artifact->engine != first.engine ||
        artifact->sample_size != first.sample_size ||
        artifact->clean_fingerprint != first.clean_fingerprint ||
        kind_fields(*artifact) != kind_fields(first)) {
      fail("shard " + std::to_string(index) + " of " + name +
           " disagrees with shard " + first_index +
           " on campaign metadata despite equal fingerprints (corrupt "
           "artifact?)");
    }
    // Baseline telemetry is deterministic: every shard re-boots the same
    // unmutated driver, so step counts and opcode profiles must agree.
    if (artifact->baseline_steps != first.baseline_steps ||
        !(artifact->baseline_opcodes == first.baseline_opcodes)) {
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
    auto [lo, hi] = sample_slice_bounds(first.sample_size,
                                        SampleSlice{index - 1, count});
    if (artifact->slice_begin != lo || artifact->slice_end != hi) {
      fail("shard " + std::to_string(index) + "/" + std::to_string(count) +
           " of " + name + " covers sample positions [" +
           std::to_string(artifact->slice_begin) + ", " +
           std::to_string(artifact->slice_end) + ") but the " +
           std::to_string(count) + "-way split of " +
           std::to_string(first.sample_size) + " sampled " + units +
           " expects [" + std::to_string(lo) + ", " + std::to_string(hi) +
           ")");
    }
  }
  return ordered;
}

struct Key128 {
  uint64_t hi, lo;
  bool operator==(const Key128& o) const { return hi == o.hi && lo == o.lo; }
};
struct Key128Hash {
  size_t operator()(const Key128& k) const {
    return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Merges one mutation campaign's shard artifacts, re-deduping across
/// shards (see the file comment in merge.h).
DriverCampaignResult merge_shard_artifacts(
    const std::vector<std::pair<unsigned, const ShardArtifact*>>& shards) {
  const auto ordered =
      check_tiling(shards, "campaign", "mutants", [](const ShardArtifact& a) {
        return std::tie(a.dedup, a.total_sites, a.total_mutants);
      });
  const ShardArtifact& first = *ordered.front().second;

  DriverCampaignResult merged;
  static_cast<CampaignBaseline&>(merged) = first;
  merged.total_sites = first.total_sites;
  merged.total_mutants = first.total_mutants;
  merged.sampled_mutants = first.sample_size;
  merged.records.reserve(first.sample_size);

  // Concatenating in shard order restores sample order; re-dedup globally.
  // A record whose canonical key appeared in an earlier shard was compiled
  // and booted there redundantly — the unsharded run would have classified
  // it from the representative, with an identical outcome (the dedup
  // invariant), so only its flag and the counters need rewriting.
  std::unordered_set<Key128, Key128Hash> seen;
  if (first.dedup) seen.reserve(first.sample_size);
  for (const auto& [index, artifact] : ordered) {
    (void)index;
    for (const ShardRecord& r : artifact->records) {
      MutantRecord rec = r.rec;
      if (first.dedup) {
        auto [it, inserted] = seen.insert(Key128{r.key_hi, r.key_lo});
        (void)it;
        rec.deduped = !inserted;
        if (inserted) {
          merged.prefix_cache_hits += r.cache_hit ? 1 : 0;
          merged.patch_hits += rec.patched ? 1 : 0;
          merged.patch_fallbacks += rec.patch_fallback ? 1 : 0;
        } else {
          ++merged.deduped_mutants;
          // The unsharded run would have classified this record from the
          // representative without booting — duplicates carry no patch bits.
          rec.patched = false;
          rec.patch_fallback = false;
        }
      } else {
        rec.deduped = false;
        merged.prefix_cache_hits += r.cache_hit ? 1 : 0;
        merged.patch_hits += rec.patched ? 1 : 0;
        merged.patch_fallbacks += rec.patch_fallback ? 1 : 0;
      }
      merged.records.push_back(std::move(rec));
    }
  }
  for (const MutantRecord& rec : merged.records) {
    merged.tally.add(rec.outcome, rec.site);
  }
  return merged;
}

/// Merges one fault campaign's shard artifacts: a straight concatenation in
/// shard order (scenarios are never deduped) with the tally and triggered
/// count recomputed.
FaultCampaignResult merge_fault_artifacts(
    const std::vector<std::pair<unsigned, const FaultShardArtifact*>>& shards) {
  const auto ordered = check_tiling(
      shards, "fault campaign", "scenarios",
      [](const FaultShardArtifact& a) { return std::tie(a.total_scenarios); });
  const FaultShardArtifact& first = *ordered.front().second;

  FaultCampaignResult merged;
  static_cast<CampaignBaseline&>(merged) = first;
  merged.total_scenarios = first.total_scenarios;
  merged.sampled_scenarios = first.sample_size;
  merged.records.reserve(first.sample_size);
  for (const auto& [index, artifact] : ordered) {
    (void)index;
    merged.records.insert(merged.records.end(), artifact->records.begin(),
                          artifact->records.end());
  }
  for (const FaultRecord& rec : merged.records) {
    merged.tally.add(rec.outcome, rec.plan.port);
    if (rec.triggered) ++merged.triggered_scenarios;
  }
  return merged;
}

/// Merges the `list` section (mutation or fault campaigns) of whole bundles:
/// one shard count everywhere, bundle indices exactly 1..N, and the same
/// campaign list (device/label, in order) in every bundle — the bundles are
/// slices of one run, not a grab bag. Each campaign then merges across the
/// bundles through `merge_one`.
template <class Artifact, class Result>
std::vector<MergedResult<Result>> merge_bundles(
    const std::vector<ShardBundle>& bundles,
    std::vector<Artifact> ShardBundle::*list, const char* kind,
    Result (*merge_one)(
        const std::vector<std::pair<unsigned, const Artifact*>>&)) {
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
      if (campaigns[j].device != reference[j].device ||
          campaigns[j].label != reference[j].label) {
        fail("shard " + std::to_string(index) + " " + kind + " #" +
             std::to_string(j) + " is " + campaigns[j].device + "/" +
             campaigns[j].label + " but shard " +
             std::to_string(indexed.front().first) + " ran " +
             reference[j].device + "/" + reference[j].label +
             " in that position");
      }
    }
  }

  std::vector<MergedResult<Result>> merged;
  merged.reserve(reference.size());
  for (size_t j = 0; j < reference.size(); ++j) {
    std::vector<std::pair<unsigned, const Artifact*>> shards;
    shards.reserve(indexed.size());
    for (const auto& [index, bundle] : indexed) {
      shards.emplace_back(index, &(bundle->*list)[j]);
    }
    MergedResult<Result> m;
    m.device = reference[j].device;
    m.label = reference[j].label;
    m.engine = reference[j].engine;
    m.result = merge_one(shards);
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
    std::string& out, const std::vector<MergedResult<Result>>& merged,
    std::string (*section)(const std::string&, const Result&, const Result&),
    std::string (*table)(const std::string&, const Result&),
    const char* banner_suffix, const char* title_prefix) {
  size_t i = 0;
  while (i < merged.size()) {
    if (i + 1 < merged.size() && merged[i].device == merged[i + 1].device &&
        merged[i].label == "C" && merged[i + 1].label == "CDevil") {
      out += section(merged[i].device, merged[i].result, merged[i + 1].result);
      i += 2;
      continue;
    }
    out += "=== " + merged[i].device + banner_suffix + " ===\n\n";
    out += table(title_prefix + merged[i].label + " (" + merged[i].device +
                     ")",
                 merged[i].result);
    out += "\n";
    ++i;
  }
}

}  // namespace

std::vector<MergedCampaign> merge_shard_bundles(
    const std::vector<ShardBundle>& bundles) {
  return merge_bundles(bundles, &ShardBundle::campaigns, "campaign",
                       &merge_shard_artifacts);
}

std::vector<MergedFaultCampaign> merge_fault_bundles(
    const std::vector<ShardBundle>& bundles) {
  return merge_bundles(bundles, &ShardBundle::fault_campaigns,
                       "fault campaign", &merge_fault_artifacts);
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
    const std::vector<MergedCampaign>& merged,
    const std::vector<MergedFaultCampaign>& fault_merged) {
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
