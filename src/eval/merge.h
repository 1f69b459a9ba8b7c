// Recombines campaign shard artifacts (eval/shard.h) into results that are
// byte-identical to the single-process run — records, tallies, counters and
// therefore eval/report.h's rendered tables.
//
// Merge semantics: canonical-key dedup is shard-local while the shards run
// (a shard cannot see another shard's mutants), so a mutant that the
// unsharded campaign would classify as a duplicate may have been genuinely
// compiled and booted by its shard. That is safe — the dedup invariant
// (ctest-enforced since the dedup PR) guarantees a key-equal mutant's run
// produces the same outcome and detail as duplicate classification — but
// the `deduped` flags and the dedup/prefix-cache counters must be
// reconstructed globally. The merge therefore re-dedups across shards: it
// walks the concatenated records in sample order, marks every record whose
// canonical key hash appeared earlier as `deduped`, and counts prefix-cache
// hits only for globally-first records (the only compiles the unsharded
// campaign performs).
#pragma once

#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/shard.h"

namespace eval {

/// One campaign reassembled from all its shards.
template <class Result>
struct MergedResult {
  std::string device;
  std::string label;   // "C" / "CDevil" (SliceHeader::label)
  std::string engine;  // shard-validated minic::exec_engine_name
  Result result;
};
using MergedCampaign = MergedResult<DriverCampaignResult>;
using MergedFaultCampaign = MergedResult<FaultCampaignResult>;

/// Merges whole bundles (one per shard process): validates the shard
/// coordinates (same count everywhere, indices exactly 1..N), requires
/// every bundle to carry the same campaign list (device/label, in order),
/// and merges each campaign across the bundles. Campaigns come back in the
/// bundles' common list order. A campaign's artifacts must tile exactly
/// that campaign — one config fingerprint, agreeing metadata and baseline
/// telemetry, slice bounds matching the canonical i/N partition — or the
/// merge throws std::runtime_error naming the offence.
[[nodiscard]] std::vector<MergedCampaign> merge_shard_bundles(
    const std::vector<ShardBundle>& bundles);

/// Merges the fault campaigns of whole bundles with the same validation.
/// Fault scenarios are never deduped, so each campaign is a straight
/// concatenation in shard order with the tally and triggered count
/// recomputed. Bundles without fault campaigns merge to an empty list.
[[nodiscard]] std::vector<MergedFaultCampaign> merge_fault_bundles(
    const std::vector<ShardBundle>& bundles);

/// Aggregates the embedded process metrics of every bundle that carries any
/// (eval/metrics.h merge_process_metrics: counter sums, bucket-wise
/// histogram merges — order-independent). Returns false, leaving `out`
/// untouched, when no bundle embeds metrics.
bool merge_bundle_metrics(const std::vector<ShardBundle>& bundles,
                          ProcessMetrics* out);

/// Renders merged campaigns as the single-process report body: adjacent
/// C/CDevil campaigns of one device print as the paper's paired section
/// (eval/report.h render_device_section / render_fault_section); anything
/// else (a hand-built bundle) falls back to one table per campaign. This is
/// the byte string `--merge` prints and the campaign service streams back —
/// identical to the single-process run's output minus its two header lines.
[[nodiscard]] std::string render_merged_report(
    const std::vector<MergedCampaign>& merged,
    const std::vector<MergedFaultCampaign>& fault_merged);

}  // namespace eval
