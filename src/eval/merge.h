// Recombines campaign shard artifacts (eval/shard.h) into the artifact of
// the slice that covers the whole sample — records, tallies and counters
// byte-identical to the single-process run, and therefore
// eval/report.h's rendered tables too.
//
// Merge semantics: dedup is a label. Every shard compiles and boots every
// mutant of its slice, and each record carries its canonical dedup-key
// hash, so a shard's `deduped` flags can only see its own slice. The merge
// concatenates the slices in sample order and runs the kernel's own
// flag_duplicates (eval/driver_campaign.h) over them: every record whose key
// hash appeared earlier in the whole sample is flagged and its boot
// telemetry bits (prefix cache, patching, fast-forward) cleared, exactly as
// the unsharded kernel does, and then everything is recounted.
#pragma once

#include <string>
#include <vector>

#include "eval/shard.h"

namespace eval {

/// Merges whole bundles (one per shard process): validates the shard
/// coordinates (same count everywhere, indices exactly 1..N), requires
/// every bundle to carry the same campaign list (device/label, in order),
/// and merges each campaign across the bundles into one artifact whose
/// slice is the whole sample.
/// Campaigns come back in the bundles' common list order. A campaign's
/// artifacts must tile exactly that campaign — one config fingerprint,
/// agreeing metadata and baseline telemetry, slice bounds matching the
/// canonical i/N partition — or the merge throws std::runtime_error naming
/// the offence.
[[nodiscard]] std::vector<ShardArtifact> merge_shard_bundles(
    const std::vector<ShardBundle>& bundles);

/// Merges the fault campaigns of whole bundles with the same validation.
/// Fault scenarios are never deduped, so each campaign is a straight
/// concatenation in shard order, recounted. Bundles without fault
/// campaigns merge to an empty list.
[[nodiscard]] std::vector<FaultShardArtifact> merge_fault_bundles(
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
    const std::vector<ShardArtifact>& merged,
    const std::vector<FaultShardArtifact>& fault_merged);

}  // namespace eval
