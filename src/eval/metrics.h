// Campaign metrics artifacts: the exported form of the telemetry subsystem.
//
// An artifact has two strictly separated sections:
//
//  - "deterministic": per-campaign counters derived only from campaign
//    results (records, dedup/prefix-cache hits, boot step totals, baseline
//    step counts and VM opcode profiles, outcome tallies). These are
//    byte-identical across thread counts and across a shard merge vs the
//    single-process run — CI compares them with `cmp`.
//  - "timings": process wall-clock telemetry (stage histograms, device-pool
//    churn, per-worker record shares). Never compared byte-for-byte; shard
//    merges aggregate it (counter sums, bucket-wise histogram merges).
//
// The artifact is written, never read back by this program: CI and
// devilbench read its JSON themselves (`python3 -c 'import json...'`, `jq`).
// A deterministic row is built directly as its JSON object, so a new counter
// is one `row.set(...)` line in a row builder. The one reader left is
// `process_metrics_from_json`: shard bundles embed their process timings and
// `--merge` (and the service's dispatcher) read them back.
//
// Serialization rides on support/json_io (compact, insertion-ordered,
// byte-stable) and the same atomic tmp+rename write path as shard bundles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "support/json_io.h"
#include "support/metrics.h"

namespace eval {

/// One campaign's deterministic telemetry row, as the JSON object the
/// artifact carries. Keys, in order:
///
///  - "device", "label" ("C" / "CDevil"), "entry", "engine"
///    (minic::exec_engine_name), "records" (sampled mutants / scenarios);
///  - mutation rows: "deduped", "prefix_cache_hits", "patch_hits" and
///    "patch_fallbacks" (boots from a patched clean-tail module vs
///    recompiles while the campaign had a patcher; a pure function of each
///    mutant), "unique_boots" (booted records that are not canonical
///    duplicates; compile-time failures never boot);
///  - fault rows: "triggered" (records whose fault fired);
///  - "boot_steps": interpreter steps summed over ALL records (duplicates
///    boot too, and key-equal mutants retire identical counts, so the sum
///    does not depend on how records were flagged);
///  - "baseline_steps" and "baseline_opcodes" (opcode name -> dispatch
///    count of the baseline boot, zero-suppressed, in opcode order; empty on
///    the tree walker);
///  - "tally": short outcome name -> record count in outcome-enum order,
///    zero rows omitted.
using CampaignMetricsRow = support::JsonValue;

/// The "timings" section: one process's (or, after aggregation, one shard
/// fleet's) collector snapshot plus the caller-measured thread count and
/// wall time. Everything here is non-deterministic.
struct ProcessMetrics : support::MetricsSnapshot {
  uint64_t threads = 0;  // summed across merged shards
  uint64_t wall_ns = 0;

  friend bool operator==(const ProcessMetrics&,
                         const ProcessMetrics&) = default;
};

struct MetricsArtifact {
  std::vector<CampaignMetricsRow> campaigns;
  std::vector<CampaignMetricsRow> fault_campaigns;
  ProcessMetrics process;
};

/// Row builders. `engine` is the minic::exec_engine_name string of the
/// engine the campaign ran on (results do not carry it; configs and shard
/// artifacts do).
[[nodiscard]] CampaignMetricsRow campaign_metrics_row(
    const DriverCampaignResult& result, const std::string& label,
    const std::string& engine);
[[nodiscard]] CampaignMetricsRow fault_metrics_row(
    const FaultCampaignResult& result, const std::string& label,
    const std::string& engine);

/// Captures the process section from the live collector: the global
/// support::Metrics snapshot plus the caller-measured wall time and thread
/// count.
[[nodiscard]] ProcessMetrics capture_process_metrics(uint64_t threads,
                                                     uint64_t wall_ns);

/// ProcessMetrics <-> JSON, shared between metrics artifacts and the
/// optional embedded metrics of a shard bundle. from_json validates every
/// field and throws std::runtime_error (prefixed with `ctx`) on corrupt
/// input.
[[nodiscard]] support::JsonValue process_metrics_to_json(
    const ProcessMetrics& pm);
[[nodiscard]] ProcessMetrics process_metrics_from_json(
    const support::JsonValue& v, const std::string& ctx);

/// Aggregates `from` into `into`: counters sum, histograms merge bucket-wise
/// (commutative and associative, so shard order cannot change the result).
void merge_process_metrics(ProcessMetrics& into, const ProcessMetrics& from);

/// The whole artifact as compact, byte-stable JSON.
[[nodiscard]] std::string serialize_metrics(const MetricsArtifact& artifact);

/// The "deterministic" section alone, as compact JSON — the byte string CI
/// compares across thread counts and merged-vs-single runs.
[[nodiscard]] std::string deterministic_metrics_json(
    const MetricsArtifact& artifact);

/// Writes serialize_metrics(artifact) on the shared atomic tmp+rename path
/// (eval/shard.h): throws ArtifactWriteError (CLI exit 2) and never leaves a
/// partial file.
void save_metrics_artifact(const std::string& path,
                           const MetricsArtifact& artifact);

}  // namespace eval
