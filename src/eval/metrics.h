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
// Serialization rides on support/json_io (compact, insertion-ordered,
// byte-stable) and the same atomic tmp+rename write path as shard bundles.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "support/json_io.h"
#include "support/metrics.h"

namespace eval {

/// One campaign's deterministic telemetry row. Mutation and fault campaigns
/// share the struct; `fault_campaign` selects which counters are meaningful
/// (and serialized): dedup/prefix-cache/unique-boot counters for mutation
/// rows, the triggered count for fault rows.
struct CampaignMetricsRow {
  std::string device;
  std::string label;   // "C" / "CDevil"
  std::string entry;
  std::string engine;  // minic::exec_engine_name
  bool fault_campaign = false;

  uint64_t records = 0;            // sampled mutants / scenarios
  uint64_t deduped = 0;            // mutation rows only
  uint64_t prefix_cache_hits = 0;  // mutation rows only
  /// Mutation rows only: boots from a patched clean-tail module vs
  /// recompiles while the campaign had a patcher. Deterministic (the patched
  /// split is a pure function of each mutant), so they live in the
  /// deterministic section like the dedup counters.
  uint64_t patch_hits = 0;
  uint64_t patch_fallbacks = 0;
  /// Mutation rows: booted records that are not canonical duplicates (one
  /// boot per key; compile-time failures never boot).
  uint64_t unique_boots = 0;
  uint64_t triggered = 0;  // fault rows only

  /// Sum of interpreter steps over ALL records. Duplicates boot too, and
  /// key-equal mutants retire identical counts, so the sum does not depend
  /// on how the records were flagged.
  uint64_t boot_steps = 0;
  uint64_t baseline_steps = 0;
  /// Zero-suppressed (opcode name, dispatch count) pairs of the baseline
  /// boot, in opcode order. Empty on the tree walker.
  std::vector<std::pair<std::string, uint64_t>> baseline_opcodes;
  /// (short outcome name, record count) pairs in outcome-enum order,
  /// zero rows omitted.
  std::vector<std::pair<std::string, uint64_t>> tally;

  friend bool operator==(const CampaignMetricsRow&,
                         const CampaignMetricsRow&) = default;
};

/// The "timings" section: one process's (or, after aggregation, one shard
/// fleet's) wall-clock telemetry. Everything here is non-deterministic.
struct ProcessMetrics {
  uint64_t threads = 0;  // summed across merged shards
  uint64_t wall_ns = 0;
  std::array<support::Histogram, support::kStageCount> stages;
  uint64_t pool_fresh = 0;
  uint64_t pool_recycled = 0;
  /// Boots killed by the wall-clock watchdog — host-speed dependent, hence
  /// a timing counter and never part of the deterministic section.
  uint64_t watchdog_trips = 0;
  support::Histogram worker_records;
  /// Campaign-service counters (support::MetricsSnapshot's service_* set).
  /// Serialized as an optional "service" sub-object only when any counter
  /// is nonzero, so artifacts from non-daemon runs are byte-identical to
  /// the pre-service format and old artifacts still parse.
  uint64_t service_jobs_queued = 0;
  uint64_t service_jobs_dispatched = 0;
  uint64_t service_cache_hits = 0;
  uint64_t service_workers_spawned = 0;
  uint64_t service_worker_retries = 0;

  friend bool operator==(const ProcessMetrics&,
                         const ProcessMetrics&) = default;
};

struct MetricsArtifact {
  std::vector<CampaignMetricsRow> campaigns;
  std::vector<CampaignMetricsRow> fault_campaigns;
  ProcessMetrics process;

  friend bool operator==(const MetricsArtifact&,
                         const MetricsArtifact&) = default;
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

/// JSON round trip. serialize is byte-stable; parse validates the format
/// tag, version and every field, and throws std::runtime_error with a clear
/// diagnostic on corrupt input. parse(serialize(a)) == a, and re-serializing
/// a parsed artifact reproduces the exact input bytes.
[[nodiscard]] std::string serialize_metrics(const MetricsArtifact& artifact);
[[nodiscard]] MetricsArtifact parse_metrics(const std::string& text);

/// The "deterministic" section alone, as compact JSON — the byte string CI
/// compares across thread counts and merged-vs-single runs.
[[nodiscard]] std::string deterministic_metrics_json(
    const MetricsArtifact& artifact);

/// File wrappers on the shared atomic tmp+rename path (eval/shard.h):
/// save throws ArtifactWriteError (CLI exit 2) and never leaves a partial
/// file; load/parse errors throw std::runtime_error prefixed with the path.
void save_metrics_artifact(const std::string& path,
                           const MetricsArtifact& artifact);
[[nodiscard]] MetricsArtifact load_metrics_artifact(const std::string& path);

}  // namespace eval
