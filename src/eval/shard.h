// Process-level campaign sharding: run one `shard i/N` slice of a driver
// campaign and serialize the result as a mergeable artifact.
//
// A shard artifact is the recovery-friendly unit of work for scaling the
// campaigns past one process (or one host): it carries everything a merge
// needs to reassemble the exact single-process result — the per-mutant
// records (with their canonical dedup-key hashes, `MutantRecord::key`, from
// which the merge flags duplicates across slices), the slice bounds, the
// shard-local tallies/counters, and a config fingerprint that pins the
// campaign configuration the shard actually ran. eval/merge.h recombines
// artifacts and rejects any set whose fingerprints, shard counts or slice
// bounds do not tile one campaign.
//
// Shard indices are 1-based in specs and artifacts ("shard 1/3".."3/3"),
// matching the CLI `--shard i/N`; the in-process SampleSlice stays 0-based.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/metrics.h"

namespace eval {

/// 1-based shard coordinates: this process runs slice `index` of `count`.
struct ShardSpec {
  unsigned index = 1;
  unsigned count = 1;

  [[nodiscard]] std::string to_string() const {
    return std::to_string(index) + "/" + std::to_string(count);
  }
};

/// Parses "i/N" (1 <= i <= N, decimal, no extra characters). Throws
/// std::invalid_argument with a diagnostic naming the bad spec otherwise —
/// "0/3" and "4/3" are rejected, not clamped.
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& text);

/// One campaign's shard slice, as serialized: the kernel's result for the
/// slice, plus which campaign it is and which part of the sample it covers.
/// The result's records, counters and tally are slice-local; a merge
/// (eval/merge.h) returns the slice that covers the whole sample. `label`
/// distinguishes the paper's two campaigns per device ("C", "CDevil");
/// `fingerprint` is a 128-bit hex digest of every config field that can
/// change records or counters (campaign_fingerprint /
/// fault_campaign_fingerprint — never the thread count, which cannot).
template <class Result>
struct CampaignSlice {
  std::string label;
  std::string engine;  // minic::exec_engine_name of the engine that ran
  std::string fingerprint;
  size_t slice_begin = 0;  // sample positions [slice_begin, slice_end)
  size_t slice_end = 0;
  Result result;
};
using ShardArtifact = CampaignSlice<DriverCampaignResult>;
using FaultShardArtifact = CampaignSlice<FaultCampaignResult>;

/// A serialized shard file: the shard coordinates plus one artifact per
/// campaign the process ran (the CLI writes C and CDevil per device).
/// `fault_campaigns` is populated by `--faults` runs; mutation-campaign
/// bundles leave it empty and their serialized form is unchanged.
struct ShardBundle {
  ShardSpec shard;
  std::vector<ShardArtifact> campaigns;
  std::vector<FaultShardArtifact> fault_campaigns;
  /// Optional process telemetry for this shard (the CLI embeds it when run
  /// with `--metrics`). Timings only — never part of merge validation; the
  /// merge aggregates whatever bundles carry it (eval/merge.h).
  bool has_metrics = false;
  ProcessMetrics metrics;
};

/// Fingerprint of everything in `config` that determines campaign results
/// and counters (see CampaignSlice::fingerprint). 32 hex chars.
[[nodiscard]] std::string campaign_fingerprint(
    const DriverCampaignConfig& config);

/// Runs slice `spec` of the campaign and packages the artifact. The
/// underlying kernel is run_driver_campaign_slice, so an artifact's records
/// are byte-identical to the matching subrange of the unsharded campaign,
/// at any thread count.
[[nodiscard]] ShardArtifact run_campaign_shard(
    const DriverCampaignConfig& config, const std::string& label,
    ShardSpec spec);

/// Fingerprint of everything in a fault-campaign config that determines
/// records and counters: the embedded campaign fingerprint (driver, stubs,
/// device, entry, seed, step budget, engine, ...) plus the fault knobs
/// (trigger list, scenario sample percent). 32 hex chars.
[[nodiscard]] std::string fault_campaign_fingerprint(
    const FaultCampaignConfig& config);

/// Runs slice `spec` of the fault campaign and packages the artifact
/// (kernel: run_fault_campaign_slice — same byte-identity guarantees as
/// run_campaign_shard).
[[nodiscard]] FaultShardArtifact run_fault_campaign_shard(
    const FaultCampaignConfig& config, const std::string& label,
    ShardSpec spec);

/// JSON round trip. serialize is byte-stable (equal bundles yield equal
/// bytes); parse validates the format tag, version and every field's
/// presence and type, recomputes the per-artifact tally/counters from the
/// records, and throws std::runtime_error with a clear diagnostic on
/// truncated, corrupt or internally inconsistent input.
[[nodiscard]] std::string serialize_shard_bundle(const ShardBundle& bundle);
[[nodiscard]] ShardBundle parse_shard_bundle(const std::string& text);

/// Thrown when a shard artifact cannot be written (unwritable directory,
/// full disk, rename failure). The CLI maps it to exit code 2; the message
/// names the path and the failing step. The target file is never left
/// partially written: writes go to `<path>.tmp` and the temporary is
/// removed on failure.
class ArtifactWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Atomically writes `text` (plus a trailing newline) to `path` via the
/// `<path>.tmp` + rename protocol described on ArtifactWriteError. Shared by
/// every artifact writer (shard bundles, metrics artifacts) so they all have
/// the same crash/full-disk story and diagnostics.
void write_artifact_atomically(const std::string& path,
                               const std::string& text);

/// File convenience wrappers. save is atomic: the bundle is written to
/// `<path>.tmp` and renamed over `path` only after a successful flush, so a
/// crash or full disk never leaves a partial or lost artifact; write
/// failures throw ArtifactWriteError. load/parse errors throw
/// std::runtime_error prefixed with the path.
void save_shard_bundle(const std::string& path, const ShardBundle& bundle);
[[nodiscard]] ShardBundle load_shard_bundle(const std::string& path);

}  // namespace eval
