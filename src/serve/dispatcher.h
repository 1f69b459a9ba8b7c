// Fans one campaign job out as N worker subprocesses, each running the
// existing `mutation_hunt --shard i/N --out <artifact>` path, then merges
// the shard artifacts back through eval/merge — so the report a dispatch
// produces is byte-identical to the single-process run (the merge layer
// validates fingerprints, 1..N coverage and slice tiling, and flags
// duplicates across shards).
//
// Fault tolerance: every shard has a wall-clock deadline fixed at spawn
// time and a bounded retry budget. A worker that times out is killed; a
// worker that dies on a signal, exits non-zero, or leaves an unloadable
// artifact is re-dispatched — only its own slice reruns, and the merged
// report is still byte-identical because the artifacts carry everything the
// merge validates. A shard that exhausts its retries fails the dispatch,
// and every worker still running is killed and reaped before the error
// propagates. Spec-kind campaigns (Table 2) have no slice API and run
// in-process instead.
#pragma once

#include <cstdint>
#include <string>

#include "eval/campaign_spec.h"

namespace serve {

struct DispatcherConfig {
  /// Worker executable: the mutation_hunt binary itself (the daemon passes
  /// its own path). Must be non-empty for driver/fault campaigns.
  std::string worker_binary;
  /// Directory for shard artifacts and per-worker logs. Artifacts are
  /// removed after a successful merge; worker logs of failed attempts are
  /// kept for post-mortem.
  std::string scratch_dir;
  /// Shard worker processes to fan the job out to (>= 1).
  unsigned workers = 3;
  /// Re-dispatch budget per shard, on top of the first attempt.
  unsigned worker_retries = 2;
  /// Per-attempt wall-clock budget; a worker past it is killed and retried.
  /// 0 waits forever.
  uint64_t worker_timeout_ms = 600'000;
  /// Robustness knob (wire.h CampaignRequest::kill_shard): 1-based shard
  /// whose first attempt is SIGKILLed right after spawn, 0 = off.
  unsigned kill_shard = 0;
  /// Names this job in scratch filenames, progress lines and errors.
  std::string job_tag = "job";
};

struct DispatchOutcome {
  /// The rendered report body — byte-identical to the single-process run's
  /// output minus its two header lines.
  std::string report;
  uint64_t workers_spawned = 0;
  uint64_t worker_retries = 0;
};

/// Runs `spec` to completion under `config`. Throws std::runtime_error
/// naming the job and the failing shard when a worker exhausts its retry
/// budget, the artifacts do not merge, or the config is unusable. Progress
/// (one tick per finished shard) reports through support::ProgressMeter,
/// so it is visible exactly when the daemon runs with `--progress`.
[[nodiscard]] DispatchOutcome dispatch_campaign(const eval::CampaignSpec& spec,
                                                const DispatcherConfig& config);

}  // namespace serve
