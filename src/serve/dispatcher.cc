#include "serve/dispatcher.h"

#include <signal.h>

#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "corpus/specs.h"
#include "eval/merge.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "eval/spec_campaign.h"
#include "support/metrics.h"
#include "support/subprocess.h"

namespace serve {

namespace {

[[noreturn]] void fail(const std::string& job_tag, const std::string& what) {
  throw std::runtime_error("dispatch [" + job_tag + "]: " + what);
}

/// One shard's dispatch state across attempts.
struct ShardJob {
  unsigned index = 0;  // 1-based
  std::vector<std::string> argv;
  std::string artifact_path;
  std::string log_path;
  pid_t pid = -1;
  uint64_t deadline_ns = 0;  // 0 = no deadline
  unsigned attempts = 0;
  bool done = false;
};

void spawn_shard(ShardJob& shard, uint64_t timeout_ms) {
  shard.pid = support::spawn_process(shard.argv, shard.log_path);
  shard.deadline_ns =
      timeout_ms == 0 ? 0 : support::monotonic_ns() + timeout_ms * 1'000'000;
  shard.attempts++;
}

/// Waits out `shard` against its spawn-time deadline. Returns "" when the
/// worker exited cleanly, else a one-line reason for the retry path (the
/// worker is already killed/reaped either way).
std::string await_shard(ShardJob& shard) {
  uint64_t timeout_ms = 0;
  if (shard.deadline_ns != 0) {
    uint64_t now = support::monotonic_ns();
    // Past-deadline shards still get one 1ms poll: a worker that finished
    // while we waited on its siblings is a success, not a timeout.
    timeout_ms =
        now >= shard.deadline_ns ? 1 : (shard.deadline_ns - now) / 1'000'000 + 1;
  }
  support::WaitResult wr = support::wait_process(shard.pid, timeout_ms);
  if (wr.timed_out) support::kill_process(shard.pid);
  shard.pid = -1;  // reaped either way
  if (wr.timed_out) {
    return "timed out after " + std::to_string(timeout_ms) + "ms";
  }
  if (!wr.clean_exit()) return wr.describe();
  return "";
}

DispatchOutcome run_spec_job(const eval::CampaignSpec& spec) {
  eval::SpecCampaignConfig config = eval::spec_campaign_config_for(spec);
  const auto& entries = corpus::all_specs();
  support::ProgressMeter meter("spec campaigns", entries.size());
  std::vector<eval::SpecCampaignRow> rows;
  rows.reserve(entries.size());
  for (const auto& entry : entries) {
    rows.push_back(eval::run_spec_campaign(entry, config));
    meter.tick();
  }
  DispatchOutcome out;
  out.report = eval::render_table2(rows);
  return out;
}

DispatchOutcome run_shard_job(const eval::CampaignSpec& spec,
                              const DispatcherConfig& config) {
  if (config.worker_binary.empty()) {
    fail(config.job_tag, "no worker binary configured");
  }
  if (config.scratch_dir.empty()) {
    fail(config.job_tag, "no scratch directory configured");
  }
  const unsigned n = config.workers == 0 ? 1 : config.workers;
  std::vector<std::string> spec_args = eval::campaign_spec_to_args(spec);

  std::vector<ShardJob> shards(n);
  for (unsigned i = 1; i <= n; ++i) {
    ShardJob& shard = shards[i - 1];
    shard.index = i;
    std::string stem =
        config.scratch_dir + "/" + config.job_tag + "-shard-" +
        std::to_string(i) + "of" + std::to_string(n);
    shard.artifact_path = stem + ".json";
    shard.log_path = stem + ".log";
    shard.argv = {config.worker_binary, "--shard",
                  std::to_string(i) + "/" + std::to_string(n), "--out",
                  shard.artifact_path};
    shard.argv.insert(shard.argv.end(), spec_args.begin(), spec_args.end());
  }

  // Whatever ends the dispatch early (a shard out of retries, a failed
  // spawn), no worker outlives it: the ones still running are killed and
  // reaped on the way out.
  struct ReapOnExit {
    std::vector<ShardJob>& shards;
    ~ReapOnExit() {
      for (const ShardJob& shard : shards) {
        if (shard.pid > 0) support::kill_process(shard.pid);
      }
    }
  } reap{shards};

  DispatchOutcome out;
  support::ProgressMeter meter(config.job_tag + " shards", n);
  for (ShardJob& shard : shards) {
    spawn_shard(shard, config.worker_timeout_ms);
    out.workers_spawned++;
  }
  if (config.kill_shard >= 1 && config.kill_shard <= n) {
    ::kill(shards[config.kill_shard - 1].pid, SIGKILL);
  }

  std::vector<eval::ShardBundle> bundles(n);
  for (ShardJob& shard : shards) {
    for (;;) {
      std::string reason = await_shard(shard);
      if (reason.empty()) {
        try {
          bundles[shard.index - 1] =
              eval::load_shard_bundle(shard.artifact_path);
          shard.done = true;
          break;
        } catch (const std::runtime_error& e) {
          reason = std::string("artifact unloadable: ") + e.what();
        }
      }
      if (shard.attempts > config.worker_retries) {
        fail(config.job_tag,
             "shard " + std::to_string(shard.index) + "/" +
                 std::to_string(n) + " failed after " +
                 std::to_string(shard.attempts) + " attempt(s): " + reason +
                 " (worker log: " + shard.log_path + ")");
      }
      spawn_shard(shard, config.worker_timeout_ms);
      out.workers_spawned++;
      out.worker_retries++;
    }
    meter.tick();
  }

  std::vector<eval::ShardArtifact> merged = eval::merge_shard_bundles(bundles);
  std::vector<eval::FaultShardArtifact> fault_merged =
      eval::merge_fault_bundles(bundles);
  out.report = eval::render_merged_report(merged, fault_merged);

  for (const ShardJob& shard : shards) {
    std::remove(shard.artifact_path.c_str());
    std::remove(shard.log_path.c_str());
  }
  return out;
}

}  // namespace

DispatchOutcome dispatch_campaign(const eval::CampaignSpec& spec,
                                  const DispatcherConfig& config) {
  std::vector<std::string> diags = eval::validate_campaign_spec(spec);
  if (!diags.empty()) fail(config.job_tag, diags.front());
  if (spec.kind == eval::CampaignKind::kSpec) return run_spec_job(spec);
  try {
    return run_shard_job(spec, config);
  } catch (const eval::ArtifactWriteError& e) {
    fail(config.job_tag, e.what());
  }
}

}  // namespace serve
