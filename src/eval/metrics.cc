#include "eval/metrics.h"

#include <stdexcept>
#include <utility>

#include "eval/shard.h"
#include "minic/bytecode/bytecode.h"

namespace eval {

namespace {

constexpr const char* kFormatTag = "devil-repro-metrics";
// Version 2: campaign rows carry patch_hits/patch_fallbacks and the timing
// section gained the "patch" stage histogram.
constexpr int64_t kFormatVersion = 2;

using support::require;
using support::require_u64;

/// The keys every row starts with.
support::JsonValue row_head(const CampaignBaseline& result,
                            const std::string& label,
                            const std::string& engine, size_t records) {
  support::JsonValue row = support::JsonValue::object();
  row.set("device", result.device);
  row.set("label", label);
  row.set("entry", result.entry);
  row.set("engine", engine);
  row.set("records", records);
  return row;
}

/// The keys every row ends with: the step sum over the records, the
/// baseline boot's steps and zero-suppressed opcode profile, and the
/// zero-suppressed tally.
template <typename Tally, typename ShortName>
void row_tail(support::JsonValue& row, uint64_t boot_steps,
              const CampaignBaseline& result, const Tally& tally,
              ShortName short_name) {
  row.set("boot_steps", boot_steps);
  row.set("baseline_steps", result.baseline_steps);
  support::JsonValue opcodes = support::JsonValue::object();
  for (size_t i = 0; i < minic::bytecode::kOpCount; ++i) {
    const uint64_t n = result.baseline_opcodes.counts[i];
    if (n != 0) {
      opcodes.set(minic::bytecode::op_name(static_cast<minic::bytecode::Op>(i)),
                  n);
    }
  }
  row.set("baseline_opcodes", std::move(opcodes));
  support::JsonValue counts = support::JsonValue::object();
  for (const auto& [outcome, count] : tally) {
    if (count > 0) counts.set(short_name(outcome), count);
  }
  row.set("tally", std::move(counts));
}

support::JsonValue histogram_to_json(const support::Histogram& h) {
  support::JsonValue obj = support::JsonValue::object();
  obj.set("count", h.count());
  obj.set("total", h.total());
  support::JsonValue buckets = support::JsonValue::object();
  for (size_t b = 0; b < support::Histogram::kBuckets; ++b) {
    if (h.buckets()[b] != 0) buckets.set(std::to_string(b), h.buckets()[b]);
  }
  obj.set("buckets", std::move(buckets));
  return obj;
}

support::Histogram histogram_from_json(const support::JsonValue& v,
                                       const std::string& ctx) {
  support::Histogram h;
  uint64_t count = require_u64(v, "count", ctx);
  uint64_t total = require_u64(v, "total", ctx);
  const support::JsonValue& buckets = require(v, "buckets", ctx);
  uint64_t sum = 0;
  int64_t prev = -1;
  for (const auto& [key, nv] : buckets.members()) {
    size_t b = 0;
    try {
      size_t pos = 0;
      b = std::stoul(key, &pos);
      if (pos != key.size()) throw std::invalid_argument(key);
    } catch (const std::exception&) {
      throw std::runtime_error(ctx + ": bad bucket index '" + key + "'");
    }
    if (b >= support::Histogram::kBuckets) {
      throw std::runtime_error(ctx + ": bucket index " + std::to_string(b) +
                               " out of range");
    }
    if (static_cast<int64_t>(b) <= prev) {
      throw std::runtime_error(ctx + ": bucket indices must be strictly "
                               "ascending");
    }
    prev = static_cast<int64_t>(b);
    int64_t n = nv.as_int();
    if (n <= 0) {
      throw std::runtime_error(ctx + ": bucket " + std::to_string(b) +
                               " count must be positive");
    }
    h.set_bucket(b, static_cast<uint64_t>(n));
    sum += static_cast<uint64_t>(n);
  }
  if (sum != count) {
    throw std::runtime_error(ctx + ": count says " + std::to_string(count) +
                             " but the buckets sum to " + std::to_string(sum) +
                             " (corrupt artifact?)");
  }
  h.set_total(total);
  return h;
}

/// The optional "service" sub-object's keys, in artifact order.
constexpr std::pair<const char*, uint64_t support::MetricsSnapshot::*>
    kServiceCounters[] = {
        {"jobs_queued", &support::MetricsSnapshot::service_jobs_queued},
        {"jobs_dispatched", &support::MetricsSnapshot::service_jobs_dispatched},
        {"cache_hits", &support::MetricsSnapshot::service_cache_hits},
        {"workers_spawned", &support::MetricsSnapshot::service_workers_spawned},
        {"worker_retries", &support::MetricsSnapshot::service_worker_retries},
};

support::JsonValue rows_to_json(const std::vector<CampaignMetricsRow>& rows) {
  support::JsonValue array = support::JsonValue::array();
  for (const CampaignMetricsRow& row : rows) array.push_back(row);
  return array;
}

support::JsonValue deterministic_to_json(const MetricsArtifact& artifact) {
  support::JsonValue det = support::JsonValue::object();
  det.set("campaigns", rows_to_json(artifact.campaigns));
  det.set("fault_campaigns", rows_to_json(artifact.fault_campaigns));
  return det;
}

}  // namespace

CampaignMetricsRow campaign_metrics_row(const DriverCampaignResult& result,
                                        const std::string& label,
                                        const std::string& engine) {
  uint64_t unique_boots = 0;
  uint64_t boot_steps = 0;
  for (const MutantRecord& rec : result.records) {
    if (!rec.deduped && rec.outcome != Outcome::kCompileTime) ++unique_boots;
    boot_steps += rec.steps;
  }
  CampaignMetricsRow row =
      row_head(result, label, engine, result.records.size());
  row.set("deduped", result.deduped_mutants);
  row.set("prefix_cache_hits", result.prefix_cache_hits);
  row.set("patch_hits", result.patch_hits);
  row.set("patch_fallbacks", result.patch_fallbacks);
  row.set("unique_boots", unique_boots);
  row_tail(row, boot_steps, result, result.tally.mutants, outcome_short);
  return row;
}

CampaignMetricsRow fault_metrics_row(const FaultCampaignResult& result,
                                     const std::string& label,
                                     const std::string& engine) {
  uint64_t boot_steps = 0;
  for (const FaultRecord& rec : result.records) boot_steps += rec.steps;
  CampaignMetricsRow row =
      row_head(result, label, engine, result.records.size());
  row.set("triggered", result.triggered_scenarios);
  row_tail(row, boot_steps, result, result.tally.scenarios,
           fault_outcome_short);
  return row;
}

ProcessMetrics capture_process_metrics(uint64_t threads, uint64_t wall_ns) {
  return ProcessMetrics{support::Metrics::snapshot(), threads, wall_ns};
}

support::JsonValue process_metrics_to_json(const ProcessMetrics& pm) {
  support::JsonValue t = support::JsonValue::object();
  t.set("threads", pm.threads);
  t.set("wall_ns", pm.wall_ns);
  // All stages are written (zero or not) in enum order, so the section's
  // shape never depends on which stages happened to fire.
  support::JsonValue stages = support::JsonValue::object();
  for (size_t s = 0; s < support::kStageCount; ++s) {
    stages.set(support::stage_name(static_cast<support::Stage>(s)),
               histogram_to_json(pm.stages[s]));
  }
  t.set("stages", std::move(stages));
  t.set("pool_fresh", pm.pool_fresh);
  t.set("pool_recycled", pm.pool_recycled);
  t.set("watchdog_trips", pm.watchdog_trips);
  t.set("worker_records", histogram_to_json(pm.worker_records));
  // The campaign-service counters ride in an optional sub-object emitted
  // only when a daemon actually recorded something, so non-daemon
  // artifacts keep the exact pre-service bytes.
  support::JsonValue svc = support::JsonValue::object();
  bool any_service = false;
  for (const auto& [key, field] : kServiceCounters) {
    svc.set(key, pm.*field);
    any_service = any_service || pm.*field != 0;
  }
  if (any_service) t.set("service", std::move(svc));
  return t;
}

ProcessMetrics process_metrics_from_json(const support::JsonValue& v,
                                         const std::string& ctx) {
  ProcessMetrics pm;
  pm.threads = require_u64(v, "threads", ctx);
  pm.wall_ns = require_u64(v, "wall_ns", ctx);
  const support::JsonValue& stages = require(v, "stages", ctx);
  if (stages.members().size() != support::kStageCount) {
    throw std::runtime_error(ctx + ": expected " +
                             std::to_string(support::kStageCount) +
                             " stages, got " +
                             std::to_string(stages.members().size()));
  }
  for (size_t s = 0; s < support::kStageCount; ++s) {
    const char* name = support::stage_name(static_cast<support::Stage>(s));
    const auto& [key, hv] = stages.members()[s];
    if (key != name) {
      throw std::runtime_error(ctx + ": stage #" + std::to_string(s) +
                               " is '" + key + "', expected '" + name + "'");
    }
    pm.stages[s] = histogram_from_json(hv, ctx + " stage " + name);
  }
  pm.pool_fresh = require_u64(v, "pool_fresh", ctx);
  pm.pool_recycled = require_u64(v, "pool_recycled", ctx);
  pm.watchdog_trips = require_u64(v, "watchdog_trips", ctx);
  pm.worker_records = histogram_from_json(require(v, "worker_records", ctx),
                                          ctx + " worker_records");
  // Optional service section (absent in pre-service artifacts and whenever
  // every counter is zero).
  if (const support::JsonValue* svc = v.find("service")) {
    for (const auto& [key, field] : kServiceCounters) {
      pm.*field = require_u64(*svc, key, ctx + " service");
    }
  }
  return pm;
}

void merge_process_metrics(ProcessMetrics& into, const ProcessMetrics& from) {
  into.merge(from);
  into.threads += from.threads;
  into.wall_ns += from.wall_ns;
}

std::string serialize_metrics(const MetricsArtifact& artifact) {
  support::JsonValue root = support::JsonValue::object();
  root.set("format", kFormatTag);
  root.set("version", kFormatVersion);
  root.set("deterministic", deterministic_to_json(artifact));
  root.set("timings", process_metrics_to_json(artifact.process));
  return to_json(root);
}

std::string deterministic_metrics_json(const MetricsArtifact& artifact) {
  return to_json(deterministic_to_json(artifact));
}

void save_metrics_artifact(const std::string& path,
                           const MetricsArtifact& artifact) {
  write_artifact_atomically(path, serialize_metrics(artifact));
}

}  // namespace eval
