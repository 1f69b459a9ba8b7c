// Campaign metrics artifacts (eval/metrics.h) and the underlying telemetry
// primitives (support/metrics.h): log2-bucket histogram semantics and
// merge algebra, the exact artifact bytes, the atomic write contract, and
// the deterministic-section guarantees — byte-identical across thread
// counts and across a 3-shard merge vs the single-process campaign. The
// artifact is never read back, so rows are checked as the JSON they are.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/merge.h"
#include "eval/metrics.h"
#include "eval/shard.h"
#include "support/json_io.h"
#include "support/metrics.h"

namespace {

using eval::CampaignMetricsRow;
using eval::DriverCampaignConfig;
using eval::FaultCampaignConfig;
using eval::MetricsArtifact;
using eval::ProcessMetrics;
using support::Histogram;

TEST(Histogram, BucketBoundariesAreLog2) {
  Histogram h;
  h.add(0);  // bucket 0
  h.add(1);  // bucket 1: [1, 2)
  h.add(2);  // bucket 2: [2, 4)
  h.add(3);
  h.add(4);  // bucket 3: [4, 8)
  h.add(7);
  h.add(8);  // bucket 4
  h.add((1ull << 40));  // bucket 41
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.total(), 0u + 1 + 2 + 3 + 4 + 7 + 8 + (1ull << 40));
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 2u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_EQ(h.buckets()[41], 1u);
}

TEST(Histogram, MergeEqualsAddingAllValuesAndIsOrderIndependent) {
  std::vector<std::vector<uint64_t>> shards = {
      {0, 3, 9, 1 << 20}, {5, 5, 5}, {1, 1ull << 33, 700}};
  Histogram all;
  std::vector<Histogram> parts(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    for (uint64_t v : shards[i]) {
      all.add(v);
      parts[i].add(v);
    }
  }
  // Merge in sorted order and in a shuffled order; associativity and
  // commutativity of bucket-wise sums mean both equal the direct histogram.
  Histogram fwd;
  for (const Histogram& p : parts) fwd.merge(p);
  Histogram shuffled;
  shuffled.merge(parts[2]);
  shuffled.merge(parts[0]);
  shuffled.merge(parts[1]);
  EXPECT_EQ(fwd, all);
  EXPECT_EQ(shuffled, all);
}

ProcessMetrics sample_process_metrics(uint64_t salt) {
  ProcessMetrics pm;
  pm.threads = 2 + salt;
  pm.wall_ns = 1'000'000 + salt * 37;
  for (size_t s = 0; s < support::kStageCount; ++s) {
    pm.stages[s].add(100 * (s + 1) + salt);
    pm.stages[s].add(salt);
  }
  pm.pool_fresh = 4 + salt;
  pm.pool_recycled = 900 + salt;
  pm.worker_records.add(50 + salt);
  pm.worker_records.add(60 + salt);
  return pm;
}

TEST(ProcessMetricsTest, MergeSumsCountersAndMergesHistograms) {
  ProcessMetrics a = sample_process_metrics(1);
  ProcessMetrics b = sample_process_metrics(2);
  a.service_worker_retries = 2;
  b.service_worker_retries = 3;
  ProcessMetrics merged = a;
  eval::merge_process_metrics(merged, b);
  EXPECT_EQ(merged.service_worker_retries, 5u);
  EXPECT_EQ(merged.threads, a.threads + b.threads);
  EXPECT_EQ(merged.wall_ns, a.wall_ns + b.wall_ns);
  EXPECT_EQ(merged.pool_fresh, a.pool_fresh + b.pool_fresh);
  EXPECT_EQ(merged.pool_recycled, a.pool_recycled + b.pool_recycled);
  EXPECT_EQ(merged.stages[0].count(),
            a.stages[0].count() + b.stages[0].count());
  EXPECT_EQ(merged.worker_records.total(),
            a.worker_records.total() + b.worker_records.total());
}

TEST(ProcessMetricsTest, ServiceCountersRideAnOptionalSubObject) {
  ProcessMetrics pm;
  const std::string without =
      support::to_json(eval::process_metrics_to_json(pm));
  EXPECT_EQ(without.find("service"), std::string::npos)
      << "non-daemon timings carry no service sub-object";

  pm.service_jobs_queued = 1;
  pm.service_jobs_dispatched = 2;
  pm.service_cache_hits = 3;
  pm.service_workers_spawned = 4;
  pm.service_worker_retries = 5;
  const support::JsonValue json = eval::process_metrics_to_json(pm);
  const std::string text = support::to_json(json);
  const std::string tail =
      R"(,"service":{"jobs_queued":1,"jobs_dispatched":2,"cache_hits":3,)"
      R"("workers_spawned":4,"worker_retries":5}})";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
  EXPECT_EQ(eval::process_metrics_from_json(json, "service"), pm);
}

TEST(ProcessMetricsTest, ShardBundleTimingsAreValidatedOnLoad) {
  // Embedded shard timings are the one metrics input this program reads.
  eval::ShardBundle bundle;
  bundle.shard = {1, 1};
  bundle.has_metrics = true;
  bundle.metrics = sample_process_metrics(3);
  const std::string text = eval::serialize_shard_bundle(bundle);
  eval::ShardBundle loaded = eval::parse_shard_bundle(text);
  ASSERT_TRUE(loaded.has_metrics);
  EXPECT_EQ(loaded.metrics, bundle.metrics);

  auto tampered = [&](const std::string& from, const std::string& to) {
    std::string bad = text;
    const size_t at = bad.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) bad.replace(at, from.size(), to);
    return bad;
  };
  // A stage count that disagrees with its buckets, a stage out of order, a
  // bucket index past the last bucket, and a missing counter.
  for (const std::string& bad :
       {tampered(R"("lex":{"count":2)", R"("lex":{"count":3)"),
        tampered(R"("parse":{)", R"("prase":{)"),
        tampered(R"("buckets":{"2":1)", R"("buckets":{"65":1)"),
        tampered(R"("pool_fresh":)", R"("pool_stale":)")}) {
    EXPECT_THROW((void)eval::parse_shard_bundle(bad), std::runtime_error)
        << bad;
  }
}

TEST(ProcessMetricsTest, MergeIsShardOrderIndependent) {
  std::vector<ProcessMetrics> shards = {sample_process_metrics(1),
                                        sample_process_metrics(2),
                                        sample_process_metrics(3)};
  ProcessMetrics fwd = shards[0];
  eval::merge_process_metrics(fwd, shards[1]);
  eval::merge_process_metrics(fwd, shards[2]);
  ProcessMetrics shuffled = shards[2];
  eval::merge_process_metrics(shuffled, shards[0]);
  eval::merge_process_metrics(shuffled, shards[1]);
  EXPECT_EQ(fwd, shuffled);
}

/// The busmouse C campaign config, as the CLI builds it.
DriverCampaignConfig busmouse_config(unsigned threads = 1) {
  const corpus::CampaignDrivers* busmouse = nullptr;
  for (const auto& drivers : corpus::campaign_drivers()) {
    if (std::string(drivers.device) == "busmouse") busmouse = &drivers;
  }
  EXPECT_NE(busmouse, nullptr);
  DriverCampaignConfig c;
  c.driver = busmouse->c_driver();
  c.device = eval::binding_for(busmouse->device);
  c.sample_percent = busmouse->sample_percent;
  c.threads = threads;
  return c;
}

MetricsArtifact busmouse_artifact(unsigned threads = 1) {
  auto result = eval::run_driver_campaign(busmouse_config(threads));
  MetricsArtifact artifact;
  artifact.campaigns.push_back(
      eval::campaign_metrics_row(result, "C", "bytecode-vm"));
  artifact.process = sample_process_metrics(7);
  return artifact;
}

uint64_t count_of(const CampaignMetricsRow& row, const char* key) {
  return support::require_u64(row, key, "metrics row");
}

std::string string_of(const CampaignMetricsRow& row, const char* key) {
  return support::require_string(row, key, "metrics row");
}

std::vector<std::string> keys_of(const CampaignMetricsRow& row) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : row.members()) keys.push_back(key);
  return keys;
}

/// Sum of a row's tally counts.
uint64_t tallied(const CampaignMetricsRow& row) {
  uint64_t n = 0;
  for (const auto& [name, count] :
       support::require(row, "tally", "metrics row").members()) {
    EXPECT_GT(count.as_int(), 0) << name << ": zero rows are omitted";
    n += static_cast<uint64_t>(count.as_int());
  }
  return n;
}

TEST(MetricsArtifactTest, RowReflectsTheCampaignResult) {
  auto result = eval::run_driver_campaign(busmouse_config());
  CampaignMetricsRow row =
      eval::campaign_metrics_row(result, "C", "bytecode-vm");
  EXPECT_EQ(string_of(row, "device"), "busmouse");
  EXPECT_EQ(string_of(row, "label"), "C");
  EXPECT_EQ(string_of(row, "entry"), result.entry);
  EXPECT_EQ(string_of(row, "engine"), "bytecode-vm");
  EXPECT_EQ(count_of(row, "records"), result.records.size());
  EXPECT_EQ(count_of(row, "deduped"), result.deduped_mutants);
  EXPECT_EQ(count_of(row, "prefix_cache_hits"), result.prefix_cache_hits);
  EXPECT_EQ(count_of(row, "patch_hits"), result.patch_hits);
  EXPECT_EQ(count_of(row, "patch_fallbacks"), result.patch_fallbacks);
  EXPECT_EQ(count_of(row, "baseline_steps"), result.baseline_steps);
  EXPECT_GT(count_of(row, "baseline_steps"), 0u);
  EXPECT_FALSE(
      support::require(row, "baseline_opcodes", "metrics row").members()
          .empty());
  uint64_t steps = 0;
  uint64_t unique_boots = 0;
  for (const auto& rec : result.records) {
    steps += rec.steps;
    if (!rec.deduped && rec.outcome != eval::Outcome::kCompileTime) {
      ++unique_boots;
    }
  }
  EXPECT_EQ(count_of(row, "boot_steps"), steps);
  EXPECT_EQ(count_of(row, "unique_boots"), unique_boots);
  EXPECT_EQ(tallied(row), result.records.size());
}

TEST(MetricsArtifactTest, FaultRowReflectsTheCampaignResult) {
  FaultCampaignConfig config;
  config.base = busmouse_config();
  auto result = eval::run_fault_campaign(config);
  CampaignMetricsRow row = eval::fault_metrics_row(result, "C", "bytecode-vm");
  EXPECT_EQ(keys_of(row),
            (std::vector<std::string>{
                "device", "label", "entry", "engine", "records", "triggered",
                "boot_steps", "baseline_steps", "baseline_opcodes", "tally"}));
  EXPECT_EQ(count_of(row, "records"), result.records.size());
  EXPECT_EQ(count_of(row, "triggered"), result.triggered_scenarios);
  EXPECT_GT(count_of(row, "triggered"), 0u);
  uint64_t steps = 0;
  for (const auto& rec : result.records) steps += rec.steps;
  EXPECT_EQ(count_of(row, "boot_steps"), steps);
  EXPECT_EQ(tallied(row), result.records.size());
}

TEST(MetricsArtifactTest, SerializedBytesArePinned) {
  // The suite's sample artifact, byte for byte: the row builders emit
  // today's keys in today's order and the timings section keeps its layout.
  const std::string expected =
      R"({"format":"devil-repro-metrics","version":2,)"
      R"("deterministic":{"campaigns":[{"device":"busmouse","label":"C",)"
      R"("entry":"mouse_boot","engine":"bytecode-vm","records":2012,)"
      R"("deduped":92,"prefix_cache_hits":1920,"patch_hits":463,)"
      R"("patch_fallbacks":1457,"unique_boots":1661,"boot_steps":174159,)"
      R"("baseline_steps":105,"baseline_opcodes":{"Step":12,"StepMark":19,)"
      R"("LoadConst":13,"MoveInt":10,"BitOr":4,"Shl":1,"BinImm":7,)"
      R"("BinImmJump":1,"InConstAnd":3,"StoreLocalInt":9,"DeclIntZ":6,)"
      R"("Call":2,"Ret":3,"RetZero":1,"InConst":2,"Out":6},)"
      R"("tally":{"compile":259,"boot":1025,"halt":132,"damaged":596}}],)"
      R"("fault_campaigns":[]},"timings":{"threads":9,"wall_ns":1000259,)"
      R"("stages":{"lex":{"count":2,"total":114,"buckets":{"3":1,"7":1}},)"
      R"("parse":{"count":2,"total":214,"buckets":{"3":1,"8":1}},)"
      R"("typecheck":{"count":2,"total":314,"buckets":{"3":1,"9":1}},)"
      R"("lower":{"count":2,"total":414,"buckets":{"3":1,"9":1}},)"
      R"("splice":{"count":2,"total":514,"buckets":{"3":1,"9":1}},)"
      R"("boot":{"count":2,"total":614,"buckets":{"3":1,"10":1}},)"
      R"("classify":{"count":2,"total":714,"buckets":{"3":1,"10":1}},)"
      R"("patch":{"count":2,"total":814,"buckets":{"3":1,"10":1}}},)"
      R"("pool_fresh":11,"pool_recycled":907,"watchdog_trips":0,)"
      R"("worker_records":{"count":2,"total":124,"buckets":{"6":1,)"
      R"("7":1}}}})";
  EXPECT_EQ(eval::serialize_metrics(busmouse_artifact()), expected);
}

TEST(MetricsArtifactTest, DeterministicSectionIgnoresTimings) {
  MetricsArtifact a = busmouse_artifact();
  MetricsArtifact b = a;
  b.process = sample_process_metrics(99);
  EXPECT_NE(eval::serialize_metrics(a), eval::serialize_metrics(b));
  EXPECT_EQ(eval::deterministic_metrics_json(a),
            eval::deterministic_metrics_json(b));
}

TEST(MetricsArtifactTest, SaveIsAtomicAndUnwritablePathsThrow) {
  MetricsArtifact artifact;
  artifact.process = sample_process_metrics(0);
  const std::string dir = "/nonexistent-metrics-dir-for-test";
  ASSERT_FALSE(std::filesystem::exists(dir));
  EXPECT_THROW(eval::save_metrics_artifact(dir + "/m.json", artifact),
               eval::ArtifactWriteError);

  const std::string path = "test_metrics_save.json";
  eval::save_metrics_artifact(path, artifact);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), eval::serialize_metrics(artifact) + "\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the temporary must be renamed away on success";
  std::remove(path.c_str());
}

TEST(MetricsDeterminism, RowsAreThreadCountInvariant) {
  auto t1 = eval::run_driver_campaign(busmouse_config(1));
  auto t3 = eval::run_driver_campaign(busmouse_config(3));
  EXPECT_EQ(
      support::to_json(eval::campaign_metrics_row(t1, "C", "bytecode-vm")),
      support::to_json(eval::campaign_metrics_row(t3, "C", "bytecode-vm")));
}

TEST(MetricsDeterminism, MergedShardsReproduceTheSingleProcessSection) {
  DriverCampaignConfig config = busmouse_config();

  MetricsArtifact single;
  single.campaigns.push_back(eval::campaign_metrics_row(
      eval::run_driver_campaign(config), "C", "bytecode-vm"));

  std::vector<eval::ShardBundle> bundles;
  for (unsigned i = 1; i <= 3; ++i) {
    eval::ShardBundle bundle;
    bundle.shard = {i, 3};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(config, "C", {i, 3}));
    bundle.has_metrics = true;
    bundle.metrics = sample_process_metrics(i);
    bundles.push_back(std::move(bundle));
  }
  auto merged = eval::merge_shard_bundles(bundles);
  ASSERT_EQ(merged.size(), 1u);

  MetricsArtifact combined;
  combined.campaigns.push_back(eval::campaign_metrics_row(
      merged[0].result, merged[0].label, merged[0].engine));
  ASSERT_TRUE(eval::merge_bundle_metrics(bundles, &combined.process));

  EXPECT_EQ(eval::deterministic_metrics_json(combined),
            eval::deterministic_metrics_json(single))
      << "the deterministic section must be byte-identical merged vs single";

  // The aggregated timings are the order-independent merge of the bundles'.
  ProcessMetrics expect = sample_process_metrics(1);
  eval::merge_process_metrics(expect, sample_process_metrics(2));
  eval::merge_process_metrics(expect, sample_process_metrics(3));
  EXPECT_TRUE(combined.process == expect);

  // A 1/1 shard's metrics row equals the full run's.
  eval::ShardArtifact whole = eval::run_campaign_shard(config, "C", {1, 1});
  EXPECT_EQ(support::to_json(eval::campaign_metrics_row(
                whole.result, whole.label, whole.engine)),
            support::to_json(single.campaigns[0]));
}

TEST(MetricsDeterminism, BundlesWithoutMetricsMergeToNothing) {
  eval::ShardBundle bundle;  // has_metrics stays false
  ProcessMetrics out = sample_process_metrics(5);
  ProcessMetrics untouched = out;
  EXPECT_FALSE(eval::merge_bundle_metrics({bundle}, &out));
  EXPECT_TRUE(out == untouched);
}

}  // namespace
