// Campaign metrics artifacts (eval/metrics.h) and the underlying telemetry
// primitives (support/metrics.h): log2-bucket histogram semantics and
// merge algebra, byte-stable artifact round trips, corrupt-input rejection,
// the atomic write contract, and the deterministic-section guarantees —
// byte-identical across thread counts and across a 3-shard merge vs the
// single-process campaign.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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
#include "support/metrics.h"

namespace {

using eval::CampaignMetricsRow;
using eval::DriverCampaignConfig;
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
  ProcessMetrics merged = a;
  eval::merge_process_metrics(merged, b);
  EXPECT_EQ(merged.threads, a.threads + b.threads);
  EXPECT_EQ(merged.wall_ns, a.wall_ns + b.wall_ns);
  EXPECT_EQ(merged.pool_fresh, a.pool_fresh + b.pool_fresh);
  EXPECT_EQ(merged.pool_recycled, a.pool_recycled + b.pool_recycled);
  EXPECT_EQ(merged.stages[0].count(),
            a.stages[0].count() + b.stages[0].count());
  EXPECT_EQ(merged.worker_records.total(),
            a.worker_records.total() + b.worker_records.total());
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

TEST(MetricsArtifactTest, RowReflectsTheCampaignResult) {
  auto result = eval::run_driver_campaign(busmouse_config());
  CampaignMetricsRow row =
      eval::campaign_metrics_row(result, "C", "bytecode-vm");
  EXPECT_EQ(row.device, "busmouse");
  EXPECT_EQ(row.label, "C");
  EXPECT_EQ(row.engine, "bytecode-vm");
  EXPECT_FALSE(row.fault_campaign);
  EXPECT_EQ(row.records, result.records.size());
  EXPECT_EQ(row.deduped, result.deduped_mutants);
  EXPECT_EQ(row.prefix_cache_hits, result.prefix_cache_hits);
  EXPECT_EQ(row.baseline_steps, result.baseline_steps);
  EXPECT_GT(row.baseline_steps, 0u);
  EXPECT_FALSE(row.baseline_opcodes.empty());
  uint64_t steps = 0;
  for (const auto& rec : result.records) steps += rec.steps;
  EXPECT_EQ(row.boot_steps, steps);
  uint64_t tallied = 0;
  for (const auto& [name, n] : row.tally) tallied += n;
  EXPECT_EQ(tallied, row.records);
}

TEST(MetricsArtifactTest, RoundTripIsByteStable) {
  MetricsArtifact artifact = busmouse_artifact();
  std::string text = eval::serialize_metrics(artifact);
  MetricsArtifact parsed = eval::parse_metrics(text);
  EXPECT_TRUE(parsed == artifact);
  EXPECT_EQ(eval::serialize_metrics(parsed), text)
      << "re-serializing a parsed artifact must reproduce the exact bytes";
}

TEST(MetricsArtifactTest, DeterministicSectionIgnoresTimings) {
  MetricsArtifact a = busmouse_artifact();
  MetricsArtifact b = a;
  b.process = sample_process_metrics(99);
  EXPECT_NE(eval::serialize_metrics(a), eval::serialize_metrics(b));
  EXPECT_EQ(eval::deterministic_metrics_json(a),
            eval::deterministic_metrics_json(b));
}

TEST(MetricsArtifactTest, ParseRejectsCorruptInput) {
  MetricsArtifact artifact = busmouse_artifact();
  std::string text = eval::serialize_metrics(artifact);

  EXPECT_THROW((void)eval::parse_metrics("not json"), std::runtime_error);
  EXPECT_THROW((void)eval::parse_metrics("{}"), std::runtime_error);
  EXPECT_THROW((void)eval::parse_metrics(text.substr(0, text.size() / 2)),
               std::runtime_error);

  std::string bad_tag = text;
  bad_tag.replace(bad_tag.find("devil-repro-metrics"),
                  std::string("devil-repro-metrics").size(), "bogus-format");
  EXPECT_THROW((void)eval::parse_metrics(bad_tag), std::runtime_error);

  // Tampering with a record count breaks the tally-sum invariant.
  const std::string records_field =
      "\"records\":" + std::to_string(artifact.campaigns[0].records);
  std::string bad_count = text;
  ASSERT_NE(bad_count.find(records_field), std::string::npos);
  bad_count.replace(
      bad_count.find(records_field), records_field.size(),
      "\"records\":" + std::to_string(artifact.campaigns[0].records + 1));
  EXPECT_THROW((void)eval::parse_metrics(bad_count), std::runtime_error);
}

TEST(MetricsArtifactTest, SaveIsAtomicAndUnwritablePathsThrow) {
  MetricsArtifact artifact;
  artifact.process = sample_process_metrics(0);
  const std::string dir = "/nonexistent-metrics-dir-for-test";
  ASSERT_FALSE(std::filesystem::exists(dir));
  EXPECT_THROW(eval::save_metrics_artifact(dir + "/m.json", artifact),
               eval::ArtifactWriteError);

  const std::string path = "test_metrics_roundtrip.json";
  eval::save_metrics_artifact(path, artifact);
  MetricsArtifact loaded = eval::load_metrics_artifact(path);
  EXPECT_TRUE(loaded == artifact);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "the temporary must be renamed away on success";
  std::remove(path.c_str());
}

TEST(MetricsDeterminism, RowsAreThreadCountInvariant) {
  auto t1 = eval::run_driver_campaign(busmouse_config(1));
  auto t3 = eval::run_driver_campaign(busmouse_config(3));
  EXPECT_TRUE(eval::campaign_metrics_row(t1, "C", "bytecode-vm") ==
              eval::campaign_metrics_row(t3, "C", "bytecode-vm"));
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
  EXPECT_TRUE(eval::campaign_metrics_row(whole.result, whole.label,
                                         whole.engine) == single.campaigns[0]);
}

TEST(MetricsDeterminism, BundlesWithoutMetricsMergeToNothing) {
  eval::ShardBundle bundle;  // has_metrics stays false
  ProcessMetrics out = sample_process_metrics(5);
  ProcessMetrics untouched = out;
  EXPECT_FALSE(eval::merge_bundle_metrics({bundle}, &out));
  EXPECT_TRUE(out == untouched);
}

}  // namespace
