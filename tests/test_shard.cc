// Process-level campaign sharding: shard artifacts must merge into the
// artifact of the 1/1 shard byte for byte — records with their steps,
// traces, patch and cache bits and key hashes, tallies and every counter —
// for every device in campaign_drivers(), across a JSON serialize/parse
// round trip.
// The merge must reject anything that does not tile exactly one campaign
// (mismatched config fingerprints, duplicate/missing/overlapping slices,
// corrupt or truncated artifacts), and shard artifacts must be invariant
// under the worker thread count inside each shard. Mutation and fault
// artifacts share one header, parser and merge, so every rejection test
// runs over both kinds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
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
#include "eval/report.h"
#include "eval/shard.h"

namespace {

using eval::DriverCampaignConfig;
using eval::DriverCampaignResult;
using eval::FaultShardArtifact;
using eval::ShardArtifact;
using eval::ShardBundle;
using eval::ShardSpec;

/// The C and CDevil configs for one corpus device, as the CLI builds them.
std::pair<DriverCampaignConfig, DriverCampaignConfig> device_configs(
    const corpus::CampaignDrivers& drivers, unsigned threads) {
  eval::DeviceBinding binding = eval::binding_for(drivers.device);

  DriverCampaignConfig c;
  c.driver = drivers.c_driver();
  c.device = binding;
  c.sample_percent = drivers.sample_percent;
  c.threads = threads;

  auto spec = devil::compile_spec(drivers.spec_file, drivers.spec(),
                                  devil::CodegenMode::kDebug);
  EXPECT_TRUE(spec.ok()) << spec.diags.render();
  DriverCampaignConfig d;
  d.stubs = spec.stubs;
  d.driver = drivers.cdevil_driver();
  d.device = binding;
  d.is_cdevil = true;
  d.sample_percent = drivers.sample_percent;
  d.threads = threads;
  return {std::move(c), std::move(d)};
}

DriverCampaignConfig busmouse_c_config(unsigned sample_percent = 100,
                                       unsigned threads = 1) {
  DriverCampaignConfig cfg;
  cfg.driver = corpus::c_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = sample_percent;
  cfg.threads = threads;
  return cfg;
}

void expect_same_result(const DriverCampaignResult& a,
                        const DriverCampaignResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.device, b.device) << label;
  EXPECT_EQ(a.entry, b.entry) << label;
  EXPECT_EQ(a.total_sites, b.total_sites) << label;
  EXPECT_EQ(a.total_mutants, b.total_mutants) << label;
  EXPECT_EQ(a.sample_size, b.sample_size) << label;
  EXPECT_EQ(a.deduped_mutants, b.deduped_mutants) << label;
  EXPECT_EQ(a.prefix_cache_hits, b.prefix_cache_hits) << label;
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint) << label;
  EXPECT_EQ(a.tally.mutants, b.tally.mutants) << label;
  EXPECT_EQ(a.tally.sites, b.tally.sites) << label;
  EXPECT_EQ(a.tally.total_mutants, b.tally.total_mutants) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    const std::string at = label + " record #" + std::to_string(i);
    EXPECT_EQ(a.records[i].mutant_index, b.records[i].mutant_index) << at;
    EXPECT_EQ(a.records[i].site, b.records[i].site) << at;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << at;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << at;
    EXPECT_EQ(a.records[i].deduped, b.records[i].deduped) << at;
  }
}

/// The serialized 1/1 bundle of `campaigns` and `fault_campaigns`. A merged
/// campaign, written this way, must equal the 1/1 shard's bundle byte for
/// byte.
std::string whole_bundle(std::vector<ShardArtifact> campaigns,
                         std::vector<FaultShardArtifact> fault_campaigns = {}) {
  ShardBundle bundle;
  bundle.campaigns = std::move(campaigns);
  bundle.fault_campaigns = std::move(fault_campaigns);
  return eval::serialize_shard_bundle(bundle);
}

/// Shards the C campaign `config` N ways and returns the bundles, each
/// JSON round-tripped as a shard process would write and load it.
std::vector<ShardBundle> shard_bundles(const DriverCampaignConfig& config,
                                       unsigned count) {
  std::vector<ShardBundle> bundles;
  for (unsigned i = 1; i <= count; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, count};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(config, "C", bundle.shard));
    bundles.push_back(
        eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
  }
  return bundles;
}

// ---------------------------------------------------------------------------
// Shard spec and slice arithmetic.
// ---------------------------------------------------------------------------

TEST(ShardSpecTest, ParsesValidSpecs) {
  EXPECT_EQ(eval::parse_shard_spec("1/3").index, 1u);
  EXPECT_EQ(eval::parse_shard_spec("1/3").count, 3u);
  EXPECT_EQ(eval::parse_shard_spec("3/3").index, 3u);
  EXPECT_EQ(eval::parse_shard_spec("1/1").count, 1u);
  EXPECT_EQ(eval::parse_shard_spec("12/400").count, 400u);
}

TEST(ShardSpecTest, RejectsInvalidSpecs) {
  for (const char* bad : {"0/3", "4/3", "3", "", "/", "1/", "/3", "a/b",
                          "1/0", "0/0", "1/3x", "x1/3", "-1/3", "1//3",
                          "1.5/3", " 1/3"}) {
    EXPECT_THROW((void)eval::parse_shard_spec(bad), std::invalid_argument)
        << "spec '" << bad << "' should be rejected";
  }
  try {
    (void)eval::parse_shard_spec("4/3");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4/3"), std::string::npos);
  }
}

TEST(ShardSpecTest, SliceBoundsTileTheSample) {
  for (size_t sample : {0u, 1u, 7u, 100u, 2012u}) {
    for (size_t count : {1u, 2u, 3u, 7u, 64u}) {
      size_t expected_begin = 0;
      for (size_t ix = 0; ix < count; ++ix) {
        auto [lo, hi] =
            eval::sample_slice_bounds(sample, eval::SampleSlice{ix, count});
        EXPECT_EQ(lo, expected_begin) << sample << " " << count << " " << ix;
        EXPECT_LE(hi - lo, sample / count + 1);
        expected_begin = hi;
      }
      EXPECT_EQ(expected_begin, sample);
    }
  }
}

TEST(ShardSpecTest, RunCampaignShardRejectsBadSpecs) {
  auto cfg = busmouse_c_config();
  EXPECT_THROW((void)eval::run_campaign_shard(cfg, "C", ShardSpec{0, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)eval::run_campaign_shard(cfg, "C", ShardSpec{4, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)eval::run_campaign_shard(cfg, "C", ShardSpec{1, 0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The flagship guarantee: a merged 3-shard campaign is byte-identical to
// the single-process run — records, tallies, counters and the rendered
// tables — for every device with a campaign corpus.
// ---------------------------------------------------------------------------

TEST(ShardMergeTest, ThreeShardsMergeByteIdenticalForAllDevices) {
  for (const auto& drivers : corpus::campaign_drivers()) {
    auto [c_cfg, d_cfg] = device_configs(drivers, /*threads=*/2);
    const ShardArtifact c_whole = eval::run_campaign_shard(c_cfg, "C", {1, 1});
    const ShardArtifact d_whole =
        eval::run_campaign_shard(d_cfg, "CDevil", {1, 1});

    // Three shard "processes", each bundling both campaigns, round-tripped
    // through the JSON artifact format as real processes would.
    std::vector<ShardBundle> bundles;
    for (unsigned i = 1; i <= 3; ++i) {
      ShardBundle bundle;
      bundle.shard = ShardSpec{i, 3};
      bundle.campaigns.push_back(
          eval::run_campaign_shard(c_cfg, "C", bundle.shard));
      bundle.campaigns.push_back(
          eval::run_campaign_shard(d_cfg, "CDevil", bundle.shard));
      bundles.push_back(
          eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
    }
    // Merge order must not matter: hand the bundles over shuffled.
    std::swap(bundles[0], bundles[2]);
    auto merged = eval::merge_shard_bundles(bundles);
    ASSERT_EQ(merged.size(), 2u) << drivers.device;
    EXPECT_EQ(merged[0].label, "C");
    EXPECT_EQ(merged[1].label, "CDevil");

    EXPECT_EQ(whole_bundle(merged), whole_bundle({c_whole, d_whole}))
        << drivers.device;
    EXPECT_EQ(eval::render_campaign_tables(merged[0].result,
                                           merged[1].result),
              eval::render_campaign_tables(c_whole.result, d_whole.result))
        << drivers.device;
  }
}

TEST(ShardMergeTest, NWayMergesReproduceTheOneOfOneArtifact) {
  const DriverCampaignConfig mutation = busmouse_c_config(100, /*threads=*/2);
  eval::FaultCampaignConfig fault;
  fault.base.driver = corpus::c_ide_irq_driver();
  fault.base.device = eval::ide_irq_binding();
  fault.base.threads = 2;
  const std::string mutation_whole =
      whole_bundle({eval::run_campaign_shard(mutation, "C", {1, 1})});
  const std::string fault_whole =
      whole_bundle({}, {eval::run_fault_campaign_shard(fault, "C", {1, 1})});

  for (unsigned count : {2u, 3u, 7u}) {
    SCOPED_TRACE(std::to_string(count) + "-way");
    EXPECT_EQ(whole_bundle(eval::merge_shard_bundles(
                  shard_bundles(mutation, count))),
              mutation_whole);

    std::vector<ShardBundle> bundles;
    for (unsigned i = 1; i <= count; ++i) {
      ShardBundle bundle;
      bundle.shard = ShardSpec{i, count};
      bundle.fault_campaigns.push_back(
          eval::run_fault_campaign_shard(fault, "C", bundle.shard));
      bundles.push_back(
          eval::parse_shard_bundle(eval::serialize_shard_bundle(bundle)));
    }
    EXPECT_EQ(whole_bundle({}, eval::merge_fault_bundles(bundles)),
              fault_whole);
  }
}

TEST(ShardMergeTest, OneOfOneEqualsUnsharded) {
  auto cfg = busmouse_c_config();
  const ShardArtifact whole = eval::run_campaign_shard(cfg, "C", {1, 1});
  EXPECT_EQ(whole.slice_begin, 0u);
  EXPECT_EQ(whole.slice_end, whole.result.sample_size);
  expect_same_result(whole.result, eval::run_driver_campaign(cfg),
                     "busmouse 1/1");
}

TEST(ShardMergeTest, MoreShardsThanMutantsYieldsEmptyShards) {
  // A 3% sample of the busmouse corpus is a few dozen mutants; shard it
  // far wider than the sample so many slices are empty, and the merge must
  // still reassemble the exact unsharded artifact.
  auto cfg = busmouse_c_config(/*sample_percent=*/3);
  const ShardArtifact whole = eval::run_campaign_shard(cfg, "C", {1, 1});
  ASSERT_GT(whole.result.sample_size, 0u);
  const unsigned count = static_cast<unsigned>(whole.result.sample_size) + 5;

  std::vector<ShardBundle> bundles = shard_bundles(cfg, count);
  size_t empty_shards = 0;
  for (const ShardBundle& bundle : bundles) {
    if (bundle.campaigns.front().result.records.empty()) ++empty_shards;
  }
  EXPECT_GE(empty_shards, 5u);
  EXPECT_EQ(whole_bundle(eval::merge_shard_bundles(bundles)),
            whole_bundle({whole}));
}

TEST(ShardMergeTest, ShardArtifactsInvariantUnderThreadCount) {
  // 1 vs 4 worker threads inside the shard: the serialized artifact must
  // not change by a byte.
  for (unsigned shard_ix : {1u, 2u, 3u}) {
    ShardBundle one, four;
    one.shard = four.shard = ShardSpec{shard_ix, 3};
    one.campaigns.push_back(eval::run_campaign_shard(
        busmouse_c_config(100, /*threads=*/1), "C", one.shard));
    four.campaigns.push_back(eval::run_campaign_shard(
        busmouse_c_config(100, /*threads=*/4), "C", four.shard));
    EXPECT_EQ(eval::serialize_shard_bundle(one),
              eval::serialize_shard_bundle(four))
        << "shard " << shard_ix << "/3";
  }
}

TEST(ShardMergeTest, CrossShardDuplicatesAreReDeduped) {
  // Shard-local dedup cannot see across slices, so the shard-local dedup
  // counts must never exceed the global count the merge reconstructs —
  // and the merged count must equal the unsharded campaign's.
  auto cfg = busmouse_c_config();
  auto single = eval::run_driver_campaign(cfg);
  std::vector<ShardBundle> bundles;
  size_t local_deduped = 0;
  for (unsigned i = 1; i <= 3; ++i) {
    ShardBundle bundle;
    bundle.shard = ShardSpec{i, 3};
    bundle.campaigns.push_back(
        eval::run_campaign_shard(cfg, "C", bundle.shard));
    local_deduped += bundle.campaigns.front().result.deduped_mutants;
    bundles.push_back(std::move(bundle));
  }
  auto merged = eval::merge_shard_bundles(bundles);
  EXPECT_EQ(merged.front().result.deduped_mutants, single.deduped_mutants);
  EXPECT_LE(local_deduped, single.deduped_mutants);
}

// ---------------------------------------------------------------------------
// Merge rejections: anything that does not tile exactly one campaign. Each
// case runs over a mutation bundle and a fault bundle.
// ---------------------------------------------------------------------------

enum class Kind { kMutation, kFault };
constexpr Kind kKinds[] = {Kind::kMutation, Kind::kFault};

const char* kind_name(Kind kind) {
  return kind == Kind::kMutation ? "mutation" : "fault";
}

/// Shard `spec` of the busmouse C campaign of `kind` as a one-campaign
/// bundle; `seed_bump` perturbs the campaign seed (and so the fingerprint).
ShardBundle busmouse_bundle(Kind kind, ShardSpec spec,
                            uint64_t seed_bump = 0) {
  DriverCampaignConfig cfg = busmouse_c_config();
  cfg.seed += seed_bump;
  ShardBundle bundle;
  bundle.shard = spec;
  if (kind == Kind::kMutation) {
    bundle.campaigns.push_back(eval::run_campaign_shard(cfg, "C", spec));
  } else {
    eval::FaultCampaignConfig fault;
    fault.base = cfg;
    bundle.fault_campaigns.push_back(
        eval::run_fault_campaign_shard(fault, "C", spec));
  }
  return bundle;
}

/// Two-way sharding of the small busmouse C campaign, reused by the
/// rejection tests.
std::vector<ShardBundle> two_shards(Kind kind) {
  return {busmouse_bundle(kind, ShardSpec{1, 2}),
          busmouse_bundle(kind, ShardSpec{2, 2})};
}

/// The size of a bundle's `kind` section, and the label and whole sample
/// of its first campaign.
size_t campaign_count(const ShardBundle& b, Kind kind) {
  return kind == Kind::kMutation ? b.campaigns.size()
                                 : b.fault_campaigns.size();
}
std::string& first_label(ShardBundle& b, Kind kind) {
  if (kind == Kind::kMutation) return b.campaigns.at(0).label;
  return b.fault_campaigns.at(0).label;
}
size_t first_sample_size(const ShardBundle& b, Kind kind) {
  if (kind == Kind::kMutation) return b.campaigns.at(0).result.sample_size;
  return b.fault_campaigns.at(0).result.sample_size;
}

void expect_merge_error(Kind kind, const std::vector<ShardBundle>& bundles,
                        const std::string& needle) {
  try {
    if (kind == Kind::kMutation) {
      (void)eval::merge_shard_bundles(bundles);
    } else {
      (void)eval::merge_fault_bundles(bundles);
    }
    ADD_FAILURE() << "merge should have rejected: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ShardMergeTest, RejectsFingerprintMismatch) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    auto bundles = two_shards(kind);
    // Same device, same shard shape — but a different campaign seed. The
    // fingerprint must catch it.
    bundles[1] = busmouse_bundle(kind, ShardSpec{2, 2}, /*seed_bump=*/1);
    expect_merge_error(kind, bundles, "fingerprint mismatch");
  }
}

TEST(ShardMergeTest, RejectsDuplicateShard) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    auto bundles = two_shards(kind);
    bundles.push_back(bundles[1]);  // 1/2, 2/2, 2/2
    expect_merge_error(kind, bundles, "duplicate shard 2/2");
  }
}

TEST(ShardMergeTest, RejectsMissingShard) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    auto bundles = two_shards(kind);
    bundles.pop_back();  // only 1/2
    expect_merge_error(kind, bundles, "missing shard 2/2");
  }
}

TEST(ShardMergeTest, RejectsShardCountMismatch) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    auto bundles = two_shards(kind);
    bundles.push_back(busmouse_bundle(kind, ShardSpec{3, 3}));
    expect_merge_error(kind, bundles, "shard count mismatch");
  }
}

TEST(ShardMergeTest, RejectsDisagreeingCampaignLists) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    auto bundles = two_shards(kind);
    // Shard 2 "forgot" one campaign.
    bundles[1].campaigns.clear();
    bundles[1].fault_campaigns.clear();
    expect_merge_error(kind, bundles,
                       kind == Kind::kMutation ? "carries 0 campaigns"
                                               : "carries 0 fault campaigns");

    bundles = two_shards(kind);
    ASSERT_EQ(campaign_count(bundles[1], kind), 1u);
    first_label(bundles[1], kind) = "CDevil";
    expect_merge_error(kind, bundles, "in that position");
  }
}

TEST(ShardMergeTest, RejectsEmptyInput) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    expect_merge_error(kind, {}, "no shard artifacts");
  }
}

// ---------------------------------------------------------------------------
// Corrupt and truncated artifacts must be rejected at parse time with a
// diagnostic, never half-read.
// ---------------------------------------------------------------------------

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)eval::parse_shard_bundle(text);
    FAIL() << "parse should have rejected: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ShardArtifactTest, SerializeParseRoundTripIsByteStable) {
  ShardBundle bundle;
  bundle.shard = ShardSpec{2, 3};
  bundle.campaigns.push_back(eval::run_campaign_shard(
      busmouse_c_config(), "C", bundle.shard));
  std::string text = eval::serialize_shard_bundle(bundle);
  EXPECT_EQ(eval::serialize_shard_bundle(eval::parse_shard_bundle(text)),
            text);
}

/// Replaces the first occurrence of `from` in `text`; fails the test when
/// there is none.
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "no '" << from << "' to tamper with";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(ShardArtifactTest, RejectsTruncatedAndCorruptArtifacts) {
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    const std::string text =
        eval::serialize_shard_bundle(busmouse_bundle(kind, ShardSpec{1, 2}));

    // Truncation at any of a few depths: always a parse diagnostic.
    expect_parse_error(text.substr(0, text.size() / 2), "JSON parse error");
    expect_parse_error(text.substr(0, 10), "JSON parse error");
    expect_parse_error("", "JSON parse error");
    expect_parse_error("hello", "not a shard artifact");
    expect_parse_error(R"({"format":"something-else","version":1})",
                       "format tag");
    expect_parse_error(R"({"format":"devil-repro-shard","version":99})",
                       "version 99");

    // A flipped outcome makes the stored tally disagree with the records.
    const bool mutation = kind == Kind::kMutation;
    expect_parse_error(
        mutation ? replace_first(text, "\"outcome\":\"boot\"",
                                 "\"outcome\":\"halt\"")
                 : replace_first(text, "\"outcome\":\"corrupt\"",
                                 "\"outcome\":\"crash\""),
        "corrupt artifact?");

    // A missing required field is named.
    expect_parse_error(replace_first(text, "\"entry\":", "\"entrX\":"),
                       "missing field 'entry'");

    // Dropping a record breaks the slice coverage.
    const std::string record = mutation ? "{\"mutant\":" : "{\"scenario\":";
    std::string shorter = text;
    size_t at = shorter.find(record);
    size_t end = shorter.find("}," + record);
    ASSERT_NE(at, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    shorter.erase(at, end + 2 - at);
    expect_parse_error(shorter, "truncated artifact?");
  }
}

TEST(ShardArtifactTest, RejectsSampleLargerThanTheGeneratedPopulation) {
  // A 1/1 busmouse shard whose generated-mutant (or scenario) count was
  // edited below its sample size cannot come from any campaign run.
  for (Kind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    ShardBundle bundle = busmouse_bundle(kind, ShardSpec{1, 1});
    const size_t sample_size = first_sample_size(bundle, kind);
    ASSERT_GT(sample_size, 10u);
    const std::string field = kind == Kind::kMutation ? "\"total_mutants\":"
                                                      : "\"total_scenarios\":";
    const size_t generated =
        kind == Kind::kMutation
            ? bundle.campaigns[0].result.total_mutants
            : bundle.fault_campaigns[0].result.total_scenarios;
    expect_parse_error(
        replace_first(eval::serialize_shard_bundle(bundle),
                      field + std::to_string(generated) + ",",
                      field + "10,"),
        "sample of " + std::to_string(sample_size) +
            " exceeds the generated matrix of 10");
  }
}

TEST(ShardArtifactTest, RejectsFaultRecordsThatContradictTheirCounters) {
  ShardBundle bundle = busmouse_bundle(Kind::kFault, ShardSpec{1, 1});
  const eval::FaultCampaignResult& a = bundle.fault_campaigns.at(0).result;
  const std::string text = eval::serialize_shard_bundle(bundle);

  // An untriggered scenario cannot boot anything but clean.
  size_t untriggered = a.records.size();
  for (size_t i = 0; i < a.records.size(); ++i) {
    if (!a.records[i].triggered) {
      untriggered = i;
      break;
    }
  }
  ASSERT_LT(untriggered, a.records.size());
  const std::string clean =
      "{\"scenario\":" + std::to_string(a.records[untriggered].scenario_index) +
      ",";
  const size_t record = text.find(clean);
  ASSERT_NE(record, std::string::npos);
  const size_t outcome = text.find("\"outcome\":\"clean\"", record);
  ASSERT_NE(outcome, std::string::npos);
  std::string hung = text;
  hung.replace(outcome, 17, "\"outcome\":\"hang\"");
  expect_parse_error(hung, "untriggered scenario with outcome 'hang'");

  // The stored triggered count must match the records' bits.
  const size_t triggered = a.triggered_scenarios;
  expect_parse_error(
      replace_first(text, "\"triggered\":" + std::to_string(triggered) + ",",
                    "\"triggered\":" + std::to_string(triggered + 1) + ","),
      "triggered says " + std::to_string(triggered + 1));
}

TEST(ShardArtifactTest, LoadReportsMissingFile) {
  try {
    (void)eval::load_shard_bundle("/nonexistent/shard.json");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/shard.json"),
              std::string::npos);
  }
}

// --- atomic artifact writes ---------------------------------------------------
//
// save_shard_bundle writes FILE.tmp and renames it into place: a failed or
// interrupted save must never leave a partial FILE, and must never destroy
// a good artifact that was already there.

ShardBundle tiny_bundle() {
  ShardBundle bundle;
  bundle.shard = ShardSpec{1, 1};
  bundle.campaigns.push_back(eval::run_campaign_shard(
      busmouse_c_config(), "C", bundle.shard));
  return bundle;
}

TEST(ShardArtifactTest, SaveToUnwritablePathThrowsAndLeavesNothing) {
  const std::string path = "/devil-repro-no-such-dir/shard.json";
  try {
    eval::save_shard_bundle(path, tiny_bundle());
    FAIL() << "expected ArtifactWriteError";
  } catch (const eval::ArtifactWriteError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open for writing"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(ShardArtifactTest, SaveIsAtomicAndLeavesNoTemporary) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "devil_repro_atomic_save.json")
          .string();
  // A stale artifact at the target is replaced, not appended to.
  { std::ofstream(path) << "stale garbage\n"; }
  ShardBundle bundle = tiny_bundle();
  eval::save_shard_bundle(path, bundle);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ShardBundle back = eval::load_shard_bundle(path);
  EXPECT_EQ(eval::serialize_shard_bundle(back),
            eval::serialize_shard_bundle(bundle));
  std::remove(path.c_str());
}

}  // namespace
