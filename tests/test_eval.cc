// Tests for the evaluation harness: outcome classification and the two
// campaign drivers.
#include <gtest/gtest.h>

#include "campaign_kernels.h"
#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/report.h"
#include "eval/spec_campaign.h"
#include "minic/program.h"
#include "mutation/c_mutator.h"

namespace {

using eval::Outcome;

// A tiny driver + a campaign configured to mutate all of it, for targeted
// outcome checks via hand-written "mutants" (we inject the bug directly).
eval::DriverCampaignConfig tiny(const std::string& driver) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = driver;
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 100;
  return cfg;
}

TEST(Tally, AccumulatesMutantsAndSites) {
  eval::Tally t;
  t.add(Outcome::kBoot, 1);
  t.add(Outcome::kBoot, 1);
  t.add(Outcome::kBoot, 2);
  t.add(Outcome::kHalt, 3);
  EXPECT_EQ(t.mutants_of(Outcome::kBoot), 3u);
  EXPECT_EQ(t.sites_of(Outcome::kBoot), 2u);
  EXPECT_EQ(t.total_mutants, 4u);
  EXPECT_EQ(t.detected(), 0u);
  t.add(Outcome::kCompileTime, 4);
  t.add(Outcome::kRunTime, 5);
  EXPECT_EQ(t.detected(), 2u);
}

TEST(SpecCampaign, BusmouseRowMatchesPaperShape) {
  auto row = eval::run_spec_campaign(corpus::all_specs()[0]);
  EXPECT_EQ(row.name, "Logitech Busmouse");
  EXPECT_GT(row.sites, 30u);
  EXPECT_GT(row.mutants, 500u);
  // Paper Table 2: 88.8%..95.4% detected across specs.
  double pct = 100.0 * static_cast<double>(row.detected) /
               static_cast<double>(row.mutants);
  EXPECT_GT(pct, 85.0);
  EXPECT_LT(pct, 100.0);  // some mutants survive (e.g. '*' <-> fixed bits)
}

TEST(SpecCampaign, SurvivorSamplesReported) {
  auto row = eval::run_spec_campaign(corpus::all_specs()[0], 4);
  EXPECT_LE(row.undetected_samples.size(), 4u);
  EXPECT_FALSE(row.undetected_samples.empty());
}

TEST(SpecCampaign, RejectsBrokenBaselineSpec) {
  corpus::SpecEntry bad{"broken", "broken.dil",
                        "device d (p : bit[8] port @ {0..0}) { }"};
  EXPECT_THROW(eval::run_spec_campaign(bad), std::logic_error);
}

TEST(SpecCampaign, DeterministicAcrossRuns) {
  auto a = eval::run_spec_campaign(corpus::all_specs()[1]);
  auto b = eval::run_spec_campaign(corpus::all_specs()[1]);
  EXPECT_EQ(a.mutants, b.mutants);
  EXPECT_EQ(a.detected, b.detected);
}

// ---- campaign kernel preconditions (mutation and fault kernels) -----------

using campaign_kernels::kernel_name;
using campaign_kernels::run_kernel;

/// Expects both kernels to reject `cfg` (on `slice`) with a logic_error
/// whose message contains `needle`.
void expect_both_kernels_reject(const eval::DriverCampaignConfig& cfg,
                                const std::string& needle,
                                eval::SampleSlice slice = {}) {
  for (bool fault : {false, true}) {
    SCOPED_TRACE(kernel_name(fault));
    try {
      run_kernel(cfg, fault, slice);
      ADD_FAILURE() << "expected logic_error: " << needle;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

TEST(DriverCampaign, RejectsNonCompilingBaseline) {
  expect_both_kernels_reject(tiny("int ide_boot() { return undefined_thing; }"),
                             "does not compile");
}

TEST(DriverCampaign, RejectsFaultingBaseline) {
  expect_both_kernels_reject(
      tiny("int ide_boot() { panic(\"boom\"); return 1; }"),
      "faults on healthy hardware");
}

TEST(DriverCampaign, RejectsNonPositiveFingerprint) {
  expect_both_kernels_reject(tiny("int ide_boot() { return 0; }"),
                             "non-positive boot fingerprint");
}

TEST(DriverCampaign, RejectsInvalidSlice) {
  auto cfg = tiny("int ide_boot() { return 1; }");
  expect_both_kernels_reject(cfg, "invalid sample slice 3/3",
                             eval::SampleSlice{3, 3});
  expect_both_kernels_reject(cfg, "invalid sample slice 0/0",
                             eval::SampleSlice{0, 0});
}

TEST(DriverCampaign, RejectsMissingEntry) {
  auto cfg = tiny("int ide_boot() { return 1; }");
  cfg.device.entry.clear();
  expect_both_kernels_reject(cfg, "no boot entry configured");
}

TEST(DriverCampaign, FaultKernelRejectsEmptyTriggerList) {
  eval::FaultCampaignConfig cfg;
  cfg.base = tiny("int ide_boot() { return 1; }");
  cfg.triggers.clear();
  try {
    (void)eval::run_fault_campaign(cfg);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty trigger list"),
              std::string::npos)
        << e.what();
  }
}

// ---- classification through real mini-campaigns ------------------------------

TEST(DriverCampaign, LiteralMutantsClassified) {
  // A driver whose only mutable region is one literal: port 0x1f7 (status).
  // Its mutants hit mapped registers, unmapped ports (stuck 0xff -> the
  // status poll loops forever), and the O-typo (compile error).
  auto cfg = tiny(R"(
int ide_boot() {
  int s;
  /* MUT_BEGIN */
  s = inb(0x1f7);
  /* MUT_END */
  while (s & 0x80) { s = inb(0x1f7); }
  return s + 1;
}
)");
  auto res = eval::run_driver_campaign(cfg);
  // Sites: the 0x1f7 literal, plus the `s` identifier (confusable with the
  // file's other defined identifier, the function name).
  EXPECT_EQ(res.total_sites, 2u);
  EXPECT_GT(res.sample_size, 30u);
  // The O-typo mutant is a compile error.
  EXPECT_GE(res.tally.mutants_of(Outcome::kCompileTime), 1u);
  // Reading a different mapped register boots with a wrong fingerprint.
  EXPECT_GE(res.tally.mutants_of(Outcome::kDamagedBoot), 1u);
}

TEST(DriverCampaign, DeadCodeRequiresUnexecutedSite) {
  auto cfg = tiny(R"(
int helper(int x) {
  if (x == 12345) {
    /* MUT_BEGIN */
    return 0x42;
    /* MUT_END */
  }
  return 7;
}
int ide_boot() { return helper(1); }
)");
  auto res = eval::run_driver_campaign(cfg);
  EXPECT_GT(res.sample_size, 0u);
  // Everything that compiles is dead (the O-typo variant is caught at
  // compile time before executability matters).
  EXPECT_EQ(res.tally.mutants_of(Outcome::kDeadCode) +
                res.tally.mutants_of(Outcome::kCompileTime),
            res.sample_size);
  EXPECT_GT(res.tally.mutants_of(Outcome::kDeadCode), 0u);
}

TEST(DriverCampaign, MacroSiteDeadOnlyIfUsesUnexecuted) {
  // The macro is used on an executed line, so its body mutants are live.
  auto cfg = tiny(R"(
/* MUT_BEGIN */
#define MAGIC 0x2a
/* MUT_END */
int ide_boot() { return MAGIC + 1; }
)");
  auto res = eval::run_driver_campaign(cfg);
  EXPECT_GT(res.sample_size, 0u);
  EXPECT_EQ(res.tally.mutants_of(Outcome::kDeadCode), 0u);
  // Changing the value changes the fingerprint: damaged boot.
  EXPECT_GT(res.tally.mutants_of(Outcome::kDamagedBoot), 0u);
}

TEST(DriverCampaign, WideLiteralMutantsAreCompileTimeRejections) {
  // Table 1's digit insertion turns a 16-hex-digit literal into a 17-digit
  // one that no 64-bit integer holds: the lexer's MC017, recorded as a
  // compile-time rejection on both engines, never a campaign abort.
  const std::string driver = R"(
int ide_boot() {
  return (
  /* MUT_BEGIN */
  0xfffffffffffffff7
  /* MUT_END */
  & 3) + 1;
}
)";
  mutation::CScanOptions scan;
  scan.classes = mutation::classes_for_c_driver(driver);
  const auto sites = mutation::scan_c_sites(driver, scan);
  const auto mutants = mutation::generate_c_mutants(sites, scan.classes);
  ASSERT_EQ(sites.size(), 1u);
  for (auto engine :
       {minic::ExecEngine::kBytecodeVm, minic::ExecEngine::kTreeWalker}) {
    SCOPED_TRACE(minic::exec_engine_name(engine));
    auto cfg = tiny(driver);
    cfg.engine = engine;
    eval::DriverCampaignResult res;
    ASSERT_NO_THROW(res = eval::run_driver_campaign(cfg));
    ASSERT_EQ(res.records.size(), mutants.size());
    size_t wide = 0;
    for (const auto& rec : res.records) {
      const std::string& text = mutants[rec.mutant_index].replacement;
      if (text.size() != 2 + 17 || text[2] == '0') continue;  // 17 digits
      ++wide;
      EXPECT_EQ(rec.outcome, Outcome::kCompileTime) << text;
      EXPECT_NE(rec.detail.find("MC017"), std::string::npos)
          << text << ": " << rec.detail;
    }
    // Insertions into "fffffffffffffff7" spell 256 distinct 17-digit
    // bodies; the one with a leading '0' still fits.
    EXPECT_EQ(wide, 255u);
    EXPECT_GT(res.tally.mutants_of(Outcome::kBoot) +
                  res.tally.mutants_of(Outcome::kDamagedBoot),
              0u);
  }
}

TEST(DriverCampaign, SamplingIsDeterministicAndScales) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 10;
  auto a = eval::run_driver_campaign(cfg);
  auto b = eval::run_driver_campaign(cfg);
  EXPECT_EQ(a.sample_size, b.sample_size);
  EXPECT_EQ(a.tally.mutants, b.tally.mutants);
  EXPECT_LT(a.sample_size, a.total_mutants / 5);
}

// ---- report rendering -----------------------------------------------------------

TEST(Report, Table2ContainsAllSpecs) {
  std::vector<eval::SpecCampaignRow> rows;
  for (const auto& spec : corpus::all_specs()) {
    eval::SpecCampaignRow r;
    r.name = spec.name;
    r.code_lines = 10;
    r.sites = 5;
    r.mutants = 100;
    r.detected = 90;
    rows.push_back(r);
  }
  std::string t = eval::render_table2(rows);
  EXPECT_NE(t.find("Logitech Busmouse"), std::string::npos);
  EXPECT_NE(t.find("90.0 %"), std::string::npos);
}

TEST(Report, DriverTableShowsRuntimeRowOnlyWhenPresent) {
  eval::DriverCampaignResult r;
  r.total_sites = 3;
  r.sample_size = 10;
  r.tally.add(Outcome::kBoot, 0);
  std::string without = eval::render_driver_table("T", r);
  EXPECT_EQ(without.find("Run-time check"), std::string::npos);
  r.tally.add(Outcome::kRunTime, 1);
  r.sample_size = 11;
  std::string with = eval::render_driver_table("T", r);
  EXPECT_NE(with.find("Run-time check"), std::string::npos);
}

TEST(Report, ComparisonComputesRatios) {
  eval::DriverCampaignResult c, d;
  c.sample_size = 100;
  for (int i = 0; i < 20; ++i) c.tally.add(Outcome::kCompileTime, 0);
  for (int i = 0; i < 40; ++i) c.tally.add(Outcome::kBoot, 1);
  d.sample_size = 100;
  for (int i = 0; i < 60; ++i) d.tally.add(Outcome::kCompileTime, 0);
  for (int i = 0; i < 10; ++i) d.tally.add(Outcome::kBoot, 1);
  std::string s = eval::render_comparison(c, d);
  EXPECT_NE(s.find("3.0x more errors detected"), std::string::npos);
  EXPECT_NE(s.find("4.0x fewer undetected errors"), std::string::npos);
}

}  // namespace
