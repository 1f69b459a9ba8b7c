// Differential + determinism suite for the busmouse mutation campaigns —
// the second device on the generic campaign kernel, mirroring the IDE
// guarantees of test_prefix_pipeline.cc / test_campaign_parallel.cc:
//
//  - walker vs whole-unit VM vs spliced-prefix VM byte-identity for the
//    clean drivers (both codegen modes) and for sampled mutants;
//  - campaign records/tallies identical across engines, thread counts,
//    dedup on/off and prefix-cache on/off (hit counters prove which
//    pipeline ran);
//  - campaign preconditions fail with diagnostics naming the busmouse
//    device and its entry point, and the entry defaults come from the
//    device binding.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign_kernels.h"
#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "hw/busmouse.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "mutation/c_mutator.h"

namespace {

void expect_same_outcome(const minic::RunOutcome& a,
                         const minic::RunOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.fault, b.fault) << label;
  EXPECT_EQ(a.fault_message, b.fault_message) << label;
  EXPECT_EQ(a.return_value, b.return_value) << label;
  EXPECT_EQ(a.steps_used, b.steps_used) << label;
  EXPECT_EQ(a.executed.to_set(), b.executed.to_set()) << label;
  EXPECT_EQ(a.log, b.log) << label;
}

std::shared_ptr<hw::IoBus> mouse_bus() {
  auto bus = std::make_shared<hw::IoBus>();
  bus->map(0x23c, 4, std::make_shared<hw::Busmouse>());
  return bus;
}

/// Compiles `prefix_text + tail` whole and through the compiled-prefix
/// cache and runs walker, whole-unit VM and spliced VM on fresh busmice;
/// everything observable must match three ways.
void diff_three_ways(const std::string& name, const std::string& prefix_text,
                     const std::string& tail, const std::string& label) {
  auto whole = minic::compile(name, prefix_text + tail);
  ASSERT_TRUE(whole.ok()) << label << "\n" << whole.diags.render();

  auto prefix = minic::prepare_prefix(name, prefix_text);
  ASSERT_TRUE(prefix.ok()) << label;
  ASSERT_TRUE(prefix.compiled != nullptr) << label;
  auto spliced = minic::compile_tail(prefix, tail);
  ASSERT_TRUE(spliced.ok()) << label << "\n" << spliced.diags.render();
  EXPECT_EQ(whole.unit->macro_use_lines, spliced.macro_use_lines) << label;

  auto bus_w = mouse_bus();
  auto walker = minic::run_unit(*whole.unit, *bus_w, corpus::kMouseEntry,
                                3'000'000, minic::ExecEngine::kTreeWalker);
  auto bus_v = mouse_bus();
  auto vm = minic::run_unit(*whole.unit, *bus_v, corpus::kMouseEntry,
                            3'000'000, minic::ExecEngine::kBytecodeVm);
  auto bus_s = mouse_bus();
  auto fast = minic::run_module(*spliced.module, *bus_s, corpus::kMouseEntry,
                                3'000'000);

  expect_same_outcome(walker, vm, label + " [walker vs whole-unit vm]");
  expect_same_outcome(vm, fast, label + " [whole-unit vm vs spliced]");
}

TEST(BusmouseCampaign, CDriverThreeWayByteIdentity) {
  diff_three_ways("mouse_c.c", "", corpus::c_busmouse_driver(), "c busmouse");
}

TEST(BusmouseCampaign, CDevilDriverThreeWayByteIdentityBothModes) {
  for (auto mode :
       {devil::CodegenMode::kDebug, devil::CodegenMode::kProduction}) {
    auto spec = devil::compile_spec("busmouse.dil", corpus::busmouse_spec(),
                                    mode);
    ASSERT_TRUE(spec.ok()) << spec.diags.render();
    diff_three_ways("busmouse.dil", spec.stubs + "\n",
                    corpus::cdevil_busmouse_driver(),
                    mode == devil::CodegenMode::kDebug
                        ? "cdevil busmouse debug"
                        : "cdevil busmouse production");
  }
}

// ---------------------------------------------------------------------------
// Sampled mutants: walker, whole-unit VM and spliced VM must agree mutant
// by mutant — acceptance, first diagnostic and boot outcome.
// ---------------------------------------------------------------------------

void diff_mutants(const std::string& stubs, const std::string& driver,
                  bool is_cdevil, size_t stride, const std::string& label) {
  const std::string prefix_text = stubs.empty() ? std::string() : stubs + "\n";
  auto prefix = minic::prepare_prefix("mouse.c", prefix_text);
  ASSERT_TRUE(prefix.ok());
  ASSERT_TRUE(prefix.compiled != nullptr);

  mutation::CScanOptions scan;
  scan.classes = is_cdevil
                     ? mutation::classes_for_cdevil_driver(stubs, driver)
                     : mutation::classes_for_c_driver(driver);
  auto sites = mutation::scan_c_sites(driver, scan);
  auto mutants = mutation::generate_c_mutants(sites, scan.classes);
  ASSERT_GT(mutants.size(), 0u);

  size_t booted = 0, rejected = 0;
  for (size_t m = 0; m < mutants.size(); m += stride) {
    std::string mutated = mutation::apply_mutant(driver, sites, mutants[m]);
    std::string label_m = label + " mutant #" + std::to_string(m);
    auto whole = minic::compile("mouse.c", prefix_text + mutated);
    auto fast = minic::compile_tail(prefix, mutated);
    ASSERT_EQ(whole.ok(), fast.ok()) << label_m;
    if (!whole.ok()) {
      ASSERT_FALSE(whole.diags.all().empty()) << label_m;
      ASSERT_FALSE(fast.diags.all().empty()) << label_m;
      EXPECT_EQ(whole.diags.all().front().to_string(),
                fast.diags.all().front().to_string())
          << label_m;
      ++rejected;
      continue;
    }
    auto bus_w = mouse_bus();
    auto walker = minic::run_unit(*whole.unit, *bus_w, corpus::kMouseEntry,
                                  3'000'000, minic::ExecEngine::kTreeWalker);
    auto bus_v = mouse_bus();
    auto vm = minic::run_unit(*whole.unit, *bus_v, corpus::kMouseEntry,
                              3'000'000, minic::ExecEngine::kBytecodeVm);
    auto bus_f = mouse_bus();
    auto fast_run = minic::run_module(*fast.module, *bus_f,
                                      corpus::kMouseEntry, 3'000'000);
    expect_same_outcome(walker, vm, label_m + " [walker vs vm]");
    expect_same_outcome(vm, fast_run, label_m + " [vm vs spliced]");
    ++booted;
  }
  EXPECT_GT(booted, 15u) << label;
  EXPECT_GT(rejected, 2u) << label;
}

TEST(BusmouseCampaign, SampledCMutantsThreeWay) {
  diff_mutants("", corpus::c_busmouse_driver(), false, 41, "c busmouse");
}

TEST(BusmouseCampaign, SampledCDevilMutantsThreeWay) {
  auto spec = devil::compile_spec("busmouse.dil", corpus::busmouse_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  diff_mutants(spec.stubs, corpus::cdevil_busmouse_driver(), true, 4,
               "cdevil busmouse");
}

// ---------------------------------------------------------------------------
// Campaign-level determinism: engines, thread counts, dedup and prefix
// cache must all leave records and tallies byte-identical.
// ---------------------------------------------------------------------------

void expect_identical(const eval::DriverCampaignResult& a,
                      const eval::DriverCampaignResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.device, b.device) << label;
  EXPECT_EQ(a.entry, b.entry) << label;
  EXPECT_EQ(a.clean_fingerprint, b.clean_fingerprint) << label;
  EXPECT_EQ(a.total_sites, b.total_sites) << label;
  EXPECT_EQ(a.total_mutants, b.total_mutants) << label;
  EXPECT_EQ(a.sample_size, b.sample_size) << label;
  EXPECT_EQ(a.deduped_mutants, b.deduped_mutants) << label;
  EXPECT_EQ(a.tally.mutants, b.tally.mutants) << label;
  EXPECT_EQ(a.tally.sites, b.tally.sites) << label;
  EXPECT_EQ(a.tally.total_mutants, b.tally.total_mutants) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].mutant_index, b.records[i].mutant_index)
        << label << " #" << i;
    EXPECT_EQ(a.records[i].site, b.records[i].site) << label << " #" << i;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome)
        << label << " #" << i;
    EXPECT_EQ(a.records[i].detail, b.records[i].detail) << label << " #" << i;
    EXPECT_EQ(a.records[i].deduped, b.records[i].deduped)
        << label << " #" << i;
  }
}

eval::DriverCampaignConfig c_mouse_config() {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.sample_percent = 25;
  return cfg;
}

eval::DriverCampaignConfig cdevil_mouse_config() {
  auto spec = devil::compile_spec("busmouse.dil", corpus::busmouse_spec(),
                                  devil::CodegenMode::kDebug);
  EXPECT_TRUE(spec.ok()) << spec.diags.render();
  eval::DriverCampaignConfig cfg;
  cfg.stubs = spec.stubs;
  cfg.driver = corpus::cdevil_busmouse_driver();
  cfg.device = eval::busmouse_binding();
  cfg.is_cdevil = true;
  cfg.sample_percent = 100;  // small corpus: enumerate fully
  return cfg;
}

void campaign_matrix(eval::DriverCampaignConfig cfg, const std::string& label) {
  cfg.threads = 1;
  cfg.engine = minic::ExecEngine::kBytecodeVm;
  auto base = eval::run_driver_campaign(cfg);
  EXPECT_EQ(base.device, "busmouse") << label;
  EXPECT_EQ(base.entry, "mouse_boot") << label;
  EXPECT_GT(base.sample_size, 0u) << label;

  cfg.threads = 4;
  auto threaded = eval::run_driver_campaign(cfg);
  expect_identical(base, threaded, label + " threads 1 vs 4");

  cfg.engine = minic::ExecEngine::kTreeWalker;
  auto walker = eval::run_driver_campaign(cfg);
  expect_identical(base, walker, label + " vm vs walker");
  EXPECT_EQ(walker.prefix_cache_hits, 0u) << label;  // walker compiles whole

  // The counters prove the fast path served every unique compile.
  EXPECT_GT(base.prefix_cache_hits, 0u) << label;
  EXPECT_EQ(base.prefix_cache_hits,
            base.sample_size - base.deduped_mutants)
      << label;
}

TEST(BusmouseCampaign, CCampaignDeterministicAcrossEnginesThreadsAndCache) {
  campaign_matrix(c_mouse_config(), "c busmouse");
}

TEST(BusmouseCampaign, CDevilCampaignDeterministicAcrossEnginesThreadsAndCache) {
  campaign_matrix(cdevil_mouse_config(), "cdevil busmouse");
}

TEST(BusmouseCampaign, DedupLabelsDuplicatesAndLeavesTalliesUnchanged) {
  auto cfg = cdevil_mouse_config();
  cfg.dedup = true;
  auto on = eval::run_driver_campaign(cfg);
  cfg.dedup = false;
  auto off = eval::run_driver_campaign(cfg);
  EXPECT_GT(on.deduped_mutants, 0u);
  EXPECT_EQ(off.deduped_mutants, 0u);
  EXPECT_EQ(on.tally.mutants, off.tally.mutants);
  EXPECT_EQ(on.tally.sites, off.tally.sites);
  ASSERT_EQ(on.records.size(), off.records.size());
  for (size_t i = 0; i < on.records.size(); ++i) {
    EXPECT_EQ(on.records[i].outcome, off.records[i].outcome) << i;
  }
}

TEST(BusmouseCampaign, PaperShapeHolds) {
  // The paper's §4.2 narrative on the second device: CDevil detects more
  // mutants at compile/run time and leaves far fewer silent "Boot" cases.
  auto c = eval::run_driver_campaign(c_mouse_config());
  auto d = eval::run_driver_campaign(cdevil_mouse_config());
  double c_detected = static_cast<double>(c.tally.detected()) /
                      static_cast<double>(c.sample_size);
  double d_detected = static_cast<double>(d.tally.detected()) /
                      static_cast<double>(d.sample_size);
  double c_boot = static_cast<double>(c.tally.mutants_of(
                      eval::Outcome::kBoot)) /
                  static_cast<double>(c.sample_size);
  double d_boot = static_cast<double>(d.tally.mutants_of(
                      eval::Outcome::kBoot)) /
                  static_cast<double>(d.sample_size);
  EXPECT_GT(d_detected, c_detected);
  EXPECT_LT(d_boot, c_boot / 4.0);
}

// ---------------------------------------------------------------------------
// Binding-derived defaults and diagnostics (the entry/"ide" bugfix).
// ---------------------------------------------------------------------------

// Both kernels (mutation and fault) share these checks.
TEST(BusmouseCampaign, DiagnosticsNameTheDeviceAndEntry) {
  for (bool fault : {false, true}) {
    SCOPED_TRACE(campaign_kernels::kernel_name(fault));
    eval::DriverCampaignConfig cfg;
    cfg.driver = "int mouse_boot() { return undefined_thing; }";
    cfg.device = eval::busmouse_binding();
    try {
      campaign_kernels::run_kernel(cfg, fault);
      FAIL() << "expected logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("busmouse"), std::string::npos)
          << e.what();
    }

    cfg.driver = "int mouse_boot() { panic(\"boom\"); return 1; }";
    try {
      campaign_kernels::run_kernel(cfg, fault);
      FAIL() << "expected logic_error";
    } catch (const std::logic_error& e) {
      std::string msg = e.what();
      EXPECT_NE(msg.find("busmouse"), std::string::npos) << msg;
      EXPECT_NE(msg.find("mouse_boot"), std::string::npos) << msg;
    }
  }
}

TEST(BusmouseCampaign, MissingBindingIsRejectedUpFront) {
  for (bool fault : {false, true}) {
    SCOPED_TRACE(campaign_kernels::kernel_name(fault));
    eval::DriverCampaignConfig cfg;
    cfg.driver = "int mouse_boot() { return 1; }";
    try {
      campaign_kernels::run_kernel(cfg, fault);
      FAIL() << "expected logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("no device binding"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BusmouseCampaign, EntryOverrideBeatsBindingDefault) {
  // The binding supplies `mouse_boot`; an explicit entry wins over it.
  eval::DriverCampaignConfig cfg;
  cfg.driver = R"(
int other_boot() { return 77; }
int mouse_boot() { panic("wrong entry used"); return 1; }
)";
  cfg.device = eval::busmouse_binding();
  cfg.entry = "other_boot";
  auto res = eval::run_driver_campaign(cfg);
  EXPECT_EQ(res.clean_fingerprint, 77);
  EXPECT_EQ(res.entry, "other_boot");
}

TEST(BusmouseCampaign, BindingForMatchesExplicitBinding) {
  // The name-based lookup every campaign entry point now uses (via
  // eval::CampaignSpec) must select the exact same campaign as wiring the
  // binding factory by hand.
  auto cfg = cdevil_mouse_config();
  auto direct = eval::run_driver_campaign(cfg);
  cfg.device = eval::binding_for("busmouse");
  auto looked_up = eval::run_driver_campaign(cfg);
  expect_identical(looked_up, direct, "binding_for vs explicit");
  EXPECT_EQ(looked_up.device, "busmouse");
}

TEST(BusmouseCampaign, StandardBindingLookup) {
  EXPECT_EQ(eval::binding_for("busmouse").entry, "mouse_boot");
  EXPECT_EQ(eval::binding_for("ide").port_span, 8u);
  EXPECT_THROW((void)eval::binding_for("sound"), std::logic_error);
  EXPECT_EQ(eval::standard_bindings().size(), 4u);
  // Every corpus campaign device — polled and interrupt-driven — has a
  // standard binding with the same entry point.
  for (const auto& drivers : corpus::campaign_drivers()) {
    auto binding = eval::binding_for(drivers.device);
    EXPECT_EQ(binding.entry, drivers.entry) << drivers.device;
    EXPECT_LT(binding.irq_line, 0) << drivers.device;
  }
  for (const auto& drivers : corpus::irq_campaign_drivers()) {
    auto binding = eval::binding_for(drivers.device);
    EXPECT_EQ(binding.entry, drivers.entry) << drivers.device;
    EXPECT_GE(binding.irq_line, 0) << drivers.device;
  }
}

}  // namespace
