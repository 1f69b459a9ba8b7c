// Differential suite for the compiled-prefix mutant pipeline (prepare ->
// tail-compile -> splice) and the widened superinstruction set.
//
// The cached path must be indistinguishable from whole-unit compilation:
// same acceptance and first diagnostic, and byte-identical RunOutcome
// (fault kind and message, return value, step count, coverage bitmap,
// printk log) — across every corpus driver and sampled mutants of both
// campaigns. Campaign-level identity against the whole-unit walker oracle
// lives in test_bytecode_vm.cc (CampaignEngines).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/smoke_drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/spec_campaign.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "hw/misc_devices.h"
#include "minic/program.h"
#include "mutation/c_mutator.h"

namespace {

void expect_same_outcome(const minic::RunOutcome& whole,
                         const minic::RunOutcome& spliced,
                         const std::string& label) {
  EXPECT_EQ(whole.fault, spliced.fault) << label;
  EXPECT_EQ(whole.fault_message, spliced.fault_message) << label;
  EXPECT_EQ(whole.return_value, spliced.return_value) << label;
  EXPECT_EQ(whole.steps_used, spliced.steps_used) << label;
  EXPECT_EQ(whole.executed.to_set(), spliced.executed.to_set()) << label;
  EXPECT_EQ(whole.log, spliced.log) << label;
}

/// Compiles `prefix_text + tail` both ways and runs both on fresh devices
/// of the given factory; everything observable must match, including the
/// walker oracle (three-way: walker, whole-unit VM, spliced VM).
template <typename MakeBus>
void diff_three_ways(const std::string& name, const std::string& prefix_text,
                     const std::string& tail, const std::string& entry,
                     uint64_t budget, MakeBus make_bus,
                     const std::string& label) {
  auto whole = minic::compile(name, prefix_text + tail);
  ASSERT_TRUE(whole.ok()) << label << "\n" << whole.diags.render();

  auto prefix = minic::prepare_prefix(name, prefix_text);
  ASSERT_TRUE(prefix.ok()) << label;
  ASSERT_TRUE(prefix.compiled != nullptr) << label;
  auto spliced = minic::compile_tail(prefix, tail);
  ASSERT_TRUE(spliced.ok()) << label << "\n" << spliced.diags.render();
  EXPECT_EQ(whole.unit->macro_use_lines, spliced.macro_use_lines) << label;

  auto bus_w = make_bus();
  auto walker = minic::run_unit(*whole.unit, *bus_w, entry, budget,
                                minic::ExecEngine::kTreeWalker);
  auto bus_v = make_bus();
  auto vm = minic::run_unit(*whole.unit, *bus_v, entry, budget,
                            minic::ExecEngine::kBytecodeVm);
  auto bus_s = make_bus();
  auto fast = minic::run_module(*spliced.module, *bus_s, entry, budget);

  expect_same_outcome(walker, vm, label + " [walker vs whole-unit vm]");
  expect_same_outcome(vm, fast, label + " [whole-unit vm vs spliced]");
}

std::shared_ptr<hw::IoBus> ide_bus() {
  auto bus = std::make_shared<hw::IoBus>();
  bus->map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
  return bus;
}

// ---------------------------------------------------------------------------
// Corpus drivers: every stub set, both codegen modes.
// ---------------------------------------------------------------------------

TEST(PrefixPipeline, CIdeDriverEmptyPrefix) {
  diff_three_ways("ide_c.c", "", corpus::c_ide_driver(), "ide_boot",
                  3'000'000, ide_bus, "c ide");
}

TEST(PrefixPipeline, CDevilIdeDriverBothModes) {
  for (auto mode :
       {devil::CodegenMode::kDebug, devil::CodegenMode::kProduction}) {
    auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(), mode);
    ASSERT_TRUE(spec.ok()) << spec.diags.render();
    diff_three_ways("ide.dil", spec.stubs + "\n", corpus::cdevil_ide_driver(),
                    "ide_boot", 3'000'000, ide_bus,
                    mode == devil::CodegenMode::kDebug ? "cdevil debug"
                                                       : "cdevil production");
  }
}

TEST(PrefixPipeline, SmokeDriversAllSpecsBothModes) {
  struct Case {
    const char* file;
    const std::string* spec;
    const std::string* driver;
    const char* entry;
    uint32_t base;
    uint32_t len;
    int device;  // 0 = ne2000, 1 = pci, 2 = permedia2
  };
  const Case cases[] = {
      {"ne2000.dil", &corpus::ne2000_spec(), &corpus::cdevil_ne2000_driver(),
       "nic_boot", 0x300, 32, 0},
      {"piix_bm.dil", &corpus::pci_busmaster_spec(),
       &corpus::cdevil_pci_driver(), "bm_boot", 0xc000, 16, 1},
      {"permedia2.dil", &corpus::permedia2_spec(),
       &corpus::cdevil_permedia_driver(), "gfx_boot", 0xd000, 16, 2},
  };
  for (const Case& c : cases) {
    for (auto mode :
         {devil::CodegenMode::kDebug, devil::CodegenMode::kProduction}) {
      auto spec = devil::compile_spec(c.file, *c.spec, mode);
      ASSERT_TRUE(spec.ok()) << c.file;
      auto make_bus = [&c]() {
        auto bus = std::make_shared<hw::IoBus>();
        switch (c.device) {
          case 0: bus->map(c.base, c.len, std::make_shared<hw::Ne2000>()); break;
          case 1:
            bus->map(c.base, c.len, std::make_shared<hw::PciBusMaster>());
            break;
          default:
            bus->map(c.base, c.len, std::make_shared<hw::Permedia2>());
            break;
        }
        return bus;
      };
      diff_three_ways(c.file, spec.stubs + "\n", *c.driver, c.entry, 500'000,
                      make_bus, std::string(c.file) + " mode " +
                                    std::to_string(static_cast<int>(mode)));
    }
  }
}

// ---------------------------------------------------------------------------
// Sampled mutants of both campaigns: acceptance, first diagnostic and boot
// outcome must match whole-unit compilation mutant by mutant.
// ---------------------------------------------------------------------------

void diff_mutants_cached(const std::string& stubs, const std::string& driver,
                         bool is_cdevil, size_t stride,
                         const std::string& label) {
  const std::string prefix_text = stubs.empty() ? std::string() : stubs + "\n";
  auto prefix = minic::prepare_prefix("unit.c", prefix_text);
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
    auto whole = minic::compile("unit.c", prefix_text + mutated);
    auto fast = minic::compile_tail(prefix, mutated);
    ASSERT_EQ(whole.ok(), fast.ok()) << label_m;
    if (!whole.ok()) {
      // Identical rejection: the campaign records carry the first line.
      ASSERT_FALSE(whole.diags.all().empty()) << label_m;
      ASSERT_FALSE(fast.diags.all().empty()) << label_m;
      EXPECT_EQ(whole.diags.all().front().to_string(),
                fast.diags.all().front().to_string())
          << label_m;
      ++rejected;
      continue;
    }
    auto bus_w = ide_bus();
    auto vm = minic::run_unit(*whole.unit, *bus_w, "ide_boot", 3'000'000,
                              minic::ExecEngine::kBytecodeVm);
    auto bus_f = ide_bus();
    auto fast_run =
        minic::run_module(*fast.module, *bus_f, "ide_boot", 3'000'000);
    expect_same_outcome(vm, fast_run, label_m);
    ++booted;
  }
  EXPECT_GT(booted, 15u) << label;
  EXPECT_GT(rejected, 5u) << label;
}

TEST(PrefixPipeline, SampledCDriverMutants) {
  diff_mutants_cached("", corpus::c_ide_driver(), false, 53, "c");
}

TEST(PrefixPipeline, SampledCDevilMutants) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  diff_mutants_cached(spec.stubs, corpus::cdevil_ide_driver(), true, 37,
                      "cdevil");
}

// ---------------------------------------------------------------------------
// Tail/prefix symbol collisions: the cached path must reproduce whole-unit
// diagnostics (falling back to whole-unit compilation where needed).
// ---------------------------------------------------------------------------

void expect_same_rejection(const std::string& prefix_text,
                           const std::string& tail, const std::string& label) {
  auto whole = minic::compile("u.c", prefix_text + tail);
  auto prefix = minic::prepare_prefix("u.c", prefix_text);
  ASSERT_TRUE(prefix.ok()) << label;
  ASSERT_TRUE(prefix.compiled != nullptr) << label;
  auto fast = minic::compile_tail(prefix, tail);
  ASSERT_FALSE(whole.ok()) << label;
  ASSERT_FALSE(fast.ok()) << label;
  ASSERT_FALSE(whole.diags.all().empty()) << label;
  ASSERT_FALSE(fast.diags.all().empty()) << label;
  EXPECT_EQ(whole.diags.render(), fast.diags.render()) << label;
}

TEST(PrefixPipeline, TailCollisionsMatchWholeUnitDiagnostics) {
  const std::string prefix =
      "int counter;\n"
      "struct pair { int a; int b; };\n"
      "int bump() { counter = counter + 1; return counter; }\n";
  expect_same_rejection(prefix, "int bump() { return 1; }\n",
                        "function redefined");
  expect_same_rejection(prefix, "int counter;\n int f() { return 0; }\n",
                        "global redefined");
  expect_same_rejection(prefix, "struct pair { int x; };\n",
                        "struct redefined");
  // A tail *function* named like a prefix *global* is the fallback case:
  // whole-unit checking reports it at the prefix declaration and cascades
  // into the prefix body; the cached path must recompile the whole unit to
  // reproduce that.
  expect_same_rejection(prefix, "int counter() { return 1; }\n",
                        "function shadows prefix global");
}

TEST(PrefixPipeline, TailMayDefineFreshSymbols) {
  const std::string prefix = "int base() { return 40; }\n#define TWO 2\n";
  auto prefix_p = minic::prepare_prefix("u.c", prefix);
  ASSERT_TRUE(prefix_p.compiled != nullptr);
  auto fast = minic::compile_tail(
      prefix_p,
      "struct v { int x; };\nint g;\n"
      "int f() { struct v t; t.x = base() + TWO; g = t.x; return g; }\n");
  ASSERT_TRUE(fast.ok()) << fast.diags.render();
  hw::IoBus bus;
  auto out = minic::run_module(*fast.module, bus, "f", 1000);
  EXPECT_EQ(out.return_value, 42);
}

TEST(PrefixPipeline, NonSelfContainedPrefixHasNoCache) {
  // A prefix calling a function only the tail defines cannot be checked
  // standalone; the stage-1 cache stays empty and the token-splice path
  // still accepts the unit.
  auto prefix = minic::prepare_prefix("u.c", "int f() { return g(); }\n");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix.compiled, nullptr);
  const std::string tail = "int g() { return 7; }\n";
  auto whole = minic::compile_with_prefix(prefix, tail);
  EXPECT_TRUE(whole.ok()) << whole.diags.render();
  // compile_tail has no segment to splice onto, so it hands back the whole
  // unit, flagged as a fallback, and the module still boots.
  auto spliced = minic::compile_tail(prefix, tail);
  ASSERT_TRUE(spliced.ok()) << spliced.diags.render();
  EXPECT_TRUE(spliced.whole_unit_fallback);
  hw::IoBus bus;
  auto out = minic::run_module(*spliced.module, bus, "f", 1000);
  EXPECT_EQ(out.fault, minic::FaultKind::kNone) << out.fault_message;
  EXPECT_EQ(out.return_value, 7);
}

// ---------------------------------------------------------------------------
// Superinstructions: dense budget sweeps pin the charge model of the fused
// compare+branch and call+ret forms, and of the plain paths beside them,
// against the walker.
// ---------------------------------------------------------------------------

class FakeIo : public minic::IoEnvironment {
 public:
  uint32_t io_in(uint32_t port, int width) override {
    (void)width;
    auto it = values.find(port);
    return it == values.end() ? 0xffu : it->second;
  }
  void io_out(uint32_t port, uint32_t value, int width) override {
    writes.emplace_back(port, value, width);
  }
  std::map<uint32_t, uint32_t> values;
  std::vector<std::tuple<uint32_t, uint32_t, int>> writes;
};

void sweep_source(const std::string& src, const std::string& entry,
                  const std::string& label) {
  auto prog = minic::compile("t.c", src);
  ASSERT_TRUE(prog.ok()) << label << "\n" << prog.diags.render();
  FakeIo probe;
  probe.values[0x1f7] = 0x50;
  auto full = minic::run_unit(*prog.unit, probe, entry, 200'000,
                              minic::ExecEngine::kTreeWalker);
  ASSERT_LT(full.steps_used, 5000u) << label;
  for (uint64_t budget = 0; budget <= full.steps_used + 2; ++budget) {
    FakeIo io_w, io_v;
    io_w.values[0x1f7] = io_v.values[0x1f7] = 0x50;
    auto walker = minic::run_unit(*prog.unit, io_w, entry, budget,
                                  minic::ExecEngine::kTreeWalker);
    auto vm = minic::run_unit(*prog.unit, io_v, entry, budget,
                              minic::ExecEngine::kBytecodeVm);
    expect_same_outcome(walker, vm,
                        label + " budget=" + std::to_string(budget));
    EXPECT_EQ(io_w.writes, io_v.writes) << label << " budget=" << budget;
  }
}

TEST(Superinstructions, CompareBranchShapes) {
  sweep_source(R"(
int f() {
  int stat;
  int n;
  int big;
  n = 0;
  stat = 0;
  big = 100000;
  while ((stat & 0x08) == 0) {      /* kBinImmJump (== 0) */
    if (stat & 0x21) { n = n + 1; } /* kBinImmJump (& mask) */
    stat = stat + 3;
  }
  if (n == stat) { n = n + 7; }     /* kBinJump via kBinImm? reg==reg */
  if (n < stat) { n = n + 9; }      /* relational */
  if (n == big) { n = 0; }          /* literal too big? still kBinImm path */
  if (dil_eq(n, 3)) { n = n + 1; }  /* kDilEqInt, then kJumpIfZero */
  for (stat = 0; stat != 4; stat = stat + 1) { n = n + stat; }
  return n;
}
)",
               "f", "compare+branch");
}

TEST(Superinstructions, CompareBranchDivFault) {
  // The fused producer can fault (div by zero) — kind, message and step
  // count must match the walker at every budget.
  sweep_source(R"(
int f() {
  int z;
  int n;
  z = 0;
  n = 3;
  if (n / z) { n = 1; }
  return n;
}
)",
               "f", "fused div fault");
}

TEST(Superinstructions, DilEqStructBranch) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  // The CDevil poll loops (`while (dil_eq(get_X(), CONST))`) lower to the
  // fused struct compare+branch; run the whole driver on both engines.
  auto prog = minic::compile("ide.dil",
                             spec.stubs + "\n" + corpus::cdevil_ide_driver());
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  auto bus_w = ide_bus();
  auto walker = minic::run_unit(*prog.unit, *bus_w, "ide_boot", 3'000'000,
                                minic::ExecEngine::kTreeWalker);
  auto bus_v = ide_bus();
  auto vm = minic::run_unit(*prog.unit, *bus_v, "ide_boot", 3'000'000,
                            minic::ExecEngine::kBytecodeVm);
  expect_same_outcome(walker, vm, "cdevil dil_eq struct branch");
}

TEST(Superinstructions, LeafCallShapes) {
  // Only poke() fuses (kCallOutConst); the `{ return v; }` and
  // `{ return K; }` leaves are plain calls.
  sweep_source(R"(
int mk_ident(int v) { return v; }
u8 mk_narrow(u8 v) { return v; }
int magic() { return 1234; }
void poke() { outb(0xAB, 0x80); }
int f() {
  int acc;
  int i;
  acc = 0;
  for (i = 0; i < 5; i++) {
    acc = acc + mk_ident(i * 3);
    acc = acc + mk_narrow(acc);     /* the u8 parameter narrows */
  }
  acc = acc + magic();
  poke();
  return acc;
}
)",
               "f", "leaf calls");
}

TEST(Superinstructions, LeafCallDepthOverflow) {
  // A leaf call past the depth limit must report stack overflow with the
  // callee's name at exactly the walker's depth, whether it pushes a frame
  // (`{ return v; }`) or runs fused without one (kCallOutConst).
  for (const std::string leaf_call :
       {"return leaf(5);", "poke(); return 5;"}) {
    for (int depth = 120; depth <= 135; ++depth) {
      std::string src = R"(
int leaf(int v) { return v; }
void poke() { outb(0xAB, 0x80); }
int f(int n) {
  if (n > 0) { return f(n - 1); }
  )" + leaf_call + R"(
}
int main_entry() { return f()" +
                        std::to_string(depth) + R"(); }
)";
      auto prog = minic::compile("t.c", src);
      ASSERT_TRUE(prog.ok()) << prog.diags.render();
      FakeIo io_w, io_v;
      auto walker = minic::run_unit(*prog.unit, io_w, "main_entry", 100'000,
                                    minic::ExecEngine::kTreeWalker);
      auto vm = minic::run_unit(*prog.unit, io_v, "main_entry", 100'000,
                                minic::ExecEngine::kBytecodeVm);
      const std::string label = leaf_call + " depth=" + std::to_string(depth);
      expect_same_outcome(walker, vm, label);
      EXPECT_EQ(io_w.writes, io_v.writes) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Spec campaign: the exact Table 2 rows at 1 and 4 threads. Skipping
// canonical duplicates must not change any row, and duplicates must be
// counted. Every corpus mutant's stream comes from the token splice, and
// every check re-parses only the mutated declaration.
// ---------------------------------------------------------------------------

struct Table2Counts {
  size_t sites, mutants, detected, deduped;
};

// devilbench/reference/spec.counters.json, in corpus order.
constexpr Table2Counts kTable2[] = {{71, 1608, 1522, 77},
                                    {70, 1156, 1130, 84},
                                    {168, 2029, 1982, 47},
                                    {243, 6161, 6035, 227},
                                    {124, 5650, 5207, 187}};

void expect_table2_row(const eval::SpecCampaignRow& row, size_t i,
                       const std::string& what) {
  const std::string label = row.name + " (" + what + ")";
  EXPECT_EQ(row.sites, kTable2[i].sites) << label;
  EXPECT_EQ(row.mutants, kTable2[i].mutants) << label;
  EXPECT_EQ(row.detected, kTable2[i].detected) << label;
  EXPECT_EQ(row.deduped, kTable2[i].deduped) << label;
  EXPECT_EQ(row.relexed, 0u) << label;
  EXPECT_EQ(row.reparsed, row.mutants - row.deduped) << label;
  EXPECT_EQ(row.pass_missed, 0u) << label;
}

TEST(SpecCampaignDedup, RowsUnchangedAndNonzero) {
  for (size_t i = 0; i < corpus::all_specs().size(); ++i) {
    const auto& spec = corpus::all_specs()[i];
    eval::SpecCampaignConfig cfg;
    cfg.threads = 1;
    cfg.dedup = true;
    auto on = eval::run_spec_campaign(spec, cfg);
    cfg.dedup = false;
    auto off = eval::run_spec_campaign(spec, cfg);
    expect_table2_row(on, i, "1 thread");
    EXPECT_EQ(off.deduped, 0u) << spec.name;
    EXPECT_EQ(on.mutants, off.mutants) << spec.name;
    EXPECT_EQ(on.sites, off.sites) << spec.name;
    EXPECT_EQ(on.detected, off.detected) << spec.name;
    EXPECT_EQ(on.undetected_samples, off.undetected_samples) << spec.name;
  }
}

TEST(SpecCampaignDedup, ThreadCountInvariant) {
  for (size_t i = 0; i < corpus::all_specs().size(); ++i) {
    const auto& spec = corpus::all_specs()[i];
    eval::SpecCampaignConfig cfg;
    cfg.threads = 1;
    auto serial = eval::run_spec_campaign(spec, cfg);
    cfg.threads = 4;
    auto parallel = eval::run_spec_campaign(spec, cfg);
    expect_table2_row(serial, i, "1 thread");
    expect_table2_row(parallel, i, "4 threads");
    EXPECT_EQ(serial.undetected_samples, parallel.undetected_samples)
        << spec.name;
  }
}

}  // namespace
