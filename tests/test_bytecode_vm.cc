// Differential suite for the bytecode VM vs the tree walker: both engines
// must produce byte-identical RunOutcomes (fault kind and message, return
// value, step count, coverage bitmap, printk log) for every corpus driver,
// every Devil-generated stub set, sampled mutants from both Tables 3/4
// campaigns, and across a dense sweep of step budgets (which pins the
// charge-per-node accounting, not just the totals).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/smoke_drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/campaign_spec.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/report.h"
#include "hw/device_pool.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "hw/misc_devices.h"
#include "minic/program.h"
#include "mutation/c_mutator.h"
#include "support/rng.h"

namespace {

/// IoEnvironment with scripted reads; identical streams for both engines.
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

void expect_same_outcome(const minic::RunOutcome& walker,
                         const minic::RunOutcome& vm,
                         const std::string& label) {
  EXPECT_EQ(walker.fault, vm.fault) << label;
  EXPECT_EQ(walker.fault_message, vm.fault_message) << label;
  EXPECT_EQ(walker.return_value, vm.return_value) << label;
  EXPECT_EQ(walker.steps_used, vm.steps_used) << label;
  EXPECT_EQ(walker.executed.to_set(), vm.executed.to_set()) << label;
  EXPECT_EQ(walker.log, vm.log) << label;
}

/// Runs `unit` on both engines against fresh IDE disks and compares
/// everything, including the device's post-run damage state.
void diff_on_ide(const std::string& name, const minic::Unit& unit,
                 const std::string& entry, uint64_t budget,
                 const std::string& label) {
  (void)name;
  hw::IoBus bus_w;
  auto disk_w = std::make_shared<hw::IdeDisk>();
  bus_w.map(0x1f0, 8, disk_w);
  auto walker = minic::run_unit(unit, bus_w, entry, budget,
                                minic::ExecEngine::kTreeWalker);

  hw::IoBus bus_v;
  auto disk_v = std::make_shared<hw::IdeDisk>();
  bus_v.map(0x1f0, 8, disk_v);
  auto vm = minic::run_unit(unit, bus_v, entry, budget,
                            minic::ExecEngine::kBytecodeVm);

  expect_same_outcome(walker, vm, label);
  EXPECT_EQ(disk_w->damaged(), disk_v->damaged()) << label;
  EXPECT_EQ(disk_w->sectors_read(), disk_v->sectors_read()) << label;
  EXPECT_EQ(disk_w->protocol_violations(), disk_v->protocol_violations())
      << label;
}

/// Compiles `src`, runs it on both engines against identical FakeIo
/// streams, compares everything and returns the VM's outcome.
minic::RunOutcome run_both_engines(const std::string& src,
                                   const std::string& entry, uint64_t budget,
                                   const std::string& label) {
  auto prog = minic::compile("t.c", src);
  EXPECT_TRUE(prog.ok()) << label << "\n" << prog.diags.render();
  if (!prog.ok()) return {};
  FakeIo io_w, io_v;
  io_w.values[0x1f7] = io_v.values[0x1f7] = 0x50;
  auto walker = minic::run_unit(*prog.unit, io_w, entry, budget,
                                minic::ExecEngine::kTreeWalker);
  auto vm = minic::run_unit(*prog.unit, io_v, entry, budget,
                            minic::ExecEngine::kBytecodeVm);
  expect_same_outcome(walker, vm, label);
  EXPECT_EQ(io_w.writes, io_v.writes) << label;
  return vm;
}

void diff_source(const std::string& src, const std::string& entry,
                 uint64_t budget, const std::string& label) {
  (void)run_both_engines(src, entry, budget, label);
}

// ---------------------------------------------------------------------------
// Corpus drivers, every stub mode.
// ---------------------------------------------------------------------------

TEST(BytecodeVmDiff, CIdeDriver) {
  auto prog = minic::compile("ide_c.c", corpus::c_ide_driver());
  ASSERT_TRUE(prog.ok());
  diff_on_ide("ide_c.c", *prog.unit, "ide_boot", 3'000'000, "c ide");
}

TEST(BytecodeVmDiff, CDevilIdeDriverBothModes) {
  for (auto mode :
       {devil::CodegenMode::kDebug, devil::CodegenMode::kProduction}) {
    auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(), mode);
    ASSERT_TRUE(spec.ok()) << spec.diags.render();
    auto prog = minic::compile(
        "ide.dil", spec.stubs + "\n" + corpus::cdevil_ide_driver());
    ASSERT_TRUE(prog.ok()) << prog.diags.render();
    diff_on_ide("ide.dil", *prog.unit, "ide_boot", 3'000'000,
                mode == devil::CodegenMode::kDebug ? "cdevil debug"
                                                   : "cdevil production");
  }
}

TEST(BytecodeVmDiff, BusmouseDrivers) {
  // The busmouse drivers poll ports the FakeIo answers; both engines must
  // see the identical I/O stream and outcome.
  auto c_prog = minic::compile("mouse_c.c", corpus::c_busmouse_driver());
  ASSERT_TRUE(c_prog.ok()) << c_prog.diags.render();
  FakeIo io_w, io_v;
  auto walker = minic::run_unit(*c_prog.unit, io_w, corpus::kMouseEntry,
                                500'000, minic::ExecEngine::kTreeWalker);
  auto vm = minic::run_unit(*c_prog.unit, io_v, corpus::kMouseEntry, 500'000,
                            minic::ExecEngine::kBytecodeVm);
  expect_same_outcome(walker, vm, "c busmouse");

  auto spec = devil::compile_spec("busmouse.dil", corpus::busmouse_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  auto d_prog = minic::compile(
      "busmouse.dil", spec.stubs + "\n" + corpus::cdevil_busmouse_driver());
  ASSERT_TRUE(d_prog.ok()) << d_prog.diags.render();
  FakeIo io_w2, io_v2;
  walker = minic::run_unit(*d_prog.unit, io_w2, corpus::kMouseEntry, 500'000,
                           minic::ExecEngine::kTreeWalker);
  vm = minic::run_unit(*d_prog.unit, io_v2, corpus::kMouseEntry, 500'000,
                       minic::ExecEngine::kBytecodeVm);
  expect_same_outcome(walker, vm, "cdevil busmouse");
}

TEST(BytecodeVmDiff, SmokeDriversAllSpecsBothModes) {
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
      auto prog = minic::compile(c.file, spec.stubs + "\n" + *c.driver);
      ASSERT_TRUE(prog.ok()) << c.file << "\n" << prog.diags.render();

      minic::RunOutcome results[2];
      for (int e = 0; e < 2; ++e) {
        hw::IoBus bus;
        switch (c.device) {
          case 0: bus.map(c.base, c.len, std::make_shared<hw::Ne2000>()); break;
          case 1:
            bus.map(c.base, c.len, std::make_shared<hw::PciBusMaster>());
            break;
          default:
            bus.map(c.base, c.len, std::make_shared<hw::Permedia2>());
            break;
        }
        results[e] = minic::run_unit(*prog.unit, bus, c.entry, 500'000,
                                     e == 0 ? minic::ExecEngine::kTreeWalker
                                            : minic::ExecEngine::kBytecodeVm);
      }
      expect_same_outcome(results[0], results[1], c.file);
    }
  }
}

// ---------------------------------------------------------------------------
// Budget sweep: running the same unit at every budget in a dense range pins
// the per-node charge accounting — a single misplaced charge shifts every
// subsequent exhaustion line and step total.
// ---------------------------------------------------------------------------

TEST(BytecodeVmDiff, BudgetSweepMixedConstructs) {
  const std::string src = R"(
struct pair { int a; int b; };
int g_arr[4];
int g_count = 2 + 3;
cstring tag = "boot";

int helper(int x, int y) {
  if (x > y) { return x - y; }
  return helper(y, x + 1);
}

int f() {
  int i;
  int acc;
  struct pair p;
  u8 narrow;
  acc = 0;
  p.a = 7;
  p.b = p.a + 1;
  for (i = 0; i < 4; i++) {
    g_arr[i] = i * i;
    acc += g_arr[i];
  }
  i = 0;
  while (i < 3) {
    i = i + 1;
    if (i == 2) { continue; }
    acc = acc + 1;
  }
  do { acc ^= 5; } while (acc % 2 == 0);
  switch (acc & 3) {
    case 0: acc += 10; break;
    case 1: acc += 20;
    case 2: acc += 30; break;
    default: acc += 40;
  }
  narrow = 0x1ff;
  acc += narrow;
  acc += (acc > 100) ? 1 : 2;
  acc += (1 && acc) + (0 || 0);
  acc += helper(1, 3);
  acc += inb(0x1f7) & 0x10;
  outb(0xAB, 0x80);
  udelay(7);
  printk(tag);
  acc += strcmp("aa", "ab") < 0;
  acc += (u16)(acc * 3);
  acc += dil_val(acc);
  acc += dil_eq(3, 3);
  return acc;
}
)";
  // Full run first, to learn the total step count, then sweep every budget
  // below it (each budget exercises a different exhaustion point).
  auto prog = minic::compile("t.c", src);
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  FakeIo probe;
  probe.values[0x1f7] = 0x50;
  auto full = minic::run_unit(*prog.unit, probe, "f", 100'000,
                              minic::ExecEngine::kTreeWalker);
  ASSERT_EQ(full.fault, minic::FaultKind::kNone) << full.fault_message;
  ASSERT_LT(full.steps_used, 2000u);
  for (uint64_t budget = 0; budget <= full.steps_used + 2; ++budget) {
    diff_source(src, "f", budget, "budget=" + std::to_string(budget));
  }
}

TEST(BytecodeVmDiff, BudgetSweepCleanIdeBoot) {
  auto prog = minic::compile("ide_c.c", corpus::c_ide_driver());
  ASSERT_TRUE(prog.ok());
  hw::IoBus bus;
  bus.map(0x1f0, 8, std::make_shared<hw::IdeDisk>());
  auto full = minic::run_unit(*prog.unit, bus, "ide_boot", 3'000'000,
                              minic::ExecEngine::kTreeWalker);
  ASSERT_EQ(full.fault, minic::FaultKind::kNone);
  // Sparse sweep across the whole boot plus a dense band at the start.
  std::vector<uint64_t> budgets;
  for (uint64_t b = 0; b <= 60; ++b) budgets.push_back(b);
  for (uint64_t b = 61; b < full.steps_used; b += 97) budgets.push_back(b);
  for (uint64_t b : budgets) {
    diff_on_ide("ide_c.c", *prog.unit, "ide_boot", b,
                "ide budget=" + std::to_string(b));
  }
}

// ---------------------------------------------------------------------------
// Fault-path semantics.
// ---------------------------------------------------------------------------

// A parent node's charge may not float past a child that can throw or
// touch the device: the walker charges the assignment before evaluating
// `inb(...)` (so a budget fault at the boundary happens *before* the port
// read) and before a faulting division (so steps_used counts the
// assignment). Dense budget sweeps over both shapes pin the ordering.
TEST(BytecodeVmDiff, ChargeOrderAroundSideEffectsAndFaults) {
  const std::string io_src = R"(
int f() {
  int stat;
  int i;
  for (i = 0; i < 4; i++) {
    stat = inb(0x1f7);
  }
  return stat;
}
)";
  for (uint64_t budget = 0; budget <= 80; ++budget) {
    // FakeIo counts reads; expect_same via diff_source would not see them,
    // so compare the read logs explicitly.
    auto prog = minic::compile("t.c", io_src);
    ASSERT_TRUE(prog.ok());
    struct CountIo : minic::IoEnvironment {
      int reads = 0;
      uint32_t io_in(uint32_t, int) override { ++reads; return 0x50; }
      void io_out(uint32_t, uint32_t, int) override {}
    } io_w, io_v;
    auto walker = minic::run_unit(*prog.unit, io_w, "f", budget,
                                  minic::ExecEngine::kTreeWalker);
    auto vm = minic::run_unit(*prog.unit, io_v, "f", budget,
                              minic::ExecEngine::kBytecodeVm);
    expect_same_outcome(walker, vm, "io budget=" + std::to_string(budget));
    EXPECT_EQ(io_w.reads, io_v.reads) << "io budget=" << budget;
  }
  const std::string div_src = R"(
int f() {
  int z;
  int x;
  z = 0;
  x = 1 / z;
  return x;
}
)";
  for (uint64_t budget = 0; budget <= 16; ++budget) {
    diff_source(div_src, "f", budget, "div budget=" + std::to_string(budget));
  }
  const std::string elem_src = R"(
int a[2];
int f() {
  int x;
  x = a[5] + 1;
  return x;
}
)";
  for (uint64_t budget = 0; budget <= 12; ++budget) {
    diff_source(elem_src, "f", budget,
                "elem budget=" + std::to_string(budget));
  }
}

TEST(BytecodeVmDiff, FaultPaths) {
  diff_source("int f() { int z; z = 0; return 1 / z; }", "f", 100, "div");
  diff_source("int f() { int z; z = 0; return 7 % z; }", "f", 100, "mod");
  diff_source("int a[3]; int f() { return a[5]; }", "f", 100, "oob load");
  diff_source("int a[3]; int f() { a[3] = 1; return 0; }", "f", 100,
              "oob store");
  diff_source("int a[3]; int f() { int i; i = 0 - 1; return a[i]; }", "f",
              100, "negative index");
  diff_source("int f() { return f(); }", "f", 10'000, "stack overflow");
  diff_source("int f() { panic(\"boom\"); return 0; }", "f", 100, "panic");
  diff_source(
      "int f() { panic(\"Devil assertion: reg violates mask\"); return 0; }",
      "f", 100, "devil panic");
  diff_source("int f() { while (1) { } return 0; }", "f", 1000, "loop");
  diff_source("int f() { udelay(20000); return 0; }", "f", 1000,
              "udelay exhaustion");
}

/// The first call to `name` in `e` or `s`, or null.
minic::Expr* find_call(minic::Expr& e, const std::string& name) {
  if (e.kind == minic::ExprKind::kCall && e.text == name) return &e;
  for (auto& sub : e.sub) {
    if (minic::Expr* hit = find_call(*sub, name)) return hit;
  }
  return nullptr;
}
minic::Expr* find_call(minic::Stmt& s, const std::string& name) {
  for (auto& e : s.expr) {
    if (minic::Expr* hit = find_call(*e, name)) return hit;
  }
  for (auto& child : s.body) {
    if (minic::Expr* hit = child ? find_call(*child, name) : nullptr) {
      return hit;
    }
  }
  return nullptr;
}

TEST(BytecodeVmDiff, UnresolvedCallFaultsIdentically) {
  // A call the type checker left unannotated faults kInternal on both
  // engines once its node is charged, before any argument runs: the VM
  // lowers it to kUnreachable, and the walker does not look the name up.
  auto prog = minic::compile("t.c", R"(
int g(int v) { return v + 1; }
int f() {
  int x;
  x = 2;
  outb(x, 0x80);
  x = x + g(x * 3);
  outb(x, 0x81);
  return x;
}
)");
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  minic::Expr* call = find_call(*prog.unit->functions[1].body, "g");
  ASSERT_NE(call, nullptr);
  call->callee_index = -1;
  for (uint64_t budget = 0; budget <= 40; ++budget) {
    const std::string label = "budget=" + std::to_string(budget);
    FakeIo io_w, io_v;
    auto walker = minic::run_unit(*prog.unit, io_w, "f", budget,
                                  minic::ExecEngine::kTreeWalker);
    auto vm = minic::run_unit(*prog.unit, io_v, "f", budget,
                              minic::ExecEngine::kBytecodeVm);
    expect_same_outcome(walker, vm, label);
    EXPECT_EQ(io_w.writes, io_v.writes) << label;
    if (budget == 40) {
      EXPECT_EQ(walker.fault, minic::FaultKind::kInternal);
      EXPECT_EQ(walker.fault_message, "unresolved call to g");
      EXPECT_EQ(io_w.writes.size(), 1u);
    }
  }
}

TEST(BytecodeVmDiff, DevilDebugStructSemantics) {
  // Cross-type dil_eq through the generated stubs: the type-tag assertion
  // must fire identically (message includes the call line).
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  std::string driver = corpus::cdevil_ide_driver();
  size_t pos = driver.find("dil_eq(get_Busy(), BUSY)");
  ASSERT_NE(pos, std::string::npos);
  driver.replace(pos, std::string("dil_eq(get_Busy(), BUSY)").size(),
                 "dil_eq(get_Busy(), MASTER)");
  auto prog = minic::compile("ide.dil", spec.stubs + "\n" + driver);
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  diff_on_ide("ide.dil", *prog.unit, "ide_boot", 3'000'000,
              "cross-type dil_eq");
}

// ---------------------------------------------------------------------------
// Sampled mutants from both Tables 3/4 campaigns: the per-mutant kernel on
// both engines, against real device state.
// ---------------------------------------------------------------------------

void diff_mutants(const std::string& stubs, const std::string& driver,
                  bool is_cdevil, size_t stride, const std::string& label) {
  const std::string prefix_text = stubs.empty() ? std::string() : stubs + "\n";
  auto prefix = minic::prepare_prefix("unit.c", prefix_text);
  ASSERT_TRUE(prefix.ok());

  mutation::CScanOptions scan;
  scan.classes = is_cdevil
                     ? mutation::classes_for_cdevil_driver(stubs, driver)
                     : mutation::classes_for_c_driver(driver);
  auto sites = mutation::scan_c_sites(driver, scan);
  auto mutants = mutation::generate_c_mutants(sites, scan.classes);
  ASSERT_GT(mutants.size(), 0u);

  size_t compared = 0;
  for (size_t m = 0; m < mutants.size(); m += stride) {
    std::string mutated = mutation::apply_mutant(driver, sites, mutants[m]);
    auto prog = minic::compile_with_prefix(prefix, mutated);
    if (!prog.ok()) continue;  // compile-time outcomes have no engine
    diff_on_ide("unit.c", *prog.unit, "ide_boot", 3'000'000,
                label + " mutant #" + std::to_string(m));
    ++compared;
  }
  EXPECT_GT(compared, 20u) << label;
}

TEST(BytecodeVmDiff, SampledCDriverMutants) {
  diff_mutants("", corpus::c_ide_driver(), false, 53, "c");
}

TEST(BytecodeVmDiff, SampledCDevilMutants) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  diff_mutants(spec.stubs, corpus::cdevil_ide_driver(), true, 37, "cdevil");
}

// ---------------------------------------------------------------------------
// Opcode profiles. Profiling must not change a boot, and the clean IDE
// boots' per-opcode dispatch counts are pinned here (the same counts the
// campaigns' `baseline_opcodes` carry), so a dispatch loop that counts an
// instruction twice, skips one or routes it to the wrong handler fails in
// ctest, not only at the benchmark's reference gate.
// ---------------------------------------------------------------------------

using OpCounts = std::map<std::string, uint64_t>;

OpCounts nonzero_counts(const minic::bytecode::OpcodeProfile& profile) {
  OpCounts out;
  for (size_t i = 0; i < minic::bytecode::kOpCount; ++i) {
    if (profile.counts[i] != 0) {
      out[minic::bytecode::op_name(static_cast<minic::bytecode::Op>(i))] =
          profile.counts[i];
    }
  }
  return out;
}

const OpCounts& pinned_ide_c_profile() {
  static const OpCounts counts = {
      {"Step", 815}, {"StepMark", 830}, {"StepStepMark", 774},
      {"StepJump", 8}, {"Jump", 771}, {"JumpIfZero", 14}, {"OrJump", 1},
      {"BoolNorm", 1}, {"LoadConst", 53}, {"MoveInt", 1564},
      {"LoadGlobalInt", 3}, {"LoadElemGlobal", 8}, {"Add", 2}, {"BitOr", 5},
      {"Shl", 3}, {"CmpGe", 1}, {"BinImm", 25}, {"BinJump", 9},
      {"BinImmJump", 783}, {"PollInAnd", 13}, {"StoreLocalInt", 14},
      {"StoreGlobalInt", 1}, {"OpStoreLocalImm", 768},
      {"StoreElemGlobal", 768}, {"DeclIntZ", 10}, {"InitGlobalArr", 2},
      {"Call", 12}, {"Ret", 8}, {"RetZero", 6}, {"CallOutConst", 1},
      {"InConst", 776}, {"Out", 14},
  };
  return counts;
}

const OpCounts& pinned_ide_cdevil_profile() {
  static const OpCounts counts = {
      {"Step", 8848}, {"StepMark", 8948}, {"StepStepMark", 796},
      {"StepJump", 8}, {"Mark", 41}, {"Jump", 775}, {"JumpIfZero", 5},
      {"JumpIfNotZero", 4}, {"CaseTest", 4}, {"OrJump", 5}, {"BoolNorm", 5},
      {"LoadConst", 3321}, {"LoadStr", 844}, {"MoveInt", 4851},
      {"MoveStruct", 813}, {"LoadGlobalInt", 838}, {"LoadGlobalStruct", 37},
      {"LoadElemGlobal", 8}, {"GetFieldInt", 10}, {"Add", 2}, {"BitAnd", 799},
      {"BitOr", 818}, {"Shl", 3}, {"Shr", 799}, {"CmpGe", 1}, {"BinImm", 976},
      {"Coerce", 14}, {"BinJump", 9}, {"BinImmJump", 776},
      {"DilEqStructJump", 31}, {"StoreLocalInt", 3248},
      {"StoreGlobalInt", 19}, {"OpStoreLocalImm", 768},
      {"StoreElemGlobal", 768}, {"StoreFieldLocalInt", 1606},
      {"StoreFieldLocalStr", 803}, {"StoreGFieldIntF", 82},
      {"StoreGFieldStrF", 41}, {"DeclIntZ", 2433}, {"DeclStructZ", 803},
      {"InitGlobalArr", 2}, {"Call", 2454}, {"Ret", 2413}, {"RetZero", 43},
      {"In", 803}, {"Out", 16}, {"DilValStruct", 768},
  };
  return counts;
}

TEST(BytecodeVmProfile, CorpusBootsAreUnchangedByProfilingAndIdeIsPinned) {
  std::vector<corpus::CampaignDrivers> all = corpus::campaign_drivers();
  for (const auto& d : corpus::irq_campaign_drivers()) all.push_back(d);
  const eval::CampaignSpec spec;
  size_t pinned = 0;
  for (const auto& drivers : all) {
    const eval::DeviceCampaignConfigs configs =
        eval::driver_configs_for(spec, drivers);
    for (const eval::DriverCampaignConfig* cfg : {&configs.c, &configs.cdevil}) {
      const std::string label = std::string(drivers.device) +
                                (cfg->is_cdevil ? " CDevil" : " C");
      // The campaigns' own baseline path: the stub prefix, the driver
      // compiled after it, one boot rig per boot.
      auto prefix = minic::prepare_prefix(
          cfg->unit_name, cfg->stubs.empty() ? "" : cfg->stubs + "\n");
      ASSERT_TRUE(prefix.ok()) << label;
      auto prog = minic::compile_with_prefix(prefix, cfg->driver);
      ASSERT_TRUE(prog.ok()) << label << "\n" << prog.diags.render();
      const std::string& entry =
          cfg->entry.empty() ? cfg->device.entry : cfg->entry;
      hw::DevicePool pool;
      pool.set_factory(cfg->device.make_device);
      auto boot = [&](minic::bytecode::OpcodeProfile* profile) {
        eval::BootRig rig(pool, cfg->device);
        return minic::run_unit(*prog.unit, rig.bus(), entry,
                               cfg->step_budget,
                               minic::ExecEngine::kBytecodeVm, profile);
      };
      minic::bytecode::OpcodeProfile profile;
      const minic::RunOutcome plain = boot(nullptr);
      const minic::RunOutcome profiled = boot(&profile);
      expect_same_outcome(plain, profiled, label);
      EXPECT_EQ(plain.fault, minic::FaultKind::kNone)
          << label << ": " << plain.fault_message;
      EXPECT_GT(profile.total(), 0u) << label;
      if (std::string(drivers.device) == "ide") {
        const OpCounts& want = cfg->is_cdevil ? pinned_ide_cdevil_profile()
                                              : pinned_ide_c_profile();
        EXPECT_EQ(nonzero_counts(profile), want) << label;
        EXPECT_EQ(profile.total(), cfg->is_cdevil ? 51'459u : 8'063u)
            << label;
        EXPECT_EQ(plain.steps_used, cfg->is_cdevil ? 44'977u : 9'650u)
            << label;
        ++pinned;
      }
    }
  }
  EXPECT_EQ(pinned, 2u);
}

// ---------------------------------------------------------------------------
// The call protocol: frames are reused in place (one register vector per
// call depth), a kRet swaps the callee's result into the caller's
// destination and leaves the destination's old payload in the dead callee
// register, and a kRetZero clears the destination in place. Each program
// routes payloads of one kind through registers that last held another.
// ---------------------------------------------------------------------------

TEST(BytecodeVmCallProtocol, StructAndStringReturnsIntoReusedRegisters) {
  const std::string src = R"(
struct box { cstring name; int tag; int val; };
struct pair { int a; int b; };

box mk_box(int v) {
  box b;
  b.name = "box";
  b.tag = v & 3;
  b.val = v * 5;
  return b;
}
pair mk_pair(int a) {
  pair p;
  p.a = a;
  p.b = a + 7;
  return p;
}
cstring name_of(int i) {
  if (i & 1) { return "odd"; }
  return "even";
}
int weigh(box b, pair p, cstring s) {
  printk(s);
  printk(b.name);
  return b.val + b.tag * p.a + p.b + strcmp(s, "odd");
}

int f() {
  int i;
  int acc;
  box b;
  pair p;
  cstring s;
  acc = 0;
  for (i = 0; i < 5; i++) {
    s = name_of(i);
    b = mk_box(i + acc);
    p = mk_pair(b.val);
    acc = acc + weigh(b, p, s);
    acc = acc + mk_box(acc & 15).val + mk_pair(i).b;
    printk(name_of(acc));
    acc = acc + weigh(mk_box(i), mk_pair(acc & 7), name_of(i + 1));
    b = mk_box(p.b);
    s = name_of(b.val);
    acc = acc + b.tag + strcmp(s, name_of(i));
  }
  return acc;
}
)";
  for (uint64_t budget : {100'000u, 150u, 400u, 777u}) {
    diff_source(src, "f", budget, "struct/string returns budget=" +
                                      std::to_string(budget));
  }
}

TEST(BytecodeVmCallProtocol, RetZeroClearsADestinationThatHeldAStruct) {
  // A function that falls off its end returns through kRetZero: an int
  // result reads 0 and a struct result reads as an empty struct, even when
  // the destination register last held a live struct.
  const std::string src = R"(
struct box { cstring name; int tag; int val; };

box mk_box(int v) {
  box b;
  b.name = "box";
  b.tag = 1;
  b.val = v;
  return b;
}
box maybe_box(int v) {
  if (v > 1000) { return mk_box(v); }
}
int maybe_int(int v) {
  if (v > 1000) { return v; }
}
void touch(int v) {
  if (v > 1000) { printk("big"); }
}

int f() {
  int i;
  int acc;
  box b;
  acc = 0;
  for (i = 0; i < 4; i++) {
    b = mk_box(i + 40);
    acc = acc + b.val;
    b = maybe_box(i);
    acc = acc + b.val + b.tag;
    acc = acc + mk_box(i + 9).val + maybe_box(i).val;
    acc = acc + mk_box(acc).tag + maybe_int(i) + maybe_box(acc).tag;
    touch(mk_box(i).val);
    acc = acc * 3 + maybe_int(acc & 1);
  }
  return acc;
}
)";
  // Each fallen-off result reads as zero (worked out by hand), so a
  // destination left holding its old struct or integer shows here too.
  const auto vm = run_both_engines(src, "f", 100'000, "ret-zero into struct");
  ASSERT_EQ(vm.fault, minic::FaultKind::kNone) << vm.fault_message;
  EXPECT_EQ(vm.return_value, 6111);
}

TEST(BytecodeVmCallProtocol, DeepCallsUnwindAndReenterWithOtherFrameShapes) {
  // Two recursions climb to the same depths with different register and
  // slot counts (and parameter kinds); a third one re-enters after both
  // unwound. Locals must read as freshly declared at every depth.
  const std::string src = R"(
struct pair { int a; int b; };

int wide(int n, int x) {
  int a; int b; int c; int d; int e;
  pair p;
  a = n; b = a * 2; c = b + x; d = c ^ a; e = d & 0xff;
  p.a = e; p.b = n;
  if (n == 0) { return e + p.a; }
  return wide(n - 1, e + 1) + p.b - (a + b + c + d);
}
int narrow(int n) {
  if (n == 0) { return 1; }
  return narrow(n - 1) + n;
}
pair carry(pair p, int n) {
  pair q;
  cstring s;
  s = "carry";
  q.a = p.a + n;
  q.b = p.b + strcmp(s, "carrz");
  if (n == 0) { return q; }
  return carry(q, n - 1);
}
int sum(int n) {
  int i; int t;
  t = 0;
  for (i = 0; i < n; i++) { t = t + i; }
  if (n == 0) { return t; }
  return t + sum(n - 1);
}

int f() {
  int acc;
  pair p;
  acc = wide(60, 3);
  acc = acc + narrow(90);
  p.a = 1;
  p.b = 2;
  p = carry(p, 100);
  acc = acc + p.a * 1000 + p.b;
  acc = acc + wide(20, acc & 7) + sum(30) + narrow(5);
  p = carry(p, 3);
  return acc + p.a + p.b;
}
)";
  diff_source(src, "f", 1'000'000, "deep re-entry");
  diff_source(src, "f", 5'000, "deep re-entry, budget fault mid-climb");
}

TEST(BytecodeVmCallProtocol, StructParameterRecursionOverflowsIdentically) {
  // Struct parameters copied at every level until the depth limit: the
  // stack-overflow fault and its message must match the walker's.
  const auto over = run_both_engines(R"(
struct box { cstring name; int tag; int val; };
int rec(box b, int n) {
  box c;
  c = b;
  c.val = c.val + n;
  c.name = "deeper";
  return rec(c, n + 1) + c.tag;
}
int f() {
  box b;
  b.name = "top";
  b.tag = 2;
  b.val = 1;
  return rec(b, 0);
}
)",
                                     "f", 1'000'000, "struct overflow");
  EXPECT_EQ(over.fault, minic::FaultKind::kStackOverflow);
  EXPECT_EQ(over.fault_message, "call depth exceeded in rec");
  // A struct-returning recursion that reaches exactly the limit (f and
  // 127 frames of rec) returns.
  const auto at_limit = run_both_engines(R"(
struct box { cstring name; int tag; int val; };
box rec(box b, int n) {
  box c;
  c = b;
  c.val = n;
  if (n == 127) { return c; }
  return rec(c, n + 1);
}
int f() {
  box b;
  b.tag = 1;
  return rec(b, 1).val;
}
)",
                                         "f", 1'000'000, "struct at the limit");
  EXPECT_EQ(at_limit.fault, minic::FaultKind::kNone)
      << at_limit.fault_message;
  EXPECT_EQ(at_limit.return_value, 127);
}

/// IoEnvironment that raises IRQ line 3 after every `every`-th port write
/// and keeps it pending until the engine takes it.
class WriteIrqIo : public minic::IoEnvironment {
 public:
  explicit WriteIrqIo(int every) : every_(every) {}
  uint32_t io_in(uint32_t port, int width) override {
    (void)width;
    return port & 0xff;
  }
  void io_out(uint32_t port, uint32_t value, int width) override {
    writes.emplace_back(port, value, width);
    if (++outs_ % every_ == 0) pending_ = true;
  }
  int irq_pending() override { return pending_ ? 3 : -1; }
  void irq_begin(bool handled) override {
    pending_ = false;
    delivered.push_back(handled);
  }
  std::vector<std::tuple<uint32_t, uint32_t, int>> writes;
  std::vector<bool> delivered;

 private:
  int every_;
  int outs_ = 0;
  bool pending_ = false;
};

TEST(BytecodeVmCallProtocol, IrqHandlerCallsRunAboveAnInterruptedCall) {
  // The interrupt lands on a port write inside a nested call; the handler
  // makes calls of its own (struct and string returns, recursion) on the
  // frames above the interrupted ones, which must be intact when it
  // returns.
  const std::string src = R"(
struct box { cstring name; int tag; int val; };
int g_irqs;
int g_sum;

box mk_box(int v) {
  box b;
  b.name = "irq";
  b.tag = 4;
  b.val = v;
  return b;
}
int depth(int n) {
  if (n == 0) { return 0; }
  return depth(n - 1) + 1;
}
cstring label(int v) {
  if (v & 1) { return "odd"; }
  return "even";
}
void on_irq() {
  box b;
  g_irqs = g_irqs + 1;
  b = mk_box(g_irqs * 11);
  g_sum = g_sum + b.val + depth(g_irqs + 2) + mk_box(b.tag).val;
  printk(label(g_sum));
}
int work(int n, int x) {
  box b;
  int local;
  b = mk_box(x);
  local = n * 3;
  outb(n, 0x80);
  if (n > 0) {
    local = local + work(n - 1, x + b.val);
  }
  outb(local & 0xff, 0x81);
  return local + b.val + b.tag;
}
int f() {
  int acc;
  request_irq(3, "on_irq");
  acc = work(6, 1);
  acc = acc + work(3, acc & 15);
  return acc * 100 + g_irqs * 10 + g_sum;
}
)";
  auto prog = minic::compile("t.c", src);
  ASSERT_TRUE(prog.ok()) << prog.diags.render();
  for (int every : {1, 2, 3, 5}) {
    for (uint64_t budget : {1'000'000u, 300u}) {
      const std::string label = "irq every " + std::to_string(every) +
                                " budget " + std::to_string(budget);
      WriteIrqIo io_w(every), io_v(every);
      auto walker = minic::run_unit(*prog.unit, io_w, "f", budget,
                                    minic::ExecEngine::kTreeWalker);
      auto vm = minic::run_unit(*prog.unit, io_v, "f", budget,
                                minic::ExecEngine::kBytecodeVm);
      expect_same_outcome(walker, vm, label);
      EXPECT_EQ(io_w.writes, io_v.writes) << label;
      EXPECT_EQ(io_w.delivered, io_v.delivered) << label;
      if (budget == 1'000'000u) {
        EXPECT_EQ(vm.fault, minic::FaultKind::kNone) << vm.fault_message;
        EXPECT_FALSE(io_v.delivered.empty()) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Campaign-level byte identity: records, tallies and the rendered Tables
// 3/4 must be identical between engines, at 1 and 4 worker threads. The VM
// boots every mutant through the compiled-prefix cache (tail compile or
// patch); the walker oracle compiles every mutant as a whole unit.
// ---------------------------------------------------------------------------

void expect_identical_campaigns(const eval::DriverCampaignResult& a,
                                const eval::DriverCampaignResult& b,
                                const std::string& label) {
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
  EXPECT_EQ(eval::render_driver_table("T", a), eval::render_driver_table("T", b))
      << label;
}

/// Runs `cfg` on both engines at 1 and 4 threads; the counters prove which
/// front end each engine took.
void expect_engines_agree(eval::DriverCampaignConfig cfg,
                          const std::string& label) {
  for (unsigned threads : {1u, 4u}) {
    const std::string l = label + " threads=" + std::to_string(threads);
    cfg.threads = threads;
    cfg.engine = minic::ExecEngine::kBytecodeVm;
    auto vm = eval::run_driver_campaign(cfg);
    cfg.engine = minic::ExecEngine::kTreeWalker;
    auto walker = eval::run_driver_campaign(cfg);
    expect_identical_campaigns(walker, vm, l);
    EXPECT_GT(vm.prefix_cache_hits, 0u) << l;
    EXPECT_EQ(vm.prefix_cache_hits, vm.sample_size - vm.deduped_mutants)
        << l;
    EXPECT_EQ(walker.prefix_cache_hits, 0u) << l;
    EXPECT_EQ(walker.patch_hits + walker.patch_fallbacks, 0u) << l;
  }
}

TEST(CampaignEngines, CDriverByteIdenticalAcrossEnginesAndThreads) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 10;
  expect_engines_agree(cfg, "c");
}

TEST(CampaignEngines, CDevilByteIdenticalAcrossEnginesAndThreads) {
  auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kDebug);
  ASSERT_TRUE(spec.ok());
  eval::DriverCampaignConfig cfg;
  cfg.stubs = spec.stubs;
  cfg.driver = corpus::cdevil_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.is_cdevil = true;
  cfg.sample_percent = 10;
  expect_engines_agree(cfg, "cdevil");
}

// ---------------------------------------------------------------------------
// Mutant dedup is a label: every sampled mutant compiles and boots, and
// flag_duplicates marks each record whose canonical key an earlier record
// had. The label rests on one invariant, which the shard merge relies on
// too: key-equal mutants boot identically.
// ---------------------------------------------------------------------------

/// The C and CDevil campaigns of one corpus device, with the flight
/// recorder on so traces are compared too.
eval::DeviceCampaignConfigs recorded_configs(const corpus::CampaignDrivers& d,
                                             unsigned sample_percent = 0) {
  eval::CampaignSpec spec;
  spec.sample_percent = sample_percent;  // 0: the corpus sample
  spec.flight_recorder = true;
  spec.threads = 4;
  return eval::driver_configs_for(spec, d);
}

/// The invariant itself: each duplicate's own boot equals its
/// representative's (the first record with its key) in steps, detail and
/// trace, and in outcome too, except that a clean boot classifies against
/// each mutant's own site as Boot or Dead code.
void expect_duplicates_boot_like_representatives(
    const eval::DriverCampaignResult& r) {
  auto clean = [](eval::Outcome o) {
    return o == eval::Outcome::kBoot || o == eval::Outcome::kDeadCode;
  };
  std::map<eval::KeyHash, size_t> first;
  for (size_t i = 0; i < r.records.size(); ++i) {
    const eval::MutantRecord& rec = r.records[i];
    auto [it, inserted] = first.emplace(rec.key, i);
    EXPECT_EQ(rec.deduped, !inserted) << i;
    if (inserted) continue;
    const eval::MutantRecord& rep = r.records[it->second];
    EXPECT_EQ(rec.steps, rep.steps) << i;
    EXPECT_EQ(rec.detail, rep.detail) << i;
    EXPECT_EQ(rec.trace, rep.trace) << i;
    if (!clean(rec.outcome) || !clean(rep.outcome)) {
      EXPECT_EQ(rec.outcome, rep.outcome) << i;
    }
  }
}

/// Dedup on vs off: the same records except for the label. A duplicate's
/// boot telemetry is cleared, so the counters count one boot per key;
/// everything else matches field for field.
void expect_only_labels_differ(const eval::DriverCampaignResult& on,
                               const eval::DriverCampaignResult& off) {
  EXPECT_EQ(off.deduped_mutants, 0u);
  ASSERT_EQ(on.records.size(), off.records.size());
  for (size_t i = 0; i < on.records.size(); ++i) {
    const eval::MutantRecord& a = on.records[i];
    const eval::MutantRecord& b = off.records[i];
    EXPECT_EQ(a.mutant_index, b.mutant_index) << i;
    EXPECT_EQ(a.site, b.site) << i;
    EXPECT_EQ(a.outcome, b.outcome) << i;
    EXPECT_EQ(a.detail, b.detail) << i;
    EXPECT_EQ(a.steps, b.steps) << i;
    EXPECT_EQ(a.trace, b.trace) << i;
    EXPECT_FALSE(b.deduped) << i;
    EXPECT_EQ(b.key, eval::KeyHash{}) << i;  // no dedup, no key
    if (a.deduped) {
      EXPECT_FALSE(a.patched || a.patch_fallback || a.prefix_cache_hit) << i;
      EXPECT_EQ(a.skipped_steps, 0u) << i;
    } else {
      EXPECT_EQ(a.patched, b.patched) << i;
      EXPECT_EQ(a.patch_fallback, b.patch_fallback) << i;
      EXPECT_EQ(a.prefix_cache_hit, b.prefix_cache_hit) << i;
      EXPECT_EQ(a.skipped_steps, b.skipped_steps) << i;
    }
  }
  EXPECT_EQ(eval::render_driver_table("T", on),
            eval::render_driver_table("T", off));
}

TEST(CampaignDedup, OutcomesAndTalliesUnchanged) {
  size_t deduped = 0;
  for (const auto& d : corpus::campaign_drivers()) {
    eval::DeviceCampaignConfigs cfgs = recorded_configs(d);
    for (eval::DriverCampaignConfig cfg : {cfgs.c, cfgs.cdevil}) {
      SCOPED_TRACE(std::string(d.device) + (cfg.is_cdevil ? "/CDevil" : "/C"));
      cfg.dedup = true;
      auto on = eval::run_driver_campaign(cfg);
      cfg.dedup = false;
      auto off = eval::run_driver_campaign(cfg);
      expect_only_labels_differ(on, off);
      expect_duplicates_boot_like_representatives(on);
      deduped += on.deduped_mutants;
    }
  }
  // The C drivers' macro sets guarantee canonical duplicates (identifier
  // mutants that preserve the expanded value, e.g. IDE_STATUS vs
  // IDE_COMMAND both expanding to 0x1f7).
  EXPECT_GT(deduped, 0u);
}

TEST(CampaignDedup, PrefixWithoutStageOneCacheLexesItsOwnKeys) {
  // Stubs that call into the driver do not stand alone, so the campaign
  // gets no stage-1 cache and no patcher: every mutant compiles the whole
  // unit, and every key comes from a lex of its own. The stub shifts every
  // line by one, which keeps key equality, so the labels must match the
  // same driver's campaign without stubs, whose keys come from the fast
  // splice and the tail compile's lex.
  const corpus::CampaignDrivers& d = corpus::campaign_drivers()[1];
  ASSERT_STREQ(d.device, "busmouse");
  eval::DriverCampaignConfig cfg = recorded_configs(d, 25).c;
  const auto standalone = eval::run_driver_campaign(cfg);
  cfg.stubs = "int stub_probe() { return mouse_boot(); }";
  ASSERT_EQ(minic::prepare_prefix(cfg.unit_name, cfg.stubs + "\n").compiled,
            nullptr);
  const auto on = eval::run_driver_campaign(cfg);
  EXPECT_EQ(on.prefix_cache_hits, 0u);
  EXPECT_EQ(on.patch_hits + on.patch_fallbacks, 0u);
  EXPECT_GT(on.deduped_mutants, 0u);
  ASSERT_EQ(on.records.size(), standalone.records.size());
  for (size_t i = 0; i < on.records.size(); ++i) {
    EXPECT_EQ(on.records[i].mutant_index, standalone.records[i].mutant_index);
    EXPECT_EQ(on.records[i].deduped, standalone.records[i].deduped) << i;
  }
  cfg.dedup = false;
  expect_only_labels_differ(on, eval::run_driver_campaign(cfg));
  expect_duplicates_boot_like_representatives(on);
}

TEST(CampaignDedup, DedupIsThreadCountInvariant) {
  eval::DriverCampaignConfig cfg;
  cfg.driver = corpus::c_ide_driver();
  cfg.device = eval::ide_binding();
  cfg.sample_percent = 10;
  cfg.threads = 1;
  auto serial = eval::run_driver_campaign(cfg);
  cfg.threads = 4;
  auto parallel = eval::run_driver_campaign(cfg);
  expect_identical_campaigns(serial, parallel, "dedup thread invariance");
}

}  // namespace
