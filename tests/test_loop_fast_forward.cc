// The bytecode VM's loop fast-forward (minic/bytecode/vm.h). Four layers:
//  - the capture_state/advance_state contract per device model: capturing
//    one exact cycle and advancing k more equals stepping k more;
//  - VM ≡ walker budget sweeps around the detection threshold and the skip
//    boundary (the walker never skips, so it is the oracle);
//  - default-deny cases that must never skip;
//  - whole mutation and fault campaigns on every corpus device, recorder on
//    and off, record for record against the walker.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "eval/campaign_spec.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "hw/busmouse.h"
#include "hw/fault_injection.h"
#include "hw/flight_recorder.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/bytecode/vm.h"
#include "minic/program.h"

namespace {

using hw::FaultKind;
using minic::EnvState;
using minic::ExecEngine;

constexpr uint64_t kThreshold = minic::bytecode::Vm::kFastForwardAfter;

// ---------------------------------------------------------------------------
// Device contract: one captured cycle advanced k times == k stepped cycles.
// ---------------------------------------------------------------------------

/// One repetition of a polling loop's device traffic; returns the last value
/// read (0 when the cycle only writes), so the two copies can be compared.
using Cycle = std::function<uint32_t(hw::Device&)>;

EnvState capture(const hw::Device& dev) {
  EnvState s;
  EXPECT_TRUE(dev.capture_state(s)) << dev.name() << " declined";
  return s;
}

void expect_same_state(const EnvState& a, const EnvState& b,
                       const std::string& what) {
  EXPECT_EQ(a.key, b.key) << what;
  ASSERT_EQ(a.counters.size(), b.counters.size()) << what;
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].value, b.counters[i].value) << what << " #" << i;
  }
}

/// Per-cycle growth of each counter between two captures.
std::vector<uint64_t> deltas_between(const EnvState& before,
                                     const EnvState& after) {
  std::vector<uint64_t> deltas;
  for (size_t i = 0; i < after.counters.size(); ++i) {
    deltas.push_back(after.counters[i].value - before.counters[i].value);
  }
  return deltas;
}

/// Two copies run `warmup` cycles; one captures a cycle and advances `k`
/// more, the other steps them. Their states, and what the next cycles read,
/// must agree.
void expect_advance_matches_stepping(
    const std::function<std::shared_ptr<hw::Device>()>& make, int warmup,
    const Cycle& cycle, uint64_t k, const std::string& what) {
  auto skipped = make();
  auto stepped = make();
  for (int i = 0; i < warmup; ++i) {
    cycle(*skipped);
    cycle(*stepped);
  }
  const EnvState before = capture(*skipped);
  cycle(*skipped);
  cycle(*stepped);
  const EnvState after = capture(*skipped);
  ASSERT_EQ(before.key, after.key) << what << ": not an exact cycle";
  const std::vector<uint64_t> deltas = deltas_between(before, after);
  const uint64_t* cursor = deltas.data();
  skipped->advance_state(k, cursor);
  EXPECT_EQ(cursor, deltas.data() + deltas.size())
      << what << ": advance_state must consume exactly its counters";
  for (uint64_t i = 0; i < k; ++i) cycle(*stepped);

  expect_same_state(capture(*skipped), capture(*stepped), what);
  EXPECT_EQ(skipped->damaged(), stepped->damaged()) << what;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cycle(*skipped), cycle(*stepped)) << what << " cycle " << i;
  }
}

std::shared_ptr<hw::Device> ide() { return std::make_shared<hw::IdeDisk>(); }

TEST(LoopStateContract, IdeBsyPollUnderStuckStatus) {
  hw::FaultPlan plan;
  plan.port = 0x1f7;
  plan.kind = FaultKind::kStuckOne;
  plan.mask = 0x80;
  auto make = [&] {
    return std::make_shared<hw::FaultInjector>(ide(), 0x1f0, plan);
  };
  auto poll = [](hw::Device& d) { return d.read(7, 8); };
  expect_advance_matches_stepping(make, 1, poll, 1000, "stuck BSY poll");
}

TEST(LoopStateContract, IdeViolationsSaturateInTheKeyAndAdvanceExactly) {
  // Data-port reads outside a data phase are protocol violations: the
  // count keys only up to 9 (damaged() asks > 8) and advances as a counter.
  auto poll = [](hw::Device& d) {
    d.read(7, 8);
    return d.read(0, 16);
  };
  expect_advance_matches_stepping(ide, 9, poll, 12345, "data-port poll");
  auto disk = std::make_shared<hw::IdeDisk>();
  EnvState s0 = capture(*disk);
  poll(*disk);
  EXPECT_NE(capture(*disk).key, s0.key)
      << "below the saturation point every violation changes the key";
}

TEST(LoopStateContract, IdeBufferLoadsChangeTheKey) {
  // A loop re-issuing READ SECTORS reloads the PIO buffer: never a repeat,
  // since the content counter stands in for the buffer and the image.
  auto disk = std::make_shared<hw::IdeDisk>();
  EnvState s0 = capture(*disk);
  disk->write(7, 0x20, 8);
  disk->read(7, 8);
  disk->read(7, 8);
  disk->read(7, 8);
  disk->read(7, 8);
  EXPECT_NE(capture(*disk).key, s0.key);
}

TEST(LoopStateContract, BusmouseDataPollThroughGarbageRotation) {
  // The garbage rotor has period 8 over DATA reads; a write-only register
  // read is a violation (a pure counter).
  auto make = [] { return std::make_shared<hw::Busmouse>(); };
  auto poll = [](hw::Device& d) {
    uint32_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 1) ^ d.read(0, 8);
    d.read(2, 8);
    return v;
  };
  expect_advance_matches_stepping(make, 1, poll, 777, "busmouse DATA poll");
  auto mouse = std::make_shared<hw::Busmouse>();
  mouse->read(0, 8);
  EnvState s0 = capture(*mouse);
  mouse->read(0, 8);
  EXPECT_NE(capture(*mouse).key, s0.key) << "one read is not a full rotation";
}

/// Counts raises a device delivers (no queue, so capture is not involved).
struct CountingSink final : hw::IrqSink {
  void raise_irq(int, uint64_t, bool) override { ++raises; }
  uint64_t raises = 0;
};

struct KindCase {
  FaultKind kind;
  uint32_t port;  // plan.port: a register, or the IRQ line for event kinds
  Cycle cycle;
};

TEST(LoopStateContract, FaultInjectorEveryKindOnBothSidesOfItsTrigger) {
  auto read_status = [](hw::Device& d) { return d.read(7, 8); };
  auto write_select = [](hw::Device& d) {
    d.write(6, 0xa0, 8);
    return 0u;
  };
  auto send_command = [](hw::Device& d) {
    d.write(7, 0x91, 8);  // INITIALIZE DEVICE PARAMETERS: raises INTRQ
    return d.read(7, 8);
  };
  const std::vector<KindCase> cases = {
      {FaultKind::kStuckZero, 0x1f7, read_status},
      {FaultKind::kStuckOne, 0x1f7, read_status},
      {FaultKind::kFlipOnce, 0x1f7, read_status},
      {FaultKind::kDropWrite, 0x1f6, write_select},
      {FaultKind::kFloatingBus, 0x1f7, read_status},
      {FaultKind::kNeverReady, 0x1f7, read_status},
      {FaultKind::kLostIrq, 6, send_command},
      {FaultKind::kSpuriousIrq, 6, read_status},
      {FaultKind::kIrqStorm, 6, send_command},
      {FaultKind::kDelayIrq, 6, send_command},
  };
  for (const KindCase& kc : cases) {
    hw::FaultPlan plan;
    plan.port = kc.port;
    plan.kind = kc.kind;
    plan.after = 2;
    plan.mask = 0x40;
    plan.value = kc.kind == FaultKind::kIrqStorm ? 8 : 1000;
    const std::string what = plan.describe();
    std::vector<std::unique_ptr<CountingSink>> sinks;
    auto make = [&] {
      auto shim = std::make_shared<hw::FaultInjector>(ide(), 0x1f0, plan);
      sinks.push_back(std::make_unique<CountingSink>());
      shim->attach_irq(sinks.back().get(), 6);
      return shim;
    };
    // Up to and including the trigger, every cycle moves the trigger
    // counter inside the key: no two captures match.
    auto fresh = make();
    for (uint32_t i = 0; i <= plan.after; ++i) {
      EnvState s0 = capture(*fresh);
      kc.cycle(*fresh);
      EXPECT_NE(capture(*fresh).key, s0.key) << what << " cycle " << i;
    }
    // Past it, every cycle is alike and the counters advance exactly.
    expect_advance_matches_stepping(make, static_cast<int>(plan.after) + 1,
                                    kc.cycle, 5000, what);
  }
}

TEST(LoopStateContract, RecorderRingAfterRefill) {
  // Steps are stamped through the bus's probe; the skipped copy's probe
  // jumps by k cycles exactly as the VM's budget counter does.
  constexpr uint64_t kBudget = 1'000'000;
  constexpr uint64_t kStepsPerCycle = 7;
  // Capacity 64 is not yet full when the skip lands after one warm-up
  // cycle: the ring must still come out as if every event had been
  // recorded. (The first access flips the busmouse's dirty bit, so the
  // warm-up is what makes the cycles exact.)
  for (size_t capacity : {size_t{4}, size_t{64}}) {
    for (int warmup : {1, 20}) {
      hw::IoBus bus_a, bus_b;
      uint64_t left_a = kBudget, left_b = kBudget;
      bus_a.bind_step_probe(&left_a, kBudget);
      bus_b.bind_step_probe(&left_b, kBudget);
      hw::FlightRecorder a(std::make_shared<hw::Busmouse>(), 0x23c, &bus_a,
                           capacity);
      hw::FlightRecorder b(std::make_shared<hw::Busmouse>(), 0x23c, &bus_b,
                           capacity);
      // One cycle: three accesses, a whole garbage rotation every 8 cycles.
      auto cycle = [](hw::FlightRecorder& r, uint64_t& left) {
        r.write(2, 0x80, 8);
        r.read(0, 8);
        r.read(1, 8);
        left -= kStepsPerCycle;
      };
      for (int i = 0; i < warmup; ++i) {
        cycle(a, left_a);
        cycle(b, left_b);
      }
      EnvState before;
      ASSERT_TRUE(a.capture_state(before));
      for (int i = 0; i < 8; ++i) {
        cycle(a, left_a);
        cycle(b, left_b);
      }
      EnvState after;
      ASSERT_TRUE(a.capture_state(after));
      ASSERT_EQ(before.key, after.key);
      const std::vector<uint64_t> deltas = deltas_between(before, after);
      ASSERT_EQ(after.counters[0].refill, capacity);
      const uint64_t k = 1000;  // in units of the 8-cycle period
      const uint64_t* cursor = deltas.data();
      a.advance_state(k, cursor);
      left_a -= k * 8 * kStepsPerCycle;
      for (uint64_t i = 0; i < k * 8; ++i) cycle(b, left_b);
      // The refill the recorder asks for: ceil(capacity / events per period).
      const uint64_t refill = (capacity + deltas[0] - 1) / deltas[0];
      for (uint64_t i = 0; i < refill * 8; ++i) {
        cycle(a, left_a);
        cycle(b, left_b);
      }
      EXPECT_EQ(a.total_accesses(), b.total_accesses());
      EXPECT_EQ(a.render_tail(), b.render_tail())
          << "capacity " << capacity << ", warmup " << warmup;
    }
  }
}

TEST(LoopStateContract, BusIrqCountersAndQueuedEvents) {
  auto make_bus = [](hw::IoBus& bus) {
    bus.map(0x23c, 4, std::make_shared<hw::Busmouse>());
  };
  // One cycle raises line 3 twice: the first delivered, the second dropped.
  auto cycle = [](hw::IoBus& bus) {
    bus.raise_irq(3, 0, true);
    bus.raise_irq(3, 0, false);
    ASSERT_EQ(bus.irq_pending(), 3);
    bus.irq_begin(true);
    bus.irq_end();
    ASSERT_EQ(bus.irq_pending(), 3);
    bus.irq_begin(false);
    bus.io_in(0x9999, 8);  // unmapped: a bus-level counter
  };
  hw::IoBus a, b;
  make_bus(a);
  make_bus(b);
  cycle(a);
  cycle(b);
  EnvState before, after;
  ASSERT_TRUE(a.capture_state(before));
  cycle(a);
  cycle(b);
  ASSERT_TRUE(a.capture_state(after));
  ASSERT_EQ(before.key, after.key);
  const std::vector<uint64_t> deltas = deltas_between(before, after);
  const uint64_t* cursor = deltas.data();
  a.advance_state(40, cursor);
  EXPECT_EQ(cursor, deltas.data() + deltas.size());
  for (int i = 0; i < 40; ++i) cycle(b);
  EXPECT_EQ(a.irq_controller().raised(), b.irq_controller().raised());
  EXPECT_EQ(a.irq_controller().delivered(), b.irq_controller().delivered());
  EXPECT_EQ(a.irq_controller().dropped(), b.irq_controller().dropped());
  EXPECT_EQ(a.unmapped_accesses(), b.unmapped_accesses());
  EXPECT_EQ(a.irq_controller().raised(), 84u);

  // A queued event's due step is absolute: no capture while one waits.
  a.raise_irq(3, 1000, true);
  EnvState queued;
  EXPECT_FALSE(a.capture_state(queued));
}

// ---------------------------------------------------------------------------
// VM ≡ walker around the threshold and the skip boundary.
// ---------------------------------------------------------------------------

/// Builds one boot's bus; returns the recorder whose trace is compared (or
/// null).
using BusSetup =
    std::function<std::shared_ptr<hw::FlightRecorder>(hw::IoBus&)>;

struct Boot {
  minic::RunOutcome run;
  std::string trace;
  uint64_t fired = 0;  // of a fault injector inside the recorder
};

Boot boot(const minic::Program& prog, ExecEngine engine, uint64_t budget,
          const BusSetup& setup) {
  hw::IoBus bus;
  auto rec = setup(bus);
  Boot b;
  b.run = minic::run_unit(*prog.unit, bus, "boot", budget, engine);
  if (rec) {
    b.trace = rec->render_tail();
    if (auto shim = std::dynamic_pointer_cast<hw::FaultInjector>(rec->inner())) {
      b.fired = shim->fired();
    }
  }
  return b;
}

void expect_same_boot(const Boot& vm, const Boot& walker,
                      const std::string& what) {
  EXPECT_EQ(vm.run.fault, walker.run.fault) << what;
  EXPECT_EQ(vm.run.fault_message, walker.run.fault_message) << what;
  EXPECT_EQ(vm.run.steps_used, walker.run.steps_used) << what;
  EXPECT_EQ(vm.run.return_value, walker.run.return_value) << what;
  EXPECT_EQ(vm.run.executed_lines, walker.run.executed_lines) << what;
  EXPECT_EQ(vm.run.log, walker.run.log) << what;
  EXPECT_EQ(vm.trace, walker.trace) << what;
  EXPECT_EQ(vm.fired, walker.fired) << what;
  EXPECT_EQ(walker.run.skipped_steps, 0u) << "the walker never skips";
}

minic::Program compile_ok(const std::string& src) {
  minic::Program prog = minic::compile("t.c", src);
  EXPECT_TRUE(prog.ok()) << prog.diags.render();
  return prog;
}

/// IDE disk whose BSY sticks at 1 from the second status read on (the
/// first one sees the real command's BSY), recorder outermost.
std::shared_ptr<hw::FlightRecorder> stuck_bsy_ide(hw::IoBus& bus) {
  hw::FaultPlan plan;
  plan.port = 0x1f7;
  plan.kind = FaultKind::kStuckOne;
  plan.mask = 0x80;
  plan.after = 1;
  auto shim = std::make_shared<hw::FaultInjector>(ide(), 0x1f0, plan);
  auto rec = std::make_shared<hw::FlightRecorder>(shim, 0x1f0, &bus);
  bus.map(0x1f0, 8, rec);
  return rec;
}

const char* const kPollSource =
    "int poll() {\n"
    "  while ((inb(0x1f7) & 0x80) != 0) {\n"
    "    udelay(3);\n"
    "  }\n"
    "  return 1;\n"
    "}\n"
    "int boot() {\n"
    "  printk(\"probe\");\n"
    "  outb(0xec, 0x1f7);\n"
    "  return poll();\n"
    "}\n";

TEST(LoopFastForward, PortPollWithUdelayMatchesWalkerAcrossBudgets) {
  minic::Program prog = compile_ok(kPollSource);
  size_t skipped_boots = 0, stepped_past_threshold = 0;
  // Dense around the threshold, then a stride coprime to the cycle length
  // (every partial-cycle offset comes up) across the skip boundary.
  std::vector<uint64_t> budgets;
  for (uint64_t b = kThreshold - 20; b < kThreshold + 20; ++b) {
    budgets.push_back(b);
  }
  for (uint64_t b = kThreshold + 20; b < kThreshold + 700; b += 7) {
    budgets.push_back(b);
  }
  for (uint64_t b = 3'000'000; b < 3'000'016; ++b) budgets.push_back(b);
  for (uint64_t budget : budgets) {
    const std::string what = "budget " + std::to_string(budget);
    Boot vm = boot(prog, ExecEngine::kBytecodeVm, budget, stuck_bsy_ide);
    Boot walker = boot(prog, ExecEngine::kTreeWalker, budget, stuck_bsy_ide);
    expect_same_boot(vm, walker, what);
    EXPECT_EQ(vm.run.fault, minic::FaultKind::kStepLimit) << what;
    if (budget < kThreshold) {
      EXPECT_EQ(vm.run.skipped_steps, 0u) << what;
    } else if (vm.run.skipped_steps == 0) {
      ++stepped_past_threshold;
    } else {
      ++skipped_boots;
    }
  }
  // Both sides of the skip boundary were exercised: budgets that leave too
  // little for the recorder's refill step on, the rest skip.
  EXPECT_GT(stepped_past_threshold, 0u);
  EXPECT_GT(skipped_boots, 0u);
}

TEST(LoopFastForward, EmptyLoopMatchesWalkerUnderFiniteBudgets) {
  minic::Program prog = compile_ok("int boot() { while (1) { } return 0; }");
  auto bare = [](hw::IoBus&) {
    return std::shared_ptr<hw::FlightRecorder>();
  };
  for (uint64_t budget : {uint64_t{5000}, kThreshold, kThreshold + 1,
                          kThreshold + 7, uint64_t{3'000'000},
                          uint64_t{3'000'001}, uint64_t{5'000'003}}) {
    const std::string what = "budget " + std::to_string(budget);
    Boot vm = boot(prog, ExecEngine::kBytecodeVm, budget, bare);
    Boot walker = boot(prog, ExecEngine::kTreeWalker, budget, bare);
    expect_same_boot(vm, walker, what);
    EXPECT_EQ(vm.run.steps_used, budget) << what;
    if (budget >= 3'000'000) {
      EXPECT_GT(vm.run.skipped_steps, budget / 2) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Default deny: these loops must never skip (and still match the walker).
// ---------------------------------------------------------------------------

/// A device without the state hooks: reads show BSY forever.
class OpaqueDevice final : public hw::Device {
 public:
  [[nodiscard]] std::string name() const override { return "opaque"; }
  uint32_t read(uint32_t, int) override { return 0x80; }
  void write(uint32_t, uint32_t, int) override {}
  void reset() override {}
};

/// Implements the hooks, but its counter would wrap under a long skip: it
/// starts 20,000 reads short of 2^64, fewer than a skip over the remaining
/// budgets below would add, more than the reads before the threshold.
class NearWrapDevice final : public hw::Device {
 public:
  [[nodiscard]] std::string name() const override { return "near-wrap"; }
  uint32_t read(uint32_t, int) override {
    ++reads_;
    return 0x80;
  }
  void write(uint32_t, uint32_t, int) override {}
  void reset() override {}
  [[nodiscard]] bool capture_state(EnvState& out) const override {
    out.counters.push_back({reads_, 0});
    return true;
  }
  void advance_state(uint64_t cycles, const uint64_t*& deltas) override {
    minic::advance_counter(reads_, cycles, deltas);
  }

 private:
  uint64_t reads_ = std::numeric_limits<uint64_t>::max() - 20'000;
};

void expect_never_skips(const std::string& src, const BusSetup& setup,
                        const std::string& what,
                        std::vector<uint64_t> budgets = {200'000,
                                                         1'000'003}) {
  minic::Program prog = compile_ok(src);
  for (uint64_t budget : budgets) {
    Boot vm = boot(prog, ExecEngine::kBytecodeVm, budget, setup);
    Boot walker = boot(prog, ExecEngine::kTreeWalker, budget, setup);
    expect_same_boot(vm, walker, what);
    EXPECT_EQ(vm.run.fault, minic::FaultKind::kStepLimit) << what;
    EXPECT_EQ(vm.run.skipped_steps, 0u) << what;
  }
}

TEST(LoopFastForwardDenies, DeviceWithoutTheHook) {
  expect_never_skips(
      kPollSource,
      [](hw::IoBus& bus) {
        bus.map(0x1f0, 8, std::make_shared<OpaqueDevice>());
        return std::shared_ptr<hw::FlightRecorder>();
      },
      "opaque device");
}

TEST(LoopFastForwardDenies, CounterThatWouldWrap) {
  expect_never_skips(
      kPollSource,
      [](hw::IoBus& bus) {
        bus.map(0x1f0, 8, std::make_shared<NearWrapDevice>());
        return std::shared_ptr<hw::FlightRecorder>();
      },
      "near-wrap counter", {1'000'003, 3'000'000});
}

TEST(LoopFastForwardDenies, QueuedIrqEvents) {
  // A raise due far past the budget sits in the queue the whole boot.
  expect_never_skips(
      "int boot() { while (1) { } return 0; }",
      [](hw::IoBus& bus) {
        bus.raise_irq(3, uint64_t{1} << 40, true);
        return std::shared_ptr<hw::FlightRecorder>();
      },
      "queued event");
}

TEST(LoopFastForwardDenies, LoopInsideAnIrqHandler) {
  expect_never_skips(
      "void spin() { while (1) { } }\n"
      "int boot() { request_irq(3, \"spin\"); udelay(1); return 1; }\n",
      [](hw::IoBus& bus) {
        bus.raise_irq(3, 0, true);
        return std::shared_ptr<hw::FlightRecorder>();
      },
      "handler loop");
}

TEST(LoopFastForwardDenies, CounterLoop) {
  expect_never_skips(
      "int boot() { int i = 0; while (1) { i = i + 1; } return i; }",
      [](hw::IoBus&) {
        return std::shared_ptr<hw::FlightRecorder>();
      },
      "counter loop");
}

// ---------------------------------------------------------------------------
// Whole campaigns, record for record against the walker.
// ---------------------------------------------------------------------------

struct CampaignCase {
  const char* device;
  bool fault;
};

// A stable parameter name for test listings (the default prints the
// pointer's bytes).
void PrintTo(const CampaignCase& c, std::ostream* os) {
  *os << c.device << (c.fault ? " fault" : " mutation");
}

std::string case_name(const ::testing::TestParamInfo<CampaignCase>& info) {
  std::string name = std::string(info.param.device) +
                     (info.param.fault ? "_fault" : "_mutation");
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

const corpus::CampaignDrivers& drivers_for(const std::string& device) {
  for (const auto* list :
       {&corpus::campaign_drivers(), &corpus::irq_campaign_drivers()}) {
    for (const auto& d : *list) {
      if (device == d.device) return d;
    }
  }
  throw std::logic_error("no corpus for " + device);
}

class CampaignFastForward : public ::testing::TestWithParam<CampaignCase> {};

TEST_P(CampaignFastForward, RecordsMatchTheWalker) {
  const CampaignCase& cc = GetParam();
  const corpus::CampaignDrivers& drivers = drivers_for(cc.device);
  for (bool recorder : {false, true}) {
    // A 400k-step budget is still far past the threshold, and keeps the
    // walker's stepping of every loop affordable (the CI shard-determinism
    // job compares artifacts at the default budget).
    eval::CampaignSpec spec;
    spec.threads = 4;
    spec.step_budget = 400'000;
    spec.flight_recorder = recorder;
    eval::CampaignSpec walker_spec = spec;
    walker_spec.engine = ExecEngine::kTreeWalker;
    const std::string what = std::string(cc.device) +
                             (recorder ? " recorder on" : " recorder off");
    size_t fast_forwards = 0;
    if (cc.fault) {
      auto vm = eval::fault_configs_for(spec, drivers);
      auto wk = eval::fault_configs_for(walker_spec, drivers);
      for (auto [v, w] : {std::pair{&vm.c, &wk.c},
                          std::pair{&vm.cdevil, &wk.cdevil}}) {
        auto a = eval::run_fault_campaign(*v);
        auto b = eval::run_fault_campaign(*w);
        ASSERT_EQ(a.records.size(), b.records.size()) << what;
        for (size_t i = 0; i < a.records.size(); ++i) {
          const auto& x = a.records[i];
          const auto& y = b.records[i];
          EXPECT_EQ(x.outcome, y.outcome) << what << " scenario " << i;
          EXPECT_EQ(x.detail, y.detail) << what << " scenario " << i;
          EXPECT_EQ(x.steps, y.steps) << what << " scenario " << i;
          EXPECT_EQ(x.triggered, y.triggered) << what << " scenario " << i;
          EXPECT_EQ(x.trace, y.trace) << what << " scenario " << i;
        }
        EXPECT_EQ(b.fast_forwards, 0u);
        fast_forwards += a.fast_forwards;
        if (a.tally.scenarios_of(eval::FaultOutcome::kHang) != 0) {
          EXPECT_GT(a.fast_forwards, 0u) << what << ": Hang records stepped";
        }
      }
    } else {
      auto vm = eval::driver_configs_for(spec, drivers);
      auto wk = eval::driver_configs_for(walker_spec, drivers);
      for (auto [v, w] : {std::pair{&vm.c, &wk.c},
                          std::pair{&vm.cdevil, &wk.cdevil}}) {
        auto a = eval::run_driver_campaign(*v);
        auto b = eval::run_driver_campaign(*w);
        ASSERT_EQ(a.records.size(), b.records.size()) << what;
        for (size_t i = 0; i < a.records.size(); ++i) {
          const auto& x = a.records[i];
          const auto& y = b.records[i];
          EXPECT_EQ(x.outcome, y.outcome) << what << " record " << i;
          EXPECT_EQ(x.detail, y.detail) << what << " record " << i;
          EXPECT_EQ(x.steps, y.steps) << what << " record " << i;
          EXPECT_EQ(x.trace, y.trace) << what << " record " << i;
        }
        EXPECT_EQ(b.fast_forwards, 0u);
        fast_forwards += a.fast_forwards;
      }
    }
    if (std::string(cc.device) == "ide") {
      EXPECT_GT(fast_forwards, 0u) << what << ": IDE loops must skip";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, CampaignFastForward,
    ::testing::Values(CampaignCase{"ide", false}, CampaignCase{"ide", true},
                      CampaignCase{"busmouse", false},
                      CampaignCase{"busmouse", true},
                      CampaignCase{"ide-irq", false},
                      CampaignCase{"ide-irq", true},
                      CampaignCase{"busmouse-irq", false},
                      CampaignCase{"busmouse-irq", true}),
    case_name);

}  // namespace
