// hw/fault_injection: the injection shim's counter-triggered semantics per
// fault kind, and the device-reset-under-fault regression — a pooled device
// recycled after a fault-injected boot must be indistinguishable from a
// fresh one (bit-identical I/O trace on the next clean boot).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/drivers.h"
#include "eval/device_bindings.h"
#include "hw/device_pool.h"
#include "hw/fault_injection.h"
#include "hw/flight_recorder.h"
#include "hw/io_bus.h"
#include "minic/program.h"

namespace {

using hw::FaultInjector;
using hw::FaultKind;
using hw::FaultPlan;

/// Scripted device: fixed read value per offset, records every access, so
/// injector semantics are observable without a behavioural model.
class ScriptedDevice final : public hw::Device {
 public:
  std::string name() const override { return "scripted"; }
  uint32_t read(uint32_t offset, int width) override {
    (void)width;
    accesses.push_back({false, offset});
    return read_value;
  }
  void write(uint32_t offset, uint32_t value, int width) override {
    (void)width;
    accesses.push_back({true, offset});
    writes.push_back(value);
  }
  void reset() override { reset_count++; }

  uint32_t read_value = 0x5a;
  std::vector<std::pair<bool, uint32_t>> accesses;  // (is_write, offset)
  std::vector<uint32_t> writes;
  int reset_count = 0;
};

FaultPlan plan_for(uint32_t port, FaultKind kind, uint32_t after,
                   uint32_t mask = 0, uint32_t value = 0) {
  FaultPlan p;
  p.port = port;
  p.kind = kind;
  p.after = after;
  p.mask = mask;
  p.value = value;
  return p;
}

TEST(FaultInjector, StuckBitsPersistFromTriggerOnward) {
  auto dev = std::make_shared<ScriptedDevice>();
  FaultInjector shim(dev, 0x100,
                     plan_for(0x102, FaultKind::kStuckOne, 2, 0x80));
  // Reads 0 and 1 pass through; reads 2, 3, ... are stuck.
  EXPECT_EQ(shim.read(2, 8), 0x5au);
  EXPECT_EQ(shim.read(2, 8), 0x5au);
  EXPECT_EQ(shim.read(2, 8), 0xdau);
  EXPECT_EQ(shim.read(2, 8), 0xdau);
  EXPECT_EQ(shim.matched(), 4u);
  EXPECT_EQ(shim.fired(), 2u);

  FaultInjector zero(dev, 0x100,
                     plan_for(0x102, FaultKind::kStuckZero, 0, 0x1a));
  EXPECT_EQ(zero.read(2, 8), 0x40u);  // 0x5a & ~0x1a
  EXPECT_EQ(zero.fired(), 1u);
}

TEST(FaultInjector, FlipFiresExactlyOnce) {
  auto dev = std::make_shared<ScriptedDevice>();
  FaultInjector shim(dev, 0x100,
                     plan_for(0x100, FaultKind::kFlipOnce, 1, 0x01));
  EXPECT_EQ(shim.read(0, 8), 0x5au);  // before the trigger
  EXPECT_EQ(shim.read(0, 8), 0x5bu);  // exactly the trigger-th read flips
  EXPECT_EQ(shim.read(0, 8), 0x5au);  // later reads are healthy again
  EXPECT_EQ(shim.fired(), 1u);
}

TEST(FaultInjector, DropWriteLosesExactlyTheTriggeredWrite) {
  auto dev = std::make_shared<ScriptedDevice>();
  FaultInjector shim(dev, 0x100,
                     plan_for(0x101, FaultKind::kDropWrite, 1));
  shim.write(1, 0xaa, 8);  // write 0 forwards
  shim.write(1, 0xbb, 8);  // write 1 is lost on the bus
  shim.write(1, 0xcc, 8);  // write 2 forwards
  EXPECT_EQ(dev->writes, (std::vector<uint32_t>{0xaa, 0xcc}));
  EXPECT_EQ(shim.fired(), 1u);
  // Reads are unaffected by a write-side fault.
  EXPECT_EQ(shim.read(1, 8), 0x5au);
  EXPECT_EQ(shim.fired(), 1u);
}

TEST(FaultInjector, FloatingBusAndNeverReadyBypassTheDevice) {
  auto dev = std::make_shared<ScriptedDevice>();
  FaultInjector floating(dev, 0x100,
                         plan_for(0x100, FaultKind::kFloatingBus, 0));
  EXPECT_EQ(floating.read(0, 8), 0xffu);
  EXPECT_EQ(floating.read(0, 32), 0xffffffffu);
  FaultInjector wedged(dev, 0x100,
                       plan_for(0x100, FaultKind::kNeverReady, 0, 0, 0x180));
  EXPECT_EQ(wedged.read(0, 8), 0x80u);  // frozen value, width-masked
  // The unplugged/wedged device never saw any of those reads — no side
  // effects (index rotation, status countdowns) may leak through.
  EXPECT_TRUE(dev->accesses.empty());
}

TEST(FaultInjector, OtherPortsAndDirectionsPassThrough) {
  auto dev = std::make_shared<ScriptedDevice>();
  FaultInjector shim(dev, 0x100,
                     plan_for(0x101, FaultKind::kStuckOne, 0, 0xff));
  EXPECT_EQ(shim.read(0, 8), 0x5au);   // different port
  EXPECT_EQ(shim.read(2, 8), 0x5au);
  shim.write(1, 0x11, 8);              // write to a read-fault port
  EXPECT_EQ(dev->writes, (std::vector<uint32_t>{0x11}));
  EXPECT_EQ(shim.matched(), 0u);
  EXPECT_EQ(shim.fired(), 0u);
  EXPECT_EQ(shim.read(1, 8), 0xffu);   // the target port does fault
}

TEST(FaultInjector, ResetForwardsAndRearmsTheCounters) {
  auto dev = std::make_shared<ScriptedDevice>();
  FaultInjector shim(dev, 0x100,
                     plan_for(0x100, FaultKind::kFlipOnce, 0, 0x01));
  EXPECT_EQ(shim.read(0, 8), 0x5bu);
  EXPECT_EQ(shim.fired(), 1u);
  shim.reset();
  EXPECT_EQ(dev->reset_count, 1);
  EXPECT_EQ(shim.matched(), 0u);
  EXPECT_EQ(shim.fired(), 0u);
  EXPECT_EQ(shim.read(0, 8), 0x5bu);  // the re-armed fault fires again
}

TEST(FaultInjector, ForwardsIdentityAndDamage) {
  auto inner = std::make_shared<ScriptedDevice>();
  FaultInjector shim(inner, 0, plan_for(0, FaultKind::kStuckZero, 0, 1));
  EXPECT_EQ(shim.name(), "scripted");
  EXPECT_FALSE(shim.damaged());
  EXPECT_EQ(shim.inner().get(), inner.get());
}

// --- device reset under fault -------------------------------------------------
//
// The campaign recycles devices through hw::DevicePool between scenario
// boots. A fault-injected boot drives the device through abnormal paths
// (lost writes, stuck status bits, half-finished protocols); reset() must
// still restore exact power-on state — verified by comparing the full I/O
// trace of a clean boot on the recycled device against a fresh one.

struct TraceCase {
  const char* device;
  FaultPlan plan;
  uint64_t faulted_budget;
};

std::vector<hw::RecordedAccess> clean_boot_trace(
    const eval::DeviceBinding& binding, const minic::Program& prog,
    const std::shared_ptr<hw::Device>& dev) {
  hw::IoBus bus;
  auto recorder = std::make_shared<hw::FlightRecorder>(
      dev, binding.port_base, &bus, /*capacity=*/4096);
  bus.map(binding.port_base, binding.port_span, recorder);
  auto run = minic::run_unit(*prog.unit, bus, binding.entry, 3'000'000,
                             minic::ExecEngine::kBytecodeVm);
  EXPECT_EQ(run.fault, minic::FaultKind::kNone) << run.fault_message;
  return recorder->tail();
}

TEST(FaultInjector, PooledDeviceRecyclesCleanlyAfterFaultedBoots) {
  const std::vector<TraceCase> cases = {
      // Dropped control write: the busmouse C driver's setup write is lost.
      {"busmouse", plan_for(0x23e, FaultKind::kDropWrite, 0), 3'000'000},
      // Stuck signature bit: the driver panics mid-protocol.
      {"busmouse", plan_for(0x23d, FaultKind::kStuckOne, 0, 0x02), 3'000'000},
      // Dropped IDE command write: the boot wedges polling for data.
      {"ide", plan_for(0x1f7, FaultKind::kDropWrite, 0), 200'000},
      // BSY stuck high: the wait loop burns its budget (hang path).
      {"ide", plan_for(0x1f7, FaultKind::kStuckOne, 0, 0x80), 200'000},
  };
  for (const TraceCase& tc : cases) {
    SCOPED_TRACE(std::string(tc.device) + " under " + tc.plan.describe());
    eval::DeviceBinding binding = eval::binding_for(tc.device);
    const corpus::CampaignDrivers* drivers = nullptr;
    for (const auto& d : corpus::campaign_drivers()) {
      if (binding.device == d.device) drivers = &d;
    }
    ASSERT_NE(drivers, nullptr);
    minic::Program prog = minic::compile("driver.c", drivers->c_driver());
    ASSERT_TRUE(prog.ok()) << prog.diags.render();

    hw::DevicePool pool(binding.make_device);
    auto dev = pool.acquire();
    {
      // Fault-injected boot: outcome irrelevant, device state is the point.
      hw::IoBus bus;
      auto shim = std::make_shared<FaultInjector>(dev, binding.port_base,
                                                  tc.plan);
      bus.map(binding.port_base, binding.port_span, shim);
      auto run = minic::run_unit(*prog.unit, bus, binding.entry,
                                 tc.faulted_budget,
                                 minic::ExecEngine::kBytecodeVm);
      ASSERT_NE(run.fault, minic::FaultKind::kInternal) << run.fault_message;
      EXPECT_GT(shim->fired(), 0u) << "scenario never triggered";
      bus = hw::IoBus();
      shim.reset();
      pool.release(std::move(dev));
    }

    auto recycled = pool.acquire();  // the pool's single idle device, reset
    auto fresh = binding.make_device();
    auto recycled_trace = clean_boot_trace(binding, prog, recycled);
    auto fresh_trace = clean_boot_trace(binding, prog, fresh);
    ASSERT_EQ(recycled_trace.size(), fresh_trace.size());
    for (size_t i = 0; i < fresh_trace.size(); ++i) {
      EXPECT_EQ(recycled_trace[i].is_write, fresh_trace[i].is_write) << i;
      EXPECT_EQ(recycled_trace[i].port, fresh_trace[i].port) << i;
      EXPECT_EQ(recycled_trace[i].value, fresh_trace[i].value) << i;
      EXPECT_EQ(recycled_trace[i].width, fresh_trace[i].width) << i;
    }
  }
}

}  // namespace
