// Handout audit of the generic hw::DevicePool, the reset-based recycling
// behind every driver campaign's per-mutant device state.
//
// The campaign kernel shares one pool across all worker threads
// (PreparedCampaign's mutable device_pool), so the contract under test is:
//  - a device is held by exactly one owner at a time (no double handouts);
//  - an acquired device is always in power-on state (the releasing
//    thread's writes are ordered before the acquiring thread's reset);
//  - a device the caller still shares (e.g. a forgotten IoBus mapping)
//    never re-enters the pool.
// The concurrency test is the ASan/TSan-style repro for the cross-thread
// audit: it runs under the sanitizer CI job, where any unsynchronized
// acquire/release or reset-vs-write race is a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "hw/busmouse.h"
#include "hw/device_pool.h"
#include "hw/ide_disk.h"

namespace {

/// Minimal device whose one register makes dirty handouts visible.
class ProbeDevice final : public hw::Device {
 public:
  [[nodiscard]] std::string name() const override { return "probe"; }
  uint32_t read(uint32_t, int) override { return value_; }
  void write(uint32_t, uint32_t value, int) override { value_ = value; }
  void reset() override {
    ++resets;
    value_ = 0;
  }
  int resets = 0;

 private:
  uint32_t value_ = 0;
};

TEST(DevicePool, ThrowsWithoutFactory) {
  hw::DevicePool pool;
  EXPECT_THROW((void)pool.acquire(), std::logic_error);
  pool.set_factory([] { return std::make_shared<ProbeDevice>(); });
  EXPECT_NE(pool.acquire(), nullptr);
}

TEST(DevicePool, RecyclesThroughResetNotReconstruction) {
  hw::DevicePool pool([] { return std::make_shared<ProbeDevice>(); });
  auto a = pool.acquire();
  a->write(0, 42, 8);
  hw::Device* raw = a.get();
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle(), 1u);
  auto b = pool.acquire();
  EXPECT_EQ(b.get(), raw);        // same instance came back
  EXPECT_EQ(b->read(0, 8), 0u);   // reset() restored power-on state
  EXPECT_EQ(static_cast<ProbeDevice*>(b.get())->resets, 1);
}

TEST(DevicePool, SetFactoryDropsDevicesOfThePreviousType) {
  hw::DevicePool pool([] { return std::make_shared<ProbeDevice>(); });
  pool.release(pool.acquire());
  ASSERT_EQ(pool.idle(), 1u);
  pool.set_factory([] { return std::make_shared<hw::Busmouse>(); });
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_EQ(pool.acquire()->name(), "busmouse");
}

#ifdef NDEBUG
TEST(DevicePool, StillMappedDevicesNeverReenterThePool) {
  // A device the bus still references must not be recycled: a later
  // acquire() would hand the same device to a concurrent boot. Debug
  // builds assert on this misuse; release builds drop the device.
  hw::DevicePool pool([] { return std::make_shared<ProbeDevice>(); });
  auto a = pool.acquire();
  auto mapped = a;  // simulates an IoBus mapping that was not dropped
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle(), 0u);
}
#endif

TEST(DevicePool, ConcurrentHandoutIsExclusiveAndClean) {
  hw::DevicePool pool([] { return std::make_shared<ProbeDevice>(); });
  std::mutex mu;
  std::set<hw::Device*> in_use;
  std::atomic<int> double_handouts{0};
  std::atomic<int> dirty_handouts{0};
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto dev = pool.acquire();
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!in_use.insert(dev.get()).second) ++double_handouts;
        }
        if (dev->read(0, 8) != 0) ++dirty_handouts;
        dev->write(0, static_cast<uint32_t>(t * kIters + i + 1), 8);
        {
          std::lock_guard<std::mutex> lock(mu);
          in_use.erase(dev.get());
        }
        pool.release(std::move(dev));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(double_handouts.load(), 0);
  EXPECT_EQ(dirty_handouts.load(), 0);
  // Never more devices parked than could ever be out at once.
  EXPECT_LE(pool.idle(), static_cast<size_t>(kThreads));
}

TEST(DevicePool, TypedIdeDiskWrapperKeepsDirtyTrackingSemantics) {
  // An IdeDisk recycled through the generic pool comes back with its
  // registers wiped and no damage.
  hw::DevicePool pool([] { return std::make_shared<hw::IdeDisk>(); });
  auto disk = pool.acquire();
  disk->write(6, 0x10, 8);  // select the (absent) slave drive
  EXPECT_EQ(disk->read(6, 8), 0xb0u);
  pool.release(std::move(disk));
  auto recycled = pool.acquire();
  EXPECT_EQ(recycled->read(6, 8), 0xa0u);  // register wipe restored SELECT
  EXPECT_FALSE(recycled->damaged());
  pool.release(std::move(recycled));
  EXPECT_EQ(pool.idle(), 1u);
}

}  // namespace
