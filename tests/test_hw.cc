// Tests for the hardware simulator: bus routing and the behavioural device
// models (the substitution for the paper's physical testbed).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/busmouse.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "hw/misc_devices.h"

namespace {

using hw::IdeDisk;

// ---- IoBus -------------------------------------------------------------------

TEST(IoBus, RoutesToMappedDevice) {
  hw::IoBus bus;
  auto mouse = std::make_shared<hw::Busmouse>();
  bus.map(0x23c, 4, mouse);
  EXPECT_EQ(bus.io_in(0x23d, 8), 0xa5u);  // signature register
}

TEST(IoBus, UnmappedReadsFloatHigh) {
  hw::IoBus bus;
  EXPECT_EQ(bus.io_in(0x9999, 8), 0xffu);
  EXPECT_EQ(bus.io_in(0x9999, 16), 0xffffu);
  EXPECT_EQ(bus.io_in(0x9999, 32), 0xffffffffu);
  EXPECT_EQ(bus.unmapped_accesses(), 3u);
}

TEST(IoBus, UnmappedWritesIgnored) {
  hw::IoBus bus;
  bus.io_out(0x9999, 0xab, 8);  // must not throw — x86 semantics
  EXPECT_EQ(bus.unmapped_accesses(), 1u);
}

TEST(IoBus, PortSpaceWrapsAt16Bits) {
  hw::IoBus bus;
  auto mouse = std::make_shared<hw::Busmouse>();
  bus.map(0x23c, 4, mouse);
  EXPECT_EQ(bus.io_in(0x1023d, 8), 0xa5u);  // 0x1023d & 0xffff == 0x23d
}

TEST(IoBus, OverlappingMappingRejected) {
  hw::IoBus bus;
  bus.map(0x100, 8, std::make_shared<hw::Busmouse>());
  EXPECT_THROW(bus.map(0x104, 8, std::make_shared<hw::Busmouse>()),
               std::invalid_argument);
}

TEST(IoBus, ResetClearsDevices) {
  hw::IoBus bus;
  auto mouse = std::make_shared<hw::Busmouse>();
  bus.map(0x23c, 4, mouse);
  bus.io_out(0x23e, 0xe0, 8);
  bus.io_in(0x9999, 8);
  EXPECT_EQ(mouse->index(), 3);
  bus.reset();
  EXPECT_EQ(mouse->index(), 0);
  EXPECT_EQ(bus.unmapped_accesses(), 0u);
}

// ---- IdeDisk -----------------------------------------------------------------

class IdeTest : public ::testing::Test {
 protected:
  IdeDisk disk;

  uint32_t status() { return disk.read(7, 8); }
  void wait_ready() {
    for (int i = 0; i < 16 && (status() & IdeDisk::kBusy); ++i) {
    }
  }
  void wait_drq() {
    for (int i = 0; i < 16 && !(status() & IdeDisk::kDrq); ++i) {
    }
  }
};

TEST_F(IdeTest, IdleStatusIsReadySeek) {
  EXPECT_EQ(status(), IdeDisk::kReady | IdeDisk::kSeek);
}

TEST_F(IdeTest, CommandHoldsBusyThenDrq) {
  disk.write(7, 0xec, 8);  // IDENTIFY
  EXPECT_EQ(status(), IdeDisk::kBusy);
  EXPECT_EQ(status(), IdeDisk::kBusy);
  // DRQ comes up only after the setup delay.
  EXPECT_FALSE(status() & IdeDisk::kDrq);
  wait_drq();
  EXPECT_TRUE(status() & IdeDisk::kDrq);
}

TEST_F(IdeTest, IdentifyReturnsGeometryAndCapacity) {
  disk.write(7, 0xec, 8);
  wait_ready();
  wait_drq();
  std::vector<uint16_t> words;
  for (int i = 0; i < 256; ++i) words.push_back(disk.read(0, 16));
  EXPECT_EQ(words[0], 0x0040);
  uint32_t capacity = words[60] | (words[61] << 16);
  EXPECT_EQ(capacity, 1024u);
  // After the last word, DRQ drops.
  EXPECT_FALSE(status() & IdeDisk::kDrq);
}

TEST_F(IdeTest, ReadSector0HasPartitionTable) {
  disk.write(2, 1, 8);   // nsector
  disk.write(3, 0, 8);   // LBA low
  disk.write(4, 0, 8);
  disk.write(5, 0, 8);
  disk.write(6, 0xe0, 8);
  disk.write(7, 0x20, 8);  // READ SECTORS
  wait_ready();
  wait_drq();
  std::vector<uint16_t> sec;
  for (int i = 0; i < 256; ++i) sec.push_back(disk.read(0, 16));
  EXPECT_EQ(sec[255], 0xaa55);  // MBR signature
  uint32_t start = sec[227] | (sec[228] << 16);
  EXPECT_EQ(start, IdeDisk::partition_start());
}

TEST_F(IdeTest, SuperblockAtPartitionStart) {
  uint32_t lba = IdeDisk::partition_start();
  disk.write(2, 1, 8);
  disk.write(3, lba & 0xff, 8);
  disk.write(4, (lba >> 8) & 0xff, 8);
  disk.write(5, (lba >> 16) & 0xff, 8);
  disk.write(6, 0xe0 | ((lba >> 24) & 0xf), 8);
  disk.write(7, 0x20, 8);
  wait_ready();
  wait_drq();
  EXPECT_EQ(disk.read(0, 16), IdeDisk::fs_magic());
}

TEST_F(IdeTest, OutOfRangeLbaAborts) {
  disk.write(2, 1, 8);
  disk.write(3, 0xff, 8);
  disk.write(4, 0xff, 8);
  disk.write(5, 0xff, 8);  // LBA way past 1024 sectors
  disk.write(6, 0xe0, 8);
  disk.write(7, 0x20, 8);
  wait_ready();
  EXPECT_TRUE(status() & IdeDisk::kErr);
  EXPECT_EQ(disk.read(1, 8), IdeDisk::kIdnf);
}

TEST_F(IdeTest, UnknownCommandAborts) {
  disk.write(7, 0x7b, 8);
  wait_ready();
  EXPECT_TRUE(status() & IdeDisk::kErr);
  EXPECT_EQ(disk.read(1, 8), IdeDisk::kAbrt);
}

TEST_F(IdeTest, RecalibrateBandAccepted) {
  disk.write(7, 0x17, 8);  // any 0x1x
  wait_ready();
  EXPECT_FALSE(status() & IdeDisk::kErr);
}

TEST_F(IdeTest, SlaveSelectReadsZero) {
  disk.write(6, 0xf0, 8);  // select slave (bit 4)
  EXPECT_EQ(disk.read(7, 8), 0u);
  disk.write(6, 0xe0, 8);  // back to master
  EXPECT_NE(disk.read(7, 8), 0u);
}

TEST_F(IdeTest, WriteCommandDamagesDisk) {
  disk.write(2, 1, 8);
  disk.write(3, 5, 8);
  disk.write(4, 0, 8);
  disk.write(5, 0, 8);
  disk.write(6, 0xe0, 8);
  disk.write(7, 0x30, 8);  // WRITE SECTORS
  wait_ready();
  wait_drq();
  for (int i = 0; i < 256; ++i) disk.write(0, 0xbeef, 16);
  EXPECT_TRUE(disk.disk_written());
  EXPECT_TRUE(disk.damaged());
  EXPECT_FALSE(disk.partition_table_destroyed());
  EXPECT_EQ(disk.disk_word(5, 0), 0xbeef);
}

TEST_F(IdeTest, WritingSector0DestroysPartitionTable) {
  disk.write(2, 1, 8);
  disk.write(3, 0, 8);
  disk.write(4, 0, 8);
  disk.write(5, 0, 8);
  disk.write(6, 0xe0, 8);
  disk.write(7, 0x30, 8);
  wait_ready();
  wait_drq();
  for (int i = 0; i < 256; ++i) disk.write(0, 0, 16);
  EXPECT_TRUE(disk.partition_table_destroyed());
}

TEST_F(IdeTest, DataReadOutsideTransferIsProtocolViolation) {
  EXPECT_EQ(disk.protocol_violations(), 0u);
  disk.read(0, 16);
  EXPECT_EQ(disk.protocol_violations(), 1u);
}

TEST_F(IdeTest, EightBitDataReadFlagsViolation) {
  disk.write(7, 0xec, 8);
  wait_ready();
  wait_drq();
  disk.read(0, 8);
  EXPECT_GE(disk.protocol_violations(), 1u);
}

TEST_F(IdeTest, ResetRestoresPristineImage) {
  disk.write(2, 1, 8);
  disk.write(3, 0, 8);
  disk.write(4, 0, 8);
  disk.write(5, 0, 8);
  disk.write(6, 0xe0, 8);
  disk.write(7, 0x30, 8);
  wait_ready();
  wait_drq();
  for (int i = 0; i < 256; ++i) disk.write(0, 0, 16);
  ASSERT_TRUE(disk.partition_table_destroyed());
  disk.reset();
  EXPECT_FALSE(disk.damaged());
  EXPECT_EQ(disk.disk_word(0, 255), 0xaa55);
}

// ---- Busmouse ----------------------------------------------------------------

TEST(Busmouse, IndexSelectsNibbles) {
  hw::Busmouse m;
  m.set_motion(0x5a, 0x3c, 0);
  m.write(2, 0x80, 8);  // index 0: dx low
  EXPECT_EQ(m.read(0, 8) & 0x0f, 0x0a);
  m.write(2, 0xa0, 8);  // index 1: dx high
  EXPECT_EQ(m.read(0, 8) & 0x0f, 0x05);
  m.write(2, 0xc0, 8);  // index 2: dy low
  EXPECT_EQ(m.read(0, 8) & 0x0f, 0x0c);
  m.write(2, 0xe0, 8);  // index 3: dy high
  EXPECT_EQ(m.read(0, 8) & 0x0f, 0x03);
}

TEST(Busmouse, ButtonsActiveLowInTopBits) {
  hw::Busmouse m;
  m.set_motion(0, 0, 0x05);  // left + right pressed
  m.write(2, 0xe0, 8);
  uint8_t v = static_cast<uint8_t>(m.read(0, 8));
  EXPECT_EQ((v >> 5) & 7, 0x02);  // ~0b101 & 0b111
}

TEST(Busmouse, IrrelevantDataBitsFloat) {
  hw::Busmouse m;
  m.set_motion(0, 0, 0);
  m.write(2, 0x80, 8);
  // Two consecutive reads must not promise stable garbage in bits 7..4.
  uint8_t a = static_cast<uint8_t>(m.read(0, 8));
  uint8_t b = static_cast<uint8_t>(m.read(0, 8));
  EXPECT_EQ(a & 0x0f, 0);
  EXPECT_NE(a & 0xf0, b & 0xf0);
}

TEST(Busmouse, InterruptBitSeparateFromIndex) {
  hw::Busmouse m;
  m.write(2, 0x10, 8);  // bit7=0: interrupt write, disable
  EXPECT_TRUE(m.irq_disabled());
  m.write(2, 0x00, 8);  // enable
  EXPECT_FALSE(m.irq_disabled());
  m.write(2, 0xe0, 8);  // index write must not change irq state
  EXPECT_FALSE(m.irq_disabled());
  EXPECT_EQ(m.index(), 3);
}

TEST(Busmouse, SignatureReadWrite) {
  hw::Busmouse m;
  EXPECT_EQ(m.read(1, 8), 0xa5u);
  m.write(1, 0x5a, 8);
  EXPECT_EQ(m.read(1, 8), 0x5au);
}

TEST(Busmouse, ConfigStored) {
  hw::Busmouse m;
  m.write(3, 0x91, 8);
  EXPECT_EQ(m.config(), 0x91);
}

TEST(Busmouse, WritesToDataPortAreViolations) {
  hw::Busmouse m;
  m.write(0, 1, 8);
  EXPECT_EQ(m.protocol_violations(), 1u);
}

namespace {
/// Drives the full observable surface of a busmouse: the C driver's init +
/// read-state sequence, protocol abuse, and every inspection getter. Two
/// devices in the same state produce the same trace (the garbage rotation
/// is part of the state, so stale garbage shows up here).
std::vector<uint64_t> busmouse_trace(hw::Busmouse& m) {
  std::vector<uint64_t> out;
  m.write(3, 0x91, 8);  // MSE_CONFIG_BYTE
  m.write(2, 0x10, 8);  // interrupt disable
  out.push_back(m.read(1, 8));
  for (uint32_t idx = 0; idx < 4; ++idx) {
    m.write(2, 0x80 | (idx << 5), 8);
    out.push_back(m.read(0, 8));
  }
  out.push_back(m.read(2, 8));  // write-only register: violation
  m.write(0, 0xaa, 8);          // read-only register: violation
  out.push_back(m.protocol_violations());
  out.push_back(m.index());
  out.push_back(m.config());
  out.push_back(m.signature());
  out.push_back(m.irq_disabled() ? 1 : 0);
  return out;
}
}  // namespace

TEST(Busmouse, RecycledAfterFaultingBootIsBitIdenticalToFresh) {
  // The campaign pool recycles devices between mutant boots via reset();
  // a boot that faulted mid-protocol leaves arbitrary state behind, and
  // the recycle must erase every trace of it.
  hw::Busmouse recycled;
  recycled.set_motion(-5, 9, 0x03);
  (void)busmouse_trace(recycled);  // a partial, protocol-abusing boot
  recycled.write(1, 0x77, 8);      // clobber the signature byte
  recycled.write(2, 0x00, 8);      // re-enable interrupts
  ASSERT_TRUE(recycled.touched());
  recycled.reset();
  EXPECT_FALSE(recycled.touched());

  hw::Busmouse fresh;
  EXPECT_EQ(busmouse_trace(recycled), busmouse_trace(fresh));
}

TEST(Busmouse, CleanRecycleTakesTheDirtyTrackingFastPath) {
  // Parity with IdeDisk::reset(): an untouched device is already in
  // power-on state, so reset() is a no-op branch, and even reads dirty
  // the device (they rotate the garbage bits).
  hw::Busmouse m;
  EXPECT_FALSE(m.touched());
  m.reset();
  EXPECT_FALSE(m.touched());
  (void)m.read(0, 8);
  EXPECT_TRUE(m.touched());
  m.reset();
  EXPECT_FALSE(m.touched());
  hw::Busmouse fresh;
  EXPECT_EQ(busmouse_trace(m), busmouse_trace(fresh));
}

// ---- shallow models ---------------------------------------------------------------

TEST(Ne2000, ResetPortRaisesIsrRst) {
  hw::Ne2000 nic;
  nic.read(hw::Ne2000::kReset, 8);
  EXPECT_EQ(nic.read(hw::Ne2000::kIsr, 8) & 0x80, 0x80u);
}

TEST(Ne2000, StartClearsRstAndSetsRunning) {
  hw::Ne2000 nic;
  nic.read(hw::Ne2000::kReset, 8);
  nic.write(hw::Ne2000::kCmd, 0x02, 8);  // start
  EXPECT_TRUE(nic.started());
  EXPECT_EQ(nic.read(hw::Ne2000::kIsr, 8) & 0x80, 0u);
}

TEST(Ne2000, PagedRegisterFile) {
  hw::Ne2000 nic;
  nic.write(0, 0x21, 8);          // page 0
  nic.write(1, 0x40, 8);          // PSTART
  nic.write(0, 0x61, 8);          // page 1
  nic.write(1, 0xaa, 8);          // PAR0
  EXPECT_EQ(nic.read(1, 8), 0xaau);
  nic.write(0, 0x21, 8);          // back to page 0
  EXPECT_EQ(nic.read(1, 8), 0x40u);
}

TEST(Ne2000, IsrWriteOneToClear) {
  hw::Ne2000 nic;
  nic.read(hw::Ne2000::kReset, 8);
  nic.write(hw::Ne2000::kCmd, 0x21, 8);
  nic.write(hw::Ne2000::kIsr, 0x80, 8);
  EXPECT_EQ(nic.read(hw::Ne2000::kIsr, 8) & 0x80, 0u);
}

TEST(PciBusMaster, StartStopTogglesActive) {
  hw::PciBusMaster bm;
  bm.write(0, 0x01, 8);
  EXPECT_TRUE(bm.active(0));
  bm.write(0, 0x00, 8);
  EXPECT_FALSE(bm.active(0));
}

TEST(PciBusMaster, PrdPointerDwordAligned) {
  hw::PciBusMaster bm;
  bm.write(4, 0x12345677, 32);
  EXPECT_EQ(bm.prd(0), 0x12345674u);
}

TEST(PciBusMaster, StatusBitsWriteOneToClear) {
  hw::PciBusMaster bm;
  bm.write(0, 0x01, 8);           // active
  bm.write(2, 0x06, 8);           // clear err+irq — active must survive
  EXPECT_TRUE(bm.active(0));
}

TEST(Permedia2, FifoSpaceCountsDown) {
  hw::Permedia2 gfx;
  uint32_t before = gfx.read(1, 32);
  gfx.write(5, 0x1234, 32);
  EXPECT_EQ(gfx.read(1, 32), before - 1);
}

TEST(Permedia2, SoftResetClearsRegisters) {
  hw::Permedia2 gfx;
  gfx.write(6, 0xabcd, 32);
  EXPECT_EQ(gfx.read(6, 32), 0xabcdu);
  gfx.write(0, 1, 32);  // soft reset
  EXPECT_EQ(gfx.read(6, 32), 0u);
}

}  // namespace
