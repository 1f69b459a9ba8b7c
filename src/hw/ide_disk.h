// Behavioural model of an IDE (ATA) disk controller with one master drive,
// the device under test of the paper's driver campaign (§4.2).
//
// Register block (byte offsets from the claimed base, classic primary
// channel layout):
//   0 DATA (16-bit)   1 ERROR/FEATURES   2 NSECTOR   3 LBA-low
//   4 LBA-mid         5 LBA-high         6 SELECT    7 STATUS/COMMAND
//
// Modelled behaviour, chosen to make mutant outcomes realistic:
//  - a command holds BSY for a couple of status reads before completing;
//  - IDENTIFY (0xEC) and READ SECTORS (0x20/0x21) run a 256-words-per-sector
//    PIO data phase via DRQ;
//  - WRITE SECTORS (0x30/0x31) commits driver data to the disk image: any
//    boot-time write is damage, and overwriting sector 0 destroys the
//    partition table (the paper's "required re-formatting the disk" case);
//  - unknown commands set ERR/ABRT; selecting the absent slave makes the
//    status register read 0 (so mis-selected probes fail visibly);
//  - reads of the data port outside a data phase return garbage.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/io_bus.h"

namespace hw {

class IdeDisk final : public Device {
 public:
  // Status bits.
  static constexpr uint8_t kErr = 0x01;
  static constexpr uint8_t kIdx = 0x02;
  static constexpr uint8_t kCorr = 0x04;
  static constexpr uint8_t kDrq = 0x08;
  static constexpr uint8_t kSeek = 0x10;
  static constexpr uint8_t kWerr = 0x20;
  static constexpr uint8_t kReady = 0x40;
  static constexpr uint8_t kBusy = 0x80;

  // Error-register bits.
  static constexpr uint8_t kAbrt = 0x04;
  static constexpr uint8_t kIdnf = 0x10;

  static constexpr uint32_t kSectorWords = 256;

  /// Builds a disk with `sectors` sectors containing an MBR (partition table
  /// + 0xAA55 signature) and a mock filesystem superblock.
  explicit IdeDisk(uint32_t sectors = 1024);

  [[nodiscard]] std::string name() const override { return "ide0"; }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override;

  [[nodiscard]] bool damaged() const override {
    return disk_written_ || protocol_violations_ > 8;
  }
  [[nodiscard]] std::string damage_note() const override;

  /// Registers, PIO progress and flags as key words; the violation count
  /// enters the key saturated at 9 (damaged() only asks `> 8`) and advances
  /// as a counter. `data_writes_` stands in for the image and buffer
  /// contents.
  [[nodiscard]] bool capture_state(minic::EnvState& out) const override;
  void advance_state(uint64_t cycles, const uint64_t*& deltas) override;

  // --- inspection for the harness and tests ---
  [[nodiscard]] bool disk_written() const { return disk_written_; }
  [[nodiscard]] bool partition_table_destroyed() const {
    return partition_destroyed_;
  }
  [[nodiscard]] uint64_t protocol_violations() const {
    return protocol_violations_;
  }
  [[nodiscard]] uint32_t sectors_read() const { return sectors_read_; }
  [[nodiscard]] uint16_t disk_word(uint32_t sector, uint32_t word) const {
    return image_[sector * kSectorWords + word];
  }

  /// Expected partition start LBA baked into the MBR (harness oracle).
  [[nodiscard]] static constexpr uint32_t partition_start() { return 63; }
  /// Filesystem magic baked into the superblock (harness oracle).
  [[nodiscard]] static constexpr uint16_t fs_magic() { return 0xef53; }

 private:
  enum class Phase { kIdle, kPioRead, kPioWrite };

  void start_command(uint8_t cmd);
  void finish_write_sector();
  [[nodiscard]] uint32_t lba() const;
  [[nodiscard]] bool master_selected() const { return (select_ & 0x10) == 0; }
  void build_image();
  void build_identify();

  uint32_t total_sectors_;
  std::vector<uint16_t> image_;
  std::vector<uint16_t> pristine_;
  std::array<uint16_t, kSectorWords> identify_{};

  // Task-file registers.
  uint8_t error_ = 0;
  uint8_t features_ = 0;
  uint8_t nsector_ = 1;
  uint8_t lba_low_ = 0;
  uint8_t lba_mid_ = 0;
  uint8_t lba_high_ = 0;
  uint8_t select_ = 0xa0;
  uint8_t status_ = kReady | kSeek;

  Phase phase_ = Phase::kIdle;
  int busy_reads_ = 0;            // status reads still reporting BSY
  int drq_hold_ = 0;              // post-BSY status reads without DRQ yet
  std::vector<uint16_t> buffer_;  // current PIO buffer
  size_t buffer_pos_ = 0;
  uint32_t cur_lba_ = 0;
  uint32_t sectors_left_ = 0;

  bool disk_written_ = false;
  bool partition_destroyed_ = false;
  uint64_t protocol_violations_ = 0;
  uint32_t sectors_read_ = 0;
  /// Bumped whenever the image or the PIO buffer changes content (buffer
  /// loads, data-port stores, sector commits). Equal counts at two points of
  /// one run mean neither changed in between, so capture_state keys on this
  /// instead of 512 KB of image.
  uint64_t data_writes_ = 0;
};

}  // namespace hw
