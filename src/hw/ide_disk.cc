#include "hw/ide_disk.h"

#include <algorithm>
#include <cstring>

namespace hw {

IdeDisk::IdeDisk(uint32_t sectors) : total_sectors_(sectors) {
  build_image();
  build_identify();
  pristine_ = image_;
}

void IdeDisk::build_image() {
  image_.assign(static_cast<size_t>(total_sectors_) * kSectorWords, 0);

  // --- MBR (sector 0) ---
  // One active Linux partition starting at LBA partition_start().
  auto put_byte = [&](uint32_t sector, uint32_t byte_off, uint8_t v) {
    uint16_t& w = image_[sector * kSectorWords + byte_off / 2];
    if (byte_off % 2 == 0) {
      w = static_cast<uint16_t>((w & 0xff00) | v);
    } else {
      w = static_cast<uint16_t>((w & 0x00ff) | (v << 8));
    }
  };
  const uint32_t entry = 0x1be;
  put_byte(0, entry + 0, 0x80);   // bootable
  put_byte(0, entry + 4, 0x83);   // Linux
  uint32_t start = partition_start();
  uint32_t size = total_sectors_ - start;
  for (int i = 0; i < 4; ++i) {
    put_byte(0, entry + 8 + i, static_cast<uint8_t>(start >> (8 * i)));
    put_byte(0, entry + 12 + i, static_cast<uint8_t>(size >> (8 * i)));
  }
  put_byte(0, 0x1fe, 0x55);
  put_byte(0, 0x1ff, 0xaa);

  // --- mock superblock at the partition start ---
  uint32_t sb = partition_start();
  image_[sb * kSectorWords + 0] = fs_magic();
  image_[sb * kSectorWords + 1] = 0x0001;  // fs revision
  image_[sb * kSectorWords + 2] = static_cast<uint16_t>(size & 0xffff);
  image_[sb * kSectorWords + 3] = static_cast<uint16_t>(size >> 16);

  // Recognisable payload elsewhere (so wrong-sector reads differ).
  for (uint32_t s = sb + 1; s < total_sectors_; ++s) {
    for (uint32_t w = 0; w < 4; ++w) {
      image_[s * kSectorWords + w] = static_cast<uint16_t>(s * 7 + w);
    }
  }
}

void IdeDisk::build_identify() {
  identify_.fill(0);
  identify_[0] = 0x0040;  // fixed disk
  identify_[1] = 16;      // cylinders
  identify_[3] = 4;       // heads
  identify_[6] = 16;      // sectors per track
  const char model[] = "DEVIL REPRO IDE DISK                    ";
  for (int i = 0; i < 20; ++i) {
    identify_[27 + i] = static_cast<uint16_t>(
        (static_cast<uint8_t>(model[2 * i]) << 8) |
        static_cast<uint8_t>(model[2 * i + 1]));
  }
  identify_[49] = 0x0200;  // LBA supported
  identify_[60] = static_cast<uint16_t>(total_sectors_ & 0xffff);
  identify_[61] = static_cast<uint16_t>(total_sectors_ >> 16);
}

void IdeDisk::reset() {
  // The pristine copy is only needed when a boot actually wrote the disk;
  // clean boots (the overwhelming majority of campaign mutants) reset with
  // a plain register wipe.
  if (disk_written_) image_ = pristine_;
  error_ = 0;
  features_ = 0;
  nsector_ = 1;
  lba_low_ = lba_mid_ = lba_high_ = 0;
  select_ = 0xa0;
  status_ = kReady | kSeek;
  phase_ = Phase::kIdle;
  busy_reads_ = 0;
  drq_hold_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  cur_lba_ = 0;
  sectors_left_ = 0;
  disk_written_ = false;
  partition_destroyed_ = false;
  protocol_violations_ = 0;
  sectors_read_ = 0;
  data_writes_ = 0;
}

bool IdeDisk::capture_state(minic::EnvState& out) const {
  out.key.insert(
      out.key.end(),
      {error_, features_, nsector_, lba_low_, lba_mid_, lba_high_, select_,
       status_, static_cast<uint64_t>(phase_),
       static_cast<uint64_t>(busy_reads_), static_cast<uint64_t>(drq_hold_),
       buffer_.size(), buffer_pos_, cur_lba_, sectors_left_,
       disk_written_ ? 1u : 0u, partition_destroyed_ ? 1u : 0u,
       std::min<uint64_t>(protocol_violations_, 9), sectors_read_,
       data_writes_});
  out.counters.push_back({protocol_violations_, 0});
  return true;
}

void IdeDisk::advance_state(uint64_t cycles, const uint64_t*& deltas) {
  minic::advance_counter(protocol_violations_, cycles, deltas);
}

std::string IdeDisk::damage_note() const {
  if (partition_destroyed_) return "partition table overwritten";
  if (disk_written_) return "disk image modified during boot";
  return "excessive protocol violations";
}

uint32_t IdeDisk::lba() const {
  return static_cast<uint32_t>(lba_low_) |
         (static_cast<uint32_t>(lba_mid_) << 8) |
         (static_cast<uint32_t>(lba_high_) << 16) |
         (static_cast<uint32_t>(select_ & 0x0f) << 24);
}

uint32_t IdeDisk::read(uint32_t offset, int width) {
  // The absent slave drive pulls everything low.
  if (!master_selected() && offset != 6) return 0;

  switch (offset) {
    case 0: {  // DATA
      if (phase_ != Phase::kPioRead || buffer_pos_ >= buffer_.size()) {
        ++protocol_violations_;
        return width >= 16 ? 0xffffu : 0xffu;
      }
      uint16_t w = buffer_[buffer_pos_++];
      if (buffer_pos_ == buffer_.size()) {
        phase_ = Phase::kIdle;
        status_ = kReady | kSeek;
      }
      if (width < 16) {
        // 8-bit read of the 16-bit data port: a classic driver bug; hand
        // back the low byte and flag the protocol violation.
        ++protocol_violations_;
        return w & 0xffu;
      }
      return w;
    }
    case 1:
      return error_;
    case 2:
      return nsector_;
    case 3:
      return lba_low_;
    case 4:
      return lba_mid_;
    case 5:
      return lba_high_;
    case 6:
      return select_ | 0xa0;
    case 7: {  // STATUS
      if (busy_reads_ > 0) {
        --busy_reads_;
        return kBusy;
      }
      if (drq_hold_ > 0) {
        // Data-transfer setup time: BSY has cleared but DRQ is not yet
        // raised, as on real drives; the driver's DRQ poll loop iterates.
        --drq_hold_;
        return static_cast<uint32_t>(status_ & ~kDrq);
      }
      return status_;
    }
    default:
      ++protocol_violations_;
      return 0xff;
  }
}

void IdeDisk::write(uint32_t offset, uint32_t value, int width) {
  uint8_t v = static_cast<uint8_t>(value);
  switch (offset) {
    case 0: {  // DATA
      if (phase_ != Phase::kPioWrite) {
        ++protocol_violations_;
        return;
      }
      if (width < 16) ++protocol_violations_;
      if (buffer_pos_ < buffer_.size()) {
        buffer_[buffer_pos_++] = static_cast<uint16_t>(value);
        ++data_writes_;
      }
      if (buffer_pos_ == buffer_.size()) finish_write_sector();
      return;
    }
    case 1:
      features_ = v;
      return;
    case 2:
      nsector_ = v;
      return;
    case 3:
      lba_low_ = v;
      return;
    case 4:
      lba_mid_ = v;
      return;
    case 5:
      lba_high_ = v;
      return;
    case 6:
      select_ = v;
      return;
    case 7:
      if (!master_selected()) return;  // no slave to take commands
      start_command(v);
      // INTRQ asserts once per accepted command (simplified ATA: one
      // completion interrupt, including error completions). No-op until the
      // bus wires a line, so polled boots are untouched.
      raise_irq();
      return;
    default:
      ++protocol_violations_;
      return;
  }
}

void IdeDisk::start_command(uint8_t cmd) {
  error_ = 0;
  busy_reads_ = 2;  // a couple of BSY polls before completion
  drq_hold_ = 2;    // then a couple of polls before DRQ comes up

  // RECALIBRATE is a 16-command band (0x10..0x1f).
  if ((cmd & 0xf0) == 0x10) {
    status_ = kReady | kSeek;
    return;
  }

  switch (cmd) {
    case 0xec: {  // IDENTIFY DEVICE
      buffer_.assign(identify_.begin(), identify_.end());
      ++data_writes_;
      buffer_pos_ = 0;
      phase_ = Phase::kPioRead;
      status_ = kReady | kSeek | kDrq;
      return;
    }
    case 0x20:
    case 0x21: {  // READ SECTORS (with/without retry)
      uint32_t count = nsector_ == 0 ? 256 : nsector_;
      uint32_t start = lba();
      if (start + count > total_sectors_) {
        status_ = kReady | kErr;
        error_ = kIdnf;
        phase_ = Phase::kIdle;
        return;
      }
      buffer_.assign(image_.begin() + start * kSectorWords,
                     image_.begin() + (start + count) * kSectorWords);
      ++data_writes_;
      buffer_pos_ = 0;
      sectors_read_ += count;
      phase_ = Phase::kPioRead;
      status_ = kReady | kSeek | kDrq;
      return;
    }
    case 0x30:
    case 0x31: {  // WRITE SECTORS
      uint32_t count = nsector_ == 0 ? 256 : nsector_;
      uint32_t start = lba();
      if (start + count > total_sectors_) {
        status_ = kReady | kErr;
        error_ = kIdnf;
        phase_ = Phase::kIdle;
        return;
      }
      cur_lba_ = start;
      sectors_left_ = count;
      buffer_.assign(kSectorWords, 0);
      ++data_writes_;
      buffer_pos_ = 0;
      phase_ = Phase::kPioWrite;
      status_ = kReady | kSeek | kDrq;
      return;
    }
    case 0x91:  // INITIALIZE DEVICE PARAMETERS
      status_ = kReady | kSeek;
      return;
    default:
      // Unknown command: abort.
      status_ = kReady | kErr;
      error_ = kAbrt;
      phase_ = Phase::kIdle;
      return;
  }
}

void IdeDisk::finish_write_sector() {
  std::memcpy(&image_[cur_lba_ * kSectorWords], buffer_.data(),
              kSectorWords * sizeof(uint16_t));
  disk_written_ = true;
  ++data_writes_;
  if (cur_lba_ == 0) partition_destroyed_ = true;
  ++cur_lba_;
  --sectors_left_;
  if (sectors_left_ == 0) {
    phase_ = Phase::kIdle;
    status_ = kReady | kSeek;
  } else {
    buffer_.assign(kSectorWords, 0);
    buffer_pos_ = 0;
    status_ = kReady | kSeek | kDrq;
  }
}

}  // namespace hw
