#include "hw/flight_recorder.h"

#include <cstdio>

namespace hw {

FlightRecorder::FlightRecorder(std::shared_ptr<Device> inner,
                               uint32_t port_base,
                               const minic::IoEnvironment* env,
                               size_t capacity)
    : inner_(std::move(inner)),
      port_base_(port_base),
      env_(env),
      capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

uint32_t FlightRecorder::read(uint32_t offset, int width) {
  uint32_t value = inner_->read(offset, width);
  record(/*is_write=*/false, offset, value, width);
  return value;
}

void FlightRecorder::write(uint32_t offset, uint32_t value, int width) {
  record(/*is_write=*/true, offset, value, width);
  inner_->write(offset, value, width);
}

void FlightRecorder::reset() {
  inner_->reset();
  ring_.clear();
  total_ = 0;
}

bool FlightRecorder::capture_state(minic::EnvState& out) const {
  out.counters.push_back({total_, capacity_});
  return inner_->capture_state(out);
}

void FlightRecorder::advance_state(uint64_t cycles, const uint64_t*& deltas) {
  const uint64_t before = total_;
  minic::advance_counter(total_, cycles, deltas);
  // Slots are indexed by sequence number from here on; the replayed cycles
  // overwrite every one of them before the run can end.
  if (total_ != before) ring_.resize(capacity_);
  inner_->advance_state(cycles, deltas);
}

void FlightRecorder::record(bool is_write, uint32_t offset, uint32_t value,
                            int width) {
  RecordedAccess acc;
  acc.seq = total_++;
  acc.step = env_ != nullptr ? env_->steps_retired() : 0;
  acc.port = port_base_ + offset;
  acc.value = value;
  acc.width = width;
  acc.is_write = is_write;
  if (ring_.size() < capacity_) {
    ring_.push_back(acc);
  } else {
    ring_[static_cast<size_t>(acc.seq % capacity_)] = acc;
  }
}

void FlightRecorder::irq_event(IrqEventKind kind, int line) {
  RecordedAccess acc;
  acc.seq = total_++;
  acc.step = env_ != nullptr ? env_->steps_retired() : 0;
  switch (kind) {
    case IrqEventKind::kRaised: acc.kind = RecordKind::kIrqRaised; break;
    case IrqEventKind::kDelivered: acc.kind = RecordKind::kIrqDelivered; break;
    case IrqEventKind::kDropped: acc.kind = RecordKind::kIrqDropped; break;
  }
  acc.line = line;
  if (ring_.size() < capacity_) {
    ring_.push_back(acc);
  } else {
    ring_[static_cast<size_t>(acc.seq % capacity_)] = acc;
  }
}

std::vector<RecordedAccess> FlightRecorder::tail() const {
  std::vector<RecordedAccess> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || total_ <= capacity_) {
    out = ring_;
  } else {
    size_t start = static_cast<size_t>(total_ % capacity_);
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(start + i) % capacity_]);
    }
  }
  return out;
}

std::string FlightRecorder::render_tail() const {
  std::vector<RecordedAccess> accesses = tail();
  char line[128];
  std::snprintf(line, sizeof(line),
                "last %zu of %llu bus events:", accesses.size(),
                static_cast<unsigned long long>(total_));
  std::string out = line;
  for (const RecordedAccess& acc : accesses) {
    if (acc.kind == RecordKind::kPortAccess) {
      std::snprintf(line, sizeof(line),
                    "\n  [event %llu, step %llu] %s 0x%x %s 0x%x (%d-bit)",
                    static_cast<unsigned long long>(acc.seq),
                    static_cast<unsigned long long>(acc.step),
                    acc.is_write ? "out" : "in ", acc.port,
                    acc.is_write ? "<-" : "->", acc.value, acc.width);
    } else {
      const char* what = acc.kind == RecordKind::kIrqRaised ? "raised"
                         : acc.kind == RecordKind::kIrqDelivered
                             ? "delivered"
                             : "dropped";
      std::snprintf(line, sizeof(line),
                    "\n  [event %llu, step %llu] irq %d %s",
                    static_cast<unsigned long long>(acc.seq),
                    static_cast<unsigned long long>(acc.step), acc.line, what);
    }
    out += line;
  }
  return out;
}

}  // namespace hw
