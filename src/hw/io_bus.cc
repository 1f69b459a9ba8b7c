#include "hw/io_bus.h"

#include <sstream>
#include <stdexcept>

namespace hw {

void IoBus::map(uint32_t base, uint32_t length, std::shared_ptr<Device> dev,
                int irq_line) {
  for (const auto& m : mappings_) {
    if (base < m.base + m.length && m.base < base + length) {
      std::ostringstream os;
      os << "I/O range overlap: " << dev->name() << " at 0x" << std::hex
         << base << " collides with " << m.dev->name();
      throw std::invalid_argument(os.str());
    }
  }
  if (irq_line >= 0) {
    if (irq_line >= IrqController::kLines) {
      std::ostringstream os;
      os << "IRQ line " << irq_line << " out of range for " << dev->name();
      throw std::invalid_argument(os.str());
    }
    dev->attach_irq(this, irq_line);
  }
  mappings_.push_back(Mapping{base, length, std::move(dev)});
}

void IoBus::raise_irq(int line, uint64_t delay_steps, bool genuine) {
  if (line < 0 || line >= IrqController::kLines) return;
  ctrl_.raise(line, steps_retired() + delay_steps, genuine);
  if (irq_observer_ != nullptr) {
    irq_observer_->irq_event(IrqEventKind::kRaised, line);
  }
}

int IoBus::irq_pending() { return ctrl_.pending(steps_retired()); }

void IoBus::irq_begin(bool handled) {
  const int line = ctrl_.pending(steps_retired());
  ctrl_.begin(handled);
  if (irq_observer_ != nullptr && line >= 0) {
    irq_observer_->irq_event(
        handled ? IrqEventKind::kDelivered : IrqEventKind::kDropped, line);
  }
}

void IoBus::irq_end() { ctrl_.end(); }

IoBus::Mapping* IoBus::find(uint32_t port) {
  for (auto& m : mappings_) {
    if (port >= m.base && port < m.base + m.length) return &m;
  }
  return nullptr;
}

uint32_t IoBus::io_in(uint32_t port, int width) {
  port &= 0xffff;  // x86 I/O space is 16-bit
  uint32_t v;
  if (Mapping* m = find(port)) {
    v = m->dev->read(port - m->base, width);
  } else {
    ++unmapped_;
    // Open bus floats high.
    v = width >= 32 ? 0xffffffffu : (width >= 16 ? 0xffffu : 0xffu);
  }
  return v;
}

void IoBus::io_out(uint32_t port, uint32_t value, int width) {
  port &= 0xffff;
  if (Mapping* m = find(port)) {
    m->dev->write(port - m->base, value, width);
  } else {
    ++unmapped_;  // writes to nowhere are silently dropped, as on a PC
  }
}

void IoBus::reset() {
  for (auto& m : mappings_) m.dev->reset();
  unmapped_ = 0;
  // Pending events from the previous run must not leak into the next boot
  // (the recycle bit-identity regression pins this).
  ctrl_.clear();
}

bool IoBus::capture_state(minic::EnvState& out) const {
  if (!ctrl_.capture_state(out)) return false;
  out.counters.push_back({unmapped_, 0});
  bool observer_mapped = irq_observer_ == nullptr;
  for (const auto& m : mappings_) {
    if (!m.dev->capture_state(out)) return false;
    observer_mapped |= dynamic_cast<const IrqObserver*>(m.dev.get()) ==
                       irq_observer_;
  }
  return observer_mapped;
}

void IoBus::advance_state(uint64_t cycles, const uint64_t*& deltas) {
  ctrl_.advance_state(cycles, deltas);
  minic::advance_counter(unmapped_, cycles, deltas);
  for (auto& m : mappings_) m.dev->advance_state(cycles, deltas);
}

}  // namespace hw
