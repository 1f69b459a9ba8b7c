#include "hw/fault_injection.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace hw {

namespace {

/// All-ones for the access width — what an unterminated ISA bus reads as
/// (io_bus.cc models unmapped ports the same way).
uint32_t width_ones(int width) {
  return width >= 32 ? 0xffffffffu : (1u << width) - 1u;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kStuckZero: return "stuck0";
    case FaultKind::kStuckOne: return "stuck1";
    case FaultKind::kFlipOnce: return "flip";
    case FaultKind::kDropWrite: return "drop-write";
    case FaultKind::kFloatingBus: return "floating";
    case FaultKind::kNeverReady: return "never-ready";
    case FaultKind::kLostIrq: return "lost-irq";
    case FaultKind::kSpuriousIrq: return "spurious-irq";
    case FaultKind::kIrqStorm: return "irq-storm";
    case FaultKind::kDelayIrq: return "delay-irq";
  }
  return "?";
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (is_event_fault()) {
    // `port` is the IRQ line here; `after` counts raises (spurious: device
    // accesses) — e.g. "irq-storm x8 on line 6 after 1".
    if (kind == FaultKind::kIrqStorm) os << " x" << value;
    if (kind == FaultKind::kDelayIrq) os << " +" << value << " steps";
    os << " on line " << port << " after " << after;
    return os.str();
  }
  if (kind == FaultKind::kStuckZero || kind == FaultKind::kStuckOne ||
      kind == FaultKind::kFlipOnce) {
    os << " mask 0x" << std::hex << mask << std::dec;
  }
  if (kind == FaultKind::kNeverReady) {
    os << " value 0x" << std::hex << value << std::dec;
  }
  os << " at port 0x" << std::hex << port << std::dec << " after " << after;
  return os.str();
}

FaultInjector::FaultInjector(std::shared_ptr<Device> inner, uint32_t port_base,
                             FaultPlan plan)
    : inner_(std::move(inner)), port_base_(port_base), plan_(plan) {}

void FaultInjector::maybe_inject_spurious() {
  if (plan_.kind != FaultKind::kSpuriousIrq) return;
  const uint64_t seq = access_seq_++;  // 0-based index of this access
  if (seq != plan_.after) return;
  if (IrqSink* out = irq_sink()) {
    // The spurious edge arrives while the CPU is mid-I/O: deliverable at
    // the very next charge-step boundary, in-service bit never latched.
    out->raise_irq(static_cast<int>(plan_.port), /*delay_steps=*/0,
                   /*genuine=*/false);
    ++fired_;
  }
}

uint32_t FaultInjector::read(uint32_t offset, int width) {
  maybe_inject_spurious();
  if (!plan_.is_read_fault() || port_base_ + offset != plan_.port) {
    return inner_->read(offset, width);
  }
  const uint64_t seq = matched_++;  // 0-based index of this matching read
  if (seq < plan_.after) return inner_->read(offset, width);
  switch (plan_.kind) {
    case FaultKind::kStuckZero:
      ++fired_;
      return inner_->read(offset, width) & ~plan_.mask;
    case FaultKind::kStuckOne:
      ++fired_;
      return (inner_->read(offset, width) | plan_.mask) & width_ones(width);
    case FaultKind::kFlipOnce:
      if (seq > plan_.after) return inner_->read(offset, width);
      ++fired_;
      return (inner_->read(offset, width) ^ plan_.mask) & width_ones(width);
    case FaultKind::kFloatingBus:
      // The card is gone: the device must not see the read (no side
      // effects, e.g. no index-selected data rotation, no BSY countdown).
      ++fired_;
      return width_ones(width);
    case FaultKind::kNeverReady:
      ++fired_;
      return plan_.value & width_ones(width);
    case FaultKind::kDropWrite:
    case FaultKind::kLostIrq:
    case FaultKind::kSpuriousIrq:
    case FaultKind::kIrqStorm:
    case FaultKind::kDelayIrq:
      break;  // unreachable: is_read_fault() excluded them
  }
  return inner_->read(offset, width);
}

void FaultInjector::write(uint32_t offset, uint32_t value, int width) {
  maybe_inject_spurious();
  if (plan_.kind == FaultKind::kDropWrite &&
      port_base_ + offset == plan_.port) {
    const uint64_t seq = matched_++;
    if (seq == plan_.after) {
      ++fired_;  // this one write is lost on the bus
      return;
    }
  }
  inner_->write(offset, value, width);
}

void FaultInjector::reset() {
  inner_->reset();
  matched_ = 0;
  fired_ = 0;
  raise_seq_ = 0;
  access_seq_ = 0;
}

bool FaultInjector::capture_state(minic::EnvState& out) const {
  const uint64_t past = uint64_t{plan_.after} + 1;
  for (uint64_t c : {matched_, raise_seq_, access_seq_}) {
    out.key.push_back(std::min(c, past));
  }
  for (uint64_t c : {matched_, fired_, raise_seq_, access_seq_}) {
    out.counters.push_back({c, 0});
  }
  return inner_->capture_state(out);
}

void FaultInjector::advance_state(uint64_t cycles, const uint64_t*& deltas) {
  for (uint64_t* c : {&matched_, &fired_, &raise_seq_, &access_seq_}) {
    minic::advance_counter(*c, cycles, deltas);
  }
  inner_->advance_state(cycles, deltas);
}

void FaultInjector::attach_irq(IrqSink* sink, int line) {
  Device::attach_irq(sink, line);
  // Interpose on the raise chain: the wrapped device now raises into this
  // shim, which forwards (or tampers) toward the real sink. Detach (sink ==
  // nullptr, pool recycling) unwires the whole chain.
  inner_->attach_irq(sink != nullptr ? static_cast<IrqSink*>(this) : nullptr,
                     line);
}

void FaultInjector::raise_irq(int line, uint64_t delay_steps, bool genuine) {
  IrqSink* out = irq_sink();
  if (out == nullptr) return;
  if (!genuine || !plan_.is_event_fault() ||
      static_cast<uint32_t>(line) != plan_.port) {
    out->raise_irq(line, delay_steps, genuine);
    return;
  }
  switch (plan_.kind) {
    case FaultKind::kLostIrq: {
      const uint64_t seq = raise_seq_++;  // 0-based index of this raise
      if (seq == plan_.after) {
        ++fired_;  // the edge is lost on the wire
        return;
      }
      break;
    }
    case FaultKind::kIrqStorm: {
      const uint64_t seq = raise_seq_++;
      if (seq == plan_.after) {
        ++fired_;
        const uint32_t repeats = plan_.value != 0 ? plan_.value : 1;
        for (uint32_t i = 0; i < repeats; ++i) {
          out->raise_irq(line, delay_steps, true);
        }
        return;
      }
      break;
    }
    case FaultKind::kDelayIrq: {
      const uint64_t seq = raise_seq_++;
      if (seq == plan_.after) {
        ++fired_;
        out->raise_irq(line, delay_steps + plan_.value, true);
        return;
      }
      break;
    }
    default:
      break;  // kSpuriousIrq injects from the access path, raises forward
  }
  out->raise_irq(line, delay_steps, genuine);
}

CensusVerdict FaultCensus::verdict(const FaultPlan& plan) const {
  // `seen` is where the golden boot leaves the injector counter that the
  // plan's trigger compares with `after`: the plan fires iff seen > after.
  const uint64_t offset = uint64_t{plan.port} - port_base;  // wraps below
  uint64_t seen = 0;
  if (plan.kind == FaultKind::kSpuriousIrq) {
    seen = irq_accesses;
  } else if (plan.is_event_fault()) {
    if (plan.port >= raises.size()) return CensusVerdict::kBoots;
    seen = raises[plan.port];
  } else if (offset >= ports.size()) {
    return CensusVerdict::kBoots;
  } else {  // matched_: writes for drop-write, reads for the read faults
    seen = plan.kind == FaultKind::kDropWrite ? ports[offset].writes
                                               : ports[offset].reads;
  }
  if (seen <= plan.after) return CensusVerdict::kNeverFires;
  const bool stuck0 = plan.kind == FaultKind::kStuckZero;
  bool absorbed = (stuck0 || plan.kind == FaultKind::kStuckOne) &&
                  plan.mask != 0 && plan.mask <= 0xffu;
  for (uint32_t bit = 0; absorbed && bit < 8; ++bit) {
    const uint64_t end = (stuck0 ? ports[offset].set_end
                                 : ports[offset].clear_end)[bit];
    absorbed = (plan.mask >> bit & 1u) == 0 || end <= plan.after;
  }
  return absorbed ? CensusVerdict::kAbsorbed : CensusVerdict::kBoots;
}

uint32_t CensusShim::read(uint32_t offset, int width) {
  if (irq_sink() != nullptr) ++census_->irq_accesses;
  const uint32_t value = inner_->read(offset, width);
  if (offset >= census_->ports.size()) return value;
  FaultCensus::Port& port = census_->ports[offset];
  const uint64_t end = ++port.reads;
  const bool fits = value <= width_ones(width);
  for (uint32_t bit = 0; bit < 8; ++bit) {
    const bool set = (value >> bit & 1u) != 0;
    if (set) port.set_end[bit] = end;
    if (!set || !fits) port.clear_end[bit] = end;
  }
  return value;
}

void CensusShim::write(uint32_t offset, uint32_t value, int width) {
  if (irq_sink() != nullptr) ++census_->irq_accesses;
  if (offset < census_->ports.size()) ++census_->ports[offset].writes;
  inner_->write(offset, value, width);
}

void CensusShim::raise_irq(int line, uint64_t delay_steps, bool genuine) {
  IrqSink* out = irq_sink();
  if (out == nullptr) return;
  const auto index = static_cast<size_t>(line);  // wraps for a negative line
  if (genuine && index < census_->raises.size()) ++census_->raises[index];
  out->raise_irq(line, delay_steps, genuine);
}

}  // namespace hw
