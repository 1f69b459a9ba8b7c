// Bus-event flight recorder: a ring-buffer `hw::Device` shim.
//
// Wraps any device (including a `FaultInjector` — map the recorder
// outermost so it sees exactly the driver-visible traffic) and records the
// last N bus events. Port accesses carry absolute port, direction, the
// value the driver wrote or actually read (post-fault), and the access
// width; IRQ events (raised / delivered / dropped, fed by the bus through
// the `IrqObserver` tap) carry the line, interleaved in the same ring in
// bus order. Every event is stamped with the number of interpreter steps
// retired when it happened. The step stamp comes from the `IoEnvironment`
// step probe, which both engines bind to their live budget counter — and
// because the charge discipline is engine-invariant, the rendered trace is
// byte-identical between the bytecode VM and the tree walker (a
// differential oracle in its own right; tests/test_flight_recorder.cc
// enforces it).
//
// On a non-clean boot the campaign engines render the tail as a post-mortem
// and attach it to the mutant/fault record: the Devil thesis in miniature —
// the misbehaviour becomes legible at the faulting access.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/io_bus.h"

namespace hw {

/// What one ring entry describes.
enum class RecordKind : uint8_t {
  kPortAccess,
  kIrqRaised,
  kIrqDelivered,
  kIrqDropped,
};

/// One recorded bus event (port access or IRQ transition).
struct RecordedAccess {
  uint64_t seq = 0;    // 0-based index in the full event stream
  uint64_t step = 0;   // interpreter steps retired when the event happened
  uint32_t port = 0;   // absolute port (base + offset); port accesses only
  uint32_t value = 0;  // value written, or value the driver actually read
  int width = 8;
  bool is_write = false;
  RecordKind kind = RecordKind::kPortAccess;
  int line = -1;  // IRQ line for the IRQ kinds
};

class FlightRecorder final : public Device, public IrqObserver {
 public:
  static constexpr size_t kDefaultCapacity = 16;

  /// `port_base` is the bus base the recorder will be mapped at (it turns
  /// relative offsets back into absolute ports); `env` is the bus whose
  /// step probe stamps each access — pass the `IoBus` the recorder is
  /// mapped on. Both must outlive the recorder.
  FlightRecorder(std::shared_ptr<Device> inner, uint32_t port_base,
                 const minic::IoEnvironment* env,
                 size_t capacity = kDefaultCapacity);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override;  // forwards and clears the ring
  [[nodiscard]] bool damaged() const override { return inner_->damaged(); }
  [[nodiscard]] std::string damage_note() const override {
    return inner_->damage_note();
  }

  /// Transparent in the raise chain: forwards the wiring to the wrapped
  /// device untouched (a FaultInjector inside still splices itself in). The
  /// recorder sees IRQ traffic through the bus observer tap instead, which
  /// is what makes its view post-fault reality — swallowed raises are
  /// invisible, injected spurious raises are recorded.
  void attach_irq(IrqSink* sink, int line) override {
    Device::attach_irq(sink, line);
    inner_->attach_irq(sink, line);
  }

  /// IrqObserver: wire with `bus.set_irq_observer(&recorder)`.
  void irq_event(IrqEventKind kind, int line) override;

  /// The ring never feeds back into behaviour, so the recorder adds only
  /// its event count, with the ring capacity as the count's refill: after
  /// a skip the VM replays enough real cycles to overwrite every slot with
  /// a genuinely recorded, correctly stamped event. Then the inner device.
  [[nodiscard]] bool capture_state(minic::EnvState& out) const override;
  void advance_state(uint64_t cycles, const uint64_t*& deltas) override;

  /// Total bus events seen since the last reset (>= tail().size()).
  [[nodiscard]] uint64_t total_accesses() const { return total_; }
  /// The retained tail, oldest first.
  [[nodiscard]] std::vector<RecordedAccess> tail() const;
  /// Deterministic post-mortem rendering of the tail, one line per event.
  [[nodiscard]] std::string render_tail() const;

  [[nodiscard]] const std::shared_ptr<Device>& inner() const { return inner_; }

 private:
  void record(bool is_write, uint32_t offset, uint32_t value, int width);

  std::shared_ptr<Device> inner_;
  uint32_t port_base_;
  const minic::IoEnvironment* env_;
  std::vector<RecordedAccess> ring_;
  size_t capacity_;
  uint64_t total_ = 0;
};

}  // namespace hw
