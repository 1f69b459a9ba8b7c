// Simulated x86 I/O port bus.
//
// Substitution note (see DESIGN.md §2): the paper boots mutated drivers on
// real hardware. We model the ISA-bus contract the mutants actually interact
// with: I/O to an unmapped port does NOT fault — reads float high (all ones)
// and writes are ignored, exactly as on a PC. This is what makes "poll a
// wrong port" manifest as an infinite loop (status bits stuck at 1) rather
// than a crash, reproducing the paper's outcome distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/irq.h"
#include "minic/interp.h"

namespace hw {

/// Base class for register-level behavioural device models.
class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Reads `width` bits from register at byte offset `offset` within the
  /// device's claimed range.
  virtual uint32_t read(uint32_t offset, int width) = 0;
  virtual void write(uint32_t offset, uint32_t value, int width) = 0;

  /// Returns the device to power-on state (called between mutant runs).
  virtual void reset() = 0;

  /// True when the run left persistent damage (e.g. clobbered partition
  /// table) — the paper's "damaged boot" evidence.
  [[nodiscard]] virtual bool damaged() const { return false; }
  [[nodiscard]] virtual std::string damage_note() const { return {}; }

  /// Wires the device's interrupt output to `sink` on `line` (the bus calls
  /// this from map() when the mapping carries a line; shims override it to
  /// splice themselves into the raise chain). `sink == nullptr` detaches —
  /// device pools detach before recycling so a pooled device can never raise
  /// into a dead bus. Devices that never interrupt simply stay detached and
  /// their raise_irq() calls no-op, which is why polled campaigns are
  /// byte-identical with this model compiled in.
  virtual void attach_irq(IrqSink* sink, int line) {
    irq_sink_ = sink;
    irq_line_ = sink != nullptr ? line : -1;
  }

  /// Loop fast-forward hooks, with minic::IoEnvironment's contract: append
  /// the words that decide the device's future behaviour to `out.key` and
  /// its monotone totals to `out.counters`, or return false to decline. The
  /// default declines, so a model that never implements the pair can never
  /// be skipped over; shims capture themselves and then their inner device.
  [[nodiscard]] virtual bool capture_state(minic::EnvState& out) const {
    (void)out;
    return false;
  }
  /// Advances every counter capture_state appended by `cycles` times its
  /// per-cycle delta, consuming `deltas` in the same order.
  virtual void advance_state(uint64_t cycles, const uint64_t*& deltas) {
    (void)cycles;
    (void)deltas;
  }

 protected:
  /// Raise points inside device models call this (busmouse on motion, IDE on
  /// command completion). No-op until attach_irq() wires a sink.
  void raise_irq() {
    if (irq_sink_ != nullptr && irq_line_ >= 0) {
      irq_sink_->raise_irq(irq_line_, /*delay_steps=*/0, /*genuine=*/true);
    }
  }

  [[nodiscard]] IrqSink* irq_sink() const { return irq_sink_; }
  [[nodiscard]] int irq_line() const { return irq_line_; }

 private:
  IrqSink* irq_sink_ = nullptr;
  int irq_line_ = -1;
};

/// Routes port I/O to mapped devices. Implements minic::IoEnvironment so the
/// interpreter's inb/outb builtins land here, and IrqSink so mapped devices
/// (through any interposed shims) can queue interrupt events for the engines
/// to dispatch at charge-step boundaries.
class IoBus final : public minic::IoEnvironment, public IrqSink {
 public:
  /// Maps [base, base+length) to `dev`. Ranges must not overlap. When
  /// `irq_line >= 0` the device's interrupt output is wired to this bus on
  /// that line (attach_irq through the device, so shims splice in).
  void map(uint32_t base, uint32_t length, std::shared_ptr<Device> dev,
           int irq_line = -1);

  uint32_t io_in(uint32_t port, int width) override;
  void io_out(uint32_t port, uint32_t value, int width) override;

  /// IrqSink: queues the event, deliverable `delay_steps` interpreter steps
  /// from now. Events raised outside a run (e.g. pre-boot pended motion) are
  /// due at step 0.
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override;

  /// IoEnvironment event hooks — drain the controller queue.
  [[nodiscard]] int irq_pending() override;
  void irq_begin(bool handled) override;
  void irq_end() override;

  [[nodiscard]] const IrqController& irq_controller() const { return ctrl_; }

  /// Observer for raised/delivered/dropped transitions (the flight recorder).
  /// Observes post-shim reality: raises a fault injector swallows are never
  /// seen, spurious raises it injects are.
  void set_irq_observer(IrqObserver* obs) { irq_observer_ = obs; }

  /// Loop fast-forward: every mapped device (declining if any does), the
  /// controller (declining while an event is queued) and the unmapped-access
  /// counter. An IRQ observer must itself be a mapped device, so its state
  /// is captured too.
  [[nodiscard]] bool capture_state(minic::EnvState& out) const override;
  void advance_state(uint64_t cycles, const uint64_t*& deltas) override;

  /// Resets every mapped device and clears all pending IRQ state.
  void reset();

  [[nodiscard]] uint64_t unmapped_accesses() const { return unmapped_; }

 private:
  struct Mapping {
    uint32_t base;
    uint32_t length;
    std::shared_ptr<Device> dev;
  };

  Mapping* find(uint32_t port);

  std::vector<Mapping> mappings_;
  uint64_t unmapped_ = 0;
  IrqController ctrl_;
  IrqObserver* irq_observer_ = nullptr;
};

/// One-byte read-only window onto a controller's in-service bitmap,
/// conventionally mapped at kIrqStatusPortBase (0x20 — the 8259 command port
/// a real driver would poll for the in-service register). Reading it is how
/// a CDevil handler detects a spurious interrupt: the line's bit is clear.
/// Writes are ignored.
///
/// Points into the owning bus's controller, so it must be mapped on that bus
/// and torn down with it (the campaign kernels map it per boot and replace
/// the whole bus afterwards).
class IrqStatusPort final : public Device {
 public:
  explicit IrqStatusPort(const IrqController* ctrl) : ctrl_(ctrl) {}

  [[nodiscard]] std::string name() const override { return "irq-status"; }
  uint32_t read(uint32_t offset, int width) override {
    (void)offset;
    (void)width;
    return ctrl_->in_service() & 0xffu;
  }
  void write(uint32_t offset, uint32_t value, int width) override {
    (void)offset;
    (void)value;
    (void)width;
  }
  void reset() override {}
  /// Stateless: the in-service bitmap it shows is the bus controller's,
  /// which the bus captures itself.
  [[nodiscard]] bool capture_state(minic::EnvState& out) const override {
    (void)out;
    return true;
  }

 private:
  const IrqController* ctrl_;
};

}  // namespace hw
