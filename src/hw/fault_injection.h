// Deterministic hardware fault injection on the simulated I/O port bus.
//
// The mutation campaigns hold the hardware fixed and perturb the driver;
// this layer runs the dual experiment: the driver stays clean and the
// *device* misbehaves. A `FaultPlan` describes one scenario — which port is
// faulty, what kind of fault, and on which matching access it arms — and a
// `FaultInjector` wraps any `hw::Device` behind the same `hw::IoBus`
// interface, so both execution engines (bytecode VM and tree walker)
// observe identical faulted traffic with zero engine-specific code.
//
// Everything is counter-triggered and state-free beyond the counters, so a
// scenario is exactly reproducible: the k-th matching access faults, every
// run, on every engine, at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/io_bus.h"

namespace hw {

/// The modelled hardware misbehaviours. Read faults tamper with (or bypass)
/// device reads; `kDropWrite` is the only write-side fault; the event kinds
/// perturb the interrupt chain instead of port traffic.
enum class FaultKind {
  kStuckZero,    // masked bits read as 0 from the trigger onward
  kStuckOne,     // masked bits read as 1 from the trigger onward
  kFlipOnce,     // masked bits invert on exactly the trigger-th read
  kDropWrite,    // exactly the trigger-th write to the port is lost
  kFloatingBus,  // reads float high (all ones) from the trigger onward;
                 // the device is no longer consulted (unplugged card)
  kNeverReady,   // reads return a frozen constant from the trigger onward;
                 // the device is no longer consulted (wedged status)
  kLostIrq,      // the trigger-th genuine raise on the line is swallowed
  kSpuriousIrq,  // the trigger-th device access injects a spurious raise
                 // (delivered, but the in-service bit never latches)
  kIrqStorm,     // the trigger-th genuine raise repeats `value` times
  kDelayIrq,     // the trigger-th genuine raise is postponed `value` steps
};

/// Short stable name used in artifacts and reports ("stuck0", "flip", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// One fault scenario. `after` counts matching-direction accesses to `port`
/// that pass through unfaulted before the fault arms: `after == 0` faults
/// the first matching access, `after == 2` the third. For the persistent
/// kinds (stuck bits, floating bus, never-ready) every later matching
/// access stays faulted; `kFlipOnce` and `kDropWrite` hit exactly one.
///
/// Event kinds reinterpret the fields: `port` names the IRQ line, `after`
/// counts genuine raises on that line (kSpuriousIrq: device accesses of
/// either direction to any register), and `value` carries the storm repeat
/// count / delivery delay in steps.
struct FaultPlan {
  uint32_t port = 0;
  FaultKind kind = FaultKind::kStuckZero;
  uint32_t after = 0;
  /// Bit mask for the stuck/flip kinds; ignored by the others.
  uint32_t mask = 0;
  /// Frozen read value for kNeverReady; storm repeats for kIrqStorm; delay
  /// steps for kDelayIrq; ignored by the others.
  uint32_t value = 0;

  /// True for the kinds that perturb the interrupt chain, not port traffic.
  [[nodiscard]] bool is_event_fault() const {
    return kind == FaultKind::kLostIrq || kind == FaultKind::kSpuriousIrq ||
           kind == FaultKind::kIrqStorm || kind == FaultKind::kDelayIrq;
  }

  /// True for every kind that tampers with reads.
  [[nodiscard]] bool is_read_fault() const {
    return kind != FaultKind::kDropWrite && !is_event_fault();
  }

  /// Human-readable one-liner ("stuck1 mask 0x80 at port 0x1f7 after 2").
  [[nodiscard]] std::string describe() const;
};

/// Injection shim: a `Device` that forwards to the wrapped device except
/// where the plan says otherwise. Map the injector on the bus in place of
/// the device it wraps (same base, same span); register offsets pass
/// through unchanged, so the wrapped model never knows it is shimmed.
///
/// `name`/`damaged`/`damage_note` forward to the wrapped device, so damage
/// reports look identical with and without the shim. `reset()` forwards and
/// re-arms the counters, which keeps a shimmed device recyclable through
/// `hw::DevicePool` exactly like a bare one.
///
/// The injector also splices itself into the interrupt raise chain: when the
/// bus wires a line (attach_irq), the injector becomes the wrapped device's
/// sink — lost/storm/delay faults tamper with genuine raises in flight, and
/// spurious faults inject a non-genuine raise on the trigger-th device
/// access. Everything downstream (bus queue, observer, engines) sees only
/// post-fault reality.
class FaultInjector final : public Device, public IrqSink {
 public:
  /// `port_base` is the bus base the injector will be mapped at; it turns
  /// the relative offsets of read/write back into absolute ports so plans
  /// can name ports the way the CLI and reports do.
  FaultInjector(std::shared_ptr<Device> inner, uint32_t port_base,
                FaultPlan plan);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override;
  [[nodiscard]] bool damaged() const override { return inner_->damaged(); }
  [[nodiscard]] std::string damage_note() const override {
    return inner_->damage_note();
  }

  /// Splices into the raise chain: remembers `sink` as the forward target
  /// and re-points the wrapped device at this shim.
  void attach_irq(IrqSink* sink, int line) override;
  /// IrqSink: applies the event-fault logic to genuine raises on the target
  /// line; everything else forwards unchanged.
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override;

  /// The trigger counters enter the key saturated at `after + 1` (past the
  /// trigger every later access behaves alike) and advance as counters,
  /// like `fired_`; then the wrapped device's state.
  [[nodiscard]] bool capture_state(minic::EnvState& out) const override;
  void advance_state(uint64_t cycles, const uint64_t*& deltas) override;

  /// Matching-direction accesses to the target port seen so far.
  [[nodiscard]] uint64_t matched() const { return matched_; }
  /// Accesses actually faulted. 0 means the scenario never triggered (the
  /// boot finished before the trigger offset was reached).
  [[nodiscard]] uint64_t fired() const { return fired_; }
  [[nodiscard]] const std::shared_ptr<Device>& inner() const { return inner_; }

 private:
  void maybe_inject_spurious();

  std::shared_ptr<Device> inner_;
  uint32_t port_base_;
  FaultPlan plan_;
  uint64_t matched_ = 0;
  uint64_t fired_ = 0;
  uint64_t raise_seq_ = 0;   // genuine raises seen on the target line
  uint64_t access_seq_ = 0;  // device accesses seen (spurious trigger)
};

/// What one golden boot proves about a fault plan (FaultCensus::verdict).
enum class CensusVerdict {
  kBoots,       // no proof: the scenario must boot
  kNeverFires,  // the trigger lies past the golden boot
  kAbsorbed,    // a stuck-at fault fires, on reads already holding its bits
};

/// A golden (fault-free) boot's tally of everything a FaultInjector's
/// trigger counts, over [port_base, port_base + span): until its fault
/// fires, a scenario boots exactly like it. Fixed-size, O(1) verdict.
struct FaultCensus {
  struct Port {
    uint64_t reads = 0;
    uint64_t writes = 0;
    /// Per low-byte bit, the read count just past the last read a stuck-at-0
    /// (the bit was set) or a stuck-at-1 (the bit was clear, or the value
    /// wider than the access, which stuck-at-1 truncates) would change.
    std::array<uint64_t, 8> set_end{};
    std::array<uint64_t, 8> clear_end{};
  };

  FaultCensus(uint32_t base, size_t span) : port_base(base), ports(span) {}
  /// Default-deny: kBoots for a port outside the window, a line >= 8, a
  /// stuck-at mask outside the low byte, and every fired non-stuck-at plan.
  [[nodiscard]] CensusVerdict verdict(const FaultPlan& plan) const;

  uint32_t port_base;
  std::vector<Port> ports;  // per window offset
  uint64_t irq_accesses = 0;  // access_seq_, counted while the IRQ is wired
  std::array<uint64_t, IrqController::kLines> raises{};  // raise_seq_
};

/// Pass-through shim tallying `*census` (which outlives it), mapped where a
/// scenario maps its FaultInjector: innermost, same window and IRQ wiring.
/// It declines capture_state, so the boot it watches is stepped in full.
class CensusShim final : public Device, public IrqSink {
 public:
  CensusShim(std::shared_ptr<Device> inner, FaultCensus* census)
      : inner_(std::move(inner)), census_(census) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  uint32_t read(uint32_t offset, int width) override;
  void write(uint32_t offset, uint32_t value, int width) override;
  void reset() override {  // forwards, and zeroes the census
    inner_->reset();
    *census_ = FaultCensus(census_->port_base, census_->ports.size());
  }
  [[nodiscard]] bool damaged() const override { return inner_->damaged(); }
  [[nodiscard]] std::string damage_note() const override {
    return inner_->damage_note();
  }
  void attach_irq(IrqSink* sink, int line) override {  // as the injector's
    Device::attach_irq(sink, line);
    inner_->attach_irq(sink != nullptr ? this : nullptr, line);
  }
  void raise_irq(int line, uint64_t delay_steps, bool genuine) override;

 private:
  std::shared_ptr<Device> inner_;
  FaultCensus* census_;
};

}  // namespace hw
