// Bytecode virtual machine for MiniC. Drop-in replacement for the tree
// walker (`minic::Interp`): identical RunOutcome for any typechecked unit —
// same fault kind and message, return value, step count, coverage bitmap
// and printk log. The differential suite (tests/test_bytecode_vm.cc)
// enforces the equivalence over the corpus drivers, the Devil-generated
// stubs and sampled mutants.
//
// Loop fast-forward: a boot that has used kFastForwardAfter steps runs
// Brent's cycle finder over its exact machine state at every taken
// backward jump. The state is the function, pc, call stack, depth, the
// stored-value latch, every live register and global, the IRQ handler
// table, the printk length and the environment's capture_state (which
// declines by default). A cheap head (function, pc, latch, depth, log
// length, the top frame's integers) filters candidates before the full
// comparison. When the state repeats with period L, whole cycles are
// accounted without executing them: the step budget drops by k·L and the
// environment's counters advance by k times their per-cycle growth, where
// k leaves the final partial cycle plus the refill cycles a flight
// recorder asks for to run for real. The record is byte-identical to
// stepping (tests/test_loop_fast_forward.cc checks it against the walker,
// which never skips). No fast-forward while profiling opcodes or inside an
// IRQ handler, whose interrupted caller's pc lives on the C++ stack.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "minic/bytecode/bytecode.h"
#include "minic/interp.h"

namespace minic::bytecode {

class Vm {
 public:
  /// `module` and `io` must outlive the Vm.
  Vm(const Module& module, IoEnvironment& io, uint64_t step_budget = 2'000'000);

  /// (Re)initialises globals, then calls `entry` (no arguments). Returns
  /// the outcome; never throws.
  [[nodiscard]] RunOutcome run(const std::string& entry);

  /// Optional per-opcode dispatch profile: when set before run(), every
  /// dispatched instruction bumps `profile->counts[op]`. The counting and
  /// non-counting dispatch loops are separate template instantiations, so
  /// runs with the profile unset (every campaign mutant boot) pay nothing.
  void set_opcode_profile(OpcodeProfile* profile) { profile_ = profile; }

  /// Wall-clock cap per run (kWatchdog fault when exceeded; checked every
  /// 2^20 retired charges). 0 (the default) disables it. Mirrors
  /// Interp::set_watchdog_ms.
  void set_watchdog_ms(uint64_t ms) { watchdog_ms_ = ms; }

  /// Steps a boot retires before back edges look for repeats: above the
  /// largest clean corpus boot (CDevil IDE, 44,977), so those never pay.
  static constexpr uint64_t kFastForwardAfter = uint64_t{1} << 16;

 private:
  /// Interrupt lines modelled; mirrors the walker's kIrqLines and
  /// hw::IrqController::kLines.
  static constexpr int kIrqLines = 8;

  struct Activation {
    const CompiledFunction* fn;
    size_t pc;
    uint16_t dst;

    friend bool operator==(const Activation&, const Activation&) = default;
  };
  /// The machine state at one back edge: Brent's saved tortoise.
  struct LoopState {
    const CompiledFunction* fn = nullptr;
    size_t pc = 0;
    int64_t stored = 0;
    int depth = 0;
    size_t log_size = 0;
    uint64_t steps_left = 0;
    std::vector<Activation> calls;
    std::vector<std::vector<VmValue>> frames;  // each frame's live registers
    std::vector<VmValue> globals;
    std::array<const CompiledFunction*, kIrqLines> irq_handlers{};
    EnvState env;
  };

  /// Runs `fn` to its return on a fresh frame and returns the integer
  /// result (the only part of a returned value the entry's and the
  /// handlers' callers read).
  template <bool kProfile>
  int64_t exec(const CompiledFunction& fn, bool counts_depth,
               RunOutcome& out);
  template <bool kProfile>
  void run_body(const std::string& entry, RunOutcome& out);
  /// Drains deliverable IRQ events at an I/O charge boundary; dispatches
  /// registered handlers as recursive exec calls (handlers run to
  /// completion — no nesting).
  template <bool kProfile>
  void poll_irqs(RunOutcome& out);
  void check_watchdog();
  /// Loop fast-forward at a taken backward jump to `pc` in `fn`.
  void on_back_edge(const CompiledFunction* fn, size_t pc,
                    const RunOutcome& out);
  [[nodiscard]] bool capture_loop_state(const CompiledFunction* fn, size_t pc,
                                        const RunOutcome& out);
  [[nodiscard]] bool repeats_tortoise(const CompiledFunction* fn, size_t pc,
                                      const RunOutcome& out);
  void skip_cycles();
  /// Makes the next frame live for `fn` (reusing the register vector
  /// already at that depth), binds its parameters from the caller's
  /// registers at `argbase`, and returns its registers.
  VmValue* push_frame(const CompiledFunction& fn, const VmValue* caller_regs,
                      uint32_t argbase);

  const Module& mod_;
  IoEnvironment& io_;
  uint64_t budget_;
  uint64_t steps_left_ = 0;
  int depth_ = 0;
  /// The value committed by the most recent store opcode; kTakeStored
  /// materialises it when an assignment is consumed as an expression.
  int64_t stored_ = 0;
  /// One flat register vector per call depth. The stack only grows: the
  /// first `live_frames_` vectors belong to live activations, and a call
  /// reuses the vector at its depth in place, so a warm call allocates
  /// nothing. A reused vector keeps its previous occupant's payloads (and a
  /// returning callee's result register holds its caller's old
  /// destination); the lowering writes every register before reading it,
  /// and push_frame zeroes the slots' integers as the walker's fresh frame
  /// does.
  std::vector<std::vector<VmValue>> frames_;
  size_t live_frames_ = 0;
  std::vector<Activation> calls_;
  std::vector<VmValue> globals_;
  OpcodeProfile* profile_ = nullptr;
  /// Interrupt handlers by line (request_irq); null = acknowledge-and-drop.
  std::array<const CompiledFunction*, kIrqLines> irq_handlers_{};
  /// True while a handler runs: handlers complete before the next delivery.
  bool in_irq_ = false;
  /// Wall-clock boot containment; 0 disables (the default).
  uint64_t watchdog_ms_ = 0;
  std::chrono::steady_clock::time_point watchdog_deadline_{};
  /// Loop fast-forward: back edges look for repeats while steps_left_ is
  /// below this (0 once a run skipped or refused to).
  uint64_t ff_below_ = 0;
  LoopState tortoise_;
  bool have_tortoise_ = false;
  uint64_t brent_power_ = 1;
  uint64_t brent_lam_ = 1;
  EnvState env_now_;  // the hare's environment, compared against tortoise_
  uint64_t skipped_ = 0;
};

}  // namespace minic::bytecode
