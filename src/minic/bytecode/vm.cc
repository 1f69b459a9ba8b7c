// Threaded dispatch loop for the MiniC bytecode. Every arithmetic, fault and
// coercion rule here is a transliteration of the tree walker's (interp.cc);
// messages must stay byte-identical — the campaign records carry them.
#include "minic/bytecode/vm.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "support/strings.h"

namespace minic::bytecode {

namespace {

/// minic::coerce_int, for the packed descriptor (bits | signed<<7).
int64_t coerce(int64_t v, uint8_t pack) {
  int bits = pack & 0x7f;
  if (bits == 0) return v;
  uint64_t mask = (uint64_t{1} << bits) - 1;
  uint64_t u = static_cast<uint64_t>(v) & mask;
  if ((pack & 0x80) != 0 && ((u >> (bits - 1)) & 1)) u |= ~mask;
  return static_cast<int64_t>(u);
}

/// The walker's apply_binop, including its fault messages and the logical
/// 32-bit right shift for hardware register values.
int64_t apply_binop(Tok op, int64_t a, int64_t b) {
  switch (op) {
    case Tok::kPlus: return a + b;
    case Tok::kMinus: return a - b;
    case Tok::kStar: return a * b;
    case Tok::kSlash:
      if (b == 0) throw Fault{FaultKind::kDivByZero, "division by zero"};
      return a / b;
    case Tok::kPercent:
      if (b == 0) throw Fault{FaultKind::kDivByZero, "modulo by zero"};
      return a % b;
    case Tok::kAmp: return a & b;
    case Tok::kPipe: return a | b;
    case Tok::kCaret: return a ^ b;
    case Tok::kShl:
      if (b < 0 || b > 63) return 0;
      return static_cast<int64_t>(static_cast<uint64_t>(a) << b);
    case Tok::kShr:
      if (b < 0 || b > 63) return 0;
      return static_cast<int64_t>((static_cast<uint64_t>(a) & 0xffffffffULL) >>
                                  static_cast<uint64_t>(b));
    case Tok::kEq: return a == b;
    case Tok::kNe: return a != b;
    case Tok::kLt: return a < b;
    case Tok::kGt: return a > b;
    case Tok::kLe: return a <= b;
    case Tok::kGe: return a >= b;
    default:
      throw Fault{FaultKind::kInternal, "bad binary op"};
  }
}

[[noreturn]] void throw_step_limit(uint32_t line) {
  throw Fault{FaultKind::kStepLimit,
              "step budget exhausted at line " + std::to_string(line)};
}

constexpr int kMaxCallDepth = 128;  // == the walker's limit

const std::string& empty_string() {
  static const std::string empty;
  return empty;
}

}  // namespace

Vm::Vm(const Module& module, IoEnvironment& io, uint64_t step_budget)
    : mod_(module), io_(io), budget_(step_budget) {}

VmValue* Vm::push_frame(const CompiledFunction& fn,
                        const VmValue* caller_regs, uint32_t argbase) {
  if (live_frames_ == frames_.size()) frames_.emplace_back();
  std::vector<VmValue>& frame = frames_[live_frames_++];
  if (frame.size() < fn.nregs) frame.resize(fn.nregs);
  VmValue* regs = frame.data();
  // The walker's fresh frame defaults every slot to integer 0; temporaries
  // are always written before they are read, so only slots need zeroing.
  for (uint32_t i = 0; i < fn.nslots; ++i) regs[i].i = 0;
  for (size_t i = 0; i < fn.params.size() && i < fn.nslots; ++i) {
    const ParamSpec& ps = fn.params[i];
    if (caller_regs) {
      const VmValue& arg = caller_regs[argbase + i];
      switch (ps.kind) {
        case ParamSpec::Kind::kInt:
          regs[i].i = coerce(arg.i, ps.coerce);
          break;
        case ParamSpec::Kind::kStr:
          regs[i].s = arg.s;
          break;
        case ParamSpec::Kind::kStruct:
          regs[i].fields = arg.fields;
          break;
      }
    } else if (ps.kind != ParamSpec::Kind::kInt) {
      // Entry called without arguments: non-integer params default clean
      // (a reused frame may hold stale payloads).
      regs[i].s.clear();
      regs[i].fields.clear();
    }
  }
  return regs;
}

void Vm::check_watchdog() {
  if (std::chrono::steady_clock::now() >= watchdog_deadline_) {
    throw Fault{FaultKind::kWatchdog,
                "watchdog: boot exceeded " + std::to_string(watchdog_ms_) +
                    " ms wall-clock cap"};
  }
}

bool Vm::capture_loop_state(const CompiledFunction* fn, size_t pc,
                            const RunOutcome& out) {
  LoopState& s = tortoise_;
  // Only a top-level activation chain (entry or globals initialiser) has
  // its whole continuation in frames_/calls_.
  if (live_frames_ != calls_.size() + 1) return false;
  s.env.clear();
  if (!io_.capture_state(s.env)) return false;
  s.fn = fn;
  s.pc = pc;
  s.stored = stored_;
  s.depth = depth_;
  s.log_size = out.log.size();
  s.steps_left = steps_left_;
  s.calls = calls_;
  s.frames.resize(live_frames_);
  for (size_t f = 0; f < live_frames_; ++f) {
    // Frame f belongs to the caller saved in calls_[f]; the top one to fn.
    const uint32_t live = (f < calls_.size() ? calls_[f].fn : fn)->nregs;
    s.frames[f].assign(frames_[f].begin(), frames_[f].begin() + live);
  }
  s.globals = globals_;
  s.irq_handlers = irq_handlers_;
  return true;
}

bool Vm::repeats_tortoise(const CompiledFunction* fn, size_t pc,
                          const RunOutcome& out) {
  const LoopState& s = tortoise_;
  // The cheap head: a loop that grows a local or the log fails here.
  if (s.fn != fn || s.pc != pc || s.stored != stored_ || s.depth != depth_ ||
      s.log_size != out.log.size() || s.calls.size() != calls_.size() ||
      live_frames_ != calls_.size() + 1) {
    return false;
  }
  const VmValue* top = frames_[live_frames_ - 1].data();
  const std::vector<VmValue>& top_then = s.frames.back();
  for (uint32_t r = 0; r < fn->nregs; ++r) {
    if (top_then[r].i != top[r].i) return false;
  }
  // The full state.
  if (s.calls != calls_ || s.irq_handlers != irq_handlers_ ||
      s.globals != globals_) {
    return false;
  }
  for (size_t f = 0; f < live_frames_; ++f) {
    if (!std::equal(s.frames[f].begin(), s.frames[f].end(),
                    frames_[f].begin())) {
      return false;
    }
  }
  env_now_.clear();
  return io_.capture_state(env_now_) && env_now_.key == s.env.key &&
         env_now_.counters.size() == s.env.counters.size();
}

void Vm::skip_cycles() {
  // Whatever happens here, this run never looks again: after a skip the
  // replay cycles must execute for real.
  ff_below_ = 0;
  const uint64_t period = tortoise_.steps_left - steps_left_;
  if (period == 0) return;  // a charge-free cycle: only the watchdog ends it
  const std::vector<EnvState::Counter>& then = tortoise_.env.counters;
  const std::vector<EnvState::Counter>& now = env_now_.counters;
  std::vector<uint64_t> deltas(now.size());
  uint64_t replay = 0;
  for (size_t i = 0; i < now.size(); ++i) {
    if (now[i].value < then[i].value) return;  // not monotone
    deltas[i] = now[i].value - then[i].value;
    if (deltas[i] != 0 && now[i].refill != 0) {
      replay = std::max(replay, (now[i].refill + deltas[i] - 1) / deltas[i]);
    }
  }
  const uint64_t whole = steps_left_ / period;
  if (whole <= replay) return;
  const uint64_t cycles = whole - replay;
  for (size_t i = 0; i < now.size(); ++i) {
    // A wrapped counter would read as a small one (a fault injector's
    // fired count as "never triggered"): refuse the skip instead.
    if (deltas[i] != 0 &&
        cycles > (std::numeric_limits<uint64_t>::max() - now[i].value) /
                     deltas[i]) {
      return;
    }
  }
  steps_left_ -= cycles * period;
  skipped_ = cycles * period;
  const uint64_t* cursor = deltas.data();
  io_.advance_state(cycles, cursor);
}

void Vm::on_back_edge(const CompiledFunction* fn, size_t pc,
                      const RunOutcome& out) {
  if (in_irq_) return;
  if (have_tortoise_ && repeats_tortoise(fn, pc, out)) {
    skip_cycles();
    return;
  }
  // Brent: the tortoise jumps to the hare whenever the search distance
  // reaches the next power of two.
  if (brent_lam_ == brent_power_) {
    have_tortoise_ = capture_loop_state(fn, pc, out);
    brent_power_ *= 2;
    brent_lam_ = 0;
  }
  ++brent_lam_;
}

template <bool kProfile>
void Vm::poll_irqs(RunOutcome& out) {
  if (in_irq_) return;
  for (;;) {
    int line = io_.irq_pending();
    if (line < 0) return;
    const CompiledFunction* h =
        line < kIrqLines ? irq_handlers_[static_cast<size_t>(line)] : nullptr;
    if (h == nullptr) {
      io_.irq_begin(false);  // no handler registered: acknowledge and drop
      continue;
    }
    io_.irq_begin(true);
    in_irq_ = true;
    // Recursive exec is safe mid-dispatch: the handler's frames sit above
    // the interrupted ones, and the interrupted code's register pointer
    // aims into its frame's heap buffer, which stays put when frames_
    // itself grows (vectors move by buffer ownership).
    exec<kProfile>(*h, /*counts_depth=*/true, out);
    in_irq_ = false;
    io_.irq_end();
  }
}

template <bool kProfile>
int64_t Vm::exec(const CompiledFunction& entry_fn, bool counts_depth,
                 RunOutcome& out) {
  // Direct threading: every handler ends in its own fetch and indirect
  // jump through this table, which is expanded from the opcode list in
  // enum order.
  static const void* const kHandlers[] = {
#define MINIC_VM_HANDLER(name) &&op_##name,
      MINIC_BYTECODE_OPCODES(MINIC_VM_HANDLER)
#undef MINIC_VM_HANDLER
  };
  static_assert(std::size(kHandlers) == kOpCount);

  if (counts_depth && ++depth_ > kMaxCallDepth) {
    throw Fault{FaultKind::kStackOverflow,
                "call depth exceeded in " + entry_fn.name};
  }
  const size_t base_calls = calls_.size();
  const CompiledFunction* fn = &entry_fn;
  const Insn* code = fn->code.data();
  size_t pc = 0;
  VmValue* R = push_frame(entry_fn, nullptr, 0);
  VmValue* G = globals_.data();
  const Insn* in = nullptr;

// Fetches the next instruction, counts it when profiling, and jumps to its
// handler.
#define DISPATCH()                                                       \
  do {                                                                   \
    in = &code[pc++];                                                    \
    if constexpr (kProfile) {                                            \
      ++profile_->counts[static_cast<size_t>(in->op)];                   \
    }                                                                    \
    goto* kHandlers[static_cast<size_t>(in->op)];                        \
  } while (0)
// The trailing mask check mirrors the walker's step(): an out-of-line
// wall-clock watchdog probe every 2^20 retired charges (never on the
// fast path when the watchdog is off).
#define CHARGE(ln)                                                       \
  do {                                                                   \
    if (steps_left_ == 0) {                                              \
      throw_step_limit(ln);                                              \
    }                                                                    \
    --steps_left_;                                                       \
    if ((steps_left_ & 0xfffff) == 0 && watchdog_ms_ != 0) {             \
      check_watchdog();                                                  \
    }                                                                    \
  } while (0)
// Charge unless the instruction was marked free (its node's charge was
// already emitted as an explicit pre-order kStep).
#define CHG()                                                            \
  do {                                                                   \
    if (in->flags == 0) CHARGE(in->line);                                \
  } while (0)
// A taken jump to `target`: when it goes backward (a loop iteration ends)
// past the fast-forward threshold, look for an exact repeat first. `pc`
// already points past the jump.
#define JUMP_TO(target)                                                  \
  do {                                                                   \
    const size_t to = static_cast<size_t>(target);                       \
    if constexpr (!kProfile) {                                           \
      if (to < pc && steps_left_ < ff_below_) on_back_edge(fn, to, out); \
    }                                                                    \
    pc = to;                                                             \
  } while (0)

  DISPATCH();

  // --- statement accounting ------------------------------------------
  op_Step:
    CHG();
    DISPATCH();
  op_StepMark:
    CHG();
    out.executed.set(in->line);
    DISPATCH();
  op_StepStepMark:
    CHG();
    CHARGE(static_cast<uint32_t>(in->imm));
    out.executed.set(static_cast<uint32_t>(in->imm));
    DISPATCH();
  op_StepJump:
    CHG();
    JUMP_TO(in->imm);
    DISPATCH();
  op_Mark:
    out.executed.set(in->line);
    DISPATCH();
  // --- control flow ---------------------------------------------------
  op_Jump:
    JUMP_TO(in->imm);
    DISPATCH();
  op_JumpIfZero:
    if (R[in->a].i == 0) pc = static_cast<size_t>(in->imm);
    DISPATCH();
  op_JumpIfNotZero:
    if (R[in->a].i != 0) JUMP_TO(in->imm);
    DISPATCH();
  op_JumpIfEqual:
    if (R[in->a].i == R[in->b].i) pc = static_cast<size_t>(in->imm);
    DISPATCH();
  op_CaseTest:
    // Walker order: the case label is marked, then the (constant) value
    // evaluation charges — a budget fault still leaves the mark.
    out.executed.set(in->line);
    CHG();
    R[in->b].i = R[in->a].i == in->imm ? 1 : 0;
    DISPATCH();
  op_CondJumpZero:
    CHG();
    if (R[in->a].i == 0) pc = static_cast<size_t>(in->imm);
    DISPATCH();
  op_AndJump:
    CHG();
    if (R[in->b].i == 0) {
      R[in->a].i = 0;
      pc = static_cast<size_t>(in->imm);
    }
    DISPATCH();
  op_OrJump:
    CHG();
    if (R[in->b].i != 0) {
      R[in->a].i = 1;
      pc = static_cast<size_t>(in->imm);
    }
    DISPATCH();
  op_BoolNorm:
    R[in->a].i = R[in->b].i != 0 ? 1 : 0;
    DISPATCH();
  // --- loads / moves --------------------------------------------------
  op_LoadConst:
    CHG();
    R[in->a].i = in->imm;
    DISPATCH();
  op_LoadStr:
    CHG();
    R[in->a].i = 0;
    R[in->a].s = mod_.str(static_cast<size_t>(in->imm));
    DISPATCH();
  op_MoveInt:
    CHG();
    R[in->a].i = R[in->b].i;
    DISPATCH();
  op_MoveStr:
    CHG();
    R[in->a].i = 0;
    R[in->a].s = R[in->b].s;
    DISPATCH();
  op_MoveStruct:
    CHG();
    R[in->a].i = 0;
    R[in->a].fields = R[in->b].fields;
    DISPATCH();
  op_CopyInt:
    R[in->a].i = R[in->b].i;
    DISPATCH();
  op_CopyStr:
    R[in->a].s = R[in->b].s;
    DISPATCH();
  op_CopyStruct:
    R[in->a].fields = R[in->b].fields;
    DISPATCH();
  op_LoadGlobalInt:
    CHG();
    R[in->a].i = G[in->b].i;
    DISPATCH();
  op_LoadGlobalStr:
    CHG();
    R[in->a].i = 0;
    R[in->a].s = G[in->b].s;
    DISPATCH();
  op_LoadGlobalStruct:
    CHG();
    R[in->a].i = 0;
    R[in->a].fields = G[in->b].fields;
    DISPATCH();
  op_LoadElemLocal:
  op_LoadElemGlobal: {
    CHG();
    const VmValue& slot = in->op == Op::kLoadElemLocal ? R[in->b] : G[in->b];
    int64_t ix = R[in->c].i;
    if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
      throw Fault{FaultKind::kBadIndex,
                  "out-of-bounds access to " +
                      mod_.str(static_cast<size_t>(in->imm))};
    }
    R[in->a].i = slot.arr[static_cast<size_t>(ix)];
    DISPATCH();
  }
  op_GetFieldInt: {
    CHG();
    const auto& f = R[in->b].fields;
    R[in->a].i = in->c < f.size() ? f[in->c].i : 0;
    DISPATCH();
  }
  op_GetFieldStr: {
    CHG();
    const auto& f = R[in->b].fields;
    R[in->a].i = 0;
    if (in->c < f.size()) {
      R[in->a].s = f[in->c].s;
    } else {
      R[in->a].s.clear();
    }
    DISPATCH();
  }
  op_GetFieldStruct: {
    CHG();
    R[in->a].i = 0;
    if (in->c < R[in->b].fields.size()) {
      // Self-aliasing is impossible: the destination temporary is
      // always distinct from the base register (compiler invariant).
      R[in->a].fields = R[in->b].fields[in->c].fields;
    } else {
      R[in->a].fields.clear();
    }
    DISPATCH();
  }
  op_TakeStored:
    R[in->a].i = stored_;
    DISPATCH();
  // --- arithmetic -----------------------------------------------------
  op_Neg:
    CHG();
    R[in->a].i = -R[in->b].i;
    DISPATCH();
  op_BitNot:
    CHG();
    R[in->a].i = ~R[in->b].i;
    DISPATCH();
  op_LogNot:
    CHG();
    R[in->a].i = R[in->b].i == 0 ? 1 : 0;
    DISPATCH();
  op_Add:
    CHG();
    R[in->a].i = R[in->b].i + R[in->c].i;
    DISPATCH();
  op_Sub:
    CHG();
    R[in->a].i = R[in->b].i - R[in->c].i;
    DISPATCH();
  op_Mul:
    CHG();
    R[in->a].i = R[in->b].i * R[in->c].i;
    DISPATCH();
  op_Div:
    CHG();
    if (R[in->c].i == 0) {
      throw Fault{FaultKind::kDivByZero, "division by zero"};
    }
    R[in->a].i = R[in->b].i / R[in->c].i;
    DISPATCH();
  op_Mod:
    CHG();
    if (R[in->c].i == 0) {
      throw Fault{FaultKind::kDivByZero, "modulo by zero"};
    }
    R[in->a].i = R[in->b].i % R[in->c].i;
    DISPATCH();
  op_BitAnd:
    CHG();
    R[in->a].i = R[in->b].i & R[in->c].i;
    DISPATCH();
  op_BitOr:
    CHG();
    R[in->a].i = R[in->b].i | R[in->c].i;
    DISPATCH();
  op_BitXor:
    CHG();
    R[in->a].i = R[in->b].i ^ R[in->c].i;
    DISPATCH();
  op_Shl:
    CHG();
    R[in->a].i = apply_binop(Tok::kShl, R[in->b].i, R[in->c].i);
    DISPATCH();
  op_Shr:
    CHG();
    R[in->a].i = apply_binop(Tok::kShr, R[in->b].i, R[in->c].i);
    DISPATCH();
  op_CmpEq:
    CHG();
    R[in->a].i = R[in->b].i == R[in->c].i;
    DISPATCH();
  op_CmpNe:
    CHG();
    R[in->a].i = R[in->b].i != R[in->c].i;
    DISPATCH();
  op_CmpLt:
    CHG();
    R[in->a].i = R[in->b].i < R[in->c].i;
    DISPATCH();
  op_CmpGt:
    CHG();
    R[in->a].i = R[in->b].i > R[in->c].i;
    DISPATCH();
  op_CmpLe:
    CHG();
    R[in->a].i = R[in->b].i <= R[in->c].i;
    DISPATCH();
  op_CmpGe:
    CHG();
    R[in->a].i = R[in->b].i >= R[in->c].i;
    DISPATCH();
  op_BinImm:
    CHG();
    CHG();
    R[in->a].i = apply_binop(static_cast<Tok>(in->w), R[in->b].i, in->imm);
    DISPATCH();
  // Compare+branch superinstructions: the producer's charges, then the
  // jump-if-zero, with the dead result register never written.
  op_BinJump:
    CHG();
    if (apply_binop(static_cast<Tok>(in->w), R[in->b].i, R[in->c].i) == 0) {
      pc = static_cast<size_t>(in->imm);
    }
    DISPATCH();
  op_BinImmJump:
    CHG();
    CHG();
    if (apply_binop(static_cast<Tok>(in->w), R[in->b].i,
                    static_cast<int64_t>(in->c)) == 0) {
      pc = static_cast<size_t>(in->imm);
    }
    DISPATCH();
  // Fused `inb(PORT) & MASK`, optionally with the statement's step+mark
  // (kPollInAnd takes those, then runs on into kInConstAnd). Charge order
  // mirrors the walker exactly: the I/O lands after the port literal's
  // charge and before the mask literal's, so a budget fault between them
  // leaves identical device state.
  op_PollInAnd:
    CHARGE(in->line);
    out.executed.set(in->line);
  op_InConstAnd: {
    CHARGE(in->line);
    CHARGE(in->line);
    CHARGE(in->line);
    uint64_t packed = static_cast<uint64_t>(in->imm);
    uint32_t value =
        io_.io_in(static_cast<uint32_t>(packed & 0xffffffffu), in->w);
    poll_irqs<kProfile>(out);  // walker polls on io_in return, pre-mask
    CHARGE(in->line);
    R[in->a].i = static_cast<int64_t>(value & (packed >> 32));
    DISPATCH();
  }
  op_StoreSlotBinImm:
    // Fused `n = m <op> LIT`: assignment, operator, identifier and
    // literal charges, then the coerced store.
    CHARGE(in->line);
    CHARGE(in->line);
    CHARGE(in->line);
    CHARGE(in->line);
    stored_ = R[in->a].i = coerce(
        apply_binop(static_cast<Tok>(in->w), R[in->b].i, in->imm),
        static_cast<uint8_t>(in->c));
    DISPATCH();
  op_Coerce:
    CHG();
    R[in->a].i = coerce(R[in->b].i, in->w);
    DISPATCH();
  // --- stores ---------------------------------------------------------
  op_StoreLocalInt:
    CHG();
    stored_ = R[in->a].i = coerce(R[in->b].i, in->w);
    DISPATCH();
  op_StoreGlobalInt:
    CHG();
    stored_ = G[in->a].i = coerce(R[in->b].i, in->w);
    DISPATCH();
  op_StoreLocalStr:
    CHG();
    R[in->a].s = R[in->b].s;
    DISPATCH();
  op_StoreGlobalStr:
    CHG();
    G[in->a].s = R[in->b].s;
    DISPATCH();
  op_StoreLocalStruct:
    CHG();
    R[in->a].fields = R[in->b].fields;
    DISPATCH();
  op_StoreGlobalStruct:
    CHG();
    G[in->a].fields = R[in->b].fields;
    DISPATCH();
  op_OpStoreLocal:
    CHG();
    stored_ = R[in->a].i = coerce(
        apply_binop(static_cast<Tok>(in->c), R[in->a].i, R[in->b].i), in->w);
    DISPATCH();
  op_OpStoreGlobal:
    CHG();
    stored_ = G[in->a].i = coerce(
        apply_binop(static_cast<Tok>(in->c), G[in->a].i, R[in->b].i), in->w);
    DISPATCH();
  op_OpStoreLocalImm:
    CHG();
    CHG();
    stored_ = R[in->a].i = coerce(
        apply_binop(static_cast<Tok>(in->c), R[in->a].i, in->imm), in->w);
    DISPATCH();
  op_OpStoreGlobalImm:
    CHG();
    CHG();
    stored_ = G[in->a].i = coerce(
        apply_binop(static_cast<Tok>(in->c), G[in->a].i, in->imm), in->w);
    DISPATCH();
  op_StoreElemLocal:
  op_StoreElemGlobal: {
    CHG();
    VmValue& slot = in->op == Op::kStoreElemLocal ? R[in->a] : G[in->a];
    int64_t ix = R[in->b].i;
    if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
      throw Fault{FaultKind::kBadIndex,
                  "out-of-bounds store to " +
                      mod_.str(static_cast<size_t>(in->imm))};
    }
    stored_ = slot.arr[static_cast<size_t>(ix)] =
        coerce(R[in->c].i, in->w);
    DISPATCH();
  }
  op_OpStoreElemLocal:
  op_OpStoreElemGlobal: {
    CHG();
    VmValue& slot = in->op == Op::kOpStoreElemLocal ? R[in->a] : G[in->a];
    int64_t ix = R[in->b].i;
    if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
      throw Fault{
          FaultKind::kBadIndex,
          "out-of-bounds store to " +
              mod_.str(PackedElemOp::name_ix(in->imm))};
    }
    int64_t& elem = slot.arr[static_cast<size_t>(ix)];
    stored_ = elem =
        coerce(apply_binop(static_cast<Tok>(PackedElemOp::op(in->imm)),
                           elem, R[in->c].i),
               PackedElemOp::coerce(in->imm));
    DISPATCH();
  }
  op_StoreFieldLocalInt:
  op_StoreFieldGlobalInt: {
    CHG();
    VmValue& base = in->op == Op::kStoreFieldLocalInt ? R[in->a] : G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->b + 1);
    stored_ = base.fields[in->b].i = coerce(R[in->c].i, in->w);
    DISPATCH();
  }
  op_StoreFieldLocalStr:
  op_StoreFieldGlobalStr: {
    CHG();
    VmValue& base = in->op == Op::kStoreFieldLocalStr ? R[in->a] : G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->b + 1);
    base.fields[in->b].s = R[in->c].s;
    DISPATCH();
  }
  op_StoreFieldLocalStruct:
  op_StoreFieldGlobalStruct: {
    CHG();
    VmValue& base =
        in->op == Op::kStoreFieldLocalStruct ? R[in->a] : G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->b + 1);
    base.fields[in->b].fields = R[in->c].fields;
    DISPATCH();
  }
  op_OpStoreFieldLocal:
  op_OpStoreFieldGlobal: {
    CHG();
    VmValue& base = in->op == Op::kOpStoreFieldLocal ? R[in->a] : G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->b + 1);
    int64_t& dst = base.fields[in->b].i;
    stored_ = dst = coerce(
        apply_binop(static_cast<Tok>(static_cast<uint8_t>(in->imm)), dst,
                    R[in->c].i),
        in->w);
    DISPATCH();
  }
  // --- free stores (declaration / global initialisers) ----------------
  op_StoreLocalIntF:
    R[in->a].i = coerce(R[in->b].i, in->w);
    DISPATCH();
  op_StoreLocalStrF:
    R[in->a].s = R[in->b].s;
    DISPATCH();
  op_StoreLocalStructF:
    R[in->a].fields = R[in->b].fields;
    DISPATCH();
  op_StoreGlobalIntF:
    G[in->a].i = coerce(R[in->b].i, in->w);
    DISPATCH();
  op_StoreGlobalStrF:
    G[in->a].s = R[in->b].s;
    DISPATCH();
  op_StoreGlobalStructF:
    G[in->a].fields = R[in->b].fields;
    DISPATCH();
  // A brace initialiser's first store sizes the constant to its whole
  // struct (imm fields), as the walker's default value is.
  op_StoreGFieldIntF: {
    VmValue& base = G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->imm);
    base.fields[in->b].i = coerce(R[in->c].i, in->w);
    DISPATCH();
  }
  op_StoreGFieldStrF: {
    VmValue& base = G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->imm);
    base.fields[in->b].s = R[in->c].s;
    DISPATCH();
  }
  op_StoreGFieldStructF: {
    VmValue& base = G[in->a];
    if (base.fields.size() <= in->b) base.fields.resize(in->imm);
    base.fields[in->b].fields = R[in->c].fields;
    DISPATCH();
  }
  // --- declarations ---------------------------------------------------
  op_DeclIntZ:
    CHG();
    out.executed.set(in->line);
    R[in->a].i = 0;
    DISPATCH();
  op_DeclStrZ:
    CHG();
    out.executed.set(in->line);
    R[in->a].i = 0;
    R[in->a].s.clear();
    DISPATCH();
  op_DeclStructZ:
    CHG();
    out.executed.set(in->line);
    R[in->a].i = 0;
    R[in->a].fields =
        *mod_.struct_default_table[static_cast<size_t>(in->imm)];
    DISPATCH();
  op_DeclArr:
    CHG();
    out.executed.set(in->line);
    R[in->a].arr.assign(static_cast<size_t>(in->imm), 0);
    DISPATCH();
  op_InitGlobalArr:
    G[in->a].arr.assign(static_cast<size_t>(in->imm), 0);
    DISPATCH();
  // --- calls ----------------------------------------------------------
  op_Call: {
    CHG();
    const CompiledFunction& callee = *mod_.fn_table[in->b];
    if (++depth_ > kMaxCallDepth) {
      throw Fault{FaultKind::kStackOverflow,
                  "call depth exceeded in " + callee.name};
    }
    VmValue* callee_regs = push_frame(callee, R, in->c);
    calls_.push_back(Activation{fn, pc, in->a});
    fn = &callee;
    code = fn->code.data();
    pc = 0;
    R = callee_regs;
    DISPATCH();
  }
  // Fused `{ out*(K1, K2); }` leaf call: no frame is pushed; the callee's
  // charges and coverage mark are replayed from its code, so exhaustion
  // lines, step totals and the bitmap match a real call exactly.
  op_CallOutConst: {
    CHG();
    const CompiledFunction& callee = *mod_.fn_table[in->b];
    if (depth_ >= kMaxCallDepth) {
      throw Fault{FaultKind::kStackOverflow,
                  "call depth exceeded in " + callee.name};
    }
    const Insn* cc = callee.code.data();
    CHARGE(cc[0].line);
    CHARGE(static_cast<uint32_t>(cc[0].imm));
    out.executed.set(static_cast<uint32_t>(cc[0].imm));
    CHARGE(cc[1].line);  // value literal
    CHARGE(cc[2].line);  // port literal
    CHARGE(cc[3].line);  // the out* call node
    uint32_t w = cc[3].w;
    uint32_t mask = w >= 32 ? 0xffffffffu : ((1u << w) - 1);
    io_.io_out(static_cast<uint32_t>(cc[2].imm),
               static_cast<uint32_t>(cc[1].imm) & mask,
               static_cast<int>(w));
    poll_irqs<kProfile>(out);
    R[in->a].i = 0;  // void result, as a real call's kRetZero returns
    DISPATCH();
  }
  // A return hands the result over without a temporary: the callee's frame
  // is dead, so kRet swaps its result register with the caller's
  // destination. The destination's old payload stays behind in the dead
  // register, whose next occupant writes it before reading it (a
  // kDeclStructZ there reuses its buffer).
  op_Ret:
  op_RetZero: {
    --live_frames_;
    if (calls_.size() == base_calls) {
      if (counts_depth) --depth_;
      return in->op == Op::kRet ? R[in->a].i : 0;
    }
    --depth_;
    const Activation act = calls_.back();
    calls_.pop_back();
    VmValue* caller = frames_[live_frames_ - 1].data();
    VmValue& dst = caller[act.dst];
    if (in->op == Op::kRet) {
      swap(dst, R[in->a]);
    } else {
      dst.i = 0;
      dst.s.clear();
      dst.fields.clear();
      dst.arr.clear();
    }
    fn = act.fn;
    code = fn->code.data();
    pc = act.pc;
    R = caller;
    DISPATCH();
  }
  // --- builtins -------------------------------------------------------
  op_In:
    CHG();
    R[in->a].i =
        io_.io_in(static_cast<uint32_t>(R[in->b].i), in->w);
    poll_irqs<kProfile>(out);
    DISPATCH();
  op_InConst:
    CHG();
    CHG();
    R[in->a].i = io_.io_in(static_cast<uint32_t>(in->imm), in->w);
    poll_irqs<kProfile>(out);
    DISPATCH();
  op_Out: {
    CHG();
    uint32_t mask = in->w >= 32 ? 0xffffffffu : ((1u << in->w) - 1);
    uint32_t value = static_cast<uint32_t>(R[in->a].i);
    uint32_t port = static_cast<uint32_t>(R[in->b].i);
    io_.io_out(port, value & mask, in->w);
    poll_irqs<kProfile>(out);
    DISPATCH();
  }
  op_Panic: {
    CHG();
    bool devil = support::starts_with(R[in->a].s, "Devil assertion");
    std::string msg =
        R[in->a].s + " (line " + std::to_string(in->line) + ")";
    throw Fault{devil ? FaultKind::kDevilAssertion : FaultKind::kPanic,
                std::move(msg)};
  }
  op_Printk:
    CHG();
    out.log.push_back(R[in->a].s);
    DISPATCH();
  op_Strcmp:
    CHG();
    R[in->a].i = R[in->b].s.compare(R[in->c].s);
    DISPATCH();
  op_Udelay: {
    CHG();
    int64_t n = R[in->a].i;
    uint64_t burn =
        static_cast<uint64_t>(n < 0 ? 0 : (n > 10000 ? 10000 : n));
    if (burn > steps_left_) {
      steps_left_ = 0;
      throw_step_limit(in->line);
    }
    steps_left_ -= burn;
    poll_irqs<kProfile>(out);  // a delay is where pending edges land
    DISPATCH();
  }
  op_DilEqInt:
    CHG();
    R[in->a].i = R[in->b].i == R[in->c].i ? 1 : 0;
    DISPATCH();
  op_DilEqStruct:
  op_DilEqStructJump: {
    CHG();
    const auto& x = R[in->b].fields;
    const auto& y = R[in->c].fields;
    const std::string& xf = !x.empty() ? x[0].s : empty_string();
    const std::string& yf = !y.empty() ? y[0].s : empty_string();
    int64_t xt = x.size() > 1 ? x[1].i : -1;
    int64_t yt = y.size() > 1 ? y[1].i : -2;
    if (xf != yf || xt != yt) {
      throw Fault{FaultKind::kDevilAssertion,
                  "Devil assertion failed: dil_eq type mismatch (line " +
                      std::to_string(in->line) + ")"};
    }
    int64_t xv = x.size() > 2 ? x[2].i : 0;
    int64_t yv = y.size() > 2 ? y[2].i : 0;
    if (in->op == Op::kDilEqStruct) {
      R[in->a].i = xv == yv ? 1 : 0;
    } else if (xv != yv) {
      pc = static_cast<size_t>(in->imm);
    }
    DISPATCH();
  }
  op_DilValInt:
    CHG();
    R[in->a].i = R[in->b].i;
    DISPATCH();
  op_DilValStruct:
    CHG();
    R[in->a].i = R[in->b].fields.size() > 2 ? R[in->b].fields[2].i : 0;
    DISPATCH();
  op_RequestIrq: {
    CHG();
    int64_t line_no = R[in->a].i;
    if (line_no < 0 || line_no >= kIrqLines) {
      throw Fault{FaultKind::kPanic,
                  "request_irq: invalid irq line " +
                      std::to_string(line_no) + " (line " +
                      std::to_string(in->line) + ")"};
    }
    const uint32_t* ix = mod_.find_fn(R[in->b].s);
    if (ix == nullptr) {
      throw Fault{FaultKind::kPanic,
                  "request_irq: unknown handler '" + R[in->b].s +
                      "' (line " + std::to_string(in->line) + ")"};
    }
    const CompiledFunction* h = mod_.fn_table[*ix];
    if (!h->params.empty()) {
      throw Fault{FaultKind::kPanic,
                  "request_irq: handler '" + R[in->b].s +
                      "' takes arguments (line " +
                      std::to_string(in->line) + ")"};
    }
    irq_handlers_[static_cast<size_t>(line_no)] = h;
    DISPATCH();
  }
  op_Unreachable:
    CHG();
    throw Fault{FaultKind::kInternal,
                mod_.str(static_cast<size_t>(in->imm))};
}

#undef DISPATCH
#undef CHARGE
#undef CHG
#undef JUMP_TO

template <bool kProfile>
void Vm::run_body(const std::string& entry, RunOutcome& out) {
  // A spliced module initialises the prefix's globals from the shared
  // segment's code, then its own tail globals — the same order (and the
  // same charges) as one concatenated initialiser.
  if (mod_.prefix) {
    exec<kProfile>(mod_.prefix->globals_init, /*counts_depth=*/false, out);
  }
  exec<kProfile>(mod_.globals_init, /*counts_depth=*/false, out);
  const uint32_t* entry_ix = mod_.find_fn(entry);
  if (!entry_ix) {
    throw Fault{FaultKind::kInternal, "missing function " + entry};
  }
  out.return_value =
      exec<kProfile>(*mod_.fn_table[*entry_ix], /*counts_depth=*/true, out);
}

RunOutcome Vm::run(const std::string& entry) {
  RunOutcome out;
  steps_left_ = budget_;
  depth_ = 0;
  calls_.clear();
  live_frames_ = 0;
  globals_.clear();
  globals_.resize(mod_.global_count);
  irq_handlers_.fill(nullptr);
  in_irq_ = false;
  ff_below_ = budget_ >= kFastForwardAfter ? budget_ - kFastForwardAfter + 1
                                           : 0;
  have_tortoise_ = false;
  brent_power_ = brent_lam_ = 1;
  skipped_ = 0;
  if (watchdog_ms_ != 0) {
    watchdog_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(watchdog_ms_);
  }
  io_.bind_step_probe(&steps_left_, budget_);
  try {
    if (profile_ != nullptr) {
      run_body<true>(entry, out);
    } else {
      run_body<false>(entry, out);
    }
  } catch (const Fault& f) {
    out.fault = f.kind;
    out.fault_message = f.message;
  }
  out.steps_used = budget_ - steps_left_;
  out.skipped_steps = skipped_;
  return out;
}

}  // namespace minic::bytecode
