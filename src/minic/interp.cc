#include "minic/interp.h"

#include <array>
#include <chrono>
#include <unordered_map>

#include "minic/builtins.h"
#include "support/strings.h"

namespace minic {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kPanic: return "panic";
    case FaultKind::kDevilAssertion: return "devil-assertion";
    case FaultKind::kBusFault: return "bus-fault";
    case FaultKind::kStepLimit: return "step-limit";
    case FaultKind::kStackOverflow: return "stack-overflow";
    case FaultKind::kDivByZero: return "div-by-zero";
    case FaultKind::kBadIndex: return "bad-index";
    case FaultKind::kWatchdog: return "watchdog";
    case FaultKind::kInternal: return "internal";
  }
  return "?";
}

namespace {

constexpr int kMaxCallDepth = 128;

/// Interrupt lines the engines model; mirrors hw::IrqController::kLines
/// (minic must not depend on hw, so the constant is duplicated — the
/// differential suites would catch a drift immediately).
constexpr int kIrqLines = 8;

/// Runtime value. Struct values are flat field vectors (field order from the
/// struct declaration).
struct Value {
  Type type = Type::int_type();
  int64_t i = 0;
  std::string s;
  std::vector<Value> fields;

  static Value integer(int64_t v, Type t = Type::int_type()) {
    Value out;
    out.type = t;
    out.i = v;
    return out;
  }
  static Value str(std::string v) {
    Value out;
    out.type = Type::cstring();
    out.s = std::move(v);
    return out;
  }
};

/// Narrows an int64 to the width/signedness of `t` (what a C assignment to a
/// typed slot does).
int64_t coerce_int(int64_t v, const Type& t) {
  if (!t.is_integer() || t.bits >= 64) return v;
  uint64_t mask = (uint64_t{1} << t.bits) - 1;
  uint64_t u = static_cast<uint64_t>(v) & mask;
  if (t.is_signed && ((u >> (t.bits - 1)) & 1)) u |= ~mask;
  return static_cast<int64_t>(u);
}

struct Slot {
  Value v;
  bool is_array = false;
  Type elem_type = Type::int_type();
  std::vector<int64_t> arr;
};

/// Statement completion status. Return/break/continue used to be thrown as
/// C++ exceptions; a CDevil boot makes thousands of tiny stub calls, and an
/// exception per `return` dominated the whole campaign. Plain status
/// propagation is ~two orders of magnitude cheaper.
enum class Flow { kNormal, kBreak, kContinue, kReturn };

class Machine {
 public:
  Machine(const Unit& unit, IoEnvironment& io, uint64_t budget,
          RunOutcome& out, uint64_t watchdog_ms = 0)
      : unit_(unit), io_(io), budget_(budget), steps_left_(budget),
        out_(out), watchdog_ms_(watchdog_ms) {
    io_.bind_step_probe(&steps_left_, budget_);
    if (watchdog_ms_ != 0) {
      watchdog_deadline_ = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(watchdog_ms_);
    }
    structs_.reserve(unit_.structs.size());
    for (const auto& sd : unit_.structs) structs_[sd.name] = &sd;
  }

  /// Steps consumed so far (exact: step() decrements steps_left_ only).
  [[nodiscard]] uint64_t steps_used() const { return budget_ - steps_left_; }

  void init_globals() {
    globals_.clear();
    globals_.resize(unit_.globals.size());
    for (size_t i = 0; i < unit_.globals.size(); ++i) {
      const GlobalDecl& g = unit_.globals[i];
      Slot& slot = globals_[i];
      if (g.array_size) {
        slot.is_array = true;
        slot.elem_type = g.type;
        slot.arr.assign(static_cast<size_t>(*g.array_size), 0);
      } else if (!g.init_list.empty()) {
        mark_line(g.loc);
        Value v = default_value(g.type);
        for (size_t f = 0; f < g.init_list.size() && f < v.fields.size();
             ++f) {
          Value fv = eval(*g.init_list[f]);
          store_into(v.fields[f], std::move(fv));
        }
        slot.v = std::move(v);
      } else if (g.init) {
        mark_line(g.loc);
        Value v = eval(*g.init);
        slot.v = default_value(g.type);
        store_into(slot.v, std::move(v));
      } else {
        slot.v = default_value(g.type);
      }
    }
  }

  Value call_function(const std::string& name, std::vector<Value> args) {
    const FunctionDecl* fn = find_function(name);
    if (fn != nullptr) return call_decl(*fn, std::move(args));
    throw Fault{FaultKind::kInternal, "missing function " + name};
  }

  [[nodiscard]] const FunctionDecl* find_function(
      const std::string& name) const {
    for (const auto& fn : unit_.functions) {
      if (fn.name == name) return &fn;
    }
    return nullptr;
  }

  Value call_decl(const FunctionDecl& fn, std::vector<Value> args) {
    if (++depth_ > kMaxCallDepth) {
      throw Fault{FaultKind::kStackOverflow,
                  "call depth exceeded in " + fn.name};
    }
    // Params occupy the first frame slots, in declaration order (the type
    // checker assigns them before any local).
    frames_.emplace_back(fn.frame_slots);
    std::vector<Slot>& slots = frames_.back();
    for (size_t i = 0; i < fn.params.size() && i < slots.size(); ++i) {
      Slot& slot = slots[i];
      slot.v = default_value(fn.params[i].type);
      if (i < args.size()) store_into(slot.v, std::move(args[i]));
    }
    Value result = exec(*fn.body) == Flow::kReturn ? std::move(return_value_)
                                                   : Value::integer(0);
    frames_.pop_back();
    --depth_;
    return result;
  }

 private:
  // ---- bookkeeping ---------------------------------------------------------
  void step(support::SourceLoc loc) {
    if (steps_left_ == 0) {
      throw Fault{FaultKind::kStepLimit,
                  "step budget exhausted at line " + std::to_string(loc.line)};
    }
    --steps_left_;
    // Wall-clock watchdog: a steady_clock read per charge would dominate the
    // campaigns, so check once per 2^20 retired charges. The message names
    // only the cap (never a line or elapsed time) — wall-clock trips are
    // inherently nondeterministic and must not perturb trace comparisons.
    if ((steps_left_ & 0xfffff) == 0 && watchdog_ms_ != 0) check_watchdog();
  }

  void check_watchdog() {
    if (std::chrono::steady_clock::now() >= watchdog_deadline_) {
      throw Fault{FaultKind::kWatchdog,
                  "watchdog: boot exceeded " + std::to_string(watchdog_ms_) +
                      " ms wall-clock cap"};
    }
  }

  /// Drains deliverable interrupt events. Called at the I/O charge-step
  /// boundaries (after every port access and udelay burn) — the points where
  /// both engines have retired identical charge counts, which makes delivery
  /// timing engine-invariant. Handlers run to completion (no nesting): a
  /// raise from inside a handler is queued and delivered at the handler's
  /// own next I/O boundary or after it returns.
  void poll_irqs() {
    if (in_irq_) return;
    for (;;) {
      int line = io_.irq_pending();
      if (line < 0) return;
      const FunctionDecl* h =
          line < kIrqLines ? irq_handlers_[static_cast<size_t>(line)]
                           : nullptr;
      if (h == nullptr) {
        io_.irq_begin(false);  // no handler registered: acknowledge and drop
        continue;
      }
      io_.irq_begin(true);
      in_irq_ = true;
      call_decl(*h, {});
      in_irq_ = false;
      io_.irq_end();
    }
  }
  void mark_line(support::SourceLoc loc) { out_.executed.set(loc.line); }

  Value default_value(const Type& t) {
    Value v;
    v.type = t;
    if (t.is_struct()) {
      auto it = structs_.find(t.struct_name);
      if (it != structs_.end()) {
        for (const auto& f : it->second->fields) {
          v.fields.push_back(default_value(f.type));
        }
      }
    }
    return v;
  }

  /// Assigns `from` into the typed destination `dst` (narrowing integers).
  void store_into(Value& dst, Value from) {
    if (dst.type.is_integer()) {
      dst.i = coerce_int(from.i, dst.type);
      return;
    }
    if (dst.type.kind == TypeKind::kCString) {
      dst.s = std::move(from.s);
      return;
    }
    if (dst.type.is_struct()) {
      dst.fields = std::move(from.fields);
      return;
    }
  }

  // ---- name resolution -------------------------------------------------------
  // Identifiers were resolved to slot indices by the type checker; the
  // runtime only indexes.
  Slot& slot_of(const Expr& e) {
    if (e.frame_slot >= 0) {
      return frames_.back()[static_cast<size_t>(e.frame_slot)];
    }
    if (e.global_slot >= 0) {
      return globals_[static_cast<size_t>(e.global_slot)];
    }
    throw Fault{FaultKind::kInternal, "unbound name " + e.text};
  }

  // ---- statements -------------------------------------------------------------
  [[nodiscard]] Flow exec(const Stmt& s) {
    step(s.loc);
    switch (s.kind) {
      case StmtKind::kEmpty:
        return Flow::kNormal;
      case StmtKind::kExpr:
        mark_line(s.loc);
        eval_int(*s.expr[0]);  // result discarded; int path skips the Value
        return Flow::kNormal;
      case StmtKind::kDecl: {
        mark_line(s.loc);
        if (s.frame_slot < 0) {
          throw Fault{FaultKind::kInternal, "unresolved local " + s.decl_name};
        }
        // Re-executing a declaration (loop bodies) re-initialises its slot.
        Slot& slot = frames_.back()[static_cast<size_t>(s.frame_slot)];
        if (s.array_size) {
          slot.is_array = true;
          slot.elem_type = s.decl_type;
          slot.arr.assign(static_cast<size_t>(*s.array_size), 0);
        } else {
          slot.is_array = false;
          slot.v = default_value(s.decl_type);
          if (!s.expr.empty()) store_into(slot.v, eval(*s.expr[0]));
        }
        return Flow::kNormal;
      }
      case StmtKind::kBlock: {
        // Scoping is fully static (slots assigned at typecheck time); a
        // block is just its statements.
        for (const auto& child : s.body) {
          Flow f = exec(*child);
          if (f != Flow::kNormal) return f;
        }
        return Flow::kNormal;
      }
      case StmtKind::kIf: {
        mark_line(s.loc);
        if (eval_int(*s.expr[0]) != 0) {
          return exec(*s.body[0]);
        }
        if (s.body.size() > 1) return exec(*s.body[1]);
        return Flow::kNormal;
      }
      case StmtKind::kWhile: {
        while (true) {
          step(s.loc);
          mark_line(s.loc);
          if (eval_int(*s.expr[0]) == 0) break;
          Flow f = exec(*s.body[0]);
          if (f == Flow::kBreak) break;
          if (f == Flow::kReturn) return f;
        }
        return Flow::kNormal;
      }
      case StmtKind::kDoWhile: {
        while (true) {
          step(s.loc);
          mark_line(s.loc);
          Flow f = exec(*s.body[0]);
          if (f == Flow::kBreak) break;
          if (f == Flow::kReturn) return f;
          if (eval_int(*s.expr[0]) == 0) break;
        }
        return Flow::kNormal;
      }
      case StmtKind::kFor: {
        // body[0] = loop body, body[1] = optional init statement.
        if (s.body.size() > 1 && s.body[1]) {
          Flow f = exec(*s.body[1]);
          if (f != Flow::kNormal) return f;
        }
        while (true) {
          step(s.loc);
          mark_line(s.loc);
          if (!s.expr.empty() && eval_int(*s.expr[0]) == 0) break;
          Flow f = exec(*s.body[0]);
          if (f == Flow::kBreak) break;
          if (f == Flow::kReturn) return f;
          if (s.expr.size() > 1) eval_int(*s.expr[1]);  // result discarded
        }
        return Flow::kNormal;
      }
      case StmtKind::kReturn: {
        mark_line(s.loc);
        return_value_ = s.expr.empty() ? Value::integer(0) : eval(*s.expr[0]);
        return Flow::kReturn;
      }
      case StmtKind::kBreak:
        mark_line(s.loc);
        return Flow::kBreak;
      case StmtKind::kContinue:
        mark_line(s.loc);
        return Flow::kContinue;
      case StmtKind::kSwitch: {
        mark_line(s.loc);
        int64_t operand = eval_int(*s.expr[0]);
        // Find the matching case. Case-label comparisons count as executed
        // lines: the comparison itself runs even when the arm does not.
        size_t match = s.cases.size();
        size_t default_ix = s.cases.size();
        for (size_t i = 0; i < s.cases.size(); ++i) {
          const SwitchCase& c = s.cases[i];
          if (c.is_default) {
            default_ix = i;
            continue;
          }
          mark_line(c.loc);
          if (eval_int(*c.value) == operand) {
            match = i;
            break;
          }
        }
        if (match == s.cases.size()) match = default_ix;
        // Fall through successive cases until a break.
        for (size_t i = match; i < s.cases.size(); ++i) {
          for (const auto& child : s.cases[i].body) {
            Flow f = exec(*child);
            if (f == Flow::kBreak) return Flow::kNormal;
            if (f != Flow::kNormal) return f;
          }
        }
        return Flow::kNormal;
      }
    }
    return Flow::kNormal;
  }

  // ---- expressions --------------------------------------------------------------
  /// True for nodes whose value is an integer: every type but string and
  /// struct (void calls included), and every array element and element
  /// store whatever the declared element type, since Slot::arr holds
  /// integers. An assignment has its target's type.
  static bool int_valued(const Expr& e) {
    const Expr& v = e.kind == ExprKind::kAssign ? *e.sub[0] : e;
    return v.kind == ExprKind::kIndex ||
           (v.type.kind != TypeKind::kCString && !v.type.is_struct());
  }

  /// The one evaluator of integer-valued nodes, without a Value per node (a
  /// Value carries two strings and a vector; one per visited node dominated
  /// the step-limit mutants that burn the whole budget). One step per
  /// visited node, parents before children, in both evaluators.
  int64_t eval_int(const Expr& e) {
    if (!int_valued(e)) return eval(e).i;
    step(e.loc);
    switch (e.kind) {
      case ExprKind::kIntLit:
        return static_cast<int64_t>(e.int_value);
      case ExprKind::kIdent:
        return slot_of(e).v.i;
      case ExprKind::kUnary: {
        int64_t v = eval_int(*e.sub[0]);
        switch (e.op) {
          case Tok::kMinus: return -v;
          case Tok::kPlus: return v;
          case Tok::kTilde: return ~v;
          case Tok::kBang: return v == 0 ? 1 : 0;
          default:
            throw Fault{FaultKind::kInternal, "bad unary op"};
        }
      }
      case ExprKind::kBinary: {
        if (e.op == Tok::kAmpAmp) {
          if (eval_int(*e.sub[0]) == 0) return 0;
          return eval_int(*e.sub[1]) != 0 ? 1 : 0;
        }
        if (e.op == Tok::kPipePipe) {
          if (eval_int(*e.sub[0]) != 0) return 1;
          return eval_int(*e.sub[1]) != 0 ? 1 : 0;
        }
        int64_t a = eval_int(*e.sub[0]);
        int64_t b = eval_int(*e.sub[1]);
        return apply_binop(e.op, a, b);
      }
      case ExprKind::kCond:
        return eval_int(*e.sub[0]) != 0 ? eval_int(*e.sub[1])
                                        : eval_int(*e.sub[2]);
      case ExprKind::kCast:
        // C rejects struct<->scalar casts; a void cast keeps the value.
        return coerce_int(eval_int(*e.sub[0]), e.cast_type);
      case ExprKind::kIndex: {
        Slot& slot = slot_of(*e.sub[0]);
        if (!slot.is_array) {
          throw Fault{FaultKind::kInternal, "index on non-array"};
        }
        int64_t ix = eval_int(*e.sub[1]);
        if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
          // Out-of-bounds access in kernel code: memory corruption -> crash.
          throw Fault{FaultKind::kBadIndex,
                      "out-of-bounds access to " + e.sub[0]->text};
        }
        return slot.arr[static_cast<size_t>(ix)];
      }
      case ExprKind::kMember:
        return member_of(eval(*e.sub[0]), e).i;
      case ExprKind::kCall: {
        int64_t io_result;
        if (try_io_builtin(e, io_result)) return io_result;
        return eval_call(e).i;
      }
      case ExprKind::kAssign: {
        int64_t rhs = eval_int(*e.sub[1]);
        int64_t* arr_elem = nullptr;
        Value* target = resolve_lvalue(*e.sub[0], &arr_elem);
        int64_t& dst = arr_elem != nullptr ? *arr_elem : target->i;
        int64_t next = e.op == Tok::kAssign
                           ? rhs
                           : apply_binop(compound_base(e.op), dst, rhs);
        dst = coerce_int(next, arr_elem != nullptr ? elem_type_ : target->type);
        return dst;
      }
      case ExprKind::kStringLit:
        break;  // never integer-valued
    }
    throw Fault{FaultKind::kInternal, "bad expression kind"};
  }

  /// Evaluates any node to a Value; integer-valued nodes go to eval_int, so
  /// this handles only string and struct nodes.
  Value eval(const Expr& e) {
    if (int_valued(e)) return Value::integer(eval_int(e), e.type);
    step(e.loc);
    switch (e.kind) {
      case ExprKind::kStringLit:
        return Value::str(e.text);
      case ExprKind::kIdent:
        return slot_of(e).v;
      case ExprKind::kAssign: {
        // A plain store: MC107 rejects compound assignment to a non-integer.
        Value rhs = eval(*e.sub[1]);
        int64_t* arr_elem = nullptr;
        Value* target = resolve_lvalue(*e.sub[0], &arr_elem);
        store_into(*target, std::move(rhs));
        return *target;
      }
      case ExprKind::kCond:
        return eval_int(*e.sub[0]) != 0 ? eval(*e.sub[1]) : eval(*e.sub[2]);
      case ExprKind::kMember:
        return member_of(eval(*e.sub[0]), e);
      case ExprKind::kCast:
        return eval(*e.sub[0]);  // struct->same struct or cstring: identity
      case ExprKind::kCall:
        return eval_call(e);
      default:
        break;
    }
    throw Fault{FaultKind::kInternal, "bad expression kind"};
  }

  Value member_of(const Value& base, const Expr& e) {
    if (e.member_index < 0) {
      throw Fault{FaultKind::kInternal, "unresolved member " + e.text};
    }
    size_t ix = static_cast<size_t>(e.member_index);
    if (ix < base.fields.size()) return base.fields[ix];
    Value v;
    v.type = e.type;  // the checker recorded the field's type here
    return v;
  }

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
        // Hardware-operating C code shifts unsigned register values; use
        // logical shift on the low 32 bits, as u32 arithmetic would.
        return static_cast<int64_t>(
            (static_cast<uint64_t>(a) & 0xffffffffULL) >>
            static_cast<uint64_t>(b));
      case Tok::kEq: return a == b;
      case Tok::kNe: return a != b;
      case Tok::kLt: return a < b;
      case Tok::kGt: return a > b;
      case Tok::kLe: return a <= b;
      case Tok::kGe: return a >= b;
      default:
        // Also compound_base's kEof: an assignment token that is not `=`
        // and not a compound assignment.
        throw Fault{FaultKind::kInternal, "bad binary op"};
    }
  }

  /// Resolves an lvalue expression to a mutable Value reference, or to an
  /// array element.
  Value* resolve_lvalue(const Expr& e, int64_t** arr_elem) {
    *arr_elem = nullptr;
    switch (e.kind) {
      case ExprKind::kIdent:
        return &slot_of(e).v;
      case ExprKind::kMember: {
        int64_t* dummy = nullptr;
        Value* base = resolve_lvalue(*e.sub[0], &dummy);
        if (!base) throw Fault{FaultKind::kInternal, "bad member lvalue"};
        if (e.member_index < 0) {
          throw Fault{FaultKind::kInternal, "unresolved member " + e.text};
        }
        size_t ix = static_cast<size_t>(e.member_index);
        while (base->fields.size() <= ix) {
          base->fields.push_back(Value{});
        }
        base->fields[ix].type = e.type;
        return &base->fields[ix];
      }
      case ExprKind::kIndex: {
        Slot& slot = slot_of(*e.sub[0]);
        if (!slot.is_array) {
          throw Fault{FaultKind::kInternal, "index on non-array"};
        }
        int64_t ix = eval_int(*e.sub[1]);
        if (ix < 0 || static_cast<size_t>(ix) >= slot.arr.size()) {
          throw Fault{FaultKind::kBadIndex,
                      "out-of-bounds store to " + e.sub[0]->text};
        }
        *arr_elem = &slot.arr[static_cast<size_t>(ix)];
        elem_type_ = slot.elem_type;
        return nullptr;
      }
      default:
        throw Fault{FaultKind::kInternal, "assignment to non-lvalue"};
    }
  }

  // ---- calls ------------------------------------------------------------------
  /// The port-I/O builtins the boot loops hammer, evaluated without the
  /// argument vector or a boxed result: operands in order, the value masked
  /// to the port width, a write's result 0. The caller has stepped the call
  /// node. Returns false for every other callee.
  bool try_io_builtin(const Expr& e, int64_t& out) {
    if (e.builtin_index < 0) return false;
    auto in = [&](int width) {
      out = io_.io_in(static_cast<uint32_t>(eval_int(*e.sub[0])), width);
      poll_irqs();
    };
    auto write = [&](uint32_t mask, int width) {
      uint32_t value = static_cast<uint32_t>(eval_int(*e.sub[0]));
      uint32_t port = static_cast<uint32_t>(eval_int(*e.sub[1]));
      io_.io_out(port, value & mask, width);
      poll_irqs();
      out = 0;
    };
    switch (static_cast<Builtin>(e.builtin_index)) {
      case Builtin::kInb: in(8); return true;
      case Builtin::kInw: in(16); return true;
      case Builtin::kInl: in(32); return true;
      case Builtin::kOutb: write(0xff, 8); return true;
      case Builtin::kOutw: write(0xffff, 16); return true;
      case Builtin::kOutl: write(0xffffffffu, 32); return true;
      default:
        return false;  // the other builtins take eval_builtin
    }
  }

  /// Every call but port I/O, once its node has been stepped.
  Value eval_call(const Expr& e) {
    if (e.builtin_index < 0 && e.callee_index < 0) {
      // A call the type checker did not resolve: the VM lowers it to the
      // same fault, before any argument is evaluated.
      throw Fault{FaultKind::kInternal, "unresolved call to " + e.text};
    }
    std::vector<Value> args;
    args.reserve(e.sub.size());
    for (const auto& a : e.sub) args.push_back(eval(*a));
    if (e.builtin_index >= 0) {
      return eval_builtin(static_cast<Builtin>(e.builtin_index), e, args);
    }
    return call_decl(unit_.functions[static_cast<size_t>(e.callee_index)],
                     std::move(args));
  }

  Value eval_builtin(Builtin b, const Expr& e, std::vector<Value>& args) {
    switch (b) {
      case Builtin::kInb:
      case Builtin::kInw:
      case Builtin::kInl:
      case Builtin::kOutb:
      case Builtin::kOutw:
      case Builtin::kOutl:
        break;  // try_io_builtin runs every port call
      case Builtin::kPanic: {
        bool devil = support::starts_with(args[0].s, "Devil assertion");
        std::string msg = args[0].s + " (line " + std::to_string(e.loc.line) +
                          ")";
        throw Fault{devil ? FaultKind::kDevilAssertion : FaultKind::kPanic,
                    std::move(msg)};
      }
      case Builtin::kPrintk:
        out_.log.push_back(args[0].s);
        return Value::integer(0);
      case Builtin::kStrcmp:
        return Value::integer(args[0].s.compare(args[1].s));
      case Builtin::kUdelay: {
        // Burn steps proportionally so delay loops cannot dodge the budget.
        uint64_t burn = static_cast<uint64_t>(
            args[0].i < 0 ? 0 : (args[0].i > 10000 ? 10000 : args[0].i));
        for (uint64_t i = 0; i < burn; ++i) step(e.loc);
        poll_irqs();  // a delay is where pending edges land in real drivers
        return Value::integer(0);
      }
      case Builtin::kDilEq: {
        const Value& x = args[0];
        const Value& y = args[1];
        if (!x.type.is_struct()) {
          return Value::integer(x.i == y.i ? 1 : 0);  // production mode
        }
        // Debug mode: (filename, type) tag check, then value comparison
        // (the dil_eq macro of paper §2.3).
        const std::string& xf = x.fields.size() > 0 ? x.fields[0].s : "";
        const std::string& yf = y.fields.size() > 0 ? y.fields[0].s : "";
        int64_t xt = x.fields.size() > 1 ? x.fields[1].i : -1;
        int64_t yt = y.fields.size() > 1 ? y.fields[1].i : -2;
        if (xf != yf || xt != yt) {
          throw Fault{FaultKind::kDevilAssertion,
                      "Devil assertion failed: dil_eq type mismatch (line " +
                          std::to_string(e.loc.line) + ")"};
        }
        int64_t xv = x.fields.size() > 2 ? x.fields[2].i : 0;
        int64_t yv = y.fields.size() > 2 ? y.fields[2].i : 0;
        return Value::integer(xv == yv ? 1 : 0);
      }
      case Builtin::kDilVal: {
        const Value& x = args[0];
        if (!x.type.is_struct()) return Value::integer(x.i);
        return Value::integer(x.fields.size() > 2 ? x.fields[2].i : 0);
      }
      case Builtin::kRequestIrq: {
        // Run-time binding, like the kernel's request_irq: a bad line or a
        // handler the linker would not find panics the boot.
        int64_t line = args[0].i;
        if (line < 0 || line >= kIrqLines) {
          throw Fault{FaultKind::kPanic,
                      "request_irq: invalid irq line " + std::to_string(line) +
                          " (line " + std::to_string(e.loc.line) + ")"};
        }
        const std::string& name = args[1].s;
        const FunctionDecl* h = find_function(name);
        if (h == nullptr) {
          throw Fault{FaultKind::kPanic,
                      "request_irq: unknown handler '" + name + "' (line " +
                          std::to_string(e.loc.line) + ")"};
        }
        if (!h->params.empty()) {
          throw Fault{FaultKind::kPanic,
                      "request_irq: handler '" + name +
                          "' takes arguments (line " +
                          std::to_string(e.loc.line) + ")"};
        }
        irq_handlers_[static_cast<size_t>(line)] = h;
        return Value::integer(0);
      }
    }
    throw Fault{FaultKind::kInternal, "bad builtin"};
  }

  const Unit& unit_;
  IoEnvironment& io_;
  uint64_t budget_;
  uint64_t steps_left_;
  RunOutcome& out_;
  /// Struct declarations by name (default_value only; member access is
  /// index-resolved).
  std::unordered_map<std::string, const StructDecl*> structs_;
  /// Globals indexed by their position in Unit::globals (== the type
  /// checker's global_slot).
  std::vector<Slot> globals_;
  /// Call frames; one flat slot vector per frame, sized by
  /// FunctionDecl::frame_slots. Slot addresses stay stable across nested
  /// calls because moving an inner vector keeps its heap buffer.
  std::vector<std::vector<Slot>> frames_;
  /// Value carried by an in-flight Flow::kReturn.
  Value return_value_;
  int depth_ = 0;
  Type elem_type_ = Type::int_type();
  /// Interrupt handlers by line (request_irq); null = acknowledge-and-drop.
  std::array<const FunctionDecl*, kIrqLines> irq_handlers_{};
  /// True while a handler runs: handlers complete before the next delivery.
  bool in_irq_ = false;
  /// Wall-clock boot containment; 0 disables (the default).
  uint64_t watchdog_ms_ = 0;
  std::chrono::steady_clock::time_point watchdog_deadline_{};
};

}  // namespace

Interp::Interp(const Unit& unit, IoEnvironment& io, uint64_t step_budget)
    : unit_(unit), io_(io), step_budget_(step_budget) {}

RunOutcome Interp::run(const std::string& entry) {
  RunOutcome out;
  Machine m(unit_, io_, step_budget_, out, watchdog_ms_);
  try {
    m.init_globals();
    Value result = m.call_function(entry, {});
    out.return_value = result.i;
  } catch (const Fault& f) {
    out.fault = f.kind;
    out.fault_message = f.message;
  }
  out.steps_used = m.steps_used();
  return out;
}

}  // namespace minic
