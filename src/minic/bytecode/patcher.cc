// Mutant classification + operand rewriting over the clean tail module.
// See patcher.h for the soundness argument and the default-deny policy.
#include "minic/bytecode/patcher.h"

#include <stdexcept>

#include "minic/builtins.h"

namespace minic::bytecode {

namespace {

/// Tok -> plain 3-register binop opcode (inverse of the compiler's
/// binop_tok). `/` and `%` are intentionally absent: they can fault, which
/// would invalidate the clean compile's confined() decisions — and no
/// Table 1 rule produces them anyway.
std::optional<Op> plain_binop_op(Tok t) {
  switch (t) {
    case Tok::kPlus: return Op::kAdd;
    case Tok::kMinus: return Op::kSub;
    case Tok::kStar: return Op::kMul;
    case Tok::kAmp: return Op::kBitAnd;
    case Tok::kPipe: return Op::kBitOr;
    case Tok::kCaret: return Op::kBitXor;
    case Tok::kShl: return Op::kShl;
    case Tok::kShr: return Op::kShr;
    case Tok::kEq: return Op::kCmpEq;
    case Tok::kNe: return Op::kCmpNe;
    case Tok::kLt: return Op::kCmpLt;
    case Tok::kGt: return Op::kCmpGt;
    case Tok::kLe: return Op::kCmpLe;
    case Tok::kGe: return Op::kCmpGe;
    default: return std::nullopt;
  }
}

std::optional<Op> unary_op(Tok t) {
  switch (t) {
    case Tok::kMinus: return Op::kNeg;
    case Tok::kPlus: return Op::kMoveInt;
    case Tok::kTilde: return Op::kBitNot;
    case Tok::kBang: return Op::kLogNot;
    default: return std::nullopt;
  }
}

void collect_locals(const Stmt& s, std::set<std::string>& out) {
  if (s.kind == StmtKind::kDecl) out.insert(s.decl_name);
  for (const auto& child : s.body) {
    if (child) collect_locals(*child, out);
  }
  for (const auto& c : s.cases) {
    for (const auto& child : c.body) collect_locals(*child, out);
  }
}

}  // namespace

Patcher::Patcher(const Module& clean_tail, const Unit& prefix_unit,
                 const Unit& tail_unit, const MacroTable& macros,
                 PatchTable table)
    : fn_base_(table.fn_base) {
  clean_.prefix = clean_tail.prefix;
  clean_.fns = clean_tail.fns;
  clean_.globals_init = clean_tail.globals_init;
  clean_.global_count = clean_tail.global_count;
  clean_.fn_index = clean_tail.fn_index;
  clean_.strings = clean_tail.strings;
  clean_.struct_defaults = clean_tail.struct_defaults;
  finalize_module_tables(clean_);

  for (const auto& p : table.points) points_by_site_[p.site].push_back(p);

  // Global symbol table: prefix slots first, tail slots continue. A name
  // bound twice is ambiguous (which half a recompile binds depends on the
  // checker) and never patched.
  size_t slot = 0;
  auto add_global = [&](const GlobalDecl& g) {
    GlobalInfo gi;
    gi.slot = static_cast<uint16_t>(slot++);
    gi.type = g.type;
    gi.is_const = g.is_const;
    gi.is_array = g.array_size.has_value();
    if (!globals_.emplace(g.name, gi).second) ambiguous_globals_.insert(g.name);
  };
  for (const auto& g : prefix_unit.globals) add_global(g);
  for (const auto& g : tail_unit.globals) add_global(g);

  // Function table: first definition wins, matching the walker's linear
  // call_function scan and Module::find_fn.
  auto add_fn = [&](const FunctionDecl& f, uint32_t index) {
    FnInfo fi;
    fi.index = index;
    for (const auto& p : f.params) fi.params.push_back(p.type);
    fi.ret = f.return_type;
    fns_.emplace(f.name, std::move(fi));
  };
  for (size_t i = 0; i < prefix_unit.functions.size(); ++i) {
    add_fn(prefix_unit.functions[i], static_cast<uint32_t>(i));
  }
  for (size_t i = 0; i < tail_unit.functions.size(); ++i) {
    add_fn(tail_unit.functions[i], fn_base_ + static_cast<uint32_t>(i));
  }

  // Leaf shapes per absolute index: the prefix's were classified at
  // compile_prefix time; tail functions are classified here, once per
  // campaign, so per-mutant callee rewrites are pure lookups.
  shapes_.assign(fn_base_ + clean_.fns.size(), LeafShape::kNone);
  if (clean_.prefix) {
    for (size_t i = 0;
         i < clean_.prefix->leaf_shapes.size() && i < shapes_.size(); ++i) {
      shapes_[i] = static_cast<LeafShape>(clean_.prefix->leaf_shapes[i]);
    }
  }
  for (size_t i = 0; i < clean_.fns.size(); ++i) {
    shapes_[fn_base_ + i] = classify_leaf_shape(clean_.fns[i]);
  }
  for (auto& [name, fi] : fns_) {
    if (fi.index < shapes_.size()) fi.shape = shapes_[fi.index];
  }

  // Per tail function: every local/param name. A replacement global that
  // collides with one would rebind to the local on recompile (lookup()
  // checks the frame first), so such renames fall back.
  tail_fn_locals_.resize(tail_unit.functions.size());
  for (size_t i = 0; i < tail_unit.functions.size(); ++i) {
    const FunctionDecl& f = tail_unit.functions[i];
    auto& names = tail_fn_locals_[i];
    for (const auto& p : f.params) names.insert(p.name);
    if (f.body) collect_locals(*f.body, names);
  }

  for (const auto& [name, body] : macros) macro_names_.insert(name);
}

const Insn& Patcher::insn_at(const PatchPoint& p) const {
  const CompiledFunction* fn = nullptr;
  if (p.fn == kGlobalsInitFn) {
    fn = &clean_.globals_init;
  } else {
    if (p.fn < fn_base_ || p.fn - fn_base_ >= clean_.fns.size()) {
      throw std::runtime_error("corrupt patch table: function " +
                               std::to_string(p.fn) + " not in tail");
    }
    fn = &clean_.fns[p.fn - fn_base_];
  }
  if (p.insn >= fn->code.size()) {
    throw std::runtime_error("corrupt patch table: insn " +
                             std::to_string(p.insn) + " out of range in " +
                             fn->name);
  }
  return fn->code[p.insn];
}

Module Patcher::clone_clean() const {
  Module out;
  out.prefix = clean_.prefix;
  out.fns = clean_.fns;
  out.globals_init = clean_.globals_init;
  out.global_count = clean_.global_count;
  out.fn_index = clean_.fn_index;
  out.strings = clean_.strings;
  out.struct_defaults = clean_.struct_defaults;
  finalize_module_tables(out);
  return out;
}

bool Patcher::plan_operator(const PatchPoint& p, Tok new_op,
                            std::vector<Rewrite>& plan) const {
  const Insn& in = insn_at(p);
  Insn nv = in;
  switch (in.op) {
    // Plain 3-register binop: opcode swap.
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
    case Op::kMod: case Op::kBitAnd: case Op::kBitOr: case Op::kBitXor:
    case Op::kShl: case Op::kShr: case Op::kCmpEq: case Op::kCmpNe:
    case Op::kCmpLt: case Op::kCmpGt: case Op::kCmpLe: case Op::kCmpGe: {
      auto op = plain_binop_op(new_op);
      if (!op) return false;
      nv.op = *op;
      break;
    }
    // Operator lives in `w` as a Tok.
    case Op::kBinImm:
    case Op::kBinJump:
    case Op::kBinImmJump:
    case Op::kStoreSlotBinImm:
      if (!plain_binop_op(new_op)) return false;
      nv.w = static_cast<uint8_t>(new_op);
      break;
    // Compound store: base operator in `c`.
    case Op::kOpStoreLocal:
    case Op::kOpStoreGlobal:
    case Op::kOpStoreLocalImm:
    case Op::kOpStoreGlobalImm: {
      Tok b = compound_base(new_op);
      if (b == Tok::kEof) return false;
      nv.c = static_cast<uint16_t>(b);
      break;
    }
    // Compound element store: base operator packed into imm.
    case Op::kOpStoreElemLocal:
    case Op::kOpStoreElemGlobal: {
      Tok b = compound_base(new_op);
      if (b == Tok::kEof) return false;
      nv.imm = PackedElemOp::pack(PackedElemOp::name_ix(in.imm),
                                  static_cast<uint8_t>(b),
                                  PackedElemOp::coerce(in.imm));
      break;
    }
    // Compound field store: base operator in imm's low byte.
    case Op::kOpStoreFieldLocal:
    case Op::kOpStoreFieldGlobal: {
      Tok b = compound_base(new_op);
      if (b == Tok::kEof) return false;
      nv.imm = static_cast<int64_t>(static_cast<uint8_t>(b));
      break;
    }
    // Unary operator: opcode swap among the four unary lowerings.
    case Op::kNeg: case Op::kMoveInt: case Op::kBitNot: case Op::kLogNot: {
      auto op = unary_op(new_op);
      if (!op) return false;
      nv.op = *op;
      break;
    }
    // Short-circuit pair: && <-> || swap (both charge the node once and
    // branch on the left value — mirrored control flow).
    case Op::kAndJump:
    case Op::kOrJump:
      if (new_op == Tok::kAmpAmp) {
        nv.op = Op::kAndJump;
      } else if (new_op == Tok::kPipePipe) {
        nv.op = Op::kOrJump;
      } else {
        return false;
      }
      break;
    // Anything else (kInConstAnd / kPollInAnd: no other operator can
    // express the fusion) is structure-changing.
    default:
      return false;
  }
  plan.push_back({p.fn, p.insn, nv});
  return true;
}

bool Patcher::plan_literal(const PatchPoint& p, uint64_t value,
                           std::vector<Rewrite>& plan) const {
  const Insn& in = insn_at(p);
  Insn nv = in;
  switch (p.role) {
    case PatchRole::kLiteral:
      switch (in.op) {
        case Op::kLoadConst:
        case Op::kBinImm:
        case Op::kInConst:
        case Op::kOpStoreLocalImm:
        case Op::kOpStoreGlobalImm:
        case Op::kStoreSlotBinImm:
        case Op::kCaseTest:
          nv.imm = static_cast<int64_t>(value);
          break;
        case Op::kBinImmJump:
          // The fused literal lives in the u16 `c` field (imm is the jump
          // target); a wider replacement cannot be encoded.
          if (value > 0xffff) return false;
          nv.c = static_cast<uint16_t>(value);
          break;
        default:
          return false;
      }
      break;
    case PatchRole::kPackedPort: {
      if (in.op != Op::kInConstAnd && in.op != Op::kPollInAnd) return false;
      if (value > 0xffffffffULL) return false;
      uint64_t u = static_cast<uint64_t>(in.imm);
      nv.imm = static_cast<int64_t>((u & 0xffffffff00000000ULL) | value);
      break;
    }
    case PatchRole::kPackedMask: {
      if (in.op != Op::kInConstAnd && in.op != Op::kPollInAnd) return false;
      if (value > 0xffffffffULL) return false;
      uint64_t u = static_cast<uint64_t>(in.imm);
      nv.imm = static_cast<int64_t>((u & 0xffffffffULL) | (value << 32));
      break;
    }
    default:
      return false;
  }
  plan.push_back({p.fn, p.insn, nv});
  return true;
}

bool Patcher::plan_identifier(const PatchRequest& req,
                              const std::vector<PatchPoint>& points,
                              std::vector<Rewrite>& plan) const {
  // Macro involvement changes the token stream structurally.
  if (macro_names_.count(req.original) != 0) return false;
  if (macro_names_.count(req.replacement) != 0) return false;

  bool all_callee = true;
  bool all_global = true;
  bool any_store = false;
  for (const auto& p : points) {
    if (p.role != PatchRole::kCallee) all_callee = false;
    if (p.role != PatchRole::kGlobalLoad && p.role != PatchRole::kGlobalStore) {
      all_global = false;
    }
    if (p.role == PatchRole::kGlobalStore) any_store = true;
  }

  if (all_callee) {
    // Callee rename. The recompiled call site must typecheck against the
    // replacement (arity, pairwise argument types, return type), and the
    // fused opcode is re-derived from the replacement's leaf shape.
    if (find_builtin(req.replacement)) return false;  // rebinds to builtin
    auto orig = fns_.find(req.original);
    auto repl = fns_.find(req.replacement);
    if (orig == fns_.end() || repl == fns_.end()) return false;
    const FnInfo& of = orig->second;
    const FnInfo& rf = repl->second;
    if (of.params.size() != rf.params.size()) return false;
    for (size_t i = 0; i < of.params.size(); ++i) {
      if (!of.params[i].same_as(rf.params[i])) return false;
    }
    if (!of.ret.same_as(rf.ret)) return false;
    if (rf.index > 0xffff) return false;
    for (const auto& p : points) {
      const Insn& in = insn_at(p);
      if (in.op != Op::kCall && in.op != Op::kCallOutConst) return false;
      if (in.b != of.index) return false;  // ambiguity guard
      Insn nv = in;
      nv.b = static_cast<uint16_t>(rf.index);
      nv.op = rf.shape == LeafShape::kOutConst ? Op::kCallOutConst : Op::kCall;
      plan.push_back({p.fn, p.insn, nv});
    }
    return true;
  }

  if (all_global) {
    // Global scalar rename. The replacement must exist, bind as the same
    // kind of storage (non-array, same type *and* store coercion — C's
    // checker calls all integers the same, but a different width would
    // change the recompiled store's narrowing), be writable if any point
    // stores (a const target is a compile error on recompile), and not be
    // shadowed by a local in any enclosing function.
    if (ambiguous_globals_.count(req.original) != 0) return false;
    if (ambiguous_globals_.count(req.replacement) != 0) return false;
    auto og = globals_.find(req.original);
    auto rg = globals_.find(req.replacement);
    if (og == globals_.end() || rg == globals_.end()) return false;
    const GlobalInfo& o = og->second;
    const GlobalInfo& r = rg->second;
    if (o.is_array || r.is_array) return false;
    if (!o.type.same_as(r.type)) return false;
    if (pack_coerce(o.type) != pack_coerce(r.type)) return false;
    if (any_store && r.is_const) return false;
    for (const auto& p : points) {
      if (p.fn != kGlobalsInitFn) {
        size_t local = p.fn - fn_base_;
        if (local < tail_fn_locals_.size() &&
            tail_fn_locals_[local].count(req.replacement) != 0) {
          return false;
        }
      }
      const Insn& in = insn_at(p);
      Insn nv = in;
      if (p.role == PatchRole::kGlobalLoad) {
        switch (in.op) {
          case Op::kLoadGlobalInt:
          case Op::kLoadGlobalStr:
          case Op::kLoadGlobalStruct:
            break;
          default:
            return false;
        }
        if (in.b != o.slot) return false;
        nv.b = r.slot;
      } else {
        switch (in.op) {
          case Op::kStoreGlobalInt:
          case Op::kStoreGlobalStr:
          case Op::kStoreGlobalStruct:
          case Op::kOpStoreGlobal:
          case Op::kOpStoreGlobalImm:
          case Op::kStoreFieldGlobalInt:
          case Op::kStoreFieldGlobalStr:
          case Op::kStoreFieldGlobalStruct:
          case Op::kOpStoreFieldGlobal:
            break;
          default:
            return false;
        }
        if (in.a != o.slot) return false;
        nv.a = r.slot;
      }
      plan.push_back({p.fn, p.insn, nv});
    }
    return true;
  }

  return false;
}

std::optional<Module> Patcher::apply(const PatchRequest& req) const {
  auto it = points_by_site_.find(req.site);
  if (it == points_by_site_.end() || it->second.empty()) return std::nullopt;
  const std::vector<PatchPoint>& points = it->second;

  std::vector<Rewrite> plan;
  plan.reserve(points.size());
  switch (req.kind) {
    case PatchRequest::Kind::kOperator:
      for (const auto& p : points) {
        if (p.role != PatchRole::kOperator) return std::nullopt;
        if (!plan_operator(p, req.new_op, plan)) return std::nullopt;
      }
      break;
    case PatchRequest::Kind::kLiteral:
      for (const auto& p : points) {
        if (!plan_literal(p, req.value, plan)) return std::nullopt;
      }
      break;
    case PatchRequest::Kind::kIdentifier:
      if (!plan_identifier(req, points, plan)) return std::nullopt;
      break;
  }

  Module out = clone_clean();
  for (const Rewrite& rw : plan) {
    Insn& dst = rw.fn == kGlobalsInitFn
                    ? out.globals_init.code[rw.insn]
                    : out.fns[rw.fn - fn_base_].code[rw.insn];
    dst = rw.value;
  }
  return out;
}

}  // namespace minic::bytecode
