// AST -> register bytecode lowering. See bytecode.h for the step-accounting
// contract with the tree walker; every emit() call below is annotated with
// the walker behaviour it mirrors.
#include "minic/bytecode/bytecode.h"

#include <map>

#include "minic/builtins.h"
#include "minic/interp.h"

namespace minic::bytecode {

namespace {

[[noreturn]] void internal(const std::string& msg) {
  throw Fault{FaultKind::kInternal, msg};
}

/// Value category of an expression / storage location, decided statically
/// from the type checker's annotations.
enum class VK { kInt, kStr, kStruct };

VK vk_of(const Type& t) {
  if (t.kind == TypeKind::kCString) return VK::kStr;
  if (t.is_struct()) return VK::kStruct;
  return VK::kInt;  // integers and void results behave as integer 0
}

/// Shared per-module state: string pool, struct default templates, global
/// storage classification. In tail mode (`seg` non-null) the builder lowers
/// only the tail unit: intern lookups fall through to the segment's pools
/// and fresh entries get indices rebased past them, so emitted code indexes
/// directly into the spliced prefix+tail tables.
struct ModuleBuilder {
  const Unit& unit;               // the unit being lowered (tail or whole)
  const Unit* prefix_unit = nullptr;  // prefix decls when lowering a tail
  const ModuleSegment* seg = nullptr;
  PatchTable* patch_out = nullptr;    // clean recording compile only
  Module mod;
  std::map<std::string, uint32_t> string_ix;  // local additions, absolute ix
  std::map<std::string, uint32_t> struct_ix;  // local additions, absolute ix
  size_t global_base = 0;
  size_t string_base = 0;
  size_t struct_base = 0;

  explicit ModuleBuilder(const Unit& u) : unit(u) {
    mod.global_count = u.globals.size();
    build_struct_defaults();
  }

  ModuleBuilder(const Unit& tail, const Unit& prefix, const ModuleSegment& s)
      : unit(tail),
        prefix_unit(&prefix),
        seg(&s),
        global_base(s.global_count),
        string_base(s.strings.size()),
        struct_base(s.struct_defaults.size()) {
    mod.global_count = global_base + tail.globals.size();
    build_struct_defaults();
  }

  uint32_t intern(const std::string& s) {
    if (seg) {
      auto hit = seg->string_ix.find(s);
      if (hit != seg->string_ix.end()) return hit->second;
    }
    auto [it, inserted] = string_ix.emplace(
        s, static_cast<uint32_t>(string_base + mod.strings.size()));
    if (inserted) mod.strings.push_back(s);
    return it->second;
  }

  /// Absolute struct-defaults index for `name`, or null when unknown.
  const uint32_t* struct_index(const std::string& name) const {
    if (seg) {
      auto hit = seg->struct_ix.find(name);
      if (hit != seg->struct_ix.end()) return &hit->second;
    }
    auto it = struct_ix.find(name);
    return it == struct_ix.end() ? nullptr : &it->second;
  }

  void build_struct_defaults() {
    for (const auto& sd : unit.structs) {
      // First definition wins, as in the walker's structs_ map — and the
      // prefix's definitions precede the tail's.
      if (seg && seg->struct_ix.count(sd.name)) continue;
      struct_ix.emplace(
          sd.name, static_cast<uint32_t>(struct_base + struct_ix.size()));
    }
    mod.struct_defaults.resize(struct_ix.size());
    for (const auto& sd : unit.structs) {
      auto it = struct_ix.find(sd.name);
      if (it == struct_ix.end()) continue;  // defined by the prefix
      auto& slot = mod.struct_defaults[it->second - struct_base];
      if (!slot.empty()) continue;
      slot = default_fields(sd, 0);
    }
  }

  std::vector<VmValue> default_fields(const StructDecl& sd, int depth) {
    if (depth > 16) internal("struct nesting too deep in " + sd.name);
    std::vector<VmValue> out;
    for (const auto& f : sd.fields) {
      VmValue v;
      if (f.type.is_struct()) {
        if (const StructDecl* inner = find_struct(f.type.struct_name)) {
          v.fields = default_fields(*inner, depth + 1);
        }
      }
      out.push_back(std::move(v));
    }
    return out;
  }

  const StructDecl* find_struct(const std::string& name) const {
    if (prefix_unit) {
      for (const auto& sd : prefix_unit->structs) {
        if (sd.name == name) return &sd;
      }
    }
    for (const auto& sd : unit.structs) {
      if (sd.name == name) return &sd;
    }
    return nullptr;
  }

  /// Global declaration behind an absolute (prefix-continuing) slot.
  const GlobalDecl& global(int32_t slot) const {
    size_t ix = static_cast<size_t>(slot);
    if (ix < global_base) return prefix_unit->globals[ix];
    return unit.globals[ix - global_base];
  }
};

/// Lowers one function (or the synthetic globals initialiser).
class FunctionCompiler {
 public:
  FunctionCompiler(ModuleBuilder& mb, const FunctionDecl* decl,
                   uint32_t fn_id)
      : mb_(mb), decl_(decl), fn_id_(fn_id) {
    if (decl_) {
      out_.name = decl_->name;
      out_.nslots = decl_->frame_slots;
      slot_types_.resize(decl_->frame_slots);
      slot_is_array_.assign(decl_->frame_slots, false);
      for (const auto& p : decl_->params) {
        ParamSpec ps;
        ps.kind = static_cast<ParamSpec::Kind>(vk_of(p.type));
        ps.coerce = pack_coerce(p.type);
        out_.params.push_back(ps);
      }
      size_t slot = 0;
      for (const auto& p : decl_->params) {
        if (slot < slot_types_.size()) slot_types_[slot++] = p.type;
      }
      collect_decls(*decl_->body);
    } else {
      out_.name = "<globals>";
    }
    temp_base_ = out_.nslots;
    temp_cur_ = temp_base_;
    temp_max_ = temp_base_;
  }

  CompiledFunction compile_body() {
    compile_stmt(*decl_->body);
    emit_free(Op::kRetZero, 0, decl_->loc.line);
    return finish();
  }

  CompiledFunction compile_globals_init() {
    for (size_t g = 0; g < mb_.unit.globals.size(); ++g) {
      const GlobalDecl& gd = mb_.unit.globals[g];
      uint16_t greg = static_cast<uint16_t>(mb_.global_base + g);
      uint16_t save = temp_cur_;
      if (gd.array_size) {
        // Walker: slot.arr.assign(size, 0) — no step, no mark.
        Insn in = base(Op::kInitGlobalArr, gd.loc.line);
        in.a = greg;
        in.imm = static_cast<int64_t>(*gd.array_size);
        push(in);
      } else if (!gd.init_list.empty()) {
        emit_mark(gd.loc.line);
        const StructDecl* sd = mb_.find_struct(gd.type.struct_name);
        size_t nfields = sd ? sd->fields.size() : 0;
        for (size_t f = 0; f < gd.init_list.size() && f < nfields; ++f) {
          uint16_t rv = compile_expr(*gd.init_list[f]);
          const Type& ft = sd->fields[f].type;
          Op op = vk_of(ft) == VK::kInt     ? Op::kStoreGFieldIntF
                  : vk_of(ft) == VK::kStr   ? Op::kStoreGFieldStrF
                                            : Op::kStoreGFieldStructF;
          Insn in = base(op, gd.loc.line);
          in.a = greg;
          in.b = static_cast<uint16_t>(f);
          in.c = rv;
          in.w = pack_coerce(ft);
          in.imm = static_cast<int64_t>(nfields);  // sizes `fields` once
          push(in);
        }
      } else if (gd.init) {
        emit_mark(gd.loc.line);
        uint16_t rv = compile_expr(*gd.init);
        Op op = vk_of(gd.type) == VK::kInt   ? Op::kStoreGlobalIntF
                : vk_of(gd.type) == VK::kStr ? Op::kStoreGlobalStrF
                                             : Op::kStoreGlobalStructF;
        Insn in = base(op, gd.loc.line);
        in.a = greg;
        in.b = rv;
        in.w = pack_coerce(gd.type);
        push(in);
      }
      // No initialiser: a freshly constructed global register already
      // matches the walker's default value observably (integer 0, empty
      // string, absent fields read back as 0 via the kGetField fallback).
      temp_cur_ = save;
    }
    emit_free(Op::kRetZero, 0, 0);
    return finish();
  }

 private:
  CompiledFunction finish() {
    out_.nregs = temp_max_;
    if (out_.nregs > 0xffff) internal("function too large: " + out_.name);
    return std::move(out_);
  }

  // ---- slot bookkeeping ----------------------------------------------------
  void collect_decls(const Stmt& s) {
    if (s.kind == StmtKind::kDecl && s.frame_slot >= 0 &&
        static_cast<size_t>(s.frame_slot) < slot_types_.size()) {
      slot_types_[static_cast<size_t>(s.frame_slot)] = s.decl_type;
      slot_is_array_[static_cast<size_t>(s.frame_slot)] =
          s.array_size.has_value();
    }
    for (const auto& child : s.body) {
      if (child) collect_decls(*child);
    }
    for (const auto& c : s.cases) {
      for (const auto& child : c.body) collect_decls(*child);
    }
  }

  /// Coercion applied by a scalar store to this slot. The walker coerces to
  /// the slot's *value* type, which for an array slot is the untouched
  /// default (s32), not the element type.
  uint8_t local_store_coerce(int32_t slot) const {
    size_t ix = static_cast<size_t>(slot);
    if (ix >= slot_types_.size()) return 0;
    if (slot_is_array_[ix]) return pack_coerce(Type::int_type());
    return pack_coerce(slot_types_[ix]);
  }
  uint8_t global_store_coerce(int32_t gslot) const {
    const GlobalDecl& g = mb_.global(gslot);
    if (g.array_size) return pack_coerce(Type::int_type());
    return pack_coerce(g.type);
  }

  // ---- registers -----------------------------------------------------------
  uint16_t alloc_temp() {
    if (temp_cur_ >= 0xfffe) internal("expression too deep: " + out_.name);
    uint16_t r = static_cast<uint16_t>(temp_cur_++);
    if (temp_cur_ > temp_max_) temp_max_ = temp_cur_;
    return r;
  }
  uint16_t dst_or_temp(int dst) {
    return dst >= 0 ? static_cast<uint16_t>(dst) : alloc_temp();
  }

  // ---- pre-order charge placement ------------------------------------------
  /// True when a parent node's charge may be delayed past this subtree
  /// without any observable difference from the walker's pre-order
  /// charging. That requires every charge the subtree emits to sit
  /// statically on `line` (same exhaustion message), and the subtree to be
  /// free of faults and side effects — a throwing child (div/mod by zero,
  /// array bounds, Devil assertion) would leave a steps_used one short of
  /// the walker's, and an I/O or log side effect would land one charge
  /// early, mutating device state the walker never touched at the same
  /// budget. User-function calls fail both conditions (their bodies charge
  /// on their own lines).
  bool confined(const Expr& e, uint32_t line) const {
    if (e.loc.line != line) return false;
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kStringLit:
      case ExprKind::kIdent:
        return true;
      case ExprKind::kUnary:
      case ExprKind::kCast:
      case ExprKind::kMember:
      case ExprKind::kCond:
        break;  // pure when the children are
      case ExprKind::kBinary:
        if (e.op == Tok::kSlash || e.op == Tok::kPercent) return false;
        break;  // no other operator can fault
      case ExprKind::kAssign:
        // Scalar and single-level member stores cannot fault; element
        // stores can (bounds), deeper member chains lower to kUnreachable.
        // (No compound assignment maps to / or %, so the operation itself
        // is fault-free.)
        if (e.sub[0]->kind == ExprKind::kIdent) break;
        if (e.sub[0]->kind == ExprKind::kMember &&
            e.sub[0]->sub[0]->kind == ExprKind::kIdent) {
          break;
        }
        return false;
      case ExprKind::kIndex:
        return false;  // bad-index fault
      case ExprKind::kCall: {
        if (e.builtin_index < 0) return false;
        switch (static_cast<Builtin>(e.builtin_index)) {
          case Builtin::kStrcmp:
          case Builtin::kDilVal:
            break;  // pure
          case Builtin::kDilEq:
            // Integer mode is pure; struct mode can throw the type-tag
            // assertion.
            if (!e.sub.empty() && e.sub[0]->type.is_struct()) return false;
            break;
          default:
            return false;  // port I/O, udelay burn, panic, printk log
        }
        break;
      }
    }
    for (const auto& sub : e.sub) {
      if (sub && !confined(*sub, line)) return false;
    }
    return true;
  }

  /// Emits the node's pre-order charge when any of `children` is not
  /// confined to its line. Returns true when the action instruction must be
  /// marked free.
  bool maybe_precharge(std::initializer_list<const Expr*> children,
                       uint32_t line) {
    for (const Expr* c : children) {
      if (c && !confined(*c, line)) {
        emit_step(line);
        return true;
      }
    }
    return false;
  }

  // ---- emission ------------------------------------------------------------
  Insn base(Op op, uint32_t line) {
    Insn in;
    in.op = op;
    in.line = line;
    return in;
  }
  size_t push(const Insn& in) {
    out_.code.push_back(in);
    return out_.code.size() - 1;
  }
  /// Records a mutation-site patch point at `insn` (see PatchTable). No-op
  /// outside the campaign's clean recording compile or for untagged tokens.
  /// Points are recorded after the insn is pushed, so emit-time fusions that
  /// rewrite it in place (kBinJump & co) leave the index valid; the patcher
  /// dispatches on the final opcode.
  void record(uint32_t site, size_t insn, PatchRole role) {
    if (site == kNoSite || mb_.patch_out == nullptr) return;
    mb_.patch_out->points.push_back(
        {site, fn_id_, static_cast<uint32_t>(insn), role});
  }
  size_t here() const { return out_.code.size(); }
  /// Marks the current position as a jump target: emit-time fusion must not
  /// merge across it.
  void bind_label() { barrier_ = here(); }
  void patch(size_t ins, size_t target) {
    out_.code[ins].imm = static_cast<int64_t>(target);
  }
  void patch_all(const std::vector<size_t>& list, size_t target) {
    for (size_t ins : list) patch(ins, target);
  }

  bool can_fuse_last(Op op) const {
    return !out_.code.empty() && out_.code.size() > barrier_ &&
           out_.code.back().op == op;
  }

  void emit_step(uint32_t line) {
    push(base(Op::kStep, line));
  }
  void emit_step_mark(uint32_t line) {
    // Fuse a preceding statement-entry kStep (block entry followed by its
    // first statement): charge order and lines match the walker exactly
    // because the fused insn keeps both lines.
    if (can_fuse_last(Op::kStep)) {
      Insn& prev = out_.code.back();
      prev.op = Op::kStepStepMark;
      prev.imm = static_cast<int64_t>(line);
      return;
    }
    push(base(Op::kStepMark, line));
  }
  void emit_mark(uint32_t line) { push(base(Op::kMark, line)); }
  void emit_free(Op op, uint16_t a, uint32_t line) {
    Insn in = base(op, line);
    in.a = a;
    push(in);
  }
  /// Emits an unconditional jump, fusing into a preceding kStep (the empty
  /// loop-body pattern `while (...) {}`). Returns the insn to patch.
  size_t emit_jump() {
    if (can_fuse_last(Op::kStep)) {
      out_.code.back().op = Op::kStepJump;
      return out_.code.size() - 1;
    }
    return push(base(Op::kJump, 0));
  }
  size_t emit_branch(Op op, uint16_t a, uint16_t b = 0) {
    Insn in = base(op, 0);
    in.a = a;
    in.b = b;
    return push(in);
  }

  /// Maps a 3-register binop opcode back to its operator token (compare+
  /// branch fusion); kEof when the opcode is not a plain binop.
  static Tok binop_tok(Op op) {
    switch (op) {
      case Op::kAdd: return Tok::kPlus;
      case Op::kSub: return Tok::kMinus;
      case Op::kMul: return Tok::kStar;
      case Op::kDiv: return Tok::kSlash;
      case Op::kMod: return Tok::kPercent;
      case Op::kBitAnd: return Tok::kAmp;
      case Op::kBitOr: return Tok::kPipe;
      case Op::kBitXor: return Tok::kCaret;
      case Op::kShl: return Tok::kShl;
      case Op::kShr: return Tok::kShr;
      case Op::kCmpEq: return Tok::kEq;
      case Op::kCmpNe: return Tok::kNe;
      case Op::kCmpLt: return Tok::kLt;
      case Op::kCmpGt: return Tok::kGt;
      case Op::kCmpLe: return Tok::kLe;
      case Op::kCmpGe: return Tok::kGe;
      default: return Tok::kEof;
    }
  }

  /// Emits the jump-if-zero consuming condition register `c`. When the
  /// preceding instruction produced `c` into a dead temporary (the branch
  /// is its only consumer: the condition was compiled immediately before,
  /// into a register at or above the frame slots) and is a fusable
  /// compare/binop or a struct dil_eq, the branch fuses into it — one
  /// dispatch per `if (x == y)` / `while (stat & MASK)` / CDevil
  /// `while (dil_eq(...))` header, with the producer's charge count, line
  /// and free flag preserved and the dead result write dropped. Returns the
  /// instruction whose `imm` takes the jump target.
  size_t emit_jump_if_zero(uint16_t c) {
    if (!out_.code.empty() && out_.code.size() > barrier_) {
      Insn& prev = out_.code.back();
      if (prev.a == c && c >= temp_base_) {
        if (Tok t = binop_tok(prev.op); t != Tok::kEof) {
          prev.op = Op::kBinJump;
          prev.w = static_cast<uint8_t>(t);
          prev.a = 0;
          return out_.code.size() - 1;
        }
        if (prev.op == Op::kBinImm && prev.imm >= 0 && prev.imm <= 0xffff) {
          prev.op = Op::kBinImmJump;
          prev.c = static_cast<uint16_t>(prev.imm);
          prev.a = 0;
          prev.imm = 0;
          return out_.code.size() - 1;
        }
        if (prev.op == Op::kDilEqStruct) {
          prev.op = Op::kDilEqStructJump;
          prev.a = 0;
          return out_.code.size() - 1;
        }
      }
    }
    return emit_branch(Op::kJumpIfZero, c);
  }

  // ---- statements ----------------------------------------------------------
  struct LoopCtx {
    std::vector<size_t> breaks;
    std::vector<size_t> continues;
  };

  void compile_stmt(const Stmt& s) {
    uint16_t save = temp_cur_;
    compile_stmt_inner(s);
    temp_cur_ = save;
  }

  void compile_stmt_inner(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kEmpty:
        emit_step(s.loc.line);
        return;
      case StmtKind::kExpr:
        emit_step_mark(s.loc.line);
        compile_expr(*s.expr[0], -1, /*used=*/false);
        return;
      case StmtKind::kDecl:
        compile_decl(s);
        return;
      case StmtKind::kBlock:
        emit_step(s.loc.line);
        for (const auto& child : s.body) compile_stmt(*child);
        return;
      case StmtKind::kIf: {
        emit_step_mark(s.loc.line);
        uint16_t c = compile_expr(*s.expr[0]);
        size_t jfalse = emit_jump_if_zero(c);
        compile_stmt(*s.body[0]);
        if (s.body.size() > 1) {
          size_t jend = emit_jump();
          bind_label();
          patch(jfalse, here());
          compile_stmt(*s.body[1]);
          bind_label();
          patch(jend, here());
        } else {
          bind_label();
          patch(jfalse, here());
        }
        return;
      }
      case StmtKind::kWhile: {
        emit_step(s.loc.line);  // exec() entry, before the first iteration
        bind_label();
        size_t loop = here();
        emit_step_mark(s.loc.line);  // per-iteration charge + mark
        uint16_t c = compile_expr(*s.expr[0]);
        size_t jend = emit_jump_if_zero(c);
        loops_.emplace_back();
        compile_stmt(*s.body[0]);
        patch(emit_jump(), loop);
        bind_label();
        LoopCtx ctx = std::move(loops_.back());
        loops_.pop_back();
        patch(jend, here());
        patch_all(ctx.breaks, here());
        patch_all(ctx.continues, loop);
        return;
      }
      case StmtKind::kDoWhile: {
        emit_step(s.loc.line);
        bind_label();
        size_t loop = here();
        emit_step_mark(s.loc.line);
        loops_.emplace_back();
        compile_stmt(*s.body[0]);
        bind_label();
        size_t cont = here();
        uint16_t c = compile_expr(*s.expr[0]);
        Insn in = base(Op::kJumpIfNotZero, 0);
        in.a = c;
        in.imm = static_cast<int64_t>(loop);
        push(in);
        bind_label();
        LoopCtx ctx = std::move(loops_.back());
        loops_.pop_back();
        patch_all(ctx.breaks, here());
        patch_all(ctx.continues, cont);
        return;
      }
      case StmtKind::kFor: {
        emit_step(s.loc.line);
        if (s.body.size() > 1 && s.body[1]) compile_stmt(*s.body[1]);
        bind_label();
        size_t loop = here();
        emit_step_mark(s.loc.line);
        size_t jend = static_cast<size_t>(-1);
        if (!s.expr.empty()) {
          uint16_t c = compile_expr(*s.expr[0]);
          jend = emit_jump_if_zero(c);
        }
        loops_.emplace_back();
        compile_stmt(*s.body[0]);
        bind_label();
        size_t cont = here();
        if (s.expr.size() > 1) {
          uint16_t save = temp_cur_;
          compile_expr(*s.expr[1], -1, /*used=*/false);
          temp_cur_ = save;
        }
        patch(emit_jump(), loop);
        bind_label();
        LoopCtx ctx = std::move(loops_.back());
        loops_.pop_back();
        if (jend != static_cast<size_t>(-1)) patch(jend, here());
        patch_all(ctx.breaks, here());
        patch_all(ctx.continues, cont);
        return;
      }
      case StmtKind::kReturn: {
        emit_step_mark(s.loc.line);
        if (s.expr.empty()) {
          emit_free(Op::kRetZero, 0, s.loc.line);
        } else {
          uint16_t r = compile_expr(*s.expr[0]);
          emit_free(Op::kRet, r, s.loc.line);
        }
        return;
      }
      case StmtKind::kBreak: {
        emit_step_mark(s.loc.line);
        size_t j = emit_jump();
        if (loops_.empty()) internal("break outside loop in " + out_.name);
        loops_.back().breaks.push_back(j);
        return;
      }
      case StmtKind::kContinue: {
        emit_step_mark(s.loc.line);
        size_t j = emit_jump();
        if (loops_.empty()) internal("continue outside loop in " + out_.name);
        loops_.back().continues.push_back(j);
        return;
      }
      case StmtKind::kSwitch:
        compile_switch(s);
        return;
    }
  }

  void compile_decl(const Stmt& s) {
    if (s.frame_slot < 0) internal("unresolved local " + s.decl_name);
    uint16_t slot = static_cast<uint16_t>(s.frame_slot);
    if (s.array_size) {
      Insn in = base(Op::kDeclArr, s.loc.line);
      in.a = slot;
      in.imm = static_cast<int64_t>(*s.array_size);
      push(in);
      return;
    }
    if (!s.expr.empty()) {
      // Walker: step+mark, default the slot, then eval+store (the default
      // is unobservable under the immediate store).
      emit_step_mark(s.loc.line);
      uint16_t rv = compile_expr(*s.expr[0]);
      Op op = vk_of(s.decl_type) == VK::kInt   ? Op::kStoreLocalIntF
              : vk_of(s.decl_type) == VK::kStr ? Op::kStoreLocalStrF
                                               : Op::kStoreLocalStructF;
      Insn in = base(op, s.loc.line);
      in.a = slot;
      in.b = rv;
      in.w = pack_coerce(s.decl_type);
      push(in);
      return;
    }
    switch (vk_of(s.decl_type)) {
      case VK::kInt: {
        Insn in = base(Op::kDeclIntZ, s.loc.line);
        in.a = slot;
        push(in);
        return;
      }
      case VK::kStr: {
        Insn in = base(Op::kDeclStrZ, s.loc.line);
        in.a = slot;
        push(in);
        return;
      }
      case VK::kStruct: {
        Insn in = base(Op::kDeclStructZ, s.loc.line);
        in.a = slot;
        const uint32_t* ix = mb_.struct_index(s.decl_type.struct_name);
        if (!ix) internal("unknown struct " + s.decl_type.struct_name);
        in.imm = static_cast<int64_t>(*ix);
        push(in);
        return;
      }
    }
  }

  void compile_switch(const Stmt& s) {
    emit_step_mark(s.loc.line);
    uint16_t operand = compile_expr(*s.expr[0]);
    // Walker scan order: every non-default case in declaration order is
    // marked and its value evaluated until the first match; default is the
    // fallback position.
    std::vector<size_t> arm_jumps(s.cases.size(), static_cast<size_t>(-1));
    size_t default_ix = s.cases.size();
    for (size_t i = 0; i < s.cases.size(); ++i) {
      const SwitchCase& c = s.cases[i];
      if (c.is_default) {
        default_ix = i;
        continue;
      }
      if (c.value->kind == ExprKind::kIntLit) {
        uint16_t t = alloc_temp();
        Insn in = base(Op::kCaseTest, c.loc.line);
        in.a = operand;
        in.b = t;
        in.imm = static_cast<int64_t>(c.value->int_value);
        record(c.value->site, push(in), PatchRole::kLiteral);
        arm_jumps[i] = emit_branch(Op::kJumpIfNotZero, t);
      } else {
        emit_mark(c.loc.line);
        uint16_t v = compile_expr(*c.value);
        arm_jumps[i] = emit_branch(Op::kJumpIfEqual, operand, v);
      }
    }
    size_t jdefault = emit_jump();  // to default arm, or past the switch
    loops_.emplace_back();          // break binds to the switch end
    std::vector<size_t> arm_pos(s.cases.size(), 0);
    for (size_t i = 0; i < s.cases.size(); ++i) {
      bind_label();
      arm_pos[i] = here();
      for (const auto& child : s.cases[i].body) compile_stmt(*child);
    }
    bind_label();
    size_t end = here();
    LoopCtx ctx = std::move(loops_.back());
    loops_.pop_back();
    // Walker: a `continue` inside a switch propagates out of the switch to
    // the enclosing loop (Flow::kContinue is "not kBreak / not kNormal").
    if (!ctx.continues.empty()) {
      if (loops_.empty()) internal("continue outside loop in " + out_.name);
      for (size_t j : ctx.continues) loops_.back().continues.push_back(j);
    }
    patch_all(ctx.breaks, end);
    for (size_t i = 0; i < s.cases.size(); ++i) {
      if (arm_jumps[i] != static_cast<size_t>(-1)) {
        patch(arm_jumps[i], arm_pos[i]);
      }
    }
    patch(jdefault, default_ix < s.cases.size() ? arm_pos[default_ix] : end);
  }

  // ---- expressions ---------------------------------------------------------
  /// Compiles `e`, returning the register holding its value. `dst` >= 0
  /// forces the result register (used for ?: arms and call arguments).
  /// `used` == false lets assignments skip materialising their value.
  uint16_t compile_expr(const Expr& e, int dst = -1, bool used = true) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        uint16_t r = dst_or_temp(dst);
        Insn in = base(Op::kLoadConst, e.loc.line);
        in.a = r;
        in.imm = static_cast<int64_t>(e.int_value);
        record(e.site, push(in), PatchRole::kLiteral);
        return r;
      }
      case ExprKind::kStringLit: {
        uint16_t r = dst_or_temp(dst);
        Insn in = base(Op::kLoadStr, e.loc.line);
        in.a = r;
        in.imm = static_cast<int64_t>(mb_.intern(e.text));
        push(in);
        return r;
      }
      case ExprKind::kIdent: {
        uint16_t r = dst_or_temp(dst);
        Insn in;
        if (e.frame_slot >= 0) {
          Op op = vk_of(e.type) == VK::kInt   ? Op::kMoveInt
                  : vk_of(e.type) == VK::kStr ? Op::kMoveStr
                                              : Op::kMoveStruct;
          in = base(op, e.loc.line);
          in.b = static_cast<uint16_t>(e.frame_slot);
        } else if (e.global_slot >= 0) {
          Op op = vk_of(e.type) == VK::kInt   ? Op::kLoadGlobalInt
                  : vk_of(e.type) == VK::kStr ? Op::kLoadGlobalStr
                                              : Op::kLoadGlobalStruct;
          in = base(op, e.loc.line);
          in.b = static_cast<uint16_t>(e.global_slot);
        } else {
          return emit_unreachable("unbound name " + e.text, e.loc.line, dst);
        }
        in.a = r;
        size_t ix = push(in);
        if (e.frame_slot < 0) record(e.site, ix, PatchRole::kGlobalLoad);
        return r;
      }
      case ExprKind::kUnary: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t rs = compile_expr(*e.sub[0]);
        uint16_t r = dst_or_temp(dst);
        Op op;
        switch (e.op) {
          case Tok::kMinus: op = Op::kNeg; break;
          case Tok::kPlus: op = Op::kMoveInt; break;
          case Tok::kTilde: op = Op::kBitNot; break;
          case Tok::kBang: op = Op::kLogNot; break;
          default:
            return emit_unreachable("bad unary op", e.loc.line, dst);
        }
        Insn in = base(op, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = rs;
        record(e.op_site, push(in), PatchRole::kOperator);
        return r;
      }
      case ExprKind::kBinary:
        return compile_binary(e, dst);
      case ExprKind::kAssign:
        return compile_assign(e, dst, used);
      case ExprKind::kCond: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t c = compile_expr(*e.sub[0]);
        uint16_t r = dst_or_temp(dst);
        Insn in = base(Op::kCondJumpZero, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = c;
        size_t jelse = push(in);
        compile_expr(*e.sub[1], r);
        size_t jend = emit_jump();
        bind_label();
        patch(jelse, here());
        compile_expr(*e.sub[2], r);
        bind_label();
        patch(jend, here());
        return r;
      }
      case ExprKind::kMember: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t rb = compile_expr(*e.sub[0]);
        if (e.member_index < 0) {
          return emit_unreachable("unresolved member " + e.text, e.loc.line,
                                  dst);
        }
        uint16_t r = dst_or_temp(dst);
        Op op = vk_of(e.type) == VK::kInt   ? Op::kGetFieldInt
                : vk_of(e.type) == VK::kStr ? Op::kGetFieldStr
                                            : Op::kGetFieldStruct;
        Insn in = base(op, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = rb;
        in.c = static_cast<uint16_t>(e.member_index);
        push(in);
        return r;
      }
      case ExprKind::kIndex:
        return compile_index_load(e, dst);
      case ExprKind::kCast: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t rs = compile_expr(*e.sub[0]);
        uint16_t r = dst_or_temp(dst);
        Insn in;
        if (e.cast_type.is_integer()) {
          uint8_t co = pack_coerce(e.cast_type);
          in = base(co ? Op::kCoerce : Op::kMoveInt, e.loc.line);
          in.w = co;
        } else {
          // struct -> same struct or cstring: identity (one charge).
          in = base(vk_of(e.cast_type) == VK::kStr ? Op::kMoveStr
                                                   : Op::kMoveStruct,
                    e.loc.line);
        }
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = rs;
        push(in);
        return r;
      }
      case ExprKind::kCall:
        return compile_call(e, dst);
    }
    return emit_unreachable("bad expression kind", e.loc.line, dst);
  }

  uint16_t compile_binary(const Expr& e, int dst) {
    if (e.op == Tok::kAmpAmp || e.op == Tok::kPipePipe) {
      // The short-circuit charge is delayed past the left operand only.
      bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
      uint16_t r = dst_or_temp(dst);
      uint16_t ls = compile_expr(*e.sub[0]);
      Insn in = base(e.op == Tok::kAmpAmp ? Op::kAndJump : Op::kOrJump,
                     e.loc.line);
      if (pre) in.flags = kInsnFree;
      in.a = r;
      in.b = ls;
      size_t jshort = push(in);
      record(e.op_site, jshort, PatchRole::kOperator);
      uint16_t rs = compile_expr(*e.sub[1]);
      Insn norm = base(Op::kBoolNorm, e.loc.line);
      norm.a = r;
      norm.b = rs;
      push(norm);
      bind_label();
      patch(jshort, here());
      return r;
    }
    // Poll-loop superinstruction: `inb(PORT) & MASK` with every node on one
    // line collapses to a single dispatch charging all four walker steps
    // (&, the call, the port literal, the mask literal). When it directly
    // follows the loop iteration's kStepMark on the same line, that fuses
    // in too — one instruction per `while (inb(P) & M)` header.
    if (e.op == Tok::kAmp && e.sub[1]->kind == ExprKind::kIntLit &&
        is_const_port_in(*e.sub[0]) &&
        e.sub[0]->loc.line == e.loc.line &&
        e.sub[0]->sub[0]->loc.line == e.loc.line &&
        e.sub[1]->loc.line == e.loc.line) {
      uint16_t r = dst_or_temp(dst);
      uint64_t port = e.sub[0]->sub[0]->int_value & 0xffffffffULL;
      uint64_t mask = e.sub[1]->int_value & 0xffffffffULL;
      Builtin b = static_cast<Builtin>(e.sub[0]->builtin_index);
      Insn in = base(Op::kInConstAnd, e.loc.line);
      if (can_fuse_last(Op::kStepMark) &&
          out_.code.back().line == e.loc.line) {
        out_.code.pop_back();
        in.op = Op::kPollInAnd;
      }
      in.a = r;
      in.w = b == Builtin::kInb ? 8 : b == Builtin::kInw ? 16 : 32;
      in.imm = static_cast<int64_t>(port | (mask << 32));
      size_t ix = push(in);
      // The `&` site itself is not recorded: no other operator can express
      // this fusion, so its mutants fall back to recompilation.
      record(e.sub[0]->sub[0]->site, ix, PatchRole::kPackedPort);
      record(e.sub[1]->site, ix, PatchRole::kPackedMask);
      return r;
    }
    bool pre =
        maybe_precharge({e.sub[0].get(), e.sub[1].get()}, e.loc.line);
    uint16_t ls = compile_expr(*e.sub[0]);
    // Fused constant right operand: charges twice (operand, operator) on
    // one line, matching the walker's two per-node charges.
    if (!pre && e.sub[1]->kind == ExprKind::kIntLit &&
        e.sub[1]->loc.line == e.loc.line) {
      uint16_t r = dst_or_temp(dst);
      Insn in = base(Op::kBinImm, e.loc.line);
      in.a = r;
      in.b = ls;
      in.w = static_cast<uint8_t>(e.op);
      in.imm = static_cast<int64_t>(e.sub[1]->int_value);
      size_t ix = push(in);
      record(e.op_site, ix, PatchRole::kOperator);
      record(e.sub[1]->site, ix, PatchRole::kLiteral);
      return r;
    }
    uint16_t rs = compile_expr(*e.sub[1]);
    uint16_t r = dst_or_temp(dst);
    Op op;
    switch (e.op) {
      case Tok::kPlus: op = Op::kAdd; break;
      case Tok::kMinus: op = Op::kSub; break;
      case Tok::kStar: op = Op::kMul; break;
      case Tok::kSlash: op = Op::kDiv; break;
      case Tok::kPercent: op = Op::kMod; break;
      case Tok::kAmp: op = Op::kBitAnd; break;
      case Tok::kPipe: op = Op::kBitOr; break;
      case Tok::kCaret: op = Op::kBitXor; break;
      case Tok::kShl: op = Op::kShl; break;
      case Tok::kShr: op = Op::kShr; break;
      case Tok::kEq: op = Op::kCmpEq; break;
      case Tok::kNe: op = Op::kCmpNe; break;
      case Tok::kLt: op = Op::kCmpLt; break;
      case Tok::kGt: op = Op::kCmpGt; break;
      case Tok::kLe: op = Op::kCmpLe; break;
      case Tok::kGe: op = Op::kCmpGe; break;
      default:
        return emit_unreachable("bad binary op", e.loc.line, dst);
    }
    Insn in = base(op, e.loc.line);
    if (pre) in.flags = kInsnFree;
    in.a = r;
    in.b = ls;
    in.c = rs;
    record(e.op_site, push(in), PatchRole::kOperator);
    return r;
  }

  uint16_t compile_index_load(const Expr& e, int dst) {
    const Expr& b = *e.sub[0];
    if (b.kind != ExprKind::kIdent || !is_array_slot(b)) {
      return emit_unreachable("index on non-array", e.loc.line, dst);
    }
    bool pre = maybe_precharge({e.sub[1].get()}, e.loc.line);
    uint16_t ri = compile_expr(*e.sub[1]);
    uint16_t r = dst_or_temp(dst);
    Insn in = base(b.frame_slot >= 0 ? Op::kLoadElemLocal : Op::kLoadElemGlobal,
                   e.loc.line);
    if (pre) in.flags = kInsnFree;
    in.a = r;
    in.b = static_cast<uint16_t>(b.frame_slot >= 0 ? b.frame_slot
                                                   : b.global_slot);
    in.c = ri;
    in.imm = static_cast<int64_t>(mb_.intern(b.text));
    push(in);
    return r;
  }

  /// Operators apply_binop accepts (everything but the short-circuit pair).
  static bool is_plain_binop(Tok t) {
    switch (t) {
      case Tok::kPlus: case Tok::kMinus: case Tok::kStar: case Tok::kSlash:
      case Tok::kPercent: case Tok::kAmp: case Tok::kPipe: case Tok::kCaret:
      case Tok::kShl: case Tok::kShr: case Tok::kEq: case Tok::kNe:
      case Tok::kLt: case Tok::kGt: case Tok::kLe: case Tok::kGe:
        return true;
      default:
        return false;
    }
  }

  /// True for `inb/inw/inl(<int literal>)` — the fusable constant-port read.
  static bool is_const_port_in(const Expr& e) {
    if (e.kind != ExprKind::kCall || e.builtin_index < 0) return false;
    Builtin b = static_cast<Builtin>(e.builtin_index);
    if (b != Builtin::kInb && b != Builtin::kInw && b != Builtin::kInl) {
      return false;
    }
    return e.sub.size() == 1 && e.sub[0]->kind == ExprKind::kIntLit;
  }

  bool is_array_slot(const Expr& ident) const {
    if (ident.frame_slot >= 0) {
      size_t ix = static_cast<size_t>(ident.frame_slot);
      return ix < slot_is_array_.size() && slot_is_array_[ix];
    }
    if (ident.global_slot >= 0) {
      return mb_.global(ident.global_slot).array_size.has_value();
    }
    return false;
  }

  uint16_t compile_assign(const Expr& e, int dst, bool used) {
    const Expr& lhs = *e.sub[0];
    const Expr& rhs = *e.sub[1];
    bool compound = e.op != Tok::kAssign;
    VK lvk = vk_of(lhs.type);
    // The walker charges the assignment node before evaluating the rhs (and
    // the subscript, for element stores); pre-charge when either can charge
    // off this line.
    const Expr* idx_child =
        lhs.kind == ExprKind::kIndex ? lhs.sub[1].get() : nullptr;
    bool pre = maybe_precharge({&rhs, idx_child}, e.loc.line);

    // --- scalar identifier target ---------------------------------------
    // An array-typed identifier is also stored through its (default s32)
    // scalar value, exactly as the walker's store_into does.
    if (lhs.kind == ExprKind::kIdent &&
        (lhs.frame_slot >= 0 || lhs.global_slot >= 0)) {
      bool local = lhs.frame_slot >= 0;
      uint16_t slot = static_cast<uint16_t>(local ? lhs.frame_slot
                                                  : lhs.global_slot);
      uint8_t co = local ? local_store_coerce(lhs.frame_slot)
                         : global_store_coerce(lhs.global_slot);
      if (is_array_slot(lhs)) lvk = VK::kInt;  // default value is integer
      if (compound) {
        Tok op = compound_base(e.op);
        if (op == Tok::kEof) {
          return emit_unreachable("bad compound op", e.loc.line, dst);
        }
        // Fused constant rhs (the `i++` desugaring): two charges, one line.
        if (!pre && rhs.kind == ExprKind::kIntLit &&
            rhs.loc.line == e.loc.line) {
          Insn in = base(local ? Op::kOpStoreLocalImm : Op::kOpStoreGlobalImm,
                         e.loc.line);
          in.a = slot;
          in.c = static_cast<uint16_t>(op);
          in.w = co;
          in.imm = static_cast<int64_t>(rhs.int_value);
          size_t ix = push(in);
          record(e.op_site, ix, PatchRole::kOperator);
          record(rhs.site, ix, PatchRole::kLiteral);
          if (!local) record(lhs.site, ix, PatchRole::kGlobalStore);
        } else {
          uint16_t rv = compile_expr(rhs);
          Insn in = base(local ? Op::kOpStoreLocal : Op::kOpStoreGlobal,
                         e.loc.line);
          if (pre) in.flags = kInsnFree;
          in.a = slot;
          in.b = rv;
          in.c = static_cast<uint16_t>(op);
          in.w = co;
          size_t ix = push(in);
          record(e.op_site, ix, PatchRole::kOperator);
          if (!local) record(lhs.site, ix, PatchRole::kGlobalStore);
        }
        return used ? take_stored(dst) : 0;
      }
      // Poll-loop superinstruction: `n = m <op> LIT` with every node on one
      // line is one dispatch charging all four walker steps (assignment,
      // operator, identifier, literal).
      if (!pre && lvk == VK::kInt && local && rhs.kind == ExprKind::kBinary &&
          is_plain_binop(rhs.op) && rhs.sub[0]->kind == ExprKind::kIdent &&
          rhs.sub[0]->frame_slot >= 0 &&
          rhs.sub[1]->kind == ExprKind::kIntLit &&
          rhs.loc.line == e.loc.line &&
          rhs.sub[0]->loc.line == e.loc.line &&
          rhs.sub[1]->loc.line == e.loc.line) {
        Insn in = base(Op::kStoreSlotBinImm, e.loc.line);
        in.a = slot;
        in.b = static_cast<uint16_t>(rhs.sub[0]->frame_slot);
        in.c = co;
        in.w = static_cast<uint8_t>(rhs.op);
        in.imm = static_cast<int64_t>(rhs.sub[1]->int_value);
        size_t ix = push(in);
        record(rhs.op_site, ix, PatchRole::kOperator);
        record(rhs.sub[1]->site, ix, PatchRole::kLiteral);
        return used ? take_stored(dst) : 0;
      }
      uint16_t rv = compile_expr(rhs);
      Op op = lvk == VK::kInt   ? (local ? Op::kStoreLocalInt
                                         : Op::kStoreGlobalInt)
              : lvk == VK::kStr ? (local ? Op::kStoreLocalStr
                                         : Op::kStoreGlobalStr)
                                : (local ? Op::kStoreLocalStruct
                                         : Op::kStoreGlobalStruct);
      Insn in = base(op, e.loc.line);
      if (pre) in.flags = kInsnFree;
      in.a = slot;
      in.b = rv;
      in.w = co;
      size_t ix = push(in);
      if (!local) record(lhs.site, ix, PatchRole::kGlobalStore);
      if (!used) return 0;
      return lvk == VK::kInt ? take_stored(dst) : place(rv, lvk, dst);
    }

    // --- array element target -------------------------------------------
    if (lhs.kind == ExprKind::kIndex && lhs.sub[0]->kind == ExprKind::kIdent &&
        is_array_slot(*lhs.sub[0])) {
      const Expr& arr = *lhs.sub[0];
      bool local = arr.frame_slot >= 0;
      uint16_t slot = static_cast<uint16_t>(local ? arr.frame_slot
                                                  : arr.global_slot);
      uint8_t co = elem_coerce(arr);
      uint32_t name_ix = mb_.intern(arr.text);
      // Walker order: rhs first, then the index (inside resolve_lvalue).
      uint16_t rv = compile_expr(rhs);
      uint16_t ri = compile_expr(*lhs.sub[1]);
      if (compound) {
        Tok op = compound_base(e.op);
        if (op == Tok::kEof) {
          return emit_unreachable("bad compound op", e.loc.line, dst);
        }
        Insn in = base(local ? Op::kOpStoreElemLocal : Op::kOpStoreElemGlobal,
                       e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = slot;
        in.b = ri;
        in.c = rv;
        in.imm = PackedElemOp::pack(name_ix, static_cast<uint8_t>(op), co);
        record(e.op_site, push(in), PatchRole::kOperator);
      } else {
        Insn in = base(local ? Op::kStoreElemLocal : Op::kStoreElemGlobal,
                       e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = slot;
        in.b = ri;
        in.c = rv;
        in.w = co;
        in.imm = static_cast<int64_t>(name_ix);
        push(in);
      }
      return used ? take_stored(dst) : 0;
    }

    // --- single-level member of an identifier ---------------------------
    if (lhs.kind == ExprKind::kMember &&
        lhs.sub[0]->kind == ExprKind::kIdent && lhs.member_index >= 0 &&
        (lhs.sub[0]->frame_slot >= 0 || lhs.sub[0]->global_slot >= 0)) {
      const Expr& b = *lhs.sub[0];
      bool local = b.frame_slot >= 0;
      uint16_t slot = static_cast<uint16_t>(local ? b.frame_slot
                                                  : b.global_slot);
      uint16_t field = static_cast<uint16_t>(lhs.member_index);
      uint8_t co = pack_coerce(lhs.type);
      uint16_t rv = compile_expr(rhs);
      if (compound) {
        Tok op = compound_base(e.op);
        if (op == Tok::kEof) {
          return emit_unreachable("bad compound op", e.loc.line, dst);
        }
        Insn in = base(local ? Op::kOpStoreFieldLocal : Op::kOpStoreFieldGlobal,
                       e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = slot;
        in.b = field;
        in.c = rv;
        in.w = co;
        in.imm = static_cast<int64_t>(static_cast<uint8_t>(op));
        size_t ix = push(in);
        record(e.op_site, ix, PatchRole::kOperator);
        if (!local) record(b.site, ix, PatchRole::kGlobalStore);
        return used ? take_stored(dst) : 0;
      }
      Op op = lvk == VK::kInt   ? (local ? Op::kStoreFieldLocalInt
                                         : Op::kStoreFieldGlobalInt)
              : lvk == VK::kStr ? (local ? Op::kStoreFieldLocalStr
                                         : Op::kStoreFieldGlobalStr)
                                : (local ? Op::kStoreFieldLocalStruct
                                         : Op::kStoreFieldGlobalStruct);
      Insn in = base(op, e.loc.line);
      if (pre) in.flags = kInsnFree;
      in.a = slot;
      in.b = field;
      in.c = rv;
      in.w = co;
      size_t ix = push(in);
      if (!local) record(b.site, ix, PatchRole::kGlobalStore);
      if (!used) return 0;
      return lvk == VK::kInt ? take_stored(dst) : place(rv, lvk, dst);
    }

    // Anything else faults in the walker too (kInternal: member chains
    // through array elements, assignment to non-lvalues that slipped past a
    // bypassed checker). Nested member chains (a.b.c = x) would be valid in
    // the walker, but no post-typecheck unit in this corpus produces one —
    // the loud kInternal here keeps that assumption honest. The rhs is
    // evaluated first, as the walker's assignment does before
    // resolve_lvalue throws.
    compile_expr(rhs);
    const char* msg = lhs.kind == ExprKind::kIndex  ? "index on non-array"
                      : lhs.kind == ExprKind::kMember ? "bad member lvalue"
                                                      : "assignment to non-lvalue";
    return emit_unreachable(msg, e.loc.line, dst);
  }

  /// Moves a string/struct assignment value into the caller-forced result
  /// register. The stored value equals the rhs register's content (the
  /// store copies), so a free move suffices.
  uint16_t place(uint16_t rv, VK vk, int dst) {
    if (dst < 0 || static_cast<uint16_t>(dst) == rv) return rv;
    Insn in = base(vk == VK::kStr ? Op::kCopyStr : Op::kCopyStruct, 0);
    in.a = static_cast<uint16_t>(dst);
    in.b = rv;
    push(in);
    return static_cast<uint16_t>(dst);
  }

  uint8_t elem_coerce(const Expr& arr_ident) const {
    if (arr_ident.frame_slot >= 0) {
      size_t ix = static_cast<size_t>(arr_ident.frame_slot);
      if (ix < slot_types_.size()) return pack_coerce(slot_types_[ix]);
      return 0;
    }
    return pack_coerce(mb_.global(arr_ident.global_slot).type);
  }

  uint16_t take_stored(int dst) {
    uint16_t r = dst_or_temp(dst);
    emit_free(Op::kTakeStored, r, 0);
    return r;
  }

  uint16_t compile_call(const Expr& e, int dst) {
    if (e.builtin_index >= 0) return compile_builtin(e, dst);
    if (e.callee_index >= 0) {
      // The walker charges the call node before evaluating any argument.
      std::vector<const Expr*> args;
      for (const auto& a : e.sub) args.push_back(a.get());
      bool pre = false;
      for (const Expr* a : args) {
        if (!confined(*a, e.loc.line)) { pre = true; break; }
      }
      if (pre) emit_step(e.loc.line);
      size_t argc = e.sub.size();
      uint16_t argbase = temp_cur_;
      for (size_t i = 0; i < argc; ++i) alloc_temp();
      for (size_t i = 0; i < argc; ++i) {
        compile_expr(*e.sub[i], static_cast<int>(argbase + i));
      }
      uint16_t r = dst_or_temp(dst);
      Insn in = base(Op::kCall, e.loc.line);
      if (pre) in.flags = kInsnFree;
      in.a = r;
      in.b = static_cast<uint16_t>(e.callee_index);
      in.c = argbase;
      in.imm = static_cast<int64_t>(argc);
      record(e.site, push(in), PatchRole::kCallee);
      return r;
    }
    return emit_unreachable("unresolved call to " + e.text, e.loc.line, dst);
  }

  uint16_t compile_builtin(const Expr& e, int dst) {
    Builtin b = static_cast<Builtin>(e.builtin_index);
    switch (b) {
      case Builtin::kInb:
      case Builtin::kInw:
      case Builtin::kInl: {
        uint8_t width = b == Builtin::kInb ? 8 : b == Builtin::kInw ? 16 : 32;
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        // Fused constant port (the poll-loop shape `inb(IDE_STATUS)`):
        // two charges — call node, then the port literal — one line.
        if (!pre && e.sub[0]->kind == ExprKind::kIntLit &&
            e.sub[0]->loc.line == e.loc.line) {
          uint16_t r = dst_or_temp(dst);
          Insn in = base(Op::kInConst, e.loc.line);
          in.a = r;
          in.w = width;
          in.imm = static_cast<int64_t>(e.sub[0]->int_value);
          record(e.sub[0]->site, push(in), PatchRole::kLiteral);
          return r;
        }
        uint16_t rp = compile_expr(*e.sub[0]);
        uint16_t r = dst_or_temp(dst);
        Insn in = base(Op::kIn, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = rp;
        in.w = width;
        push(in);
        return r;
      }
      case Builtin::kOutb:
      case Builtin::kOutw:
      case Builtin::kOutl: {
        uint8_t width = b == Builtin::kOutb ? 8
                        : b == Builtin::kOutw ? 16
                                              : 32;
        bool pre = maybe_precharge({e.sub[0].get(), e.sub[1].get()},
                                   e.loc.line);
        uint16_t rv = compile_expr(*e.sub[0]);
        uint16_t rp = compile_expr(*e.sub[1]);
        Insn in = base(Op::kOut, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = rv;
        in.b = rp;
        in.w = width;
        push(in);
        return rv;  // void result; reading .i of the value register is
                    // never done (void expressions are statement-level)
      }
      case Builtin::kPanic: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t rs = compile_expr(*e.sub[0]);
        Insn in = base(Op::kPanic, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = rs;
        push(in);
        return rs;
      }
      case Builtin::kPrintk: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t rs = compile_expr(*e.sub[0]);
        Insn in = base(Op::kPrintk, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = rs;
        push(in);
        return rs;
      }
      case Builtin::kStrcmp: {
        bool pre = maybe_precharge({e.sub[0].get(), e.sub[1].get()},
                                   e.loc.line);
        uint16_t r1 = compile_expr(*e.sub[0]);
        uint16_t r2 = compile_expr(*e.sub[1]);
        uint16_t r = dst_or_temp(dst);
        Insn in = base(Op::kStrcmp, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = r1;
        in.c = r2;
        push(in);
        return r;
      }
      case Builtin::kUdelay: {
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t ra = compile_expr(*e.sub[0]);
        Insn in = base(Op::kUdelay, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = ra;
        push(in);
        return ra;
      }
      case Builtin::kDilEq: {
        bool structs = e.sub[0]->type.is_struct();
        bool pre = maybe_precharge({e.sub[0].get(), e.sub[1].get()},
                                   e.loc.line);
        uint16_t r1 = compile_expr(*e.sub[0]);
        uint16_t r2 = compile_expr(*e.sub[1]);
        uint16_t r = dst_or_temp(dst);
        Insn in = base(structs ? Op::kDilEqStruct : Op::kDilEqInt, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = r1;
        in.c = r2;
        push(in);
        return r;
      }
      case Builtin::kDilVal: {
        bool structs = e.sub[0]->type.is_struct();
        bool pre = maybe_precharge({e.sub[0].get()}, e.loc.line);
        uint16_t rs = compile_expr(*e.sub[0]);
        uint16_t r = dst_or_temp(dst);
        Insn in = base(structs ? Op::kDilValStruct : Op::kDilValInt,
                       e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = r;
        in.b = rs;
        push(in);
        return r;
      }
      case Builtin::kRequestIrq: {
        bool pre = maybe_precharge({e.sub[0].get(), e.sub[1].get()},
                                   e.loc.line);
        uint16_t rl = compile_expr(*e.sub[0]);
        uint16_t rs = compile_expr(*e.sub[1]);
        Insn in = base(Op::kRequestIrq, e.loc.line);
        if (pre) in.flags = kInsnFree;
        in.a = rl;
        in.b = rs;
        push(in);
        return rl;  // void result, like kOut
      }
    }
    return emit_unreachable("bad builtin", e.loc.line, dst);
  }

  uint16_t emit_unreachable(const std::string& msg, uint32_t line, int dst) {
    uint16_t r = dst_or_temp(dst);
    Insn in = base(Op::kUnreachable, line);
    in.a = r;
    in.imm = static_cast<int64_t>(mb_.intern(msg));
    push(in);
    return r;
  }

  ModuleBuilder& mb_;
  const FunctionDecl* decl_;
  uint32_t fn_id_ = kGlobalsInitFn;  // absolute index for patch points
  CompiledFunction out_;
  std::vector<Type> slot_types_;
  std::vector<bool> slot_is_array_;
  uint16_t temp_base_ = 0;
  uint16_t temp_cur_ = 0;
  uint16_t temp_max_ = 0;
  size_t barrier_ = 0;
  std::vector<LoopCtx> loops_;
};

/// Classifies the one-line leaf shape a kCall can fuse into (LeafShape
/// lives in bytecode.h). The whole callee body must match the template
/// *exactly*, charges included, so the fused dispatch can replay its
/// charges/marks from the callee's code. The one template is
/// `{ out*(K_value, K_port); }`, the constant register pokes of
/// hand-written C drivers (e.g. drive-select helpers); calls to any other
/// body, such as the production-mode stubs' `{ return v; }`, push a frame.
LeafShape classify_leaf(const CompiledFunction& fn) {
  const auto& c = fn.code;
  if (c.size() == 5 && c[0].op == Op::kStepStepMark && c[0].flags == 0 &&
      c[1].op == Op::kLoadConst && c[2].op == Op::kLoadConst &&
      c[3].op == Op::kOut && c[3].flags == 0 && c[3].a == c[1].a &&
      c[3].b == c[2].a && c[4].op == Op::kRetZero && fn.params.empty()) {
    return LeafShape::kOutConst;
  }
  return LeafShape::kNone;
}

/// Builds the flat prefix+tail dispatch views. Must run after the owned
/// vectors reach their final sizes (pointers go into their heap buffers).
void finalize_tables(Module& mod) {
  const ModuleSegment* seg = mod.prefix.get();
  mod.fn_table.clear();
  mod.string_table.clear();
  mod.struct_default_table.clear();
  mod.fn_table.reserve((seg ? seg->fns.size() : 0) + mod.fns.size());
  mod.string_table.reserve((seg ? seg->strings.size() : 0) +
                           mod.strings.size());
  mod.struct_default_table.reserve(
      (seg ? seg->struct_defaults.size() : 0) + mod.struct_defaults.size());
  if (seg) {
    for (const auto& f : seg->fns) mod.fn_table.push_back(&f);
    for (const auto& s : seg->strings) mod.string_table.push_back(&s);
    for (const auto& d : seg->struct_defaults) {
      mod.struct_default_table.push_back(&d);
    }
  }
  for (const auto& f : mod.fns) mod.fn_table.push_back(&f);
  for (const auto& s : mod.strings) mod.string_table.push_back(&s);
  for (const auto& d : mod.struct_defaults) {
    mod.struct_default_table.push_back(&d);
  }
}

/// Rewrites kCall sites whose callee matches the leaf template into the
/// fused call opcode. Only the module's own code is rewritten — a shared
/// prefix segment was fused once when it was compiled (and is immutable
/// here); its callees all live inside the segment, so its rewrites stay
/// valid in every splice.
void apply_call_fusion(Module& mod) {
  std::vector<LeafShape> shapes(mod.fn_table.size());
  size_t first = 0;
  if (mod.prefix) {
    // The segment's shapes were classified once at compile_prefix time.
    first = mod.prefix->leaf_shapes.size();
    for (size_t i = 0; i < first; ++i) {
      shapes[i] = static_cast<LeafShape>(mod.prefix->leaf_shapes[i]);
    }
  }
  for (size_t i = first; i < shapes.size(); ++i) {
    shapes[i] = classify_leaf(*mod.fn_table[i]);
  }
  auto rewrite = [&shapes](std::vector<Insn>& code) {
    for (Insn& in : code) {
      if (in.op == Op::kCall && shapes[in.b] == LeafShape::kOutConst) {
        in.op = Op::kCallOutConst;
      }
    }
  };
  for (auto& fn : mod.fns) rewrite(fn.code);
  rewrite(mod.globals_init.code);
}

/// Lowers `mb.unit`'s functions and globals initialiser into `mb.mod`,
/// assigning function ids that continue the prefix's (fn_base).
void lower_into(ModuleBuilder& mb, uint32_t fn_base) {
  const Unit& unit = mb.unit;
  mb.mod.fns.reserve(unit.functions.size());
  for (size_t i = 0; i < unit.functions.size(); ++i) {
    FunctionCompiler fc(mb, &unit.functions[i],
                        fn_base + static_cast<uint32_t>(i));
    mb.mod.fns.push_back(fc.compile_body());
    // First definition wins for name lookup, matching the walker's linear
    // call_function scan (duplicates are checker errors anyway).
    mb.mod.fn_index.emplace(unit.functions[i].name,
                            fn_base + static_cast<uint32_t>(i));
  }
  FunctionCompiler gc(mb, nullptr, kGlobalsInitFn);
  mb.mod.globals_init = gc.compile_globals_init();
}

}  // namespace

LeafShape classify_leaf_shape(const CompiledFunction& fn) {
  return classify_leaf(fn);
}

void finalize_module_tables(Module& mod) { finalize_tables(mod); }

Module compile_unit(const Unit& unit) {
  ModuleBuilder mb(unit);
  lower_into(mb, 0);
  finalize_tables(mb.mod);
  apply_call_fusion(mb.mod);
  return std::move(mb.mod);
}

std::shared_ptr<const ModuleSegment> compile_prefix(const Unit& prefix_unit) {
  ModuleBuilder mb(prefix_unit);
  lower_into(mb, 0);
  finalize_tables(mb.mod);
  apply_call_fusion(mb.mod);
  auto seg = std::make_shared<ModuleSegment>();
  seg->fns = std::move(mb.mod.fns);
  seg->globals_init = std::move(mb.mod.globals_init);
  seg->global_count = mb.mod.global_count;
  seg->fn_index = std::move(mb.mod.fn_index);
  seg->strings = std::move(mb.mod.strings);
  seg->struct_defaults = std::move(mb.mod.struct_defaults);
  seg->string_ix = std::move(mb.string_ix);
  seg->struct_ix = std::move(mb.struct_ix);
  seg->leaf_shapes.reserve(seg->fns.size());
  for (const auto& fn : seg->fns) {
    seg->leaf_shapes.push_back(static_cast<uint8_t>(classify_leaf(fn)));
  }
  return seg;
}

Module compile_tail_unit(std::shared_ptr<const ModuleSegment> segment,
                         const Unit& prefix_unit, const Unit& tail_unit,
                         PatchTable* patch) {
  ModuleBuilder mb(tail_unit, prefix_unit, *segment);
  uint32_t fn_base = static_cast<uint32_t>(segment->fns.size());
  mb.patch_out = patch;
  if (patch) patch->fn_base = fn_base;
  mb.mod.prefix = std::move(segment);
  lower_into(mb, fn_base);
  finalize_tables(mb.mod);
  apply_call_fusion(mb.mod);
  return std::move(mb.mod);
}

}  // namespace minic::bytecode
