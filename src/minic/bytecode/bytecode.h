// Register bytecode for MiniC: the campaign execution engine.
//
// `compile_unit` lowers a typechecked `minic::Unit` into flat per-function
// instruction vectors; `Vm` (vm.h) executes them with a threaded dispatch
// loop.
// The contract with the tree walker (interp.cc) is exact observational
// equivalence: identical RunOutcome — fault kind *and* message, return
// value, step count, executed-line bitmap, printk log — for any typechecked
// unit. The campaign engine runs the VM by default and keeps the tree
// walker as a differential oracle (tests/test_bytecode_vm.cc).
//
// Step-accounting model. The tree walker charges one step per AST node
// visit (statements at exec() entry, expressions at eval()/eval_int()
// entry, loop statements once more per iteration). The bytecode preserves
// the charge count on every control path by construction:
//   - every *charging* opcode corresponds to exactly one walker node visit
//     and carries that node's source line (reported on budget exhaustion);
//   - pure control-flow helpers (jumps, result moves) are *free* — they
//     never touch the budget;
//   - fused superinstructions (kInConst, kBinImm, kOpStoreLocalImm,
//     kStepStepMark) charge once per fused node and are only emitted when
//     all fused nodes sit on the same source line, so the exhaustion
//     message cannot differ from the walker's.
// Line-coverage marks (kStepMark, kMark, kCaseTest, kDecl*) mirror the
// walker's mark_line calls one for one.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "minic/ast.h"

namespace minic::bytecode {

// The opcode list, in enum order: one X(name) per opcode. The Op enum,
// op_name and the VM's jump table (vm.cc) are all expanded from it, so none
// of them can fall out of order with the others.
//
// Charging discipline per opcode is given in the comment: C = charges one
// step, CC = charges two (fused, same line), C+n = charges 1 plus a dynamic
// burn, M = marks the line executed, F = free (no charge, no mark).
#define MINIC_BYTECODE_OPCODES(X)                                           \
  /* --- statement accounting -------------------------------------- */    \
  X(Step)           /* C    : statement entry without coverage */          \
                    /*        (block, loops) */                            \
  X(StepMark)       /* C M  : statement entry with coverage */             \
  X(StepStepMark)   /* CC M : fused kStep(line) + kStepMark(imm line) */   \
  X(StepJump)       /* C    : fused kStep + unconditional jump (empty */   \
                    /*        loop body) */                                \
  X(Mark)           /* F M  : coverage only (global initialisers, case */  \
                    /*        labels) */                                   \
  /* --- control flow ------------------------------------------------ */   \
  X(Jump)           /* F    : pc = imm */                                  \
  X(JumpIfZero)     /* F    : if R[a].i == 0 jump imm */                   \
  X(JumpIfNotZero)  /* F    : if R[a].i != 0 jump imm */                   \
  X(JumpIfEqual)    /* F    : if R[a].i == R[b].i jump imm (generic */     \
                    /*        case label) */                               \
  X(CaseTest)       /* C M  : R[b].i = (R[a].i == imm); constant case */   \
                    /*        label */                                     \
  X(CondJumpZero)   /* C    : ?: node charge; if R[a].i == 0 jump imm */   \
  X(AndJump)        /* C    : && node; if R[b].i == 0 { R[a].i = 0; */     \
                    /*        jump imm } */                                \
  X(OrJump)         /* C    : || node; if R[b].i != 0 { R[a].i = 1; */     \
                    /*        jump imm } */                                \
  X(BoolNorm)       /* F    : R[a].i = R[b].i != 0 */                      \
  /* --- loads / moves ----------------------------------------------- */   \
  X(LoadConst)      /* C : R[a].i = imm */                                 \
  X(LoadStr)        /* C : R[a].s = strings[imm] */                        \
  X(MoveInt)        /* C : R[a].i = R[b].i (ident rvalue, unary +, wide */ \
                    /*     cast) */                                        \
  X(MoveStr)        /* C : R[a].s = R[b].s */                              \
  X(MoveStruct)     /* C : R[a].fields = R[b].fields */                    \
  X(CopyInt)        /* F : R[a].i = R[b].i (assignment-expression */       \
                    /*     result) */                                      \
  X(CopyStr)        /* F */                                                \
  X(CopyStruct)     /* F */                                                \
  X(LoadGlobalInt)  /* C : R[a].i = G[b].i */                              \
  X(LoadGlobalStr)  /* C */                                                \
  X(LoadGlobalStruct) /* C */                                              \
  X(LoadElemLocal)  /* C : R[a].i = R[b].arr[R[c].i]; imm = site name */   \
                    /*     (faults) */                                     \
  X(LoadElemGlobal) /* C : R[a].i = G[b].arr[R[c].i] */                    \
  X(GetFieldInt)    /* C : R[a].i = R[b].fields[c].i (0 when absent) */    \
  X(GetFieldStr)    /* C */                                                \
  X(GetFieldStruct) /* C */                                                \
  X(TakeStored)     /* F : R[a].i = last value committed by a store */     \
                    /*     opcode */                                       \
  /* --- arithmetic (a = dst, b/c = operands; all C) ----------------- */   \
  X(Neg) X(BitNot) X(LogNot)                                               \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod)                                       \
  X(BitAnd) X(BitOr) X(BitXor) X(Shl) X(Shr)                               \
  X(CmpEq) X(CmpNe) X(CmpLt) X(CmpGt) X(CmpLe) X(CmpGe)                    \
  X(BinImm)         /* CC : R[a].i = R[b].i <w-op> imm (fused const */     \
                    /*      operand) */                                    \
  X(Coerce)         /* C  : R[a].i = coerce(R[b].i, w) (integer cast) */   \
  /* Compare+branch superinstructions: a condition's top binary node or */ \
  /* struct dil_eq fused with the statement's jump-if-zero. The node's */  \
  /* charge (and its free flag) is preserved; the result register is */    \
  /* dead (the branch was its only consumer), so it is not written. */     \
  X(BinJump)        /* C  : if (R[b].i <w-op> R[c].i == 0) pc = imm */     \
  X(BinImmJump)     /* CC : if (R[b].i <w-op> c == 0) pc = imm (c: u16 */  \
                    /*      lit) */                                        \
  X(DilEqStructJump) /* C : struct dil_eq (type-tag assertion applies); */ \
                    /*      if values differ pc = imm */                   \
  /* Poll-loop superinstructions (all operand nodes on one line): */       \
  X(InConstAnd)     /* CCCC : R[a].i = io_in(port, w) & mask; imm packs */ \
                    /*        port | mask<<32; the I/O happens after the */ \
                    /*        third charge, exactly as the walker */       \
                    /*        interleaves */                               \
  X(PollInAnd)      /* C M + CCCC : kStepMark fused with kInConstAnd, */   \
                    /*        one dispatch for a `while (inb(P) & M)` */   \
                    /*        iteration */                                 \
  X(StoreSlotBinImm) /* CCCC : R[a].i = coerce(R[b].i <w-op> imm, c), */   \
                    /*        the `n = n + 1` statement body in one */     \
                    /*        dispatch */                                  \
  /* --- stores (the kAssign node's charge lives on the store) ------- */   \
  X(StoreLocalInt)  /* C : R[a].i = coerce(R[b].i, w) */                   \
  X(StoreLocalStr)  /* C */                                                \
  X(StoreLocalStruct) /* C */                                              \
  X(StoreGlobalInt) /* C : G[a].i = coerce(R[b].i, w) */                   \
  X(StoreGlobalStr) /* C */                                                \
  X(StoreGlobalStruct) /* C */                                             \
  X(OpStoreLocal)   /* C  : R[a].i = coerce(R[a].i <c-op> R[b].i, w) */    \
  X(OpStoreGlobal)  /* C */                                                \
  X(OpStoreLocalImm) /* CC : R[a].i = coerce(R[a].i <c-op> imm, w) */      \
                    /*      (fused) */                                     \
  X(OpStoreGlobalImm) /* CC */                                             \
  X(StoreElemLocal) /* C : R[a].arr[R[b].i] = coerce(R[c].i, w); */        \
                    /*     imm = name */                                   \
  X(StoreElemGlobal) /* C */                                               \
  X(OpStoreElemLocal) /* C : compound form; imm packs name/op (see */      \
                    /*     PackedElemOp) */                                \
  X(OpStoreElemGlobal) /* C */                                             \
  X(StoreFieldLocalInt) /* C : R[a].fields[b] = coerce(R[c].i, w) */       \
  X(StoreFieldGlobalInt) /* C */                                           \
  X(StoreFieldLocalStr) /* C */                                            \
  X(StoreFieldGlobalStr) /* C */                                           \
  X(StoreFieldLocalStruct) /* C */                                         \
  X(StoreFieldGlobalStruct) /* C */                                        \
  X(OpStoreFieldLocal) /* C : field compound; c-op, w coercion */          \
  X(OpStoreFieldGlobal) /* C */                                            \
  /* free store variants (declaration / global initialisers: the charge */ \
  /* was already taken by the kStepMark / the initialiser expression) */   \
  X(StoreLocalIntF) X(StoreLocalStrF) X(StoreLocalStructF)                 \
  X(StoreGlobalIntF) X(StoreGlobalStrF) X(StoreGlobalStructF)              \
  X(StoreGFieldIntF) /* F : G[a].fields[b] = coerce(R[c].i, w) (brace */   \
                    /*     inits; imm = the struct's field count) */       \
  X(StoreGFieldStrF)                                                       \
  X(StoreGFieldStructF)                                                    \
  /* --- declarations ------------------------------------------------ */   \
  X(DeclIntZ)       /* C M : R[a].i = 0 */                                 \
  X(DeclStrZ)       /* C M : R[a].s.clear() */                             \
  X(DeclStructZ)    /* C M : R[a].fields = struct_defaults[imm] */         \
  X(DeclArr)        /* C M : R[a].arr.assign(imm, 0) */                    \
  X(InitGlobalArr)  /* F   : G[a].arr.assign(imm, 0) */                    \
  /* --- calls ------------------------------------------------------- */   \
  X(Call)           /* C : R[a] = fns[b](R[c..c+imm-1]) */                 \
  X(Ret)            /* F : return R[a] to the caller's dst register */     \
  X(RetZero)        /* F : return integer 0 (fall-off-the-end / */         \
                    /*     `return;`) */                                   \
  /* Call+ret superinstruction: a kCall whose callee's whole body is */   \
  /* `{ out*(K1, K2); }` executes without pushing a frame. Field layout */ \
  /* is identical to kCall (b = callee index); the dispatch replays the */ \
  /* callee's charges/marks from its code, so exhaustion lines and step */ \
  /* totals cannot differ from a real call. See `classify_leaf` in */      \
  /* compiler.cc. */                                                       \
  X(CallOutConst)   /* CCCCC M, one io_out */                              \
  /* --- builtins (each C = the call node's charge) ------------------ */   \
  X(In)             /* C  : R[a].i = io_in(R[b].i, w) */                   \
  X(InConst)        /* CC : R[a].i = io_in(imm, w) (fused constant */      \
                    /*      port) */                                       \
  X(Out)            /* C  : io_out(R[b].i, R[a].i & width_mask, w) */      \
  X(Panic)          /* C  : throw panic/Devil assertion with R[a].s */     \
  X(Printk)         /* C  : log R[a].s */                                  \
  X(Strcmp)         /* C  : R[a].i = R[b].s.compare(R[c].s) */             \
  X(Udelay)         /* C+n: burn clamp(R[a].i, 0, 10000) extra steps */    \
  X(DilEqInt)       /* C  : R[a].i = R[b].i == R[c].i */                   \
  X(DilEqStruct)    /* C  : debug-mode dil_eq with type-tag assertion */   \
  X(DilValInt)      /* C  : R[a].i = R[b].i */                             \
  X(DilValStruct)   /* C  : R[a].i = R[b].fields[2].i (0 when absent) */   \
  X(RequestIrq)     /* C  : bind handler fn named R[b].s to line R[a].i */ \
  X(Unreachable)    /* C  : throw Fault{kInternal, strings[imm]} */

enum class Op : uint8_t {
#define MINIC_BYTECODE_OP_ENUM(name) k##name,
  MINIC_BYTECODE_OPCODES(MINIC_BYTECODE_OP_ENUM)
#undef MINIC_BYTECODE_OP_ENUM
};

/// Number of opcodes; the per-opcode execution profile is indexed by
/// `static_cast<size_t>(Op)`.
#define MINIC_BYTECODE_OP_ONE(name) +1
inline constexpr size_t kOpCount =
    0 MINIC_BYTECODE_OPCODES(MINIC_BYTECODE_OP_ONE);
#undef MINIC_BYTECODE_OP_ONE

/// Stable mnemonic for an opcode (the enumerator name without the `k`),
/// used as the key in exported opcode profiles.
[[nodiscard]] inline const char* op_name(Op op) {
  static constexpr const char* kNames[] = {
#define MINIC_BYTECODE_OP_NAME(name) #name,
      MINIC_BYTECODE_OPCODES(MINIC_BYTECODE_OP_NAME)
#undef MINIC_BYTECODE_OP_NAME
  };
  return kNames[static_cast<size_t>(op)];
}

/// Per-opcode dispatch counts of one VM run. Deterministic for a given
/// module + entry + budget (the dispatch sequence is), so a baseline boot's
/// profile is campaign telemetry that survives shard merges byte-for-byte.
struct OpcodeProfile {
  std::array<uint64_t, kOpCount> counts{};

  [[nodiscard]] uint64_t total() const {
    uint64_t n = 0;
    for (uint64_t c : counts) n += c;
    return n;
  }
  friend bool operator==(const OpcodeProfile& a, const OpcodeProfile& b) {
    return a.counts == b.counts;
  }
};

/// One instruction. `w` packs an integer coercion (bits | 0x80 when signed)
/// or a binary-operator code (`Tok`), depending on the opcode; `line` is the
/// source line charged/marked/reported; jump targets live in `imm`.
///
/// `flags` bit 0 marks the instruction *free*: its node's charge was
/// emitted earlier as an explicit kStep. The walker charges a parent node
/// before its children (pre-order); when a child subtree can charge on a
/// different line (a user-call body, a multi-line operand), delaying the
/// parent's charge to the action instruction would shift the observable
/// exhaustion point, so the compiler pre-charges and frees the action.
struct Insn {
  Op op = Op::kRetZero;
  uint8_t w = 0;
  uint8_t flags = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t line = 0;
  int64_t imm = 0;
};

inline constexpr uint8_t kInsnFree = 1;

/// Integer coercion descriptor: low 7 bits = width, bit 7 = signed.
/// Width 0 means "no narrowing" (>= 64-bit or non-integer destination).
[[nodiscard]] inline uint8_t pack_coerce(const Type& t) {
  if (!t.is_integer() || t.bits >= 64) return 0;
  return static_cast<uint8_t>((t.bits & 0x7f) | (t.is_signed ? 0x80 : 0));
}

/// kOpStoreElem* can't fit name-index, operator and coercion in the fixed
/// fields, so they share `imm`.
struct PackedElemOp {
  static int64_t pack(uint32_t name_ix, uint8_t op, uint8_t coerce) {
    return static_cast<int64_t>((static_cast<uint64_t>(name_ix) << 16) |
                                (static_cast<uint64_t>(op) << 8) | coerce);
  }
  static uint32_t name_ix(int64_t v) {
    return static_cast<uint32_t>(static_cast<uint64_t>(v) >> 16);
  }
  static uint8_t op(int64_t v) { return static_cast<uint8_t>(v >> 8); }
  static uint8_t coerce(int64_t v) { return static_cast<uint8_t>(v); }
};

/// Runtime value: one register / global / struct field. The integer hot
/// path touches only `i`; the string / struct / array payloads exist for
/// the Devil debug stubs and driver buffers. Registers are persistent
/// storage (frames reused in place), so writing an int never constructs or
/// frees anything.
struct VmValue {
  int64_t i = 0;
  std::string s;
  std::vector<VmValue> fields;
  std::vector<int64_t> arr;

  friend bool operator==(const VmValue&, const VmValue&) = default;
  /// Member-wise: exchanges the payloads' buffers with no temporary.
  friend void swap(VmValue& a, VmValue& b) noexcept {
    std::swap(a.i, b.i);
    a.s.swap(b.s);
    a.fields.swap(b.fields);
    a.arr.swap(b.arr);
  }
};

struct ParamSpec {
  enum class Kind : uint8_t { kInt, kStr, kStruct };
  Kind kind = Kind::kInt;
  uint8_t coerce = 0;  // pack_coerce of the declared parameter type
};

struct CompiledFunction {
  std::string name;
  uint32_t nslots = 0;  // frame slots assigned by the type checker
  uint32_t nregs = 0;   // nslots + expression temporaries
  std::vector<ParamSpec> params;
  std::vector<Insn> code;
};

/// The lowered invariant front of a unit: functions, string pool, struct
/// defaults and the prefix globals' initialiser, compiled once per campaign
/// and shared read-only (it is immutable after `compile_prefix`) by every
/// per-mutant spliced module. The intern maps let tail lowering reuse
/// segment pool entries instead of duplicating them.
struct ModuleSegment {
  std::vector<CompiledFunction> fns;
  CompiledFunction globals_init;  // inits globals [0, global_count)
  size_t global_count = 0;
  std::unordered_map<std::string, uint32_t> fn_index;
  std::vector<std::string> strings;
  std::vector<std::vector<VmValue>> struct_defaults;
  std::map<std::string, uint32_t> string_ix;  // string -> segment pool index
  std::map<std::string, uint32_t> struct_ix;  // struct name -> defaults index
  /// Compiler-internal LeafShape per `fns` entry, classified once here so
  /// per-mutant splices skip re-classifying the invariant functions.
  std::vector<uint8_t> leaf_shapes;
};

/// A runnable module. Function order matches the (spliced) unit's function
/// order, so the type checker's `callee_index` annotations double as
/// bytecode function ids. A spliced module *aliases* its prefix segment's
/// code, constants and struct defaults through the flat dispatch tables —
/// `fns`/`strings`/`struct_defaults` hold only the tail's additions, and
/// `fn_table[i]` spans prefix then tail. Move-only: the dispatch tables
/// point into the owned vectors' heap buffers (stable under move).
struct Module {
  Module() = default;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  std::shared_ptr<const ModuleSegment> prefix;  // null for whole-unit builds
  std::vector<CompiledFunction> fns;            // tail functions
  CompiledFunction globals_init;                // inits the *tail* globals
  size_t global_count = 0;                      // prefix + tail
  std::unordered_map<std::string, uint32_t> fn_index;  // tail names only
  std::vector<std::string> strings;
  std::vector<std::vector<VmValue>> struct_defaults;

  // Flat views spanning prefix + tail, built by `finalize_tables`.
  std::vector<const CompiledFunction*> fn_table;
  std::vector<const std::string*> string_table;
  std::vector<const std::vector<VmValue>*> struct_default_table;

  [[nodiscard]] const std::string& str(size_t ix) const {
    return *string_table[ix];
  }
  /// Entry-point lookup across both halves (first definition wins, and the
  /// prefix's functions come first).
  [[nodiscard]] const uint32_t* find_fn(const std::string& name) const {
    if (prefix) {
      auto it = prefix->fn_index.find(name);
      if (it != prefix->fn_index.end()) return &it->second;
    }
    auto it = fn_index.find(name);
    return it == fn_index.end() ? nullptr : &it->second;
  }
};

/// One-line leaf shapes a kCall can fuse into (kCallOutConst). Public so
/// the patcher can re-derive the fused opcode when it rewrites a callee
/// index; classification itself lives in compiler.cc.
enum class LeafShape : uint8_t { kNone, kOutConst };

/// Classifies `fn` against the one-line leaf template.
[[nodiscard]] LeafShape classify_leaf_shape(const CompiledFunction& fn);

/// (Re)builds `mod`'s flat prefix+tail dispatch views. Must run after the
/// owned vectors reach their final sizes; the patcher calls it on clones.
void finalize_module_tables(Module& mod);

// ---------------------------------------------------------------------------
// Mutation-site patch points
// ---------------------------------------------------------------------------

/// Which operand of an instruction encodes a mutation site's token. The
/// patcher dispatches on the *final* opcode at the point (emit-time fusion
/// rewrites instructions in place, so recorded indices stay valid) and falls
/// back to recompilation for any opcode/role pair it does not recognise.
enum class PatchRole : uint8_t {
  kLiteral,      // literal value (imm — or c once kBinImm fused to a jump)
  kPackedPort,   // low 32 bits of a kInConstAnd/kPollInAnd packed imm
  kPackedMask,   // high 32 bits of the same
  kOperator,     // unary/binary/compound operator (field depends on opcode)
  kGlobalLoad,   // global slot in `b` of a kLoadGlobal*
  kGlobalStore,  // global slot in `a` of a store-to-global opcode
  kCallee,       // callee index in `b` of a kCall-family opcode
};

/// Sentinel PatchPoint::fn for points inside the tail globals initialiser.
inline constexpr uint32_t kGlobalsInitFn = 0xffffffffu;

/// One place a mutation site's token lowered to.
struct PatchPoint {
  uint32_t site = 0;  // mutation::SiteId carried as token provenance
  uint32_t fn = 0;    // absolute function index, or kGlobalsInitFn
  uint32_t insn = 0;  // index into that function's code
  PatchRole role = PatchRole::kLiteral;
};

/// Every patch point of one clean tail compile, in emission order. A site
/// with no points (lowered away, parser-folded, local-only) cannot be
/// patched and its mutants recompile the tail instead.
struct PatchTable {
  uint32_t fn_base = 0;  // absolute index of the first tail function
  std::vector<PatchPoint> points;
};

/// Lowers a typechecked unit. Throws minic::Fault{kInternal} on malformed
/// input (e.g. a unit that bypassed the type checker), mirroring the tree
/// walker's runtime kInternal faults.
[[nodiscard]] Module compile_unit(const Unit& unit);

/// Lowers the invariant prefix half of a campaign unit once. The returned
/// segment is immutable and safe to share across threads.
[[nodiscard]] std::shared_ptr<const ModuleSegment> compile_prefix(
    const Unit& prefix_unit);

/// Lowers only `tail_unit` (typechecked with `typecheck_tail`, so its
/// callee/global indices continue the prefix's numbering) and splices it
/// after `segment`. `prefix_unit` must be the unit `segment` was compiled
/// from. The result aliases the segment's code — nothing is recompiled or
/// copied but the tail. When `patch` is non-null (the campaign's clean
/// recording compile), every mutation-site patch point is appended to it.
[[nodiscard]] Module compile_tail_unit(
    std::shared_ptr<const ModuleSegment> segment, const Unit& prefix_unit,
    const Unit& tail_unit, PatchTable* patch = nullptr);

}  // namespace minic::bytecode
