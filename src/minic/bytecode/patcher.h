// Bytecode patcher: boots token-local mutants without recompiling.
//
// The campaign's clean tail compile records, per mutation site, the patch
// points the site's token lowered to (PatchTable, bytecode.h). A Patcher
// built from that table classifies each mutant as *patchable* — its effect
// on the lowered code is a pure operand rewrite (binop opcode swap, new
// immediate, new global slot, new callee index) — or *structure-changing*,
// in which case the caller falls back to the regular tail recompile.
//
// Why operand rewrites are sound: every lowering the compiler emits mirrors
// the walker's pre-order charge placement exactly, fused or not, so a
// patched module and a recompiled module of the same mutant are
// observationally identical even when the recompile would have picked a
// different fusion. The only hard constraints are encoding limits (the u16
// literal of a fused kBinImmJump, the 32-bit halves of a packed port/mask),
// and those force a fallback, never a wrong answer. Classification is
// default-deny: any opcode/role pair the patcher does not recognise falls
// back to recompilation.
//
// Precondition the caller owes: the request must describe a mutant whose
// RE-PARSE keeps the clean tree shape. The patcher rewrites instructions of
// the clean lowering in place, so an operator swap across precedence levels
// (`a | b | c` -> `a | b & c` re-associates) or any replacement that merges
// with adjacent tokens is outside its model — the campaign's request
// derivation (eval/driver_campaign.cc) proves tree preservation token-wise
// before building a request and recompiles otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "minic/bytecode/bytecode.h"
#include "minic/lexer.h"

namespace minic::bytecode {

/// One token-local rewrite against the clean tail module. The caller (the
/// campaign engine) derives this from a mutation::Mutant: operator sites
/// carry the replacement operator token, literal sites the replacement
/// value, identifier sites both spellings (the patcher resolves them
/// against its global/function/macro tables).
struct PatchRequest {
  enum class Kind : uint8_t { kOperator, kLiteral, kIdentifier };
  Kind kind = Kind::kLiteral;
  uint32_t site = kNoSite;  // mutation::SiteId
  Tok new_op = Tok::kEof;   // kOperator
  uint64_t value = 0;       // kLiteral
  std::string original;     // kIdentifier: the clean token's spelling
  std::string replacement;  // kIdentifier: the mutant's spelling
};

/// Classifies and applies patch requests. Built once per campaign from the
/// clean tail compile; `apply` is const and safe to call from the parallel
/// boot phase (classification is a pure function of the request, so the
/// patched/fallback split is identical at any thread count).
class Patcher {
 public:
  /// `clean_tail` is the module the recording compile produced (cloned
  /// internally, so the caller's copy need not outlive the patcher);
  /// `prefix_unit`/`tail_unit` are the units it was compiled from; `macros`
  /// the final macro table (prefix seeds + tail definitions); `table` the
  /// recorded patch points.
  Patcher(const Module& clean_tail, const Unit& prefix_unit,
          const Unit& tail_unit, const MacroTable& macros, PatchTable table);

  /// Returns the patched module, or nullopt when the mutant is
  /// structure-changing and must be recompiled. Throws std::runtime_error
  /// when the patch table references code that does not exist (a corrupted
  /// table must fail loudly, not boot the wrong driver).
  [[nodiscard]] std::optional<Module> apply(const PatchRequest& req) const;

  /// True when `name` is a macro of the final macro table. Identifier
  /// mutants that involve one always recompile.
  [[nodiscard]] bool is_macro(const std::string& name) const {
    return macro_names_.count(name) != 0;
  }

 private:
  struct GlobalInfo {
    uint16_t slot = 0;
    Type type;
    bool is_const = false;
    bool is_array = false;
  };
  struct FnInfo {
    uint32_t index = 0;
    LeafShape shape = LeafShape::kNone;
    std::vector<Type> params;
    Type ret;
  };
  /// Planned single-field rewrite of one instruction.
  struct Rewrite {
    uint32_t fn = 0;
    uint32_t insn = 0;
    Insn value;  // the fully rewritten instruction
  };

  [[nodiscard]] const Insn& insn_at(const PatchPoint& p) const;
  [[nodiscard]] Module clone_clean() const;
  [[nodiscard]] bool plan_operator(const PatchPoint& p, Tok new_op,
                                   std::vector<Rewrite>& plan) const;
  [[nodiscard]] bool plan_literal(const PatchPoint& p, uint64_t value,
                                  std::vector<Rewrite>& plan) const;
  [[nodiscard]] bool plan_identifier(const PatchRequest& req,
                                     const std::vector<PatchPoint>& points,
                                     std::vector<Rewrite>& plan) const;

  Module clean_;
  uint32_t fn_base_ = 0;
  std::unordered_map<uint32_t, std::vector<PatchPoint>> points_by_site_;
  std::map<std::string, GlobalInfo> globals_;
  std::set<std::string> ambiguous_globals_;
  std::map<std::string, FnInfo> fns_;
  std::vector<LeafShape> shapes_;  // per absolute fn index
  std::vector<std::set<std::string>> tail_fn_locals_;  // per tail fn
  std::set<std::string> macro_names_;
};

}  // namespace minic::bytecode
