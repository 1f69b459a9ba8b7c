// Semantic analysis of Devil specifications (paper §2.2).
//
// Implements the consistency rules the paper enumerates:
//  - intra-layer: type correctness, size checks, uniqueness;
//  - inter-layer: access-attribute consistency, read-mapping exhaustiveness,
//    the no-omission constraints, and the no-overlap constraints.
// Every rule has a stable diagnostic code. `Sema::check` reports every
// diagnostic and builds the resolved model; `compile_spec` and
// `check_spec` call it (spec_lint, stub generation, each campaign's clean
// spec). `Sema::accepts` gives only the verdict, from the same rules.
// `Sema::rejects_change` is a reject-only verdict for a spec that differs
// from an indexed clean one (`CleanIndex`) in one declaration: it runs only
// the rule instances that read that declaration. The Table 2 campaign
// (`eval::SpecSplicer::consistent`) asks it about every re-parsed spec
// mutant and asks `accepts` about the ones it does not reject, so every
// acceptance still comes from the whole-spec check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "devil/ast.h"
#include "devil/parser.h"
#include "support/diagnostics.h"

namespace devil {

/// Resolved view of a register after semantic analysis.
struct RegInfo {
  const RegisterDecl* decl = nullptr;
  Access access = Access::kReadWrite;
  /// Effective mask: one char per bit, size_bits long, MSB first. When the
  /// declaration has no mask this is all '.'.
  std::string mask;

  [[nodiscard]] char mask_bit(int i) const {
    // A mutant can desynchronise mask length and register width — always a
    // DVL114 error, but later per-bit checks still run; bits beyond the
    // pattern read as irrelevant instead of out of bounds. Acceptance is
    // unaffected: the length mismatch already failed the spec.
    size_t ix = static_cast<size_t>(i);
    if (ix >= mask.size()) return '.';
    return mask[mask.size() - 1 - ix];
  }
};

/// Resolved view of a variable.
struct VarInfo {
  const VariableDecl* decl = nullptr;
  int width_bits = 0;      // total width of the concatenated fragments
  Access access = Access::kReadWrite;  // derived from the registers used
  int type_id = 0;         // specification-unique type counter (paper §2.3)
};

/// Semantic model of a checked device, consumed by the code generator.
struct DeviceInfo {
  const DeviceDecl* decl = nullptr;
  std::map<std::string, const PortParam*> ports;
  std::map<std::string, RegInfo> registers;
  std::map<std::string, VarInfo> variables;
};

/// Width in bits needed by a Devil type (enum width = pattern length).
[[nodiscard]] int type_width_bits(const TypeExpr& ty);

/// What `Sema::rejects_change` reads of a clean spec, built once from a
/// spec that `Sema::accepts` and then only read (any number of threads may
/// share it): each declaration kind's name -> index map, the clean
/// per-declaration state, and the references the rules follow between
/// declarations: per port the register bindings that name it, per register
/// the variables with a fragment on it, per variable the pre-actions that
/// assign it, every (port, offset) use, and every enum item name with its
/// variable.
class CleanIndex {
 public:
  /// Empty: `rejects_change` decides nothing.
  CleanIndex();
  /// `clean` must outlive the index and stay at its address. A spec that
  /// `accepts` rejects gives an empty index.
  explicit CleanIndex(const Specification& clean);
  CleanIndex(CleanIndex&&) noexcept;
  CleanIndex& operator=(CleanIndex&&) noexcept;
  ~CleanIndex();

  struct Data;  // defined in sema.cc

 private:
  friend class Sema;
  std::unique_ptr<const Data> data_;
};

/// Working storage of `Sema::rejects_change`, reused from one call to the
/// next. One per thread.
class CheckScratch {
 public:
  CheckScratch();
  CheckScratch(CheckScratch&&) noexcept;
  CheckScratch& operator=(CheckScratch&&) noexcept;
  ~CheckScratch();

  struct Data;  // defined in sema.cc

 private:
  friend class Sema;
  std::unique_ptr<Data> data_;
};

/// Runs the rule groups in a fixed order (ports, registers, variables,
/// pre-actions, overlap, omission), each over the declarations in source
/// order, so diagnostics come out in a stable order. Names are resolved
/// once to declaration indices (the first declaration of a name wins) and
/// the per-declaration state lives in flat vectors; `DeviceInfo`'s maps are
/// built only for a spec that passes. Each group loops over per-declaration
/// rule instances, which `rejects_change` also calls: one copy of every
/// rule.
class Sema {
 public:
  explicit Sema(support::DiagnosticEngine& diags) : diags_(diags) {}

  /// Runs all checks. Returns the resolved model if there were no errors.
  [[nodiscard]] std::optional<DeviceInfo> check(const Specification& spec);

  /// Whether `check` would accept `spec`, from the same rules. No message
  /// is built and no model either, and it returns after the first rule
  /// group that fails.
  [[nodiscard]] static bool accepts(const Specification& spec);

  /// A reject-only verdict. `spec` must be `clean`'s spec with the one
  /// declaration at `changed` (its kind and index) replaced. When that
  /// declaration kept its name, every name resolves as in the clean spec,
  /// and this runs only the rule instances that read the declaration,
  /// through the clean index, stopping at the first that fails. True means
  /// `accepts(spec)` is false. False decides nothing (no instance failed,
  /// the declaration was renamed, or the index is empty): ask `accepts`.
  [[nodiscard]] static bool rejects_change(const CleanIndex& clean,
                                           const Specification& spec,
                                           const DeclSpan& changed,
                                           CheckScratch& scratch);

 private:
  support::DiagnosticEngine& diags_;
};

}  // namespace devil
