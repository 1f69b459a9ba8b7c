// Facade over the MiniC pipeline: preprocess+lex -> parse -> typecheck.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minic/ast.h"
#include "minic/bytecode/bytecode.h"
#include "minic/interp.h"
#include "minic/lexer.h"
#include "minic/typecheck.h"
#include "support/diagnostics.h"

namespace minic {

/// A compiled translation unit ready for interpretation.
struct Program {
  support::DiagnosticEngine diags;
  std::unique_ptr<Unit> unit;  // null when compilation failed

  [[nodiscard]] bool ok() const { return unit != nullptr; }
};

/// Compiles one translation unit. `name` doubles as the __FILE__ expansion,
/// so for Devil drivers pass the generated header's name.
[[nodiscard]] Program compile(const std::string& name,
                              const std::string& source);

/// Execution engine for a compiled unit. Both engines produce identical
/// RunOutcomes (fault kind/message, return value, step count, coverage,
/// log); the bytecode VM is the default because it is the faster one, the
/// tree walker stays on as the differential oracle.
enum class ExecEngine {
  kBytecodeVm,
  kTreeWalker,
};

[[nodiscard]] const char* exec_engine_name(ExecEngine e);

/// Runs `entry` in a typechecked unit on the chosen engine. The bytecode
/// path lowers the unit first; lowering problems surface as kInternal
/// outcomes, exactly like the walker's runtime invariant faults. A non-null
/// `profile` accumulates per-opcode dispatch counts (VM engine only; the
/// walker has no opcodes and leaves it untouched).
/// A non-zero `watchdog_ms` arms the engines' wall-clock boot watchdog
/// (FaultKind::kWatchdog when it trips).
[[nodiscard]] RunOutcome run_unit(const Unit& unit, IoEnvironment& io,
                                  const std::string& entry,
                                  uint64_t step_budget = 2'000'000,
                                  ExecEngine engine = ExecEngine::kBytecodeVm,
                                  bytecode::OpcodeProfile* profile = nullptr,
                                  uint64_t watchdog_ms = 0);

/// Compiles and runs `entry` against `io` in one call (tests, examples).
[[nodiscard]] RunOutcome compile_and_run(
    const std::string& name, const std::string& source,
    const std::string& entry, IoEnvironment& io,
    uint64_t step_budget = 2'000'000,
    ExecEngine engine = ExecEngine::kBytecodeVm);

// ---------------------------------------------------------------------------
// Compiled-prefix cache: the bytecode VM's per-mutant pipeline.
//
// The mutation campaigns compile `stubs + driver` once per mutant while the
// stubs never change, so the VM's pipeline is split into
//   1. prepare  — `prepare_prefix` runs ONCE per campaign: it lexes the
//      invariant prefix, and (when the prefix is a self-contained unit)
//      parses, typechecks and lowers it into an immutable, shareable
//      `CompiledPrefix` (symbol tables + bytecode `ModuleSegment`);
//   2. tail-compile — `compile_tail` runs per mutant: it lexes, parses and
//      typechecks ONLY the mutated driver tail against the cached symbol
//      tables (`typecheck_tail`), then lowers just the tail's functions
//      with indices rebased past the segment's;
//   3. splice — the per-mutant `bytecode::Module` aliases (does not copy)
//      the segment's code, constants and struct defaults, and `run_module`
//      executes it on the VM.
// The result is byte-identical — diagnostics, fault kind/message, return
// value, step count, coverage, log — to `compile(name, prefix_text + tail)`
// followed by `run_unit`; a differential ctest suite enforces this. When the
// prefix has no stage-1 cache, or the tail collides with prefix symbols in
// ways only whole-unit checking reports, `compile_tail` returns the
// whole-unit result instead (`SplicedProgram::whole_unit_fallback`).
//
// The token-level splice (`compile_with_prefix`) is the whole-unit path: it
// produces a full `Program`, re-lexing only the tail but re-parsing and
// re-checking everything. The tree-walker oracle always takes it, so the
// walker shares no symbol table, typecheck or lowering with the VM's tail
// pipeline that it checks.
// ---------------------------------------------------------------------------

/// The fully compiled invariant prefix: parsed decls, their symbol snapshot
/// and the lowered bytecode segment. Immutable after construction —
/// thread-safe to share by const reference / shared_ptr.
struct CompiledPrefix {
  Unit unit;                 // parsed + typechecked prefix declarations
  PrefixSymbols symbols;     // seed tables pointing into `unit`
  std::shared_ptr<const bytecode::ModuleSegment> segment;  // lowered code
};

/// The invariant head of a translation unit, prepared once. Thread-safe to
/// share across concurrent `compile_with_prefix` / `compile_tail` calls
/// (const access only).
struct PreparedPrefix {
  std::string name;               // unit name, doubles as __FILE__
  uint32_t lines = 0;             // newline count of the prefix text
  std::vector<Token> tokens;      // expanded prefix tokens, no kEof
  MacroTable macros;              // #defines the prefix leaves in scope
  std::map<std::string, std::set<uint32_t>> macro_use_lines;
  support::DiagnosticEngine diags;
  /// Stage-1 compile cache. Null when the prefix is not a self-contained
  /// clean unit (then `compile_tail` compiles whole units).
  std::shared_ptr<const CompiledPrefix> compiled;

  [[nodiscard]] bool ok() const { return !diags.has_errors(); }
};

/// Lexes `prefix_text` (possibly empty) under `name` and, when it forms a
/// self-contained unit, compiles it into the stage-1 cache.
[[nodiscard]] PreparedPrefix prepare_prefix(const std::string& name,
                                            const std::string& prefix_text);

/// Whole-unit path: compiles `prefix + tail` reusing the prefix token
/// stream. `prefix` must be ok(); `tail` is lexed with the prefix's macros
/// in scope and with line numbers continuing after the prefix. Produces a
/// full Program (usable by either engine); re-parses and re-typechecks the
/// prefix declarations every call.
[[nodiscard]] Program compile_with_prefix(const PreparedPrefix& prefix,
                                          const std::string& tail);

/// Result of the incremental tail pipeline: a spliced, VM-runnable module
/// plus what outcome classification needs.
struct SplicedProgram {
  support::DiagnosticEngine diags;
  std::shared_ptr<bytecode::Module> module;  // null when compilation failed
  std::map<std::string, std::set<uint32_t>> macro_use_lines;
  /// Non-empty when the tail type-checked but lowering rejected it
  /// (minic::Fault{kInternal}); the caller must surface a kInternal
  /// outcome, exactly as `run_unit` does for whole-unit lowering faults.
  std::string internal_error;
  /// True when this result came from whole-unit compilation instead of the
  /// cached segment: the prefix has no stage-1 cache, or the tail collided
  /// with prefix symbols (the campaigns count real cache hits from this).
  bool whole_unit_fallback = false;

  [[nodiscard]] bool ok() const { return module != nullptr; }
};

/// Optional `compile_tail` argument for the campaign's clean-tail compile,
/// which feeds the bytecode patcher. `site_spans` go in: sorted, disjoint
/// byte spans of the tail (mutation::scan_c_sites order satisfies this),
/// threaded into the lexer as token provenance. Everything a
/// `bytecode::Patcher` needs comes out. On a whole-unit fallback the patch
/// table stays empty and `tail_unit` null: every mutant of such a campaign
/// recompiles.
struct TailRecording {
  std::vector<SiteSpan> site_spans;
  bytecode::PatchTable patch;
  std::unique_ptr<Unit> tail_unit;  // null on errors or whole-unit fallback
  MacroTable macros;                // prefix seeds + tail definitions
};

/// Optional `compile_tail` observer of the tail's own lex, called once
/// before the parser consumes it: `lexed` holds the expanded tail tokens
/// (incl. kEof) and the tail buffer's macro uses only (never the prefix's),
/// and `ok` is false when the lex reported errors. Only the stage-1 path
/// lexes the tail by itself; without a stage-1 cache `compile_tail`
/// compiles the whole unit and never calls it.
using TailLexObserver = std::function<void(const LexOutput& lexed, bool ok)>;

/// Stages 2+3: compiles only `tail` against `prefix.compiled` and splices
/// the cached segment, falling back to the whole unit as described in the
/// pipeline comment above. A non-null `record` also records patch points
/// and keeps the tail unit (see TailRecording); `on_lex` sees the tail's
/// lex (see TailLexObserver).
[[nodiscard]] SplicedProgram compile_tail(const PreparedPrefix& prefix,
                                          const std::string& tail,
                                          TailRecording* record = nullptr,
                                          const TailLexObserver& on_lex = {});

/// Runs `entry` in a spliced module on the bytecode VM. The walker has no
/// module form — use `run_unit` with a whole-unit Program for the oracle.
/// A non-null `profile` accumulates per-opcode dispatch counts.
[[nodiscard]] RunOutcome run_module(
    const bytecode::Module& module, IoEnvironment& io,
    const std::string& entry, uint64_t step_budget = 2'000'000,
    bytecode::OpcodeProfile* profile = nullptr, uint64_t watchdog_ms = 0);

}  // namespace minic
