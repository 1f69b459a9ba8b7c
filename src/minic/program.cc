#include "minic/program.h"

#include <algorithm>

#include "minic/bytecode/vm.h"
#include "minic/lexer.h"
#include "minic/parser.h"
#include "minic/typecheck.h"
#include "support/metrics.h"

namespace minic {

namespace {

using support::Stage;
using support::StageTimer;

/// Parse + typecheck a finished token stream into `prog`.
void finish_compile(Program& prog, std::vector<Token> tokens,
                    std::map<std::string, std::set<uint32_t>> macro_use_lines) {
  std::unique_ptr<Unit> owned;
  {
    StageTimer timer(Stage::kParse);
    Parser parser(std::move(tokens), prog.diags);
    auto unit = parser.parse();
    if (!unit) return;
    unit->macro_use_lines = std::move(macro_use_lines);
    owned = std::make_unique<Unit>(std::move(*unit));
  }
  StageTimer timer(Stage::kTypecheck);
  if (!typecheck(*owned, prog.diags)) return;
  prog.unit = std::move(owned);
}

}  // namespace

Program compile(const std::string& name, const std::string& source) {
  Program prog;
  support::SourceBuffer buf(name, source);
  LexOutput lexed = [&] {
    StageTimer timer(Stage::kLex);
    return lex_unit(buf, prog.diags);
  }();
  if (prog.diags.has_errors()) return prog;

  finish_compile(prog, std::move(lexed.tokens),
                 std::move(lexed.macro_use_lines));
  return prog;
}

PreparedPrefix prepare_prefix(const std::string& name,
                              const std::string& prefix_text) {
  PreparedPrefix prefix;
  prefix.name = name;
  prefix.lines = static_cast<uint32_t>(
      std::count(prefix_text.begin(), prefix_text.end(), '\n'));
  support::SourceBuffer buf(name, prefix_text);
  LexOutput lexed = lex_unit(buf, prefix.diags);
  if (prefix.diags.has_errors()) return prefix;
  // Drop the trailing kEof: the tail's tokens continue the stream.
  if (!lexed.tokens.empty() && lexed.tokens.back().is(Tok::kEof)) {
    lexed.tokens.pop_back();
  }
  prefix.tokens = std::move(lexed.tokens);
  prefix.macros = std::move(lexed.macros);
  prefix.macro_use_lines = std::move(lexed.macro_use_lines);

  // Stage 1 of the compiled-prefix pipeline: parse, typecheck and lower the
  // prefix once. A prefix that does not stand alone as a clean unit (one
  // whose declarations only resolve once the tail exists) keeps the cache
  // empty, and `compile_tail` then compiles whole units.
  auto compiled = std::make_shared<CompiledPrefix>();
  {
    support::DiagnosticEngine pd;
    std::vector<Token> tokens = prefix.tokens;
    Token eof;
    eof.kind = Tok::kEof;
    eof.loc.line = prefix.lines + 1;
    tokens.push_back(eof);
    Parser parser(std::move(tokens), pd);
    auto unit = parser.parse();
    if (!unit || pd.has_errors()) return prefix;
    compiled->unit = std::move(*unit);
    if (!typecheck(compiled->unit, pd)) return prefix;
  }
  compiled->symbols = snapshot_symbols(compiled->unit);
  try {
    compiled->segment = bytecode::compile_prefix(compiled->unit);
  } catch (const Fault&) {
    return prefix;  // lowering rejected the prefix: token path only
  }
  prefix.compiled = std::move(compiled);
  return prefix;
}

namespace {

/// Whole-unit fallback for `compile_tail`: token-splice compile + full
/// lowering. Byte-identical to whole-unit compilation by construction; used
/// when the prefix has no stage-1 cache or tail/prefix symbol collisions
/// make tail-only checking diverge.
SplicedProgram spliced_from_whole_unit(const PreparedPrefix& prefix,
                                       const std::string& tail) {
  SplicedProgram out;
  out.whole_unit_fallback = true;
  Program prog = compile_with_prefix(prefix, tail);
  out.diags = std::move(prog.diags);
  if (!prog.unit) return out;
  out.macro_use_lines = std::move(prog.unit->macro_use_lines);
  try {
    StageTimer timer(Stage::kLower);
    out.module = std::make_shared<bytecode::Module>(
        bytecode::compile_unit(*prog.unit));
  } catch (const Fault& f) {
    out.internal_error = f.message;
  }
  return out;
}

}  // namespace

SplicedProgram compile_tail(const PreparedPrefix& prefix,
                            const std::string& tail, TailRecording* record,
                            const TailLexObserver& on_lex) {
  if (!prefix.compiled) return spliced_from_whole_unit(prefix, tail);
  const CompiledPrefix& cp = *prefix.compiled;
  SplicedProgram out;
  support::SourceBuffer buf(prefix.name, tail);
  LexOptions options;
  options.seed_macros = &prefix.macros;
  options.line_offset = prefix.lines;
  if (record != nullptr) options.site_spans = &record->site_spans;
  LexOutput lexed = [&] {
    StageTimer timer(Stage::kLex);
    return lex_unit(buf, out.diags, options);
  }();
  if (on_lex) on_lex(lexed, !out.diags.has_errors());
  if (out.diags.has_errors()) return out;

  out.macro_use_lines = prefix.macro_use_lines;
  for (auto& [name, lines] : lexed.macro_use_lines) {
    out.macro_use_lines[name].insert(lines.begin(), lines.end());
  }
  if (record != nullptr) {
    record->macros = prefix.macros;
    for (auto& [name, body] : lexed.macros) record->macros[name] = body;
  }

  auto tail_unit = [&] {
    StageTimer timer(Stage::kParse);
    Parser parser(std::move(lexed.tokens), out.diags);
    return parser.parse();
  }();
  if (!tail_unit) return out;
  bool needs_whole_unit = false;
  bool checked = [&] {
    StageTimer timer(Stage::kTypecheck);
    return typecheck_tail(*tail_unit, cp.symbols, out.diags, &needs_whole_unit);
  }();
  // A tail declaration shadows a prefix symbol in a way whose diagnostics
  // (or acceptance) only whole-unit checking reproduces.
  if (needs_whole_unit) return spliced_from_whole_unit(prefix, tail);
  if (!checked) return out;

  try {
    StageTimer timer(Stage::kSplice);
    out.module = std::make_shared<bytecode::Module>(bytecode::compile_tail_unit(
        cp.segment, cp.unit, *tail_unit,
        record != nullptr ? &record->patch : nullptr));
  } catch (const Fault& f) {
    out.internal_error = f.message;
    return out;
  }
  if (record != nullptr) {
    record->tail_unit = std::make_unique<Unit>(std::move(*tail_unit));
  }
  return out;
}

RunOutcome run_module(const bytecode::Module& module, IoEnvironment& io,
                      const std::string& entry, uint64_t step_budget,
                      bytecode::OpcodeProfile* profile, uint64_t watchdog_ms) {
  StageTimer timer(Stage::kBoot);
  bytecode::Vm vm(module, io, step_budget);
  if (profile != nullptr) vm.set_opcode_profile(profile);
  vm.set_watchdog_ms(watchdog_ms);
  return vm.run(entry);
}

Program compile_with_prefix(const PreparedPrefix& prefix,
                            const std::string& tail) {
  Program prog;
  support::SourceBuffer buf(prefix.name, tail);
  LexOptions options;
  options.seed_macros = &prefix.macros;
  options.line_offset = prefix.lines;
  LexOutput lexed = [&] {
    StageTimer timer(Stage::kLex);
    return lex_unit(buf, prog.diags, options);
  }();
  if (prog.diags.has_errors()) return prog;

  std::vector<Token> tokens;
  tokens.reserve(prefix.tokens.size() + lexed.tokens.size());
  tokens.insert(tokens.end(), prefix.tokens.begin(), prefix.tokens.end());
  tokens.insert(tokens.end(), std::make_move_iterator(lexed.tokens.begin()),
                std::make_move_iterator(lexed.tokens.end()));

  auto macro_uses = prefix.macro_use_lines;
  for (auto& [name, lines] : lexed.macro_use_lines) {
    macro_uses[name].insert(lines.begin(), lines.end());
  }
  finish_compile(prog, std::move(tokens), std::move(macro_uses));
  return prog;
}

const char* exec_engine_name(ExecEngine e) {
  switch (e) {
    case ExecEngine::kBytecodeVm: return "bytecode-vm";
    case ExecEngine::kTreeWalker: return "tree-walker";
  }
  return "?";
}

RunOutcome run_unit(const Unit& unit, IoEnvironment& io,
                    const std::string& entry, uint64_t step_budget,
                    ExecEngine engine, bytecode::OpcodeProfile* profile,
                    uint64_t watchdog_ms) {
  if (engine == ExecEngine::kTreeWalker) {
    StageTimer timer(Stage::kBoot);
    Interp interp(unit, io, step_budget);
    interp.set_watchdog_ms(watchdog_ms);
    return interp.run(entry);
  }
  try {
    bytecode::Module module = [&] {
      StageTimer timer(Stage::kLower);
      return bytecode::compile_unit(unit);
    }();
    StageTimer timer(Stage::kBoot);
    bytecode::Vm vm(module, io, step_budget);
    if (profile != nullptr) vm.set_opcode_profile(profile);
    vm.set_watchdog_ms(watchdog_ms);
    return vm.run(entry);
  } catch (const Fault& f) {
    // Lowering rejected the unit: the walker's equivalent is a runtime
    // kInternal fault, and the campaign engine treats both as repo bugs.
    RunOutcome out;
    out.fault = f.kind;
    out.fault_message = f.message;
    return out;
  }
}

RunOutcome compile_and_run(const std::string& name, const std::string& source,
                           const std::string& entry, IoEnvironment& io,
                           uint64_t step_budget, ExecEngine engine) {
  Program prog = compile(name, source);
  if (!prog.ok()) {
    RunOutcome out;
    out.fault = FaultKind::kInternal;
    out.fault_message = "compilation failed:\n" + prog.diags.render();
    return out;
  }
  return run_unit(*prog.unit, io, entry, step_budget, engine);
}

}  // namespace minic
