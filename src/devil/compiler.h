// Facade over the Devil pipeline: lex -> parse -> sema -> codegen.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "devil/ast.h"
#include "devil/codegen.h"
#include "devil/sema.h"
#include "devil/token.h"
#include "support/diagnostics.h"

namespace devil {

/// Result of compiling one specification. `spec` owns the AST; `info` holds
/// pointers into it, so keep the whole result alive while using `info`.
struct CompileResult {
  support::DiagnosticEngine diags;
  std::unique_ptr<Specification> spec;     // null on parse failure
  std::optional<DeviceInfo> info;          // nullopt on semantic errors
  std::string stubs;                       // empty unless ok()

  [[nodiscard]] bool ok() const { return info.has_value(); }
};

/// Checks `text` and, when consistent, generates stubs in `mode`.
/// `name` is used in diagnostics and as the debug __FILE__ tag.
[[nodiscard]] CompileResult compile_spec(const std::string& name,
                                         const std::string& text,
                                         CodegenMode mode);

/// Checks only (Table 2 campaign does not need codegen): lexes `text`, then
/// runs `check_tokens` on the stream unless the lexer reported errors.
[[nodiscard]] CompileResult check_spec(const std::string& name,
                                       const std::string& text);

/// The second half of `check_spec`: parse and Sema over an already lexed,
/// error-free token stream (ending with kEof). The Table 2 campaign lexes
/// each spec once and feeds every mutant's stream through here.
[[nodiscard]] CompileResult check_tokens(std::span<const Token> tokens);

/// One-line inventory of a checked device (ports/registers/variables), used
/// by the figure benches and examples.
[[nodiscard]] std::string describe_device(const DeviceInfo& info);

}  // namespace devil
