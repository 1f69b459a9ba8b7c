// Facade over the Devil pipeline: lex -> parse -> sema -> codegen.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "devil/ast.h"
#include "devil/codegen.h"
#include "devil/sema.h"
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

/// Checks only, with every diagnostic: lexes `text`, then parses it and
/// runs `Sema::check` unless the lexer reported errors. Generates no stubs.
[[nodiscard]] CompileResult check_spec(const std::string& name,
                                       const std::string& text);

/// One-line inventory of a checked device (ports/registers/variables), used
/// by the figure benches and examples.
[[nodiscard]] std::string describe_device(const DeviceInfo& info);

}  // namespace devil
