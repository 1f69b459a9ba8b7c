// Recursive-descent parser for the Devil IDL.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "devil/ast.h"
#include "devil/token.h"
#include "support/diagnostics.h"

namespace devil {

class Parser {
 public:
  /// `tokens` ends with kEof and must outlive the parser.
  Parser(std::span<const Token> tokens, support::DiagnosticEngine& diags)
      : toks_(tokens), diags_(diags) {}
  Parser(std::vector<Token>&&, support::DiagnosticEngine&) = delete;

  /// Parses one specification. Returns nullopt on a parse error (diagnostics
  /// explain why). Mutation-generated specs are syntactically valid by
  /// construction (§3.1), so in the campaigns a parse failure is a bug in the
  /// mutation engine, not a detected mutant.
  [[nodiscard]] std::optional<Specification> parse();

 private:
  const Token& peek(int ahead = 0) const;
  const Token& advance();
  bool check(TokKind k) const { return peek().is(k); }
  bool accept(TokKind k);
  bool expect(TokKind k, const char* what);
  [[noreturn]] void fail();

  DeviceDecl parse_device();
  PortParam parse_port_param();
  RegisterDecl parse_register();
  VariableDecl parse_variable(bool is_private);
  PortExpr parse_port_expr();
  PreAction parse_pre_action();
  RegFragment parse_fragment();
  TypeExpr parse_type();
  std::vector<EnumItem> parse_enum_items();
  uint64_t parse_int(const char* what);
  int parse_size(const char* what);
  void parse_group(const char* what, const char* what_hi,
                   std::vector<uint64_t>& out, bool* empty_group);

  std::span<const Token> toks_;
  support::DiagnosticEngine& diags_;
  size_t pos_ = 0;
  bool ok_ = true;
};

struct ParseError {};

}  // namespace devil
