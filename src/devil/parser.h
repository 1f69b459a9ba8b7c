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

/// Where one top-level declaration sits in the token stream: tokens
/// [begin, end) parsed into element `index` of the device's `params`,
/// `registers` or `variables`. A private variable's span starts at
/// `private`; the commas between port parameters belong to no span.
struct DeclSpan {
  enum class Kind : uint8_t { kPort, kRegister, kVariable };
  Kind kind = Kind::kPort;
  uint32_t index = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

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

  /// The top-level declarations `parse` read, in token order.
  [[nodiscard]] const std::vector<DeclSpan>& decl_spans() const {
    return spans_;
  }

  /// Parses the declaration at `span` again, from its first token of this
  /// parser's stream, and appends it to `out` (which must be empty). The
  /// stream may differ from the one `span` was recorded on, but only inside
  /// [begin, end). True when the declaration parsed without error, as the
  /// same kind, and ended at `end`. The parser is LL(1) and keeps no state
  /// across declarations, so parsing the whole stream then gives the
  /// recorded specification with that one declaration replaced by `out`'s.
  /// Otherwise the whole stream has to be parsed to know.
  [[nodiscard]] bool reparse(const DeclSpan& span, DeviceDecl& out);

 private:
  const Token& peek(int ahead = 0) const;
  const Token& advance();
  bool check(TokKind k) const { return peek().is(k); }
  bool accept(TokKind k);
  bool expect(TokKind k, const char* what);
  [[noreturn]] void fail();

  DeviceDecl parse_device();
  void parse_port_item(DeviceDecl& dev);
  void parse_member(DeviceDecl& dev);
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
  std::vector<DeclSpan> spans_;
};

struct ParseError {};

}  // namespace devil
