#include "minic/parser.h"

#include <string>

namespace minic {

namespace {

ExprPtr make_expr(ExprKind kind, support::SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  return e;
}

StmtPtr make_stmt(StmtKind kind, support::SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc;
  return s;
}

}  // namespace

const Token& Parser::peek(int ahead) const {
  size_t i = pos_ + static_cast<size_t>(ahead);
  if (i >= toks_.size()) i = toks_.size() - 1;
  return toks_[i];
}

const Token& Parser::advance() {
  const Token& t = toks_[pos_];
  if (pos_ + 1 < toks_.size()) ++pos_;
  return t;
}

bool Parser::accept(Tok k) {
  if (!check(k)) return false;
  advance();
  return true;
}

void Parser::expect(Tok k, const char* ctx) {
  if (accept(k)) return;
  diags_.error("MC020", peek().loc,
               std::string("expected ") + tok_name(k) + " " + ctx +
                   ", found " + tok_name(peek().kind) +
                   (peek().text.empty() ? "" : " '" + peek().text + "'"));
  throw Bail{};
}

void Parser::fail(const char* msg) {
  diags_.error("MC021", peek().loc, msg);
  throw Bail{};
}

bool Parser::at_type() const {
  switch (peek().kind) {
    case Tok::kKwVoid:
    case Tok::kKwInt:
    case Tok::kKwU8:
    case Tok::kKwU16:
    case Tok::kKwU32:
    case Tok::kKwS8:
    case Tok::kKwS16:
    case Tok::kKwS32:
    case Tok::kKwCString:
      return true;
    case Tok::kKwStruct:
      // `struct Name ident` is a declaration; `struct Name {` is a
      // definition handled at top level.
      return true;
    default:
      return false;
  }
}

Type Parser::parse_type() {
  switch (peek().kind) {
    case Tok::kKwVoid: advance(); return Type::void_type();
    case Tok::kKwInt: advance(); return Type::int_type(32, true);
    case Tok::kKwU8: advance(); return Type::int_type(8, false);
    case Tok::kKwU16: advance(); return Type::int_type(16, false);
    case Tok::kKwU32: advance(); return Type::int_type(32, false);
    case Tok::kKwS8: advance(); return Type::int_type(8, true);
    case Tok::kKwS16: advance(); return Type::int_type(16, true);
    case Tok::kKwS32: advance(); return Type::int_type(32, true);
    case Tok::kKwCString: advance(); return Type::cstring();
    case Tok::kKwStruct: {
      advance();
      if (!check(Tok::kIdent)) fail("expected struct name");
      return Type::struct_type(advance().text);
    }
    case Tok::kIdent: {
      // A struct type may be referred to by bare name (C++-style
      // convenience; the Devil debug header relies on it).
      return Type::struct_type(advance().text);
    }
    default:
      fail("expected a type");
  }
}

std::optional<Unit> Parser::parse() {
  try {
    Unit unit;
    while (!check(Tok::kEof)) {
      if (check(Tok::kKwStruct) && peek(1).is(Tok::kIdent) &&
          peek(2).is(Tok::kLBrace)) {
        parse_struct(unit);
      } else {
        parse_global_or_function(unit);
      }
    }
    return unit;
  } catch (const Bail&) {
    return std::nullopt;
  }
}

void Parser::parse_struct(Unit& unit) {
  StructDecl sd;
  sd.loc = peek().loc;
  expect(Tok::kKwStruct, "");
  sd.name = advance().text;
  expect(Tok::kLBrace, "to open the struct body");
  while (!check(Tok::kRBrace)) {
    StructField f;
    f.loc = peek().loc;
    f.type = parse_type();
    if (!check(Tok::kIdent)) fail("expected field name");
    f.name = advance().text;
    expect(Tok::kSemi, "after struct field");
    sd.fields.push_back(std::move(f));
  }
  expect(Tok::kRBrace, "to close the struct body");
  expect(Tok::kSemi, "after struct definition");
  unit.structs.push_back(std::move(sd));
}

void Parser::parse_global_or_function(Unit& unit) {
  bool is_const = false;
  while (check(Tok::kKwStatic) || check(Tok::kKwInline) ||
         check(Tok::kKwConst)) {
    if (advance().kind == Tok::kKwConst) is_const = true;
  }
  support::SourceLoc loc = peek().loc;
  Type type = parse_type();
  if (!check(Tok::kIdent)) fail("expected declaration name");
  std::string name = advance().text;

  if (check(Tok::kLParen)) {
    FunctionDecl fn;
    fn.loc = loc;
    fn.return_type = type;
    fn.name = std::move(name);
    expect(Tok::kLParen, "");
    if (!check(Tok::kRParen)) {
      do {
        Param p;
        p.loc = peek().loc;
        p.type = parse_type();
        if (!check(Tok::kIdent)) fail("expected parameter name");
        p.name = advance().text;
        fn.params.push_back(std::move(p));
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen, "after parameter list");
    fn.body = parse_block();
    unit.functions.push_back(std::move(fn));
    return;
  }

  GlobalDecl g;
  g.loc = loc;
  g.type = type;
  g.name = std::move(name);
  g.is_const = is_const;
  if (accept(Tok::kLBracket)) {
    if (!check(Tok::kIntLit)) fail("expected constant array size");
    g.array_size = advance().int_value;
    expect(Tok::kRBracket, "after array size");
  }
  if (accept(Tok::kAssign)) {
    if (accept(Tok::kLBrace)) {
      do {
        g.init_list.push_back(parse_expr());
      } while (accept(Tok::kComma));
      expect(Tok::kRBrace, "to close the initialiser list");
    } else {
      g.init = parse_expr();
    }
  }
  expect(Tok::kSemi, "after global declaration");
  unit.globals.push_back(std::move(g));
}

StmtPtr Parser::parse_block() {
  auto s = make_stmt(StmtKind::kBlock, peek().loc);
  expect(Tok::kLBrace, "to open a block");
  while (!check(Tok::kRBrace) && !check(Tok::kEof)) {
    s->body.push_back(parse_statement());
  }
  expect(Tok::kRBrace, "to close a block");
  return s;
}

StmtPtr Parser::parse_local_decl() {
  auto s = make_stmt(StmtKind::kDecl, peek().loc);
  while (check(Tok::kKwConst) || check(Tok::kKwStatic)) advance();
  s->decl_type = parse_type();
  if (!check(Tok::kIdent)) fail("expected variable name");
  s->decl_name = advance().text;
  if (accept(Tok::kLBracket)) {
    if (!check(Tok::kIntLit)) fail("expected constant array size");
    s->array_size = advance().int_value;
    expect(Tok::kRBracket, "after array size");
  }
  if (accept(Tok::kAssign)) s->expr.push_back(parse_expr());
  expect(Tok::kSemi, "after declaration");
  return s;
}

StmtPtr Parser::parse_statement() {
  support::SourceLoc loc = peek().loc;
  switch (peek().kind) {
    case Tok::kLBrace:
      return parse_block();
    case Tok::kSemi:
      advance();
      return make_stmt(StmtKind::kEmpty, loc);
    case Tok::kKwIf: {
      advance();
      auto s = make_stmt(StmtKind::kIf, loc);
      expect(Tok::kLParen, "after 'if'");
      s->expr.push_back(parse_expr());
      expect(Tok::kRParen, "after condition");
      s->body.push_back(parse_statement());
      if (accept(Tok::kKwElse)) s->body.push_back(parse_statement());
      return s;
    }
    case Tok::kKwWhile: {
      advance();
      auto s = make_stmt(StmtKind::kWhile, loc);
      expect(Tok::kLParen, "after 'while'");
      s->expr.push_back(parse_expr());
      expect(Tok::kRParen, "after condition");
      s->body.push_back(parse_statement());
      return s;
    }
    case Tok::kKwDo: {
      advance();
      auto s = make_stmt(StmtKind::kDoWhile, loc);
      s->body.push_back(parse_statement());
      expect(Tok::kKwWhile, "after do-body");
      expect(Tok::kLParen, "after 'while'");
      s->expr.push_back(parse_expr());
      expect(Tok::kRParen, "after condition");
      expect(Tok::kSemi, "after do-while");
      return s;
    }
    case Tok::kKwFor: {
      advance();
      auto s = make_stmt(StmtKind::kFor, loc);
      expect(Tok::kLParen, "after 'for'");
      // init
      if (check(Tok::kSemi)) {
        advance();
        s->body.push_back(nullptr);  // placeholder: body[1] is init
      } else if (at_type() && !check(Tok::kIdent)) {
        // Declaration init clause (type keywords only; a bare identifier in
        // the init clause is an expression).
        s->body.push_back(nullptr);
        auto decl = parse_local_decl();  // consumes the ';'
        s->body.back() = std::move(decl);
      } else {
        auto init = make_stmt(StmtKind::kExpr, peek().loc);
        init->expr.push_back(parse_expr());
        expect(Tok::kSemi, "after for-init");
        s->body.push_back(std::move(init));
      }
      // cond
      if (!check(Tok::kSemi)) s->expr.push_back(parse_expr());
      expect(Tok::kSemi, "after for-condition");
      // step
      if (!check(Tok::kRParen)) {
        if (s->expr.empty()) {
          // Keep positions stable: expr[0] = cond, expr[1] = step.
          auto true_lit = make_expr(ExprKind::kIntLit, peek().loc);
          true_lit->int_value = 1;
          s->expr.push_back(std::move(true_lit));
        }
        s->expr.push_back(parse_expr());
      }
      expect(Tok::kRParen, "after for-clauses");
      // body becomes body[last]
      s->body.insert(s->body.begin(), parse_statement());
      return s;
    }
    case Tok::kKwReturn: {
      advance();
      auto s = make_stmt(StmtKind::kReturn, loc);
      if (!check(Tok::kSemi)) s->expr.push_back(parse_expr());
      expect(Tok::kSemi, "after return");
      return s;
    }
    case Tok::kKwBreak:
      advance();
      expect(Tok::kSemi, "after 'break'");
      return make_stmt(StmtKind::kBreak, loc);
    case Tok::kKwContinue:
      advance();
      expect(Tok::kSemi, "after 'continue'");
      return make_stmt(StmtKind::kContinue, loc);
    case Tok::kKwSwitch: {
      advance();
      auto s = make_stmt(StmtKind::kSwitch, loc);
      expect(Tok::kLParen, "after 'switch'");
      s->expr.push_back(parse_expr());
      expect(Tok::kRParen, "after switch operand");
      expect(Tok::kLBrace, "to open the switch body");
      while (!check(Tok::kRBrace) && !check(Tok::kEof)) {
        SwitchCase sc;
        sc.loc = peek().loc;
        if (accept(Tok::kKwCase)) {
          sc.value = parse_conditional();
          expect(Tok::kColon, "after case value");
        } else if (accept(Tok::kKwDefault)) {
          sc.is_default = true;
          expect(Tok::kColon, "after 'default'");
        } else {
          fail("expected 'case' or 'default' in switch body");
        }
        while (!check(Tok::kKwCase) && !check(Tok::kKwDefault) &&
               !check(Tok::kRBrace) && !check(Tok::kEof)) {
          sc.body.push_back(parse_statement());
        }
        s->cases.push_back(std::move(sc));
      }
      expect(Tok::kRBrace, "to close the switch body");
      return s;
    }
    default:
      break;
  }

  // Declaration or expression statement. A statement starting with a type
  // keyword (or `struct`) is a declaration; `Ident Ident` is a declaration
  // using a bare struct-type name.
  if ((at_type() && !check(Tok::kIdent)) ||
      (check(Tok::kIdent) && peek(1).is(Tok::kIdent))) {
    return parse_local_decl();
  }
  auto s = make_stmt(StmtKind::kExpr, loc);
  s->expr.push_back(parse_expr());
  expect(Tok::kSemi, "after expression");
  return s;
}

ExprPtr Parser::parse_assignment() {
  ExprPtr lhs = parse_conditional();
  if (is_assignment(peek().kind)) {
    const Token& op_tok = advance();
    Tok op = op_tok.kind;
    auto e = make_expr(ExprKind::kAssign, lhs->loc);
    e->op = op;
    e->op_site = op_tok.site;
    e->sub.push_back(std::move(lhs));
    e->sub.push_back(parse_assignment());
    return e;
  }
  return lhs;
}

ExprPtr Parser::parse_conditional() {
  ExprPtr cond = parse_binary(0);
  if (accept(Tok::kQuestion)) {
    auto e = make_expr(ExprKind::kCond, cond->loc);
    e->sub.push_back(std::move(cond));
    e->sub.push_back(parse_expr());
    expect(Tok::kColon, "in conditional expression");
    e->sub.push_back(parse_conditional());
    return e;
  }
  return cond;
}

ExprPtr Parser::parse_binary(int min_prec) {
  ExprPtr lhs = parse_unary();
  for (;;) {
    int prec = binary_precedence(peek().kind);
    if (prec < 0 || prec < min_prec) return lhs;
    const Token& op_tok = advance();
    Tok op = op_tok.kind;
    ExprPtr rhs = parse_binary(prec + 1);
    auto e = make_expr(ExprKind::kBinary, lhs->loc);
    e->op = op;
    e->op_site = op_tok.site;
    e->sub.push_back(std::move(lhs));
    e->sub.push_back(std::move(rhs));
    lhs = std::move(e);
  }
}

ExprPtr Parser::parse_unary() {
  support::SourceLoc loc = peek().loc;
  switch (peek().kind) {
    case Tok::kMinus:
    case Tok::kTilde:
    case Tok::kBang:
    case Tok::kPlus: {
      const Token& op_tok = advance();
      Tok op = op_tok.kind;
      auto e = make_expr(ExprKind::kUnary, loc);
      e->op = op;
      e->op_site = op_tok.site;
      e->sub.push_back(parse_unary());
      return e;
    }
    case Tok::kLParen: {
      // Cast or parenthesised expression.
      bool is_cast = false;
      switch (peek(1).kind) {
        case Tok::kKwVoid: case Tok::kKwInt: case Tok::kKwU8:
        case Tok::kKwU16: case Tok::kKwU32: case Tok::kKwS8:
        case Tok::kKwS16: case Tok::kKwS32: case Tok::kKwCString:
        case Tok::kKwStruct:
          is_cast = peek(2).is(Tok::kRParen) ||
                    (peek(1).is(Tok::kKwStruct) && peek(3).is(Tok::kRParen));
          break;
        default:
          break;
      }
      if (is_cast) {
        advance();  // (
        auto e = make_expr(ExprKind::kCast, loc);
        e->cast_type = parse_type();
        expect(Tok::kRParen, "after cast type");
        e->sub.push_back(parse_unary());
        return e;
      }
      advance();  // (
      ExprPtr inner = parse_expr();
      expect(Tok::kRParen, "after parenthesised expression");
      return parse_postfix_suffixes(std::move(inner));
    }
    default:
      return parse_postfix();
  }
}

ExprPtr Parser::parse_postfix() {
  return parse_postfix_suffixes(parse_primary());
}

ExprPtr Parser::parse_postfix_suffixes(ExprPtr e) {
  for (;;) {
    if (accept(Tok::kDot)) {
      auto m = make_expr(ExprKind::kMember, e->loc);
      if (!check(Tok::kIdent)) fail("expected member name after '.'");
      m->text = advance().text;
      m->sub.push_back(std::move(e));
      e = std::move(m);
    } else if (check(Tok::kLBracket)) {
      advance();
      auto ix = make_expr(ExprKind::kIndex, e->loc);
      ix->sub.push_back(std::move(e));
      ix->sub.push_back(parse_expr());
      expect(Tok::kRBracket, "after index expression");
      e = std::move(ix);
    } else if (check(Tok::kLParen)) {
      // Call applied to a non-identifier postfix expression, e.g. a macro
      // that expanded to a literal: `0x1f0(...)`. C's grammar accepts this;
      // the type checker then rejects it ("called object is not a
      // function"), which is precisely how gcc kills such mutants.
      advance();
      auto call = make_expr(ExprKind::kCall, e->loc);
      call->text.clear();  // marks a non-identifier callee in sub[0]
      call->sub.push_back(std::move(e));
      if (!check(Tok::kRParen)) {
        do {
          call->sub.push_back(parse_expr());
        } while (accept(Tok::kComma));
      }
      expect(Tok::kRParen, "after call arguments");
      e = std::move(call);
    } else if (check(Tok::kPlusPlus) || check(Tok::kMinusMinus)) {
      // Postfix ++/-- desugars to a compound assignment; the (unused in
      // driver code) result is the post-increment value, which is harmless
      // in the for-step positions where drivers use it.
      Tok op = advance().kind == Tok::kPlusPlus ? Tok::kPlusAssign
                                                : Tok::kMinusAssign;
      auto a = make_expr(ExprKind::kAssign, e->loc);
      a->op = op;
      a->sub.push_back(std::move(e));
      auto one = make_expr(ExprKind::kIntLit, a->loc);
      one->int_value = 1;
      a->sub.push_back(std::move(one));
      e = std::move(a);
    } else {
      return e;
    }
  }
}

ExprPtr Parser::parse_primary() {
  support::SourceLoc loc = peek().loc;
  switch (peek().kind) {
    case Tok::kIntLit: {
      const Token& t = advance();
      auto e = make_expr(ExprKind::kIntLit, loc);
      e->int_value = t.int_value;
      e->text = t.text;
      e->site = t.site;
      return e;
    }
    case Tok::kStringLit: {
      const Token& t = advance();
      auto e = make_expr(ExprKind::kStringLit, loc);
      e->text = t.text;
      return e;
    }
    case Tok::kIdent: {
      const Token& t = advance();
      if (check(Tok::kLParen)) {
        auto e = make_expr(ExprKind::kCall, loc);
        e->text = t.text;
        e->site = t.site;
        advance();  // (
        if (!check(Tok::kRParen)) {
          do {
            e->sub.push_back(parse_expr());
          } while (accept(Tok::kComma));
        }
        expect(Tok::kRParen, "after call arguments");
        return e;
      }
      auto e = make_expr(ExprKind::kIdent, loc);
      e->text = t.text;
      e->site = t.site;
      return e;
    }
    default:
      fail("expected an expression");
  }
}

}  // namespace minic
