// Tests for the MiniC lexer/preprocessor and parser.
#include <gtest/gtest.h>

#include "minic/lexer.h"
#include "minic/parser.h"
#include "minic/program.h"

namespace {

using minic::Tok;

minic::LexOutput lex(const std::string& src,
                     support::DiagnosticEngine& diags,
                     const std::string& name = "t.c") {
  support::SourceBuffer buf(name, src);
  return minic::lex_unit(buf, diags);
}

minic::LexOutput lex_ok(const std::string& src) {
  support::DiagnosticEngine diags;
  auto out = lex(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return out;
}

std::optional<minic::Unit> parse(const std::string& src,
                                 support::DiagnosticEngine& diags) {
  auto out = lex(src, diags);
  if (diags.has_errors()) return std::nullopt;
  minic::Parser parser(std::move(out.tokens), diags);
  return parser.parse();
}

// ---------------------------------------------------------------------------
// Lexer / preprocessor
// ---------------------------------------------------------------------------

TEST(MiniCLexer, IntegerBases) {
  auto out = lex_ok("10 010 0x10");
  EXPECT_EQ(out.tokens[0].int_value, 10u);
  EXPECT_EQ(out.tokens[0].int_base, 10);
  EXPECT_EQ(out.tokens[1].int_value, 8u);  // octal!
  EXPECT_EQ(out.tokens[1].int_base, 8);
  EXPECT_EQ(out.tokens[2].int_value, 16u);
  EXPECT_EQ(out.tokens[2].int_base, 16);
}

// A literal wider than 64 bits is MC017 at the literal, and lexing goes on
// (the next token still lexes), never a std::out_of_range from the front end.
void expect_literal_too_wide(const std::string& literal) {
  SCOPED_TRACE(literal);
  support::DiagnosticEngine diags;
  auto out = lex("int x = " + literal + "; int y = 7;", diags);
  ASSERT_TRUE(diags.has_code("MC017")) << diags.render();
  EXPECT_EQ(diags.error_count(), 1) << diags.render();
  EXPECT_EQ(diags.all().front().loc.line, 1u);
  EXPECT_EQ(diags.all().front().loc.column, 9u);
  bool seven = false;
  for (const auto& t : out.tokens) {
    if (t.kind == Tok::kIntLit && t.int_value == 7) seven = true;
  }
  EXPECT_TRUE(seven) << "lexing stopped at the wide literal";
}

TEST(MiniCLexer, WideDecimalLiteralIsDiagnosed) {
  expect_literal_too_wide("99999999999999999999");
  // The widest decimal that fits still lexes.
  auto out = lex_ok("18446744073709551615");
  EXPECT_EQ(out.tokens[0].int_value, ~uint64_t{0});
}

TEST(MiniCLexer, WideHexLiteralIsDiagnosed) {
  expect_literal_too_wide("0x123456789abcdef01");
  expect_literal_too_wide("0x10000000000000000u");
  auto out = lex_ok("0xffffffffffffffff");
  EXPECT_EQ(out.tokens[0].int_value, ~uint64_t{0});
}

TEST(MiniCLexer, WideOctalLiteralIsDiagnosed) {
  expect_literal_too_wide("0123456701234567012345670");  // 25 digits
  auto out = lex_ok("01777777777777777777777");
  EXPECT_EQ(out.tokens[0].int_value, ~uint64_t{0});
}

TEST(MiniCLexer, WideLiteralInMacroIsDiagnosedAtItsDefinition) {
  support::DiagnosticEngine diags;
  lex("#define W 0x10000000000000000\nint x = W;", diags);
  ASSERT_TRUE(diags.has_code("MC017")) << diags.render();
  EXPECT_EQ(diags.all().front().loc.line, 1u);
  // Through the whole front end: a diagnostic, not an exception.
  minic::Program prog;
  ASSERT_NO_THROW(prog = minic::compile(
                      "t.c", "int f() { return 99999999999999999999; }"));
  EXPECT_FALSE(prog.ok());
  EXPECT_TRUE(prog.diags.has_code("MC017")) << prog.diags.render();
  ASSERT_NO_THROW(prog = minic::compile(
                      "t.c", "#define W 0x10000000000000000\n"
                             "int f() { return W; }"));
  EXPECT_TRUE(prog.diags.has_code("MC017")) << prog.diags.render();
}

TEST(MiniCLexer, IntegerSuffixesIgnored) {
  auto out = lex_ok("0x10u 5UL");
  EXPECT_EQ(out.tokens[0].int_value, 16u);
  EXPECT_EQ(out.tokens[1].int_value, 5u);
}

TEST(MiniCLexer, ObjectMacroExpansion) {
  auto out = lex_ok("#define PORT 0x1f0\noutb(v, PORT + 6);");
  bool found = false;
  for (const auto& t : out.tokens) {
    if (t.kind == Tok::kIntLit && t.int_value == 0x1f0) found = true;
    EXPECT_NE(t.text, "PORT");  // fully substituted
  }
  EXPECT_TRUE(found);
}

TEST(MiniCLexer, NestedMacros) {
  auto out = lex_ok("#define A 1\n#define B A + A\nint x = B;");
  int ones = 0;
  for (const auto& t : out.tokens) {
    if (t.kind == Tok::kIntLit && t.int_value == 1) ++ones;
  }
  EXPECT_EQ(ones, 2);
}

TEST(MiniCLexer, RecursiveMacroDiagnosed) {
  support::DiagnosticEngine diags;
  lex("#define A B\n#define B A\nint x = A;", diags);
  EXPECT_TRUE(diags.has_code("MC013"));
}

TEST(MiniCLexer, MacroUseLinesRecorded) {
  auto out = lex_ok("#define P 7\nint a = P;\nint b = P;\n");
  ASSERT_TRUE(out.macro_use_lines.count("P"));
  EXPECT_EQ(out.macro_use_lines.at("P"),
            (std::set<uint32_t>{2, 3}));
}

TEST(MiniCLexer, FileMacroExpandsToBufferName) {
  support::DiagnosticEngine diags;
  auto out = lex("cstring f = __FILE__;", diags, "busmouse.dil");
  bool found = false;
  for (const auto& t : out.tokens) {
    if (t.kind == Tok::kStringLit && t.text == "busmouse.dil") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MiniCLexer, MacroRedefinitionDiagnosed) {
  support::DiagnosticEngine diags;
  lex("#define A 1\n#define A 2\n", diags);
  EXPECT_TRUE(diags.has_code("MC016"));
}

TEST(MiniCLexer, OperatorsLexGreedily) {
  auto out = lex_ok("a <<= b >> c <= d < e");
  EXPECT_EQ(out.tokens[1].kind, Tok::kShlAssign);
  EXPECT_EQ(out.tokens[3].kind, Tok::kShr);
  EXPECT_EQ(out.tokens[5].kind, Tok::kLe);
  EXPECT_EQ(out.tokens[7].kind, Tok::kLt);
}

TEST(MiniCLexer, StringEscapes) {
  auto out = lex_ok(R"("a\nb\"c")");
  EXPECT_EQ(out.tokens[0].text, "a\nb\"c");
}

TEST(MiniCLexer, UseSiteLocationForMacroTokens) {
  auto out = lex_ok("#define P 0x10\n\n\nint x = P;");
  for (const auto& t : out.tokens) {
    if (t.kind == Tok::kIntLit && t.int_value == 0x10) {
      EXPECT_EQ(t.loc.line, 4u);  // reported at the use, like a C compiler
    }
  }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(MiniCParser, GlobalsAndArrays) {
  support::DiagnosticEngine diags;
  auto unit = parse("int x; u16 buf[256]; const int k = 3;", diags);
  ASSERT_TRUE(unit) << diags.render();
  ASSERT_EQ(unit->globals.size(), 3u);
  EXPECT_EQ(unit->globals[1].array_size, 256u);
  EXPECT_TRUE(unit->globals[2].is_const);
}

TEST(MiniCParser, StructDefinitionAndInit) {
  support::DiagnosticEngine diags;
  auto unit = parse(
      "struct S { cstring f; int t; u32 v; };"
      "const S x = { \"a\", 1, 2 };",
      diags);
  ASSERT_TRUE(unit) << diags.render();
  ASSERT_EQ(unit->structs.size(), 1u);
  EXPECT_EQ(unit->structs[0].fields.size(), 3u);
  EXPECT_EQ(unit->globals[0].init_list.size(), 3u);
}

TEST(MiniCParser, FunctionWithParams) {
  support::DiagnosticEngine diags;
  auto unit = parse("static inline u8 f(u32 port, int w) { return 0; }", diags);
  ASSERT_TRUE(unit) << diags.render();
  ASSERT_EQ(unit->functions.size(), 1u);
  EXPECT_EQ(unit->functions[0].params.size(), 2u);
}

TEST(MiniCParser, ControlFlowStatements) {
  support::DiagnosticEngine diags;
  auto unit = parse(
      "void f() {"
      "  int i;"
      "  for (i = 0; i < 10; i++) { continue; }"
      "  while (i > 0) { i = i - 1; break; }"
      "  do { i = i + 1; } while (i < 3);"
      "  if (i) { return; } else { return; }"
      "}",
      diags);
  ASSERT_TRUE(unit) << diags.render();
}

TEST(MiniCParser, SwitchWithFallthroughAndDefault) {
  support::DiagnosticEngine diags;
  auto unit = parse(
      "int f(int x) {"
      "  switch (x) {"
      "    case 1:"
      "    case 2: return 10;"
      "    default: break;"
      "  }"
      "  return 0;"
      "}",
      diags);
  ASSERT_TRUE(unit) << diags.render();
  // Find the switch statement and check its case structure.
  const auto& body = unit->functions[0].body->body;
  ASSERT_FALSE(body.empty());
  const auto& sw = *body[0];
  ASSERT_EQ(sw.kind, minic::StmtKind::kSwitch);
  ASSERT_EQ(sw.cases.size(), 3u);
  EXPECT_TRUE(sw.cases[0].body.empty());  // fallthrough
  EXPECT_TRUE(sw.cases[2].is_default);
}

TEST(MiniCParser, ExpressionPrecedence) {
  support::DiagnosticEngine diags;
  auto unit = parse("int g() { return 1 | 2 & 3 ^ 4 << 1; }", diags);
  ASSERT_TRUE(unit) << diags.render();
  // 1 | ((2 & 3) ^ (4 << 1)) — check the root is '|'.
  const auto& ret = *unit->functions[0].body->body[0];
  EXPECT_EQ(ret.expr[0]->op, minic::Tok::kPipe);
}

TEST(MiniCParser, TernaryAndCasts) {
  support::DiagnosticEngine diags;
  auto unit = parse("int g(int x) { return x ? (u8)x : (int)0; }", diags);
  ASSERT_TRUE(unit) << diags.render();
}

TEST(MiniCParser, CompoundAssignmentsAndUnary) {
  support::DiagnosticEngine diags;
  auto unit = parse(
      "void f() { int x; x = 0; x |= 1; x &= 2; x <<= 1; x >>= 1;"
      " x += 1; x -= 1; x ^= 3; x = -x; x = ~x; x = !x; }",
      diags);
  ASSERT_TRUE(unit) << diags.render();
}

TEST(MiniCParser, MemberAccessChains) {
  support::DiagnosticEngine diags;
  auto unit = parse(
      "struct S { int v; }; S g; int f() { return g.v; }", diags);
  ASSERT_TRUE(unit) << diags.render();
}

TEST(MiniCParser, IndexingParses) {
  support::DiagnosticEngine diags;
  auto unit = parse("u16 b[4]; int f(int i) { b[i] = b[i + 1]; return b[0]; }",
                    diags);
  ASSERT_TRUE(unit) << diags.render();
}

TEST(MiniCParser, BareStructNameAsType) {
  support::DiagnosticEngine diags;
  auto unit = parse(
      "struct Drive_t { int val; };"
      "Drive_t f(Drive_t v) { Drive_t w; w = v; return w; }",
      diags);
  ASSERT_TRUE(unit) << diags.render();
}

TEST(MiniCParser, SyntaxErrorReported) {
  support::DiagnosticEngine diags;
  auto unit = parse("int f() { return ; }", diags);
  EXPECT_TRUE(unit.has_value());  // `return ;` is fine
  diags.clear();
  unit = parse("int f() { +++ }", diags);
  EXPECT_FALSE(unit.has_value());
  EXPECT_TRUE(diags.has_errors());
}

}  // namespace
