// Tests for the MiniC interpreter: arithmetic, control flow, the fault model
// and the line-coverage tracking the dead-code classification relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <vector>

#include "minic/program.h"

namespace {

/// IoEnvironment that answers reads from a scripted map and records writes.
class FakeIo : public minic::IoEnvironment {
 public:
  uint32_t io_in(uint32_t port, int width) override {
    (void)width;
    reads.push_back(port);
    auto it = values.find(port);
    return it == values.end() ? 0xffu : it->second;
  }
  void io_out(uint32_t port, uint32_t value, int width) override {
    (void)width;
    writes.emplace_back(port, value);
  }
  std::map<uint32_t, uint32_t> values;
  std::vector<uint32_t> reads;
  std::vector<std::pair<uint32_t, uint32_t>> writes;
};

minic::RunOutcome run(const std::string& src, const std::string& entry = "f",
                      FakeIo* io = nullptr, uint64_t budget = 200000) {
  FakeIo local;
  return minic::compile_and_run("t.c", src, entry, io ? *io : local, budget);
}

TEST(MiniCInterp, ReturnsValue) {
  auto out = run("int f() { return 6 * 7; }");
  EXPECT_EQ(out.fault, minic::FaultKind::kNone);
  EXPECT_EQ(out.return_value, 42);
}

TEST(MiniCInterp, ArithmeticAndPrecedence) {
  EXPECT_EQ(run("int f() { return 2 + 3 * 4; }").return_value, 14);
  EXPECT_EQ(run("int f() { return (2 + 3) * 4; }").return_value, 20);
  EXPECT_EQ(run("int f() { return 7 / 2; }").return_value, 3);
  EXPECT_EQ(run("int f() { return 7 % 3; }").return_value, 1);
}

TEST(MiniCInterp, BitOperations) {
  EXPECT_EQ(run("int f() { return 0xf0 | 0x0f; }").return_value, 0xff);
  EXPECT_EQ(run("int f() { return 0xff & 0x3c; }").return_value, 0x3c);
  EXPECT_EQ(run("int f() { return 0xff ^ 0x0f; }").return_value, 0xf0);
  EXPECT_EQ(run("int f() { return 1 << 4; }").return_value, 16);
  EXPECT_EQ(run("int f() { return 0x80 >> 3; }").return_value, 0x10);
  EXPECT_EQ(run("int f() { return ~0 & 0xff; }").return_value, 0xff);
}

TEST(MiniCInterp, LogicalOperatorsShortCircuit) {
  // The right operand would fault (division by zero) if evaluated.
  auto out = run("int f() { int z; z = 0; return 0 && (1 / z); }");
  EXPECT_EQ(out.fault, minic::FaultKind::kNone);
  EXPECT_EQ(out.return_value, 0);
  out = run("int f() { int z; z = 0; return 1 || (1 / z); }");
  EXPECT_EQ(out.fault, minic::FaultKind::kNone);
  EXPECT_EQ(out.return_value, 1);
}

TEST(MiniCInterp, IntegerNarrowingOnTypedAssignment) {
  EXPECT_EQ(run("int f() { u8 v; v = 0x1ff; return v; }").return_value, 0xff);
  EXPECT_EQ(run("int f() { s8 v; v = 0xff; return v; }").return_value, -1);
  EXPECT_EQ(run("int f() { u16 v; v = 0x12345; return v; }").return_value,
            0x2345);
}

TEST(MiniCInterp, CastNarrowsAndSignExtends) {
  EXPECT_EQ(run("int f() { return (u8)0x1ff; }").return_value, 0xff);
  EXPECT_EQ(run("int f() { return (s8)0x80; }").return_value, -128);
}

TEST(MiniCInterp, WhileAndForLoops) {
  EXPECT_EQ(run("int f() { int s; int i; s = 0;"
                " for (i = 1; i <= 10; i++) { s += i; } return s; }")
                .return_value,
            55);
  EXPECT_EQ(run("int f() { int n; n = 0; while (n < 5) { n++; } return n; }")
                .return_value,
            5);
  EXPECT_EQ(run("int f() { int n; n = 9; do { n++; } while (0); return n; }")
                .return_value,
            10);
}

TEST(MiniCInterp, BreakAndContinue) {
  EXPECT_EQ(run("int f() { int i; int s; s = 0;"
                " for (i = 0; i < 10; i++) {"
                "   if (i == 3) { continue; }"
                "   if (i == 6) { break; }"
                "   s += i;"
                " } return s; }")
                .return_value,
            0 + 1 + 2 + 4 + 5);
}

TEST(MiniCInterp, SwitchMatchFallthroughDefault) {
  const char* tmpl =
      "int f() { int r; r = 0; switch (%d) {"
      "  case 1: r += 1;"
      "  case 2: r += 10; break;"
      "  case 3: r += 100; break;"
      "  default: r += 1000;"
      " } return r; }";
  char buf[256];
  std::snprintf(buf, sizeof(buf), tmpl, 1);
  EXPECT_EQ(run(buf).return_value, 11);  // fallthrough 1 -> 2
  std::snprintf(buf, sizeof(buf), tmpl, 3);
  EXPECT_EQ(run(buf).return_value, 100);
  std::snprintf(buf, sizeof(buf), tmpl, 9);
  EXPECT_EQ(run(buf).return_value, 1000);
}

TEST(MiniCInterp, GlobalsPersistAcrossCalls) {
  EXPECT_EQ(run("int g; void inc() { g = g + 1; }"
                "int f() { inc(); inc(); inc(); return g; }")
                .return_value,
            3);
}

TEST(MiniCInterp, ArraysReadWrite) {
  EXPECT_EQ(run("u16 b[8]; int f() { int i;"
                " for (i = 0; i < 8; i++) { b[i] = i * i; }"
                " return b[5]; }")
                .return_value,
            25);
}

TEST(MiniCInterp, StructValuesAndMembers) {
  EXPECT_EQ(run("struct S { cstring f; int t; u32 v; };"
                "int f() { S s; s.t = 7; s.v = 9; return s.t + s.v; }")
                .return_value,
            16);
}

TEST(MiniCInterp, StructGlobalInitialiser) {
  EXPECT_EQ(run("struct S { cstring f; int t; u32 v; };"
                "const S k = { \"x\", 4, 0x10 };"
                "int f() { return k.t + k.v; }")
                .return_value,
            20);
}

TEST(MiniCInterp, StructCopySemantics) {
  EXPECT_EQ(run("struct S { int v; };"
                "int f() { S a; S b; a.v = 1; b = a; b.v = 2; return a.v; }")
                .return_value,
            1);
}

// ---- fault model ------------------------------------------------------------

TEST(MiniCInterp, PanicIsHaltFault) {
  auto out = run("int f() { panic(\"VFS: unable to mount root\"); return 0; }");
  EXPECT_EQ(out.fault, minic::FaultKind::kPanic);
  EXPECT_NE(out.fault_message.find("VFS"), std::string::npos);
}

TEST(MiniCInterp, DevilAssertionIsSeparateFault) {
  auto out = run("int f() { panic(\"Devil assertion: bad value\"); return 0; }");
  EXPECT_EQ(out.fault, minic::FaultKind::kDevilAssertion);
}

TEST(MiniCInterp, InfiniteLoopHitsStepLimit) {
  auto out = run("int f() { while (1) { } return 0; }", "f", nullptr, 5000);
  EXPECT_EQ(out.fault, minic::FaultKind::kStepLimit);
}

TEST(MiniCInterp, OutOfBoundsIndexIsCrash) {
  auto out = run("u16 b[4]; int f() { b[9] = 1; return 0; }");
  EXPECT_EQ(out.fault, minic::FaultKind::kBadIndex);
  out = run("u16 b[4]; int f() { int i; i = 0 - 1; return b[i]; }");
  EXPECT_EQ(out.fault, minic::FaultKind::kBadIndex);
}

TEST(MiniCInterp, DivisionByZeroIsCrash) {
  auto out = run("int f() { int z; z = 0; return 1 / z; }");
  EXPECT_EQ(out.fault, minic::FaultKind::kDivByZero);
}

TEST(MiniCInterp, RunawayRecursionIsStackOverflow) {
  auto out = run("int f() { return f(); }");
  EXPECT_EQ(out.fault, minic::FaultKind::kStackOverflow);
}

TEST(MiniCInterp, DilEqTagMismatchIsDevilAssertion) {
  auto out = run(
      "struct A { cstring filename; int type; u32 val; };"
      "struct B { cstring filename; int type; u32 val; };"
      "int f() { A a; B b;"
      " a.filename = \"t\"; a.type = 1; a.val = 0;"
      " b.filename = \"t\"; b.type = 2; b.val = 0;"
      " return dil_eq(a, b); }");
  EXPECT_EQ(out.fault, minic::FaultKind::kDevilAssertion);
}

TEST(MiniCInterp, DilEqMatchingTagsCompareValues) {
  auto out = run(
      "struct A { cstring filename; int type; u32 val; };"
      "int f() { A a; A b;"
      " a.filename = \"t\"; a.type = 1; a.val = 5;"
      " b.filename = \"t\"; b.type = 1; b.val = 5;"
      " return dil_eq(a, b); }");
  EXPECT_EQ(out.fault, minic::FaultKind::kNone);
  EXPECT_EQ(out.return_value, 1);
}

// ---- I/O builtins ----------------------------------------------------------------

TEST(MiniCInterp, InbOutbRouteThroughEnvironment) {
  FakeIo io;
  io.values[0x1f7] = 0x50;
  auto out = run("int f() { outb(0xec, 0x1f7); return inb(0x1f7); }", "f", &io);
  EXPECT_EQ(out.return_value, 0x50);
  ASSERT_EQ(io.writes.size(), 1u);
  EXPECT_EQ(io.writes[0], (std::pair<uint32_t, uint32_t>{0x1f7, 0xec}));
}

TEST(MiniCInterp, PrintkCollectsLog) {
  auto out = run("int f() { printk(\"one\"); printk(\"two\"); return 0; }");
  ASSERT_EQ(out.log.size(), 2u);
  EXPECT_EQ(out.log[0], "one");
}

TEST(MiniCInterp, UdelayBurnsSteps) {
  auto a = run("int f() { return 0; }");
  auto b = run("int f() { udelay(1000); return 0; }");
  EXPECT_GT(b.steps_used, a.steps_used + 500);
}

// ---- coverage tracking -----------------------------------------------------------

TEST(MiniCInterp, ExecutedLinesTracked) {
  auto out = run(
      "int f() {\n"       // line 1
      "  int x;\n"        // 2
      "  x = 1;\n"        // 3
      "  if (x == 0) {\n" // 4
      "    x = 99;\n"     // 5 — not executed
      "  }\n"
      "  return x;\n"     // 7
      "}\n");
  EXPECT_TRUE(out.executed.test(3));
  EXPECT_TRUE(out.executed.test(4));
  EXPECT_FALSE(out.executed.test(5));
  EXPECT_TRUE(out.executed.test(7));
}

TEST(MiniCInterp, CaseLabelComparisonCountsAsExecution) {
  auto out = run(
      "int f() {\n"             // 1
      "  switch (2) {\n"        // 2
      "    case 1:\n"           // 3 — compared
      "      return 10;\n"      // 4 — not executed
      "    case 2:\n"           // 5 — compared, matches
      "      return 20;\n"      // 6 — executed
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(out.return_value, 20);
  EXPECT_TRUE(out.executed.test(3));
  EXPECT_FALSE(out.executed.test(4));
  EXPECT_TRUE(out.executed.test(6));
}

TEST(MiniCInterp, LabelsAfterMatchNotCompared) {
  auto out = run(
      "int f() {\n"            // 1
      "  switch (1) {\n"       // 2
      "    case 1: break;\n"   // 3
      "    case 2: break;\n"   // 4 — never compared
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(out.executed.test(3));
  EXPECT_FALSE(out.executed.test(4));
}

}  // namespace
