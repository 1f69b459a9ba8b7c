// Unit tests for the Devil semantic checker — one test per consistency rule
// (paper §2.2). Each negative test asserts the *specific* rule code fires,
// so a mutant killed by the wrong check would show up here. Every spec that
// parses is also given to `Sema::accepts`, whose verdict must be `check`'s.
// `DevilSemaPass.*` checks the changed-declaration pass
// (`Sema::rejects_change`), one case per dependency edge it follows.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "corpus/specs.h"
#include "devil/compiler.h"
#include "mutation/devil_mutator.h"

namespace {

devil::CompileResult check(const std::string& body_or_spec) {
  auto r = devil::check_spec("test.dil", body_or_spec);
  if (r.spec) {
    EXPECT_EQ(devil::Sema::accepts(*r.spec), r.ok())
        << body_or_spec << "\n" << r.diags.render();
  }
  return r;
}

/// Wraps register/variable declarations in a single-port device.
std::string dev(const std::string& body, const std::string& params =
                                              "p : bit[8] port @ {0..0}") {
  return "device d (" + params + ") {\n" + body + "\n}";
}

TEST(DevilSema, AcceptsMinimalConsistentSpec) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

// ---- intra-layer: ports ---------------------------------------------------

TEST(DevilSema, DVL100_DuplicatePortParam) {
  auto r = check(
      "device d (p : bit[8] port @ {0..0}, p : bit[8] port @ {0..0}) {"
      " register r = p @ 0 : bit[8]; variable v = r : int(8); }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL100"));
}

TEST(DevilSema, DVL101_InvalidPortWidth) {
  auto r = check(dev("register r = p @ 0 : bit[12]; variable v = r : int(12);",
                     "p : bit[12] port @ {0..0}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL101"));
}

TEST(DevilSema, DVL102_EmptyPortRange) {
  auto r = check(dev("register r = p @ 3 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {3..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL102"));
}

TEST(DevilSema, PortOffsetSetsSupported) {
  // Non-contiguous offset sets: `@ {0, 2}` claims exactly those offsets.
  auto r = check(dev("register a = p @ 0 : bit[8]; register b = p @ 2 : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);",
                     "p : bit[8] port @ {0, 2}"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, DVL113_OffsetOutsideOffsetSet) {
  auto r = check(dev("register a = p @ 1 : bit[8]; variable v = a : int(8);",
                     "p : bit[8] port @ {0, 2}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL113"));
}

TEST(DevilSema, DVL103_DuplicateOffsetInSet) {
  auto r = check(dev("register a = p @ 0 : bit[8]; variable v = a : int(8);",
                     "p : bit[8] port @ {0, 0}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL103"));
}

// ---- intra-layer: registers --------------------------------------------------

TEST(DevilSema, DVL110_DuplicateRegister) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "register r = p @ 0 : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL110"));
}

TEST(DevilSema, FirstDeclarationOfANameWins) {
  // The second `r` is the duplicate: DVL110 points at it, and every use of
  // the name sees the first, 8-bit register. So the 16-bit one is never
  // checked against its 8-bit port (DVL115) or the int(8) variable (DVL130).
  auto r = check(dev("register r = p @ 0 : bit[8];\n"
                     "register r = p @ 0 : bit[16];\n"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  int duplicates = 0;
  for (const auto& d : r.diags.all()) {
    if (d.code != "DVL110") continue;
    ++duplicates;
    EXPECT_EQ(d.loc.line, 3u) << r.diags.render();
  }
  EXPECT_EQ(duplicates, 1) << r.diags.render();
  EXPECT_FALSE(r.diags.has_code("DVL115")) << r.diags.render();
  EXPECT_FALSE(r.diags.has_code("DVL130")) << r.diags.render();
}

TEST(DevilSema, DVL112_UnknownPort) {
  auto r = check(dev("register r = q @ 0 : bit[8]; variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL112"));
}

TEST(DevilSema, DVL113_OffsetOutsideRange) {
  auto r = check(dev("register r = p @ 7 : bit[8]; variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL113"));
}

TEST(DevilSema, DVL114_MaskSizeMismatch) {
  auto r = check(dev("register r = p @ 0, mask '....' : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL114"));
}

TEST(DevilSema, DVL115_RegisterWiderThanPort) {
  auto r = check(dev("register r = p @ 0 : bit[16]; variable v = r : int(16);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL115"));
}

TEST(DevilSema, DVL116_TwoReadBindings) {
  auto r = check(dev("register r = read p @ 0, read p @ 1 : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL116"));
}

TEST(DevilSema, DVL117_TwoWriteBindings) {
  auto r = check(dev("register r = write p @ 0, write p @ 1 : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL117")) << r.diags.render();
}

// ---- intra-layer: variables -----------------------------------------------------

TEST(DevilSema, DVL120_DuplicateVariable) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[7..4] : int(4);"
                     "variable v = r[3..0] : int(4);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL120"));
}

TEST(DevilSema, DVL121_UnknownRegisterInFragment) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = s : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL121"));
}

TEST(DevilSema, DVL122_BitRangeOutOfBounds) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r[9..0] : int(10);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL122"));
}

TEST(DevilSema, DVL123_VariableOnIrrelevantBit) {
  auto r = check(dev("register r = p @ 0, mask '0.......' : bit[8];"
                     "variable v = r[7] : int(1);"
                     "variable w = r[6..0] : int(7);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL123"));
}

TEST(DevilSema, DVL124_VariableNeitherReadableNorWritable) {
  auto r = check(dev("register a = read p @ 0 : bit[8];"
                     "register b = write p @ 1 : bit[8];"
                     "variable v = a # b : int(16);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL124")) << r.diags.render();
}

TEST(DevilSema, DVL130_WidthMismatchWithType) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(4);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL130"));
}

TEST(DevilSema, DVL131_EnumPatternLengthMismatch) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : { A <=> '00', B <=> '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL131"));
}

TEST(DevilSema, DVL132_EnumPatternBadChar) {
  auto r = check(dev("register r = p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <=> '*', B <=> '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL132"));
}

TEST(DevilSema, DVL133_DuplicateSymbolicName) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[0] : { A <=> '1', A <=> '0' };"
                     "variable w = r[1] : int(1);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL133"));
}

TEST(DevilSema, DVL133_SymbolicNamesUniqueAcrossVariables) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[0] : { ON <=> '1', OFF <=> '0' };"
                     "variable w = r[1] : { ON <=> '1', ALSO <=> '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL133"));
}

TEST(DevilSema, DVL134_DuplicateReadPattern) {
  auto r = check(dev("register r = p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <=> '1', B <= '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL134"));
}

TEST(DevilSema, DVL135_DuplicateSetElement) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : int{1,1,2};"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL135"));
}

TEST(DevilSema, DVL136_EmptyIntegerSet) {
  // `int{}` is a parse error (DVL038), but a reversed range parses to an
  // empty set, which only Sema rejects.
  auto r = check(dev("register r = p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : int{1..0};"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL136")) << r.diags.render();
}

TEST(DevilSema, DVL137_InvalidIntegerWidth) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(0);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL137")) << r.diags.render();
}

TEST(DevilSema, DVL138_SetElementTooWide) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : int{0,2,3,5};"));
  EXPECT_FALSE(r.ok());
  // 5 needs 3 bits; the widths also mismatch — the targeted code must fire.
  EXPECT_TRUE(r.diags.has_code("DVL138") || r.diags.has_code("DVL130"));
}

TEST(DevilSema, DVL139_DuplicateWritePattern) {
  auto r = check(dev("register r = p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <=> '0', B <= '1', C => '1',"
                     " D => '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL139")) << r.diags.render();
}

// ---- inter-layer: access consistency -----------------------------------------------

TEST(DevilSema, DVL200_ReadMappingOnWriteOnlyVariable) {
  auto r = check(dev("register r = write p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <= '1', B <= '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL200"));
}

TEST(DevilSema, DVL201_WriteMappingOnReadOnlyVariable) {
  auto r = check(dev("register r = read p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A => '1', B => '0' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL201"));
}

TEST(DevilSema, DVL210_ReadMappingNotExhaustive) {
  auto r = check(dev("register r = p @ 0, mask '******..' : bit[8];"
                     "variable v = r[1..0] : { A <=> '00', B <=> '01' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL210"));
}

TEST(DevilSema, DVL202_WriteOnlyEnumNeedsWriteMapping) {
  // A write-only variable whose type has read mappings errs twice over;
  // the dedicated code for "no write mapping" must be among the errors.
  auto r = check(dev("register r = write p @ 0, mask '*******.' : bit[8];"
                     "variable v = r[0] : { A <= '1' };"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL202"));
}

// ---- pre-actions ---------------------------------------------------------------------

TEST(DevilSema, DVL150_PreActionUnknownVariable) {
  auto r = check(dev("register r = p @ 0, pre {sel = 1} : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL150"));
}

TEST(DevilSema, DVL151_PreActionReadOnlyVariable) {
  auto r = check(dev("register s = read p @ 1 : bit[8];"
                     "variable sel = s : int(8);"
                     "register r = p @ 0, pre {sel = 1} : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL151"));
}

TEST(DevilSema, DVL152_PreActionValueOutOfRange) {
  auto r = check(dev("register s = write p @ 1, mask '......**' : bit[8];"
                     "private variable sel = s[7..2] : int(6);"
                     "register r = p @ 0, pre {sel = 64} : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL152"));
}

// ---- overlap ---------------------------------------------------------------------------

TEST(DevilSema, DVL220_PortReusedWithoutDisjointness) {
  auto r = check(dev("register a = p @ 0 : bit[8];"
                     "register b = p @ 0 : bit[8];"
                     "variable va = a : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL220"));
}

TEST(DevilSema, PortReuseAllowedWithDisjointPreActions) {
  auto r = check(dev("register s = write p @ 1, mask '*******.' : bit[8];"
                     "private variable sel = s[0] : int(1);"
                     "register a = read p @ 0, pre {sel = 0} : bit[8];"
                     "register b = read p @ 0, pre {sel = 1} : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, PortReuseAllowedWithDisjointMasks) {
  auto r = check(dev("register a = write p @ 0, mask '....0000' : bit[8];"
                     "register b = write p @ 0, mask '0000....' : bit[8];"
                     "variable va = a[7..4] : int(4);"
                     "variable vb = b[3..0] : int(4);"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, PortReadAndWriteByDifferentRegistersAllowed) {
  auto r = check(dev("register a = read p @ 0 : bit[8];"
                     "register b = write p @ 0 : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);"));
  EXPECT_TRUE(r.ok()) << r.diags.render();
}

TEST(DevilSema, DVL221_RegisterBitInTwoVariables) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[3..0] : int(4);"
                     "variable w = r[7..3] : int(5);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL221"));
}

// Each use of a bit is reported once per earlier claim by another name, in
// claim order: `b` claims bit 0 twice, and the duplicate `a` is not
// reported against the first `a`.
TEST(DevilSema, DVL221_ReportsEveryEarlierClaimInOrder) {
  auto r = check(
      "device d (p : bit[8] port @ {0..0}) {\n"
      "register r = p @ 0 : bit[8];\n"
      "variable a = r[2..0] : int(3);\n"
      "variable b = r[1..0] # r[0..0] : int(3);\n"
      "variable a = r[1..1] : int(1);\n"
      "variable c = r[7..0] : int(8);\n"
      "}\n");
  EXPECT_EQ(r.diags.render(),
            "5:1: error DVL120: duplicate variable 'a'\n"
            "4:14: error DVL221: bit 0 of register 'r' is used by both 'a' and 'b'\n"
            "4:14: error DVL221: bit 1 of register 'r' is used by both 'a' and 'b'\n"
            "4:24: error DVL221: bit 0 of register 'r' is used by both 'a' and 'b'\n"
            "5:14: error DVL221: bit 1 of register 'r' is used by both 'b' and 'a'\n"
            "6:14: error DVL221: bit 0 of register 'r' is used by both 'a' and 'c'\n"
            "6:14: error DVL221: bit 0 of register 'r' is used by both 'b' and 'c'\n"
            "6:14: error DVL221: bit 0 of register 'r' is used by both 'b' and 'c'\n"
            "6:14: error DVL221: bit 1 of register 'r' is used by both 'a' and 'c'\n"
            "6:14: error DVL221: bit 1 of register 'r' is used by both 'b' and 'c'\n"
            "6:14: error DVL221: bit 1 of register 'r' is used by both 'a' and 'c'\n"
            "6:14: error DVL221: bit 2 of register 'r' is used by both 'a' and 'c'\n");
}

// ---- no omission -------------------------------------------------------------------------

TEST(DevilSema, DVL230_UnusedRegister) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "register s = p @ 1 : bit[8];"
                     "variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL230"));
}

TEST(DevilSema, DVL231_UncoveredRelevantBit) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[6..0] : int(7);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL231"));
}

TEST(DevilSema, DVL232_UnusedPortParam) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {0..0}, q : bit[8] port @ {0..0}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL232"));
}

TEST(DevilSema, DVL233_UnusedDeclaredOffset) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {0..1}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL233"));
}

// ---- resolved model ------------------------------------------------------------------------

TEST(DevilSema, TypeIdsAreSpecUnique) {
  auto r = check(dev("register r = p @ 0 : bit[8];"
                     "variable v = r[7..4] : int(4);"
                     "variable w = r[3..0] : int(4);"));
  ASSERT_TRUE(r.ok()) << r.diags.render();
  EXPECT_NE(r.info->variables.at("v").type_id,
            r.info->variables.at("w").type_id);
}

TEST(DevilSema, VariableAccessDerivedFromRegisters) {
  auto r = check(dev("register a = read p @ 0 : bit[8];"
                     "register b = write p @ 1 : bit[8];"
                     "variable va = a : int(8); variable vb = b : int(8);",
                     "p : bit[8] port @ {0..1}"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.info->variables.at("va").access, devil::Access::kRead);
  EXPECT_EQ(r.info->variables.at("vb").access, devil::Access::kWrite);
}

TEST(DevilSema, DescribeDeviceListsEntities) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);"));
  ASSERT_TRUE(r.ok());
  std::string text = devil::describe_device(*r.info);
  EXPECT_NE(text.find("register r"), std::string::npos);
  EXPECT_NE(text.find("variable v"), std::string::npos);
}

// ---- oversized literals, sizes and ranges: a diagnostic, never a crash, a
// ---- hang or a silently truncated value ------------------------------------

TEST(DevilSema, DVL016_LiteralAboveUint64Rejected) {
  auto r = check(dev("register r = p @ 18446744073709551616 : bit[8];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL016")) << r.diags.render();
}

TEST(DevilSema, DVL039_SizeAboveLimitRejected) {
  // 4294967304 is 2^32 + 8: narrowed to `int` it used to read as bit[8].
  auto r = check(dev("register r = p @ 0 : bit[4294967304];"
                     "variable v = r : int(8);"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL039")) << r.diags.render();
  for (const char* body :
       {"register r = p @ 0 : bit[8]; variable v = r[65536..0] : int(8);",
        "register r = p @ 0 : bit[8]; variable v = r : int(65536);",
        "register r = p @ 0 : bit[8]; variable v = r : signed int(65536);"}) {
    auto bad = check(dev(body));
    EXPECT_TRUE(bad.diags.has_code("DVL039")) << body;
  }
  // At the limit the value reaches Sema, which rejects it on its own terms.
  auto at_limit = check(dev("register r = p @ 0 : bit[65535];"
                            "variable v = r : int(8);"));
  EXPECT_FALSE(at_limit.diags.has_code("DVL039"));
  EXPECT_TRUE(at_limit.diags.has_code("DVL111"));
}

TEST(DevilSema, DVL040_RangeGroupAboveLimitRejected) {
  auto r = check(dev("register r = p @ 0 : bit[8]; variable v = r : int(8);",
                     "p : bit[8] port @ {0..65536}"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.diags.has_code("DVL040")) << r.diags.render();
  auto set = check(dev("register r = p @ 0 : bit[8];"
                       "variable v = r : int{7, 0..18446744073709551615};"));
  EXPECT_TRUE(set.diags.has_code("DVL040"));
  // 65536 values is the limit.
  auto at_limit = check(dev("register r = p @ 0 : bit[8];"
                            "variable v = r : int{0..65535};"));
  EXPECT_FALSE(at_limit.diags.has_code("DVL040"));
  EXPECT_TRUE(at_limit.diags.has_code("DVL130"));
}

TEST(DevilSema, RangeEndingAtUint64MaxStopsThere) {
  auto r = check(
      "device d (p : bit[8] port @ "
      "{18446744073709551614..18446744073709551615}) {"
      " register r = p @ 18446744073709551614 : bit[8];"
      " register s = p @ 18446744073709551615 : bit[8];"
      " variable v = r : int(8); variable w = s : int(8); }");
  ASSERT_TRUE(r.ok()) << r.diags.render();
  EXPECT_EQ(r.spec->device.params[0].offsets,
            (std::vector<uint64_t>{UINT64_MAX - 1, UINT64_MAX}));
}

// ---- the changed-declaration pass -------------------------------------------
//
// `Sema::rejects_change` runs only the rule instances that read one changed
// declaration. Each case below is a clean spec and the same spec with one
// declaration changed (its name kept) so that exactly one dependency edge
// carries the failure; `codes` is what spec_lint reports for the changed
// text. The pass must reject it, and so must the whole-spec check.

/// `clean` with `before` (which must lie in declaration `changed`) replaced
/// by `after`: whether the pass rejects it, once `check_spec` reported
/// exactly `codes` for the text and `accepts` rejected the clean AST with
/// the changed declaration swapped in (as the campaign builds it).
bool pass_rejects(const std::string& clean, const std::string& before,
                  const std::string& after, devil::DeclSpan changed,
                  const std::set<std::string>& codes) {
  auto c = check(clean);
  EXPECT_TRUE(c.ok()) << c.diags.render();
  std::string text = clean;
  size_t at = text.find(before);
  EXPECT_NE(at, std::string::npos) << before;
  if (!c.ok() || at == std::string::npos) return false;
  text.replace(at, before.size(), after);
  auto m = check(text);
  EXPECT_TRUE(m.spec) << m.diags.render();
  if (!m.spec) return false;
  std::set<std::string> got;
  for (const auto& d : m.diags.all()) got.insert(d.code);
  EXPECT_EQ(got, codes) << m.diags.render();

  devil::Specification spliced = *c.spec;
  devil::DeviceDecl& to = spliced.device;
  const devil::DeviceDecl& from = m.spec->device;
  switch (changed.kind) {
    case devil::DeclSpan::Kind::kPort:
      to.params[changed.index] = from.params[changed.index];
      break;
    case devil::DeclSpan::Kind::kRegister:
      to.registers[changed.index] = from.registers[changed.index];
      break;
    case devil::DeclSpan::Kind::kVariable:
      to.variables[changed.index] = from.variables[changed.index];
      break;
  }
  EXPECT_FALSE(devil::Sema::accepts(spliced));
  devil::CleanIndex index(*c.spec);
  devil::CheckScratch scratch;
  return devil::Sema::rejects_change(index, spliced, changed, scratch);
}

constexpr auto kPort = devil::DeclSpan::Kind::kPort;
constexpr auto kRegister = devil::DeclSpan::Kind::kRegister;
constexpr auto kVariable = devil::DeclSpan::Kind::kVariable;

/// Two 8-bit registers at offsets 0 and 1 of one port.
const std::string kTwoOffsets = dev(
    "register a = p @ 0 : bit[8]; register b = p @ 1 : bit[8];"
    "variable va = a : int(8); variable vb = b : int(8);",
    "p : bit[8] port @ {0..1}");

TEST(DevilSemaPass, PortOffsetsShrinkUnderABinding) {
  EXPECT_TRUE(pass_rejects(kTwoOffsets, "{0..1}", "{0..0}", {kPort, 0},
                           {"DVL113"}));
}

TEST(DevilSemaPass, PortWidthChanges) {
  EXPECT_TRUE(pass_rejects(kTwoOffsets, "p : bit[8]", "p : bit[16]",
                           {kPort, 0}, {"DVL115"}));
}

TEST(DevilSemaPass, PortGainsAnUnusedOffset) {
  EXPECT_TRUE(pass_rejects(kTwoOffsets, "{0..1}", "{0..2}", {kPort, 0},
                           {"DVL233"}));
}

TEST(DevilSemaPass, RegisterShrinksUnderAFragment) {
  // The register moves to the 8-bit port in the same change (bit[8] on the
  // 16-bit port would fail DVL115 on its own); `hi` keeps r[15..8].
  EXPECT_TRUE(pass_rejects(
      dev("register r = read q @ 0 : bit[16];"
          "register w = write q @ 0 : bit[16];"
          "register t = write p @ 0 : bit[8];"
          "variable hi = r[15..8] : int(8); variable lo = r[7..0] : int(8);"
          "variable wv = w : int(16); variable tv = t : int(8);",
          "p : bit[8] port @ {0..0}, q : bit[16] port @ {0..0}"),
      "register r = read q @ 0 : bit[16]", "register r = read p @ 0 : bit[8]",
      {kRegister, 0}, {"DVL122", "DVL130"}));
}

TEST(DevilSemaPass, RegisterMaskHidesAVariableBit) {
  EXPECT_TRUE(pass_rejects(dev("register r = p @ 0, mask '0.......' : bit[8];"
                               "variable v = r[6..0] : int(7);"),
                           "'0.......'", "'00......'", {kRegister, 0},
                           {"DVL123"}));
}

TEST(DevilSemaPass, RegisterTurnsReadOnlyUnderAPreAction) {
  EXPECT_TRUE(pass_rejects(dev("register s = p @ 1 : bit[8];"
                               "private variable sel = s : int(8);"
                               "register r = read p @ 0, pre {sel = 1} : bit[8];"
                               "variable v = r : int(8);",
                               "p : bit[8] port @ {0..1}"),
                           "register s = p @ 1", "register s = read p @ 1",
                           {kRegister, 0}, {"DVL151"}));
}

TEST(DevilSemaPass, RegisterNarrowsAVariableBelowAPreAction) {
  // A variable's width is its type's whenever DVL130 passes, so narrowing
  // it below a pre-action's value also fails DVL130.
  EXPECT_TRUE(pass_rejects(
      dev("register s = write q @ 0 : bit[16];"
          "private variable sel = s : int(16);"
          "register u = read q @ 0 : bit[16]; variable uv = u : int(16);"
          "register r = read p @ 0, pre {sel = 300} : bit[8];"
          "variable v = r : int(8);"
          "register t = read p @ 1 : bit[8]; variable tv = t : int(8);",
          "p : bit[8] port @ {0..1}, q : bit[16] port @ {0..0}"),
      "register s = write q @ 0 : bit[16]", "register s = write p @ 1 : bit[8]",
      {kRegister, 0}, {"DVL130", "DVL152"}));
}

TEST(DevilSemaPass, RegisterBindingMovesOntoAnotherRegistersOffset) {
  EXPECT_TRUE(pass_rejects(dev("register a = p @ 0 : bit[8];"
                               "register b = write p @ 1 : bit[8];"
                               "register c = read p @ 1 : bit[8];"
                               "variable va = a : int(8);"
                               "variable vb = b : int(8);"
                               "variable vc = c : int(8);",
                               "p : bit[8] port @ {0..1}"),
                           "b = write p @ 1", "b = write p @ 0",
                           {kRegister, 1}, {"DVL220"}));
}

TEST(DevilSemaPass, RegisterGrowsAnUncoveredBit) {
  EXPECT_TRUE(pass_rejects(dev("register r = p @ 0, mask '*.......' : bit[8];"
                               "variable v = r[6..0] : int(7);"),
                           "'*.......'", "'........'", {kRegister, 0},
                           {"DVL231"}));
}

TEST(DevilSemaPass, RegisterBindingLeavesAnOffsetUnused) {
  EXPECT_TRUE(pass_rejects(dev("register a = read p @ 0 : bit[8];"
                               "register b = write p @ 1 : bit[8];"
                               "variable va = a : int(8);"
                               "variable vb = b : int(8);",
                               "p : bit[8] port @ {0..1}"),
                           "b = write p @ 1", "b = write p @ 0",
                           {kRegister, 1}, {"DVL233"}));
}

TEST(DevilSemaPass, VariableOverlapsAnotherVariable) {
  EXPECT_TRUE(pass_rejects(dev("register r = p @ 0 : bit[8];"
                               "variable v = r[7..4] : int(4);"
                               "variable w = r[3..0] : int(4);"),
                           "v = r[7..4] : int(4)", "v = r[7..3] : int(5)",
                           {kVariable, 0}, {"DVL221"}));
}

/// `w` alone covers register `s` and half of `r`.
const std::string kSharedRegisters = dev(
    "register r = p @ 0 : bit[8]; register s = p @ 1 : bit[8];"
    "variable v = r[7..4] : int(4); variable w = s # r[3..0] : int(12);",
    "p : bit[8] port @ {0..1}");

TEST(DevilSemaPass, VariableLeavesARegisterUnused) {
  EXPECT_TRUE(pass_rejects(kSharedRegisters, "w = s # r[3..0] : int(12)",
                           "w = r[3..0] : int(4)", {kVariable, 1},
                           {"DVL230"}));
}

TEST(DevilSemaPass, VariableLeavesABitUncovered) {
  EXPECT_TRUE(pass_rejects(kSharedRegisters, "w = s # r[3..0] : int(12)",
                           "w = s[7..1] # r[3..0] : int(11)", {kVariable, 1},
                           {"DVL231"}));
}

TEST(DevilSemaPass, VariableTypeDropsAPreActionValue) {
  EXPECT_TRUE(pass_rejects(
      dev("register s = p @ 1, mask '*******.' : bit[8];"
          "private variable sel = s[0] : int(1);"
          "register r = read p @ 0, pre {sel = 1} : bit[8];"
          "variable v = r : int(8);",
          "p : bit[8] port @ {0..1}"),
      "s[0] : int(1)", "s[0] : { OFF <=> '0', ON <= '1' }", {kVariable, 0},
      {"DVL152"}));
}

TEST(DevilSemaPass, EnumItemTakesAnotherVariablesName) {
  EXPECT_TRUE(
      pass_rejects(dev("register r = p @ 0, mask '******..' : bit[8];"
                       "variable v = r[0] : { ON <=> '1', OFF <=> '0' };"
                       "variable w = r[1] : { UP <=> '1', DOWN <=> '0' };"),
                   "UP <=>", "ON <=>", {kVariable, 1}, {"DVL133"}));
}

TEST(DevilSemaPass, RenamedDeclarationIsLeftToTheWholeCheck) {
  // With a name gone, names no longer resolve as in the clean spec: the
  // pass decides nothing and `accepts` (asserted inside) rejects.
  EXPECT_FALSE(pass_rejects(dev("register r = p @ 0 : bit[8];"
                                "variable v = r : int(8);"),
                            "register r =", "register r2 =", {kRegister, 0},
                            {"DVL121", "DVL130", "DVL230"}));
}

// ---- the whole corpus, pinned ----------------------------------------------

/// FNV-1a 64, fed in pieces.
struct Fnv1a64 {
  uint64_t h = 14695981039346656037ULL;
  void feed(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
};

/// Calls `fn(spec, mutated_text)` for every corpus mutant, in corpus order.
template <class Fn>
void for_each_corpus_mutant(Fn fn) {
  for (const corpus::SpecEntry& spec : corpus::all_specs()) {
    auto baseline = devil::check_spec(spec.file, spec.text);
    ASSERT_TRUE(baseline.ok()) << spec.name;
    mutation::DevilNames names;
    for (const auto& p : baseline.info->decl->params) names.ports.push_back(p.name);
    for (const auto& r : baseline.info->decl->registers) {
      names.registers.push_back(r.name);
    }
    for (const auto& v : baseline.info->decl->variables) {
      names.variables.push_back(v.name);
    }
    auto sites = mutation::scan_devil_sites(spec.text, names);
    for (const auto& m : mutation::generate_devil_mutants(sites, names)) {
      fn(spec, mutation::apply_mutant(spec.text, sites, m));
    }
  }
}

// FNV-1a 64 over every corpus mutant's `check_spec(...).diags.render()`, each
// followed by "1" or "0" for `ok()`, in corpus order. It pins every message,
// location and the emission order of Sema's rules on the inputs Table 2
// measures; a rewrite of a rule must leave it unchanged. The constant was
// recorded with the per-bit-map Sema these rules replaced. Every mutant
// parses, and `Sema::accepts` must give each one `check`'s verdict.
TEST(DevilSema, CorpusMutantDiagnosticsArePinned) {
  Fnv1a64 h;
  size_t total = 0, accepted = 0, verdicts = 0;
  for_each_corpus_mutant(
      [&](const corpus::SpecEntry& spec, const std::string& text) {
        auto r = devil::check_spec(spec.file, text);
        h.feed(r.diags.render());
        h.feed(r.ok() ? "1" : "0");
        if (r.spec) {
          EXPECT_EQ(devil::Sema::accepts(*r.spec), r.ok())
              << spec.name << " mutant " << total;
          ++verdicts;
        }
        ++total;
        accepted += r.ok();
      });
  EXPECT_EQ(total, 16604u);
  EXPECT_EQ(verdicts, total);
  EXPECT_EQ(accepted, 728u);
  EXPECT_EQ(h.h, 0x7a481c4fd6612527ULL);
}

// FNV-1a 64 over what every accepted corpus mutant compiles to:
// `describe_device` and the debug stubs, in corpus order. It pins the
// `DeviceInfo` Sema builds (access, masks, widths, type ids) on the inputs
// Table 2 measures. The constant was recorded with the name-keyed Sema.
TEST(DevilSema, CorpusMutantDeviceInfoIsPinned) {
  Fnv1a64 h;
  size_t accepted = 0;
  for_each_corpus_mutant(
      [&](const corpus::SpecEntry& spec, const std::string& text) {
        auto r = devil::check_spec(spec.file, text);
        if (!r.ok()) return;
        h.feed(devil::describe_device(*r.info));
        h.feed(devil::generate_stubs(*r.info, devil::CodegenMode::kDebug,
                                     spec.file));
        ++accepted;
      });
  EXPECT_EQ(accepted, 728u);
  EXPECT_EQ(h.h, 0x56b7f7ef5f0d124dULL);
}

}  // namespace
