// Property-style sweeps over the whole corpus (parameterised gtest):
//  - every Devil mutant of every spec is still lexable and parseable
//    (§3.1: "mutation rules are always defined such that mutants are
//    syntactically correct");
//  - the Devil compiler never crashes on any mutant, and accepts/rejects
//    deterministically;
//  - every sampled C mutant of both drivers is syntactically valid MiniC.
#include <gtest/gtest.h>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "devil/lexer.h"
#include "devil/parser.h"
#include "minic/lexer.h"
#include "minic/parser.h"
#include "mutation/c_mutator.h"
#include "mutation/devil_mutator.h"
#include "support/rng.h"

namespace {

class SpecSweep : public ::testing::TestWithParam<size_t> {
 protected:
  const corpus::SpecEntry& spec() const {
    return corpus::all_specs()[GetParam()];
  }
};

std::string spec_case_name(const ::testing::TestParamInfo<size_t>& info) {
  static const char* names[] = {"busmouse", "pci", "ide", "ne2000",
                                "permedia2"};
  return names[info.index];
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSweep, ::testing::Range<size_t>(0, 5),
                         spec_case_name);

mutation::DevilNames names_for(const corpus::SpecEntry& spec) {
  auto baseline = devil::check_spec(spec.file, spec.text);
  EXPECT_TRUE(baseline.ok());
  mutation::DevilNames names;
  for (const auto& p : baseline.spec->device.params) {
    names.ports.push_back(p.name);
  }
  for (const auto& r : baseline.spec->device.registers) {
    names.registers.push_back(r.name);
  }
  for (const auto& v : baseline.spec->device.variables) {
    names.variables.push_back(v.name);
  }
  return names;
}

TEST_P(SpecSweep, EveryDevilMutantIsSyntacticallyValid) {
  auto names = names_for(spec());
  auto sites = mutation::scan_devil_sites(spec().text, names);
  auto mutants = mutation::generate_devil_mutants(sites, names);
  ASSERT_FALSE(mutants.empty());
  size_t parse_failures = 0;
  for (const auto& m : mutants) {
    std::string mutated = mutation::apply_mutant(spec().text, sites, m);
    support::DiagnosticEngine diags;
    support::SourceBuffer buf(spec().file, mutated);
    devil::Lexer lexer(buf, diags);
    auto toks = lexer.lex_all();
    if (diags.has_errors()) {
      ++parse_failures;
      continue;
    }
    devil::Parser parser(toks, diags);
    if (!parser.parse()) ++parse_failures;
  }
  EXPECT_EQ(parse_failures, 0u)
      << parse_failures << " of " << mutants.size()
      << " mutants broke the grammar (the error model must not)";
}

TEST_P(SpecSweep, CompilerVerdictIsDeterministic) {
  auto names = names_for(spec());
  auto sites = mutation::scan_devil_sites(spec().text, names);
  auto mutants = mutation::generate_devil_mutants(sites, names);
  // Sample a slice; full determinism is covered by the campaign test.
  auto keep = support::sample_indices(mutants.size(), 5, 7);
  for (size_t ix : keep) {
    std::string mutated =
        mutation::apply_mutant(spec().text, sites, mutants[ix]);
    bool first = devil::check_spec(spec().file, mutated).ok();
    bool second = devil::check_spec(spec().file, mutated).ok();
    EXPECT_EQ(first, second);
  }
}

TEST_P(SpecSweep, SitesHaveConsistentBookkeeping) {
  auto names = names_for(spec());
  auto sites = mutation::scan_devil_sites(spec().text, names);
  ASSERT_FALSE(sites.empty());
  for (const auto& s : sites) {
    ASSERT_LE(s.offset + s.length, spec().text.size());
    EXPECT_EQ(spec().text.substr(s.offset, s.length),
              s.kind == mutation::SiteKind::kLiteral && !s.charset.empty()
                  ? "'" + s.original + "'"
                  : s.original);
    EXPECT_GE(s.line, 1u);
  }
  // Sites are in source order and non-overlapping.
  for (size_t i = 1; i < sites.size(); ++i) {
    EXPECT_GE(sites[i].offset, sites[i - 1].offset + sites[i - 1].length);
  }
}

TEST_P(SpecSweep, StubsIdenticalForIdenticalInput) {
  auto a = devil::compile_spec(spec().file, spec().text,
                               devil::CodegenMode::kDebug);
  auto b = devil::compile_spec(spec().file, spec().text,
                               devil::CodegenMode::kDebug);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.stubs, b.stubs);
}

// ---- C-side sweeps -------------------------------------------------------------

class DriverSweep : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(BothDrivers, DriverSweep, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "cdevil" : "classic_c";
                         });

TEST_P(DriverSweep, SampledMutantsAreSyntacticallyValidMiniC) {
  bool is_cdevil = GetParam();
  std::string stubs;
  if (is_cdevil) {
    auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                    devil::CodegenMode::kDebug);
    ASSERT_TRUE(spec.ok());
    stubs = spec.stubs + "\n";
  }
  const std::string& driver =
      is_cdevil ? corpus::cdevil_ide_driver() : corpus::c_ide_driver();

  mutation::CScanOptions opt;
  opt.classes = is_cdevil
                    ? mutation::classes_for_cdevil_driver(stubs, driver)
                    : mutation::classes_for_c_driver(driver);
  auto sites = mutation::scan_c_sites(driver, opt);
  auto mutants = mutation::generate_c_mutants(sites, opt.classes);
  ASSERT_GT(mutants.size(), 500u);

  auto keep = support::sample_indices(mutants.size(), 10, 11);
  size_t syntax_failures = 0;
  for (size_t ix : keep) {
    std::string unit =
        stubs + mutation::apply_mutant(driver, sites, mutants[ix]);
    support::DiagnosticEngine diags;
    support::SourceBuffer buf("m.c", unit);
    auto lexed = minic::lex_unit(buf, diags);
    if (diags.has_errors()) {
      ++syntax_failures;  // the error model must never break the lexer
      continue;
    }
    minic::Parser parser(std::move(lexed.tokens), diags);
    if (!parser.parse()) ++syntax_failures;
  }
  EXPECT_EQ(syntax_failures, 0u);
}

TEST_P(DriverSweep, MutantSitesAllInsideTaggedRegion) {
  bool is_cdevil = GetParam();
  const std::string& driver =
      is_cdevil ? corpus::cdevil_ide_driver() : corpus::c_ide_driver();
  mutation::CScanOptions opt;
  opt.classes = mutation::classes_for_c_driver(driver);
  auto sites = mutation::scan_c_sites(driver, opt);
  size_t begin = driver.find("MUT_BEGIN");
  size_t end = driver.find("MUT_END");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  for (const auto& s : sites) {
    EXPECT_GT(s.offset, begin);
    EXPECT_LT(s.offset, end);
  }
}

}  // namespace
