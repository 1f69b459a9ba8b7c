// Differential suite for the Table 2 token splice (eval::SpecSplicer).
//
// The campaign never lexes a spliced mutant: it swaps the replacement token
// into the clean stream. That stream must be exactly what lexing the
// mutated text yields — every token's kind, spelling, value and both ends'
// offset, line and column — and the dedup key must relate two mutants iff
// their full streams are equal (the relation a full-stream key gives). The
// verdict, which re-parses only the declaration holding the spliced token,
// must be `check_spec`'s, and the changed-declaration pass must reject
// exactly the mutants `check_spec` rejects. Every mutant of all five corpus
// specs is checked, plus a sample of second-order mutants (two tokens in one
// declaration), handcrafted replacements the splice must decline (and then
// give the same result by re-lexing) and spliced mutants the re-parse must
// decline (and then give the same result by parsing the whole stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "corpus/specs.h"
#include "devil/compiler.h"
#include "devil/lexer.h"
#include "devil/parser.h"
#include "eval/spec_campaign.h"
#include "mutation/devil_mutator.h"

namespace {

using devil::Token;
using eval::SpecSplicer;

struct Lexed {
  std::vector<Token> tokens;
  bool errors = false;
};

Lexed lex_text(const corpus::SpecEntry& spec, const std::string& text) {
  support::DiagnosticEngine diags;
  support::SourceBuffer buf(spec.file, text);
  Lexed out;
  out.tokens = devil::Lexer(buf, diags).lex_all();
  out.errors = diags.has_errors();
  return out;
}

std::string describe(const Token& t) {
  const support::SourceRange& r = t.range;
  return std::string(devil::tok_kind_name(t.kind)) + " '" + t.text + "' = " +
         std::to_string(t.int_value) + " at " +
         std::to_string(r.begin.offset) + "/" + std::to_string(r.begin.line) +
         ":" + std::to_string(r.begin.column) + ".." +
         std::to_string(r.end.offset) + "/" + std::to_string(r.end.line) +
         ":" + std::to_string(r.end.column);
}

/// Token for token: kind, spelling, value, and both ends' offset, line and
/// column.
void expect_same_stream(const std::vector<Token>& spliced,
                        const std::vector<Token>& full,
                        const std::string& label) {
  ASSERT_EQ(spliced.size(), full.size()) << label;
  for (size_t i = 0; i < full.size(); ++i) {
    const Token& a = spliced[i];
    const Token& b = full[i];
    if (a.kind != b.kind || a.text != b.text || a.int_value != b.int_value ||
        a.range.begin != b.range.begin || a.range.end != b.range.end) {
      ADD_FAILURE() << label << " token " << i << ": spliced " << describe(a)
                    << ", lexed " << describe(b);
      return;
    }
  }
}

/// The full-stream key the campaign used before the splice: kind, line and
/// integer value or spelling of every token; unlexable texts by their bytes.
std::string full_stream_key(const Lexed& lexed, const std::string& text) {
  if (lexed.errors) return "!" + text;
  std::string key;
  for (const Token& t : lexed.tokens) {
    key.push_back(static_cast<char>(t.kind));
    uint32_t line = t.range.begin.line;
    key.append(reinterpret_cast<const char*>(&line), sizeof line);
    if (t.kind == devil::TokKind::kInt) {
      key.append(reinterpret_cast<const char*>(&t.int_value),
                 sizeof t.int_value);
    } else {
      key.append(t.text);
      key.push_back('\0');
    }
  }
  return key;
}

/// For each index, the first index with an equal key: two keyings induce
/// the same equivalence iff these vectors are equal.
std::vector<size_t> first_with_same_key(const std::vector<std::string>& keys) {
  std::unordered_map<std::string, size_t> first;
  std::vector<size_t> out;
  for (size_t i = 0; i < keys.size(); ++i) {
    out.push_back(first.emplace(keys[i], i).first->second);
  }
  return out;
}

mutation::DevilNames names_for(const corpus::SpecEntry& spec) {
  auto baseline = devil::check_spec(spec.file, spec.text);
  EXPECT_TRUE(baseline.ok()) << baseline.diags.render();
  mutation::DevilNames names;
  for (const auto& p : baseline.spec->device.params) names.ports.push_back(p.name);
  for (const auto& r : baseline.spec->device.registers) {
    names.registers.push_back(r.name);
  }
  for (const auto& v : baseline.spec->device.variables) {
    names.variables.push_back(v.name);
  }
  return names;
}

class SpecSplice : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    names_ = names_for(spec());
    sites_ = mutation::scan_devil_sites(spec().text, names_);
    mutants_ = mutation::generate_devil_mutants(sites_, names_);
    ASSERT_FALSE(mutants_.empty());
  }
  const corpus::SpecEntry& spec() const {
    return corpus::all_specs()[GetParam()];
  }
  std::string label(size_t i) const {
    const mutation::Site& s = sites_[mutants_[i].site];
    return spec().name + " mutant " + std::to_string(i) + " line " +
           std::to_string(s.line) + ": '" + s.original + "' -> '" +
           mutants_[i].replacement + "'";
  }

  mutation::DevilNames names_;
  std::vector<mutation::Site> sites_;
  std::vector<mutation::Mutant> mutants_;
};

std::string spec_case_name(const ::testing::TestParamInfo<size_t>& info) {
  static const char* names[] = {"busmouse", "pci", "ide", "ne2000",
                                "permedia2"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecSplice, ::testing::Range<size_t>(0, 5),
                         spec_case_name);

TEST_P(SpecSplice, EveryMutantSplicesToItsFullLex) {
  SpecSplicer splicer(spec(), sites_);
  for (size_t i = 0; i < mutants_.size(); ++i) {
    SpecSplicer::MutantStream s = splicer.splice(mutants_[i]);
    ASSERT_TRUE(s.spliced) << label(i) << " was re-lexed";
    Lexed full = lex_text(
        spec(), mutation::apply_mutant(spec().text, sites_, mutants_[i]));
    ASSERT_FALSE(full.errors) << label(i);
    expect_same_stream(splicer.tokens(s), full.tokens, label(i));
    if (HasFailure()) return;  // one diverging mutant is enough to report
  }
}

TEST_P(SpecSplice, KeysShareIffFullStreamsEqual) {
  SpecSplicer splicer(spec(), sites_);
  std::vector<std::string> keys, full_keys;
  for (const mutation::Mutant& m : mutants_) {
    keys.push_back(splicer.key(splicer.splice(m)));
    std::string text = mutation::apply_mutant(spec().text, sites_, m);
    full_keys.push_back(full_stream_key(lex_text(spec(), text), text));
  }
  std::vector<size_t> by_key = first_with_same_key(keys);
  EXPECT_EQ(by_key, first_with_same_key(full_keys));
  // Dedup must have something to do on every corpus spec.
  size_t shared = 0;
  for (size_t i = 0; i < by_key.size(); ++i) shared += by_key[i] != i;
  EXPECT_GT(shared, 0u);
}

TEST_P(SpecSplice, CheckMatchesCheckSpecOnEveryMutant) {
  SpecSplicer splicer(spec(), sites_);
  SpecSplicer::Work work = splicer.work();
  size_t reparsed = 0;
  for (size_t i = 0; i < mutants_.size(); ++i) {
    SpecSplicer::MutantStream s = splicer.splice(mutants_[i]);
    bool ok = devil::check_spec(
                  spec().file,
                  mutation::apply_mutant(spec().text, sites_, mutants_[i]))
                  .ok();
    SpecSplicer::Path path = SpecSplicer::Path::kWholeStream;
    EXPECT_EQ(splicer.consistent(s, work, &path), ok) << label(i);
    reparsed += path != SpecSplicer::Path::kWholeStream;
    // The changed-declaration pass follows every dependency the corpus
    // exercises: it rejects exactly the mutants `check_spec` rejects.
    EXPECT_EQ(path == SpecSplicer::Path::kPassRejected, !ok) << label(i);
  }
  // Every corpus mutant is decided by re-parsing its one declaration.
  EXPECT_EQ(reparsed, mutants_.size());
  // The working copy comes back clean after every check.
  SpecSplicer::Work clean = splicer.work();
  expect_same_stream(work.tokens, clean.tokens, spec().name + " work stream");
  EXPECT_TRUE(work.spec == clean.spec) << spec().name << " work AST";
}

// Second-order mutants: two corpus mutants at different sites inside one
// declaration, both spliced into the clean stream and that declaration
// re-parsed, as the campaign checks a first-order mutant. The campaign's
// verdict (the pass, then the whole-spec check) must be `check_spec`'s,
// and the pass may reject only what `check_spec` rejects. All pairs take
// over a minute in a Release build, so a fixed stride samples them.
TEST_P(SpecSplice, SecondOrderMutantsMatchCheckSpec) {
  constexpr size_t kStride = 34;  // about 20,000 of the 684,057 pairs
  SpecSplicer splicer(spec(), sites_);
  SpecSplicer::Work work = splicer.work();
  support::DiagnosticEngine diags;
  devil::Parser parser(work.tokens, diags);
  ASSERT_TRUE(parser.parse());
  const std::vector<devil::DeclSpan> decls = parser.decl_spans();
  const std::vector<Token> clean_tokens = work.tokens;
  const devil::Specification clean_spec = work.spec;
  const devil::CleanIndex index(clean_spec);

  // Per declaration, its mutants in corpus order.
  std::vector<std::vector<size_t>> in_decl(decls.size());
  std::vector<SpecSplicer::MutantStream> streams;
  for (size_t i = 0; i < mutants_.size(); ++i) {
    streams.push_back(splicer.splice(mutants_[i]));
    ASSERT_TRUE(streams.back().spliced) << label(i);
    for (size_t d = 0; d < decls.size(); ++d) {
      if (streams[i].index >= decls[d].begin &&
          streams[i].index < decls[d].end) {
        in_decl[d].push_back(i);
      }
    }
  }

  size_t pairs = 0, checked = 0, rejected_by_pass = 0;
  for (size_t d = 0; d < decls.size(); ++d) {
    for (size_t x = 0; x < in_decl[d].size(); ++x) {
      for (size_t y = x + 1; y < in_decl[d].size(); ++y) {
        const size_t a = in_decl[d][x], b = in_decl[d][y];
        if (mutants_[a].site == mutants_[b].site) continue;
        if (pairs++ % kStride != 0) continue;
        // Apply the later site first so the earlier one's offset holds.
        const bool a_first = sites_[mutants_[a].site].offset <
                             sites_[mutants_[b].site].offset;
        const mutation::Mutant& later = mutants_[a_first ? b : a];
        const mutation::Mutant& earlier = mutants_[a_first ? a : b];
        const std::string text = mutation::apply_mutant(
            mutation::apply_mutant(spec().text, sites_, later), sites_,
            earlier);
        const bool ok = devil::check_spec(spec().file, text).ok();

        // Both tokens into the working stream, the declaration re-parsed
        // and swapped into the working AST, and both put back afterwards.
        for (size_t m : {a, b}) work.tokens[streams[m].index] = streams[m].token;
        devil::DeviceDecl fresh;
        const bool same_shape =
            devil::Parser(work.tokens, diags).reparse(decls[d], fresh);
        for (size_t m : {a, b}) {
          work.tokens[streams[m].index] = clean_tokens[streams[m].index];
        }
        if (!same_shape) continue;
        auto swap_in = [&] {
          devil::DeviceDecl& dev = work.spec.device;
          const size_t i = decls[d].index;
          switch (decls[d].kind) {
            case devil::DeclSpan::Kind::kPort:
              std::swap(dev.params[i], fresh.params[0]);
              break;
            case devil::DeclSpan::Kind::kRegister:
              std::swap(dev.registers[i], fresh.registers[0]);
              break;
            case devil::DeclSpan::Kind::kVariable:
              std::swap(dev.variables[i], fresh.variables[0]);
              break;
          }
        };
        swap_in();
        const bool rejected = devil::Sema::rejects_change(
            index, work.spec, decls[d], work.scratch);
        const bool accepted = !rejected && devil::Sema::accepts(work.spec);
        swap_in();
        const std::string what = label(a) + " with " + label(b);
        if (rejected) {
          EXPECT_FALSE(ok) << what;
        }
        EXPECT_EQ(accepted, ok) << what;
        ++checked;
        rejected_by_pass += rejected;
      }
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(rejected_by_pass, 0u);
  EXPECT_TRUE(work.spec == clean_spec) << spec().name << " work AST";
}

// ---------------------------------------------------------------------------
// Replacements the splice must decline. Each re-lexes the whole text and so
// gives the same stream, verdict and key class as `check_spec` would.
// ---------------------------------------------------------------------------

class SpecSpliceDecline : public ::testing::Test {
 protected:
  const corpus::SpecEntry& spec() const { return spec_; }

  /// A site over `len` bytes at `pos` of the first `context` in the spec.
  size_t add_site(const std::string& context, size_t pos, size_t len) {
    size_t at = spec().text.find(context);
    EXPECT_NE(at, std::string::npos) << context;
    at += pos;
    mutation::Site s;
    s.offset = at;
    s.length = len;
    s.line = static_cast<uint32_t>(
        1 + std::count(spec().text.begin(), spec().text.begin() + at, '\n'));
    s.original = spec().text.substr(at, len);
    sites_.push_back(s);
    return sites_.size() - 1;
  }

  /// Checks that `m` is declined and behaves exactly like the full path.
  SpecSplicer::MutantStream expect_declined(const mutation::Mutant& m) {
    SpecSplicer splicer(spec(), sites_);
    SpecSplicer::MutantStream s = splicer.splice(m);
    EXPECT_FALSE(s.spliced) << m.replacement;
    std::string text = mutation::apply_mutant(spec().text, sites_, m);
    Lexed full = lex_text(spec(), text);
    EXPECT_EQ(s.lex_errors, full.errors) << m.replacement;
    expect_same_stream(splicer.tokens(s), full.tokens, m.replacement);
    SpecSplicer::Work work = splicer.work();
    EXPECT_EQ(splicer.consistent(s, work),
              devil::check_spec(spec().file, text).ok())
        << m.replacement;
    return s;
  }

  /// Checks that `m` is spliced, but checked by parsing the whole spliced
  /// stream (the re-parse declined) with `check_spec`'s verdict, and that
  /// the working copy comes back clean.
  void expect_full_parse(const mutation::Mutant& m) {
    SpecSplicer splicer(spec(), sites_);
    SpecSplicer::MutantStream s = splicer.splice(m);
    ASSERT_TRUE(s.spliced) << m.replacement;
    std::string text = mutation::apply_mutant(spec().text, sites_, m);
    SpecSplicer::Work work = splicer.work();
    SpecSplicer::Path path = SpecSplicer::Path::kPassRejected;
    EXPECT_EQ(splicer.consistent(s, work, &path),
              devil::check_spec(spec().file, text).ok())
        << m.replacement;
    EXPECT_EQ(path, SpecSplicer::Path::kWholeStream) << m.replacement;
    SpecSplicer::Work clean = splicer.work();
    expect_same_stream(work.tokens, clean.tokens, "work stream");
    EXPECT_TRUE(work.spec == clean.spec) << m.replacement;
  }

  corpus::SpecEntry spec_ = corpus::all_specs()[0];
  std::vector<mutation::Site> sites_;
};

TEST_F(SpecSpliceDecline, TwoTokenReplacement) {
  expect_declined({add_site("bit[8]", 4, 1), "8 8"});
}

TEST_F(SpecSpliceDecline, UnlexableReplacement) {
  size_t site = add_site("'1001000.'", 0, 10);
  SpecSplicer::MutantStream s = expect_declined({site, "'10a1000.'"});
  EXPECT_TRUE(s.lex_errors);
}

TEST_F(SpecSpliceDecline, JoinWithNeighbouringIdentifierChars) {
  // `{0..3}` with `..` -> `x` reads as the hex literal `0x3`.
  SpecSplicer::MutantStream s = expect_declined({add_site("{0..3}", 2, 2), "x"});
  ASSERT_FALSE(s.lex_errors);
  EXPECT_TRUE(std::any_of(s.relexed.begin(), s.relexed.end(), [](const Token& t) {
    return t.kind == devil::TokKind::kInt && t.text == "0x3";
  }));
  // `x_high[3..0]` with `[` -> `_lo` extends the identifier to `x_high_lo3`.
  expect_declined({add_site("x_high[3..0]", 6, 1), "_lo"});
}

TEST_F(SpecSpliceDecline, JoinWithNeighbouringDotDot) {
  size_t zero = add_site("{0..3}", 1, 1);
  expect_declined({zero, ".."});
  expect_declined({zero, "<="});
}

TEST_F(SpecSpliceDecline, DeclinedStreamSharesTheSplicedKey) {
  // A leading blank is not one token alone, so " 16" is re-lexed; its
  // stream still equals the spliced "16"'s, so both key alike.
  size_t site = add_site("bit[8]", 4, 1);
  SpecSplicer::MutantStream declined = expect_declined({site, " 16"});
  SpecSplicer splicer(spec(), sites_);
  SpecSplicer::MutantStream spliced = splicer.splice({site, "16"});
  ASSERT_TRUE(spliced.spliced);
  EXPECT_EQ(splicer.key(declined), splicer.key(spliced));
  EXPECT_NE(splicer.key(spliced), splicer.key(splicer.splice({site, "17"})));
  // A replacement equal to the original keys as the clean stream.
  EXPECT_EQ(splicer.key(splicer.splice({site, "8"})), "");
}

// ---------------------------------------------------------------------------
// Spliced mutants the re-parse must decline. Each parses the whole spliced
// stream and so gives `check_spec`'s verdict. Last, one the re-parse takes
// but the changed-declaration pass must leave to the whole-spec check.
// ---------------------------------------------------------------------------

TEST_F(SpecSpliceDecline, SpliceOutsideEveryDeclaration) {
  // The device name belongs to no declaration.
  expect_full_parse({add_site("logitech_busmouse", 0, 17), "mouse"});
  // Nor does the comma between two port parameters.
  spec_ = corpus::all_specs()[1];
  ASSERT_NE(spec_.text.find("{0..0},"), std::string::npos);
  expect_full_parse({add_site("{0..0},", 6, 1), ";"});
}

TEST_F(SpecSpliceDecline, ReplacementBreaksTheDeclaration) {
  expect_full_parse({add_site("base @ 1", 7, 1), ";"});
  expect_full_parse({add_site("register sig_reg", 0, 8), "variable"});
}

TEST_F(SpecSpliceDecline, DeclarationEndsAtAnotherToken) {
  // `,` -> `}` in a port's offset set closes the port parameter early.
  spec_.text =
      "device d (p : bit[8] port @ {0, 2})\n{\n"
      "  register r = p @ 0 : bit[8];\n  register s = p @ 2 : bit[8];\n"
      "  variable v = r : int(8);\n  variable w = s : int(8);\n}\n";
  ASSERT_TRUE(devil::check_spec(spec_.file, spec_.text).ok());
  expect_full_parse({add_site("{0, 2}", 2, 1), "}"});
}

TEST_F(SpecSpliceDecline, RenamedDeclarationIsCheckedWhole) {
  // A re-parsed declaration that changed its name leaves a fragment naming
  // nothing (DVL121). The pass decides only for unchanged names, so the
  // whole-spec check rejects it.
  const mutation::Mutant m{add_site("register sig_reg", 9, 7), "sig_rex"};
  SpecSplicer splicer(spec(), sites_);
  SpecSplicer::MutantStream s = splicer.splice(m);
  ASSERT_TRUE(s.spliced);
  auto full = devil::check_spec(
      spec().file, mutation::apply_mutant(spec().text, sites_, m));
  EXPECT_TRUE(full.diags.has_code("DVL121")) << full.diags.render();
  SpecSplicer::Work work = splicer.work();
  SpecSplicer::Path path = SpecSplicer::Path::kWholeStream;
  EXPECT_FALSE(splicer.consistent(s, work, &path));
  EXPECT_EQ(path, SpecSplicer::Path::kReparsed);
}

}  // namespace
