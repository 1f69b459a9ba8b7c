#include "eval/spec_campaign.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "devil/compiler.h"
#include "devil/lexer.h"
#include "mutation/devil_mutator.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace eval {

namespace {

using devil::Token;

constexpr size_t kNone = static_cast<size_t>(-1);

mutation::DevilNames names_from(const devil::DeviceInfo& info) {
  mutation::DevilNames names;
  for (const auto& p : info.decl->params) names.ports.push_back(p.name);
  for (const auto& r : info.decl->registers) names.registers.push_back(r.name);
  for (const auto& v : info.decl->variables) names.variables.push_back(v.name);
  return names;
}

std::vector<Token> lex(const std::string& file, const std::string& text,
                       bool* errors) {
  support::DiagnosticEngine diags;
  support::SourceBuffer buf(file, text);
  std::vector<Token> tokens = devil::Lexer(buf, diags).lex_all();
  *errors = diags.has_errors();
  return tokens;
}

/// Parse and Sema's verdict over a lexed, error-free stream.
bool parses_and_accepts(std::span<const Token> tokens) {
  support::DiagnosticEngine diags;
  std::optional<devil::Specification> spec =
      devil::Parser(tokens, diags).parse();
  return spec && devil::Sema::accepts(*spec);
}

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_arrow_or_dot(char c) {
  return c == '.' || c == '<' || c == '=' || c == '>';
}

/// Whether `left` directly followed by `right` might lex differently from
/// the two apart: one token's maximal munch could swallow the other's
/// character, or a comment could open. Conservative by design.
bool may_join(char left, char right) {
  return (is_word(left) && is_word(right)) ||
         (is_arrow_or_dot(left) && is_arrow_or_dot(right)) || left == '/' ||
         right == '/';
}

/// Puts a spliced mutant's token into `tokens` (a copy of `clean`), or the
/// clean token back when `undo`, and moves every later location by the
/// length difference: offsets always, columns only on the spliced line
/// (replacements hold no newline).
void apply_splice(std::vector<Token>& tokens, const std::vector<Token>& clean,
                  const SpecSplicer::MutantStream& s, bool undo) {
  const Token& original = clean[s.index];
  int64_t delta =
      int64_t{s.token.range.size()} - int64_t{original.range.size()};
  if (undo) delta = -delta;
  const uint32_t line = original.range.begin.line;
  tokens[s.index] = undo ? original : s.token;
  for (size_t i = s.index + 1; i < tokens.size(); ++i) {
    for (support::SourceLoc* loc :
         {&tokens[i].range.begin, &tokens[i].range.end}) {
      loc->offset = static_cast<uint32_t>(loc->offset + delta);
      if (loc->line == line) {
        loc->column = static_cast<uint32_t>(loc->column + delta);
      }
    }
  }
}

/// The dedup relation on tokens: kind, line, and an integer's value or any
/// other token's spelling.
bool same_token(const Token& a, const Token& b) {
  return a.kind == b.kind && a.range.begin.line == b.range.begin.line &&
         (a.kind == devil::TokKind::kInt ? a.int_value == b.int_value
                                         : a.text == b.text);
}

void append_u64(std::string& key, uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  key.append(bytes, sizeof v);
}

void append_token(std::string& key, const Token& t) {
  key.push_back(static_cast<char>(t.kind));
  append_u64(key, t.range.begin.line);
  if (t.kind == devil::TokKind::kInt) {
    append_u64(key, t.int_value);
  } else {
    key.append(t.text);  // never holds '\0'
    key.push_back('\0');
  }
}

/// Canonical key of a mutated specification: two mutants share it iff their
/// lexed streams are equal under `same_token` (so `check_spec` treats them
/// alike), or, for unlexable texts, iff the texts are byte-identical. A
/// stream is keyed by its diff against the clean stream: the common prefix
/// length, how many clean tokens follow it before the longest common suffix
/// (which may not overlap the prefix), and the tokens that replace them.
/// That decomposition is unique, so a splice keys O(1)-sized as (its token
/// index, 1, its token), and a declined mutant with an equal stream keys
/// the same. The clean stream itself keys as "".
std::string canonical_spec_key(const std::vector<Token>& clean,
                               const SpecSplicer::MutantStream& s) {
  if (s.lex_errors) return "!" + s.text;
  std::string key;
  size_t p, replaced;
  std::span<const Token> middle;
  if (s.spliced) {
    if (same_token(s.token, clean[s.index])) return key;
    p = s.index;
    replaced = 1;
    middle = {&s.token, 1};
  } else {
    const std::vector<Token>& t = s.relexed;
    p = 0;
    while (p < t.size() && p < clean.size() && same_token(t[p], clean[p])) ++p;
    if (p == t.size() && p == clean.size()) return key;
    size_t q = 0;  // common suffix
    while (q < t.size() - p && q < clean.size() - p &&
           same_token(t[t.size() - 1 - q], clean[clean.size() - 1 - q])) {
      ++q;
    }
    replaced = clean.size() - p - q;
    middle = std::span<const Token>(t).subspan(p, t.size() - p - q);
  }
  key.push_back('=');
  append_u64(key, p);
  append_u64(key, replaced);
  for (const Token& t : middle) append_token(key, t);
  return key;
}

}  // namespace

SpecSplicer::SpecSplicer(const corpus::SpecEntry& spec,
                         const std::vector<mutation::Site>& sites)
    : spec_(spec), sites_(sites) {
  bool errors = false;
  clean_ = lex(spec.file, spec.text, &errors);
  if (errors) {
    throw std::logic_error("spec '" + spec.name + "' does not lex");
  }
  support::DiagnosticEngine diags;
  devil::Parser parser(clean_, diags);
  std::optional<devil::Specification> parsed = parser.parse();
  if (!parsed) {
    throw std::logic_error("spec '" + spec.name + "' does not parse");
  }
  clean_spec_ = std::move(*parsed);
  index_ = devil::CleanIndex(clean_spec_);
  decls_ = parser.decl_spans();
  site_token_.reserve(sites.size());
  for (const mutation::Site& site : sites) {
    auto it = std::lower_bound(
        clean_.begin(), clean_.end(), site.offset,
        [](const Token& t, size_t off) { return t.range.begin.offset < off; });
    bool found = it != clean_.end() && it->range.begin.offset == site.offset &&
                 it->range.size() == site.length;
    site_token_.push_back(found ? static_cast<size_t>(it - clean_.begin())
                                : kNone);
  }
}

SpecSplicer::MutantStream SpecSplicer::splice(const mutation::Mutant& m) const {
  const mutation::Site& site = sites_[m.site];
  const std::string& rep = m.replacement;
  MutantStream s;
  if (size_t k = site_token_[m.site]; k != kNone) {
    bool errors = false;
    std::vector<Token> alone = lex(spec_.file, rep, &errors);
    size_t end = site.offset + site.length;
    char before = site.offset > 0 ? spec_.text[site.offset - 1] : ' ';
    char after = end < spec_.text.size() ? spec_.text[end] : ' ';
    if (!errors && alone.size() == 2 && alone[0].range.begin.offset == 0 &&
        alone[0].range.end.offset == rep.size() &&
        !may_join(before, rep.front()) && !may_join(rep.back(), after)) {
      const support::SourceLoc& at = clean_[k].range.begin;
      const auto len = static_cast<uint32_t>(rep.size());
      s.spliced = true;
      s.index = k;
      s.token = std::move(alone[0]);
      s.token.range = {at, {at.offset + len, at.line, at.column + len}};
      return s;
    }
  }
  s.text = mutation::apply_mutant(spec_.text, sites_, m);
  s.relexed = lex(spec_.file, s.text, &s.lex_errors);
  return s;
}

std::vector<Token> SpecSplicer::tokens(const MutantStream& s) const {
  if (!s.spliced) return s.relexed;
  std::vector<Token> out = clean_;
  apply_splice(out, clean_, s, /*undo=*/false);
  return out;
}

std::string SpecSplicer::key(const MutantStream& s) const {
  return canonical_spec_key(clean_, s);
}

bool SpecSplicer::consistent(const MutantStream& s, Work& work,
                             Path* path) const {
  if (path) *path = Path::kWholeStream;
  if (!s.spliced) return !s.lex_errors && parses_and_accepts(s.relexed);
  auto next = std::upper_bound(
      decls_.begin(), decls_.end(), s.index,
      [](size_t k, const devil::DeclSpan& d) { return k < d.begin; });
  if (next != decls_.begin() && s.index < std::prev(next)->end) {
    const devil::DeclSpan& span = *std::prev(next);
    support::DiagnosticEngine diags;
    devil::DeviceDecl fresh;
    work.tokens[s.index] = s.token;
    bool same_shape = devil::Parser(work.tokens, diags).reparse(span, fresh);
    work.tokens[s.index] = clean_[s.index];
    if (same_shape) {
      devil::DeviceDecl& dev = work.spec.device;
      auto swap_in = [&] {
        using Kind = devil::DeclSpan::Kind;
        if (span.kind == Kind::kPort) {
          std::swap(dev.params[span.index], fresh.params[0]);
        } else if (span.kind == Kind::kRegister) {
          std::swap(dev.registers[span.index], fresh.registers[0]);
        } else {
          std::swap(dev.variables[span.index], fresh.variables[0]);
        }
      };
      swap_in();
      bool rejected =
          devil::Sema::rejects_change(index_, work.spec, span, work.scratch);
      bool ok = !rejected && devil::Sema::accepts(work.spec);
      swap_in();  // the clean declaration back
      if (path) *path = rejected ? Path::kPassRejected : Path::kReparsed;
      return ok;
    }
  }
  apply_splice(work.tokens, clean_, s, /*undo=*/false);
  bool ok = parses_and_accepts(work.tokens);
  apply_splice(work.tokens, clean_, s, /*undo=*/true);
  return ok;
}

SpecCampaignRow run_spec_campaign(const corpus::SpecEntry& spec,
                                  const SpecCampaignConfig& config) {
  auto baseline = devil::check_spec(spec.file, spec.text);
  if (!baseline.ok()) {
    throw std::logic_error("unmutated spec '" + spec.name +
                           "' fails the Devil compiler:\n" +
                           baseline.diags.render());
  }

  SpecCampaignRow row;
  row.name = spec.name;
  row.code_lines = support::count_code_lines(spec.text);

  mutation::DevilNames names = names_from(*baseline.info);
  auto sites = mutation::scan_devil_sites(spec.text, names);
  auto mutants = mutation::generate_devil_mutants(sites, names);
  row.sites = sites.size();
  row.mutants = mutants.size();
  SpecSplicer splicer(spec, sites);

  // Every mutant is spliced once, in parallel (per-index writes only), and
  // the check pass reads the kept stream.
  std::vector<SpecSplicer::MutantStream> streams(mutants.size());
  std::vector<uint8_t> relexed(mutants.size(), 0);
  std::vector<std::string> keys(config.dedup ? mutants.size() : 0);
  support::parallel_for(mutants.size(), config.threads, [&](size_t i) {
    SpecSplicer::MutantStream s = splicer.splice(mutants[i]);
    relexed[i] = !s.spliced;
    if (config.dedup) keys[i] = splicer.key(s);
    streams[i] = std::move(s);
  });

  // Canonical dedup. Unlike the driver campaign's, which only labels
  // records, this one skips work: a splice keys in O(1), so every duplicate
  // saves its check for free. The first-seen mapping is built sequentially
  // from the keys, so it is deterministic at any thread count.
  std::vector<size_t> dup_of(mutants.size(), kNone);
  if (config.dedup) {
    std::unordered_map<std::string, size_t> first_seen;
    first_seen.reserve(mutants.size());
    for (size_t i = 0; i < mutants.size(); ++i) {
      auto [it, inserted] = first_seen.emplace(std::move(keys[i]), i);
      if (!inserted) {
        dup_of[i] = it->second;
        ++row.deduped;
      }
    }
  }

  // Parallel map over the unique mutants: one flag per mutant, written only
  // by its own worker. The order-sensitive reduction (detected count,
  // first-N survivors) runs after the join, so any thread count yields the
  // identical row. Duplicates take the representative's flag — detection is
  // site-independent, unlike the driver campaign's dead-code split. Each
  // batch checks its mutants on one working copy of the clean stream.
  std::vector<size_t> unique_ix;
  unique_ix.reserve(mutants.size());
  for (size_t i = 0; i < mutants.size(); ++i) {
    if (dup_of[i] == kNone) unique_ix.push_back(i);
  }
  constexpr size_t kBatch = 64;
  using Path = SpecSplicer::Path;
  std::vector<uint8_t> detected(mutants.size(), 0);
  std::vector<Path> paths(mutants.size(), Path::kWholeStream);
  support::parallel_for(
      (unique_ix.size() + kBatch - 1) / kBatch, config.threads, [&](size_t b) {
        SpecSplicer::Work work = splicer.work();
        size_t end = std::min(unique_ix.size(), (b + 1) * kBatch);
        for (size_t u = b * kBatch; u < end; ++u) {
          size_t i = unique_ix[u];
          detected[i] = splicer.consistent(streams[i], work, &paths[i]) ? 0 : 1;
        }
      });
  for (size_t i : unique_ix) {
    row.reparsed += paths[i] != Path::kWholeStream;
    row.pass_rejected += paths[i] == Path::kPassRejected;
    row.pass_missed += paths[i] == Path::kReparsed && detected[i];
  }
  for (size_t i = 0; i < mutants.size(); ++i) {
    if (dup_of[i] != kNone) detected[i] = detected[dup_of[i]];
  }
  for (size_t i = 0; i < mutants.size(); ++i) {
    if (detected[i]) {
      ++row.detected;
    } else if (row.undetected_samples.size() < config.max_survivor_samples) {
      const auto& s = sites[mutants[i].site];
      row.undetected_samples.push_back(
          "line " + std::to_string(s.line) + ": '" + s.original + "' -> '" +
          mutants[i].replacement + "'");
    }
  }
  row.relexed = static_cast<size_t>(
      std::count(relexed.begin(), relexed.end(), uint8_t{1}));
  return row;
}

SpecCampaignRow run_spec_campaign(const corpus::SpecEntry& spec,
                                  size_t max_survivor_samples) {
  SpecCampaignConfig config;
  config.max_survivor_samples = max_survivor_samples;
  return run_spec_campaign(spec, config);
}

std::vector<SpecCampaignRow> run_all_spec_campaigns(unsigned threads) {
  SpecCampaignConfig config;
  config.threads = threads;
  std::vector<SpecCampaignRow> rows;
  for (const auto& spec : corpus::all_specs()) {
    rows.push_back(run_spec_campaign(spec, config));
  }
  return rows;
}

}  // namespace eval
