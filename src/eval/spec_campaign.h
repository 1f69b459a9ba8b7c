// Table 2 campaign: inject Devil-spec mutants, count how many the Devil
// compiler rejects.
#pragma once

#include <string>
#include <vector>

#include "corpus/specs.h"
#include "devil/parser.h"
#include "devil/sema.h"
#include "devil/token.h"
#include "mutation/site.h"

namespace eval {

struct SpecCampaignRow {
  std::string name;
  int code_lines = 0;        // non-blank, non-comment lines (Table 2 col 1)
  size_t sites = 0;          // mutation sites (col 2)
  size_t mutants = 0;        // injected mutants (col 3)
  size_t detected = 0;       // rejected by the Devil compiler
  /// Mutants that skipped their own check because their token stream equals
  /// an earlier mutant's (`SpecSplicer::key`); their detection flag comes
  /// from that representative. Tallies are unchanged (ctest).
  size_t deduped = 0;
  std::vector<std::string> undetected_samples;  // a few survivors, for study
  /// Mutants whose whole mutated text was lexed because the splice declined
  /// (the rest were spliced). In memory only: no report or reference has it.
  size_t relexed = 0;
  /// Checks that re-parsed only the mutated declaration (the rest parsed
  /// the whole stream; see `SpecSplicer::consistent`). In memory only.
  size_t reparsed = 0;
  /// Re-parsed checks that the changed-declaration pass rejected
  /// (`devil::Sema::rejects_change`); the rest went to the whole-spec
  /// check. In memory only.
  size_t pass_rejected = 0;
  /// Re-parsed checks that the pass let through and the whole-spec check
  /// then rejected: a rule dependency the pass does not follow. In memory
  /// only; 0 on the corpus.
  size_t pass_missed = 0;
};

struct SpecCampaignConfig {
  size_t max_survivor_samples = 8;
  /// Worker threads checking mutants; 0 = hardware_concurrency. Rows are
  /// identical at any thread count (detection flags are written per-index
  /// and reduced in mutant order after the join).
  unsigned threads = 1;
  /// Token-stream dedup, as in `DriverCampaignConfig::dedup`: mutants with
  /// identical streams run the Devil checker once.
  bool dedup = true;
};

/// One specification lexed and parsed once, and every mutant's token stream
/// derived from it. A mutant replaces exactly one token, so its stream is
/// the clean stream with that token swapped for the lexed replacement and
/// the offsets (and same-line columns) after it shifted. The splice is
/// default-deny: it declines, and the whole mutated text is lexed instead,
/// unless the replacement lexes alone to exactly one error-free token and
/// cannot join a neighbour (word char next to word char, `.<=>` next to
/// `.<=>`, or a `/` on either side of the site).
class SpecSplicer {
 public:
  /// Precondition: `spec.text` lexes and parses without errors (throws
  /// std::logic_error otherwise); `sites` were scanned from it. Both must
  /// outlive the splicer.
  SpecSplicer(const corpus::SpecEntry& spec,
              const std::vector<mutation::Site>& sites);
  // The clean index points into the clean AST, so the splicer stays put.
  SpecSplicer(const SpecSplicer&) = delete;
  SpecSplicer& operator=(const SpecSplicer&) = delete;

  /// A mutant's token stream, relative to the clean one.
  struct MutantStream {
    /// Spliced: the clean stream with token `index` replaced by `token`
    /// (already at its position in the mutated text).
    bool spliced = false;
    size_t index = 0;
    devil::Token token;
    /// Declined: the mutated text, its full lex, and whether the lexer
    /// reported errors (then `check_spec` rejects the mutant unparsed).
    std::string text;
    std::vector<devil::Token> relexed;
    bool lex_errors = false;
  };

  [[nodiscard]] MutantStream splice(const mutation::Mutant& m) const;

  /// The whole stream, equal token for token (kind, spelling, value, both
  /// ends' offset/line/column) to lexing `apply_mutant(...)`.
  [[nodiscard]] std::vector<devil::Token> tokens(const MutantStream& s) const;

  /// The canonical dedup key (`canonical_spec_key` in spec_campaign.cc).
  [[nodiscard]] std::string key(const MutantStream& s) const;

  /// The clean stream and AST, which `consistent` changes in place and
  /// restores before it returns, so one copy serves many mutants, and the
  /// changed-declaration pass's working storage. One per thread.
  struct Work {
    std::vector<devil::Token> tokens;
    devil::Specification spec;
    devil::CheckScratch scratch;
  };
  [[nodiscard]] Work work() const { return {clean_, clean_spec_, {}}; }

  /// How `consistent` reached its verdict.
  enum class Path : uint8_t {
    kWholeStream,   // parsed the whole stream, then the whole-spec check
    kReparsed,      // re-parsed one declaration, then the whole-spec check
    kPassRejected,  // re-parsed one declaration, and the pass rejected it
  };

  /// `check_spec(file, apply_mutant(...)).ok()`, without lexing a spliced
  /// mutant, and for most without parsing the whole stream either: the one
  /// declaration that holds the spliced token is parsed again and swapped
  /// into `work.spec` (`devil::Parser::reparse`). That is exact because the
  /// tokens outside the declaration are the clean ones and no Sema rule
  /// reads a location, so the declaration's unshifted locations cannot
  /// change the verdict. Default-deny: a token outside every declaration, a
  /// re-parse error, or a declaration that ends at another token parses the
  /// whole spliced stream instead. A re-parsed mutant first meets the
  /// reject-only pass over the rule instances that read its declaration
  /// (`devil::Sema::rejects_change`, through the clean index); when that
  /// rejects nothing, and on every other path, the whole-spec check
  /// decides (`devil::Sema::accepts`), so only it ever accepts. Sets
  /// `*path` to the path taken.
  [[nodiscard]] bool consistent(const MutantStream& s, Work& work,
                                Path* path = nullptr) const;

 private:
  const corpus::SpecEntry& spec_;
  const std::vector<mutation::Site>& sites_;
  std::vector<devil::Token> clean_;
  devil::Specification clean_spec_;
  devil::CleanIndex index_;             // of clean_spec_
  std::vector<devil::DeclSpan> decls_;  // the clean parse's, in token order
  std::vector<size_t> site_token_;  // per site: its token's index, or npos
};

/// Runs the full (unsampled) mutation campaign over one specification.
/// Precondition: the unmutated spec must pass the Devil compiler; throws
/// std::logic_error otherwise (that is a corpus bug, not a result).
[[nodiscard]] SpecCampaignRow run_spec_campaign(
    const corpus::SpecEntry& spec, const SpecCampaignConfig& config);

/// Convenience overload keeping the original signature.
[[nodiscard]] SpecCampaignRow run_spec_campaign(const corpus::SpecEntry& spec,
                                                size_t max_survivor_samples = 8);

/// All five Table 2 rows.
[[nodiscard]] std::vector<SpecCampaignRow> run_all_spec_campaigns(
    unsigned threads = 1);

}  // namespace eval
