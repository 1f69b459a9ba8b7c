// Mutation model shared by the Devil and C mutation operators (paper §3).
//
// A *site* is a token of the original source at which the error model can
// inject a typo; a *mutant* is one concrete replacement at one site. Mutants
// store only the replacement text — the campaign splices them into the
// source on demand, so enumerating tens of thousands of mutants stays cheap.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mutation {

/// Stable identity of a site for one scanned source: its index in the
/// scanner's site vector. The campaign engine threads these through the
/// MiniC front end (as minic::SiteSpan token provenance) so the bytecode
/// compiler can map each site to the patch points it lowered to.
using SiteId = uint32_t;

enum class SiteKind { kLiteral, kOperator, kIdentifier };

struct Site {
  SiteKind kind = SiteKind::kLiteral;
  size_t offset = 0;       // byte offset of the token in the original source
  size_t length = 0;       // token length in bytes
  uint32_t line = 1;       // 1-based line (stable under splicing: mutants
                           // never contain newlines)
  std::string original;    // original token spelling
  /// When the site sits inside a `#define` body, the macro's name; the
  /// harness then decides dead-code via the macro's *use* lines.
  std::string define_name;
  /// Devil bit-string sites only: the character class of the literal
  /// ("01*." for masks, "01" for enum patterns) — §3.2 requires replacement
  /// within the same semantic class.
  std::string charset;
};

struct Mutant {
  size_t site = 0;           // index into the site vector
  std::string replacement;   // replacement token spelling
};

/// Applies `m` to `source` (splices the replacement over the site's bytes).
[[nodiscard]] std::string apply_mutant(const std::string& source,
                                       const std::vector<Site>& sites,
                                       const Mutant& m);

/// Identifier classes for class-preserving identifier mutation (§3.1:
/// "chosen from among the identifiers declared at a same level of
/// abstraction").
struct IdentifierClasses {
  /// identifier -> class label ("macro", "get", "set", "value", "type", ...)
  std::map<std::string, std::string> class_of;
  /// class label -> members, in insertion order
  std::map<std::string, std::vector<std::string>> members;

  void add(const std::string& ident, const std::string& cls) {
    if (class_of.emplace(ident, cls).second) members[cls].push_back(ident);
  }
  [[nodiscard]] std::vector<std::string> candidates(
      const std::string& ident) const;
};

// ---------------------------------------------------------------------------
// Literal mutation (§3.1): one removed, inserted or replaced character,
// always within the literal's own digit class. For a 2-digit decimal this
// yields the paper's 2 + 30 + 18 = 50 raw mutants; we additionally drop
// mutants whose *value* equals the original (the paper requires mutants to
// differ semantically) and de-duplicate identical spellings.
// ---------------------------------------------------------------------------

/// Mutates the digit portion `digits` with the character class `charset`.
/// `prefix` ("0x" for hex, "" otherwise) is kept intact; returned strings
/// include the prefix.
[[nodiscard]] std::vector<std::string> mutate_digit_string(
    const std::string& prefix, const std::string& digits,
    const std::string& charset);

/// Mutates a C/Devil integer literal (decimal, octal via leading 0, or hex
/// via 0x), dropping value-equivalent results. `include_o_typo` adds the
/// paper's "0xfffff vs Oxffffff" visual confusion — valid (an identifier)
/// in C, but not part of the Devil error model, whose grammar has no
/// identifier-shaped literals (§3.2).
[[nodiscard]] std::vector<std::string> mutate_int_literal(
    const std::string& token, bool include_o_typo = true);

/// Mutates a Devil bit-string body (without quotes) over `charset`
/// ("01*." for masks, "01" for enum patterns). Returns quoted spellings.
[[nodiscard]] std::vector<std::string> mutate_bit_string(
    const std::string& body, const std::string& charset);

}  // namespace mutation
