// Token model for MiniC, the C-subset substrate language.
//
// MiniC exists so the mutation campaigns can answer "would a C compiler
// accept this mutant, and what happens when the kernel boots it?" without a
// real compiler and kernel in the loop. Its lexer includes a tiny
// preprocessor (object macros + __FILE__) because macro expansion is central
// to the paper's argument: macros erase type distinctions in C drivers.
#pragma once

#include <cstdint>
#include <string>

#include "support/source.h"

namespace minic {

enum class Tok {
  kEof,
  kIdent,
  kIntLit,     // decimal / octal / hexadecimal
  kStringLit,

  // Keywords.
  kKwVoid, kKwInt, kKwU8, kKwU16, kKwU32, kKwS8, kKwS16, kKwS32, kKwCString,
  kKwStruct, kKwConst, kKwStatic, kKwInline,
  kKwIf, kKwElse, kKwWhile, kKwFor, kKwDo, kKwReturn, kKwBreak, kKwContinue,
  kKwSwitch, kKwCase, kKwDefault,

  // Punctuation.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kSemi, kComma, kDot, kColon, kQuestion,

  // Operators.
  kAssign,                       // =
  kPlusAssign, kMinusAssign,     // += -=
  kAndAssign, kOrAssign, kXorAssign,   // &= |= ^=
  kShlAssign, kShrAssign,        // <<= >>=
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde,
  kShl, kShr,
  kAmpAmp, kPipePipe, kBang,
  kEq, kNe, kLt, kGt, kLe, kGe,
  kPlusPlus, kMinusMinus,
};

[[nodiscard]] const char* tok_name(Tok t);

// Operator facts. Inline: the parser's binary-expression loop asks for a
// precedence at every token. The bytecode compiler, the patcher, the tree
// walker and the campaign's patch-eligibility scan must agree with the
// parser, so they read these too.

/// C binary-operator precedence (higher binds tighter); -1 for a token that
/// is not a binary operator. Assignment and ?: are parsed separately.
[[nodiscard]] inline int binary_precedence(Tok t) {
  switch (t) {
    case Tok::kStar: case Tok::kSlash: case Tok::kPercent: return 10;
    case Tok::kPlus: case Tok::kMinus: return 9;
    case Tok::kShl: case Tok::kShr: return 8;
    case Tok::kLt: case Tok::kGt: case Tok::kLe: case Tok::kGe: return 7;
    case Tok::kEq: case Tok::kNe: return 6;
    case Tok::kAmp: return 5;
    case Tok::kCaret: return 4;
    case Tok::kPipe: return 3;
    case Tok::kAmpAmp: return 2;
    case Tok::kPipePipe: return 1;
    default: return -1;
  }
}

/// `=` and the compound assignments (all right-associative, one level).
[[nodiscard]] inline bool is_assignment(Tok t) {
  switch (t) {
    case Tok::kAssign: case Tok::kPlusAssign: case Tok::kMinusAssign:
    case Tok::kAndAssign: case Tok::kOrAssign: case Tok::kXorAssign:
    case Tok::kShlAssign: case Tok::kShrAssign:
      return true;
    default:
      return false;
  }
}

/// A compound assignment's base operator (`+=` -> `+`); kEof for any other
/// token. MiniC has no `/=` or `%=`.
[[nodiscard]] inline Tok compound_base(Tok t) {
  switch (t) {
    case Tok::kPlusAssign: return Tok::kPlus;
    case Tok::kMinusAssign: return Tok::kMinus;
    case Tok::kAndAssign: return Tok::kAmp;
    case Tok::kOrAssign: return Tok::kPipe;
    case Tok::kXorAssign: return Tok::kCaret;
    case Tok::kShlAssign: return Tok::kShl;
    case Tok::kShrAssign: return Tok::kShr;
    default: return Tok::kEof;
  }
}

/// "No provenance" site tag. Tokens the mutation model cannot touch (and all
/// tokens of buffers lexed without site spans) carry this.
inline constexpr uint32_t kNoSite = 0xffffffffu;

/// One mutation site's byte span in the buffer being lexed, plus its stable
/// id (mutation::SiteId — the site's index in the scanner's vector). The
/// lexer tags a token with `id` when the token's byte span matches exactly;
/// minic knows nothing else about the mutation layer.
struct SiteSpan {
  uint32_t offset = 0;
  uint32_t length = 0;
  uint32_t id = kNoSite;
};

struct Token {
  Tok kind = Tok::kEof;
  support::SourceLoc loc;       // use-site location (post macro expansion)
  std::string text;
  uint64_t int_value = 0;       // kIntLit
  int int_base = 10;            // 8, 10 or 16 — drives literal mutation class
  /// Mutation-site provenance (kNoSite when untracked). A single-int-literal
  /// macro body inherits the *use* token's tag on expansion, so a mutation of
  /// a macro-use identifier can still be located in the lowered bytecode.
  uint32_t site = kNoSite;
  /// True for tokens produced by macro (or __FILE__) expansion rather than
  /// scanned directly from the buffer.
  bool from_expansion = false;

  [[nodiscard]] bool is(Tok t) const { return kind == t; }
};

}  // namespace minic
