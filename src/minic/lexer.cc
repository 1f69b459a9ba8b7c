#include "minic/lexer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <unordered_map>

namespace minic {

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::kEof: return "<eof>";
    case Tok::kIdent: return "identifier";
    case Tok::kIntLit: return "integer literal";
    case Tok::kStringLit: return "string literal";
    case Tok::kKwVoid: return "'void'";
    case Tok::kKwInt: return "'int'";
    case Tok::kKwU8: return "'u8'";
    case Tok::kKwU16: return "'u16'";
    case Tok::kKwU32: return "'u32'";
    case Tok::kKwS8: return "'s8'";
    case Tok::kKwS16: return "'s16'";
    case Tok::kKwS32: return "'s32'";
    case Tok::kKwCString: return "'cstring'";
    case Tok::kKwStruct: return "'struct'";
    case Tok::kKwConst: return "'const'";
    case Tok::kKwStatic: return "'static'";
    case Tok::kKwInline: return "'inline'";
    case Tok::kKwIf: return "'if'";
    case Tok::kKwElse: return "'else'";
    case Tok::kKwWhile: return "'while'";
    case Tok::kKwFor: return "'for'";
    case Tok::kKwDo: return "'do'";
    case Tok::kKwReturn: return "'return'";
    case Tok::kKwBreak: return "'break'";
    case Tok::kKwContinue: return "'continue'";
    case Tok::kKwSwitch: return "'switch'";
    case Tok::kKwCase: return "'case'";
    case Tok::kKwDefault: return "'default'";
    case Tok::kLParen: return "'('";
    case Tok::kRParen: return "')'";
    case Tok::kLBrace: return "'{'";
    case Tok::kRBrace: return "'}'";
    case Tok::kLBracket: return "'['";
    case Tok::kRBracket: return "']'";
    case Tok::kSemi: return "';'";
    case Tok::kComma: return "','";
    case Tok::kDot: return "'.'";
    case Tok::kColon: return "':'";
    case Tok::kQuestion: return "'?'";
    case Tok::kAssign: return "'='";
    case Tok::kPlusAssign: return "'+='";
    case Tok::kMinusAssign: return "'-='";
    case Tok::kAndAssign: return "'&='";
    case Tok::kOrAssign: return "'|='";
    case Tok::kXorAssign: return "'^='";
    case Tok::kShlAssign: return "'<<='";
    case Tok::kShrAssign: return "'>>='";
    case Tok::kPlus: return "'+'";
    case Tok::kMinus: return "'-'";
    case Tok::kStar: return "'*'";
    case Tok::kSlash: return "'/'";
    case Tok::kPercent: return "'%'";
    case Tok::kAmp: return "'&'";
    case Tok::kPipe: return "'|'";
    case Tok::kCaret: return "'^'";
    case Tok::kTilde: return "'~'";
    case Tok::kShl: return "'<<'";
    case Tok::kShr: return "'>>'";
    case Tok::kAmpAmp: return "'&&'";
    case Tok::kPipePipe: return "'||'";
    case Tok::kBang: return "'!'";
    case Tok::kEq: return "'=='";
    case Tok::kNe: return "'!='";
    case Tok::kLt: return "'<'";
    case Tok::kGt: return "'>'";
    case Tok::kLe: return "'<='";
    case Tok::kGe: return "'>='";
    case Tok::kPlusPlus: return "'++'";
    case Tok::kMinusMinus: return "'--'";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string, Tok>& keywords() {
  static const std::unordered_map<std::string, Tok> kw = {
      {"void", Tok::kKwVoid},       {"int", Tok::kKwInt},
      {"u8", Tok::kKwU8},           {"u16", Tok::kKwU16},
      {"u32", Tok::kKwU32},         {"s8", Tok::kKwS8},
      {"s16", Tok::kKwS16},         {"s32", Tok::kKwS32},
      {"cstring", Tok::kKwCString}, {"struct", Tok::kKwStruct},
      {"const", Tok::kKwConst},     {"static", Tok::kKwStatic},
      {"inline", Tok::kKwInline},   {"if", Tok::kKwIf},
      {"else", Tok::kKwElse},       {"while", Tok::kKwWhile},
      {"for", Tok::kKwFor},         {"do", Tok::kKwDo},
      {"return", Tok::kKwReturn},   {"break", Tok::kKwBreak},
      {"continue", Tok::kKwContinue}, {"switch", Tok::kKwSwitch},
      {"case", Tok::kKwCase},       {"default", Tok::kKwDefault},
  };
  return kw;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Raw scanner: produces tokens without macro expansion. Directive handling
/// and expansion are layered on top.
class Scanner {
 public:
  Scanner(const support::SourceBuffer& buf, support::DiagnosticEngine& diags)
      : buf_(buf), diags_(diags) {}

  char peek(int ahead = 0) const {
    size_t i = loc_.offset + static_cast<size_t>(ahead);
    return i < buf_.text().size() ? buf_.text()[i] : '\0';
  }
  char advance() {
    char c = peek();
    if (c == '\0') return c;
    ++loc_.offset;
    if (c == '\n') {
      ++loc_.line;
      loc_.column = 1;
    } else {
      ++loc_.column;
    }
    return c;
  }
  bool match(char expected) {
    if (peek() != expected) return false;
    advance();
    return true;
  }

  /// Skips spaces and comments but NOT newlines (directives are line-based).
  void skip_spaces_and_comments() {
    for (;;) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\r') {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (peek() != '\n' && peek() != '\0') advance();
      } else if (c == '/' && peek(1) == '*') {
        advance();
        advance();
        while (!(peek() == '*' && peek(1) == '/') && peek() != '\0') advance();
        if (peek() != '\0') {
          advance();
          advance();
        }
      } else {
        return;
      }
    }
  }

  /// True if positioned at end of line / file.
  bool at_eol() {
    skip_spaces_and_comments();
    return peek() == '\n' || peek() == '\0';
  }

  void skip_all_whitespace() {
    for (;;) {
      skip_spaces_and_comments();
      if (peek() == '\n') {
        advance();
      } else {
        return;
      }
    }
  }

  /// The value of an integer literal's digits. A literal wider than 64
  /// bits is reported (and lexes as 0), so lexing goes on.
  uint64_t literal_value(const std::string& digits, int base,
                         support::SourceLoc loc) {
    uint64_t value = 0;
    if (std::from_chars(digits.data(), digits.data() + digits.size(), value,
                        base)
            .ec == std::errc::result_out_of_range) {
      diags_.error("MC017", loc, "integer literal does not fit in 64 bits");
      return 0;
    }
    return value;
  }

  Token next_raw() {
    support::SourceLoc begin = loc_;
    char c = peek();
    Token t;
    t.loc = begin;

    if (c == '\0') {
      t.kind = Tok::kEof;
      return t;
    }

    if (is_ident_start(c)) {
      std::string text;
      while (is_ident_char(peek())) text += advance();
      auto it = keywords().find(text);
      t.kind = it != keywords().end() ? it->second : Tok::kIdent;
      t.text = std::move(text);
      return t;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string text;
      if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        text += advance();
        text += advance();
        while (std::isxdigit(static_cast<unsigned char>(peek())))
          text += advance();
        if (text.size() == 2) {
          diags_.error("MC010", begin, "incomplete hexadecimal literal");
          text += "0";
        }
        t.int_base = 16;
        t.int_value = literal_value(text.substr(2), 16, begin);
      } else if (c == '0' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
        while (peek() >= '0' && peek() <= '7') text += advance();
        t.int_base = 8;
        t.int_value = literal_value(text, 8, begin);
      } else {
        while (std::isdigit(static_cast<unsigned char>(peek())))
          text += advance();
        t.int_base = 10;
        t.int_value = literal_value(text, 10, begin);
      }
      // Integer suffixes (u, U, l, L) are accepted and ignored, as in the
      // kernel sources the paper mutates.
      while (peek() == 'u' || peek() == 'U' || peek() == 'l' || peek() == 'L')
        text += advance();
      t.kind = Tok::kIntLit;
      t.text = std::move(text);
      return t;
    }

    if (c == '"') {
      advance();
      std::string text;
      while (peek() != '"' && peek() != '\n' && peek() != '\0') {
        char ch = advance();
        if (ch == '\\') {
          char esc = advance();
          switch (esc) {
            case 'n': text += '\n'; break;
            case 't': text += '\t'; break;
            case '\\': text += '\\'; break;
            case '"': text += '"'; break;
            default: text += esc; break;
          }
        } else {
          text += ch;
        }
      }
      if (!match('"')) {
        diags_.error("MC011", begin, "unterminated string literal");
      }
      t.kind = Tok::kStringLit;
      t.text = std::move(text);
      return t;
    }

    advance();
    auto two = [&](char second, Tok yes, Tok no) {
      t.kind = match(second) ? yes : no;
    };
    switch (c) {
      case '(': t.kind = Tok::kLParen; break;
      case ')': t.kind = Tok::kRParen; break;
      case '{': t.kind = Tok::kLBrace; break;
      case '}': t.kind = Tok::kRBrace; break;
      case '[': t.kind = Tok::kLBracket; break;
      case ']': t.kind = Tok::kRBracket; break;
      case ';': t.kind = Tok::kSemi; break;
      case ',': t.kind = Tok::kComma; break;
      case '.': t.kind = Tok::kDot; break;
      case ':': t.kind = Tok::kColon; break;
      case '?': t.kind = Tok::kQuestion; break;
      case '~': t.kind = Tok::kTilde; break;
      case '+':
        if (match('+')) t.kind = Tok::kPlusPlus;
        else two('=', Tok::kPlusAssign, Tok::kPlus);
        break;
      case '-':
        if (match('-')) t.kind = Tok::kMinusMinus;
        else two('=', Tok::kMinusAssign, Tok::kMinus);
        break;
      case '*': t.kind = Tok::kStar; break;
      case '/': t.kind = Tok::kSlash; break;
      case '%': t.kind = Tok::kPercent; break;
      case '^': two('=', Tok::kXorAssign, Tok::kCaret); break;
      case '!': two('=', Tok::kNe, Tok::kBang); break;
      case '=': two('=', Tok::kEq, Tok::kAssign); break;
      case '&':
        if (match('&')) t.kind = Tok::kAmpAmp;
        else two('=', Tok::kAndAssign, Tok::kAmp);
        break;
      case '|':
        if (match('|')) t.kind = Tok::kPipePipe;
        else two('=', Tok::kOrAssign, Tok::kPipe);
        break;
      case '<':
        if (match('<')) two('=', Tok::kShlAssign, Tok::kShl);
        else two('=', Tok::kLe, Tok::kLt);
        break;
      case '>':
        if (match('>')) two('=', Tok::kShrAssign, Tok::kShr);
        else two('=', Tok::kGe, Tok::kGt);
        break;
      default:
        diags_.error("MC012", begin,
                     std::string("unexpected character '") + c + "'");
        t.kind = Tok::kEof;
        break;
    }
    t.text = buf_.slice({begin, loc_});
    return t;
  }

  support::SourceLoc loc_;
  const support::SourceBuffer& buf_;
  support::DiagnosticEngine& diags_;
};

}  // namespace

LexOutput lex_unit(const support::SourceBuffer& buf,
                   support::DiagnosticEngine& diags,
                   const LexOptions& options) {
  LexOutput out;
  Scanner sc(buf, diags);
  sc.loc_.line += options.line_offset;
  MacroTable& macros = out.macros;

  // Definitions from the preceding buffer(s), consulted after local ones.
  auto find_macro = [&](const std::string& name) -> const std::vector<Token>* {
    if (auto it = macros.find(name); it != macros.end()) return &it->second;
    if (options.seed_macros) {
      if (auto it = options.seed_macros->find(name);
          it != options.seed_macros->end()) {
        return &it->second;
      }
    }
    return nullptr;
  };

  // File tag used by __FILE__ (the generated header name for Devil stubs).
  Token file_tok;
  file_tok.kind = Tok::kStringLit;
  file_tok.text = buf.name();

  // Tags a freshly scanned token with its mutation-site id when its byte
  // span matches a span exactly. `end` is the scanner offset just past the
  // token (next_raw leaves it there).
  const std::vector<SiteSpan>* spans = options.site_spans;
  auto tag_site = [&](Token& t, size_t end) {
    if (!spans || spans->empty() || end <= t.loc.offset) return;
    uint32_t off = static_cast<uint32_t>(t.loc.offset);
    uint32_t len = static_cast<uint32_t>(end - t.loc.offset);
    auto it = std::lower_bound(
        spans->begin(), spans->end(), off,
        [](const SiteSpan& s, uint32_t o) { return s.offset < o; });
    if (it != spans->end() && it->offset == off && it->length == len) {
      t.site = it->id;
    }
  };

  // Expands `tok` (an identifier) into `out.tokens`, recursively.
  auto expand = [&](const Token& tok, auto&& self, int depth) -> void {
    if (tok.kind == Tok::kIdent) {
      if (tok.text == "__FILE__") {
        Token t = file_tok;
        t.loc = tok.loc;
        t.from_expansion = true;
        out.tokens.push_back(std::move(t));
        return;
      }
      if (const std::vector<Token>* body = find_macro(tok.text)) {
        if (depth > 16) {
          diags.error("MC013", tok.loc,
                      "macro expansion too deep (recursive #define?)");
          return;
        }
        out.macro_use_lines[tok.text].insert(tok.loc.line);
        // A single-int-literal body inherits the *use* token's site tag: a
        // rename of the macro-use identifier lands exactly where the value
        // lowered. Longer bodies keep their own (define-body) tags, whose
        // sites the patcher refuses — use-site provenance would be ambiguous.
        const bool single_int =
            body->size() == 1 && (*body)[0].kind == Tok::kIntLit;
        for (const Token& body_tok : *body) {
          Token t = body_tok;
          t.loc = tok.loc;  // use-site location, as a C compiler reports
          t.from_expansion = true;
          if (single_int) t.site = tok.site;
          self(t, self, depth + 1);
        }
        return;
      }
    }
    out.tokens.push_back(tok);
  };

  for (;;) {
    sc.skip_all_whitespace();
    if (sc.peek() == '#') {
      support::SourceLoc dloc = sc.loc_;
      sc.advance();
      Token directive = sc.next_raw();
      if (directive.kind != Tok::kIdent || directive.text != "define") {
        diags.error("MC014", dloc, "unsupported preprocessor directive");
        // Skip to end of line.
        while (!sc.at_eol()) sc.next_raw();
        continue;
      }
      sc.skip_spaces_and_comments();
      Token name = sc.next_raw();
      if (name.kind != Tok::kIdent) {
        diags.error("MC015", name.loc, "expected macro name after #define");
        while (!sc.at_eol()) sc.next_raw();
        continue;
      }
      std::vector<Token> body;
      while (!sc.at_eol()) {
        sc.skip_spaces_and_comments();
        if (sc.peek() == '\n' || sc.peek() == '\0') break;
        Token body_tok = sc.next_raw();
        tag_site(body_tok, sc.loc_.offset);
        body.push_back(std::move(body_tok));
      }
      if (find_macro(name.text)) {
        diags.error("MC016", name.loc,
                    "macro '" + name.text + "' redefined");
      }
      macros[name.text] = std::move(body);
      continue;
    }
    Token t = sc.next_raw();
    if (t.kind == Tok::kEof) {
      out.tokens.push_back(std::move(t));
      break;
    }
    tag_site(t, sc.loc_.offset);
    expand(t, expand, 0);
  }
  return out;
}

}  // namespace minic
