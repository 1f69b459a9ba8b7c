#include "devil/lexer.h"

#include <cctype>
#include <cstdint>
#include <unordered_map>

namespace devil {

const char* tok_kind_name(TokKind k) {
  switch (k) {
    case TokKind::kEof: return "<eof>";
    case TokKind::kError: return "<error>";
    case TokKind::kIdent: return "identifier";
    case TokKind::kInt: return "integer";
    case TokKind::kBitString: return "bit string";
    case TokKind::kKwDevice: return "'device'";
    case TokKind::kKwRegister: return "'register'";
    case TokKind::kKwVariable: return "'variable'";
    case TokKind::kKwPrivate: return "'private'";
    case TokKind::kKwVolatile: return "'volatile'";
    case TokKind::kKwRead: return "'read'";
    case TokKind::kKwWrite: return "'write'";
    case TokKind::kKwTrigger: return "'trigger'";
    case TokKind::kKwMask: return "'mask'";
    case TokKind::kKwPre: return "'pre'";
    case TokKind::kKwPort: return "'port'";
    case TokKind::kKwBit: return "'bit'";
    case TokKind::kKwInt: return "'int'";
    case TokKind::kKwSigned: return "'signed'";
    case TokKind::kKwBool: return "'bool'";
    case TokKind::kLBrace: return "'{'";
    case TokKind::kRBrace: return "'}'";
    case TokKind::kLParen: return "'('";
    case TokKind::kRParen: return "')'";
    case TokKind::kLBracket: return "'['";
    case TokKind::kRBracket: return "']'";
    case TokKind::kAt: return "'@'";
    case TokKind::kColon: return "':'";
    case TokKind::kSemi: return "';'";
    case TokKind::kComma: return "','";
    case TokKind::kEq: return "'='";
    case TokKind::kHash: return "'#'";
    case TokKind::kDotDot: return "'..'";
    case TokKind::kArrowRead: return "'<='";
    case TokKind::kArrowWrite: return "'=>'";
    case TokKind::kArrowBoth: return "'<=>'";
  }
  return "?";
}

namespace {
const std::unordered_map<std::string_view, TokKind>& keywords() {
  static const std::unordered_map<std::string_view, TokKind> kw = {
      {"device", TokKind::kKwDevice},     {"register", TokKind::kKwRegister},
      {"variable", TokKind::kKwVariable}, {"private", TokKind::kKwPrivate},
      {"volatile", TokKind::kKwVolatile}, {"read", TokKind::kKwRead},
      {"write", TokKind::kKwWrite},       {"trigger", TokKind::kKwTrigger},
      {"mask", TokKind::kKwMask},         {"pre", TokKind::kKwPre},
      {"port", TokKind::kKwPort},         {"bit", TokKind::kKwBit},
      {"int", TokKind::kKwInt},           {"signed", TokKind::kKwSigned},
      {"bool", TokKind::kKwBool},
  };
  return kw;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

char Lexer::peek(int ahead) const {
  size_t i = loc_.offset + static_cast<size_t>(ahead);
  return i < buf_.text().size() ? buf_.text()[i] : '\0';
}

char Lexer::advance() {
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

bool Lexer::match(char expected) {
  if (peek() != expected) return false;
  advance();
  return true;
}

void Lexer::skip_trivia() {
  for (;;) {
    char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
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

Token Lexer::make(TokKind kind, support::SourceLoc begin, std::string text) {
  Token t;
  t.kind = kind;
  t.range = {begin, loc_};
  t.text = std::move(text);
  return t;
}

Token Lexer::next() {
  skip_trivia();
  support::SourceLoc begin = loc_;
  char c = peek();
  if (c == '\0') return make(TokKind::kEof, begin, "");

  if (is_ident_start(c)) {
    std::string text;
    while (is_ident_char(peek())) text += advance();
    auto it = keywords().find(text);
    return make(it != keywords().end() ? it->second : TokKind::kIdent, begin,
                std::move(text));
  }

  if (std::isdigit(static_cast<unsigned char>(c))) {
    std::string text;
    const bool hex = c == '0' && (peek(1) == 'x' || peek(1) == 'X');
    if (hex) {
      text += advance();
      text += advance();
    }
    const uint64_t base = hex ? 16 : 10;
    uint64_t value = 0;
    bool overflow = false;
    while (hex ? std::isxdigit(static_cast<unsigned char>(peek()))
               : std::isdigit(static_cast<unsigned char>(peek()))) {
      char d = advance();
      text += d;
      uint64_t digit = std::isdigit(static_cast<unsigned char>(d))
                           ? static_cast<uint64_t>(d - '0')
                           : static_cast<uint64_t>(std::tolower(d) - 'a' + 10);
      if (value > (UINT64_MAX - digit) / base) overflow = true;
      value = value * base + digit;
    }
    if (hex && text.size() == 2) {
      diags_.error("DVL010", begin, "incomplete hexadecimal literal");
      return make(TokKind::kError, begin, std::move(text));
    }
    if (overflow) {
      diags_.error("DVL016", begin,
                   "integer literal '" + text + "' does not fit in 64 bits");
      return make(TokKind::kError, begin, std::move(text));
    }
    Token t = make(TokKind::kInt, begin, std::move(text));
    t.int_value = value;
    return t;
  }

  if (c == '\'') {
    advance();
    std::string text;
    while (peek() != '\'' && peek() != '\n' && peek() != '\0')
      text += advance();
    if (!match('\'')) {
      diags_.error("DVL011", begin, "unterminated bit string");
      return make(TokKind::kError, begin, std::move(text));
    }
    for (char bc : text) {
      if (bc != '0' && bc != '1' && bc != '*' && bc != '.') {
        diags_.error("DVL012", begin,
                     std::string("invalid character '") + bc +
                         "' in bit string (expected 0, 1, *, .)");
        return make(TokKind::kError, begin, std::move(text));
      }
    }
    return make(TokKind::kBitString, begin, std::move(text));
  }

  advance();
  switch (c) {
    case '{': return make(TokKind::kLBrace, begin, "{");
    case '}': return make(TokKind::kRBrace, begin, "}");
    case '(': return make(TokKind::kLParen, begin, "(");
    case ')': return make(TokKind::kRParen, begin, ")");
    case '[': return make(TokKind::kLBracket, begin, "[");
    case ']': return make(TokKind::kRBracket, begin, "]");
    case '@': return make(TokKind::kAt, begin, "@");
    case ':': return make(TokKind::kColon, begin, ":");
    case ';': return make(TokKind::kSemi, begin, ";");
    case ',': return make(TokKind::kComma, begin, ",");
    case '#': return make(TokKind::kHash, begin, "#");
    case '.':
      if (match('.')) return make(TokKind::kDotDot, begin, "..");
      diags_.error("DVL013", begin, "stray '.' (did you mean '..'?)");
      return make(TokKind::kError, begin, ".");
    case '=':
      if (match('>')) return make(TokKind::kArrowWrite, begin, "=>");
      return make(TokKind::kEq, begin, "=");
    case '<':
      if (match('=')) {
        if (match('>')) return make(TokKind::kArrowBoth, begin, "<=>");
        return make(TokKind::kArrowRead, begin, "<=");
      }
      diags_.error("DVL014", begin, "stray '<'");
      return make(TokKind::kError, begin, "<");
    default:
      diags_.error("DVL015", begin,
                   std::string("unexpected character '") + c + "'");
      return make(TokKind::kError, begin, std::string(1, c));
  }
}

std::vector<Token> Lexer::lex_all() {
  std::vector<Token> out;
  for (;;) {
    Token t = next();
    bool eof = t.is(TokKind::kEof);
    out.push_back(std::move(t));
    if (eof) break;
  }
  return out;
}

}  // namespace devil
