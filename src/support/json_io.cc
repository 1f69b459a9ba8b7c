#include "support/json_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace support {

const char* json_kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kInt: return "integer";
    case JsonValue::Kind::kDouble: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void kind_error(const char* want, JsonValue::Kind got) {
  throw JsonError(std::string("JSON value is ") + json_kind_name(got) +
                  ", expected " + want);
}
}  // namespace

JsonValue::JsonValue(uint64_t v) : kind_(Kind::kInt) {
  if (v > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    throw JsonError("JSON integer out of int64 range");
  }
  int_ = static_cast<int64_t>(v);
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kInt) kind_error("integer", kind_);
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ != Kind::kDouble) kind_error("number", kind_);
  return double_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return str_;
}

const JsonValue::Array& JsonValue::items() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const JsonValue::Object& JsonValue::members() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  array_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  object_.emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- writer ------------------------------------------------------------------

namespace {

void write_escaped(const std::string& s, std::string& out) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void write_value(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::kInt:
      out += std::to_string(v.as_int());
      return;
    case JsonValue::Kind::kDouble: {
      double d = v.as_double();
      if (!std::isfinite(d)) throw JsonError("JSON cannot encode non-finite number");
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      out += buf;
      return;
    }
    case JsonValue::Kind::kString:
      write_escaped(v.as_string(), out);
      return;
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        write_value(item, out);
      }
      out.push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        write_escaped(key, out);
        out.push_back(':');
        write_value(value, out);
      }
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

std::string to_json(const JsonValue& v) {
  std::string out;
  write_value(v, out);
  return out;
}

// --- reader ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    // Line/column of the current position, so a truncated artifact names
    // the exact byte where the document stopped making sense.
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("JSON parse error at line " + std::to_string(line) +
                    ", column " + std::to_string(col) + ": " + message);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c, const char* what) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected ") + what);
    }
    ++pos_;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    // Bounded nesting: a corrupt (or hostile) document of thousands of
    // opening brackets must fail with a diagnostic, not blow the stack.
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    JsonValue v = parse_value_inner();
    --depth_;
    return v;
  }

  JsonValue parse_value_inner() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_word("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_word("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_word("null")) return JsonValue();
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  JsonValue parse_object() {
    expect('{', "'{'");
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':', "':' after object key");
      obj.set(std::move(key), parse_value());
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[', "'['");
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unexpected end of \\u escape");
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return v;
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdfff) {
            // Only BMP escapes; the writer never emits surrogates.
            fail("surrogate \\u escapes are not supported");
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    size_t digits = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == digits) fail("invalid number");
    if (text_[digits] == '0' && pos_ > digits + 1) {
      fail("invalid number: leading zero");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      size_t frac = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac) fail("invalid number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp) fail("invalid number: missing exponent digits");
    }
    std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      return JsonValue(std::strtod(token.c_str(), nullptr));
    }
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + token.size()) {
      fail("integer out of range");
    }
    return JsonValue(static_cast<int64_t>(v));
  }

  static constexpr int kMaxDepth = 200;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

// --- strict field access -----------------------------------------------------

const JsonValue& require(const JsonValue& obj, const char* key,
                         const std::string& ctx) {
  const JsonValue* v = obj.find(key);
  if (!v) {
    throw std::runtime_error(ctx + ": missing field '" + key + "'");
  }
  return *v;
}

const std::string& require_string(const JsonValue& obj, const char* key,
                                  const std::string& ctx) {
  return require(obj, key, ctx).as_string();
}

uint64_t require_u64(const JsonValue& obj, const char* key,
                     const std::string& ctx, uint64_t max) {
  int64_t raw = require(obj, key, ctx).as_int();
  if (raw < 0 || static_cast<uint64_t>(raw) > max) {
    throw std::runtime_error(ctx + ": field '" + key + "' out of range (0-" +
                             std::to_string(max) + "), got " +
                             std::to_string(raw));
  }
  return static_cast<uint64_t>(raw);
}

void check_format(const JsonValue& obj, const std::string& ctx,
                  const char* tag, int64_t version) {
  if (obj.kind() != JsonValue::Kind::kObject) {
    throw std::runtime_error(ctx + ": expected a JSON object, got " +
                             json_kind_name(obj.kind()));
  }
  const std::string& format = require_string(obj, "format", ctx);
  if (format != tag) {
    throw std::runtime_error(ctx + ": format tag is '" + format +
                             "', expected '" + tag + "'");
  }
  int64_t got = require(obj, "version", ctx).as_int();
  if (got != version) {
    throw std::runtime_error(ctx + ": unsupported version " +
                             std::to_string(got) + " (this build reads "
                             "version " + std::to_string(version) + ")");
  }
}

void check_known_fields(const JsonValue& obj, const std::string& ctx,
                        std::initializer_list<const char*> known) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const char* k : known) ok |= key == k;
    if (!ok) throw std::runtime_error(ctx + ": unknown field '" + key + "'");
  }
}

}  // namespace support
