// support/json_io: the writer must be byte-stable (shard artifacts are
// compared byte-for-byte across processes), the reader strict (truncated or
// corrupt artifacts must fail with a line/column diagnostic, never parse to
// garbage), and the two must round-trip every value shape the shard format
// uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/json_io.h"

namespace {

using support::JsonError;
using support::JsonValue;
using support::parse_json;
using support::to_json;

TEST(JsonIo, WriterIsByteStable) {
  JsonValue obj = JsonValue::object();
  obj.set("name", "shard");
  obj.set("index", 3);
  obj.set("ok", true);
  obj.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back(-2);
  arr.push_back("x");
  obj.set("items", std::move(arr));
  EXPECT_EQ(to_json(obj),
            R"({"name":"shard","index":3,"ok":true,"nothing":null,)"
            R"("items":[1,-2,"x"]})");
  // Equal trees, built twice, serialize to equal bytes.
  JsonValue again = parse_json(to_json(obj));
  EXPECT_EQ(to_json(again), to_json(obj));
}

TEST(JsonIo, StringEscapesRoundTrip) {
  std::string nasty = "quote \" backslash \\ newline \n tab \t bell \x07";
  JsonValue v(nasty);
  std::string encoded = to_json(v);
  EXPECT_NE(encoded.find("\\u0007"), std::string::npos);
  EXPECT_EQ(parse_json(encoded).as_string(), nasty);
}

TEST(JsonIo, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_json(R"("Aé€")").as_string(),
            "A\xc3\xa9\xe2\x82\xac");
  EXPECT_THROW((void)parse_json(R"("\ud800")"), JsonError);  // surrogate
}

TEST(JsonIo, IntegerLimitsRoundTrip) {
  int64_t big = std::numeric_limits<int64_t>::max();
  int64_t small = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(parse_json(to_json(JsonValue(big))).as_int(), big);
  EXPECT_EQ(parse_json(to_json(JsonValue(small))).as_int(), small);
  // uint64 beyond int64 cannot be represented and must throw, not wrap.
  EXPECT_THROW(JsonValue(std::numeric_limits<uint64_t>::max()), JsonError);
  EXPECT_THROW((void)parse_json("99999999999999999999"), JsonError);
}

TEST(JsonIo, DoublesParse) {
  EXPECT_DOUBLE_EQ(parse_json("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse_json("-2e3").as_double(), -2000.0);
  EXPECT_DOUBLE_EQ(parse_json("7").as_double(), 7.0);  // int promotes
}

TEST(JsonIo, KindMismatchesThrow) {
  JsonValue v = parse_json(R"({"a":1})");
  EXPECT_THROW((void)v.as_string(), JsonError);
  EXPECT_THROW((void)v.as_int(), JsonError);
  EXPECT_THROW((void)v.items(), JsonError);
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_EQ(v.find("b"), nullptr);
}

TEST(JsonIo, WhitespaceAndNestingParse) {
  JsonValue v = parse_json(" {\n \"a\" : [ 1 , { \"b\" : null } ] }\n");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 2u);
  EXPECT_TRUE(a->items()[1].find("b")->is_null());
}

void expect_error_mentions(const std::string& text, const std::string& needle) {
  try {
    (void)parse_json(text);
    FAIL() << "expected JsonError for: " << text;
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error for '" << text << "' was: " << e.what();
  }
}

TEST(JsonIo, MalformedInputNamesLineAndColumn) {
  // Truncated document: the diagnostic points at the end of input.
  expect_error_mentions(R"({"a":1)", "line 1");
  expect_error_mentions("{\n\"a\": 1,\n", "line 3");
  expect_error_mentions("", "unexpected end of input");
  expect_error_mentions(R"({"a":1} trailing)", "trailing garbage");
  expect_error_mentions(R"({"a" 1})", "expected ':'");
  expect_error_mentions(R"([1,,2])", "unexpected character");
  expect_error_mentions(R"("unterminated)", "unterminated string");
  expect_error_mentions(R"("bad \q escape")", "invalid escape");
  expect_error_mentions("tru", "invalid literal");
  expect_error_mentions("[1 2]", "expected ',' or ']'");
  expect_error_mentions("\"raw\ncontrol\"", "control character");
  expect_error_mentions("01", "leading zero");
  expect_error_mentions("-012", "leading zero");
  expect_error_mentions("1.e3", "missing fraction digits");
}

TEST(JsonIo, DeepNestingFailsCleanlyInsteadOfOverflowing) {
  // A corrupt/hostile document of brackets must throw, not SIGSEGV.
  expect_error_mentions(std::string(100'000, '['), "nesting too deep");
  std::string object_bomb;
  for (int i = 0; i < 100'000; ++i) object_bomb += R"({"a":)";
  expect_error_mentions(object_bomb, "nesting too deep");
  // Sane nesting well under the cap still parses.
  std::string ok = std::string(50, '[') + "1" + std::string(50, ']');
  EXPECT_EQ(parse_json(ok).items().size(), 1u);
}

TEST(JsonIo, DeepNestingDiagnosticNamesLineAndColumn) {
  // The depth diagnostic goes through the same line/column machinery as
  // every other parse error: brackets on separate lines point past the
  // last one the parser descended into.
  std::string bomb;
  for (int i = 0; i < 100'000; ++i) bomb += "[\n";
  try {
    (void)parse_json(bomb);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting too deep"), std::string::npos) << what;
    // The parser descends through kMaxDepth (200) brackets, each on its own
    // line, and refuses the next value — at the start of line 201.
    EXPECT_NE(what.find("line 201, column 1"), std::string::npos) << what;
  }
}

TEST(JsonIo, TruncatedMidEscapeFailsCleanly) {
  // An artifact cut off inside a string escape (half-written file, torn
  // download) must fail with a diagnostic, never read past the buffer or
  // decode a partial escape.
  expect_error_mentions("\"abc\\", "unterminated escape");
  expect_error_mentions(R"("abc\u)", "unexpected end of \\u escape");
  expect_error_mentions(R"("abc\u0)", "unexpected end of \\u escape");
  expect_error_mentions(R"("abc\u00a)", "unexpected end of \\u escape");
}

// The strict field readers every artifact and wire parser shares: schema
// violations name the context and the field, and throw std::runtime_error
// rather than JsonError so callers can tell them from malformed JSON.
void expect_schema_error(void (*read)(const JsonValue&), const JsonValue& v,
                         const std::string& needle) {
  try {
    read(v);
    ADD_FAILURE() << "expected a schema error mentioning " << needle;
  } catch (const JsonError& e) {
    ADD_FAILURE() << "JsonError instead of a schema error: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(JsonIo, StrictFieldReadersNameContextAndField) {
  const JsonValue doc = parse_json(
      R"({"format":"tag","version":2,"n":7,"neg":-1,"s":"x","extra":true})");
  EXPECT_EQ(support::require_u64(doc, "n", "doc", 7), 7u);
  EXPECT_EQ(support::require_string(doc, "s", "doc"), "x");
  support::check_format(doc, "doc", "tag", 2);
  support::check_known_fields(doc, "doc",
                              {"format", "version", "n", "neg", "s", "extra"});

  expect_schema_error(
      [](const JsonValue& v) { (void)support::require(v, "entry", "doc"); },
      doc, "doc: missing field 'entry'");
  expect_schema_error(
      [](const JsonValue& v) { (void)support::require_u64(v, "n", "doc", 6); },
      doc, "doc: field 'n' out of range (0-6), got 7");
  expect_schema_error(
      [](const JsonValue& v) { (void)support::require_u64(v, "neg", "doc"); },
      doc, "doc: field 'neg' out of range");
  expect_schema_error(
      [](const JsonValue& v) { support::check_format(v, "doc", "other", 2); },
      doc, "doc: format tag is 'tag', expected 'other'");
  expect_schema_error(
      [](const JsonValue& v) { support::check_format(v, "doc", "tag", 3); },
      doc, "doc: unsupported version 2");
  expect_schema_error(
      [](const JsonValue& v) { support::check_format(v, "doc", "tag", 2); },
      parse_json("[1]"), "doc: expected a JSON object, got array");
  expect_schema_error(
      [](const JsonValue& v) {
        support::check_known_fields(v, "doc", {"format", "version"});
      },
      doc, "doc: unknown field 'n'");

  // A present field of the wrong kind stays a JsonError from the accessor.
  EXPECT_THROW((void)support::require_u64(doc, "s", "doc"), JsonError);
}

}  // namespace
