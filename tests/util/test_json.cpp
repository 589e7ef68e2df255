// Tests for util/json: compact-style emission and the parser that reads
// the repo's own formats (checkpoint journals, bench reports) back.
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace pns {
namespace {

TEST(JsonWriterCompact, SingleLineNoWhitespace) {
  std::ostringstream os;
  JsonWriter w(os, JsonStyle::kCompact);
  w.begin_object();
  w.kv("name", "quick");
  w.kv("total", std::uint64_t{12});
  w.key("values");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            "{\"name\":\"quick\",\"total\":12,\"values\":[1.5,true,null]}");
  EXPECT_EQ(os.str().find('\n'), std::string::npos);
}

TEST(JsonWriterPretty, UnchangedByStyleParameterDefault) {
  std::ostringstream a, b;
  JsonWriter wa(a);
  JsonWriter wb(b, JsonStyle::kPretty);
  for (JsonWriter* w : {&wa, &wb}) {
    w->begin_object();
    w->kv("k", 1);
    w->end_object();
  }
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str(), "{\n  \"k\": 1\n}");
}

TEST(JsonWriter, MatchesJsonEscapeAndShortestDouble) {
  // The writer streams plain strings and doubles without going through
  // json_escape / shortest_double; its bytes must still be theirs.
  const std::string strings[] = {
      "",         "plain_key", "q\"uote", "back\\slash", "new\nline",
      "ctl\x01x", "tab\t",    "caf\xc3\xa9 \xe2\x82\xac"};
  for (const std::string& s : strings) {
    for (const JsonStyle style : {JsonStyle::kCompact, JsonStyle::kPretty}) {
      std::ostringstream os;
      JsonWriter w(os, style);
      w.begin_object();
      w.kv(s, s);
      w.end_object();
      const std::string sep = style == JsonStyle::kCompact ? ":" : ": ";
      const std::string member = json_escape(s) + sep + json_escape(s);
      EXPECT_EQ(os.str(), style == JsonStyle::kCompact
                              ? "{" + member + "}"
                              : "{\n  " + member + "\n}");
    }
  }

  const double doubles[] = {-0.0,   0.1,     1.0 / 3.0, 4.9e-324,
                            1e300, -2.5e-8, 42.0};
  for (const double d : doubles) {
    std::ostringstream os;
    JsonWriter w(os, JsonStyle::kCompact);
    w.value(d);
    EXPECT_EQ(os.str(), shortest_double(d));
  }
  for (const double d : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    std::ostringstream os;
    JsonWriter w(os, JsonStyle::kCompact);
    w.value(d);
    EXPECT_EQ(os.str(), "null");
  }
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_json("null").type(), JsonValue::Type::kNull);
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json("  42  ").as_int64(), 42);
}

TEST(JsonParse, Uint64RoundTripsExactly) {
  const std::uint64_t big = 18446744073709551615ull;  // UINT64_MAX
  const JsonValue v = parse_json(std::to_string(big));
  EXPECT_EQ(v.as_uint64(), big);
}

TEST(JsonParse, ShortestDoubleRoundTripsBitExactly) {
  // The property the checkpoint/merge machinery rests on: a double
  // serialised with shortest_double parses back bit-identically.
  for (double d : {0.1, 1.0 / 3.0, 6.62607015e-34, -0.047, 5.300000000000001,
                   1e308, 4.9e-324}) {
    const JsonValue v = parse_json(shortest_double(d));
    EXPECT_EQ(v.as_double(), d) << shortest_double(d);
  }
}

TEST(JsonParse, ObjectsPreserveOrderAndNest) {
  const JsonValue v =
      parse_json("{\"a\": 1, \"b\": {\"c\": [1, 2, {\"d\": \"x\"}]}}");
  ASSERT_EQ(v.type(), JsonValue::Type::kObject);
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.members()[1].first, "b");
  const JsonValue& c = v.at("b").at("c");
  ASSERT_EQ(c.items().size(), 3u);
  EXPECT_EQ(c.items()[2].at("d").as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json("\"a\\\"b\\\\c\\n\\t\"").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // json_escape output parses back to the original bytes.
  const std::string nasty = "line1\nline2\t\"quoted\"\x01 end";
  EXPECT_EQ(parse_json(json_escape(nasty)).as_string(), nasty);
}

TEST(JsonParse, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nan", "--1", "{\"a\" 1}"}) {
    EXPECT_THROW(parse_json(bad), JsonError) << bad;
  }
}

TEST(JsonParse, TypeMismatchThrows) {
  const JsonValue v = parse_json("[1]");
  EXPECT_THROW(v.as_string(), JsonError);
  EXPECT_THROW(v.as_bool(), JsonError);
  EXPECT_THROW(v.members(), JsonError);
  EXPECT_THROW(parse_json("1").items(), JsonError);
}

TEST(JsonParse, CompactWriterOutputParsesBack) {
  std::ostringstream os;
  JsonWriter w(os, JsonStyle::kCompact);
  w.begin_object();
  w.kv("x", 0.1 + 0.2);
  w.kv("s", "a\"b\n");
  w.end_object();
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("x").as_double(), 0.1 + 0.2);
  EXPECT_EQ(v.at("s").as_string(), "a\"b\n");
}

}  // namespace
}  // namespace pns
