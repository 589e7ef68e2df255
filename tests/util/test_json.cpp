// Tests for util/json: compact-style emission (through the string and
// the stream sink alike) and the parser that reads the repo's own
// formats (checkpoint journals, bench reports) back.
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sweep/aggregate.hpp"
#include "util/json.hpp"

namespace pns {
namespace {

/// Writes one document through both sinks; expects identical bytes and
/// returns them.
std::string written(JsonStyle style,
                    const std::function<void(JsonWriter&)>& write) {
  std::ostringstream os;
  {
    JsonWriter w(os, style);
    write(w);
    EXPECT_TRUE(w.complete());
  }
  std::string out = "prefix:";  // the string sink appends
  JsonWriter w(out, style);
  write(w);
  EXPECT_EQ(out, "prefix:" + os.str());
  return os.str();
}

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
      const std::string bytes = written(style, [&](JsonWriter& w) {
        w.begin_object();
        w.kv(s, s);
        w.end_object();
      });
      const std::string sep = style == JsonStyle::kCompact ? ":" : ": ";
      const std::string member = json_escape(s) + sep + json_escape(s);
      EXPECT_EQ(bytes, style == JsonStyle::kCompact
                           ? "{" + member + "}"
                           : "{\n  " + member + "\n}");
    }
  }

  const double doubles[] = {-0.0,   0.1,     1.0 / 3.0, 4.9e-324,
                            1e300, -2.5e-8, 42.0};
  for (const double d : doubles) {
    EXPECT_EQ(written(JsonStyle::kCompact, [&](JsonWriter& w) { w.value(d); }),
              shortest_double(d));
  }
  for (const double d : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    for (const JsonStyle style : {JsonStyle::kCompact, JsonStyle::kPretty}) {
      EXPECT_EQ(written(style, [&](JsonWriter& w) { w.value(d); }), "null");
      EXPECT_EQ(written(style,
                        [&](JsonWriter& w) {
                          w.begin_array();
                          w.value(d);
                          w.end_array();
                        }),
                style == JsonStyle::kCompact ? "[null]" : "[\n  null\n]");
    }
  }
}

TEST(JsonWriter, StringAndStreamSinksWriteIdenticalBytes) {
  // Multi-level documents, each through both sinks in both styles
  // (written() compares the bytes); the expected text pins the compact
  // form.
  sweep::SummaryRow row;
  row.label = "full-sun/pns/seed=42";
  row.condition = "full-sun";
  row.control = "pns";
  row.ok = false;
  row.error = "brown-out\n\"at\" t=0";
  row.domains = {{"big", 1.5, 2e9, 0.75}, {"LITTLE", 0.25, 1e9, 0.25}};

  const std::pair<std::function<void(JsonWriter&)>, std::string> docs[] = {
      {[](JsonWriter& w) {  // nested arrays, empty containers
         w.begin_array();
         w.begin_array();
         w.value(1);
         w.begin_array();
         w.end_array();
         w.end_array();
         w.begin_object();
         w.end_object();
         w.null();
         w.end_array();
       },
       "[[1,[]],{},null]"},
      {[](JsonWriter& w) {  // escapes in keys and values, inside arrays
         w.begin_object();
         w.key("a\"b");
         w.begin_array();
         w.value("tab\tnl\nctl\x1f");
         w.value(std::string("back\\slash"));
         w.end_array();
         w.kv("inf", std::numeric_limits<double>::infinity());
         w.end_object();
       },
       "{\"a\\\"b\":[\"tab\\tnl\\nctl\\u001f\",\"back\\\\slash\"],"
       "\"inf\":null}"},
      {[&](JsonWriter& w) { sweep::write_summary_row_json(w, row); }, ""},
  };
  for (const auto& [write, compact] : docs) {
    const std::string bytes = written(JsonStyle::kCompact, write);
    if (!compact.empty()) {
      EXPECT_EQ(bytes, compact);
    }
    EXPECT_NO_THROW(parse_json(bytes)) << bytes;
    const std::string pretty = written(JsonStyle::kPretty, write);
    EXPECT_NO_THROW(parse_json(pretty)) << pretty;
  }
  // The domains trailer comes last and carries both domains.
  const std::string bytes = written(JsonStyle::kCompact, docs[2].first);
  EXPECT_NE(bytes.find(",\"domains\":[{\"name\":\"big\",\"energy_j\":1.5,"),
            std::string::npos)
      << bytes;
  const sweep::SummaryRow back =
      sweep::summary_row_from_json(parse_json(bytes));
  ASSERT_EQ(back.domains.size(), 2u);
  EXPECT_EQ(back.domains[1].name, "LITTLE");
  EXPECT_EQ(back.error, row.error);
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

TEST(JsonParse, StringErrorsReportTheirOffset) {
  // The offset is just past the offending character, whether it opens
  // the string, ends a run of plain characters or sits between runs.
  const std::pair<std::string, std::string> cases[] = {
      {"\"\x01\"", "unescaped control character in string at offset 2"},
      {"\"ab\x01" "cd\"", "unescaped control character in string at offset 4"},
      {"{\"k\x1f\":1}", "unescaped control character in string at offset 4"},
      {"[\"ok\\n\", \"x\ty\"]",
       "unescaped control character in string at offset 12"},
      {"\"abc\\ndef\ng\"",
       "unescaped control character in string at offset 10"},
      {"\"abc\\qdef\"", "invalid escape at offset 6"},
      {"\"a\\tb\\xc\"", "invalid escape at offset 7"},
      {"\"\\u00zz\"", "invalid \\u escape at offset 6"},
      {"\"abc", "unexpected end of input at offset 4"},
      {"\"abc\\", "unexpected end of input at offset 5"},
  };
  for (const auto& [text, why] : cases) {
    try {
      parse_json(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const JsonError& e) {
      EXPECT_EQ(e.what(), "json: " + why) << text;
    }
  }
}

TEST(JsonParse, IntegerAccessorsRequireAnExactInteger) {
  EXPECT_EQ(parse_json("-1").as_int64(), -1);
  EXPECT_EQ(parse_json("0").as_uint64(), 0u);
  EXPECT_EQ(parse_json("-9223372036854775808").as_int64(),
            std::numeric_limits<std::int64_t>::min());
  // A fraction, an exponent or an out-of-range value is not silently
  // truncated to some other integer.
  for (const char* token : {"1.9", "1.0", "1e3", "1E0", "0.5", "-0.0",
                            "9223372036854775808", "1e-3"}) {
    EXPECT_THROW(parse_json(token).as_int64(), JsonError) << token;
  }
  for (const char* token : {"1.9", "1.0", "1e3", "-1", "-0",
                            "18446744073709551616", "2.5e1"}) {
    EXPECT_THROW(parse_json(token).as_uint64(), JsonError) << token;
  }
  // Non-numbers stay type errors.
  EXPECT_THROW(parse_json("\"7\"").as_uint64(), JsonError);
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
