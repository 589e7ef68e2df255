// Tests for the typed spec-string parameter map (util/params).
#include <gtest/gtest.h>

#include <string>

#include "util/params.hpp"

namespace pns {
namespace {

TEST(ParamMap, ParsesAndSerializesRoundTrip) {
  const std::string text = "v_q=0.04,ordering=freq-first,steps=3";
  const ParamMap map = ParamMap::parse(text);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.serialize(), text);
  EXPECT_EQ(ParamMap::parse(map.serialize()), map);
}

TEST(ParamMap, EmptyTextIsEmptyMap) {
  const ParamMap map = ParamMap::parse("");
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.serialize(), "");
}

TEST(ParamMap, TypedGetters) {
  const ParamMap map =
      ParamMap::parse("a=0.5,b=-3,c=hello,d=true,e=0,u=42");
  EXPECT_DOUBLE_EQ(map.get_double("a", 0.0), 0.5);
  EXPECT_EQ(map.get_int("b", 0), -3);
  EXPECT_EQ(map.get_string("c", ""), "hello");
  EXPECT_TRUE(map.get_bool("d", false));
  EXPECT_FALSE(map.get_bool("e", true));
  EXPECT_EQ(map.get_uint("u", 0), 42u);
  // Absent keys fall back.
  EXPECT_DOUBLE_EQ(map.get_double("zz", 1.5), 1.5);
  EXPECT_EQ(map.get_string("zz", "dflt"), "dflt");
}

TEST(ParamMap, DoubleSettersRoundTripBitExactly) {
  // shortest_double encoding: the decoded value is the identical double.
  const double value = 0.1 + 0.2;  // not exactly 0.3
  ParamMap map;
  map.set_double("x", value);
  const ParamMap back = ParamMap::parse(map.serialize());
  EXPECT_EQ(back.get_double("x", 0.0), value);
}

TEST(ParamMap, MalformedTextThrows) {
  EXPECT_THROW(ParamMap::parse("novalue"), ParamError);
  EXPECT_THROW(ParamMap::parse("=3"), ParamError);
  EXPECT_THROW(ParamMap::parse("a=1,,b=2"), ParamError);
  EXPECT_THROW(ParamMap::parse("sp ace=1"), ParamError);
  EXPECT_THROW(ParamMap::parse("a=1,a=2"), ParamError);  // duplicate
  EXPECT_THROW(ParamMap::parse("a=1,"), ParamError);     // trailing comma
}

TEST(ParamMap, OutOfRangeValuesThrowInsteadOfTruncating) {
  // Overflowing int64 / double tokens.
  EXPECT_THROW(ParamMap::parse("a=99999999999999999999").get_int("a", 0),
               ParamError);
  EXPECT_THROW(ParamMap::parse("a=1e999").get_double("a", 0.0), ParamError);
  // Fits int64 but not int: get_int32 must refuse, not wrap to 1.
  EXPECT_THROW(ParamMap::parse("a=4294967297").get_int32("a", 0),
               ParamError);
  EXPECT_EQ(ParamMap::parse("a=-7").get_int32("a", 0), -7);
}

TEST(ParamMap, BadTypedValuesThrowNamingKeyAndType) {
  const ParamMap map = ParamMap::parse("a=abc,b=1.5,c=maybe");
  try {
    map.get_double("a", 0.0);
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
  EXPECT_THROW(map.get_int("b", 0), ParamError);   // 1.5 not an int
  EXPECT_THROW(map.get_bool("c", false), ParamError);
  EXPECT_THROW(map.get_uint("a", 0), ParamError);
}

TEST(FlagNumbers, WholeFiniteAndInRangeOrNamedError) {
  EXPECT_EQ(parse_number("--minutes", "2.5"), 2.5);
  EXPECT_EQ(parse_number("--minutes", "-3"), -3.0);  // kAny: sign is free
  EXPECT_EQ(parse_number("--tol", "0", NumberSign::kNonNegative), 0.0);
  EXPECT_EQ(parse_number("--poll", "1e-3", NumberSign::kPositive), 1e-3);
  for (const char* bad : {"", "abc", "2x", "nan", "inf", "1e999"})
    EXPECT_THROW(parse_number("--minutes", bad), ParamError) << bad;
  EXPECT_THROW(parse_number("--tol", "-0.1", NumberSign::kNonNegative),
               ParamError);
  EXPECT_THROW(parse_number("--poll", "0", NumberSign::kPositive),
               ParamError);

  EXPECT_EQ(parse_count("--threads", "0"), 0u);
  EXPECT_EQ(parse_count("--threads", "12", 12), 12u);
  for (const char* bad : {"", "x", "-1", " -1", "-0", "+1", " 1", "1.5",
                          "3 ", "99999999999999999999"})
    EXPECT_THROW(parse_count("--threads", bad), ParamError) << bad;
  EXPECT_THROW(parse_count("--threads", "13", 12), ParamError);

  try {
    parse_count("--lease-rows", "2.5");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_STREQ(e.what(),
                 "invalid --lease-rows '2.5': expected a whole number from "
                 "0 to 18446744073709551615");
  }
  try {
    parse_number("--idle-poll", "abc", NumberSign::kPositive);
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    EXPECT_STREQ(e.what(),
                 "invalid --idle-poll 'abc': expected a finite number > 0");
  }
}

TEST(ParamMap, ValidateKeysListsValidChoices) {
  const std::vector<ParamInfo> valid = {
      {"period", "double", "0.1", "sampling period"},
      {"up_threshold", "double", "0.95", "threshold"},
  };
  const ParamMap ok = ParamMap::parse("period=0.05");
  EXPECT_NO_THROW(ok.validate_keys(valid, "governor 'ondemand'"));

  const ParamMap bad = ParamMap::parse("perod=0.05");
  try {
    bad.validate_keys(valid, "governor 'ondemand'");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("governor 'ondemand'"), std::string::npos);
    EXPECT_NE(what.find("'perod'"), std::string::npos);
    EXPECT_NE(what.find("period"), std::string::npos);
    EXPECT_NE(what.find("up_threshold"), std::string::npos);
  }
}

TEST(ParamMap, ValidateTypesCatchesMalformedValues) {
  const std::vector<ParamInfo> valid = {
      {"period", "double", "0.1", ""},
      {"name", "string", "", ""},
  };
  EXPECT_NO_THROW(ParamMap::parse("period=0.5,name=x").validate_types(valid));
  EXPECT_THROW(ParamMap::parse("period=abc").validate_types(valid),
               ParamError);
}

TEST(ParamMap, SetInsertsAndOverwrites) {
  ParamMap map;
  map.set("k", "1");
  map.set("j", "2");
  map.set("k", "3");
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.serialize(), "k=3,j=2");
}

TEST(SplitSpecString, SplitsKindFromParams) {
  auto p = split_spec_string("pns");
  EXPECT_EQ(p.kind, "pns");
  EXPECT_EQ(p.params, "");

  p = split_spec_string("static:opp=4");
  EXPECT_EQ(p.kind, "static");
  EXPECT_EQ(p.params, "opp=4");

  // Multi-segment kinds keep their colon; params may contain ':'.
  p = split_spec_string("gov:ondemand:period=0.05,up_threshold=0.9");
  EXPECT_EQ(p.kind, "gov:ondemand");
  EXPECT_EQ(p.params, "period=0.05,up_threshold=0.9");

  p = split_spec_string("trace:file=/data/run:3.csv");
  EXPECT_EQ(p.kind, "trace");
  EXPECT_EQ(p.params, "file=/data/run:3.csv");

  p = split_spec_string("gov:ondemand");
  EXPECT_EQ(p.kind, "gov:ondemand");
  EXPECT_EQ(p.params, "");

  EXPECT_THROW(split_spec_string("k=v"), ParamError);  // no kind at all
}

}  // namespace
}  // namespace pns
