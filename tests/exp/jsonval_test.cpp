// Parser/serializer unit tests for the scenario JSON layer (exp/jsonval).
#include "exp/jsonval.hpp"

#include <gtest/gtest.h>

#include <string>

namespace radiocast::exp {
namespace {

TEST(JsonVal, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_EQ(json_parse("42").as_uint(), 42u);
  EXPECT_EQ(json_parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(json_parse("2.5").as_double(), 2.5);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
  // The rest of the RFC 8259 number grammar.
  EXPECT_EQ(json_parse("0").as_int(), 0);
  EXPECT_EQ(json_parse("-0").as_int(), 0);
  EXPECT_DOUBLE_EQ(json_parse("0.25").as_double(), 0.25);
  EXPECT_DOUBLE_EQ(json_parse("-0.5").as_double(), -0.5);
  EXPECT_DOUBLE_EQ(json_parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(json_parse("1E+3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(json_parse("-1.5e-3").as_double(), -0.0015);
}

TEST(JsonVal, IntegersSurviveExactly) {
  // 2^63-1 and large uint64 values must not round-trip through double.
  EXPECT_EQ(json_parse("9223372036854775807").as_int(), INT64_MAX);
  EXPECT_EQ(json_parse("18446744073709551615").as_uint(), UINT64_MAX);
  EXPECT_EQ(json_serialize(json_parse("18446744073709551615")),
            "18446744073709551615");
}

TEST(JsonVal, NumericKindsCompareEqual) {
  // 3 parsed as int equals 3.0 parsed as double — axis digests must not
  // depend on whether the author wrote a decimal point.
  EXPECT_EQ(json_parse("3"), json_parse("3.0"));
  EXPECT_NE(json_parse("3"), json_parse("3.5"));
}

TEST(JsonVal, ObjectPreservesInsertionOrder) {
  const JsonValue v = json_parse(R"({"z": 1, "a": 2, "m": 3})");
  std::string keys;
  for (const auto& [k, val] : v.as_object().members()) keys += k;
  EXPECT_EQ(keys, "zam");
  EXPECT_EQ(json_serialize(v), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonVal, ObjectEqualityIsOrderInsensitive) {
  EXPECT_EQ(json_parse(R"({"a":1,"b":2})"), json_parse(R"({"b":2,"a":1})"));
  EXPECT_NE(json_parse(R"({"a":1})"), json_parse(R"({"a":1,"b":2})"));
}

TEST(JsonVal, RejectsDuplicateKeys) {
  EXPECT_THROW(json_parse(R"({"a":1,"a":2})"), JsonError);
}

TEST(JsonVal, RejectsTrailingGarbageAndSyntaxErrors) {
  EXPECT_THROW(json_parse("{} x"), JsonError);
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("[1,]"), JsonError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(json_parse(""), JsonError);
  // Numbers outside the RFC 8259 grammar: leading zeros, a bare '.', and a
  // '.' without fraction digits.
  for (const char* bad : {"01", "00", "-01", ".5", "-.5", "1.", "1.e3", "-", "+1",
                          "1e", "1e+", R"({"loss":[.5]})", R"({"loss":[00]})"}) {
    EXPECT_THROW(json_parse(bad), JsonError) << bad;
  }
  try {
    json_parse("{\n  \"seeds\": 01\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at 2:13: leading zero"), std::string::npos)
        << e.what();
  }
}

TEST(JsonVal, NestingDeeperThanTheLimitIsRejected) {
  // 64 levels parse; one more fails with a position instead of recursing
  // on, and so does a document deep enough to overflow the stack if it did.
  const auto nested = [](std::size_t depth, char open, char close) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) {
      text += open;
      if (open == '{') text += "\"k\":";
    }
    text += "0";
    return text + std::string(depth, close);
  };
  EXPECT_NO_THROW(json_parse(nested(64, '[', ']')));
  EXPECT_NO_THROW(json_parse(nested(64, '{', '}')));
  EXPECT_THROW(json_parse(nested(65, '[', ']')), JsonError);
  EXPECT_THROW(json_parse(nested(65, '{', '}')), JsonError);
  try {
    json_parse(nested(100000, '[', ']'));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at 1:65: nesting deeper than 64 levels"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonVal, ErrorsCarryLineAndColumn) {
  try {
    json_parse("{\n  \"a\": ?\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at 2:"), std::string::npos) << e.what();
  }
}

TEST(JsonVal, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\nb\t\"\\")").as_string(), "a\nb\t\"\\");
  // Surrogate pair: U+1F600 GRINNING FACE.
  EXPECT_EQ(json_parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(json_parse(R"("\ud83d")"), JsonError);  // lone high surrogate
}

TEST(JsonVal, RoundTripIsStable) {
  const std::string text =
      R"({"s":"x","i":-3,"u":42,"d":1.5,"b":true,"n":null,"a":[1,2],"o":{"k":0}})";
  const JsonValue v = json_parse(text);
  EXPECT_EQ(json_serialize(v), text);
  EXPECT_EQ(json_parse(json_serialize(v)), v);
}

TEST(JsonVal, PrettyPrintReparsesIdentically) {
  const JsonValue v = json_parse(R"({"a":[1,{"b":2}],"c":"x"})");
  const std::string pretty = json_serialize(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(json_parse(pretty), v);
}

TEST(JsonVal, AccessorsReportDottedPathOnTypeError) {
  const JsonValue v = json_parse(R"({"a": "str"})");
  try {
    v.as_object().find("a")->as_uint("scenario.a");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.a"), std::string::npos);
  }
}

TEST(JsonVal, MutableFindAllowsInPlaceUpdate) {
  JsonValue v = json_parse(R"({"env":{"t":""}})");
  JsonValue* env = v.as_object().find("env");
  ASSERT_NE(env, nullptr);
  env->as_object().set("t", "stamped");
  EXPECT_EQ(json_serialize(v), R"({"env":{"t":"stamped"}})");
}

}  // namespace
}  // namespace radiocast::exp
