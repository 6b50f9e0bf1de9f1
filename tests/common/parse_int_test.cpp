// Strict whole-token integer parsing (the CLI and env-var helpers use it).
#include "common/parse_int.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <string>

namespace radiocast {
namespace {

TEST(ParseInt, AcceptsWholeDecimalTokens) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int(std::to_string(INT_MAX)), INT_MAX);
  EXPECT_EQ(parse_int(std::to_string(INT_MIN)), INT_MIN);
}

TEST(ParseInt, RejectsPartialMalformedAndOutOfRangeTokens) {
  for (const char* text : {"", "1x", "x1", " 1", "1 ", "+1", "1.0", "0x10", "-",
                           "2147483648", "-2147483649", "99999999999"}) {
    EXPECT_FALSE(parse_int(text).has_value()) << '"' << text << '"';
  }
}

}  // namespace
}  // namespace radiocast
