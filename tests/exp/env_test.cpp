// Environment-variable helpers shared by the benches and the CLI: every
// malformed value falls back to the default instead of being half-read.
#include "exp/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace radiocast::exp {
namespace {

constexpr const char* kVar = "RADIOCAST_TEST_ENV_INT";

TEST(EnvInt, ReadsAPositiveInteger) {
  ::setenv(kVar, "12", 1);
  EXPECT_EQ(env_int(kVar, 3), 12);
  ::unsetenv(kVar);
  EXPECT_EQ(env_int(kVar, 3), 3);
}

TEST(EnvInt, MalformedOrNonPositiveValuesFallBack) {
  for (const char* value : {"", "4x", "x4", " 4", "+4", "4.0", "0", "-2",
                            "99999999999"}) {
    ::setenv(kVar, value, 1);
    EXPECT_EQ(env_int(kVar, 3), 3) << '"' << value << '"';
  }
  ::unsetenv(kVar);
}

}  // namespace
}  // namespace radiocast::exp
