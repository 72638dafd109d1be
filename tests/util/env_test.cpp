// Strict env parsing (util/env.hpp): CCQ_POOL_THREADS sizes the
// scheduler's worker pool; a malformed override must fail loudly, never
// silently become hardware concurrency or a truncated prefix.

#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ccq {
namespace {

TEST(ParseUintStrict, AcceptsWholeDecimals) {
  EXPECT_EQ(parse_uint_strict("0", 0, 10, "x"), 0u);
  EXPECT_EQ(parse_uint_strict("8", 1, 64, "x"), 8u);
  EXPECT_EQ(parse_uint_strict("18446744073709551615", 0, ~0ull, "x"), ~0ull);
}

TEST(ParseUintStrict, RejectsEverythingElse) {
  EXPECT_THROW(parse_uint_strict("", 0, 10, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict("8x", 1, 64, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict("x8", 1, 64, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict("-1", 0, 64, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict("3.5", 0, 64, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict(" 8", 0, 64, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict("18446744073709551616", 0, ~0ull, "x"),
               ModelViolation);  // 2^64: one past the widest representable
}

TEST(ParseUintStrict, EnforcesRange) {
  EXPECT_THROW(parse_uint_strict("0", 1, 64, "x"), ModelViolation);
  EXPECT_THROW(parse_uint_strict("65", 1, 64, "x"), ModelViolation);
  EXPECT_EQ(parse_uint_strict("64", 1, 64, "x"), 64u);
}

TEST(ParseEnvUint, UnsetAndEmptyMeanDefault) {
  ::unsetenv("CCQ_TEST_ENV_UINT");
  EXPECT_EQ(parse_env_uint("CCQ_TEST_ENV_UINT", 1, 64), std::nullopt);
  ::setenv("CCQ_TEST_ENV_UINT", "", 1);
  EXPECT_EQ(parse_env_uint("CCQ_TEST_ENV_UINT", 1, 64), std::nullopt);
}

TEST(ParseEnvUint, SetValuesAreStrict) {
  ::setenv("CCQ_TEST_ENV_UINT", "12", 1);
  EXPECT_EQ(parse_env_uint("CCQ_TEST_ENV_UINT", 1, 64), 12u);
  // The historical failure mode: "8x" used to silently run 8 workers.
  ::setenv("CCQ_TEST_ENV_UINT", "8x", 1);
  EXPECT_THROW(parse_env_uint("CCQ_TEST_ENV_UINT", 1, 64), ModelViolation);
  // ...and garbage silently fell back to hardware concurrency.
  ::setenv("CCQ_TEST_ENV_UINT", "lots", 1);
  EXPECT_THROW(parse_env_uint("CCQ_TEST_ENV_UINT", 1, 64), ModelViolation);
  ::setenv("CCQ_TEST_ENV_UINT", "999", 1);
  EXPECT_THROW(parse_env_uint("CCQ_TEST_ENV_UINT", 1, 64), ModelViolation);
  ::unsetenv("CCQ_TEST_ENV_UINT");
}

}  // namespace
}  // namespace ccq
