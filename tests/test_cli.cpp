#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace gpurel {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const Cli c = make({"--runs=50", "--name=hello"});
  EXPECT_EQ(c.get_int("runs", 0), 50);
  EXPECT_EQ(c.get("name"), "hello");
}

TEST(Cli, ParsesSpaceForm) {
  const Cli c = make({"--runs", "75"});
  EXPECT_EQ(c.get_int("runs", 0), 75);
}

TEST(Cli, BareFlagIsTrue) {
  const Cli c = make({"--csv"});
  EXPECT_TRUE(c.get_bool("csv"));
  EXPECT_FALSE(c.get_bool("other"));
  EXPECT_TRUE(c.get_bool("other", true));
}

TEST(Cli, ExplicitFalse) {
  const Cli c = make({"--csv=false", "--x=0"});
  EXPECT_FALSE(c.get_bool("csv", true));
  EXPECT_FALSE(c.get_bool("x", true));
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli c = make({});
  EXPECT_EQ(c.get_int("runs", 42), 42);
  EXPECT_DOUBLE_EQ(c.get_double("flux", 1.5), 1.5);
  EXPECT_EQ(c.get("name", "d"), "d");
  EXPECT_FALSE(c.has("runs"));
}

TEST(Cli, MalformedNumbersThrow) {
  const Cli c = make({"--runs=abc", "--flux=1.2.3"});
  EXPECT_THROW(c.get_int("runs", 0), std::exception);
  EXPECT_THROW(c.get_double("flux", 0), std::exception);
}

TEST(Cli, EnvFallback) {
  ::setenv("GPUREL_TEST_ENV", "123", 1);
  const Cli c = make({});
  EXPECT_EQ(c.get_int_env("runs", "GPUREL_TEST_ENV", 7), 123);
  const Cli c2 = make({"--runs=9"});
  EXPECT_EQ(c2.get_int_env("runs", "GPUREL_TEST_ENV", 7), 9);  // flag wins
  ::unsetenv("GPUREL_TEST_ENV");
  EXPECT_EQ(c.get_int_env("runs", "GPUREL_TEST_ENV", 7), 7);
}

// Regression: the environment fallback parsed with a bare std::stoll, so
// GPUREL_RUNS=80x silently gave 80 while --runs=80x threw.
TEST(Cli, MalformedEnvNumbersThrow) {
  const Cli c = make({});
  for (const char* bad : {"80x", "abc", "", "1.5", "99999999999999999999"}) {
    ::setenv("GPUREL_TEST_ENV", bad, 1);
    EXPECT_THROW(c.get_int_env("runs", "GPUREL_TEST_ENV", 7),
                 std::invalid_argument)
        << '"' << bad << '"';
  }
  ::unsetenv("GPUREL_TEST_ENV");
}

TEST(Cli, CountsRejectNegativeAndOversizedValues) {
  const Cli c = make({"--shards=3", "--zero=0", "--max=4294967295",
                      "--neg=-1", "--big=4294967296", "--junk=2x"});
  EXPECT_EQ(c.get_uint("shards", 1), 3u);
  EXPECT_EQ(c.get_uint("zero", 1), 0u);
  EXPECT_EQ(c.get_uint("max", 1), 4294967295u);
  EXPECT_EQ(c.get_uint("absent", 9), 9u);
  EXPECT_THROW(c.get_uint("neg", 1), std::invalid_argument);
  EXPECT_THROW(c.get_uint("big", 1), std::invalid_argument);
  EXPECT_THROW(c.get_uint("junk", 1), std::invalid_argument);

  // With an environment fallback: the flag wins, then the variable, and
  // both are range-checked.
  ::setenv("GPUREL_TEST_ENV", "-4", 1);
  EXPECT_EQ(c.get_uint("shards", 1, "GPUREL_TEST_ENV"), 3u);
  EXPECT_THROW(c.get_uint("workers", 1, "GPUREL_TEST_ENV"),
               std::invalid_argument);
  ::setenv("GPUREL_TEST_ENV", "5", 1);
  EXPECT_EQ(c.get_uint("workers", 1, "GPUREL_TEST_ENV"), 5u);
  ::unsetenv("GPUREL_TEST_ENV");
  EXPECT_EQ(c.get_uint("workers", 1, "GPUREL_TEST_ENV"), 1u);
}

TEST(Cli, DoubleParsing) {
  const Cli c = make({"--flux=3.5e6"});
  EXPECT_DOUBLE_EQ(c.get_double("flux", 0), 3.5e6);
}

}  // namespace
}  // namespace gpurel
