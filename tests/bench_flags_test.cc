// The bench drivers' flag parser (bench/bench_common.h): every numeric
// flag is decimal digits in its range, and a bad value names the flag and
// exits 2 instead of running a silently different experiment.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace face {
namespace bench {
namespace {

BenchFlags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlagsTest, ParsesNumbers) {
  const BenchFlags f = Parse({"--warehouses=2", "--warmup=100", "--txns=0",
                              "--seed=18446744073709551615", "--shards=4"});
  EXPECT_EQ(f.warehouses, 2u);
  EXPECT_EQ(f.warmup_txns, 100u);
  EXPECT_EQ(f.txns, 0u);  // 0 = the bench's default
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_EQ(f.shards, 4u);
}

TEST(BenchFlagsDeathTest, RejectsNonDigits) {
  // Used to parse to 0 = "default": the run silently did 3,000 txns.
  EXPECT_EXIT(Parse({"--txns=abc"}), testing::ExitedWithCode(2),
              "--txns=abc");
  EXPECT_EXIT(Parse({"--warmup=12x"}), testing::ExitedWithCode(2),
              "--warmup=12x");
  EXPECT_EXIT(Parse({"--txns="}), testing::ExitedWithCode(2), "--txns=");
  EXPECT_EXIT(Parse({"--shards=two"}), testing::ExitedWithCode(2),
              "--shards=two");
}

TEST(BenchFlagsDeathTest, RejectsSigns) {
  // Used to wrap to 2^64 - 1.
  EXPECT_EXIT(Parse({"--seed=-1"}), testing::ExitedWithCode(2), "--seed=-1");
  EXPECT_EXIT(Parse({"--txns=+5"}), testing::ExitedWithCode(2), "--txns=\\+5");
}

TEST(BenchFlagsDeathTest, RejectsOutOfRange) {
  // Zero warehouses built an image and then divided by zero.
  EXPECT_EXIT(Parse({"--warehouses=0"}), testing::ExitedWithCode(2),
              "--warehouses=0");
  EXPECT_EXIT(Parse({"--warehouses=4294967296"}), testing::ExitedWithCode(2),
              "--warehouses=4294967296");
  EXPECT_EXIT(Parse({"--seed=18446744073709551616"}),
              testing::ExitedWithCode(2), "--seed=18446744073709551616");
}

}  // namespace
}  // namespace bench
}  // namespace face
