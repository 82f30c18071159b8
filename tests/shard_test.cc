// The sharded testbed: per-shard determinism (same seed -> bit-identical
// per-shard simulated fingerprints, at any shard count, on any thread
// interleaving), exact equivalence of a one-shard ShardedTestbed with a
// plain Testbed, throughput scale-up, workload partitioning, and the
// cross-shard (2PC) crash storm proving atomicity through every
// shard's audit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "testbed/crash_storm.h"
#include "testbed/sharded_testbed.h"
#include "tests/test_util.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

using workload::YcsbFactory;
using workload::YcsbOptions;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

std::shared_ptr<YcsbFactory> SmallYcsb(uint64_t records = 8000) {
  YcsbOptions o;
  o.records = records;
  o.value_bytes = 120;
  return std::make_shared<YcsbFactory>(o);
}

ShardedTestbedOptions SmallConfig(uint32_t shards, uint64_t records = 8000) {
  ShardedTestbedOptions so;
  so.shards = shards;
  so.base.clients = 8;
  so.base.seed = 42;
  so.base.policy = CachePolicy::kFace;
  so.base.buffer_frames = 128;
  so.factory = SmallYcsb(records);
  so.flash_ratio = 0.1;  // cache scales with each shard's slice
  return so;
}

/// The exact-integer shape of one shard's run — any drift fails.
struct ShardFingerprint {
  uint64_t duration, txns, primary, db_busy, log_busy, flash_busy, db_pages,
      log_pages, flash_pages, lookups, hits;

  bool operator==(const ShardFingerprint& o) const {
    return duration == o.duration && txns == o.txns && primary == o.primary &&
           db_busy == o.db_busy && log_busy == o.log_busy &&
           flash_busy == o.flash_busy && db_pages == o.db_pages &&
           log_pages == o.log_pages && flash_pages == o.flash_pages &&
           lookups == o.lookups && hits == o.hits;
  }
};

ShardFingerprint FingerprintOf(const RunResult& r) {
  return ShardFingerprint{r.duration,
                          r.txns,
                          r.primary_txns,
                          r.db_stats.busy_ns,
                          r.log_stats.busy_ns,
                          r.flash_stats.busy_ns,
                          r.db_stats.total_pages(),
                          r.log_stats.total_pages(),
                          r.flash_stats.total_pages(),
                          r.cache_stats.lookups,
                          r.cache_stats.hits};
}

/// Start, warm up, run, and fingerprint every shard of one configuration.
std::vector<ShardFingerprint> MeasureShards(const ShardedTestbedOptions& so,
                                            uint64_t warmup, uint64_t txns) {
  ShardedTestbed stb(so);
  if (!stb.Start().ok() || !stb.Warmup(warmup).ok()) return {};
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = 3 * kNanosPerSecond;
  std::vector<RunResult> per_shard;
  if (!stb.Run(run, &per_shard).ok()) return {};
  std::vector<ShardFingerprint> fps;
  for (const RunResult& r : per_shard) fps.push_back(FingerprintOf(r));
  return fps;
}

TEST(ShardTest, PerShardDeterminismAcrossShardCounts) {
  // The contract: rebuilding the whole rig and replaying the same seed
  // reproduces every shard's virtual-time execution exactly, no matter how
  // the worker threads interleave in wall time — at every shard count.
  for (const uint32_t shards : {1u, 2u, 4u}) {
    const auto first = MeasureShards(SmallConfig(shards), 150, 250);
    ASSERT_EQ(first.size(), shards) << "run failed at " << shards << " shards";
    const auto second = MeasureShards(SmallConfig(shards), 150, 250);
    ASSERT_EQ(second.size(), shards);
    for (uint32_t i = 0; i < shards; ++i) {
      EXPECT_TRUE(first[i] == second[i])
          << "shard " << i << "/" << shards
          << " diverged between identical replays (duration " << first[i].duration
          << " vs " << second[i].duration << ", txns " << first[i].txns
          << " vs " << second[i].txns << ")";
    }
  }
}

TEST(ShardTest, ShardsRunDecorrelatedStreams) {
  // Different shards derive different seeds: their fingerprints must not
  // be copies of each other (same txns per shard, different schedules).
  const auto fps = MeasureShards(SmallConfig(2), 150, 250);
  ASSERT_EQ(fps.size(), 2u);
  EXPECT_FALSE(fps[0] == fps[1]);
}

TEST(ShardTest, OneShardMatchesPlainTestbed) {
  // A one-shard ShardedTestbed must be observationally identical to the
  // plain Testbed it wraps: same golden, same seed, same virtual schedule.
  const ShardedTestbedOptions so = SmallConfig(1);

  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden,
                            GoldenImage::BuildFor(so.factory));
  TestbedOptions to = so.base;
  to.flash_pages = static_cast<uint64_t>(
      so.flash_ratio * static_cast<double>(golden.db_pages()));
  Testbed plain(to, &golden);
  FACE_ASSERT_OK(plain.Start());
  FACE_ASSERT_OK(plain.Warmup(150));
  RunOptions run;
  run.txns = 250;
  run.checkpoint_interval = 3 * kNanosPerSecond;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult plain_result, plain.Run(run));

  ShardedTestbed stb(so);
  FACE_ASSERT_OK(stb.Start());
  FACE_ASSERT_OK(stb.Warmup(150));
  FACE_ASSERT_OK_AND_ASSIGN(RunResult sharded_result, stb.Run(run));

  EXPECT_TRUE(FingerprintOf(plain_result) == FingerprintOf(sharded_result))
      << "one-shard rig diverged from the plain testbed: duration "
      << plain_result.duration << " vs " << sharded_result.duration;
}

TEST(ShardTest, MergeSumsEveryCacheCounter) {
  std::vector<RunResult> per_shard(2);
  uint64_t value = 1;
  for (uint64_t CacheStats::*f : kCacheCounters) {
    per_shard[0].cache_stats.*f = value;
    per_shard[1].cache_stats.*f = 10 * value;
    ++value;
  }
  const RunResult merged = MergeRunResults(per_shard, TestbedOptions());
  value = 1;
  for (uint64_t CacheStats::*f : kCacheCounters) {
    EXPECT_EQ(merged.cache_stats.*f, 11 * value) << "counter #" << value;
    ++value;
  }
}

TEST(ShardTest, MergeSumsEveryDeviceAndPoolCounter) {
  std::vector<RunResult> per_shard(2);
  uint64_t value = 1;
  for (DeviceStats RunResult::*dev :
       {&RunResult::db_stats, &RunResult::flash_stats, &RunResult::log_stats}) {
    for (uint64_t DeviceStats::*f : kDeviceCounters) {
      (per_shard[0].*dev).*f = value;
      (per_shard[1].*dev).*f = 10 * value;
      ++value;
    }
  }
  for (uint64_t BufferPool::Stats::*f : kPoolCounters) {
    per_shard[0].pool_stats.*f = value;
    per_shard[1].pool_stats.*f = 10 * value;
    ++value;
  }
  const RunResult merged = MergeRunResults(per_shard, TestbedOptions());
  value = 1;
  for (DeviceStats RunResult::*dev :
       {&RunResult::db_stats, &RunResult::flash_stats, &RunResult::log_stats}) {
    for (uint64_t DeviceStats::*f : kDeviceCounters) {
      EXPECT_EQ((merged.*dev).*f, 11 * value) << "device counter #" << value;
      ++value;
    }
  }
  for (uint64_t BufferPool::Stats::*f : kPoolCounters) {
    EXPECT_EQ(merged.pool_stats.*f, 11 * value) << "pool counter #" << value;
    ++value;
  }
}

TEST(ShardTest, ThroughputScalesWithShards) {
  // Fig. 5-style scale-up: the same per-shard work at 4 shards finishes in
  // roughly the single-shard makespan, so machine throughput multiplies.
  // (Per-shard slice held constant: total records scale with the count.)
  auto tpm_at = [&](uint32_t shards) -> double {
    ShardedTestbedOptions so = SmallConfig(shards, 4000 * shards);
    ShardedTestbed stb(so);
    EXPECT_TRUE(stb.Start().ok());
    EXPECT_TRUE(stb.Warmup(150).ok());
    RunOptions run;
    run.txns = 250;
    auto merged = stb.Run(run);
    EXPECT_TRUE(merged.ok());
    return merged.ok() ? merged->Tpm() : 0.0;
  };
  const double tpm1 = tpm_at(1);
  const double tpm4 = tpm_at(4);
  EXPECT_GT(tpm4, 2.0 * tpm1)
      << "4 shards only reached " << tpm4 << " tpm vs " << tpm1
      << " on one shard";
}

TEST(ShardTest, PartitionSlicesCoverTheWholeWorkload) {
  const auto factory = SmallYcsb(1001);  // deliberately not divisible
  uint64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    const auto slice = factory->Partition(i, 4);
    ASSERT_NE(slice, nullptr);
    total += std::static_pointer_cast<const YcsbFactory>(slice)
                 ->options().records;
  }
  EXPECT_EQ(total, 1001u);
  // More shards than records: the overflowing shards must refuse.
  EXPECT_EQ(SmallYcsb(3)->Partition(3, 4), nullptr);
}

TEST(ShardTest, CrossShardAtomicityStorm) {
  // Sharded crash storms: concurrent per-shard crash workloads laced with
  // cross-shard 2PC transactions, one machine-wide power failure, parallel
  // recovery + in-doubt resolution — every audit must pass,
  // and every transaction cut mid-protocol must resolve atomically (all
  // started legs committed iff the decision record survived). Runs at
  // least SHARD_STORM_SEEDS storms and keeps going (bounded) until the
  // campaign has seen a mid-2PC cut, so the atomicity path is never
  // silently skipped.
  ShardedCrashStormOptions opts;
  opts.shards = 2;
  opts.cross_shard_txns = 24;
  // The whole workload: 600 rows per shard.
  opts.base.workload = std::make_shared<workload::YcsbFactory>(StormKv(1200));
  ShardedCrashStormHarness harness(opts);

  const uint64_t seeds = EnvOr("SHARD_STORM_SEEDS", 10);
  const uint64_t base = EnvOr("SHARD_STORM_BASE_SEED", 1);
  uint64_t run = 0, tripped = 0, cuts = 0, committed = 0;
  for (uint64_t seed = base; run < seeds || (cuts == 0 && run < seeds * 4);
       ++seed, ++run) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->audit.ok()) << "seed " << seed << "\n"
                                    << result->ToString();
    EXPECT_TRUE(result->atomicity_ok) << "seed " << seed << "\n"
                                      << result->ToString();
    if (result->crashed_mid_body) ++tripped;
    if (result->cross_cut_midway) ++cuts;
    committed += result->cross_committed;
  }
  EXPECT_GE(tripped, run / 2)
      << "too few sharded storms tripped the injector";
  EXPECT_GT(committed, 0u) << "no cross-shard transaction ever committed";
  EXPECT_GT(cuts, 0u) << "no storm ever cut a 2PC transaction mid-protocol ("
                      << run << " storms)";
  std::cout << "[ sharded storm ] " << run << " storms, " << tripped
            << " tripped, " << committed << " 2PC commits, " << cuts
            << " cut mid-protocol\n";
}

}  // namespace
}  // namespace face
