// End-to-end testbed tests: the full rig (golden image, clone, warmup,
// measured runs, crash, recovery) across cache policies. These are the
// system-level checks the benches rely on.
#include "testbed/testbed.h"

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "core/face_cache.h"
#include "testbed/crash_storm.h"
#include "tests/test_util.h"
#include "tpcc/schema.h"
#include "tpcc/workload.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

/// The tables of `tb`'s TPC-C driver (the shared golden image's workload).
tpcc::Tables& TablesOf(Testbed& tb) {
  return *static_cast<tpcc::Workload*>(tb.workload())->tables();
}

TestbedOptions BaseOptions(CachePolicy policy) {
  const GoldenImage& golden = SharedGolden();
  TestbedOptions opts;
  opts.policy = policy;
  opts.flash_pages = golden.db_pages() / 10;  // 10 % of the database
  opts.clients = 8;
  return opts;
}

/// crc32c over every page of `dev`, read without charging time.
uint32_t ContentsCrc(SimDevice* dev) {
  const bool timed = dev->timing_enabled();
  dev->set_timing_enabled(false);
  std::string page(kPageSize, '\0');
  uint32_t crc = 0;
  for (uint64_t b = 0; b < dev->capacity_pages(); ++b) {
    EXPECT_TRUE(dev->Read(b, page.data()).ok());
    crc = crc32c::Extend(crc, page.data(), kPageSize);
  }
  dev->set_timing_enabled(timed);
  return crc;
}

TEST(GoldenImageTest, BuildsPlausibleDatabase) {
  const GoldenImage& golden = SharedGolden();
  ASSERT_NE(golden.device, nullptr);
  // One warehouse: >= 100k stock + 30k customers + 30k orders + ~300k order
  // lines; with 4 KB pages that is at least 15k pages.
  EXPECT_GT(golden.db_pages(), 15000u);
  EXPECT_LT(golden.db_pages(), GoldenImage::CapacityPages(1));
}

TEST(TestbedTest, RunsTransactionsWithoutCache) {
  Testbed tb(BaseOptions(CachePolicy::kNone), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 300;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(run));
  EXPECT_EQ(result.txns, 300u);
  EXPECT_GT(result.duration, 0u);
  EXPECT_GT(result.primary_txns, 60u);  // NewOrders, ~45 % of the mix
  EXPECT_GT(result.Tpm(), 0.0);
  // Without a flash cache every miss is a disk fetch.
  EXPECT_EQ(result.pool_stats.flash_fetches, 0u);
  EXPECT_GT(result.pool_stats.disk_fetches, 0u);
}

class TestbedPolicyTest : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(TestbedPolicyTest, SteadyStateRunsAndHits) {
  Testbed tb(BaseOptions(GetParam()), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  FACE_ASSERT_OK(tb.Warmup(600));
  RunOptions run;
  run.txns = 400;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(run));
  EXPECT_EQ(result.txns, 400u);
  // All policies must produce flash hits once warmed.
  EXPECT_GT(result.cache_stats.lookups, 0u);
  EXPECT_GT(result.cache_stats.hits, 0u);
  EXPECT_GT(result.pool_stats.flash_fetches, 0u);
  FACE_EXPECT_OK(tb.cache()->CheckInvariants());

  // Every cache counter, delta_* included, is a run delta: an empty run
  // after the measured one reports zero for all of them.
  run.txns = 0;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult idle, tb.Run(run));
  for (uint64_t CacheStats::*f : kCacheCounters) {
    EXPECT_EQ(idle.cache_stats.*f, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TestbedPolicyTest,
    ::testing::Values(CachePolicy::kFace, CachePolicy::kFaceGR,
                      CachePolicy::kFaceGSC, CachePolicy::kLc),
    [](const ::testing::TestParamInfo<CachePolicy>& pinfo) {
      std::string name = CachePolicyName(pinfo.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

class TestbedRecoveryTest : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(TestbedRecoveryTest, CrashRecoverResume) {
  Testbed tb(BaseOptions(GetParam()), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 400;
  run.checkpoint_interval = 5 * kNanosPerSecond;
  FACE_ASSERT_OK(tb.Run(run).status());

  FACE_ASSERT_OK(tb.InjectInflightTransactions(4));
  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  EXPECT_EQ(report.losers, 4u);
  EXPECT_GT(report.total_ns, 0u);

  // The system must keep working after recovery.
  RunOptions after;
  after.txns = 200;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(after));
  EXPECT_EQ(result.txns, 200u);
  FACE_EXPECT_OK(tb.cache()->CheckInvariants());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TestbedRecoveryTest,
    ::testing::Values(CachePolicy::kNone, CachePolicy::kFaceGSC,
                      CachePolicy::kLc),
    [](const ::testing::TestParamInfo<CachePolicy>& pinfo) {
      std::string name = CachePolicyName(pinfo.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(TestbedTest, FaceRecoveryFetchesMostPagesFromFlash) {
  Testbed tb(BaseOptions(CachePolicy::kFaceGSC), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  FACE_ASSERT_OK(tb.Warmup(1500));
  RunOptions run;
  run.txns = 800;
  run.checkpoint_interval = 5 * kNanosPerSecond;
  FACE_ASSERT_OK(tb.Run(run).status());
  FACE_ASSERT_OK(tb.InjectInflightTransactions(8));
  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  // Paper §5.5: >98 % of recovery fetches come from the flash cache. That
  // number needs production scale (50 GB database, hours of warmup); at
  // test scale require a solid plurality and let bench_paper's
  // table6_recovery preset report the full-scale fraction.
  if (report.pages_fetched > 20) {
    EXPECT_GT(report.FlashFetchFraction(), 0.4)
        << "flash=" << report.pages_from_flash
        << " disk=" << report.pages_from_disk;
  }
}

TEST(TestbedTest, CrashLosesNothingCommitted) {
  // Run a batch, remember one customer's balance committed by Payment-like
  // updates, crash, recover, and verify the balance survived.
  Testbed tb(BaseOptions(CachePolicy::kFaceGSC), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 150;
  FACE_ASSERT_OK(tb.Run(run).status());

  // Commit a recognizable update.
  Database* db = tb.db();
  const TxnId txn = db->Begin();
  PageWriter w = db->Writer(txn);
  std::string value, row;
  FACE_ASSERT_OK(
      TablesOf(tb).pk_customer.Get(tpcc::CustomerKey(1, 1, 1), &value));
  const Rid rid = tpcc::DecodeRid(value);
  FACE_ASSERT_OK(TablesOf(tb).customer.Read(rid, &row));
  tpcc::CustomerRow customer = tpcc::CustomerRow::Decode(row);
  customer.c_balance = 987654321;
  FACE_ASSERT_OK(TablesOf(tb).customer.Update(&w, rid, customer.Encode()));
  FACE_ASSERT_OK(db->Commit(txn));

  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK(tb.Recover().status());

  FACE_ASSERT_OK(
      TablesOf(tb).pk_customer.Get(tpcc::CustomerKey(1, 1, 1), &value));
  FACE_ASSERT_OK(TablesOf(tb).customer.Read(tpcc::DecodeRid(value), &row));
  EXPECT_EQ(tpcc::CustomerRow::Decode(row).c_balance, 987654321);
}

TEST(TestbedTest, UncommittedWorkIsRolledBack) {
  Testbed tb(BaseOptions(CachePolicy::kFaceGSC), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());

  std::string value, row;
  FACE_ASSERT_OK(
      TablesOf(tb).pk_customer.Get(tpcc::CustomerKey(1, 2, 7), &value));
  const Rid rid = tpcc::DecodeRid(value);
  FACE_ASSERT_OK(TablesOf(tb).customer.Read(rid, &row));
  const int64_t balance_before = tpcc::CustomerRow::Decode(row).c_balance;

  // Uncommitted update, then force it through to persistent storage via a
  // checkpoint (steal), then crash: undo must restore the old balance.
  Database* db = tb.db();
  const TxnId txn = db->Begin();
  PageWriter w = db->Writer(txn);
  tpcc::CustomerRow customer = tpcc::CustomerRow::Decode(row);
  customer.c_balance = -42424242;
  FACE_ASSERT_OK(TablesOf(tb).customer.Update(&w, rid, customer.Encode()));
  FACE_ASSERT_OK(db->TakeCheckpoint().status());

  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  EXPECT_EQ(report.losers, 1u);

  FACE_ASSERT_OK(TablesOf(tb).customer.Read(rid, &row));
  EXPECT_EQ(tpcc::CustomerRow::Decode(row).c_balance, balance_before);
}

TEST(TestbedTest, SmallFaceCacheLapsItsRingAndRestartsClean) {
  // Fewer than 1,024 frames: the default metadata segment (one block, at
  // most half the frames) keeps the unpersisted tail from overwriting
  // frames the persisted segments describe. Each round laps the ring,
  // crashes at another point of the segment cadence, restarts and audits
  // every mapped frame.
  TestbedOptions opts = BaseOptions(CachePolicy::kFace);
  opts.flash_pages = 300;
  Testbed tb(opts, &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint64_t rear0 = static_cast<FaceCache*>(tb.cache())->rear_seq();
    RunOptions run;
    run.txns = 100 + 37 * round;
    run.checkpoint_interval = 5 * kNanosPerSecond;
    FACE_ASSERT_OK(tb.Run(run).status());
    ASSERT_GT(static_cast<FaceCache*>(tb.cache())->rear_seq() - rear0,
              opts.flash_pages)
        << "the ring did not lap";
    FACE_ASSERT_OK(tb.InjectInflightTransactions(2));
    FACE_ASSERT_OK(tb.Crash());
    FACE_ASSERT_OK(tb.Recover().status());
    auto* face = static_cast<FaceCache*>(tb.cache());  // rebuilt by Recover
    FACE_ASSERT_OK(face->AuditFrames().status());
  }
}

TEST(TestbedTest, TestbedsSharingAGoldenMatchPrivateGoldens) {
  // A testbed's database device shares the golden image's pages until it
  // writes them. Two testbeds run alternately on one golden must simulate
  // exactly what each does on a golden of its own, and leave the golden's
  // bytes as the load wrote them.
  auto factory = std::make_shared<workload::YcsbFactory>(StormKv(1200));
  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden,
                            GoldenImage::BuildFor(factory));
  const uint32_t built = ContentsCrc(golden.device.get());
  TestbedOptions opts[2];
  for (TestbedOptions& o : opts) {
    o.clients = 8;
    o.buffer_frames = 64;  // small, so evictions write the database
  }
  opts[0].policy = CachePolicy::kFaceGSC;
  opts[0].flash_pages = 512;
  opts[1].seed = 7;
  RunOptions run;
  run.txns = 150;
  run.checkpoint_interval = kNanosPerSecond / 10;

  // Each testbed runs, crashes and recovers, then runs again; each step
  // reports its virtual duration.
  auto step = [&run](Testbed* tb, int k) -> StatusOr<SimNanos> {
    if (k == 1) {
      FACE_RETURN_IF_ERROR(tb->InjectInflightTransactions(2));
      FACE_RETURN_IF_ERROR(tb->Crash());
      FACE_ASSIGN_OR_RETURN(RestartReport report, tb->Recover());
      return report.total_ns;
    }
    FACE_ASSIGN_OR_RETURN(RunResult result, tb->Run(run));
    return result.duration;
  };
  constexpr int kSteps = 3;

  std::unique_ptr<Testbed> shared[2];
  SimNanos took[2][kSteps] = {};
  for (int i = 0; i < 2; ++i) {
    shared[i] = std::make_unique<Testbed>(opts[i], &golden);
    FACE_ASSERT_OK(shared[i]->Start());
  }
  for (int k = 0; k < kSteps; ++k) {
    for (int i = 0; i < 2; ++i) {
      FACE_ASSERT_OK_AND_ASSIGN(took[i][k], step(shared[i].get(), k));
    }
  }

  for (int i = 0; i < 2; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(GoldenImage own, GoldenImage::BuildFor(factory));
    Testbed alone(opts[i], &own);
    FACE_ASSERT_OK(alone.Start());
    for (int k = 0; k < kSteps; ++k) {
      FACE_ASSERT_OK_AND_ASSIGN(const SimNanos ns, step(&alone, k));
      EXPECT_EQ(ns, took[i][k]) << "testbed " << i << ", step " << k;
    }
    EXPECT_EQ(ContentsCrc(alone.db_dev()), ContentsCrc(shared[i]->db_dev()))
        << "testbed " << i;
    EXPECT_EQ(alone.db_dev()->stats().pages_written,
              shared[i]->db_dev()->stats().pages_written);
  }
  EXPECT_EQ(ContentsCrc(golden.device.get()), built);
}

TEST(TestbedTest, RepeatedCrashesConverge) {
  Testbed tb(BaseOptions(CachePolicy::kFaceGSC), &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  for (int round = 0; round < 3; ++round) {
    RunOptions run;
    run.txns = 120;
    run.checkpoint_interval = 5 * kNanosPerSecond;
    FACE_ASSERT_OK(tb.Run(run).status());
    FACE_ASSERT_OK(tb.InjectInflightTransactions(2));
    FACE_ASSERT_OK(tb.Crash());
    FACE_ASSERT_OK(tb.Recover().status());
  }
  RunOptions final_run;
  final_run.txns = 100;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(final_run));
  EXPECT_EQ(result.txns, 100u);
}

}  // namespace
}  // namespace face
