// Workload subsystem tests: distribution shapes, operation-mix ratios,
// trace record -> replay round trips (format and determinism), crash
// recovery under the KV workloads, and TPC-C driven through the generic
// interface with behavior matching the historical hard-wired path.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <map>

#include "fault/fault_injector.h"
#include "tests/test_util.h"
#include "workload/kv_table.h"
#include "workload/scan_workload.h"
#include "workload/tpcc_workload.h"
#include "workload/trace.h"
#include "workload/trace_workload.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

using workload::ScanHeavyFactory;
using workload::ScanHeavyOptions;
using workload::TpccFactory;
using workload::Trace;
using workload::TraceRecorder;
using workload::TraceReplayFactory;
using workload::YcsbFactory;
using workload::YcsbOptions;
using workload::YcsbWorkload;

// Small KV scale keeping golden builds fast; ~1k data pages.
YcsbOptions TestYcsb(YcsbOptions::Distribution dist) {
  YcsbOptions o = YcsbOptions::WithDistribution(dist);
  o.records = 8000;
  o.value_bytes = 200;
  return o;
}

/// One golden image per options shape, built once per test binary.
const GoldenImage& YcsbGolden(YcsbOptions::Distribution dist) {
  static std::map<int, GoldenImage>* images = new std::map<int, GoldenImage>();
  const int key = static_cast<int>(dist);
  auto it = images->find(key);
  if (it == images->end()) {
    auto g = GoldenImage::BuildFor(
        std::make_shared<YcsbFactory>(TestYcsb(dist)));
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    it = images->emplace(key, std::move(g.value())).first;
  }
  return it->second;
}

TestbedOptions SmallOptions(const GoldenImage& golden, CachePolicy policy) {
  TestbedOptions opts;
  opts.policy = policy;
  opts.flash_pages = golden.db_pages() / 5;
  opts.clients = 8;
  return opts;
}

// --- distribution shape ------------------------------------------------------

TEST(ZipfShapeTest, HeadConcentrationMatchesTheta) {
  ZipfGenerator zipf(10000, 0.99, /*seed=*/7);
  constexpr int kDraws = 50000;
  uint64_t top10 = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() < 10) ++top10;
  }
  // theta=0.99 over 10k keys: the top-10 ranks carry ~30 % of the mass.
  const double share = static_cast<double>(top10) / kDraws;
  EXPECT_GT(share, 0.20);
  EXPECT_LT(share, 0.45);
}

TEST(ZipfShapeTest, ThetaZeroIsUniform) {
  ZipfGenerator zipf(1000, 0.0, /*seed=*/7);
  constexpr int kDraws = 50000;
  uint64_t top10 = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next() < 10) ++top10;
  }
  const double share = static_cast<double>(top10) / kDraws;
  EXPECT_GT(share, 0.005);
  EXPECT_LT(share, 0.02);
}

TEST(YcsbKeyTest, LatestDistributionPrefersNewestKeys) {
  const GoldenImage& golden =
      YcsbGolden(YcsbOptions::Distribution::kLatest);
  Testbed tb(SmallOptions(golden, CachePolicy::kNone), &golden);
  FACE_ASSERT_OK(tb.Start());
  auto* ycsb = dynamic_cast<YcsbWorkload*>(tb.workload());
  ASSERT_NE(ycsb, nullptr);
  Random rnd(99);
  const uint64_t records = ycsb->options().records;
  uint64_t newest_decile = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (ycsb->ChooseKey(rnd) >= records - records / 10) ++newest_decile;
  }
  // Zipf-fast decay backwards from the newest key: far more than the 10 %
  // a uniform chooser would put in the newest decile.
  EXPECT_GT(static_cast<double>(newest_decile) / kDraws, 0.5);
}

// --- operation mix -----------------------------------------------------------

TEST(YcsbWorkloadTest, MixRatiosMatchConfiguration) {
  const GoldenImage& golden =
      YcsbGolden(YcsbOptions::Distribution::kZipfian);
  Testbed tb(SmallOptions(golden, CachePolicy::kNone), &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 2000;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(run));
  EXPECT_EQ(result.txns, 2000u);
  EXPECT_EQ(result.primary_txns, 2000u);  // every YCSB op counts

  const workload::WorkloadStats& stats = tb.workload()->stats();
  const auto share = [&](uint8_t type) {
    return static_cast<double>(stats.completed[type]) / 2000.0;
  };
  // Defaults: 50/44/3/3. Allow generous binomial slack.
  EXPECT_NEAR(share(YcsbWorkload::kRead), 0.50, 0.05);
  EXPECT_NEAR(share(YcsbWorkload::kUpdate), 0.44, 0.05);
  EXPECT_NEAR(share(YcsbWorkload::kInsert), 0.03, 0.02);
  EXPECT_NEAR(share(YcsbWorkload::kScan), 0.03, 0.02);
  EXPECT_GT(stats.rows_read, 0u);
  EXPECT_GT(stats.rows_written, 0u);
}

TEST(ScanHeavyWorkloadTest, ScansDominateRowsTouched) {
  static GoldenImage* golden = [] {
    ScanHeavyOptions opts;
    opts.records = 8000;
    opts.value_bytes = 200;
    auto g = GoldenImage::BuildFor(std::make_shared<ScanHeavyFactory>(opts));
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return new GoldenImage(std::move(g.value()));
  }();
  Testbed tb(SmallOptions(*golden, CachePolicy::kFaceGSC), golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 150;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(run));
  EXPECT_EQ(result.txns, 150u);
  // ~70 % scans of 100..800 rows: far more rows touched than transactions.
  EXPECT_GT(tb.workload()->stats().rows_read, 150u * 20);
  FACE_EXPECT_OK(tb.cache()->CheckInvariants());
}

// --- crash / recovery through the generic interface --------------------------

TEST(YcsbWorkloadTest, CrashRecoverResume) {
  const GoldenImage& golden =
      YcsbGolden(YcsbOptions::Distribution::kZipfian);
  Testbed tb(SmallOptions(golden, CachePolicy::kFaceGSC), &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 300;
  run.checkpoint_interval = 5 * kNanosPerSecond;
  FACE_ASSERT_OK(tb.Run(run).status());

  FACE_ASSERT_OK(tb.InjectInflightTransactions(3));
  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  EXPECT_EQ(report.losers, 3u);

  RunOptions after;
  after.txns = 200;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(after));
  EXPECT_EQ(result.txns, 200u);
  FACE_EXPECT_OK(tb.cache()->CheckInvariants());
}

// A 16-row YCSB table whose clients run only `pct_read` reads and
// otherwise updates, and one golden image per such shape.
const GoldenImage& TinyYcsbGolden(int pct_read) {
  static std::map<int, GoldenImage>* images = new std::map<int, GoldenImage>();
  auto it = images->find(pct_read);
  if (it == images->end()) {
    YcsbOptions o = TestYcsb(YcsbOptions::Distribution::kUniform);
    o.records = 16;
    o.pct_read = pct_read, o.pct_update = 100 - pct_read;
    o.pct_insert = 0, o.pct_scan = 0;
    auto g = GoldenImage::BuildFor(std::make_shared<YcsbFactory>(o));
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    it = images->emplace(pct_read, std::move(g.value())).first;
  }
  return it->second;
}

TEST(YcsbWorkloadTest, LiveReadCatchesARowNoClientCommitted) {
  const GoldenImage& golden = TinyYcsbGolden(/*pct_read=*/100);
  Testbed tb(SmallOptions(golden, CachePolicy::kNone), &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions one;
  one.txns = 1;
  FACE_ASSERT_OK(tb.Run(one).status());

  // Commit a new version of every row behind the clients' back: the next
  // read sees a row the ledger never recorded.
  FACE_ASSERT_OK_AND_ASSIGN(workload::KvTable table,
                            workload::KvTable::Open(*tb.db()));
  const TxnId txn = tb.db()->Begin();
  PageWriter w = tb.db()->Writer(txn);
  for (uint64_t key = 0; key < 16; ++key) {
    FACE_ASSERT_OK(table.Update(&w, key, 200, /*version=*/77));
  }
  FACE_ASSERT_OK(tb.db()->Commit(txn));

  const Status s = tb.Run(one).status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(YcsbWorkloadTest, NoClientRunsBeforeTheInDoubtWriteIsAudited) {
  const GoldenImage& golden = TinyYcsbGolden(/*pct_read=*/0);
  Testbed tb(SmallOptions(golden, CachePolicy::kNone), &golden);
  FACE_ASSERT_OK(tb.Start());

  // Power fails at the first log write: the update's commit force.
  FaultInjector inj;
  inj.AttachScheduler(tb.sched());
  tb.log_dev()->set_fault_injector(&inj);
  inj.TargetDevice("log");
  inj.ArmAfterWrites(1, /*seed=*/5);
  RunOptions one;
  one.txns = 1;
  ASSERT_FALSE(tb.Run(one).status().ok());
  ASSERT_TRUE(inj.tripped());
  FACE_ASSERT_OK(tb.Crash());
  inj.Disarm();
  FACE_ASSERT_OK(tb.Recover().status());

  // Whether that update committed is known only after an audit.
  const Status early = tb.Run(one).status();
  EXPECT_TRUE(early.IsInternal()) << early.ToString();
  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, tb.Audit());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_NE(audit.pending_outcome, workload::PendingOutcome::kNone);
  FACE_EXPECT_OK(tb.Run(one).status());
}

// --- trace record / replay ---------------------------------------------------

TEST(TraceTest, EncodeDecodeRoundTrip) {
  Trace trace;
  trace.BeginTxn();
  trace.Append(10, false);
  trace.Append(10, true);
  trace.Append(99999, false);
  trace.BeginTxn();  // empty transaction
  trace.BeginTxn();
  trace.Append(3, true);

  const std::string data = trace.Encode();
  FACE_ASSERT_OK_AND_ASSIGN(Trace back, Trace::Decode(data));
  EXPECT_TRUE(back == trace);
  EXPECT_EQ(back.txn_count(), 3u);
  EXPECT_EQ(back.event_count(), 4u);
  const auto [b0, e0] = back.TxnSpan(0);
  EXPECT_EQ(e0 - b0, 3u);
  const auto [b1, e1] = back.TxnSpan(1);
  EXPECT_EQ(e1 - b1, 0u);
}

TEST(TraceTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Trace::Decode("short").ok());
  std::string bad(32, '\xAB');
  EXPECT_FALSE(Trace::Decode(bad).ok());

  // Valid magic/version but absurd counts: must reject, not allocate.
  Trace small;
  small.BeginTxn();
  small.Append(1, false);
  std::string forged = small.Encode();
  EncodeFixed64(forged.data() + 16, ~uint64_t{0});
  const auto huge = Trace::Decode(forged);
  EXPECT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsCorruption()) << huge.status().ToString();
}

TEST(TraceTest, FileRoundTrip) {
  Trace trace;
  Random rnd(5);
  PageId page = 500;
  for (int t = 0; t < 50; ++t) {
    trace.BeginTxn();
    for (int e = 0; e < 8; ++e) {
      page = (page + rnd.Uniform(64)) % 4096;
      trace.Append(page, rnd.PercentTrue(30));
    }
  }
  const std::string path = ::testing::TempDir() + "/face_trace_test.bin";
  FACE_ASSERT_OK(trace.SaveTo(path));
  FACE_ASSERT_OK_AND_ASSIGN(Trace back, Trace::LoadFrom(path));
  EXPECT_TRUE(back == trace);
}

TEST(TraceTest, RecordThenReplayIsDeterministic) {
  const GoldenImage& golden =
      YcsbGolden(YcsbOptions::Distribution::kZipfian);

  // Record the page-reference stream of a live YCSB run. The tiny DRAM
  // pool forces evictions, so the flash tier sees admissions at replay.
  TraceRecorder recorder;
  {
    TestbedOptions record_opts = SmallOptions(golden, CachePolicy::kNone);
    record_opts.buffer_frames = 64;
    Testbed tb(record_opts, &golden);
    FACE_ASSERT_OK(tb.Start());
    tb.set_tracer(&recorder);
    RunOptions run;
    run.txns = 250;
    FACE_ASSERT_OK(tb.Run(run).status());
  }
  auto trace = std::make_shared<const Trace>(recorder.TakeTrace());
  ASSERT_EQ(trace->txn_count(), 250u);
  ASSERT_GT(trace->event_count(), 250u);

  // Replay it twice on fresh clones: device request counts must be
  // identical run to run (the acceptance bar for deterministic replay).
  auto replay_once = [&](CachePolicy policy) {
    TestbedOptions opts = SmallOptions(golden, policy);
    opts.buffer_frames = 64;
    opts.workload = std::make_shared<TraceReplayFactory>(trace);
    Testbed tb(opts, &golden);
    EXPECT_TRUE(tb.Start().ok());
    RunOptions run;
    run.txns = trace->txn_count();
    auto result = tb.Run(run);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::make_pair(result->db_stats.total_reqs(),
                          result->flash_stats.total_reqs());
  };

  const auto first = replay_once(CachePolicy::kNone);
  const auto second = replay_once(CachePolicy::kNone);
  EXPECT_GT(first.first, 0u);
  EXPECT_EQ(first, second);

  // And the same trace drives a flash-cache policy (different physical
  // behavior, same logical stream) — again deterministically.
  const auto face1 = replay_once(CachePolicy::kFaceGSC);
  const auto face2 = replay_once(CachePolicy::kFaceGSC);
  EXPECT_EQ(face1, face2);
  EXPECT_GT(face1.second, 0u);  // the flash tier actually saw traffic
}

// --- TPC-C through the generic interface -------------------------------------

TEST(TpccWorkloadTest, DefaultFactoryIsTpcc) {
  Testbed tb(SmallOptions(SharedGolden(), CachePolicy::kNone),
             &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  ASSERT_NE(tb.workload(), nullptr);
  EXPECT_STREQ(tb.workload()->name(), "tpcc");
  auto* driver = dynamic_cast<tpcc::Workload*>(tb.workload());
  ASSERT_NE(driver, nullptr);
  EXPECT_NE(driver->tables(), nullptr);
}

TEST(TpccWorkloadTest, ExplicitFactoryMatchesDefaultPathExactly) {
  // The old hard-wired TPC-C path is now factory(default); an explicit
  // TpccFactory must reproduce it bit-for-bit: same seed, same request
  // stream, same device traffic.
  RunOptions run;
  run.txns = 300;

  Testbed default_path(SmallOptions(SharedGolden(), CachePolicy::kFaceGSC),
                       &SharedGolden());
  FACE_ASSERT_OK(default_path.Start());
  FACE_ASSERT_OK_AND_ASSIGN(RunResult a, default_path.Run(run));

  TestbedOptions opts = SmallOptions(SharedGolden(), CachePolicy::kFaceGSC);
  opts.workload = std::make_shared<TpccFactory>(SharedGolden().warehouses);
  Testbed explicit_path(opts, &SharedGolden());
  FACE_ASSERT_OK(explicit_path.Start());
  FACE_ASSERT_OK_AND_ASSIGN(RunResult b, explicit_path.Run(run));

  EXPECT_EQ(a.primary_txns, b.primary_txns);
  EXPECT_EQ(a.user_aborts, b.user_aborts);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.db_stats.total_reqs(), b.db_stats.total_reqs());
  EXPECT_EQ(a.flash_stats.total_reqs(), b.flash_stats.total_reqs());
  EXPECT_EQ(a.log_stats.total_reqs(), b.log_stats.total_reqs());
}

TEST(TpccWorkloadTest, MixSharesMatchSpec) {
  Testbed tb(SmallOptions(SharedGolden(), CachePolicy::kNone),
             &SharedGolden());
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 1000;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(run));
  const workload::WorkloadStats& stats = tb.workload()->stats();
  EXPECT_EQ(stats.total(), 1000u);
  EXPECT_EQ(stats.primary,
            stats.completed[static_cast<int>(tpcc::TxnType::kNewOrder)]);
  EXPECT_NEAR(static_cast<double>(stats.primary) / 1000.0, 0.45, 0.06);
  EXPECT_EQ(result.primary_txns, stats.primary);
}

}  // namespace
}  // namespace face
