// Workload subsystem tests: distribution shapes, operation-mix ratios,
// YCSB's live checks, crash recovery under the KV workloads, TPC-C driven
// through the generic interface with behavior matching the historical
// hard-wired path, and one page-reference stream under every policy.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <map>

#include "common/coding.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"
#include "workload/kv_table.h"
#include "workload/tpcc_workload.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

using workload::TpccFactory;
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

TEST(KvRowTest, LettersMatchTheTableFormula) {
  // Every byte value, in every byte position of a draw, beside random
  // neighbours.
  Random filler(1);
  for (uint64_t b = 0; b < 256; ++b) {
    for (int k = 0; k < 8; ++k) {
      const uint64_t at = uint64_t{0xff} << (8 * k);
      const uint64_t draw = (filler.Next() & ~at) | b << (8 * k);
      const uint64_t letters = workload::KvTable::Letters(draw);
      for (int j = 0; j < 8; ++j) {
        const uint8_t byte = static_cast<uint8_t>(draw >> (8 * j));
        ASSERT_EQ(static_cast<char>(letters >> (8 * j)),
                  static_cast<char>('a' + byte % 26))
            << "byte " << b << " at " << k << ", position " << j;
      }
    }
  }
  // Whole rows, the tail past the last full draw included: each payload
  // byte is the table formula over the payload generator's draws.
  for (uint64_t id = 0; id < 2000; ++id) {
    for (uint64_t version : {uint64_t{0}, id << 20 | 7}) {
      const uint32_t value_bytes = 100 + static_cast<uint32_t>(id % 301);
      std::string row;
      workload::KvTable::RowTo(&row, id, value_bytes, version);
      ASSERT_EQ(row.size(), 8u + value_bytes);
      ASSERT_EQ(DecodeFixed64(row.data()), id);
      Random payload(id * 0x9e3779b97f4a7c15ull ^ version);
      uint32_t i = 0;
      for (; i + 8 <= value_bytes; i += 8) {
        const uint64_t draw = payload.Next();
        for (int k = 0; k < 8; ++k) {
          ASSERT_EQ(row[8 + i + k], static_cast<char>(
                                         'a' + ((draw >> (8 * k)) & 0xff) % 26))
              << "id " << id << " byte " << i + k;
        }
      }
      for (; i < value_bytes; ++i) {
        ASSERT_EQ(row[8 + i],
                  static_cast<char>('a' + (payload.Next() & 0xff) % 26))
            << "id " << id << " byte " << i;
      }
    }
  }
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

TEST(YcsbWorkloadTest, LongScansDominateRowsTouched) {
  // The scan-heavy mix on the uniform image (same rows, same load).
  const GoldenImage& golden =
      YcsbGolden(YcsbOptions::Distribution::kUniform);
  const YcsbOptions rows = TestYcsb(YcsbOptions::Distribution::kUniform);
  YcsbOptions scans = YcsbOptions::LongScans();
  scans.records = rows.records;
  scans.value_bytes = rows.value_bytes;
  TestbedOptions opts = SmallOptions(golden, CachePolicy::kFaceGSC);
  opts.workload = std::make_shared<YcsbFactory>(scans);
  Testbed tb(opts, &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions run;
  run.txns = 150;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult result, tb.Run(run));
  EXPECT_EQ(result.txns, 150u);
  // ~70 % scans of 1..900 rows: far more rows touched than transactions.
  const workload::WorkloadStats& stats = tb.workload()->stats();
  EXPECT_GT(stats.completed[YcsbWorkload::kScan], 150u / 2);
  EXPECT_EQ(stats.completed[YcsbWorkload::kInsert], 0u);
  EXPECT_GT(stats.rows_read, 150u * 20);
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

// The 16-row table's options with only scans, each of up to `max_rows`.
TestbedOptions TinyScanOptions(const GoldenImage& golden,
                               uint64_t max_rows) {
  YcsbOptions o = TestYcsb(YcsbOptions::Distribution::kUniform);
  o.records = 16;
  o.pct_read = 0, o.pct_update = 0, o.pct_insert = 0, o.pct_scan = 100;
  o.max_scan_rows = max_rows;
  TestbedOptions opts = SmallOptions(golden, CachePolicy::kNone);
  opts.workload = std::make_shared<YcsbFactory>(o);
  return opts;
}

TEST(YcsbWorkloadTest, LiveScanCatchesARowNoClientCommitted) {
  const GoldenImage& golden = TinyYcsbGolden(/*pct_read=*/100);
  Testbed tb(TinyScanOptions(golden, /*max_rows=*/4), &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions one;
  one.txns = 1;
  FACE_ASSERT_OK(tb.Run(one).status());

  // Commit a new version of every row behind the clients' back: the next
  // scan sees rows the ledger never recorded.
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

TEST(YcsbWorkloadTest, LiveScanCatchesAKeyMissingFromTheIndex) {
  const GoldenImage& golden = TinyYcsbGolden(/*pct_read=*/100);
  Testbed tb(TinyScanOptions(golden, /*max_rows=*/16), &golden);
  FACE_ASSERT_OK(tb.Start());

  // Drop the last key's index entry behind the clients' back: a scan that
  // should reach it ends one row short of the ledger.
  FACE_ASSERT_OK_AND_ASSIGN(workload::KvTable table,
                            workload::KvTable::Open(*tb.db()));
  const TxnId txn = tb.db()->Begin();
  PageWriter w = tb.db()->Writer(txn);
  FACE_ASSERT_OK(table.pk.Delete(&w, workload::KvTable::Key(15)));
  FACE_ASSERT_OK(tb.db()->Commit(txn));

  RunOptions run;
  run.txns = 200;
  const Status s = tb.Run(run).status();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("the ledger holds"), std::string::npos)
      << s.ToString();
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

// --- one page-reference stream under every policy ----------------------------

/// Folds every logical page reference, in order, into one hash.
class ReferenceFingerprint : public PageTraceSink {
 public:
  void OnPageAccess(PageId page_id, bool write) override {
    hash_ = (hash_ ^ (page_id << 1 | (write ? 1 : 0))) * 0x100000001b3ull;
    ++refs_;
  }
  uint64_t hash() const { return hash_; }
  uint64_t refs() const { return refs_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t refs_ = 0;
};

// Workloads never read virtual time, so one seed gives every policy the
// same page references, whatever each reference costs: a live run is
// already the controlled experiment (same accesses, different policy).
// The DRAM pool is small, so the flash tier admits and hits, and the
// checkpoint interval fires during every run.
void ExpectOneReferenceStream(
    const GoldenImage& golden,
    std::shared_ptr<const workload::WorkloadFactory> factory, uint64_t txns) {
  uint64_t refs = 0, hash = 0;
  for (const CachePolicy policy :
       {CachePolicy::kNone, CachePolicy::kFace, CachePolicy::kFaceGR,
        CachePolicy::kFaceGSC, CachePolicy::kLc}) {
    SCOPED_TRACE(CachePolicyName(policy));
    TestbedOptions opts = SmallOptions(golden, policy);
    opts.buffer_frames = 64;
    opts.seed = 7;
    opts.workload = factory;
    Testbed tb(opts, &golden);
    FACE_ASSERT_OK(tb.Start());
    ReferenceFingerprint fingerprint;
    tb.db()->pool()->set_trace_sink(&fingerprint);
    RunOptions run;
    run.txns = txns;
    run.checkpoint_interval = kNanosPerSecond / 2;
    FACE_ASSERT_OK_AND_ASSIGN(RunResult r, tb.Run(run));
    tb.db()->pool()->set_trace_sink(nullptr);
    EXPECT_GT(r.checkpoints, 0u);
    if (policy == CachePolicy::kNone) {
      refs = fingerprint.refs();
      hash = fingerprint.hash();
      EXPECT_GT(refs, txns);
    } else {
      EXPECT_GT(r.cache_stats.hits, 0u);
    }
    EXPECT_EQ(fingerprint.refs(), refs);
    EXPECT_EQ(fingerprint.hash(), hash);
  }
}

TEST(ReferenceStreamTest, EveryPolicySeesTheSameYcsbReferences) {
  const GoldenImage& golden =
      YcsbGolden(YcsbOptions::Distribution::kZipfian);
  ExpectOneReferenceStream(
      golden,
      std::make_shared<YcsbFactory>(
          TestYcsb(YcsbOptions::Distribution::kZipfian)),
      2000);
}

TEST(ReferenceStreamTest, EveryPolicySeesTheSameTpccReferences) {
  ExpectOneReferenceStream(
      SharedGolden(),
      std::make_shared<TpccFactory>(SharedGolden().warehouses), 300);
}

}  // namespace
}  // namespace face
