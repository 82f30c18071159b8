// The crash storm: seeded-random crash points against every cache policy
// and both workloads, each recovery validated by Testbed::Audit (YCSB's
// committed-version ledger or TPC-C's consistency conditions, plus the
// flash-directory audit). Deterministic per seed:
//
//   CRASH_STORM_SEEDS       YCSB storms per policy (default 20; CI's slow
//                           job runs 200); TPC-C runs a tenth, at least 2
//   CRASH_STORM_BASE_SEED   first seed (default 1) — to replay a failure,
//                           run with CRASH_STORM_SEEDS=1 and the base seed
//                           set to the failing seed
//
// Also here: the paper's recovery observation (Table 6) as a regression
// guard — a FaCE restart after a warmed-up crash serves >90 % of its
// recovery page fetches from flash — and the sabotage run proving the
// audit catches a deliberately-broken recovery path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/flash_layout.h"
#include "testbed/crash_storm.h"
#include "testbed/sharded_testbed.h"
#include "tests/test_util.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

uint64_t StormSeeds() { return EnvOr("CRASH_STORM_SEEDS", 20); }
uint64_t BaseSeed() { return EnvOr("CRASH_STORM_BASE_SEED", 1); }

/// Run `seeds` storms of one policy and workload; every recovery must
/// pass the audit, and a healthy majority of storms must actually trip the
/// injector mid-run (otherwise the test is not testing crashes). `golden`,
/// if given, is a shared load of `opts.workload`.
void RunStorms(const CrashStormOptions& opts, uint64_t seeds,
               const GoldenImage* golden = nullptr) {
  const CachePolicy policy = opts.policy;
  CrashStormHarness harness(opts, golden);

  const uint64_t base = BaseSeed();
  uint64_t tripped = 0, double_faulted = 0;
  for (uint64_t seed = base; seed < base + seeds; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "policy " << CachePolicyName(policy)
                             << " seed " << seed << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->audit.ok())
        << "policy " << CachePolicyName(policy) << " seed " << seed << "\n"
        << result->ToString();
    if (result->crashed_mid_body) ++tripped;
    if (result->double_faulted) ++double_faulted;
  }
  EXPECT_GE(tripped, seeds / 2)
      << "too few storms tripped the injector — crash window mis-sized";
  ::testing::Test::RecordProperty("storms", static_cast<int>(seeds));
  ::testing::Test::RecordProperty("tripped", static_cast<int>(tripped));

  // Every storm's restart contributes its per-phase durations; the campaign
  // summary shows where recovery time goes for this policy.
  EXPECT_EQ(harness.phase_aggregate().restarts(), seeds);
  std::cout << "[ " << opts.workload->name() << ", "
            << CachePolicyName(policy) << " ] " << double_faulted << " of "
            << seeds << " storms also crashed during recovery; "
            << harness.phase_aggregate().ToString() << "\n";
}

/// YCSB storms: the storms' KV shape (StormKv) at CRASH_STORM_SEEDS.
void RunKvStorms(CachePolicy policy) {
  CrashStormOptions opts;
  opts.policy = policy;
  RunStorms(opts, StormSeeds());
}

TEST(CrashStormTest, Face) { RunKvStorms(CachePolicy::kFace); }
TEST(CrashStormTest, Lc) { RunKvStorms(CachePolicy::kLc); }
TEST(CrashStormTest, FaceGR) { RunKvStorms(CachePolicy::kFaceGR); }
TEST(CrashStormTest, NoCache) { RunKvStorms(CachePolicy::kNone); }

/// Storms of bench_workloads' scan-heavy mix (YcsbOptions::LongScans:
/// 70 % scans of up to 900 rows) over the storms' KV rows.
void RunScanStorms(CachePolicy policy) {
  const workload::YcsbOptions rows = StormKv();
  workload::YcsbOptions scans = workload::YcsbOptions::LongScans();
  scans.records = rows.records;
  scans.value_bytes = rows.value_bytes;
  scans.bulk_load = rows.bulk_load;
  CrashStormOptions opts;
  opts.policy = policy;
  opts.workload = std::make_shared<workload::YcsbFactory>(scans);
  RunStorms(opts, StormSeeds());
}

TEST(CrashStormTest, ScansNoCache) { RunScanStorms(CachePolicy::kNone); }
TEST(CrashStormTest, ScansFace) { RunScanStorms(CachePolicy::kFace); }
TEST(CrashStormTest, ScansFaceGR) { RunScanStorms(CachePolicy::kFaceGR); }
TEST(CrashStormTest, ScansFaceGSC) { RunScanStorms(CachePolicy::kFaceGSC); }
TEST(CrashStormTest, ScansLc) { RunScanStorms(CachePolicy::kLc); }

/// TPC-C storms on the shared 1-warehouse image, audited by the §3.3.2
/// consistency conditions: a tenth of CRASH_STORM_SEEDS (at least 2), as a
/// TPC-C storm costs about thirty KV storms.
void RunTpccStorms(CachePolicy policy) {
  CrashStormOptions opts;
  opts.policy = policy;
  opts.workload = SharedGolden().factory;
  RunStorms(opts, std::max<uint64_t>(2, StormSeeds() / 10), &SharedGolden());
}

TEST(CrashStormTest, TpccNoCache) { RunTpccStorms(CachePolicy::kNone); }
TEST(CrashStormTest, TpccFace) { RunTpccStorms(CachePolicy::kFace); }
TEST(CrashStormTest, TpccFaceGR) { RunTpccStorms(CachePolicy::kFaceGR); }
TEST(CrashStormTest, TpccFaceGSC) { RunTpccStorms(CachePolicy::kFaceGSC); }
TEST(CrashStormTest, TpccLc) { RunTpccStorms(CachePolicy::kLc); }

TEST(CrashStormTest, CrashDuringRecovery) {
  // Every seed cuts its restart: power fails again while redo, undo or the
  // restart checkpoint is writing, and the next recovery starts from the
  // torn remains of the first. The cut is drawn from the uncut restart's
  // own page writes, as the sweeps draw theirs, so every seed double-faults
  // and the last write (the control block) stays reachable. Deterministic
  // per seed; every final recovery must check clean.
  CrashStormOptions opts;
  opts.policy = CachePolicy::kFace;
  CrashStormHarness harness(opts);

  const uint64_t seeds = std::max<uint64_t>(8, StormSeeds() / 2);
  const uint64_t base = BaseSeed();
  uint64_t double_faulted = 0;
  for (uint64_t seed = base; seed < base + seeds; ++seed) {
    // A restart crash point past the restart never trips: this run counts
    // the restart's page writes.
    auto uncut = harness.RunStorm(seed, 0, UINT64_MAX);
    ASSERT_TRUE(uncut.ok()) << "seed " << seed << ": "
                            << uncut.status().ToString();
    ASSERT_FALSE(uncut->double_faulted) << "seed " << seed;
    EXPECT_TRUE(uncut->audit.ok()) << "seed " << seed << "\n"
                                   << uncut->ToString();
    ASSERT_GT(uncut->restart_writes, 0u) << "seed " << seed;
    const uint64_t cut = 1 + Random(seed).Uniform(uncut->restart_writes);

    auto result = harness.RunStorm(seed, 0, cut);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ", restart crash at write "
                             << cut << ": " << result.status().ToString();
    EXPECT_TRUE(result->audit.ok()) << "seed " << seed << ", restart crash at "
                                    << "write " << cut << "\n"
                                    << result->ToString();
    if (result->double_faulted) ++double_faulted;
    // Every restart replays through the read-ahead routine: a cold pool
    // means any record redo applies had its page fetched by a lane batch.
    // (A restart whose records flash already covers fetches nothing.)
    if (result->restart.redo_applied > 0) {
      EXPECT_GT(result->restart.readahead_batches, 0u) << result->ToString();
    }
  }
  EXPECT_EQ(double_faulted, seeds)
      << "a restart crash point inside the restart never tripped";
  std::cout << "[ double fault ] " << double_faulted << "/" << seeds
            << " storms crashed during recovery\n";
}

TEST(CrashStormTest, GroupSecondChance) {
  // Bonus coverage for the batched replacement paths (staged frames cut
  // mid-batch-flush): a quarter of the default seed budget.
  CrashStormOptions opts;
  opts.policy = CachePolicy::kFaceGSC;
  CrashStormHarness harness(opts);
  const uint64_t seeds = std::max<uint64_t>(5, StormSeeds() / 4);
  for (uint64_t seed = BaseSeed(); seed < BaseSeed() + seeds; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    EXPECT_TRUE(result->audit.ok()) << "seed " << seed << "\n"
                                    << result->ToString();
  }
}

/// The sweeps' tiny geometry: 46 frames, 16 DRAM frames, `seg_entries`
/// metadata segments and `group_size`-page groups. With 46 frames a full
/// queue's rear sits 6 past a group boundary, so segment boundaries fall
/// inside second-chance survivor loops.
CrashStormOptions SweepOptions(CachePolicy policy, uint32_t seg_entries,
                               uint32_t group_size) {
  CrashStormOptions opts;
  opts.policy = policy;
  opts.buffer_frames = 16;
  opts.flash_pages = 46;
  opts.seg_entries = seg_entries;
  opts.group_size = group_size;
  opts.warmup_ops = 150;
  opts.body_ops = 25;
  opts.post_ops = 0;
  return opts;
}

/// Exhaustive small-scope sweep on that geometry (by default 8-entry
/// segments and 8-page groups): power fails at every page write of one
/// checkpoint interval in turn, for each of four seeds; each restart must
/// pass the audit.
void SweepOneCheckpointInterval(CachePolicy policy, uint32_t seg_entries = 8,
                                uint32_t group_size = 8) {
  CrashStormHarness harness(SweepOptions(policy, seg_entries, group_size));

  uint64_t swept = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    // A crash point past the interval never trips: the dry run counts the
    // interval's page writes.
    auto dry = harness.RunStorm(seed, UINT64_MAX);
    ASSERT_TRUE(dry.ok()) << dry.status().ToString();
    ASSERT_FALSE(dry->crashed_mid_body);
    ASSERT_TRUE(dry->audit.ok()) << dry->ToString();
    const uint64_t writes = dry->armed_writes;
    ASSERT_GT(writes, 20u) << "seed " << seed << ": too quiet to sweep";

    for (uint64_t k = 1; k <= writes; ++k) {
      auto result = harness.RunStorm(seed, k);
      ASSERT_TRUE(result.ok()) << "seed " << seed << ", crash at write " << k
                               << ": " << result.status().ToString();
      ASSERT_TRUE(result->crashed_mid_body) << "crash at write " << k;
      EXPECT_TRUE(result->audit.ok())
          << "seed " << seed << ", crash at write " << k << " of " << writes
          << "\n" << result->ToString();
    }
    swept += writes;
  }
  std::cout << "[ " << CachePolicyName(policy) << " ] swept " << swept
            << " crash points\n";
}

TEST(CrashSweepTest, FaceEveryWriteOfOneCheckpointInterval) {
  SweepOneCheckpointInterval(CachePolicy::kFace);
}

TEST(CrashSweepTest, FaceGscEveryWriteOfOneCheckpointInterval) {
  SweepOneCheckpointInterval(CachePolicy::kFaceGSC);
}

TEST(CrashSweepTest, FaceGrEveryWriteOfOneCheckpointInterval) {
  SweepOneCheckpointInterval(CachePolicy::kFaceGR);
}

TEST(CrashSweepTest, LcEveryWriteOfOneCheckpointInterval) {
  SweepOneCheckpointInterval(CachePolicy::kLc);
}

TEST(CrashSweepTest, FaceGscSegmentsSmallerThanGroups) {
  // A held boundary flush can leave more than two segments unpersisted
  // behind a survivor loop; restart's raw-frame scan must reach them.
  SweepOneCheckpointInterval(CachePolicy::kFaceGSC, /*seg_entries=*/4,
                             /*group_size=*/16);
}

/// Exhaustive sweep of one restart: power fails at the middle page write
/// of one checkpoint interval, then again at every page write of the
/// restart that follows, for each of eight seeds; each second restart must
/// pass the audit, and an uncut restart
/// checkpoint destages nothing outside its lane batch. The sweep cuts the
/// restart checkpoint before, inside and after its destage batch, and
/// between the frames it writes after the batch and the delta appends that
/// follow them. `reclaiming` counts the seeds whose restart checkpoint
/// reclaimed delta chains.
void SweepOneRestart(const CrashStormOptions& opts, uint64_t* reclaiming) {
  CrashStormHarness harness(opts);
  uint64_t swept = 0;
  *reclaiming = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto dry = harness.RunStorm(seed, UINT64_MAX);
    ASSERT_TRUE(dry.ok()) << dry.status().ToString();
    const uint64_t crash = dry->armed_writes / 2;
    // A restart crash point past the restart never trips: this run counts
    // the restart's page writes.
    auto once = harness.RunStorm(seed, crash, UINT64_MAX);
    ASSERT_TRUE(once.ok()) << once.status().ToString();
    ASSERT_TRUE(once->crashed_mid_body);
    ASSERT_FALSE(once->double_faulted);
    ASSERT_TRUE(once->audit.ok()) << once->ToString();
    EXPECT_EQ(once->restart.serial_destages, 0u) << once->ToString();
    const uint64_t writes = once->restart_writes;
    ASSERT_GT(writes, 0u);
    *reclaiming += once->restart.reclaimed_chains > 0 ? 1 : 0;

    for (uint64_t r = 1; r <= writes; ++r) {
      auto result = harness.RunStorm(seed, crash, r);
      ASSERT_TRUE(result.ok()) << "seed " << seed << ", restart crash at write "
                               << r << ": " << result.status().ToString();
      ASSERT_TRUE(result->double_faulted) << "restart crash at write " << r;
      EXPECT_TRUE(result->audit.ok())
          << "seed " << seed << ", restart crash at write " << r << " of "
          << writes << "\n" << result->ToString();
    }
    swept += writes;
  }
  std::cout << "[ " << CachePolicyName(opts.policy) << " ] swept " << swept
            << " restart crash points; " << *reclaiming
            << " of 8 restart checkpoints reclaimed delta chains\n";
}

/// The flash cache holds the whole 1200-row database (64 frames) behind a
/// 4-block delta ring: plain FaCE's restart checkpoint appends delta
/// records into ring slots that still hold live chains on most seeds (7 of
/// 8), so the sweep also cuts it between the tip images and the appends.
CrashStormOptions ResidentSweepOptions(CachePolicy policy) {
  CrashStormOptions opts = SweepOptions(policy, /*seg_entries=*/16,
                                        /*group_size=*/8);
  opts.workload = std::make_shared<workload::YcsbFactory>(StormKv(1200));
  opts.flash_pages = 64;
  opts.warmup_ops = 300;
  opts.body_ops = 30;
  return opts;
}

TEST(CrashSweepTest, FaceEveryWriteOfOneRestart) {
  uint64_t reclaiming = 0;
  SweepOneRestart(ResidentSweepOptions(CachePolicy::kFace), &reclaiming);
  EXPECT_GT(reclaiming, 0u) << "no swept restart reached the tip images";
}

TEST(CrashSweepTest, FaceGrEveryWriteOfOneRestart) {
  // The interval sweep's geometry: on the resident one, FaCE+GR loses rows
  // to an open defect (a destaged frame restored without its delta chain),
  // with or without a crash during the restart.
  uint64_t reclaiming = 0;
  SweepOneRestart(SweepOptions(CachePolicy::kFaceGR, 8, 8), &reclaiming);
}

TEST(CrashSweepTest, FaceGscEveryWriteOfOneRestart) {
  uint64_t reclaiming = 0;
  SweepOneRestart(ResidentSweepOptions(CachePolicy::kFaceGSC), &reclaiming);
}

TEST(CrashStormTest, DeliberatelyBrokenRecoveryIsCaught) {
  // Wipe the FaCE superblock after each crash: the cache cold-formats
  // instead of restoring its metadata, so pages whose only current copy
  // lived in flash come back stale. The audit must see it.
  CrashStormOptions opts;
  opts.policy = CachePolicy::kFace;
  opts.sabotage = Sabotage::kWipeFlashSuperblock;
  CrashStormHarness harness(opts);

  uint64_t storms_with_divergence = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    if (result->audit.divergences > 0) ++storms_with_divergence;
  }
  EXPECT_GT(storms_with_divergence, 0u)
      << "the audit failed to notice a recovery that discards the flash "
         "cache's persistent metadata";
}

TEST(RecoveryFromFlashTest, FaceServesRecoveryPagesFromFlash) {
  // Table 6's companion observation: with the cache warm, restart reads
  // its pages from flash, not the disk array (paper: >98 %; we guard 0.9
  // to leave slack for small-scale noise).
  auto factory = std::make_shared<workload::YcsbFactory>(StormKv(1000));
  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden, GoldenImage::BuildFor(factory));

  TestbedOptions to;
  to.clients = 8;
  to.seed = 7;
  to.workload = factory;
  to.buffer_frames = 64;
  to.flash_pages = 2048;  // ample: the whole working set fits on flash
  to.policy = CachePolicy::kFace;
  Testbed tb(to, &golden);
  FACE_ASSERT_OK(tb.Start());

  RunOptions warm;
  warm.txns = 1200;  // push the working set through DRAM into flash
  FACE_ASSERT_OK(tb.Run(warm).status());
  FACE_ASSERT_OK(tb.db()->TakeCheckpoint().status());
  RunOptions more;
  more.txns = 300;  // post-checkpoint work = redo's fetch load
  FACE_ASSERT_OK(tb.Run(more).status());
  FACE_ASSERT_OK(tb.InjectInflightTransactions(3));

  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  ASSERT_GT(report.pages_fetched, 20u)
      << "recovery did too little work to measure: " << report.ToString();
  EXPECT_GT(report.FlashFetchFraction(), 0.9) << report.ToString();

  // The recovered state must still be exactly the committed history.
  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, tb.Audit());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// --- degraded-mode storms ---------------------------------------------------
// Flash loss mid-run, crash while degraded, crash during the WAL-driven
// flash rebuild, scrub repair, and online re-attach — every scenario ends
// with the row-for-row audit proving zero lost committed rows.

/// A storm-KV testbed rig for degraded-mode scenarios: one golden image and
/// one Testbed, whose YCSB workload's ledger the audit checks against. Same
/// shape as RecoveryFromFlashTest's setup, reusable per policy.
class DegradedRig {
 public:
  void Build(CachePolicy policy, uint64_t seed, SimNanos scrub_interval = 0) {
    // 1,200 rows: the working set must overflow the 64 DRAM frames, or no
    // flash traffic ever happens.
    factory_ = std::make_shared<workload::YcsbFactory>(StormKv(1200));
    FACE_ASSERT_OK_AND_ASSIGN(golden_, GoldenImage::BuildFor(factory_));

    TestbedOptions to;
    to.clients = 8;
    to.seed = seed;
    to.workload = factory_;
    to.buffer_frames = 64;  // small on purpose: evictions drive flash
    to.flash_pages = 512;
    to.seg_entries = 256;
    to.policy = policy;
    to.scrub_interval = scrub_interval;
    tb_ = std::make_unique<Testbed>(to, &golden_);
    FACE_ASSERT_OK(tb_->Start());
  }

  Testbed& tb() { return *tb_; }

  /// Row-for-row audit: the engine's logical table must be exactly the
  /// ledger's committed history.
  void CheckAudit(const char* what) {
    FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, tb_->Audit());
    EXPECT_TRUE(audit.ok()) << what << "\n" << audit.ToString();
  }

 private:
  std::shared_ptr<workload::YcsbFactory> factory_;
  GoldenImage golden_;
  std::unique_ptr<Testbed> tb_;
};

/// Everything the post-degradation world measured, as exact integers —
/// same-seed runs must reproduce this bit-for-bit.
using DegradedFingerprint = std::vector<uint64_t>;

DegradedFingerprint FingerprintOf(const RunResult& r, const Testbed& tb) {
  return DegradedFingerprint{r.txns,
                             r.fault.degradations,
                             r.fault.degraded_txns,
                             static_cast<uint64_t>(r.fault.degraded_ns),
                             static_cast<uint64_t>(r.duration),
                             r.db_stats.total_pages(),
                             r.log_stats.total_pages(),
                             r.flash_stats.total_pages(),
                             r.flash_stats.retries,
                             static_cast<uint64_t>(r.flash_stats.backoff_ns),
                             tb.last_rebuild().target_pages,
                             tb.last_rebuild().pages_written,
                             tb.last_rebuild().records_applied};
}

/// One seeded flash-loss-mid-run scenario: a transient profile whose sticky
/// window outlasts the retry budget kills the flash device at its first
/// fault; the supervisor must transition to disk-only with zero lost rows.
void RunFlashLossScenario(CachePolicy policy, uint64_t seed,
                          DegradedFingerprint* fp) {
  DegradedRig rig;
  rig.Build(policy, seed);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 400;
  FACE_ASSERT_OK(tb.Run(warm).status());

  FaultInjector inj;
  tb.flash_dev()->set_fault_injector(&inj);
  TransientFaultProfile p;
  p.read_fail_permille = 25;
  p.write_fail_permille = 25;
  p.sticky_failures = 8;  // > the 4-attempt budget: the first fault is fatal
  p.seed = seed;
  inj.ArmTransient("flash", p);

  RunOptions body;
  body.txns = 500;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(body));
  ASSERT_TRUE(tb.IsDegraded())
      << CachePolicyName(policy) << ": no flash fault fired in 500 txns";
  EXPECT_EQ(res.fault.degradations, 1u);
  EXPECT_GT(res.fault.degraded_txns, 0u);
  EXPECT_GT(res.fault.degraded_ns, 0);
  EXPECT_GT(res.flash_stats.retries, 0u);  // the budget was actually spent
  EXPECT_EQ(res.txns, body.txns);          // traffic kept flowing throughout

  rig.CheckAudit(CachePolicyName(policy));
  *fp = FingerprintOf(res, tb);

  // Disk-only service keeps working after the transition.
  RunOptions after;
  after.txns = 100;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res2, tb.Run(after));
  EXPECT_EQ(res2.fault.degraded_txns, res2.txns);
  EXPECT_EQ(res2.flash_stats.total_pages(), 0u);
  rig.CheckAudit("post-degradation service");
}

TEST(DegradedModeTest, FlashLossMidRunKeepsEveryCommittedRow) {
  const CachePolicy policies[] = {CachePolicy::kFace, CachePolicy::kLc};
  for (CachePolicy policy : policies) {
    SCOPED_TRACE(CachePolicyName(policy));
    // Same seed twice: the post-degradation fingerprint must reproduce
    // bit-for-bit (the acceptance bar for deterministic degradation).
    DegradedFingerprint first, second;
    RunFlashLossScenario(policy, 17, &first);
    if (::testing::Test::HasFatalFailure()) return;
    RunFlashLossScenario(policy, 17, &second);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(first, second) << "same-seed degradation diverged";
  }
}

TEST(DegradedModeTest, CrashWhileDegradedRecoversDiskOnly) {
  const CachePolicy policies[] = {CachePolicy::kFace, CachePolicy::kLc};
  for (CachePolicy policy : policies) {
    SCOPED_TRACE(CachePolicyName(policy));
    DegradedRig rig;
    rig.Build(policy, 77);
    if (::testing::Test::HasFatalFailure()) return;
    Testbed& tb = rig.tb();
    RunOptions warm;
    warm.txns = 300;
    FACE_ASSERT_OK(tb.Run(warm).status());

    FaultInjector inj;
    tb.flash_dev()->set_fault_injector(&inj);
    inj.KillDevice("flash");
    RunOptions body;
    body.txns = 200;
    FACE_ASSERT_OK(tb.Run(body).status());
    ASSERT_TRUE(tb.IsDegraded());

    // Serve disk-only for a while, then power-fail with work in flight.
    RunOptions degraded_run;
    degraded_run.txns = 150;
    FACE_ASSERT_OK(tb.Run(degraded_run).status());
    FACE_ASSERT_OK(tb.InjectInflightTransactions(2));
    FACE_ASSERT_OK(tb.Crash());
    RestartReport report;
    FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
    EXPECT_TRUE(report.degraded)
        << "control block lost the degraded marker\n" << report.ToString();
    EXPECT_TRUE(tb.IsDegraded());
    rig.CheckAudit("crash while degraded");

    // Survivability: the restarted disk-only engine still serves traffic.
    RunOptions after;
    after.txns = 100;
    FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(after));
    EXPECT_EQ(res.fault.degraded_txns, res.txns);
    rig.CheckAudit("post-restart degraded service");
  }
}

TEST(DegradedModeTest, CrashDuringFlashRebuildRecoversFromTheFloor) {
  // Power fails between the durable degraded-marker write and the
  // WAL-driven rebuild: restart must come up disk-only and redo from the
  // persisted rebuild floor, reconstructing every page whose only current
  // copy died with the flash device.
  DegradedRig rig;
  rig.Build(CachePolicy::kFace, 91);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 400;
  FACE_ASSERT_OK(tb.Run(warm).status());

  tb.set_mid_degrade_hook(
      [] { return Status::IOError("simulated power loss during rebuild"); });
  FaultInjector inj;
  tb.flash_dev()->set_fault_injector(&inj);
  inj.KillDevice("flash");
  RunOptions body;
  body.txns = 300;
  const auto res = tb.Run(body);
  ASSERT_FALSE(res.ok()) << "the mid-degrade hook never fired";
  tb.set_mid_degrade_hook(nullptr);

  FACE_ASSERT_OK(tb.Crash());
  RestartReport report;
  FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
  EXPECT_TRUE(report.degraded) << report.ToString();
  EXPECT_GT(report.redo_applied, 0u)
      << "nothing was replayed — the rebuild floor did not widen redo";
  rig.CheckAudit("crash during flash rebuild");

  RunOptions after;
  after.txns = 100;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult after_res, tb.Run(after));
  EXPECT_EQ(after_res.fault.degraded_txns, after_res.txns);
  rig.CheckAudit("post-rebuild-crash service");
}

TEST(DegradedModeTest, ScrubRepairsBitRotThenSurvivesACrash) {
  // Silent bit-rot on idle flash frames; one scrub pass must find and fix
  // every rotten frame (clean frames re-read from disk, dirty frames
  // rebuilt from the WAL) before any of it is served, and a crash after
  // the repairs must still recover the exact committed history. Every
  // third block of each policy's frame region rots (same geometry the
  // testbed provisioned: FaCE's frames follow its metadata and delta
  // rings, LC's start at block 0). The warmup fills FaCE's queue past its
  // staged segment, so the rot costs both write-back policies many dirty
  // frames, which a scrub reports in queue order rather than page order.
  // LC's checkpoint cleans every frame, so the case that takes one before
  // the rot must repair clean frames and lose no dirty one.
  constexpr uint64_t kFrames = 512;
  const struct {
    CachePolicy policy;
    uint64_t frame_base;
    bool checkpoint_first;
  } cases[] = {
      {CachePolicy::kFace, FlashLayout::Compute(kFrames, 256).frame_base,
       false},
      {CachePolicy::kLc, 0, false},
      {CachePolicy::kLc, 0, true},
  };
  for (const auto& c : cases) {
    const std::string label =
        std::string(CachePolicyName(c.policy)) +
        (c.checkpoint_first ? " after a checkpoint" : "");
    SCOPED_TRACE(label);
    DegradedRig rig;
    rig.Build(c.policy, 55);
    if (::testing::Test::HasFatalFailure()) return;
    Testbed& tb = rig.tb();
    RunOptions warm;
    warm.txns = 3000;
    FACE_ASSERT_OK(tb.Run(warm).status());
    if (c.checkpoint_first) {
      FACE_ASSERT_OK(tb.db()->TakeCheckpoint().status());
    }

    for (uint64_t i = 0; i < kFrames; i += 3) {
      FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(
          tb.flash_dev(), c.frame_base + i, /*n_bits=*/3, /*seed=*/1000 + i));
    }

    ScrubResult scrub;
    FACE_ASSERT_OK_AND_ASSIGN(scrub, tb.ScrubPass(kFrames));
    EXPECT_GT(scrub.frames_scanned, 0u);
    EXPECT_GT(scrub.clean_repaired + scrub.lost_dirty.size(), 0u)
        << "no rot found: the flips missed every occupied frame";
    if (c.checkpoint_first) {
      EXPECT_GT(scrub.clean_repaired, 0u);
      EXPECT_TRUE(scrub.lost_dirty.empty());
    } else {
      EXPECT_GT(scrub.lost_dirty.size(), 1u);
    }
    EXPECT_FALSE(tb.IsDegraded());
    std::cout << "[ " << label << " ] scrub scanned "
              << scrub.frames_scanned << ", repaired " << scrub.clean_repaired
              << ", lost dirty " << scrub.lost_dirty.size() << "\n";

    // The repaired cache serves clean traffic...
    RunOptions body;
    body.txns = 200;
    FACE_ASSERT_OK(tb.Run(body).status());
    rig.CheckAudit("scrub repair");

    // ...and a crash after the repairs recovers row-for-row.
    FACE_ASSERT_OK(tb.InjectInflightTransactions(2));
    FACE_ASSERT_OK(tb.Crash());
    RestartReport report;
    FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
    EXPECT_FALSE(report.degraded);
    rig.CheckAudit("scrub-repair-then-crash");
  }
}

TEST(DegradedModeTest, BackgroundScrubberWalksIdleFramesInVirtualTime) {
  // With a scrub interval set, Run() schedules passes on the virtual clock;
  // on healthy media they scan frames and repair nothing — and they must
  // not disturb the workload's correctness.
  DegradedRig rig;
  rig.Build(CachePolicy::kFace, 21, /*scrub_interval=*/5 * kNanosPerMilli);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 300;
  FACE_ASSERT_OK(tb.Run(warm).status());

  RunOptions body;
  body.txns = 500;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(body));
  EXPECT_GT(res.fault.scrub_frames_scanned, 0u) << "the scrubber never ran";
  EXPECT_EQ(res.fault.scrub_clean_repaired, 0u);
  EXPECT_EQ(res.fault.scrub_lost_dirty, 0u);
  rig.CheckAudit("background scrub");
}

TEST(DegradedModeTest, ReattachedFlashRewarmsThroughNormalAdmission) {
  DegradedRig rig;
  rig.Build(CachePolicy::kFace, 33);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 300;
  FACE_ASSERT_OK(tb.Run(warm).status());

  FaultInjector inj;
  tb.flash_dev()->set_fault_injector(&inj);
  inj.KillDevice("flash");
  RunOptions body;
  body.txns = 200;
  FACE_ASSERT_OK(tb.Run(body).status());
  ASSERT_TRUE(tb.IsDegraded());

  // Replace the media: disarm first (the caller's contract), then re-attach.
  inj.DisarmDevice("flash");
  FACE_ASSERT_OK(tb.ReattachFlash());
  EXPECT_FALSE(tb.IsDegraded());

  RunOptions rewarm;
  rewarm.txns = 300;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(rewarm));
  EXPECT_EQ(res.fault.degraded_txns, 0u);
  EXPECT_GT(res.flash_stats.pages_written, 0u)
      << "nothing was admitted — the cache never re-warmed";
  rig.CheckAudit("re-attached flash");

  // The cleared degraded marker is durable: a crash after re-attach must
  // restart with the cache trusted again.
  FACE_ASSERT_OK(tb.Crash());
  RestartReport report;
  FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
  EXPECT_FALSE(report.degraded) << report.ToString();
  rig.CheckAudit("crash after re-attach");
}

TEST(DegradedModeTest, ShardedStormFaultsOneShardOnly) {
  // Per-device injector scoping: arming one shard's flash degrades that
  // shard and leaves every other shard's cache untouched — no global
  // disarm, no cross-shard perturbation.
  workload::YcsbOptions yo;
  yo.records = 12000;  // 6000 per shard: overflows DRAM, drives flash
  yo.value_bytes = 120;
  ShardedTestbedOptions so;
  so.shards = 2;
  so.base.clients = 8;
  so.base.seed = 42;
  so.base.policy = CachePolicy::kFace;
  so.base.buffer_frames = 64;
  so.factory = std::make_shared<workload::YcsbFactory>(yo);
  so.flash_ratio = 0.1;

  FaultInjector inj;  // outlives the testbed; used only on shard 0's worker
  ShardedTestbed st(so);
  FACE_ASSERT_OK(st.Start());
  FACE_ASSERT_OK(st.Warmup(300));

  FACE_ASSERT_OK(st.OnShard(0, [&inj](Testbed& shard_tb) {
    shard_tb.flash_dev()->set_fault_injector(&inj);
    TransientFaultProfile p;
    p.write_fail_permille = 1000;
    p.sticky_failures = 8;
    p.seed = 9;
    inj.ArmTransient("flash", p);
    return Status::OK();
  }));

  RunOptions run;
  run.txns = 300;
  std::vector<RunResult> per_shard;
  FACE_ASSERT_OK_AND_ASSIGN(const RunResult merged, st.Run(run, &per_shard));

  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[0].fault.degradations, 1u);
  EXPECT_TRUE(st.testbed(0)->IsDegraded());
  EXPECT_GT(per_shard[0].flash_stats.retries, 0u);

  EXPECT_EQ(per_shard[1].fault.degradations, 0u);
  EXPECT_FALSE(st.testbed(1)->IsDegraded());
  EXPECT_EQ(per_shard[1].flash_stats.retries, 0u);
  EXPECT_EQ(inj.transient_failures_on("db"), 0u);
  EXPECT_GT(per_shard[1].cache_stats.hits, 0u)
      << "the healthy shard's cache stopped serving";

  // The merged result reports the faulted shard's degradation.
  EXPECT_EQ(merged.fault.degradations, 1u);
  EXPECT_EQ(merged.fault.degraded_txns, per_shard[0].fault.degraded_txns);
  EXPECT_GT(merged.fault.degraded_txns, 0u);
  EXPECT_EQ(merged.fault.degraded_ns, per_shard[0].fault.degraded_ns);
}

}  // namespace
}  // namespace face
