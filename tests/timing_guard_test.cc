// Timing-invariance differential guard for the simulator/WAL hot-path
// optimizations: the span-copy SimDevice::DoIo, the in-place WAL record
// encoding, the reusable flush block buffer, the PageMap/intrusive-LRU
// page directories, and the per-transaction WAL batch appends must not
// change a single simulated nanosecond.
//
// Fingerprint provenance: the original rows were captured from the
// pre-optimization code (commit "PR 2"). PR 5 re-captured the TPC-C rows
// once for an intentional simulated-behavior change: checkpoint and
// shutdown flushes now iterate dirty pages in sorted page order
// (deterministic across stdlib implementations, and slightly faster in
// virtual time because adjacent dirty pages coalesce into sequential
// writes). The page-differential PR re-captured once more for a second
// intentional change: small flash refreshes and checkpoint absorptions
// now travel as packed delta records instead of full 4 KB frame writes,
// which legitimately lowers flash page counts, busy time, and makespan on
// every update-heavy row (and raises Exadata's hit counts, since its
// cached copies now survive dirty DRAM evictions instead of being
// invalidated). The rows pin the shipped DeltaRingOptions defaults
// (max_chain = 16, record/chain byte caps of kPageSize/2 and kPageSize);
// retuning those knobs moves simulated numbers and needs a fresh capture.
// Rows whose runs never take the delta path ("none", the read-only
// YCSB/scan cells) still match the prior capture bit-for-bit — that is
// the invariance this guard continues to pin. The group-commit change
// re-captured a third time, moving only the log station's fields and the
// makespan they drive: log forces now join a queued force on the log disk
// (duration, log_busy), and update records carry one before-XOR-after
// image instead of both (log_pages). Every other field of every row — hit
// counts, db and flash busy time and traffic — reproduced unchanged.
// The one-block FaCE metadata segment (170 entries instead of the old
// 1,024 floor) re-captured the FaCE and FaCE+GSC rows a fourth time: more
// segment and superblock writes move flash_pages, flash_busy and duration.
// On FaCE+GSC the survivor-loop segment hold (group flushes now wait for
// every survivor) and the rule that destages a dirty, delta-patched page
// whose new frame would land on its own block also move lookups, hits and
// the db and log fields. LC, TAC, Exadata and "none" reproduced unchanged.
// The scan-heavy rows were re-captured once more when the scan-heavy
// driver became a YCSB mix (YcsbOptions::LongScans): a different request
// stream over the same 8,000-row image, which the rows now share with the
// ycsb-zipfian rows. Every other row reproduced unchanged. The tpcc rows
// were re-captured after that: an ascending append that splits an internal
// node now leaves the right node one separator (the cell before the last
// is pushed up), so TPC-C's growing indexes lay out their internal nodes
// differently. The KV rows reproduced unchanged. The tpcc rows were
// re-captured once more when checkpoints stopped logging CHECKPOINT_END:
// one log write fewer per checkpoint moves log_busy and log_pages on all
// six rows and FaCE's duration; every other field reproduced unchanged.
//
// The KV images here are loaded through the *incremental-insert* path on
// purpose: the sorted bulk-load path intentionally changes the physical
// page layout (leaves become device-contiguous), which legitimately moves
// simulated numbers. Bulk load is covered by the structural-equivalence
// test in btree_test.cc instead.
//
// To re-capture after an intentional simulated-behavior change:
//   TIMING_GUARD_CAPTURE=1 ./timing_guard_test
// and paste the printed rows over kGolden.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "testbed/testbed.h"
#include "tests/test_util.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

using workload::WorkloadFactory;
using workload::YcsbFactory;
using workload::YcsbOptions;

constexpr CachePolicy kPolicies[] = {
    CachePolicy::kNone, CachePolicy::kFace, CachePolicy::kFaceGSC,
    CachePolicy::kLc,   CachePolicy::kTac,  CachePolicy::kExadata,
};

/// Everything a run simulates, as exact integers. Any drift — one
/// nanosecond of makespan, one page of traffic — fails the guard.
struct Fingerprint {
  const char* workload;
  const char* policy;
  uint64_t duration;        ///< virtual makespan delta of the measured run
  uint64_t txns;
  uint64_t primary;
  uint64_t lookups;         ///< cache probes (DRAM misses)
  uint64_t hits;            ///< probes served from flash
  uint64_t db_busy;         ///< per-device virtual busy nanoseconds
  uint64_t flash_busy;
  uint64_t log_busy;
  uint64_t db_pages;        ///< pages moved (reads + writes)
  uint64_t flash_pages;
  uint64_t log_pages;
};

Fingerprint Measure(const char* workload_name, const GoldenImage& golden,
                    std::shared_ptr<const WorkloadFactory> factory,
                    CachePolicy policy, uint64_t warmup, uint64_t txns) {
  TestbedOptions opts;
  opts.policy = policy;
  opts.flash_pages = golden.db_pages() / 10;
  opts.seed = 42;
  opts.workload = std::move(factory);
  Testbed tb(opts, &golden);
  FACE_EXPECT_OK(tb.Start());
  FACE_EXPECT_OK(tb.Warmup(warmup));
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = 3 * kNanosPerSecond;  // exercise the WAL/ckpt path
  auto result = tb.Run(run);
  FACE_EXPECT_OK(result.status());
  const RunResult& r = *result;

  Fingerprint fp;
  fp.workload = workload_name;
  fp.policy = CachePolicyName(policy);
  fp.duration = r.duration;
  fp.txns = r.txns;
  fp.primary = r.primary_txns;
  fp.lookups = r.cache_stats.lookups;
  fp.hits = r.cache_stats.hits;
  fp.db_busy = r.db_stats.busy_ns;
  fp.flash_busy = r.flash_stats.busy_ns;
  fp.log_busy = r.log_stats.busy_ns;
  fp.db_pages = r.db_stats.total_pages();
  fp.flash_pages = r.flash_stats.total_pages();
  fp.log_pages = r.log_stats.total_pages();
  return fp;
}

/// Captured from the pre-PageMap/pre-WAL-batch hot path, after the
/// deterministic checkpoint ordering landed (see file comment).
constexpr Fingerprint kGolden[] = {
    // clang-format off
    {"tpcc", "none", 25459809409, 250, 120, 7164, 0, 27259293208, 0, 609386706, 9252, 0, 537},
    {"tpcc", "FaCE", 11792713593, 250, 120, 7164, 4196, 12280893762, 254745879, 667669129, 4048, 8619, 556},
    {"tpcc", "FaCE+GSC", 10492875649, 250, 120, 7232, 4600, 11055646288, 357576152, 626852814, 3633, 15877, 542},
    {"tpcc", "LC", 12317189506, 250, 120, 7164, 4683, 12653101869, 454198658, 656007327, 4391, 9162, 552},
    {"tpcc", "TAC", 15040073679, 250, 120, 7164, 4459, 14655091043, 1322854480, 685161840, 4808, 15573, 562},
    {"tpcc", "Exadata", 14871391941, 250, 120, 7164, 4395, 14802965839, 483870469, 720147253, 4870, 7327, 574},
    {"ycsb-zipfian", "none", 162704303, 400, 400, 186, 0, 758513346, 0, 85186414, 246, 0, 53},
    {"ycsb-zipfian", "FaCE", 132465063, 400, 400, 186, 10, 580638104, 4193304, 88101863, 190, 160, 54},
    {"ycsb-zipfian", "FaCE+GSC", 154284588, 400, 400, 193, 16, 609296931, 5257092, 73524608, 199, 218, 49},
    {"ycsb-zipfian", "LC", 138794330, 400, 400, 186, 10, 583835546, 3859107, 88101863, 191, 157, 54},
    {"ycsb-zipfian", "TAC", 175044012, 400, 400, 186, 0, 758513346, 87917313, 137664534, 246, 810, 71},
    {"ycsb-zipfian", "Exadata", 165972653, 400, 400, 186, 0, 758513346, 3420652, 137664533, 246, 186, 71},
    {"scan-heavy", "none", 362399704, 50, 50, 1382, 0, 692565530, 0, 2915451, 1386, 0, 1},
    {"scan-heavy", "FaCE", 580968241, 50, 50, 1382, 211, 563099863, 43349119, 2915451, 1177, 1659, 1},
    {"scan-heavy", "FaCE+GSC", 466623470, 50, 50, 1395, 134, 639553153, 72385616, 2915451, 1267, 3291, 1},
    {"scan-heavy", "LC", 613211414, 50, 50, 1382, 118, 605751550, 52271356, 2915451, 1267, 1376, 1},
    {"scan-heavy", "TAC", 705556071, 50, 50, 1382, 40, 669735340, 287374190, 2915451, 1346, 2670, 1},
    {"scan-heavy", "Exadata", 634598371, 50, 50, 1382, 0, 692565530, 25435593, 2915451, 1386, 1382, 1},
    // clang-format on
};

std::vector<Fingerprint> MeasureAll() {
  std::vector<Fingerprint> rows;

  {  // TPC-C at 1 warehouse (the paper's workload).
    auto golden = GoldenImage::Build(1);
    FACE_EXPECT_OK(golden.status());
    for (CachePolicy policy : kPolicies) {
      rows.push_back(Measure("tpcc", *golden, /*factory=*/nullptr, policy,
                             /*warmup=*/150, /*txns=*/250));
    }
  }

  {  // YCSB over one incremental-insert load (see file comment): the
     // default Zipfian mix, then the scan-heavy mix.
    YcsbOptions zipfian;
    zipfian.records = 8000;
    zipfian.bulk_load = false;
    YcsbOptions scans = YcsbOptions::LongScans();
    scans.records = zipfian.records;
    scans.bulk_load = false;
    auto zipfian_factory = std::make_shared<YcsbFactory>(zipfian);
    auto golden = GoldenImage::BuildFor(zipfian_factory);
    FACE_EXPECT_OK(golden.status());
    for (CachePolicy policy : kPolicies) {
      rows.push_back(Measure("ycsb-zipfian", *golden, zipfian_factory, policy,
                             /*warmup=*/250, /*txns=*/400));
    }
    auto scans_factory = std::make_shared<YcsbFactory>(scans);
    for (CachePolicy policy : kPolicies) {
      rows.push_back(Measure("scan-heavy", *golden, scans_factory, policy,
                             /*warmup=*/30, /*txns=*/50));
    }
  }
  return rows;
}

TEST(TimingGuardTest, SimulatedResultsMatchPreOptimizationGolden) {
  const std::vector<Fingerprint> rows = MeasureAll();

  if (getenv("TIMING_GUARD_CAPTURE") != nullptr) {
    for (const Fingerprint& f : rows) {
      printf("    {\"%s\", \"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64
             ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
             ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},\n",
             f.workload, f.policy, f.duration, f.txns, f.primary, f.lookups,
             f.hits, f.db_busy, f.flash_busy, f.log_busy, f.db_pages,
             f.flash_pages, f.log_pages);
    }
    GTEST_SKIP() << "capture mode: golden rows printed, nothing asserted";
  }

  ASSERT_EQ(rows.size(), sizeof(kGolden) / sizeof(kGolden[0]));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Fingerprint& got = rows[i];
    const Fingerprint& want = kGolden[i];
    SCOPED_TRACE(std::string(want.workload) + " / " + want.policy);
    EXPECT_STREQ(got.workload, want.workload);
    EXPECT_STREQ(got.policy, want.policy);
    EXPECT_EQ(got.duration, want.duration);
    EXPECT_EQ(got.txns, want.txns);
    EXPECT_EQ(got.primary, want.primary);
    EXPECT_EQ(got.lookups, want.lookups);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.db_busy, want.db_busy);
    EXPECT_EQ(got.flash_busy, want.flash_busy);
    EXPECT_EQ(got.log_busy, want.log_busy);
    EXPECT_EQ(got.db_pages, want.db_pages);
    EXPECT_EQ(got.flash_pages, want.flash_pages);
    EXPECT_EQ(got.log_pages, want.log_pages);
  }
}

}  // namespace
}  // namespace face
