// Unit tests: the crash injector's device-level semantics — countdown
// precision, batch cuts, sector-prefix tears, page-atomic drops, dead
// devices, and the aftermath-surgery primitives.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "buffer/buffer_pool.h"
#include "core/tac_cache.h"
#include "fault/fault_injector.h"
#include "sim/sim_device.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace face {
namespace {

std::string PageOf(char fill) { return std::string(kPageSize, fill); }

TEST(FaultInjectorTest, CountdownTripsOnExactlyTheNthWrite) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  inj.SetTearGranularity("d", TearGranularity::kPageAtomic);
  inj.ArmAfterWrites(3, /*seed=*/1);

  FACE_ASSERT_OK(dev.Write(0, PageOf('a').data()));
  FACE_ASSERT_OK(dev.Write(1, PageOf('b').data()));
  const Status s = dev.Write(2, PageOf('c').data());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(inj.tripped());
  EXPECT_EQ(inj.site().device, "d");
  EXPECT_EQ(inj.site().block, 2u);

  // The first two writes persisted; the crash-point page dropped whole.
  std::string buf(kPageSize, '\0');
  inj.Disarm();
  FACE_ASSERT_OK(dev.Read(0, buf.data()));
  EXPECT_EQ(buf[0], 'a');
  FACE_ASSERT_OK(dev.Read(1, buf.data()));
  EXPECT_EQ(buf[100], 'b');
  FACE_ASSERT_OK(dev.Read(2, buf.data()));
  EXPECT_EQ(buf[0], '\0');
}

TEST(FaultInjectorTest, RearmAfterTripRevivesTheDeviceAndCountdown) {
  // Crash-during-recovery storms re-arm a tripped injector without an
  // intervening Disarm: the new countdown must start clean — trip state
  // cleared, dead device revived, and the ordinal exact again.
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  inj.SetTearGranularity("d", TearGranularity::kPageAtomic);
  inj.ArmAfterWrites(1, /*seed=*/1);
  EXPECT_TRUE(dev.Write(0, PageOf('a').data()).IsIOError());
  ASSERT_TRUE(inj.tripped());

  inj.ArmAfterWrites(2, /*seed=*/2);  // no Disarm in between
  EXPECT_FALSE(inj.tripped());
  FACE_ASSERT_OK(dev.Write(1, PageOf('b').data()));  // device is alive again
  const Status s = dev.Write(2, PageOf('c').data());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(inj.tripped());
  EXPECT_EQ(inj.site().block, 2u);
  inj.Disarm();
}

TEST(FaultInjectorTest, BatchWriteIsCutMidRequest) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  // Countdown 3 into a 5-page batch: 2 full pages persist, page 3 keeps a
  // sector prefix, pages 4-5 never land.
  inj.ArmAfterWrites(3, /*seed=*/42);

  std::string batch;
  for (char c : {'1', '2', '3', '4', '5'}) batch += PageOf(c);
  EXPECT_TRUE(dev.WriteBatch(10, 5, batch.data()).IsIOError());
  ASSERT_TRUE(inj.tripped());
  EXPECT_EQ(inj.site().pages_persisted, 2u);
  EXPECT_LT(inj.site().sectors_persisted, kSectorsPerPage);

  inj.Disarm();
  std::string buf(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(10, buf.data()));
  EXPECT_EQ(buf[kPageSize - 1], '1');
  FACE_ASSERT_OK(dev.Read(11, buf.data()));
  EXPECT_EQ(buf[kPageSize - 1], '2');
  // The torn page: exactly the persisted sector prefix is new.
  FACE_ASSERT_OK(dev.Read(12, buf.data()));
  const uint32_t cut = inj.site().sectors_persisted * kSectorSize;
  for (uint32_t i = 0; i < cut; ++i) ASSERT_EQ(buf[i], '3') << i;
  for (uint32_t i = cut; i < kPageSize; ++i) ASSERT_EQ(buf[i], '\0') << i;
  FACE_ASSERT_OK(dev.Read(13, buf.data()));
  EXPECT_EQ(buf[0], '\0');
}

TEST(FaultInjectorTest, TornPageKeepsOldContentsBeyondTheCut) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FACE_ASSERT_OK(dev.Write(7, PageOf('o').data()));  // pre-crash contents

  FaultInjector inj;
  dev.set_fault_injector(&inj);
  inj.ArmAfterWrites(1, /*seed=*/9);
  EXPECT_TRUE(dev.Write(7, PageOf('n').data()).IsIOError());
  ASSERT_TRUE(inj.tripped());

  inj.Disarm();
  std::string buf(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(7, buf.data()));
  const uint32_t cut = inj.site().sectors_persisted * kSectorSize;
  for (uint32_t i = 0; i < cut; ++i) ASSERT_EQ(buf[i], 'n') << i;
  for (uint32_t i = cut; i < kPageSize; ++i) ASSERT_EQ(buf[i], 'o') << i;
}

TEST(FaultInjectorTest, DeadDeviceFailsAllIoUntilDisarm) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  inj.ArmAfterWrites(1, /*seed=*/3);
  EXPECT_TRUE(dev.Write(0, PageOf('x').data()).IsIOError());

  std::string buf(kPageSize, '\0');
  EXPECT_TRUE(dev.Read(0, buf.data()).IsIOError());
  EXPECT_TRUE(dev.Write(1, PageOf('y').data()).IsIOError());

  inj.Disarm();
  FACE_ASSERT_OK(dev.Read(0, buf.data()));
  FACE_ASSERT_OK(dev.Write(1, PageOf('y').data()));
}

TEST(FaultInjectorTest, DeadlineModeTripsAtVirtualTime) {
  IoScheduler sched(2);
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128, &sched);
  FaultInjector inj;
  inj.AttachScheduler(&sched);
  dev.set_fault_injector(&inj);

  // Accumulate some virtual time, then arm just past it.
  sched.BeginTxn();
  FACE_ASSERT_OK(dev.Write(0, PageOf('a').data()));
  sched.EndTxn();
  inj.ArmAtTime(sched.now() + 1, /*seed=*/5);

  sched.BeginTxn();
  FACE_ASSERT_OK(dev.Write(1, PageOf('b').data()));  // now() still behind
  sched.EndTxn();
  // The completed transaction advanced now() past the deadline.
  EXPECT_TRUE(dev.Write(2, PageOf('c').data()).IsIOError());
  EXPECT_TRUE(inj.tripped());
}

TEST(TacTornRefreshTest, RecoverySweepDropsTornInPlaceRefresh) {
  // TAC's write-through eviction refreshes a cached frame in place without
  // touching its (already validated) directory entry. A crash tearing that
  // refresh leaves the directory advertising a frame that fails its
  // checksum; the recovery sweep must drop the slot instead of serving
  // Corruption on the first read. Deterministic regression for the rare
  // storm path (flash crashes are a small minority of crash points).
  SimDevice db_dev("db", DeviceProfile::Seagate15k(), 256);
  DbStorage storage(&db_dev);
  TacOptions to;
  to.n_frames = 8;
  SimDevice flash("flash", DeviceProfile::MlcSamsung470(),
                  TacCache::DeviceBlocksFor(to.n_frames));
  TacCache tac(to, &flash, &storage);
  FACE_ASSERT_OK(tac.Format());

  // Admit a page on entry (frame write + directory validation persist).
  const PageId pid = 5;
  std::string page(kPageSize, '\0');
  PageView view(page.data());
  view.Format(pid);
  memset(page.data() + kPageHeaderSize, 'v', 64);
  FACE_ASSERT_OK(tac.OnFetchFromDisk(pid, page.data()));
  ASSERT_TRUE(tac.Contains(pid));

  // Dirty eviction: disk write succeeds, the in-place flash refresh is
  // torn mid-page (1..7 sectors). Arm the injector on the flash device
  // only, so the countdown cannot land on the disk write.
  memset(page.data() + kPageHeaderSize, 'w', kPageSize - kPageHeaderSize);
  view.set_lsn(12345);
  FaultInjector inj;
  flash.set_fault_injector(&inj);
  uint64_t seed = 1;
  while (true) {  // find a seed whose tear keeps 1..7 sectors
    inj.ArmAfterWrites(1, seed);
    std::string evicted = page;
    const Status s = tac.OnDramEvict(pid, evicted.data(), /*dirty=*/true,
                                     /*fdirty=*/true, /*rec_lsn=*/12345);
    ASSERT_FALSE(s.ok());
    ASSERT_TRUE(inj.tripped());
    if (inj.site().sectors_persisted > 0) break;
    // K=0 dropped the refresh whole, leaving the old (valid) frame: retry
    // the eviction under the next seed until the tear is mid-page.
    inj.Disarm();
    ++seed;
  }
  inj.Disarm();

  // Restart: the sweep must notice the torn frame and free the slot.
  FACE_ASSERT_OK(tac.RecoverAfterCrash());
  EXPECT_FALSE(tac.Contains(pid))
      << "recovery kept a directory entry for a checksum-invalid frame";
  FACE_ASSERT_OK(tac.CheckInvariants());

  // And the invalidation is durable: a second restart agrees.
  FACE_ASSERT_OK(tac.RecoverAfterCrash());
  EXPECT_FALSE(tac.Contains(pid));
}

TEST(FaultInjectorTest, AftermathPrimitives) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FACE_ASSERT_OK(dev.Write(5, PageOf('k').data()));
  FACE_ASSERT_OK(dev.Write(6, PageOf('k').data()));

  FACE_ASSERT_OK(FaultInjector::TearBlockSectors(&dev, 5, 3, '\x5a'));
  std::string buf(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(5, buf.data()));
  for (uint32_t i = 0; i < 3 * kSectorSize; ++i) ASSERT_EQ(buf[i], 'k') << i;
  for (uint32_t i = 3 * kSectorSize; i < kPageSize; ++i) {
    ASSERT_EQ(buf[i], '\x5a') << i;
  }

  FACE_ASSERT_OK(FaultInjector::GarbleBlocks(&dev, 6, 1, '\xff'));
  FACE_ASSERT_OK(dev.Read(6, buf.data()));
  EXPECT_EQ(buf[0], '\xff');
  EXPECT_EQ(buf[kPageSize - 1], '\xff');

  // Surgery charges no stats and no time.
  EXPECT_EQ(dev.stats().write_reqs, 2u);
}

// --- transient-fault layer + retry/backoff ---------------------------------

TEST(TransientFaultTest, StickyBurstWithinBudgetIsRetriedToSuccess) {
  // Seed 10 makes the first permille-500 draw fail (37) and the following
  // draws pass (803, 505, ...): with a sticky window of 1 the first write
  // fails twice (trigger + sticky) and succeeds on the third attempt —
  // inside the default 4-attempt budget, so the caller never sees an error.
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  TransientFaultProfile p;
  p.write_fail_permille = 500;
  p.sticky_failures = 1;
  p.seed = 10;
  inj.ArmTransient("d", p);

  FACE_ASSERT_OK(dev.Write(0, PageOf('a').data()));
  EXPECT_FALSE(dev.failed());
  EXPECT_EQ(dev.stats().retries, 2u);
  // Default policy: 100 us before the first retry, x4 before the second.
  const IoRetryPolicy policy;
  EXPECT_EQ(dev.stats().backoff_ns,
            policy.BackoffFor(1) + policy.BackoffFor(2));
  EXPECT_EQ(inj.transient_failures_on("d"), 2u);

  // The bytes made it to media despite the failed attempts.
  std::string buf(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(0, buf.data()));
  EXPECT_EQ(buf[0], 'a');
  // Later writes draw clean and pass on the first attempt.
  FACE_ASSERT_OK(dev.Write(1, PageOf('b').data()));
  EXPECT_EQ(dev.stats().retries, 2u);
}

TEST(TransientFaultTest, ExhaustedRetryBudgetDeclaresTheDeviceLost) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  TransientFaultProfile p;
  p.write_fail_permille = 1000;  // every attempt fails: exhaustion is certain
  p.seed = 3;
  inj.ArmTransient("d", p);

  Status s = dev.Write(0, PageOf('a').data());
  EXPECT_TRUE(s.IsDeviceLost()) << s.ToString();
  EXPECT_TRUE(dev.failed());
  EXPECT_EQ(dev.stats().retries, 3u);  // 4 attempts = 1 + 3 retries

  // Offline devices fail fast: no further attempts, no further RNG draws.
  const uint64_t failures = inj.transient_failures_on("d");
  s = dev.Read(0, PageOf(' ').data());
  EXPECT_TRUE(s.IsDeviceLost());
  EXPECT_EQ(inj.transient_failures_on("d"), failures);

  // Re-attach protocol: disarm first, then reset health.
  inj.DisarmDevice("d");
  dev.ResetHealth();
  FACE_ASSERT_OK(dev.Write(0, PageOf('c').data()));
  EXPECT_FALSE(dev.failed());
}

TEST(TransientFaultTest, KilledDeviceFailsTerminallyWithoutRetries) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  dev.set_fault_injector(&inj);
  inj.KillDevice("d");

  const Status s = dev.Write(0, PageOf('a').data());
  EXPECT_TRUE(s.IsDeviceLost()) << s.ToString();
  EXPECT_FALSE(s.IsRetryable());
  EXPECT_EQ(dev.stats().retries, 0u);  // terminal verdicts are never retried
  EXPECT_TRUE(dev.failed());
}

TEST(TransientFaultTest, ArmingOneDeviceNeverTouchesAnother) {
  // One injector shared by two devices, the sharded-testbed wiring: arming
  // a profile on "a" must leave "b" entirely unaffected — no failures, no
  // retries, no RNG draws charged to it.
  SimDevice a("a", DeviceProfile::Seagate15k(), 128);
  SimDevice b("b", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  a.set_fault_injector(&inj);
  b.set_fault_injector(&inj);

  TransientFaultProfile p;
  p.write_fail_permille = 1000;
  p.seed = 7;
  inj.ArmTransient("a", p);

  EXPECT_TRUE(a.Write(0, PageOf('a').data()).IsDeviceLost());
  FACE_ASSERT_OK(b.Write(0, PageOf('b').data()));
  EXPECT_TRUE(a.failed());
  EXPECT_FALSE(b.failed());
  EXPECT_EQ(b.stats().retries, 0u);
  EXPECT_EQ(inj.transient_failures_on("b"), 0u);

  // Per-device disarm: "a" recovers without a global Disarm.
  inj.DisarmDevice("a");
  a.ResetHealth();
  FACE_ASSERT_OK(a.Write(1, PageOf('c').data()));
  FACE_ASSERT_OK(b.Write(1, PageOf('d').data()));
}

TEST(TransientFaultTest, LatencySpikesMultiplyServiceTimeDeterministically) {
  // Identical devices, identical request streams; one armed with a
  // certain-fire x8 spike profile. Virtual busy time must scale exactly.
  SimDevice plain("p", DeviceProfile::MlcSamsung470(), 128);
  SimDevice spiked("s", DeviceProfile::MlcSamsung470(), 128);
  FaultInjector inj;
  spiked.set_fault_injector(&inj);
  TransientFaultProfile p;
  p.latency_spike_permille = 1000;
  p.latency_spike_factor = 8;
  p.seed = 11;
  inj.ArmTransient("s", p);

  for (uint64_t b = 0; b < 8; ++b) {
    FACE_ASSERT_OK(plain.Write(b, PageOf('x').data()));
    FACE_ASSERT_OK(spiked.Write(b, PageOf('x').data()));
  }
  EXPECT_GT(plain.stats().busy_ns, 0u);
  EXPECT_EQ(spiked.stats().busy_ns, 8 * plain.stats().busy_ns);
  EXPECT_EQ(spiked.stats().retries, 0u);  // spikes are slow, not failed
}

TEST(TransientFaultTest, AttachedButDisarmedInjectorPerturbsNothing) {
  // The zero-perturbation bar: an injector that is attached but never armed
  // must leave every counter bit-identical to a device with no injector.
  SimDevice bare("d", DeviceProfile::Seagate15k(), 128);
  SimDevice hooked("d2", DeviceProfile::Seagate15k(), 128);
  FaultInjector inj;
  hooked.set_fault_injector(&inj);
  EXPECT_FALSE(inj.transient_active());

  std::string buf(kPageSize, '\0');
  for (uint64_t b = 0; b < 16; ++b) {
    FACE_ASSERT_OK(bare.Write(b, PageOf('z').data()));
    FACE_ASSERT_OK(hooked.Write(b, PageOf('z').data()));
    FACE_ASSERT_OK(bare.Read(b, buf.data()));
    FACE_ASSERT_OK(hooked.Read(b, buf.data()));
  }
  EXPECT_EQ(bare.stats().busy_ns, hooked.stats().busy_ns);
  EXPECT_EQ(bare.stats().seq_write_reqs, hooked.stats().seq_write_reqs);
  EXPECT_EQ(hooked.stats().retries, 0u);
  EXPECT_EQ(hooked.stats().backoff_ns, 0u);
}

TEST(FrameLeakTest, FailedAdmissionsAndEvictionsLeaveEveryFrameUsable) {
  // An 8-frame pool whose flash writes all fail: FaCE admits on eviction
  // (GetFreeFrame's victim), TAC on fetch (FetchPage's new frame). Each
  // failed admission used to lose its frame from the pool for good, so a
  // handful of them left the pool Busy with nothing pinned. FaCE+GR stages
  // four admissions per group write, so only every fourth one fails; its
  // failed flush used to leave the staging arena full, and the next
  // admission wrote past the arena's end. TAC's failed admission write used
  // to keep the flash frame it popped off the free stack, so one failure per
  // flash frame left no frame to admit into.
  enum class Config { kFace, kFaceGR, kTac };
  for (const Config config : {Config::kFace, Config::kFaceGR, Config::kTac}) {
    SCOPED_TRACE(config == Config::kFace     ? "FaCE"
                 : config == Config::kFaceGR ? "FaCE+GR"
                                             : "TAC");
    SimDevice db_dev("db", DeviceProfile::Seagate15k(), 256);
    SimDevice log_dev("log", DeviceProfile::Seagate15k(), 1 << 16);
    DbStorage storage(&db_dev);
    LogManager log(&log_dev);
    FACE_ASSERT_OK(log.Format());
    std::unique_ptr<SimDevice> flash;
    std::unique_ptr<CacheExtension> cache;
    if (config == Config::kTac) {
      TacOptions to;
      to.n_frames = 64;
      flash = std::make_unique<SimDevice>(
          "flash", DeviceProfile::MlcSamsung470(),
          TacCache::DeviceBlocksFor(to.n_frames));
      auto c = std::make_unique<TacCache>(to, flash.get(), &storage);
      FACE_ASSERT_OK(c->Format());
      cache = std::move(c);
    } else {
      FaceOptions fo = config == Config::kFace ? FaceOptions::Base(64)
                                               : FaceOptions::GroupReplace(64);
      fo.group_size = 4;
      flash = std::make_unique<SimDevice>(
          "flash", DeviceProfile::MlcSamsung470(),
          FlashLayout::Compute(fo.n_frames, fo.seg_entries).total_blocks);
      auto c = std::make_unique<FaceCache>(fo, flash.get(), &storage);
      FACE_ASSERT_OK(c->Format());
      cache = std::move(c);
    }
    // Pages fetched while every flash write fails: FaCE+GR needs more of
    // them to fail capacity() admissions, TAC one per flash frame.
    const PageId failing = config == Config::kFace ? 32 : 64;
    std::string page(kPageSize, '\0');
    for (PageId pid = 0; pid < failing + 8; ++pid) {
      PageView(page.data()).Format(pid);
      FACE_ASSERT_OK(storage.WritePage(pid, page.data()));
    }
    BufferPool pool(8, &storage, &log, cache.get());

    FaultInjector inj;
    flash->set_fault_injector(&inj);
    TransientFaultProfile p;
    p.write_fail_permille = 1000;
    inj.ArmTransient("flash", p);
    uint32_t failed = 0;
    for (PageId pid = 0; pid < failing; ++pid) {
      if (!pool.FetchPage(pid).ok()) ++failed;
    }
    EXPECT_GE(failed, pool.capacity());

    // The flash is replaced; every frame must still be there to pin.
    inj.DisarmDevice("flash");
    flash->ResetHealth();
    std::vector<PageHandle> pinned;
    for (PageId pid = failing; pid < failing + pool.capacity(); ++pid) {
      FACE_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.FetchPage(pid));
      pinned.push_back(std::move(h));
    }
    EXPECT_EQ(pool.pinned_frames(), pool.capacity());
  }
}

TEST(FrameLeakTest, FailedWalForceKeepsTheVictimResident) {
  // Every LRU victim is dirty and its WAL force fails, so no eviction even
  // starts: each victim must stay resident and mapped. Freeing it anyway
  // would hand the next miss a frame the table still maps to its old page.
  SimDevice db_dev("db", DeviceProfile::Seagate15k(), 256);
  SimDevice log_dev("log", DeviceProfile::Seagate15k(), 1 << 16);
  DbStorage storage(&db_dev);
  LogManager log(&log_dev);
  FACE_ASSERT_OK(log.Format());
  NullCache cache(&storage);
  std::string page(kPageSize, '\0');
  for (PageId pid = 0; pid < 32; ++pid) {
    PageView(page.data()).Format(pid);
    FACE_ASSERT_OK(storage.WritePage(pid, page.data()));
  }
  BufferPool pool(8, &storage, &log, &cache);
  for (PageId pid = 0; pid < pool.capacity(); ++pid) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.FetchPage(pid));
    memcpy(h.data() + kPageHeaderSize, "dirty", 5);
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn_id = 1;
    rec.page_id = pid;
    rec.image = "dirty";
    h.MarkDirty(log.Append(&rec));
  }

  FaultInjector inj;
  log_dev.set_fault_injector(&inj);
  TransientFaultProfile p;
  p.write_fail_permille = 1000;
  inj.ArmTransient("log", p);
  for (PageId pid = pool.capacity(); pid < 3 * pool.capacity(); ++pid) {
    EXPECT_FALSE(pool.FetchPage(pid).ok()) << "page " << pid;
  }

  inj.DisarmDevice("log");
  log_dev.ResetHealth();
  std::vector<PageHandle> pinned;
  for (PageId pid = 0; pid < pool.capacity(); ++pid) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle h, pool.FetchPage(pid));
    EXPECT_EQ(h.view().page_id(), pid);
    EXPECT_EQ(memcmp(h.data() + kPageHeaderSize, "dirty", 5), 0)
        << "page " << pid;
    pinned.push_back(std::move(h));
  }
  EXPECT_EQ(pool.stats().misses, 3 * pool.capacity());
  EXPECT_EQ(pool.pinned_frames(), pool.capacity());
}

// --- faults inside redo's read-ahead lane batches ---------------------------

class ReadAheadFaultTest : public TimedEngineFixture {
 protected:
  /// 96 pages checkpointed to disk, then one more committed write each that
  /// lives only in the WAL: restart must fetch and re-dirty every page.
  void PrepareCrash() {
    Init();
    pages_ = NewPages(96);
    CommitToEach(pages_, "base!");
    FACE_ASSERT_OK(db_->TakeCheckpoint().status());
    CommitToEach(pages_, "redo!");
    FACE_ASSERT_OK(log_->FlushAll());
    Crash();
  }

  void ExpectEveryPageRecovered() {
    for (PageId pid : pages_) {
      ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 5), "redo!") << "page " << pid;
    }
  }

  std::vector<PageId> pages_;
};

TEST_F(ReadAheadFaultTest, ExhaustedReadInsideABatchFailsCleanly) {
  // Every read attempt on the array fails, so the restart's first data
  // read — a read-ahead fetch in the first lane — exhausts its retry
  // budget. Restart must report the lost device with the batch closed, and
  // after the re-attach protocol the next restart must succeed.
  PrepareCrash();
  FaultInjector inj;
  db_dev_->set_fault_injector(&inj);
  TransientFaultProfile p;
  p.read_fail_permille = 1000;
  p.seed = 5;
  inj.ArmTransient("db", p);

  auto failed = Recover();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeviceLost()) << failed.status().ToString();
  EXPECT_EQ(db_dev_->stats().retries, 3u);  // one read, 4 attempts
  EXPECT_FALSE(sched_.in_batch()) << "failed read-ahead left its batch open";
  EXPECT_FALSE(sched_.in_span());

  inj.DisarmDevice("db");
  db_dev_->ResetHealth();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.pages_fetched, pages_.size()) << report.ToString();
  ExpectEveryPageRecovered();
}

TEST_F(ReadAheadFaultTest, PowerCutInsideReadAheadRecoversOnRetry) {
  // Crash-during-recovery storm aimed at the read-ahead: restart runs on a
  // 16-frame pool, so each read-ahead fetch evicts a page redo already
  // re-dirtied and the data writes happen inside lanes. A seeded power cut
  // at one of them must unwind with the batch closed, and the next restart
  // must replay from whatever reached the array.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PrepareCrash();
    if (HasFatalFailure()) return;
    FaultInjector inj;
    inj.AttachScheduler(&sched_);
    inj.SetTearGranularity("db", TearGranularity::kPageAtomic);
    inj.TargetDevice("db");
    db_dev_->set_fault_injector(&inj);
    Random rnd(seed);
    inj.ArmAfterWrites(1 + rnd.Uniform(64), seed);

    auto failed = Recover(/*buffer_frames=*/16);
    ASSERT_FALSE(failed.ok()) << "the power cut never fired";
    ASSERT_TRUE(inj.tripped()) << failed.status().ToString();
    EXPECT_TRUE(inj.site().in_io_batch) << inj.site().ToString();
    EXPECT_FALSE(sched_.in_batch()) << "the cut left its lane batch open";

    inj.Disarm();
    FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover(16));
    EXPECT_GT(report.readahead_batches, 0u) << report.ToString();
    ExpectEveryPageRecovered();
    db_dev_->set_fault_injector(nullptr);
  }
}

// --- faults inside the attach and metadata-restore lanes -------------------

class RestoreLaneFaultTest : public ReadAheadFaultTest {};

TEST_F(RestoreLaneFaultTest, ExhaustedLogReadInTheAttachLaneFailsCleanly) {
  // Seed 6 lets the first log read through — the control block, read
  // before the lanes open — and fails the next one, the attach lane's
  // first window, for all four attempts (one failure plus three sticky
  // ones). Restart must report the lost device with the batch closed.
  PrepareCrash();
  FaultInjector inj;
  log_dev_->set_fault_injector(&inj);
  TransientFaultProfile p;
  p.read_fail_permille = 500;
  p.sticky_failures = 3;
  p.seed = 6;
  inj.ArmTransient("log", p);

  const uint64_t reads0 = log_dev_->stats().read_reqs;
  auto failed = Recover();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeviceLost()) << failed.status().ToString();
  EXPECT_EQ(log_dev_->stats().read_reqs - reads0, 1u);  // the control block
  EXPECT_EQ(log_dev_->stats().retries, 3u);  // one read, 4 attempts
  EXPECT_FALSE(sched_.in_batch()) << "failed attach left its batch open";
  EXPECT_FALSE(sched_.in_span());

  inj.DisarmDevice("log");
  log_dev_->ResetHealth();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.redo_applied, pages_.size()) << report.ToString();
  ExpectEveryPageRecovered();
  log_dev_->set_fault_injector(nullptr);
}

TEST_F(RestoreLaneFaultTest, ExhaustedFlashReadInTheMetadataLaneFailsCleanly) {
  // Every flash read attempt fails, so the metadata restore's first read —
  // FaCE's superblock, in the second lane — exhausts its retry budget.
  face_frames_ = 64;
  PrepareCrash();
  FaultInjector inj;
  flash_dev_->set_fault_injector(&inj);
  TransientFaultProfile p;
  p.read_fail_permille = 1000;
  p.seed = 7;
  inj.ArmTransient("flash", p);

  auto failed = Recover();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeviceLost()) << failed.status().ToString();
  EXPECT_EQ(flash_dev_->stats().retries, 3u);  // one read, 4 attempts
  EXPECT_FALSE(sched_.in_batch()) << "failed restore left its batch open";
  EXPECT_FALSE(sched_.in_span());

  inj.DisarmDevice("flash");
  flash_dev_->ResetHealth();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_GT(report.redo_records, 0u) << report.ToString();
  ExpectEveryPageRecovered();
  flash_dev_->set_fault_injector(nullptr);
}

// --- faults inside the restart checkpoint's write-back lanes ----------------

class WriteBackFaultTest : public ReadAheadFaultTest {
 protected:
  /// Crash with the restart's write-back ahead, and return the number of
  /// disk writes it will issue — its only ones, all inside lanes: policy
  /// none writes the 96 redone pages back, FaCE destages its 64 queued
  /// dirty frames before absorbing their newer images.
  uint64_t PrepareWriteBack(bool face) {
    if (!face) {
      face_frames_ = 0;
      PrepareCrash();
      return pages_.size();
    }
    InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
    queued_ = PrepareDirtyFlashQueue(&pages_);
    return queued_.size();
  }

  void ExpectEveryRowRecovered(bool face) {
    if (!face) return ExpectEveryPageRecovered();
    for (size_t i = 0; i < pages_.size(); ++i) {
      ASSERT_EQ(ReadBytes(pages_[i], kPageHeaderSize, 5),
                i % 8 == 0 ? "rrrrr" : "base!")
          << "page " << pages_[i];
    }
  }

  std::vector<PageId> queued_;
};

TEST_F(WriteBackFaultTest, ExhaustedWriteInsideALaneFailsCleanly) {
  // Every write attempt on the array fails, so the restart's first data
  // write — the final checkpoint's first write-back lane — exhausts its
  // retry budget. Restart must report the lost device with the batch
  // closed, and after the re-attach protocol the next restart must succeed.
  PrepareWriteBack(/*face=*/false);
  FaultInjector inj;
  db_dev_->set_fault_injector(&inj);
  TransientFaultProfile p;
  p.write_fail_permille = 1000;
  p.seed = 9;
  inj.ArmTransient("db", p);

  auto failed = Recover();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsDeviceLost()) << failed.status().ToString();
  EXPECT_EQ(db_dev_->stats().retries, 3u);  // one write, 4 attempts
  EXPECT_FALSE(sched_.in_batch()) << "failed write-back left its batch open";
  EXPECT_FALSE(sched_.in_span());

  inj.DisarmDevice("db");
  db_dev_->ResetHealth();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.writeback_pages, pages_.size()) << report.ToString();
  ExpectEveryPageRecovered();
  db_dev_->set_fault_injector(nullptr);
}

TEST_F(WriteBackFaultTest, PowerCutStormInsideWriteBackLanes) {
  // With a large pool redo evicts nothing, so the restart's disk writes are
  // its final checkpoint's write-back lanes. A seeded power cut at one of
  // them must unwind with the batch closed; the control block still names
  // the old checkpoint, so the next restart redoes everything — under
  // FaCE, the flash queue's persisted state still holds every frame the
  // cut restart destaged.
  for (const bool face : {false, true}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(face ? "FaCE" : "none") + " seed " +
                   std::to_string(seed));
      const uint64_t writes = PrepareWriteBack(face);
      if (HasFatalFailure()) return;
      FaultInjector inj;
      inj.AttachScheduler(&sched_);
      inj.SetTearGranularity("db", TearGranularity::kPageAtomic);
      inj.TargetDevice("db");
      db_dev_->set_fault_injector(&inj);
      Random rnd(seed);
      inj.ArmAfterWrites(1 + rnd.Uniform(writes), seed);

      auto failed = Recover();
      ASSERT_FALSE(failed.ok()) << "the power cut never fired";
      ASSERT_TRUE(inj.tripped()) << failed.status().ToString();
      EXPECT_TRUE(inj.site().in_io_batch) << inj.site().ToString();
      EXPECT_FALSE(sched_.in_batch()) << "the cut left its lane batch open";

      inj.Disarm();
      FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
      if (face) {
        // The queue is as full as before the cut: every frame again.
        EXPECT_EQ(report.writeback_pages, writes) << report.ToString();
      } else {
        // Pages written before the cut already carry their redo; the rest
        // are redone and written back again.
        EXPECT_EQ(report.writeback_pages, report.redo_applied)
            << report.ToString();
      }
      ExpectEveryRowRecovered(face);
      db_dev_->set_fault_injector(nullptr);
    }
  }
}

}  // namespace
}  // namespace face
