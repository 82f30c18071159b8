// Unit tests: checkpointing and ARIES-style restart on the plain engine
// (no flash cache) — atomicity, durability, idempotent redo, CLR handling,
// checkpoint-bounded redo, allocator restoration — plus redo read-ahead on
// the timed RAID-0 stack and a degraded restart through the same routine.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/diff_checker.h"
#include "fault/fault_injector.h"
#include "fault/shadow_kv.h"
#include "recovery/redo.h"
#include "recovery/restart.h"
#include "tests/test_util.h"

namespace face {
namespace {

class RecoveryTest : public EngineFixture {
 protected:
  void SetUp() override { Init(); }

  /// One committed byte-range write at `offset` of `page_id`.
  void CommitWrite(PageId page_id, uint16_t offset, const std::string& data) {
    const TxnId txn = db_->Begin();
    auto page = db_->pool()->FetchPage(page_id);
    ASSERT_TRUE(page.ok());
    FACE_ASSERT_OK(db_->txns()->Update(txn, &page.value(), offset,
                                       data.data(),
                                       static_cast<uint32_t>(data.size())));
    FACE_ASSERT_OK(db_->Commit(txn));
  }

  std::string ReadBytes(PageId page_id, uint16_t offset, uint32_t len) {
    auto page = db_->pool()->FetchPage(page_id);
    EXPECT_TRUE(page.ok());
    return std::string(page->data() + offset, len);
  }
};

TEST_F(RecoveryTest, CommittedWorkSurvivesCrash) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();
  CommitWrite(pid, kPageHeaderSize, "committed!");

  CrashAndRecover();
  EXPECT_EQ(ReadBytes(pid, kPageHeaderSize, 10), "committed!");
}

TEST_F(RecoveryTest, UncommittedWorkIsUndone) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();  // CrashAndRecover destroys the pool this handle pins
  CommitWrite(pid, kPageHeaderSize, "baseline--");

  const TxnId loser = db_->Begin();
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->FetchPage(pid));
    FACE_ASSERT_OK(db_->txns()->Update(loser, &p, kPageHeaderSize,
                                       "LOSERLOSER", 10));
  }
  // Leak the loser's records to disk (group-commit co-flush), then force
  // the dirty page itself out (steal) so undo genuinely has work to do.
  FACE_ASSERT_OK(log_->FlushAll());
  FACE_ASSERT_OK(db_->pool()->EvictAll());

  CrashAndRecover();
  EXPECT_EQ(ReadBytes(pid, kPageHeaderSize, 10), "baseline--");
}

TEST_F(RecoveryTest, RestartReportCountsPhases) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();
  for (int i = 0; i < 5; ++i) {
    CommitWrite(pid, static_cast<uint16_t>(kPageHeaderSize + i * 16),
                "record" + std::to_string(i));
  }
  const TxnId loser = db_->Begin();
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->FetchPage(pid));
    FACE_ASSERT_OK(
        db_->txns()->Update(loser, &p, kPageHeaderSize + 200, "xx", 2));
  }
  FACE_ASSERT_OK(log_->FlushAll());

  db_.reset();
  cache_.reset();
  log_.reset();
  storage_.reset();
  storage_ = std::make_unique<DbStorage>(db_dev_.get());
  log_ = std::make_unique<LogManager>(log_dev_.get());
  cache_ = std::make_unique<NullCache>(storage_.get());
  DatabaseOptions opts;
  opts.buffer_frames = 64;
  db_ = std::make_unique<Database>(opts, storage_.get(), log_.get(),
                                   cache_.get());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, db_->Recover());
  EXPECT_GT(report.analysis_records, 0u);
  EXPECT_GT(report.redo_records, 0u);
  EXPECT_EQ(report.losers, 1u);
  EXPECT_EQ(report.undo_records, 1u);
  EXPECT_FALSE(report.ToString().empty());
}

TEST_F(RecoveryTest, RedoIsIdempotentAcrossDoubleCrash) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();
  CommitWrite(pid, kPageHeaderSize, "idempotent");

  CrashAndRecover();
  // Crash again immediately — recovery must replay cleanly a second time.
  CrashAndRecover();
  EXPECT_EQ(ReadBytes(pid, kPageHeaderSize, 10), "idempotent");
}

TEST_F(RecoveryTest, CheckpointBoundsRedoWork) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();
  for (int i = 0; i < 50; ++i) {
    CommitWrite(pid, kPageHeaderSize, "v" + std::to_string(i % 10));
  }
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  CommitWrite(pid, kPageHeaderSize + 32, "after-ckpt");

  db_.reset();
  cache_.reset();
  log_.reset();
  storage_.reset();
  storage_ = std::make_unique<DbStorage>(db_dev_.get());
  log_ = std::make_unique<LogManager>(log_dev_.get());
  cache_ = std::make_unique<NullCache>(storage_.get());
  DatabaseOptions opts;
  opts.buffer_frames = 64;
  db_ = std::make_unique<Database>(opts, storage_.get(), log_.get(),
                                   cache_.get());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, db_->Recover());
  // Redo starts at the checkpoint: only the post-checkpoint txn records
  // (begin+update+commit) are scanned, not the 50 pre-checkpoint commits.
  EXPECT_LT(report.redo_records, 10u);
  EXPECT_EQ(ReadBytes(pid, kPageHeaderSize + 32, 10), "after-ckpt");
}

TEST_F(RecoveryTest, CrashDuringAbortFinishesRollback) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();  // CrashAndRecover destroys the pool this handle pins
  CommitWrite(pid, kPageHeaderSize, "0000000000");

  // A transaction writes twice; we emulate a crash half-way through its
  // abort: the first update was already compensated by a CLR (logged),
  // the second was not.
  const TxnId txn = db_->Begin();
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->FetchPage(pid));
    FACE_ASSERT_OK(
        db_->txns()->Update(txn, &p, kPageHeaderSize, "1111111111", 10));
    FACE_ASSERT_OK(
        db_->txns()->Update(txn, &p, kPageHeaderSize + 16, "2222222222", 10));
  }
  FACE_ASSERT_OK(log_->FlushAll());
  FACE_ASSERT_OK(db_->pool()->EvictAll());

  CrashAndRecover();
  // Both updates rolled back.
  EXPECT_EQ(ReadBytes(pid, kPageHeaderSize, 10), "0000000000");
  EXPECT_EQ(ReadBytes(pid, kPageHeaderSize + 16, 10), std::string(10, '\0'));
}

TEST_F(RecoveryTest, AllocatorHighWaterMarkRestored) {
  for (int i = 0; i < 7; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->NewPage());
    CommitWrite(p.page_id(), kPageHeaderSize, "fill");
  }
  const PageId next_before = storage_->next_page_id();
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());

  CrashAndRecover();
  EXPECT_GE(storage_->next_page_id(), next_before);
  // Fresh allocations must not collide with recovered pages.
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->NewPage());
  EXPECT_GE(p.page_id(), next_before);
}

TEST_F(RecoveryTest, CheckpointerRecordsDptAndAtt) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const TxnId txn = db_->Begin();
  FACE_ASSERT_OK(
      db_->txns()->Update(txn, &page, kPageHeaderSize, "dirty", 5));
  FACE_ASSERT_OK_AND_ASSIGN(Lsn ckpt_lsn, db_->TakeCheckpoint());

  FACE_ASSERT_OK(log_->FlushAll());
  LogReader reader(log_dev_.get());
  FACE_ASSERT_OK(reader.Seek(ckpt_lsn));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord begin, reader.Next());
  ASSERT_EQ(begin.type, LogRecordType::kCheckpointBegin);
  EXPECT_EQ(begin.active_txns.size(), 1u);
  EXPECT_EQ(begin.active_txns[0].txn_id, txn);
  EXPECT_EQ(begin.next_page_id, storage_->next_page_id());
  FACE_ASSERT_OK(db_->Commit(txn));
}

TEST_F(RecoveryTest, ControlBlockPointsAtLastCompleteCheckpoint) {
  FACE_ASSERT_OK_AND_ASSIGN(Lsn first, db_->TakeCheckpoint());
  FACE_ASSERT_OK_AND_ASSIGN(Lsn second, db_->TakeCheckpoint());
  EXPECT_GT(second, first);
  FACE_ASSERT_OK_AND_ASSIGN(Lsn recorded, log_->ReadControlBlock());
  EXPECT_EQ(recorded, second);
}

// --- redo read-ahead ----------------------------------------------------------

class ReadAheadTest : public TimedEngineFixture {
 protected:
  void SetUp() override { Init(); }
};

TEST_F(ReadAheadTest, RedoFetchesOverlapAcrossSpindles) {
  // 150 pages striped over the 8-spindle array, current on disk, so redo
  // only reads them (pageLSN test skips every record) and the restart's
  // final checkpoint writes no data page: the array's busy time during
  // restart is exactly the sum of redo's fetch service times.
  const std::vector<PageId> pages = NewPages(150);
  CommitToEach(pages, "striped");
  FACE_ASSERT_OK(db_->pool()->FlushAllToDisk());

  const SimNanos busy0 = db_dev_->stats().busy_ns;
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  const SimNanos fetch_service = db_dev_->stats().busy_ns - busy0;
  EXPECT_EQ(report.redo_applied, 0u) << report.ToString();
  EXPECT_EQ(report.pages_from_disk, pages.size()) << report.ToString();
  ASSERT_GT(fetch_service, 0);
  // Serial fetches would take at least fetch_service; overlapped lanes
  // spread over eight spindles take a fraction of it.
  EXPECT_LT(report.redo_ns, fetch_service) << report.ToString();
  EXPECT_LT(report.redo_ns * 2, fetch_service) << report.ToString();
}

TEST_F(ReadAheadTest, EachNonResidentPageIsFetchedOnce) {
  // Two post-checkpoint passes over 150 pages: the second pass finds every
  // page resident, so redo fetches exactly the 150 distinct pages, in
  // ceil(150 / kRedoReadAheadPages) read-ahead windows.
  const std::vector<PageId> pages = NewPages(150);
  CommitToEach(pages, "base");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  CommitToEach(pages, "pass1");
  CommitToEach(pages, "pass2");
  FACE_ASSERT_OK(log_->FlushAll());

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.pages_fetched, pages.size()) << report.ToString();
  EXPECT_EQ(report.readahead_pages, pages.size());
  EXPECT_EQ(report.readahead_batches,
            (pages.size() + kRedoReadAheadPages - 1) / kRedoReadAheadPages);
  EXPECT_EQ(report.redo_applied, 2 * pages.size());
  for (PageId pid : pages) {
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 5), "pass2") << "page " << pid;
  }
}

TEST(DegradedRestartTest, RedoFromTheRebuildFloorRecoversEveryRow) {
  // Flash dies after a checkpoint absorbed dirty pages into it, and power
  // fails right after the durable degraded marker: restart must redo from
  // the persisted rebuild floor — below the checkpoint — through the same
  // read-ahead routine, and the table must match the committed history.
  fault::ShadowKvOptions wo;
  wo.records = 1200;
  wo.value_bytes = 160;
  auto shadow = std::make_shared<fault::ShadowState>();
  auto factory = std::make_shared<fault::ShadowKvFactory>(wo, shadow);
  shadow->Reset(wo.records, wo.value_bytes);
  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden, GoldenImage::BuildFor(factory));

  TestbedOptions to;
  to.clients = 8;
  to.seed = 91;
  to.workload = factory;
  to.buffer_frames = 64;
  to.flash_pages = 512;
  to.seg_entries = 256;
  to.policy = CachePolicy::kFace;
  Testbed tb(to, &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions warm;
  warm.txns = 400;
  FACE_ASSERT_OK(tb.Run(warm).status());
  FACE_ASSERT_OK(tb.db()->TakeCheckpoint().status());
  RunOptions more;
  more.txns = 100;
  FACE_ASSERT_OK(tb.Run(more).status());

  tb.set_mid_degrade_hook(
      [] { return Status::IOError("simulated power loss during rebuild"); });
  FaultInjector inj;
  tb.flash_dev()->set_fault_injector(&inj);
  inj.KillDevice("flash");
  RunOptions body;
  body.txns = 300;
  ASSERT_FALSE(tb.Run(body).ok()) << "the mid-degrade hook never fired";
  tb.set_mid_degrade_hook(nullptr);

  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  EXPECT_TRUE(report.degraded) << report.ToString();
  EXPECT_LT(report.redo_lsn, report.checkpoint_lsn)
      << "redo did not reach below the checkpoint\n" << report.ToString();
  EXPECT_GT(report.redo_applied, 0u) << report.ToString();
  EXPECT_GT(report.readahead_batches, 0u) << report.ToString();
  FACE_ASSERT_OK_AND_ASSIGN(
      fault::DiffReport diff,
      fault::RunDifferentialCheck(*tb.db(), shadow.get(), tb.cache()));
  EXPECT_TRUE(diff.ok()) << diff.ToString();
}

}  // namespace
}  // namespace face
