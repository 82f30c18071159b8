// Unit tests: checkpointing and ARIES-style restart on the plain engine
// (no flash cache) — atomicity, durability, idempotent redo, CLR handling,
// checkpoint-bounded redo, allocator restoration, one-image update records
// on pages redo materializes — plus redo read-ahead, its flash-covered
// skip, and the restart checkpoint's lane-batched write-back on the timed
// RAID-0 stack, and a degraded restart through the same routine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "recovery/redo.h"
#include "recovery/restart.h"
#include "testbed/crash_storm.h"
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

TEST_F(RecoveryTest, PageCreatedAfterTheCheckpointIsRebuiltRowForRow) {
  // A table created after the last checkpoint, whose pages never reach the
  // disk: redo materializes each page as NewPage formatted it, and XORing
  // the update records' before-XOR-after images into those bytes must
  // rebuild every row, including rows partly rewritten in place.
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);
  FACE_ASSERT_OK_AND_ASSIGN(HeapFile heap, db_->CreateTable(&w, "late"));
  std::vector<std::pair<Rid, std::string>> rows;
  for (int i = 0; i < 30; ++i) {
    std::string row(300, static_cast<char>('a' + i % 26));
    row.replace(0, 4, std::to_string(1000 + i));
    FACE_ASSERT_OK_AND_ASSIGN(Rid rid, heap.Insert(&w, row));
    rows.emplace_back(rid, row);
  }
  for (size_t i = 0; i < rows.size(); i += 3) {
    rows[i].second.replace(100, 8, "UPDATED!");
    FACE_ASSERT_OK(heap.Update(&w, rows[i].first, rows[i].second));
  }
  FACE_ASSERT_OK(db_->Commit(txn));
  ASSERT_GT(rows.back().first.page_id, rows.front().first.page_id);

  CrashAndRecover();
  FACE_ASSERT_OK_AND_ASSIGN(HeapFile back, db_->OpenTable("late"));
  for (const auto& [rid, row] : rows) {
    std::string out;
    FACE_ASSERT_OK(back.Read(rid, &out));
    EXPECT_EQ(out, row) << "rid " << rid.page_id << ":" << rid.slot;
  }
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t count, back.CountRows());
  EXPECT_EQ(count, rows.size());
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
  // ceil(150 / window) read-ahead windows of half the pool each.
  const std::vector<PageId> pages = NewPages(150);
  CommitToEach(pages, "base");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  CommitToEach(pages, "pass1");
  CommitToEach(pages, "pass2");
  FACE_ASSERT_OK(log_->FlushAll());

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  const size_t window = db_->pool()->capacity() / 2;
  ASSERT_LT(window, pages.size());  // more than one window
  EXPECT_EQ(report.pages_fetched, pages.size()) << report.ToString();
  EXPECT_EQ(report.readahead_pages, pages.size());
  EXPECT_EQ(report.readahead_batches, (pages.size() + window - 1) / window);
  EXPECT_EQ(report.redo_applied, 2 * pages.size());
  for (PageId pid : pages) {
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 5), "pass2") << "page " << pid;
  }
}

// --- flash-covered redo -----------------------------------------------------

class FlashCoveredRedoTest : public TimedEngineFixture {
 protected:
  /// FaCE stack where every post-checkpoint update already sits in flash:
  /// 16 pages committed and absorbed into flash by a checkpoint, then each
  /// overwritten with a full image and evicted from DRAM into a new frame.
  std::vector<PageId> PrepareFlashCoveredLog() {
    InitFace(/*buffer_frames=*/64, /*flash_frames=*/64);
    const std::vector<PageId> pages = NewPages(16);
    CommitToEach(pages, "base!");
    EXPECT_TRUE(db_->TakeCheckpoint().ok());
    CommitToEach(pages, FullImage('c'));
    EXPECT_TRUE(db_->pool()->EvictAll().ok());
    EXPECT_TRUE(log_->FlushAll().ok());
    return pages;
  }

  void ExpectEveryPageHoldsItsLastImage(const std::vector<PageId>& pages) {
    const std::string image = FullImage('c');
    for (PageId pid : pages) {
      ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 3000), image) << "page " << pid;
    }
  }
};

TEST_F(FlashCoveredRedoTest, RecordsFlashAlreadyHoldsFetchNothing) {
  // Every record after the checkpoint is covered by its page's restored
  // flash frame, so redo skips them all without a fetch: no page is read
  // during the whole restart, and every page still reads back its newest
  // image (from flash).
  const std::vector<PageId> pages = PrepareFlashCoveredLog();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.redo_records, pages.size()) << report.ToString();
  EXPECT_EQ(report.redo_skipped, pages.size()) << report.ToString();
  EXPECT_EQ(report.redo_applied, 0u) << report.ToString();
  EXPECT_EQ(report.pages_fetched, 0u) << report.ToString();
  EXPECT_EQ(report.readahead_batches, 0u) << report.ToString();
  FACE_ASSERT_OK(cache_->CheckInvariants());
  ExpectEveryPageHoldsItsLastImage(pages);
}

TEST_F(FlashCoveredRedoTest, DegradedRestartSkipsNothing) {
  // The same log, but the control block says flash was lost before the
  // crash: no flash copy is trusted, so redo replays every record from the
  // rebuild floor onto the pages it materializes (none ever reached disk).
  const std::vector<PageId> pages = PrepareFlashCoveredLog();
  FACE_ASSERT_OK_AND_ASSIGN(WalControlInfo ctrl, log_->ReadControlInfo());
  ctrl.degraded = true;
  ctrl.rebuild_floor = cache_->FlashRedoFloor();
  ASSERT_LT(ctrl.rebuild_floor, ctrl.checkpoint_lsn);
  FACE_ASSERT_OK(log_->WriteControlInfo(ctrl));

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_TRUE(report.degraded) << report.ToString();
  EXPECT_EQ(report.redo_skipped, 0u) << report.ToString();
  EXPECT_EQ(report.redo_applied, 2 * pages.size()) << report.ToString();
  ExpectEveryPageHoldsItsLastImage(pages);
}

// --- one log read per restart -----------------------------------------------

class SingleLogReadTest : public TimedEngineFixture {};

TEST_F(SingleLogReadTest, RestartReadsEachLogBlockOnce) {
  // More than two windows of committed log after the last checkpoint and
  // no loser older than it: one control-block read, then one read per
  // 64-block window of the scanned range. Analysis and redo walk the
  // records the attach pass decoded, and undo reads the windows it kept,
  // so analysis takes no virtual time.
  Init();
  const std::vector<PageId> pages = NewPages(200);
  CommitToEach(pages, "base!");
  FACE_ASSERT_OK_AND_ASSIGN(const Lsn ckpt, db_->TakeCheckpoint());
  CommitToEach(pages, FullImage('n'));
  const Lsn end = log_->durable_lsn();
  const uint64_t scanned = end / kPageSize - ckpt / kPageSize + 1;
  const uint64_t windows = (scanned + 63) / 64;
  ASSERT_GT(windows, 2u);

  const uint64_t reads0 = log_dev_->stats().read_reqs;
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(log_dev_->stats().read_reqs - reads0, 1 + windows)
      << report.ToString();
  EXPECT_EQ(report.checkpoint_lsn, ckpt);
  EXPECT_EQ(report.losers, 0u);
  EXPECT_GT(report.analysis_records, pages.size());
  EXPECT_EQ(report.analysis_ns, 0) << report.ToString();
  EXPECT_EQ(report.redo_applied, pages.size()) << report.ToString();
  const std::string image = FullImage('n');
  for (PageId pid : pages) {
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 3000), image) << "page " << pid;
  }
}

TEST_F(SingleLogReadTest, DegradedRestartReadsTheLogOnceFromTheFloor) {
  // Flash was lost with dirty frames whose rebuild floor lies more than a
  // window below the checkpoint and above the log's first window. The
  // restart's one pass starts at the floor and reads forward to the end:
  // one control-block read, then one 64-block window after another. No
  // block below the floor is read, and no window is refilled.
  InitFace(/*buffer_frames=*/64, /*flash_frames=*/64);
  const std::vector<PageId> hot = NewPages(16);
  for (char c = 'a'; c < 'c'; ++c) CommitToEach(hot, FullImage(c));
  FACE_ASSERT_OK(db_->pool()->FlushAllToDisk());  // log below the floor
  const std::vector<PageId> lost = NewPages(16);
  CommitToEach(lost, "base!");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());  // absorbed dirty: floor
  for (char c = 'c'; c < 'l'; ++c) CommitToEach(hot, FullImage(c));
  FACE_ASSERT_OK_AND_ASSIGN(const Lsn ckpt, db_->TakeCheckpoint());
  for (char c = 'l'; c < 's'; ++c) CommitToEach(hot, FullImage(c));
  FACE_ASSERT_OK(log_->FlushAll());
  FACE_ASSERT_OK_AND_ASSIGN(WalControlInfo ctrl, log_->ReadControlInfo());
  ASSERT_EQ(ctrl.checkpoint_lsn, ckpt);
  ctrl.degraded = true;
  ctrl.rebuild_floor = cache_->FlashRedoFloor();
  FACE_ASSERT_OK(log_->WriteControlInfo(ctrl));
  const uint64_t floor_block = ctrl.rebuild_floor / kPageSize;
  const uint64_t end_block = log_->durable_lsn() / kPageSize;
  ASSERT_GT(floor_block, LogManager::kLogStartLsn / kPageSize + 16);
  ASSERT_GT(ckpt / kPageSize, floor_block + 64) << "floor within a window";
  ASSERT_GT(end_block, ckpt / kPageSize + 64) << "one window past the ckpt";
  const uint64_t windows = (end_block - floor_block + 1 + 63) / 64;

  const DeviceStats before = log_dev_->stats();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_TRUE(report.degraded) << report.ToString();
  EXPECT_EQ(report.redo_lsn, ctrl.rebuild_floor) << report.ToString();
  EXPECT_EQ(log_dev_->stats().read_reqs - before.read_reqs, 1 + windows)
      << report.ToString();
  EXPECT_EQ(log_dev_->stats().pages_read - before.pages_read,
            1 + 64 * windows)
      << report.ToString();
  for (PageId pid : lost) {
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 5), "base!") << "page " << pid;
  }
  const std::string image = FullImage('r');
  for (PageId pid : hot) {
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 3000), image) << "page " << pid;
  }
}

TEST_F(SingleLogReadTest, FaceMetadataRestoreOverlapsTheLogScan) {
  // FaCE: the log scan (log disk) and the metadata restore (flash) run as
  // two lanes. The device service of each is measured on its own first,
  // from the very state the restart then starts from; steps 0-1 together
  // must take less than the two summed.
  InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
  std::vector<PageId> all;
  const std::vector<PageId> queued = PrepareDirtyFlashQueue(&all);
  BuildStack(/*buffer_frames=*/256);
  const SimNanos log0 = log_dev_->stats().busy_ns;
  FACE_ASSERT_OK(log_->Attach());  // the control read and the scan
  const SimNanos log_service = log_dev_->stats().busy_ns - log0;
  const SimNanos flash0 = flash_dev_->stats().busy_ns;
  FACE_ASSERT_OK(cache_->RecoverAfterCrash());
  const SimNanos restore_service = flash_dev_->stats().busy_ns - flash0;
  ASSERT_GT(log_service, 0);
  ASSERT_GT(restore_service, 0);

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.meta_restore_ns, restore_service) << report.ToString();
  EXPECT_LT(report.attach_ns + report.meta_restore_ns,
            log_service + restore_service)
      << report.ToString();
  EXPECT_EQ(report.pages_from_flash, queued.size()) << report.ToString();
  FACE_ASSERT_OK(cache_->CheckInvariants());
  const std::string image = FullImage('r');
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 8 == 0) {
      ASSERT_EQ(ReadBytes(all[i], kPageHeaderSize, 3000), image)
          << "page " << all[i];
    } else {
      ASSERT_EQ(ReadBytes(all[i], kPageHeaderSize, 5), "base!")
          << "page " << all[i];
    }
  }
}

TEST_F(SingleLogReadTest, FaceDeltaRingReadOverlapsTheRedoDiskFetches) {
  // FaCE with live delta chains. Redo re-attaches them in its first
  // read-ahead batch, where the ring read (flash) overlaps the fetches of
  // pages outside the directory (disk). Three sets of pages carry one
  // write each after the last checkpoint:
  //   covered: the write reached a durable chain record, so redo skips it
  //     without a fetch, but only once the chains are attached;
  //   chained: a chain record from the checkpoint, then a write only the
  //     WAL holds: fetched from flash, chain applied, the write redone;
  //   on disk: never in flash (clean pages are not admitted), a write only
  //     the WAL holds. The four lie two apart on one spindle, so their
  //     fetches queue there as random reads.
  // The flash service of one read of the ring region and the disk service
  // of reading the four pages are measured on their own first; the
  // metadata restore and redo together must take less than the two summed.
  FaceOptions options;
  options.n_frames = 4096;  // a 256-block ring outlasts the directory restore
  options.seg_entries = kFaceSegEntries;
  options.cache_clean = false;
  InitFace(/*buffer_frames=*/256, options);
  const std::vector<PageId> pages = NewPages(48);
  CommitToEach(pages, "base!");
  FACE_ASSERT_OK(db_->pool()->FlushAllToDisk());
  std::vector<PageId> disk, covered, chained;
  for (PageId pid : pages) {
    if (disk.empty() && pid % 16 == 0 && pid + 6 <= pages.back()) {
      disk = {pid, pid + 2, pid + 4, pid + 6};
    }
  }
  ASSERT_EQ(disk.size(), 4u);
  for (PageId pid : pages) {
    if (std::find(disk.begin(), disk.end(), pid) != disk.end()) continue;
    (covered.size() < 8 ? covered : chained).push_back(pid);
    if (chained.size() == 8) break;
  }
  std::vector<PageId> flashed = covered;
  flashed.insert(flashed.end(), chained.begin(), chained.end());
  const uint16_t chain_at = kPageHeaderSize + 3000;
  const uint16_t last_at = chain_at + 8;
  auto commit_at = [&](const std::vector<PageId>& set, uint16_t offset,
                       const char* data) {
    for (PageId pid : set) {
      const TxnId txn = db_->Begin();
      FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->FetchPage(pid));
      FACE_ASSERT_OK(db_->txns()->Update(txn, &page, offset, data, 5));
      FACE_ASSERT_OK(db_->Commit(txn));
    }
  };
  CommitToEach(flashed, FullImage('f'));
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());  // full frames
  commit_at(flashed, chain_at, "chain");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());  // chain records
  commit_at(covered, last_at, "cover");
  FACE_ASSERT_OK(db_->pool()->EvictAll());  // covered: one more record each
  // Make those records durable, as a filled ring block's write would,
  // without a checkpoint record: redo still starts below them.
  FACE_ASSERT_OK(cache_->OnCheckpoint());
  commit_at(chained, last_at, "redo!");
  commit_at(disk, last_at, "disk!");
  FACE_ASSERT_OK(log_->FlushAll());
  Crash();

  const FlashLayout layout =
      FlashLayout::Compute(options.n_frames, options.seg_entries);
  std::string ring(static_cast<size_t>(layout.delta_blocks) * kPageSize, '\0');
  const SimNanos flash0 = flash_dev_->stats().busy_ns;
  FACE_ASSERT_OK(flash_dev_->ReadBatch(
      layout.delta_base, static_cast<uint32_t>(layout.delta_blocks),
      ring.data()));
  const SimNanos ring_service = flash_dev_->stats().busy_ns - flash0;
  std::string page(kPageSize, '\0');
  const SimNanos disk0 = db_dev_->stats().busy_ns;
  for (PageId pid : disk) FACE_ASSERT_OK(db_dev_->Read(pid, page.data()));
  const SimNanos disk_service = db_dev_->stats().busy_ns - disk0;
  ASSERT_GT(ring_service, 0);
  ASSERT_GT(disk_service, 0);

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_LT(report.meta_restore_ns + report.redo_ns,
            ring_service + disk_service)
      << report.ToString();
  EXPECT_EQ(report.redo_skipped, covered.size()) << report.ToString();
  EXPECT_EQ(report.pages_from_flash, chained.size()) << report.ToString();
  EXPECT_EQ(report.pages_from_disk, disk.size()) << report.ToString();
  FACE_ASSERT_OK(cache_->CheckInvariants());
  for (PageId pid : pages) {
    const bool in_flash =
        std::find(flashed.begin(), flashed.end(), pid) != flashed.end();
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 5), in_flash ? "fffff" : "base!")
        << "page " << pid;
    if (in_flash) {
      ASSERT_EQ(ReadBytes(pid, chain_at, 5), "chain") << "page " << pid;
    }
  }
  for (PageId pid : covered) ASSERT_EQ(ReadBytes(pid, last_at, 5), "cover");
  for (PageId pid : chained) ASSERT_EQ(ReadBytes(pid, last_at, 5), "redo!");
  for (PageId pid : disk) ASSERT_EQ(ReadBytes(pid, last_at, 5), "disk!");
}

// --- undo leaves the log force to the restart checkpoint --------------------

class UndoForceTest : public TimedEngineFixture {
 protected:
  /// 8 pages holding "base!", each then overwritten by its own loser
  /// transaction whose update reached the log and, stolen, the disk.
  void PrepareLosers() {
    Init();
    pages_ = NewPages(8);
    CommitToEach(pages_, "base!");
    FACE_ASSERT_OK(db_->TakeCheckpoint().status());
    for (PageId pid : pages_) {
      const TxnId loser = db_->Begin();
      FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->FetchPage(pid));
      FACE_ASSERT_OK(db_->txns()->Update(loser, &page, kPageHeaderSize,
                                         "LOSER", 5));
    }
    FACE_ASSERT_OK(db_->pool()->FlushAllToDisk());
    Crash();
  }

  std::vector<PageId> pages_;
};

TEST_F(UndoForceTest, PowerCutBeforeTheClrsAreDurableRollsBackAgain) {
  // A clean restart writes the log two times: the checkpoint's force of
  // the CLRs, Abort records and BEGIN, and the control block.
  PrepareLosers();
  const uint64_t writes0 = log_dev_->stats().write_reqs;
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport clean, Recover());
  EXPECT_EQ(log_dev_->stats().write_reqs - writes0, 2u) << clean.ToString();
  EXPECT_EQ(clean.losers, pages_.size());
  EXPECT_EQ(clean.undo_records, pages_.size());

  // Power fails at the restart's first log write, the checkpoint's force:
  // no CLR reaches the log, so the next restart finds the same losers and
  // rolls them back again.
  PrepareLosers();
  FaultInjector inj;
  inj.AttachScheduler(&sched_);
  inj.SetTearGranularity("log", TearGranularity::kPageAtomic);
  inj.TargetDevice("log");
  log_dev_->set_fault_injector(&inj);
  inj.ArmAfterWrites(1, /*seed=*/5);
  auto cut_short = Recover();
  ASSERT_FALSE(cut_short.ok()) << "the power cut never fired";
  ASSERT_TRUE(inj.tripped());
  inj.Disarm();
  log_dev_->set_fault_injector(nullptr);

  LogReader reader(log_dev_.get());
  FACE_ASSERT_OK_AND_ASSIGN(const Lsn ckpt, log_->ReadControlBlock());
  FACE_ASSERT_OK(reader.Seek(ckpt));
  uint64_t clrs = 0;
  while (true) {
    auto rec = reader.Next();
    if (!rec.ok()) break;
    if (rec->type == LogRecordType::kClr) ++clrs;
  }
  EXPECT_EQ(clrs, 0u);

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport again, Recover());
  EXPECT_EQ(again.losers, pages_.size()) << again.ToString();
  EXPECT_EQ(again.undo_records, pages_.size()) << again.ToString();
  for (PageId pid : pages_) {
    ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 5), "base!") << "page " << pid;
  }
}

// --- lane-batched restart write-back -------------------------------------------

class WriteBackTest : public TimedEngineFixture {};

TEST_F(WriteBackTest, DiskWritesOfTheRestartCheckpointOverlap) {
  // Policy none, 150 dirty pages spread over the 8-spindle array (4 apart,
  // so each write is a random one). A runtime checkpoint writes them one
  // after another, which measures their summed write service. Their next
  // versions live only in the WAL: restart redoes them, and its final
  // checkpoint writes the same 150 pages back as one lane batch.
  Init(/*buffer_frames=*/1024);
  const std::vector<PageId> all = NewPages(600);
  CommitToEach(all, "base!");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  const std::vector<PageId> pages = EveryNth(all, 4);
  ASSERT_EQ(pages.size(), 150u);
  CommitToEach(pages, "ckpt!");
  const SimNanos busy0 = db_dev_->stats().busy_ns;
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  const SimNanos write_service = db_dev_->stats().busy_ns - busy0;
  CommitToEach(pages, "redo!");
  FACE_ASSERT_OK(log_->FlushAll());

  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.redo_applied, pages.size()) << report.ToString();
  EXPECT_EQ(report.writeback_batches, 1u) << report.ToString();
  EXPECT_EQ(report.writeback_pages, pages.size()) << report.ToString();
  EXPECT_FALSE(sched_.in_batch());
  ASSERT_GT(write_service, 0);
  EXPECT_LT(report.checkpoint_ns * 2, write_service) << report.ToString();

  Crash();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport again, Recover());
  EXPECT_EQ(again.redo_applied, 0u) << again.ToString();
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(ReadBytes(all[i], kPageHeaderSize, 5), i % 4 == 0 ? "redo!"
                                                                : "base!")
        << "page " << all[i];
  }
}

TEST_F(WriteBackTest, FaceDestagesOfTheRestartCheckpointOverlap) {
  // FaCE with a full queue of dirty frames: the final checkpoint's 64 full
  // images need every queued frame destaged to disk first. Redo fetches
  // from flash, so the array's busy time during restart is exactly those
  // destages' write service; one after another they would take at least
  // that long.
  InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
  std::vector<PageId> all;
  const std::vector<PageId> queued = PrepareDirtyFlashQueue(&all);
  ASSERT_EQ(queued.size(), 64u);

  // The restart alone: Database::Recover's catalog load would add reads.
  BuildStack(/*buffer_frames=*/256);
  RestartManager restart(log_.get(), db_->pool(), db_->txns(), storage_.get(),
                         cache_.get(), &sched_, recovery_token_);
  const DeviceStats disk0 = db_dev_->stats();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, restart.Run());
  const DeviceStats disk1 = db_dev_->stats();
  EXPECT_EQ(report.pages_from_flash, queued.size()) << report.ToString();
  EXPECT_EQ(disk1.read_reqs, disk0.read_reqs);
  EXPECT_EQ(disk1.write_reqs - disk0.write_reqs, queued.size());
  EXPECT_EQ(report.writeback_batches, 1u) << report.ToString();
  EXPECT_EQ(report.writeback_pages, queued.size()) << report.ToString();
  const SimNanos destage_service = disk1.busy_ns - disk0.busy_ns;
  ASSERT_GT(destage_service, 0);
  EXPECT_LT(report.checkpoint_ns * 2, destage_service) << report.ToString();
  FACE_ASSERT_OK(cache_->CheckInvariants());

  // Row for row: the queued pages carry their last image, the rest "base!".
  Crash();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport again, Recover());
  EXPECT_EQ(again.redo_applied, 0u) << again.ToString();
  const std::string image = FullImage('r');
  for (size_t i = 0; i < all.size(); ++i) {
    if (i % 8 == 0) {
      ASSERT_EQ(ReadBytes(all[i], kPageHeaderSize, 3000), image)
          << "page " << all[i];
    } else {
      ASSERT_EQ(ReadBytes(all[i], kPageHeaderSize, 5), "base!")
          << "page " << all[i];
    }
  }
}

TEST_F(WriteBackTest, FaceFrameAndLogWritesWaitForEveryDestage) {
  // Ordering, checked with power cuts. The restart checkpoint's log force
  // is the first lane of FaCE's destage batch, ahead of every destage in
  // host order: a cut there leaves no destage and no flash frame written.
  // The restart's first flash write is a new frame: by then all 64
  // destages must have reached the disk and their batch must be closed, so
  // the frame write starts after the last destage lane ended. The same
  // holds for every later log write, the control block's among them.
  InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
  PrepareDirtyFlashQueue();
  FaultInjector counter;
  log_dev_->set_fault_injector(&counter);
  FACE_ASSERT_OK(Recover().status());
  log_dev_->set_fault_injector(nullptr);
  const uint64_t log_writes = counter.writes_observed_on("log");
  ASSERT_GE(log_writes, 2u);

  struct Cut {
    const char* device;
    uint64_t nth;
  };
  std::vector<Cut> cuts = {{"flash", 1}};
  for (uint64_t n = 1; n <= log_writes; ++n) cuts.push_back({"log", n});
  for (const Cut& cut : cuts) {
    SCOPED_TRACE(std::string(cut.device) + " write " + std::to_string(cut.nth));
    InitFace(1024, 64);
    const std::vector<PageId> queued = PrepareDirtyFlashQueue();
    const bool force = std::string(cut.device) == "log" && cut.nth == 1;
    SimDevice* dev = std::string(cut.device) == "flash" ? flash_dev_.get()
                                                         : log_dev_.get();
    FaultInjector inj;
    inj.AttachScheduler(&sched_);
    inj.SetTearGranularity(cut.device, TearGranularity::kPageAtomic);
    inj.TargetDevice(cut.device);
    dev->set_fault_injector(&inj);
    inj.ArmAfterWrites(cut.nth, /*seed=*/3);
    const uint64_t disk_writes0 = db_dev_->stats().write_reqs;
    const uint64_t flash_writes0 = flash_dev_->stats().write_reqs;

    auto cut_short = Recover();
    ASSERT_FALSE(cut_short.ok()) << "the power cut never fired";
    ASSERT_TRUE(inj.tripped());
    EXPECT_EQ(inj.site().in_io_batch, force) << inj.site().ToString();
    EXPECT_EQ(db_dev_->stats().write_reqs - disk_writes0,
              force ? 0u : queued.size());
    if (force) {
      EXPECT_EQ(flash_dev_->stats().write_reqs, flash_writes0);
    }

    inj.Disarm();
    dev->set_fault_injector(nullptr);
    FACE_ASSERT_OK(Recover().status());
    for (PageId pid : queued) {
      ASSERT_EQ(ReadBytes(pid, kPageHeaderSize, 3), "rrr") << "page " << pid;
    }
  }
}

TEST_F(WriteBackTest, FaceForceRunsBesideTheDestages) {
  // FaCE with a full queue of dirty frames. Run one after another, the
  // restart checkpoint's force, its destage batch and what follows the
  // batch (the new frames, the control block) would take their sum. The
  // force runs as the batch's first lane instead, so the checkpoint's span
  // is shorter. The virtual-time spans come from the tracer.
#if !FACE_OBS_ENABLED
  GTEST_SKIP() << "needs the tracer's virtual-time spans (FACE_OBS=ON)";
#else
  InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
  const std::vector<PageId> queued = PrepareDirtyFlashQueue();
  obs::Tracer& tracer = obs::Tracer::Instance();
  tracer.Clear();
  tracer.SetEnabled(true);
  obs::SetVirtualClock(&sched_);
  auto report = Recover();
  obs::SetVirtualClock(nullptr);
  tracer.SetEnabled(false);
  FACE_ASSERT_OK(report.status());
  EXPECT_EQ(report->writeback_pages, queued.size()) << report->ToString();

  auto is = [](const obs::Tracer::Span& s, const char* component,
               const char* name) {
    return std::string(s.component) == component &&
           std::string(s.name) == name;
  };
  const obs::Tracer::Span* ckpt = nullptr;
  for (const obs::Tracer::Span& s : tracer.spans()) {
    if (is(s, "recovery", "checkpoint")) ckpt = &s;
  }
  ASSERT_NE(ckpt, nullptr);
  const obs::Tracer::Span* force = nullptr;
  const obs::Tracer::Span* batch = nullptr;
  for (const obs::Tracer::Span& s : tracer.spans()) {
    if (s.v_start_ns < ckpt->v_start_ns || s.v_end_ns > ckpt->v_end_ns) {
      continue;
    }
    if (force == nullptr && is(s, "wal", "force")) force = &s;
    if (is(s, "recovery", "writeback")) batch = &s;
  }
  ASSERT_NE(force, nullptr);
  ASSERT_NE(batch, nullptr);
  const SimNanos force_ns = force->v_end_ns - force->v_start_ns;
  const SimNanos batch_ns = batch->v_end_ns - batch->v_start_ns;
  const SimNanos tail_ns = ckpt->v_end_ns - batch->v_end_ns;
  ASSERT_GT(force_ns, 0u);
  EXPECT_EQ(static_cast<uint64_t>(report->checkpoint_ns),
            ckpt->v_end_ns - ckpt->v_start_ns);
  EXPECT_LT(report->checkpoint_ns, force_ns + batch_ns + tail_ns)
      << report->ToString();
#endif
}

TEST_F(WriteBackTest, FaceAbsorptionsStayInTheRebuildLedger) {
  // A page absorbed into FaCE whose older dirty frame the same absorption
  // destages to make room: the new frame is again newer than disk, so the
  // page must stay in the WAL rebuild ledger (FlashRedoFloor caps log
  // truncation with it; a flash loss rebuilds the pages it lists).
  auto ledger = [this] {
    std::vector<FlashOnlyPage> dirty;
    cache_->CollectFlashOnlyDirty(&dirty);
    std::vector<PageId> ids;
    for (const FlashOnlyPage& p : dirty) ids.push_back(p.page_id);
    return ids;
  };

  // Runtime checkpoint, one page: the queue's front frame is its own.
  InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
  const std::vector<PageId> pages = NewPages(128);
  CommitToEach(pages, "base!");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  const std::vector<PageId> queued(pages.begin() + 64, pages.end());
  EXPECT_EQ(ledger(), queued);
  const PageId front = queued.front();
  CommitToEach({front}, FullImage('x'));
  const uint64_t disk_writes = db_dev_->stats().write_reqs;
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  EXPECT_EQ(db_dev_->stats().write_reqs - disk_writes, 1u);  // its destage
  EXPECT_EQ(ledger(), queued);
  EXPECT_NE(cache_->FlashRedoFloor(), kInvalidLsn);

  // Restart checkpoint: one sweep destages all 64 old frames of the pages
  // whose new images it then absorbs.
  InitFace(/*buffer_frames=*/1024, /*flash_frames=*/64);
  const std::vector<PageId> destaged = PrepareDirtyFlashQueue();
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, Recover());
  EXPECT_EQ(report.writeback_pages, destaged.size()) << report.ToString();
  EXPECT_EQ(ledger(), destaged);
  EXPECT_NE(cache_->FlashRedoFloor(), kInvalidLsn);
}

TEST(DegradedRestartTest, RedoFromTheRebuildFloorRecoversEveryRow) {
  // Flash dies after a checkpoint absorbed dirty pages into it, and power
  // fails right after the durable degraded marker: restart must redo from
  // the persisted rebuild floor — below the checkpoint — through the same
  // read-ahead routine, and the table must match the committed history.
  auto factory = std::make_shared<workload::YcsbFactory>(StormKv(1200));
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
  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, tb.Audit());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// --- the restart checkpoint's one destage batch -----------------------------

/// A resident, delta-heavy restart: the flash cache holds the whole KV
/// database behind the smallest delta ring (4 blocks), and the crash comes
/// an interval of small updates after a checkpoint. Redo refetches the
/// updated pages from flash, so the restart checkpoint offers most of them
/// as delta records, and their appends reach ring slots that still hold
/// live chains.
void ResidentDeltaRestart(CachePolicy policy, RestartReport* report) {
  auto factory = std::make_shared<workload::YcsbFactory>(StormKv(1200));
  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden, GoldenImage::BuildFor(factory));

  TestbedOptions to;
  to.clients = 8;
  to.seed = 5;
  to.workload = factory;
  to.buffer_frames = 16;
  to.flash_pages = golden.db_pages();
  ASSERT_LT(to.flash_pages, 64u) << "the delta ring would outgrow 4 blocks";
  to.seg_entries = 16;
  to.group_size = 8;
  to.policy = policy;
  Testbed tb(to, &golden);
  FACE_ASSERT_OK(tb.Start());
  RunOptions warm;
  warm.txns = 400;
  FACE_ASSERT_OK(tb.Run(warm).status());
  FACE_ASSERT_OK(tb.db()->TakeCheckpoint().status());
  RunOptions body;
  body.txns = 60;
  FACE_ASSERT_OK(tb.Run(body).status());
  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(*report, tb.Recover());
  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, tb.Audit());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(RestartCheckpointTest, EveryFlavorDestagesOnlyInsideTheLaneBatch) {
  // The checkpoint's delta appends reuse ring slots: the chains there come
  // back as full frames, and the room for them is made in the one lane
  // batch — no destage runs outside it, for any FaCE flavor.
  for (const CachePolicy policy : {CachePolicy::kFace, CachePolicy::kFaceGR,
                                   CachePolicy::kFaceGSC}) {
    SCOPED_TRACE(CachePolicyName(policy));
    RestartReport report;
    ResidentDeltaRestart(policy, &report);
    EXPECT_GT(report.reclaimed_chains, 0u) << report.ToString();
    EXPECT_EQ(report.serial_destages, 0u) << report.ToString();
    EXPECT_GT(report.writeback_pages, 0u) << report.ToString();
  }
}

}  // namespace
}  // namespace face
