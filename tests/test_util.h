// Shared fixtures and helpers for the test suite.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/cache_ext.h"
#include "core/face_cache.h"
#include "core/flash_layout.h"
#include "engine/database.h"
#include "sim/device_model.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"
#include "storage/page.h"
#include "wal/log_manager.h"

#include "testbed/testbed.h"

namespace face {

/// gtest helper: assert a Status is OK with its message on failure.
#define FACE_ASSERT_OK(expr)                                        \
  do {                                                              \
    const ::face::Status _s = (expr);                               \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();            \
  } while (0)

#define FACE_EXPECT_OK(expr)                                        \
  do {                                                              \
    const ::face::Status _s = (expr);                               \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();            \
  } while (0)

/// Unwrap a StatusOr into `lhs`, failing the test on error.
#define FACE_ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  FACE_ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      FACE_CONCAT_(_test_statusor_, __LINE__), lhs, expr)
#define FACE_ASSERT_OK_AND_ASSIGN_IMPL(var, lhs, expr)              \
  auto var = (expr);                                                \
  ASSERT_TRUE(var.ok()) << "status: " << var.status().ToString();   \
  lhs = std::move(var.value())

/// Commit one byte-range write to each of `pages`, one transaction each.
inline void CommitToEach(Database* db, const std::vector<PageId>& pages,
                         const std::string& data) {
  for (PageId pid : pages) {
    const TxnId txn = db->Begin();
    auto page = db->pool()->FetchPage(pid);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    FACE_ASSERT_OK(db->txns()->Update(txn, &page.value(), kPageHeaderSize,
                                      data.data(),
                                      static_cast<uint32_t>(data.size())));
    FACE_ASSERT_OK(db->Commit(txn));
  }
}

/// `n` freshly allocated pages of `db` (resident, not yet on disk).
inline std::vector<PageId> NewPages(Database* db, uint32_t n) {
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < n; ++i) {
    auto page = db->pool()->NewPage();
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) break;
    pages.push_back(page->page_id());
  }
  return pages;
}

/// Every `stride`-th page of `pages`: neighbours on one spindle are then
/// no longer adjacent blocks, so writing them back is random disk I/O.
inline std::vector<PageId> EveryNth(const std::vector<PageId>& pages,
                                    size_t stride) {
  std::vector<PageId> out;
  for (size_t i = 0; i < pages.size(); i += stride) out.push_back(pages[i]);
  return out;
}

/// A committed write too large for a delta record: absorbing it takes a
/// full FaCE frame.
inline std::string FullImage(char fill) { return std::string(3000, fill); }

/// A minimal single-device database stack (no flash cache, instant
/// devices): storage + log + NullCache + Database, formatted and ready.
/// Most engine/txn/recovery unit tests run on this.
class EngineFixture : public ::testing::Test {
 protected:
  /// `db_pages` of database capacity, `buffer_frames` of DRAM.
  void Init(uint64_t db_pages = 4096, uint32_t buffer_frames = 64) {
    db_dev_ = std::make_unique<SimDevice>("db", DeviceProfile::Seagate15k(),
                                          db_pages);
    log_dev_ = std::make_unique<SimDevice>("log", DeviceProfile::Seagate15k(),
                                           uint64_t{1} << 20);
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    cache_ = std::make_unique<NullCache>(storage_.get());
    DatabaseOptions opts;
    opts.buffer_frames = buffer_frames;
    db_ = std::make_unique<Database>(opts, storage_.get(), log_.get(),
                                     cache_.get());
    FACE_ASSERT_OK(db_->Format());
  }

  /// Simulate a crash: rebuild every DRAM structure over the surviving
  /// devices and run recovery.
  void CrashAndRecover(uint32_t buffer_frames = 64) {
    db_.reset();
    cache_.reset();
    log_.reset();
    storage_.reset();
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    cache_ = std::make_unique<NullCache>(storage_.get());
    DatabaseOptions opts;
    opts.buffer_frames = buffer_frames;
    db_ = std::make_unique<Database>(opts, storage_.get(), log_.get(),
                                     cache_.get());
    auto report = db_->Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  std::unique_ptr<SimDevice> db_dev_;
  std::unique_ptr<SimDevice> log_dev_;
  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CacheExtension> cache_;
  std::unique_ptr<Database> db_;
};

/// EngineFixture's stack on a virtual-time scheduler, with the database on
/// the testbed's 8-spindle RAID-0 array and the log on its own disk: for
/// tests that time restart or need its lane batches to exist. Work before
/// the crash runs outside any span (stations are charged, no token moves);
/// recovery runs on a background token, exactly as in Testbed. InitFace
/// adds a base-FaCE flash cache on its own flash device.
class TimedEngineFixture : public ::testing::Test {
 protected:
  void Init(uint32_t buffer_frames = 256) {
    Crash();  // re-Init: DRAM must not outlive the devices it points at
    db_dev_ = std::make_unique<SimDevice>(
        "db", DeviceProfile::Raid0Seagate(8), /*capacity_pages=*/16384,
        &sched_);
    log_dev_ = std::make_unique<SimDevice>("log", DeviceProfile::Seagate15k(),
                                           uint64_t{1} << 20, &sched_);
    flash_dev_.reset();
    if (face_frames_ > 0) {
      flash_dev_ = std::make_unique<SimDevice>(
          "flash", DeviceProfile::MlcSamsung470(),
          FlashLayout::Compute(face_frames_, face_options_.seg_entries)
              .total_blocks,
          &sched_);
    }
    recovery_token_ = sched_.AddBackgroundToken();
    BuildStack(buffer_frames);
    FACE_ASSERT_OK(db_->Format());
    FACE_ASSERT_OK(cache_->Format());
  }

  /// Init with a FaCE cache of `flash_frames` frames.
  void InitFace(uint32_t buffer_frames, uint64_t flash_frames) {
    face_frames_ = flash_frames;
    Init(buffer_frames);
  }
  /// Init with a FaCE cache configured by `options`.
  void InitFace(uint32_t buffer_frames, const FaceOptions& options) {
    face_options_ = options;
    InitFace(buffer_frames, options.n_frames);
  }

  /// Commit one byte-range write to each of `pages`.
  void CommitToEach(const std::vector<PageId>& pages, const std::string& data) {
    face::CommitToEach(db_.get(), pages, data);
  }

  /// `n` freshly allocated pages (resident, not yet on disk).
  std::vector<PageId> NewPages(uint32_t n) {
    return face::NewPages(db_.get(), n);
  }

  /// FaCE stack (InitFace with a pool that holds 8x the flash frames):
  /// leaves the flash queue full of valid dirty frames, one per returned
  /// page, and each of those pages a newer full image that lives only in
  /// the WAL, then crashes. Restart fetches the pages from flash, and its
  /// final checkpoint must destage every queued frame to make room for
  /// their new images — random disk writes, the pages lying 8 apart.
  /// `all` (optional) receives every page written, each holding "base!"
  /// unless it is queued ("r" image).
  std::vector<PageId> PrepareDirtyFlashQueue(std::vector<PageId>* all = nullptr) {
    const std::vector<PageId> pages =
        NewPages(static_cast<uint32_t>(8 * face_frames_));
    CommitToEach(pages, "base!");
    EXPECT_TRUE(db_->TakeCheckpoint().ok());
    const std::vector<PageId> queued = EveryNth(pages, 8);
    CommitToEach(queued, FullImage('f'));
    EXPECT_TRUE(db_->TakeCheckpoint().ok());
    CommitToEach(queued, FullImage('r'));
    EXPECT_TRUE(log_->FlushAll().ok());
    Crash();
    if (all != nullptr) *all = pages;
    return queued;
  }

  /// Power failure: every DRAM structure is discarded.
  void Crash() {
    db_.reset();
    cache_.reset();
    log_.reset();
    storage_.reset();
  }

  /// Rebuild DRAM over the surviving devices with a cold pool of
  /// `buffer_frames` and run restart on the recovery token.
  StatusOr<RestartReport> Recover(uint32_t buffer_frames = 256) {
    Crash();  // a failed restart's DRAM dies too
    BuildStack(buffer_frames);
    return db_->Recover(&sched_, recovery_token_);
  }

  /// Page bytes at `offset` (fetches through the pool).
  std::string ReadBytes(PageId page_id, uint16_t offset, uint32_t len) {
    auto page = db_->pool()->FetchPage(page_id);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) return "";
    return std::string(page->data() + offset, len);
  }

  static constexpr uint32_t kFaceSegEntries = 16;

  IoScheduler sched_{1};
  uint32_t recovery_token_ = 0;
  uint64_t face_frames_ = 0;  ///< 0 = no flash cache (NullCache)
  /// The FaCE configuration (n_frames is face_frames_): base FaCE with
  /// kFaceSegEntries-entry segments unless InitFace was given options.
  FaceOptions face_options_ = [] {
    FaceOptions o;
    o.seg_entries = kFaceSegEntries;
    return o;
  }();
  std::unique_ptr<SimDevice> db_dev_;
  std::unique_ptr<SimDevice> log_dev_;
  std::unique_ptr<SimDevice> flash_dev_;
  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CacheExtension> cache_;
  std::unique_ptr<Database> db_;

  /// Fresh DRAM structures over the devices (no recovery run).
  void BuildStack(uint32_t buffer_frames) {
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    if (flash_dev_ != nullptr) {
      FaceOptions fo = face_options_;
      fo.n_frames = face_frames_;
      cache_ = std::make_unique<FaceCache>(fo, flash_dev_.get(),
                                           storage_.get());
    } else {
      cache_ = std::make_unique<NullCache>(storage_.get());
    }
    DatabaseOptions opts;
    opts.buffer_frames = buffer_frames;
    db_ = std::make_unique<Database>(opts, storage_.get(), log_.get(),
                                     cache_.get());
  }
};

/// One 1-warehouse golden image shared by every test in the binary —
/// building it is the expensive part of the system-level tests.
inline const GoldenImage& SharedGolden() {
  static GoldenImage* golden = [] {
    auto g = GoldenImage::Build(1);
    if (!g.ok()) {
      ADD_FAILURE() << "golden build failed: " << g.status().ToString();
      return new GoldenImage();
    }
    return new GoldenImage(std::move(g.value()));
  }();
  return *golden;
}

}  // namespace face
