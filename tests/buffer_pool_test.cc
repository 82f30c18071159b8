// Unit tests: buffer pool LRU behavior, pin discipline, dirty/fdirty flag
// protocol, WAL-before-data, eviction through the cache extension, victim
// pulling.
#include <gtest/gtest.h>

#include <memory>

#include "buffer/buffer_pool.h"
#include "tests/test_util.h"

namespace face {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_dev_ = std::make_unique<SimDevice>("db", DeviceProfile::Seagate15k(),
                                          4096);
    log_dev_ = std::make_unique<SimDevice>("log", DeviceProfile::Seagate15k(),
                                           1 << 16);
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    FACE_ASSERT_OK(log_->Format());
    cache_ = std::make_unique<NullCache>(storage_.get());
    pool_ = std::make_unique<BufferPool>(8, storage_.get(), log_.get(),
                                         cache_.get());
  }

  std::unique_ptr<SimDevice> db_dev_, log_dev_;
  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CacheExtension> cache_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, NewPageIsFormattedAndPinned) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
  EXPECT_EQ(page.page_id(), 0u);
  EXPECT_EQ(page.view().page_id(), 0u);
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  page.Release();
  EXPECT_EQ(pool_->pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, FetchHitsAfterFirstFetch) {
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
    memcpy(page.data() + kPageHeaderSize, "data", 4);
    page.MarkDirty(kInvalidLsn);
  }
  FACE_ASSERT_OK(pool_->FlushAllToDisk());
  const uint64_t hits = pool_->stats().hits;
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle again, pool_->FetchPage(0));
  EXPECT_EQ(pool_->stats().hits, hits + 1);
  EXPECT_EQ(memcmp(again.data() + kPageHeaderSize, "data", 4), 0);
}

TEST_F(BufferPoolTest, VirginFetchIsNotFound) {
  EXPECT_TRUE(pool_->FetchPage(99).status().IsNotFound());
}

TEST_F(BufferPoolTest, EvictionWritesDirtyPagesToDisk) {
  // Dirty one page, then flood the pool to force its eviction.
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
    memcpy(page.data() + kPageHeaderSize, "persist me", 10);
    page.MarkDirty(kInvalidLsn);
  }
  for (int i = 0; i < 10; ++i) {
    FACE_ASSERT_OK(pool_->NewPage().status());
  }
  EXPECT_GT(pool_->stats().dirty_evictions, 0u);
  // The page must come back from disk with its content.
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle back, pool_->FetchPage(0));
  EXPECT_EQ(memcmp(back.data() + kPageHeaderSize, "persist me", 10), 0);
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle pinned, pool_->NewPage());
  memcpy(pinned.data() + kPageHeaderSize, "pinned", 6);
  for (int i = 0; i < 20; ++i) {
    FACE_ASSERT_OK(pool_->NewPage().status());
  }
  // Still valid and untouched.
  EXPECT_EQ(memcmp(pinned.data() + kPageHeaderSize, "pinned", 6), 0);
}

TEST_F(BufferPoolTest, AllPinnedReportsBusy) {
  std::vector<PageHandle> pins;
  for (int i = 0; i < 8; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, pool_->NewPage());
    pins.push_back(std::move(p));
  }
  EXPECT_TRUE(pool_->NewPage().status().IsBusy());
}

TEST_F(BufferPoolTest, WalForcedBeforeDirtyPageLeaves) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
  // Simulate a logged update at LSN 9000 without flushing the WAL.
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = 1;
  rec.page_id = page.page_id();
  rec.image = "d";
  const Lsn lsn = log_->Append(&rec);
  page.MarkDirty(lsn);
  EXPECT_EQ(page.view().lsn(), lsn);
  page.Release();
  EXPECT_LE(log_->durable_lsn(), lsn);  // record not yet durable
  // Eviction must force the WAL through the pageLSN first.
  for (int i = 0; i < 10; ++i) FACE_ASSERT_OK(pool_->NewPage().status());
  EXPECT_GT(log_->durable_lsn(), lsn);
}

TEST_F(BufferPoolTest, MarkDirtySetsFlagsAndRecLsn) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, pool_->NewPage());
  page.MarkDirty(500);
  // recLSN = first dirtying LSN; later updates do not move it.
  page.MarkDirty(900);
  auto dpt = pool_->CollectDirtyPages();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].page_id, page.page_id());
  EXPECT_EQ(dpt[0].rec_lsn, 500u);
  EXPECT_EQ(page.view().lsn(), 900u);
}

TEST_F(BufferPoolTest, PullVictimSurrendersLruTail) {
  std::vector<PageId> created;
  for (int i = 0; i < 4; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, pool_->NewPage());
    p.MarkDirty(kInvalidLsn);
    created.push_back(p.page_id());
  }
  std::string buf(kPageSize, '\0');
  bool dirty = false, fdirty = false;
  Lsn rec_lsn = kInvalidLsn;
  const PageId victim = pool_->PullVictim(buf.data(), &dirty, &fdirty,
                                          &rec_lsn);
  EXPECT_EQ(victim, created[0]);  // LRU order
  EXPECT_TRUE(dirty);
  EXPECT_EQ(PageView(buf.data()).page_id(), victim);
  EXPECT_EQ(pool_->pages_in_pool(), 3u);
}

TEST_F(BufferPoolTest, EvictAllEmptiesUnpinnedFrames) {
  for (int i = 0; i < 5; ++i) FACE_ASSERT_OK(pool_->NewPage().status());
  FACE_ASSERT_OK(pool_->EvictAll());
  EXPECT_EQ(pool_->pages_in_pool(), 0u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandles) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle a, pool_->NewPage());
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  b.Release();
  EXPECT_EQ(pool_->pinned_frames(), 0u);
}

}  // namespace
}  // namespace face
