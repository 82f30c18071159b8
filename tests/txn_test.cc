// Unit tests: transaction lifecycle, physiological logging with
// diff-trimming and one before-XOR-after image per update, abort/undo with
// CLRs (in memory and log-driven), read-only fast path.
#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "txn/transaction_manager.h"
#include "wal/log_record.h"

namespace face {
namespace {

class TxnTest : public EngineFixture {
 protected:
  void SetUp() override { Init(); }

  /// Read back all durable records (forces the log first).
  std::vector<LogRecord> DumpLog() {
    EXPECT_TRUE(log_->FlushAll().ok());
    std::vector<LogRecord> records;
    LogReader reader(log_dev_.get());
    EXPECT_TRUE(reader.Seek(LogManager::kLogStartLsn).ok());
    while (true) {
      auto rec = reader.Next();
      if (!rec.ok()) break;
      records.push_back(std::move(rec.value()));
    }
    return records;
  }
};

TEST_F(TxnTest, UpdateAppliesAndLogs) {
  const TxnId txn = db_->txns()->Begin();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const char* data = "transactional";
  FACE_ASSERT_OK(db_->txns()->Update(txn, &page, kPageHeaderSize, data, 13));
  EXPECT_EQ(memcmp(page.data() + kPageHeaderSize, data, 13), 0);
  FACE_ASSERT_OK(db_->txns()->Commit(txn));

  bool saw_begin = false, saw_update = false, saw_commit = false;
  for (const LogRecord& rec : DumpLog()) {
    if (rec.txn_id != txn) continue;
    if (rec.type == LogRecordType::kBegin) saw_begin = true;
    if (rec.type == LogRecordType::kUpdate) {
      saw_update = true;
      // One image, before XOR after: the fresh page's range was zeroes, so
      // the image equals the written bytes.
      EXPECT_EQ(rec.image, std::string(data, 13));
      EXPECT_EQ(rec.EncodedSize(), UpdateRecordSize(13));
    }
    if (rec.type == LogRecordType::kCommit) saw_commit = true;
  }
  EXPECT_TRUE(saw_begin && saw_update && saw_commit);
}

TEST_F(TxnTest, DiffTrimmingLogsOnlyChangedSpan) {
  const TxnId txn = db_->txns()->Begin();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  // Prime 100 bytes, then change only bytes [40, 43).
  std::string base(100, 'z');
  FACE_ASSERT_OK(db_->txns()->Update(txn, &page, kPageHeaderSize,
                                     base.data(), 100));
  std::string changed = base;
  changed[40] = 'A';
  changed[42] = 'B';
  FACE_ASSERT_OK(db_->txns()->Update(txn, &page, kPageHeaderSize,
                                     changed.data(), 100));
  FACE_ASSERT_OK(db_->txns()->Commit(txn));

  // The second update must be trimmed to the 3-byte changed span. (The log
  // also holds the Format-time checkpoint and the Begin record.)
  std::vector<LogRecord> updates;
  for (LogRecord& rec : DumpLog()) {
    if (rec.type == LogRecordType::kUpdate) updates.push_back(std::move(rec));
  }
  ASSERT_EQ(updates.size(), 2u);
  const LogRecord& trimmed = updates[1];
  EXPECT_EQ(trimmed.offset, kPageHeaderSize + 40);
  ASSERT_EQ(trimmed.image.size(), 3u);
  // 'z' XOR 'A', an unchanged byte (XOR 0), 'z' XOR 'B'.
  EXPECT_EQ(trimmed.image[0], static_cast<char>('z' ^ 'A'));
  EXPECT_EQ(trimmed.image[1], '\0');
  EXPECT_EQ(trimmed.image[2], static_cast<char>('z' ^ 'B'));
}

TEST_F(TxnTest, NoOpUpdateLogsNothing) {
  const TxnId txn = db_->txns()->Begin();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  std::string zeros(64, '\0');
  FACE_ASSERT_OK(db_->txns()->Update(txn, &page, kPageHeaderSize,
                                     zeros.data(), 64));
  EXPECT_EQ(db_->txns()->stats().updates, 0u);
  FACE_ASSERT_OK(db_->txns()->Commit(txn));
}

TEST_F(TxnTest, AbortRestoresAllBytesInReverse) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId page_id = page.page_id();
  page.Release();

  const TxnId txn = db_->txns()->Begin();
  for (int i = 0; i < 10; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->FetchPage(page_id));
    const std::string v = "step" + std::to_string(i);
    FACE_ASSERT_OK(db_->txns()->Update(
        txn, &p, static_cast<uint16_t>(kPageHeaderSize + i * 8), v.data(),
        static_cast<uint32_t>(v.size())));
  }
  FACE_ASSERT_OK(db_->txns()->Abort(txn));

  FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->FetchPage(page_id));
  for (uint32_t i = kPageHeaderSize; i < kPageHeaderSize + 80; ++i) {
    EXPECT_EQ(p.data()[i], '\0') << "byte " << i;
  }
  // The log must contain CLRs chaining backwards.
  int clrs = 0;
  for (const LogRecord& rec : DumpLog()) {
    if (rec.type == LogRecordType::kClr) {
      ++clrs;
      EXPECT_NE(rec.undo_next_lsn, kInvalidLsn);
    }
  }
  EXPECT_EQ(clrs, 10);
}

TEST_F(TxnTest, LogDrivenUndoRebuildsTheBeforeImage) {
  // A committed write, then a loser overwriting part of it, durable in the
  // log but never committed. Restart's redo repeats the loser's update and
  // its undo must XOR the record's one image back out of the page: the
  // committed bytes come back, and the CLR carries them as a full image.
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId page_id = page.page_id();
  const TxnId winner = db_->txns()->Begin();
  FACE_ASSERT_OK(db_->txns()->Update(winner, &page, kPageHeaderSize,
                                     "committed-bytes", 15));
  FACE_ASSERT_OK(db_->txns()->Commit(winner));
  const TxnId loser = db_->txns()->Begin();
  FACE_ASSERT_OK(db_->txns()->Update(loser, &page, kPageHeaderSize + 4,
                                     "LOSER", 5));
  page.Release();
  FACE_ASSERT_OK(log_->FlushAll());

  CrashAndRecover();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle p, db_->pool()->FetchPage(page_id));
  EXPECT_EQ(std::string(p.data() + kPageHeaderSize, 15), "committed-bytes");
  int clrs = 0;
  for (const LogRecord& rec : DumpLog()) {
    if (rec.type != LogRecordType::kClr) continue;
    ++clrs;
    EXPECT_EQ(rec.txn_id, loser);
    EXPECT_EQ(rec.offset, kPageHeaderSize + 4);
    EXPECT_EQ(rec.image, "itted");  // the before image of "LOSER"
  }
  EXPECT_EQ(clrs, 1);
}

TEST_F(TxnTest, ReadOnlyCommitLogsNothing) {
  const uint64_t bytes_before = log_->stats().bytes_appended;
  const TxnId txn = db_->txns()->Begin();
  FACE_ASSERT_OK(db_->txns()->Commit(txn));
  EXPECT_EQ(log_->stats().bytes_appended, bytes_before);
  // Same for a read-only abort.
  const TxnId txn2 = db_->txns()->Begin();
  FACE_ASSERT_OK(db_->txns()->Abort(txn2));
  EXPECT_EQ(log_->stats().bytes_appended, bytes_before);
}

TEST_F(TxnTest, CommitForcesTheLog) {
  const TxnId txn = db_->txns()->Begin();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  FACE_ASSERT_OK(db_->txns()->Update(txn, &page, kPageHeaderSize, "d", 1));
  EXPECT_LT(log_->durable_lsn(), log_->next_lsn());
  FACE_ASSERT_OK(db_->txns()->Commit(txn));
  EXPECT_EQ(log_->durable_lsn(), log_->next_lsn());
}

TEST_F(TxnTest, InterleavedTransactionsKeepSeparateChains) {
  const TxnId a = db_->txns()->Begin();
  const TxnId b = db_->txns()->Begin();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle pa, db_->pool()->NewPage());
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle pb, db_->pool()->NewPage());
  FACE_ASSERT_OK(db_->txns()->Update(a, &pa, kPageHeaderSize, "AAAA", 4));
  FACE_ASSERT_OK(db_->txns()->Update(b, &pb, kPageHeaderSize, "BBBB", 4));
  FACE_ASSERT_OK(db_->txns()->Update(a, &pa, kPageHeaderSize + 8, "aaaa", 4));
  EXPECT_EQ(db_->txns()->active_count(), 2u);
  FACE_ASSERT_OK(db_->txns()->Commit(a));
  // Aborting b must not disturb a's committed bytes.
  FACE_ASSERT_OK(db_->txns()->Abort(b));
  EXPECT_EQ(memcmp(pa.data() + kPageHeaderSize, "AAAA", 4), 0);
  EXPECT_EQ(memcmp(pb.data() + kPageHeaderSize, "\0\0\0\0", 4), 0);
}

TEST_F(TxnTest, OperationsOnInactiveTxnsFail) {
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  EXPECT_TRUE(db_->txns()->Update(999, &page, 0, "x", 1).IsInvalidArgument());
  EXPECT_TRUE(db_->txns()->Commit(999).IsInvalidArgument());
  EXPECT_TRUE(db_->txns()->Abort(999).IsInvalidArgument());
}

TEST_F(TxnTest, ActiveTxnsSkipsUnloggedTransactions) {
  const TxnId ro = db_->txns()->Begin();
  const TxnId rw = db_->txns()->Begin();
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  FACE_ASSERT_OK(db_->txns()->Update(rw, &page, kPageHeaderSize, "w", 1));
  const auto att = db_->txns()->ActiveTxns();
  ASSERT_EQ(att.size(), 1u);
  EXPECT_EQ(att[0].txn_id, rw);
  FACE_ASSERT_OK(db_->txns()->Commit(ro));
  FACE_ASSERT_OK(db_->txns()->Commit(rw));
}

}  // namespace
}  // namespace face
