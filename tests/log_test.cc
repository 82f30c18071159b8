// Unit tests: WAL record codec, LogManager append/force/attach, LogReader
// scanning, torn-tail detection, control block, truncation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/sim_device.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace face {
namespace {

LogRecord MakeUpdate(TxnId txn, PageId page, uint16_t offset,
                     const std::string& image) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn;
  rec.page_id = page;
  rec.offset = offset;
  rec.image = image;
  return rec;
}

TEST(LogRecordTest, EncodeDecodeAllTypes) {
  const std::string before = "old!", after = "new!";
  std::string diff(4, '\0');
  for (int i = 0; i < 4; ++i) diff[i] = static_cast<char>(before[i] ^ after[i]);
  LogRecord update = MakeUpdate(7, 42, 100, diff);
  update.lsn = 4096;
  update.prev_lsn = 2048;
  const std::string bytes = update.Encode();
  EXPECT_EQ(bytes.size(), update.EncodedSize());
  FACE_ASSERT_OK_AND_ASSIGN(
      LogRecord decoded,
      LogRecord::Decode(bytes.data(), static_cast<uint32_t>(bytes.size())));
  EXPECT_EQ(decoded.type, LogRecordType::kUpdate);
  EXPECT_EQ(decoded.txn_id, 7u);
  EXPECT_EQ(decoded.page_id, 42u);
  EXPECT_EQ(decoded.offset, 100);
  EXPECT_EQ(decoded.image, diff);
  EXPECT_EQ(decoded.prev_lsn, 2048u);
  // One image, not two: the in-place encoder XORs the two images into the
  // same bytes.
  EXPECT_EQ(bytes.size(), UpdateRecordSize(4));
  std::string in_place(UpdateRecordSize(4), '\0');
  EncodeUpdateRecordTo(in_place.data(), 4096, 7, 2048, 42, 100, before.data(),
                       after.data(), 4);
  EXPECT_EQ(in_place, bytes);

  LogRecord ckpt;
  ckpt.type = LogRecordType::kCheckpointBegin;
  ckpt.lsn = 8192;
  ckpt.next_page_id = 500;
  ckpt.dirty_pages = {{1, 100}, {2, 200}};
  ckpt.active_txns = {{9, 300}, {11, 400}};
  const std::string cbytes = ckpt.Encode();
  // Header, the hwm and two counts, then 16 bytes per DPT and ATT entry.
  EXPECT_EQ(ckpt.EncodedSize(), kLogRecordHeaderSize + 16 + 16 * 2 + 16 * 2);
  EXPECT_EQ(cbytes.size(), ckpt.EncodedSize());
  FACE_ASSERT_OK_AND_ASSIGN(
      LogRecord cdec,
      LogRecord::Decode(cbytes.data(), static_cast<uint32_t>(cbytes.size())));
  EXPECT_EQ(cdec.next_page_id, 500u);
  ASSERT_EQ(cdec.dirty_pages.size(), 2u);
  EXPECT_EQ(cdec.dirty_pages[1].page_id, 2u);
  EXPECT_EQ(cdec.dirty_pages[1].rec_lsn, 200u);
  ASSERT_EQ(cdec.active_txns.size(), 2u);
  EXPECT_EQ(cdec.active_txns[0].txn_id, 9u);
  EXPECT_EQ(cdec.active_txns[0].last_lsn, 300u);
  EXPECT_EQ(cdec.active_txns[1].txn_id, 11u);
  EXPECT_EQ(cdec.active_txns[1].last_lsn, 400u);

  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.lsn = 1;
  clr.txn_id = 3;
  clr.page_id = 8;
  clr.offset = 16;
  clr.image = "comp";
  clr.undo_next_lsn = 77;
  const std::string lbytes = clr.Encode();
  FACE_ASSERT_OK_AND_ASSIGN(
      LogRecord ldec,
      LogRecord::Decode(lbytes.data(), static_cast<uint32_t>(lbytes.size())));
  EXPECT_EQ(ldec.undo_next_lsn, 77u);
  EXPECT_EQ(ldec.image, "comp");
}

TEST(LogRecordTest, RetiredTypesDecodeAsUnknownType) {
  // Type 7 was CHECKPOINT_END, 8 and 9 two-phase commit's PREPARE and
  // GLOBAL_COMMIT; nothing logs them any more. A stale one with a valid crc
  // is an unknown type.
  for (const uint8_t type : {7, 8, 9}) {
    std::string bytes(ControlRecordSize(), '\0');
    EncodeControlRecordTo(bytes.data(), static_cast<LogRecordType>(type),
                          4096, 0, 0);
    const auto decoded =
        LogRecord::Decode(bytes.data(), static_cast<uint32_t>(bytes.size()));
    ASSERT_TRUE(decoded.status().IsCorruption()) << "type " << int{type};
    EXPECT_NE(decoded.status().ToString().find("unknown log record type"),
              std::string::npos)
        << "type " << int{type} << ": " << decoded.status().ToString();
  }
}

TEST(LogRecordTest, DecodeRejectsCorruption) {
  LogRecord rec = MakeUpdate(1, 2, 3, "a");
  rec.lsn = 4096;
  std::string bytes = rec.Encode();
  bytes[bytes.size() - 1] ^= 1;
  EXPECT_TRUE(LogRecord::Decode(bytes.data(),
                                static_cast<uint32_t>(bytes.size()))
                  .status()
                  .IsCorruption());
}

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest()
      : dev_("log", DeviceProfile::Seagate15k(), 1 << 16), log_(&dev_) {
    EXPECT_TRUE(log_.Format().ok());
  }
  SimDevice dev_;
  LogManager log_;
};

TEST_F(LogManagerTest, AppendAssignsMonotonicLsns) {
  LogRecord a = MakeUpdate(1, 1, 0, "y");
  LogRecord b = MakeUpdate(1, 2, 0, "y");
  const Lsn la = log_.Append(&a);
  const Lsn lb = log_.Append(&b);
  EXPECT_EQ(la, LogManager::kLogStartLsn);
  EXPECT_EQ(lb, la + a.EncodedSize());
  EXPECT_EQ(log_.next_lsn(), lb + b.EncodedSize());
}

TEST_F(LogManagerTest, NothingDurableUntilFlush) {
  LogRecord a = MakeUpdate(1, 1, 0, "y");
  const Lsn la = log_.Append(&a);
  EXPECT_EQ(log_.durable_lsn(), LogManager::kLogStartLsn);
  FACE_ASSERT_OK(log_.FlushTo(la));
  EXPECT_GT(log_.durable_lsn(), la);
}

TEST_F(LogManagerTest, FlushWithNoNewAppendsWritesNothing) {
  // Regression: the early-out used to test `next_lsn_ == buffer_base_`, so
  // a flush with no new appends but a retained partial tail block rewrote
  // that already-durable block on every call.
  LogRecord a = MakeUpdate(1, 1, 0, "y");  // not block-aligned
  log_.Append(&a);
  const uint64_t writes_before = dev_.stats().write_reqs;
  FACE_ASSERT_OK(log_.FlushAll());
  EXPECT_EQ(dev_.stats().write_reqs, writes_before + 1);

  // Back-to-back forces with nothing new: exactly zero further device
  // writes, whatever LSN the caller asks for.
  FACE_ASSERT_OK(log_.FlushAll());
  FACE_ASSERT_OK(log_.FlushTo(log_.durable_lsn()));
  FACE_ASSERT_OK(log_.FlushTo(log_.next_lsn()));
  EXPECT_EQ(dev_.stats().write_reqs, writes_before + 1);
  EXPECT_EQ(log_.stats().flushes, 1u);

  // The next real append still lands in the retained partial block.
  LogRecord b = MakeUpdate(1, 2, 0, "y");
  const Lsn lb = log_.Append(&b);
  FACE_ASSERT_OK(log_.FlushTo(lb));
  EXPECT_EQ(dev_.stats().write_reqs, writes_before + 2);
  EXPECT_EQ(log_.durable_lsn(), log_.next_lsn());
}

TEST_F(LogManagerTest, ReaderScansExactlyWhatWasAppended) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 100; ++i) {
    LogRecord rec = MakeUpdate(1, static_cast<PageId>(i), 0, "bb");
    lsns.push_back(log_.Append(&rec));
  }
  FACE_ASSERT_OK(log_.FlushAll());

  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  for (int i = 0; i < 100; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(LogRecord rec, reader.Next());
    EXPECT_EQ(rec.lsn, lsns[i]);
    EXPECT_EQ(rec.page_id, static_cast<PageId>(i));
  }
  EXPECT_TRUE(reader.Next().status().IsNotFound());  // clean end of log
}

TEST_F(LogManagerTest, ReverseScanReadsTheLogOncePerWindow) {
  // Records filling 64 blocks, read back last to first as restart undo
  // walks a loser chain: one forward refill at the last record, then one
  // refill of the window ending there covers every earlier block.
  std::vector<Lsn> lsns;
  const std::string image(200, 'i');
  while (log_.next_lsn() < LogManager::kLogStartLsn + 63 * kPageSize) {
    LogRecord rec =
        MakeUpdate(1, static_cast<PageId>(lsns.size()), 0, image);
    lsns.push_back(log_.Append(&rec));
  }
  FACE_ASSERT_OK(log_.FlushAll());
  ASSERT_LE(log_.next_lsn(), LogManager::kLogStartLsn + 64 * kPageSize);

  const uint64_t reads0 = dev_.stats().read_reqs;
  LogReader reader(&dev_);
  for (size_t i = lsns.size(); i-- > 0;) {
    FACE_ASSERT_OK(reader.Seek(lsns[i]));
    FACE_ASSERT_OK_AND_ASSIGN(LogRecord rec, reader.Next());
    ASSERT_EQ(rec.lsn, lsns[i]);
    ASSERT_EQ(rec.page_id, static_cast<PageId>(i));
  }
  EXPECT_LE(dev_.stats().read_reqs - reads0, 2u);
}

TEST_F(LogManagerTest, ReaderKeepsEveryWindowItRead) {
  // About 2.5 windows of log, ending mid-block. After one forward scan, a
  // second scan of the same range and an Attach through the same reader
  // are served from the reader's windows: no device read at all.
  const std::string image(500, 'w');
  Lsn last = kInvalidLsn;
  while (log_.next_lsn() < LogManager::kLogStartLsn + 160 * kPageSize) {
    LogRecord rec = MakeUpdate(1, 1, 0, image);
    last = log_.Append(&rec);
  }
  FACE_ASSERT_OK(log_.FlushAll());
  ASSERT_NE(log_.next_lsn() % kPageSize, 0u);  // a partial tail block

  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  uint64_t records = 0;
  while (reader.Next().ok()) ++records;
  EXPECT_EQ(reader.position(), log_.next_lsn());

  const uint64_t reads0 = dev_.stats().read_reqs;
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  uint64_t again = 0;
  while (reader.Next().ok()) ++again;
  EXPECT_EQ(again, records);
  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach(&reader));
  EXPECT_EQ(fresh.next_lsn(), log_.next_lsn());
  EXPECT_EQ(dev_.stats().read_reqs, reads0);

  // The tail block Attach copied from the reader is intact: a record
  // appended after it extends the stream, and the whole log reads back.
  LogRecord tail = MakeUpdate(2, 7, 0, "tail");
  const Lsn lt = fresh.Append(&tail);
  FACE_ASSERT_OK(fresh.FlushAll());
  LogReader check(&dev_);
  FACE_ASSERT_OK(check.Seek(last));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord rl, check.Next());
  EXPECT_EQ(rl.lsn, last);
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord rt, check.Next());
  EXPECT_EQ(rt.lsn, lt);
  EXPECT_EQ(rt.image, "tail");
}

TEST_F(LogManagerTest, ScanEndsAtATornTailAndReturnsAFailedVisit) {
  // Three records, the last torn: a byte of its image no longer matches its
  // crc. The scan hands over the two whole records in order, ends with OK
  // and stands where the torn one begins, the end Attach then takes.
  std::vector<Lsn> lsns;
  for (PageId pid = 1; pid <= 3; ++pid) {
    LogRecord rec = MakeUpdate(1, pid, 0, "scan");
    lsns.push_back(log_.Append(&rec));
  }
  FACE_ASSERT_OK(log_.FlushAll());
  const Lsn torn_byte = log_.next_lsn() - 1;  // in the last record's image
  ASSERT_EQ(torn_byte / kPageSize, lsns[2] / kPageSize);
  std::string block(kPageSize, '\0');
  FACE_ASSERT_OK(dev_.Read(torn_byte / kPageSize, block.data()));
  block[torn_byte % kPageSize] ^= 0x5a;
  FACE_ASSERT_OK(dev_.Write(torn_byte / kPageSize, block.data()));

  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  std::vector<Lsn> seen;
  FACE_ASSERT_OK(reader.Scan([&seen](LogRecord&& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  EXPECT_EQ(seen, std::vector<Lsn>(lsns.begin(), lsns.begin() + 2));
  EXPECT_EQ(reader.position(), lsns[2]);
  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach(&reader));
  EXPECT_EQ(fresh.next_lsn(), lsns[2]);

  // A visit that fails ends the scan, and its status is returned.
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  int visits = 0;
  const Status s = reader.Scan([&visits](LogRecord&&) {
    ++visits;
    return Status::Corruption("visit failed");
  });
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(visits, 1);
}

TEST_F(LogManagerTest, AttachReadsTheControlBlockAndEachWindowOnce) {
  // Attach on a fresh reader: one control-block read, then one read per
  // 64-block window of the scanned range. The partial tail block comes out
  // of the last window, not from a read of its own.
  const std::string image(500, 'a');
  while (log_.next_lsn() < LogManager::kLogStartLsn + 150 * kPageSize) {
    LogRecord rec = MakeUpdate(1, 1, 0, image);
    log_.Append(&rec);
  }
  FACE_ASSERT_OK(log_.FlushAll());
  ASSERT_NE(log_.next_lsn() % kPageSize, 0u);
  const uint64_t scanned = log_.next_lsn() / kPageSize;  // blocks 1..end
  const uint64_t windows = (scanned + 63) / 64;
  ASSERT_EQ(windows, 3u);

  const DeviceStats before = dev_.stats();
  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach());
  EXPECT_EQ(fresh.next_lsn(), log_.next_lsn());
  EXPECT_EQ(dev_.stats().read_reqs - before.read_reqs, 1 + windows);
}

TEST_F(LogManagerTest, EachBlockIsReadAtMostOnce) {
  // A scan from the middle of the log, then one from near its start (a
  // degraded restart's redo reaching under the checkpoint). The second
  // scan misses below the first one's windows, so it refills backwards
  // (clamped at the log start) and then forwards, and its windows stop
  // where the first scan's begin: it reads each block below them once.
  std::vector<Lsn> lsns;
  const std::string image(300, 'm');
  while (log_.next_lsn() < LogManager::kLogStartLsn + 200 * kPageSize) {
    LogRecord rec =
        MakeUpdate(1, static_cast<PageId>(lsns.size()), 0, image);
    lsns.push_back(log_.Append(&rec));
  }
  FACE_ASSERT_OK(log_.FlushAll());

  LogReader reader(&dev_);
  const size_t mid = lsns.size() / 2;
  FACE_ASSERT_OK(reader.Seek(lsns[mid]));
  while (reader.Next().ok()) {
  }
  const uint64_t first_window = lsns[mid] / kPageSize;
  const size_t low = mid / 4;
  ASSERT_LT(lsns[low] / kPageSize + 2, 1 + 64u);  // backward refill from 1

  const uint64_t pages0 = dev_.stats().pages_read;
  FACE_ASSERT_OK(reader.Seek(lsns[low]));
  for (size_t i = low; i < lsns.size(); ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(LogRecord rec, reader.Next());
    ASSERT_EQ(rec.lsn, lsns[i]);
  }
  EXPECT_TRUE(reader.Next().status().IsNotFound());
  EXPECT_EQ(dev_.stats().pages_read - pages0, first_window - 1);
}

TEST_F(LogManagerTest, AttachFindsEndOfLogAfterRestart) {
  LogRecord a = MakeUpdate(1, 1, 0, "yy");
  LogRecord b = MakeUpdate(1, 2, 0, "zz");
  log_.Append(&a);
  const Lsn lb = log_.Append(&b);
  FACE_ASSERT_OK(log_.FlushAll());
  const Lsn end = log_.next_lsn();

  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach());
  EXPECT_EQ(fresh.next_lsn(), end);
  EXPECT_EQ(fresh.durable_lsn(), end);

  // New appends continue the stream and old records stay readable.
  LogRecord c = MakeUpdate(2, 3, 0, "w");
  const Lsn lc = fresh.Append(&c);
  EXPECT_EQ(lc, end);
  FACE_ASSERT_OK(fresh.FlushAll());
  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(lb));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord rb, reader.Next());
  EXPECT_EQ(rb.page_id, 2u);
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord rc, reader.Next());
  EXPECT_EQ(rc.page_id, 3u);
}

TEST_F(LogManagerTest, UnflushedTailDiesWithACrash) {
  LogRecord a = MakeUpdate(1, 1, 0, "durable");
  const Lsn la = log_.Append(&a);
  FACE_ASSERT_OK(log_.FlushTo(la));
  LogRecord b = MakeUpdate(1, 2, 0, "volatile");
  log_.Append(&b);
  // No flush: a crash (new manager over the same device) must not see b.
  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach());
  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(la));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord ra, reader.Next());
  EXPECT_EQ(ra.image, "durable");
  EXPECT_TRUE(reader.Next().status().IsNotFound());
}

TEST_F(LogManagerTest, ControlBlockRoundTrip) {
  FACE_ASSERT_OK_AND_ASSIGN(Lsn none, log_.ReadControlBlock());
  EXPECT_EQ(none, kInvalidLsn);
  FACE_ASSERT_OK(log_.WriteControlBlock(777777));
  FACE_ASSERT_OK_AND_ASSIGN(Lsn got, log_.ReadControlBlock());
  EXPECT_EQ(got, 777777u);
}

TEST_F(LogManagerTest, TruncateKeepsControlBlockAndTail) {
  // Fill several chunks of log, then truncate before the end.
  LogRecord rec = MakeUpdate(1, 1, 0, std::string(800, 'd'));
  Lsn last = 0;
  while (log_.next_lsn() < 3000 * kPageSize) last = log_.Append(&rec);
  FACE_ASSERT_OK(log_.FlushAll());
  log_.TruncateBefore(last);

  FACE_ASSERT_OK(log_.ReadControlBlock().status());  // control survives
  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(last));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord got, reader.Next());
  EXPECT_EQ(got.lsn, last);
}

TEST_F(LogManagerTest, GroupCommitFlushesCoBufferedRecords) {
  LogRecord a = MakeUpdate(1, 1, 0, "y");
  LogRecord b = MakeUpdate(2, 2, 0, "y");
  const Lsn la = log_.Append(&a);
  log_.Append(&b);
  const uint64_t flushes_before = log_.stats().flushes;
  FACE_ASSERT_OK(log_.FlushTo(la));  // forcing a also forces b
  EXPECT_EQ(log_.stats().flushes, flushes_before + 1);
  EXPECT_EQ(log_.durable_lsn(), log_.next_lsn());
  FACE_ASSERT_OK(log_.FlushTo(la));  // no-op: already durable
  EXPECT_EQ(log_.stats().flushes, flushes_before + 1);
}

TEST(GroupCommitTest, CommitsQueuedBehindAForceFinishTogether) {
  // Three commits at virtual time 0 while the log disk is still writing
  // the control block: the first force queues, and the two behind it join
  // it. Their records share the force's one block, so the joins add no
  // transfer: all three finish together at one write's end, and the log
  // station sees one write request for the three forces.
  IoScheduler sched(3);
  SimDevice dev("log", DeviceProfile::Seagate15k(), 1 << 16, &sched);
  LogManager log(&dev);
  FACE_ASSERT_OK(log.Format());  // outside any span: holds the station
  const SimNanos control_done = sched.makespan();
  const DeviceStats before = dev.stats();

  std::vector<SimNanos> done;
  std::vector<Lsn> lsns;
  for (TxnId txn = 1; txn <= 3; ++txn) {
    sched.BeginTxn();
    LogRecord rec = MakeUpdate(txn, txn, 0, "commit");
    lsns.push_back(log.Append(&rec));
    FACE_ASSERT_OK(log.FlushTo(lsns.back()));
    done.push_back(sched.EndTxn());
  }
  // Block 1 continues the control block's write: a sequential transfer.
  const SimNanos one_write =
      control_done + dev.profile().ServiceNs(IoOp::kWrite, true, 1);
  EXPECT_EQ(done, std::vector<SimNanos>(3, one_write));
  EXPECT_EQ(dev.stats().write_reqs - before.write_reqs, 1u);
  EXPECT_EQ(dev.stats().pages_written - before.pages_written, 1u);
  EXPECT_EQ(log.stats().flushes, 3u);
  EXPECT_EQ(log.stats().group_joins, 2u);
  EXPECT_EQ(log.durable_lsn(), log.next_lsn());

  // The bytes are the same three forces' bytes: the log reads back whole.
  LogReader reader(&dev);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  for (Lsn lsn : lsns) {
    FACE_ASSERT_OK_AND_ASSIGN(LogRecord rec, reader.Next());
    EXPECT_EQ(rec.lsn, lsn);
    EXPECT_EQ(rec.image, "commit");
  }
  EXPECT_TRUE(reader.Next().status().IsNotFound());
}

}  // namespace
}  // namespace face
