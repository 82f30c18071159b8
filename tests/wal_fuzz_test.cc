// Property tests: the WAL's torn-tail handling. A crash can cut the log at
// ANY byte; Attach + scanning must always terminate cleanly at a record
// boundary no later than the cut, never crash, never fabricate records,
// and recovery over the truncated log must still restore exactly the
// committed prefix.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "recovery/restart.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace face {
namespace {

/// Overwrite the log device with garbage from stream offset `cut` onward
/// (a torn write: the tail blocks were in flight when power failed).
/// Routed through the fault subsystem's torn-tail primitive so the fuzz
/// corpus and the live crash injector share one corruption model.
void TearLogAt(SimDevice* dev, Lsn cut, char junk) {
  FACE_ASSERT_OK(FaultInjector::TearWalTail(dev, cut, junk,
                                            /*garble_blocks=*/3));
}

class WalTearingTest : public ::testing::TestWithParam<int> {};

TEST_P(WalTearingTest, AttachStopsAtBoundaryNoLaterThanCut) {
  SimDevice dev("log", DeviceProfile::Seagate15k(), 1 << 16);
  LogManager log(&dev);
  FACE_ASSERT_OK(log.Format());

  // A realistic record stream with varying sizes.
  Random rnd(GetParam());
  std::vector<Lsn> boundaries;
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn_id = 1 + rnd.Uniform(4);
    rec.page_id = rnd.Uniform(1000);
    rec.image = rnd.AlphaString(0, 120);
    rec.image += rnd.AlphaString(0, 120);
    boundaries.push_back(log.Append(&rec));
  }
  FACE_ASSERT_OK(log.FlushAll());
  const Lsn end = log.next_lsn();

  // Tear at a random point within the stream (three flavors of junk:
  // zeros from never-written blocks, 0xFF, and plausible ASCII).
  const Lsn cut = LogManager::kLogStartLsn +
                  rnd.Uniform(end - LogManager::kLogStartLsn);
  const char junk[] = {'\0', '\xff', 'A'};
  TearLogAt(&dev, cut, junk[GetParam() % 3]);

  LogManager fresh(&dev);
  FACE_ASSERT_OK(fresh.Attach());
  EXPECT_LE(fresh.next_lsn(), cut);
  // The end found must be a genuine record boundary.
  bool is_boundary = fresh.next_lsn() == LogManager::kLogStartLsn;
  for (Lsn b : boundaries) is_boundary = is_boundary || fresh.next_lsn() == b;
  EXPECT_TRUE(is_boundary) << "end " << fresh.next_lsn() << " cut " << cut;

  // Scanning must enumerate exactly the records before the found end.
  LogReader reader(&dev);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  Lsn pos = LogManager::kLogStartLsn;
  while (true) {
    auto rec = reader.Next();
    if (!rec.ok()) break;
    EXPECT_EQ(rec->lsn, pos);
    pos = reader.position();
  }
  EXPECT_EQ(pos, fresh.next_lsn());

  // And the log must accept appends after the tear.
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 9;
  fresh.Append(&rec);
  FACE_ASSERT_OK(fresh.FlushAll());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, WalTearingTest,
                         ::testing::Range(1, 13));

class WalSectorTearTest : public ::testing::TestWithParam<int> {};

TEST_P(WalSectorTearTest, TailRecordTornExactlyAtSectorBoundary) {
  // The injector's live model: sector writes are atomic, so a torn log
  // flush cuts the stream at a 512-byte sector boundary. Find a record
  // that straddles such a boundary, cut exactly there, and verify Attach
  // lands exactly at that record's start — everything before is intact,
  // the straddler is gone whole.
  SimDevice dev("log", DeviceProfile::Seagate15k(), 1 << 16);
  LogManager log(&dev);
  FACE_ASSERT_OK(log.Format());

  Random rnd(GetParam() * 131);
  std::vector<std::pair<Lsn, Lsn>> records;  // [start, end) per record
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn_id = 1 + rnd.Uniform(4);
    rec.page_id = rnd.Uniform(1000);
    rec.image = rnd.AlphaString(0, 120);
    rec.image += rnd.AlphaString(0, 120);
    const Lsn start = log.Append(&rec);
    records.emplace_back(start, log.next_lsn());
  }
  FACE_ASSERT_OK(log.FlushAll());

  // Pick a record (past the first few) that straddles a sector boundary.
  Lsn straddler_start = kInvalidLsn;
  Lsn cut = 0;
  for (size_t i = 5; i < records.size(); ++i) {
    const auto [start, end] = records[i];
    const Lsn boundary = (start / kSectorSize + 1) * kSectorSize;
    if (boundary > start && boundary < end) {
      straddler_start = start;
      cut = boundary;
      break;
    }
  }
  ASSERT_NE(straddler_start, kInvalidLsn)
      << "corpus produced no sector-straddling record";
  ASSERT_EQ(cut % kSectorSize, 0u);

  // The cut is sector-aligned, so the shared torn-tail primitive keeps
  // exactly whole sectors and junks the rest.
  FACE_ASSERT_OK(FaultInjector::TearWalTail(&dev, cut, '\x6b',
                                            /*garble_blocks=*/3));

  LogManager fresh(&dev);
  FACE_ASSERT_OK(fresh.Attach());
  EXPECT_EQ(fresh.next_lsn(), straddler_start)
      << "attach must stop exactly where the sector-torn record began "
         "(cut=" << cut << ")";

  // Every record before the straddler scans back intact.
  LogReader reader(&dev);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  Lsn pos = LogManager::kLogStartLsn;
  uint64_t scanned = 0;
  while (true) {
    auto rec = reader.Next();
    if (!rec.ok()) break;
    EXPECT_EQ(rec->lsn, pos);
    pos = reader.position();
    ++scanned;
  }
  EXPECT_EQ(pos, straddler_start);
  uint64_t expected = 0;
  for (const auto& [start, end] : records) {
    (void)start;
    if (end <= straddler_start) ++expected;
  }
  EXPECT_EQ(scanned, expected);

  // And appending over the junk tail works.
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 9;
  fresh.Append(&rec);
  FACE_ASSERT_OK(fresh.FlushAll());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalSectorTearTest, ::testing::Range(1, 7));

class TornRecoveryTest : public EngineFixture,
                         public ::testing::WithParamInterface<int> {
 protected:
  void SetUp() override { Init(); }
};

TEST_P(TornRecoveryTest, CommittedPrefixSurvivesAnyTear) {
  // Commit a sequence of recognizable updates, each forced at commit.
  FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db_->pool()->NewPage());
  const PageId pid = page.page_id();
  page.Release();
  std::vector<Lsn> commit_ends;
  for (int i = 0; i < 12; ++i) {
    const TxnId txn = db_->Begin();
    auto p = db_->pool()->FetchPage(pid);
    ASSERT_TRUE(p.ok());
    char value = static_cast<char>('A' + i);
    FACE_ASSERT_OK(db_->txns()->Update(
        txn, &p.value(), static_cast<uint16_t>(kPageHeaderSize + i), &value,
        1));
    FACE_ASSERT_OK(db_->Commit(txn));
    commit_ends.push_back(log_->durable_lsn());
  }

  // Tear the log somewhere in the middle of the stream.
  Random rnd(GetParam() * 77);
  const Lsn cut = commit_ends[2] +
                  rnd.Uniform(commit_ends.back() - commit_ends[2]);
  TearLogAt(log_dev_.get(), cut, GetParam() % 2 == 0 ? '\0' : '\x5a');

  // Count how many commits survived entirely below the cut.
  int expected = 0;
  for (const Lsn end : commit_ends) {
    if (end <= cut) ++expected;
  }

  CrashAndRecover();
  auto p = db_->pool()->FetchPage(pid);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < expected; ++i) {
    EXPECT_EQ(p->data()[kPageHeaderSize + i], static_cast<char>('A' + i))
        << "committed update " << i << " lost (cut=" << cut << ")";
  }
  for (int i = expected; i < 12; ++i) {
    // Updates past the tear may only be absent, never half-applied — each
    // was a single byte, so absence means zero.
    const char got = p->data()[kPageHeaderSize + i];
    EXPECT_TRUE(got == 0 || got == static_cast<char>('A' + i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TornRecoveryTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace face
