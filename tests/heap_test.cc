// Unit tests: slotted heap pages and heap files (insert/read/update/delete,
// slot recycling, chain growth, scans) in logged and unlogged modes.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "engine/heap_file.h"
#include "engine/heap_page.h"
#include "tests/test_util.h"

namespace face {
namespace {

class HeapTest : public EngineFixture {
 protected:
  void SetUp() override { Init(); }
};

TEST_F(HeapTest, InsertReadRoundTrip) {
  PageWriter bulk;
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "t"));
  FACE_ASSERT_OK_AND_ASSIGN(Rid rid, heap.Insert(&bulk, "hello heap"));
  std::string out;
  FACE_ASSERT_OK(heap.Read(rid, &out));
  EXPECT_EQ(out, "hello heap");
}

TEST_F(HeapTest, UpdatePreservesRidAndRequiresEqualLength) {
  PageWriter bulk;
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "t"));
  FACE_ASSERT_OK_AND_ASSIGN(Rid rid, heap.Insert(&bulk, "0123456789"));
  FACE_ASSERT_OK(heap.Update(&bulk, rid, "abcdefghij"));
  std::string out;
  FACE_ASSERT_OK(heap.Read(rid, &out));
  EXPECT_EQ(out, "abcdefghij");
  EXPECT_TRUE(heap.Update(&bulk, rid, "short").IsInvalidArgument());
}

TEST_F(HeapTest, DeleteTombstonesAndRecyclesSlot) {
  PageWriter bulk;
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "t"));
  FACE_ASSERT_OK_AND_ASSIGN(Rid a, heap.Insert(&bulk, "aaaa"));
  FACE_ASSERT_OK_AND_ASSIGN(Rid b, heap.Insert(&bulk, "bbbb"));
  FACE_ASSERT_OK(heap.Delete(&bulk, a));
  std::string out;
  EXPECT_TRUE(heap.Read(a, &out).IsNotFound());
  FACE_ASSERT_OK(heap.Read(b, &out));
  EXPECT_EQ(out, "bbbb");
  // Double delete reports NotFound.
  EXPECT_TRUE(heap.Delete(&bulk, a).IsNotFound());
  // The freed slot is recycled by the next insert on that page.
  FACE_ASSERT_OK_AND_ASSIGN(Rid c, heap.Insert(&bulk, "cccc"));
  EXPECT_EQ(c.page_id, a.page_id);
  EXPECT_EQ(c.slot, a.slot);
}

TEST_F(HeapTest, ChainGrowsAcrossPagesAndScansInOrder) {
  PageWriter bulk;
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "t"));
  const std::string row(400, 'r');
  constexpr int kRows = 64;  // ~7 rows/page -> ~10 pages
  std::vector<Rid> rids;
  for (int i = 0; i < kRows; ++i) {
    std::string r = row;
    r[0] = static_cast<char>('A' + i % 26);
    FACE_ASSERT_OK_AND_ASSIGN(Rid rid, heap.Insert(&bulk, r));
    rids.push_back(rid);
  }
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t pages, heap.CountPages());
  EXPECT_GT(pages, 5u);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t rows, heap.CountRows());
  EXPECT_EQ(rows, static_cast<uint64_t>(kRows));

  // Scan visits every row exactly once.
  std::set<std::pair<PageId, uint16_t>> seen;
  FACE_ASSERT_OK(heap.Scan([&](Rid rid, std::string_view rec) {
    EXPECT_EQ(rec.size(), row.size());
    seen.insert({rid.page_id, rid.slot});
    return true;
  }));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kRows));

  // Early termination stops the scan.
  int visited = 0;
  FACE_ASSERT_OK(heap.Scan([&](Rid, std::string_view) {
    return ++visited < 5;
  }));
  EXPECT_EQ(visited, 5);
}

TEST_F(HeapTest, RejectsOversizedRecord) {
  PageWriter bulk;
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "t"));
  EXPECT_TRUE(heap.Insert(&bulk, std::string(kPageSize, 'x'))
                  .status()
                  .IsInvalidArgument());
  // The largest record that fits exactly.
  const uint32_t max = kPagePayloadSize - HeapPageLayout::kHeaderSize -
                       HeapPageLayout::kSlotSize;
  FACE_ASSERT_OK(heap.Insert(&bulk, std::string(max, 'y')).status());
}

TEST_F(HeapTest, OpenFindsExistingHeap) {
  PageWriter bulk;
  Rid rid;
  {
    FACE_ASSERT_OK_AND_ASSIGN(
        HeapFile heap,
        HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "persisted"));
    FACE_ASSERT_OK_AND_ASSIGN(rid, heap.Insert(&bulk, "still here"));
  }
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Open(db_->pool(), db_->catalog(), "persisted"));
  std::string out;
  FACE_ASSERT_OK(heap.Read(rid, &out));
  EXPECT_EQ(out, "still here");
  EXPECT_TRUE(
      HeapFile::Open(db_->pool(), db_->catalog(), "nope").status().IsNotFound());
}

TEST_F(HeapTest, LoggedInsertIsUndoneByAbort) {
  const TxnId setup = db_->Begin();
  PageWriter setup_writer = db_->Writer(setup);
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap,
      HeapFile::Create(db_->pool(), db_->catalog(), &setup_writer, "t"));
  FACE_ASSERT_OK(db_->Commit(setup));

  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);
  FACE_ASSERT_OK_AND_ASSIGN(Rid rid, heap.Insert(&w, "ghost row"));
  FACE_ASSERT_OK(db_->Abort(txn));
  std::string out;
  EXPECT_TRUE(heap.Read(rid, &out).IsNotFound());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t rows, heap.CountRows());
  EXPECT_EQ(rows, 0u);
}

TEST_F(HeapTest, AbortThatGrewTheChainLeavesLaterRowsReachable) {
  const TxnId setup = db_->Begin();
  PageWriter setup_writer = db_->Writer(setup);
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap,
      HeapFile::Create(db_->pool(), db_->catalog(), &setup_writer, "t"));
  FACE_ASSERT_OK(db_->Commit(setup));
  const std::string record(600, 'r');

  // A rolled-back transaction grows the chain by a page: undo unlinks it
  // from the tail and restores the catalog's tail entry.
  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);
  for (int i = 0; i < 20; ++i) FACE_ASSERT_OK(heap.Insert(&w, record).status());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t grown, heap.CountPages());
  ASSERT_GT(grown, 1u);
  FACE_ASSERT_OK(db_->Abort(txn));
  EXPECT_EQ(heap.last_page(), heap.first_page());

  // Committed inserts after it must chain on from the real tail, where a
  // scan finds every one of them.
  const TxnId later = db_->Begin();
  PageWriter lw = db_->Writer(later);
  for (int i = 0; i < 20; ++i) {
    FACE_ASSERT_OK(heap.Insert(&lw, record).status());
  }
  FACE_ASSERT_OK(db_->Commit(later));
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t rows, heap.CountRows());
  EXPECT_EQ(rows, 20u);
}

// Property sweep: the page never corrupts across mixed workloads of varying
// record sizes.
class HeapPageProperty : public EngineFixture,
                         public ::testing::WithParamInterface<uint32_t> {
 protected:
  void SetUp() override { Init(); }
};

TEST_P(HeapPageProperty, MixedInsertDeleteNeverCorrupts) {
  PageWriter bulk;
  FACE_ASSERT_OK_AND_ASSIGN(
      HeapFile heap, HeapFile::Create(db_->pool(), db_->catalog(), &bulk, "t"));
  Random rnd(GetParam());
  std::map<std::pair<PageId, uint16_t>, std::string> live;
  for (int op = 0; op < 500; ++op) {
    if (live.empty() || rnd.PercentTrue(60)) {
      std::string rec = rnd.AlphaString(1, 300);
      FACE_ASSERT_OK_AND_ASSIGN(Rid rid, heap.Insert(&bulk, rec));
      live[{rid.page_id, rid.slot}] = rec;
    } else {
      auto it = live.begin();
      std::advance(it, rnd.Uniform(live.size()));
      FACE_ASSERT_OK(heap.Delete(&bulk, {it->first.first, it->first.second}));
      live.erase(it);
    }
  }
  // Every live record reads back exactly; every dead one is NotFound.
  for (const auto& [key, rec] : live) {
    std::string out;
    FACE_ASSERT_OK(heap.Read({key.first, key.second}, &out));
    EXPECT_EQ(out, rec);
  }
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t rows, heap.CountRows());
  EXPECT_EQ(rows, live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapPageProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace face
