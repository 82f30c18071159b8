// Unit tests: B+tree inserts/splits/lookup/delete/range scans, key codec
// ordering, structural invariants under randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "engine/btree.h"
#include "engine/key_codec.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace face {
namespace {

TEST(KeyCodecTest, IntegerOrderIsBytewise) {
  const std::vector<uint64_t> values = {0, 1, 255, 256, 1ull << 31,
                                        (1ull << 63) + 5};
  std::vector<std::string> keys;
  for (uint64_t v : values) keys.push_back(KeyCodec().AppendU64(v).Take());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(KeyCodec::DecodeU64(keys.back(), 0), (1ull << 63) + 5);
}

TEST(KeyCodecTest, CompositeOrdering) {
  // (w, d, o) tuples must order lexicographically by component.
  const std::string a = KeyCodec().AppendU32(1).AppendU32(2).AppendU32(9).Take();
  const std::string b = KeyCodec().AppendU32(1).AppendU32(3).AppendU32(0).Take();
  const std::string c = KeyCodec().AppendU32(2).AppendU32(0).AppendU32(0).Take();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(KeyCodec::DecodeU32(b, 4), 3u);
}

TEST(KeyCodecTest, PaddedStringsOrderAndTruncate) {
  const std::string a = KeyCodec().AppendPadded("ABLE", 8).Take();
  const std::string b = KeyCodec().AppendPadded("ABLEX", 8).Take();
  const std::string c = KeyCodec().AppendPadded("BAR", 8).Take();
  EXPECT_EQ(a.size(), 8u);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  const std::string truncated = KeyCodec().AppendPadded("LONGLONGLONG", 4).Take();
  EXPECT_EQ(truncated, "LONG");
}

class BtreeTest : public EngineFixture {
 protected:
  void SetUp() override {
    Init(/*db_pages=*/16384, /*buffer_frames=*/256);
    PageWriter bulk;
    auto tree = BPlusTree::Create(db_->pool(), db_->catalog(), &bulk, "idx");
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree.value());
  }

  static std::string Key(uint64_t k) { return KeyCodec().AppendU64(k).Take(); }

  BPlusTree tree_;
};

TEST_F(BtreeTest, EmptyTreeBehaves) {
  std::string out;
  EXPECT_TRUE(tree_.Get(Key(1), &out).IsNotFound());
  PageWriter bulk;
  EXPECT_TRUE(tree_.Delete(&bulk, Key(1)).IsNotFound());
  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator it, tree_.SeekFirst());
  EXPECT_FALSE(it.Valid());
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t height, tree_.Height());
  EXPECT_EQ(height, 1u);
}

TEST_F(BtreeTest, InsertGetDeleteSingle) {
  PageWriter bulk;
  FACE_ASSERT_OK(tree_.Insert(&bulk, Key(42), "value42"));
  std::string out;
  FACE_ASSERT_OK(tree_.Get(Key(42), &out));
  EXPECT_EQ(out, "value42");
  EXPECT_TRUE(tree_.Insert(&bulk, Key(42), "dup").IsInvalidArgument());
  FACE_ASSERT_OK(tree_.Delete(&bulk, Key(42)));
  EXPECT_TRUE(tree_.Get(Key(42), &out).IsNotFound());
}

TEST_F(BtreeTest, SequentialInsertSplitsAndStaysSorted) {
  PageWriter bulk;
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), "v" + std::to_string(k)));
  }
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, tree_.CountEntries());
  EXPECT_EQ(n, kKeys);
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t height, tree_.Height());
  EXPECT_GE(height, 2u);
  std::string out;
  for (uint64_t k = 0; k < kKeys; k += 97) {
    FACE_ASSERT_OK(tree_.Get(Key(k), &out));
    EXPECT_EQ(out, "v" + std::to_string(k));
  }
}

TEST_F(BtreeTest, AscendingAppendSplitsInternalNodesCleanly) {
  // An ascending append keeps the left node full. When the full node is
  // internal, the right node must still hold a separator: check the tree
  // the moment the first internal split makes it three levels tall.
  PageWriter bulk;
  uint64_t k = 0;
  for (uint32_t height = 1; height < 3; ++k) {
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), "x"));
    FACE_ASSERT_OK_AND_ASSIGN(height, tree_.Height());
  }
  SCOPED_TRACE("after key " + std::to_string(k - 1));
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, tree_.CountEntries());
  EXPECT_EQ(n, k);
}

TEST_F(BtreeTest, ReverseInsertAlsoWorks) {
  PageWriter bulk;
  for (uint64_t k = 3000; k-- > 0;) {
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), "x"));
  }
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, tree_.CountEntries());
  EXPECT_EQ(n, 3000u);
}

TEST_F(BtreeTest, BulkLoadMatchesIncrementalInsert) {
  // Structural equivalence of the two load paths: same entries in, same
  // logical tree out — identical key/value sequence under full iteration,
  // invariants clean, lookups agree. Physical layout may differ (bulk
  // leaves are allocated contiguously), which is the point of the path.
  constexpr uint64_t kKeys = 4000;
  auto value_of = [](uint64_t k) {
    // Varying value lengths exercise uneven node fills.
    return std::string(1 + k % 37, static_cast<char>('a' + k % 26));
  };

  PageWriter bulk;
  auto bulk_tree_or =
      BPlusTree::Create(db_->pool(), db_->catalog(), &bulk, "idx_bulk");
  FACE_ASSERT_OK(bulk_tree_or.status());
  BPlusTree bulk_tree = std::move(bulk_tree_or.value());
  uint64_t fed = 0;
  FACE_ASSERT_OK(bulk_tree.BulkLoad(
      &bulk, [&](std::string* key, std::string* value) {
        if (fed >= kKeys) return false;
        *key = Key(fed);
        *value = value_of(fed);
        ++fed;
        return true;
      }));

  for (uint64_t k = 0; k < kKeys; ++k) {
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), value_of(k)));
  }

  FACE_ASSERT_OK(bulk_tree.CheckInvariants());
  FACE_ASSERT_OK(tree_.CheckInvariants());

  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator a, tree_.SeekFirst());
  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator b, bulk_tree.SeekFirst());
  uint64_t entries = 0;
  while (a.Valid() && b.Valid()) {
    EXPECT_EQ(a.key(), b.key());
    EXPECT_EQ(a.value(), b.value());
    ++entries;
    FACE_ASSERT_OK(a.Next());
    FACE_ASSERT_OK(b.Next());
  }
  EXPECT_FALSE(a.Valid());
  EXPECT_FALSE(b.Valid());
  EXPECT_EQ(entries, kKeys);

  // Bulk leaves pack to ~100 %, so the bulk tree can never be taller.
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t h_incr, tree_.Height());
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t h_bulk, bulk_tree.Height());
  EXPECT_LE(h_bulk, h_incr);

  // Point operations keep working on a bulk-loaded tree, including ones
  // that trigger post-load splits.
  std::string out;
  for (uint64_t k = 1; k < kKeys; k *= 3) {
    FACE_ASSERT_OK(bulk_tree.Get(Key(k), &out));
    EXPECT_EQ(out, value_of(k));
  }
  FACE_ASSERT_OK(bulk_tree.Insert(&bulk, Key(kKeys + 1), "post-load"));
  FACE_ASSERT_OK(bulk_tree.Get(Key(kKeys + 1), &out));
  EXPECT_EQ(out, "post-load");
  FACE_ASSERT_OK(bulk_tree.CheckInvariants());
}

TEST_F(BtreeTest, BulkLoadRejectsMisuse) {
  PageWriter bulk;
  // Out-of-order input late in the stream (after whole leaves were already
  // written): the load fails and the tree resets to empty, never half-built.
  auto tree_or =
      BPlusTree::Create(db_->pool(), db_->catalog(), &bulk, "idx_bad");
  FACE_ASSERT_OK(tree_or.status());
  BPlusTree bad = std::move(tree_or.value());
  uint64_t i = 0;
  EXPECT_TRUE(bad.BulkLoad(&bulk,
                           [&](std::string* key, std::string* value) {
                             // Descends at 600, several leaves in.
                             *key = Key(i < 600 ? i : 1200 - i);
                             *value = std::string(100, 'v');
                             ++i;
                             return true;
                           })
                  .IsInvalidArgument());
  FACE_ASSERT_OK(bad.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t bad_n, bad.CountEntries());
  EXPECT_EQ(bad_n, 0u);
  std::string probe;
  EXPECT_TRUE(bad.Get(Key(1), &probe).IsNotFound());

  // Non-empty target tree.
  FACE_ASSERT_OK(tree_.Insert(&bulk, Key(1), "x"));
  EXPECT_TRUE(tree_.BulkLoad(&bulk,
                             [](std::string*, std::string*) { return false; })
                  .IsInvalidArgument());

  // Empty input is a no-op on an empty tree.
  auto empty_or =
      BPlusTree::Create(db_->pool(), db_->catalog(), &bulk, "idx_empty");
  FACE_ASSERT_OK(empty_or.status());
  BPlusTree empty = std::move(empty_or.value());
  FACE_ASSERT_OK(empty.BulkLoad(
      &bulk, [](std::string*, std::string*) { return false; }));
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, empty.CountEntries());
  EXPECT_EQ(n, 0u);
}

TEST_F(BtreeTest, RangeScanVisitsInOrder) {
  PageWriter bulk;
  for (uint64_t k = 0; k < 1000; k += 2) {  // even keys only
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), std::to_string(k)));
  }
  // Seek to an absent odd key: lands on the next even one.
  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator it, tree_.Seek(Key(501)));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(KeyCodec::DecodeU64(it.key(), 0), 502u);
  uint64_t expect = 502;
  while (it.Valid()) {
    EXPECT_EQ(KeyCodec::DecodeU64(it.key(), 0), expect);
    EXPECT_EQ(it.value(), std::to_string(expect));
    expect += 2;
    FACE_ASSERT_OK(it.Next());
  }
  EXPECT_EQ(expect, 1000u);
}

TEST_F(BtreeTest, SeekPastEndIsInvalid) {
  PageWriter bulk;
  FACE_ASSERT_OK(tree_.Insert(&bulk, Key(5), "v"));
  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator it, tree_.Seek(Key(6)));
  EXPECT_FALSE(it.Valid());
}

TEST_F(BtreeTest, DeletedKeysVanishFromScans) {
  PageWriter bulk;
  for (uint64_t k = 0; k < 300; ++k) {
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), "v"));
  }
  for (uint64_t k = 0; k < 300; k += 3) {
    FACE_ASSERT_OK(tree_.Delete(&bulk, Key(k)));
  }
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, tree_.CountEntries());
  EXPECT_EQ(n, 200u);
  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator it, tree_.SeekFirst());
  while (it.Valid()) {
    EXPECT_NE(KeyCodec::DecodeU64(it.key(), 0) % 3, 0u);
    FACE_ASSERT_OK(it.Next());
  }
}

TEST_F(BtreeTest, CheckInvariantsRejectsABrokenLeafChain) {
  PageWriter bulk;
  for (uint64_t k = 0; k < 600; ++k) {
    FACE_ASSERT_OK(tree_.Insert(&bulk, Key(k), std::string(100, 'v')));
  }
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t height, tree_.Height());
  ASSERT_EQ(height, 2u);
  FACE_ASSERT_OK(tree_.CheckInvariants());

  // A node's next_or_leftmost field (btree.h's node layout), edited in
  // place in the buffer pool: the root's links to its leftmost leaf, a
  // leaf's to the next leaf (0 after the last).
  auto link = [&](PageId page) {
    auto h = db_->pool()->FetchPage(page);
    EXPECT_TRUE(h.ok());
    return DecodeFixed64(h->data() + kPageHeaderSize + 8);
  };
  auto set_link = [&](PageId page, PageId to) {
    auto h = db_->pool()->FetchPage(page);
    ASSERT_TRUE(h.ok());
    EncodeFixed64(h->data() + kPageHeaderSize + 8, to);
  };
  std::vector<PageId> leaves = {link(tree_.root_page())};
  while (link(leaves.back()) != 0) leaves.push_back(link(leaves.back()));
  ASSERT_GE(leaves.size(), 3u);

  // The first leaf skips its neighbour.
  set_link(leaves[0], leaves[2]);
  EXPECT_TRUE(tree_.CheckInvariants().IsCorruption());
  set_link(leaves[0], leaves[1]);
  FACE_ASSERT_OK(tree_.CheckInvariants());

  // The last leaf links back to the first.
  set_link(leaves.back(), leaves[0]);
  EXPECT_TRUE(tree_.CheckInvariants().IsCorruption());
  set_link(leaves.back(), 0);
  FACE_EXPECT_OK(tree_.CheckInvariants());
}

TEST_F(BtreeTest, VariableLengthKeysAndValues) {
  PageWriter bulk;
  Random rnd(17);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = rnd.AlphaString(1, 40);
    const std::string value = rnd.AlphaString(0, 200);
    const Status s = tree_.Insert(&bulk, key, value);
    if (model.count(key) != 0) {
      EXPECT_TRUE(s.IsInvalidArgument());
    } else {
      FACE_ASSERT_OK(s);
      model[key] = value;
    }
  }
  FACE_ASSERT_OK(tree_.CheckInvariants());
  // Full scan matches the model exactly.
  FACE_ASSERT_OK_AND_ASSIGN(BPlusTree::Iterator it, tree_.SeekFirst());
  auto mit = model.begin();
  while (it.Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(it.value(), mit->second);
    ++mit;
    FACE_ASSERT_OK(it.Next());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(BtreeTest, RejectsOversizedAndEmptyKeys) {
  PageWriter bulk;
  EXPECT_TRUE(tree_.Insert(&bulk, "", "v").IsInvalidArgument());
  EXPECT_TRUE(tree_.Insert(&bulk, std::string(2000, 'k'), "v")
                  .IsInvalidArgument());
  FACE_ASSERT_OK(
      tree_.Insert(&bulk, std::string(BPlusTree::kMaxEntryBytes, 'k'), ""));
}

TEST_F(BtreeTest, LoggedInsertsUndoneByAbort) {
  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);
  for (uint64_t k = 0; k < 50; ++k) {
    FACE_ASSERT_OK(tree_.Insert(&w, Key(k), "uncommitted"));
  }
  FACE_ASSERT_OK(db_->Abort(txn));
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, tree_.CountEntries());
  EXPECT_EQ(n, 0u);
}

// Property sweep: random interleaved insert/delete against a std::map
// model, with invariant audits, across seeds.
class BtreeProperty : public EngineFixture,
                      public ::testing::WithParamInterface<uint32_t> {
 protected:
  void SetUp() override {
    Init(16384, 256);
    PageWriter bulk;
    auto tree = BPlusTree::Create(db_->pool(), db_->catalog(), &bulk, "idx");
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree.value());
  }
  BPlusTree tree_;
};

TEST_P(BtreeProperty, MatchesModelUnderRandomOps) {
  PageWriter bulk;
  Random rnd(GetParam());
  std::map<std::string, std::string> model;
  for (int op = 0; op < 3000; ++op) {
    const std::string key =
        KeyCodec().AppendU64(rnd.Uniform(1200)).Take();
    if (model.count(key) == 0) {
      const std::string value = rnd.AlphaString(0, 64);
      FACE_ASSERT_OK(tree_.Insert(&bulk, key, value));
      model[key] = value;
    } else if (rnd.PercentTrue(70)) {
      FACE_ASSERT_OK(tree_.Delete(&bulk, key));
      model.erase(key);
    }
  }
  FACE_ASSERT_OK(tree_.CheckInvariants());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t n, tree_.CountEntries());
  EXPECT_EQ(n, model.size());
  std::string out;
  for (const auto& [key, value] : model) {
    FACE_ASSERT_OK(tree_.Get(key, &out));
    EXPECT_EQ(out, value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtreeProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace face
