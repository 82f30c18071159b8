// Unit tests: FaCE mvFIFO replacement (Algorithm 1 of the paper),
// Group Replacement, Group Second Chance, persistent metadata, and
// crash restores — including ring-wrap cases.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

#include "core/face_cache.h"
#include "tests/test_util.h"

namespace face {
namespace {

class FaceCacheTest : public ::testing::Test {
 protected:
  void Init(FaceOptions options) {
    options_ = options;
    db_dev_ = std::make_unique<SimDevice>("db", DeviceProfile::Raid0Seagate(8),
                                          1 << 16);
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    layout_ = FlashLayout::Compute(options.n_frames, options.seg_entries);
    flash_ = std::make_unique<SimDevice>(
        "flash", DeviceProfile::MlcSamsung470(), layout_.total_blocks);
    cache_ = std::make_unique<FaceCache>(options_, flash_.get(),
                                         storage_.get());
    FACE_ASSERT_OK(cache_->Format());
  }

  /// Rebuild the cache object over the surviving flash device (crash):
  /// both restart steps, with no persisted dirty floor.
  void Reboot() {
    cache_ = std::make_unique<FaceCache>(options_, flash_.get(),
                                         storage_.get());
    FACE_ASSERT_OK(cache_->RecoverAfterCrash());
    FACE_ASSERT_OK(cache_->FinishRecovery(kInvalidLsn));
  }

  /// A page image with `page_id` and a recognizable payload.
  std::string MakePage(PageId page_id, char fill = 'p', Lsn lsn = 10) {
    std::string page(kPageSize, '\0');
    PageView v(page.data());
    v.Format(page_id);
    v.set_lsn(lsn);
    memset(v.payload(), fill, 64);
    return page;
  }

  /// Evict helper: page with the given flags enters the cache.
  Status Evict(PageId page_id, bool dirty, bool fdirty, char fill = 'p',
               Lsn lsn = 10) {
    std::string page = MakePage(page_id, fill, lsn);
    return cache_->OnDramEvict(page_id, page.data(), dirty, fdirty, lsn);
  }

  FaceOptions options_;
  FlashLayout layout_;
  std::unique_ptr<SimDevice> db_dev_, flash_;
  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<FaceCache> cache_;
};

TEST_F(FaceCacheTest, DirtyEvictionIsCachedAndReadBack) {
  Init(FaceOptions::Base(16));
  FACE_ASSERT_OK(Evict(5, true, true, 'x'));
  EXPECT_TRUE(cache_->Contains(5));
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK_AND_ASSIGN(FlashReadResult r, cache_->ReadPage(5, &out[0]));
  EXPECT_TRUE(r.dirty);
  EXPECT_EQ(out[kPageHeaderSize], 'x');
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, ConditionalEnqueueSkipsCleanDuplicates) {
  Init(FaceOptions::Base(16));
  FACE_ASSERT_OK(Evict(5, false, true));  // first copy enters
  const uint64_t enqueues = cache_->stats().enqueues;
  // Clean re-eviction of an already-cached page: no new version.
  FACE_ASSERT_OK(Evict(5, false, false));
  EXPECT_EQ(cache_->stats().enqueues, enqueues);
  // fdirty re-eviction: unconditional, invalidates the old version.
  FACE_ASSERT_OK(Evict(5, true, true));
  EXPECT_EQ(cache_->stats().enqueues, enqueues + 1);
  EXPECT_EQ(cache_->stats().invalidations, 1u);
  EXPECT_EQ(cache_->valid_pages(), 1u);
  EXPECT_EQ(cache_->live_entries(), 2u);  // two versions, one valid
  EXPECT_GT(cache_->DuplicateRatio(), 0.0);
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, DequeueWritesOnlyValidDirtyToDisk) {
  Init(FaceOptions::Base(4));
  // Fill with 2 versions of page 1 (first invalid) + 2 clean pages.
  FACE_ASSERT_OK(Evict(1, true, true, 'a'));
  FACE_ASSERT_OK(Evict(1, true, true, 'b'));
  FACE_ASSERT_OK(Evict(2, false, true, 'c'));
  FACE_ASSERT_OK(Evict(3, false, true, 'd'));
  // Cache full: next enqueue dequeues the invalid version of 1 -> no disk
  // write; then the valid dirty version -> one disk write.
  const uint64_t disk0 = cache_->stats().disk_writes;
  FACE_ASSERT_OK(Evict(4, false, true));
  EXPECT_EQ(cache_->stats().disk_writes, disk0);
  FACE_ASSERT_OK(Evict(5, false, true));
  EXPECT_EQ(cache_->stats().disk_writes, disk0 + 1);
  // The written copy must be the newest version ('b').
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(storage_->ReadPage(1, out.data()));
  EXPECT_EQ(out[kPageHeaderSize], 'b');
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, WritesAreSequentialOnFlash) {
  Init(FaceOptions::Base(64));
  for (PageId p = 0; p < 200; ++p) {
    FACE_ASSERT_OK(Evict(p % 90, true, true));
  }
  const DeviceStats& st = flash_->stats();
  // The mvFIFO append pattern: nearly all frame writes classify sequential
  // (the exceptions: the superblock, the first frame, and one jump per
  // ring wrap-around).
  EXPECT_GE(st.seq_write_reqs + 8, st.write_reqs);
  EXPECT_GT(st.seq_write_reqs, st.write_reqs * 9 / 10);
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, GroupReplacementBatchesIo) {
  FaceOptions gr = FaceOptions::GroupReplace(64);
  gr.group_size = 16;
  Init(gr);
  for (PageId p = 0; p < 300; ++p) {
    FACE_ASSERT_OK(Evict(p, true, true));
  }
  // Batched staging: device write requests are far fewer than pages.
  const DeviceStats& st = flash_->stats();
  EXPECT_LT(st.write_reqs, st.pages_written / 8);
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

/// Pull source faking a DRAM buffer with a fixed stock of victims.
class FakePullSource : public DramPullSource {
 public:
  explicit FakePullSource(PageId first) : next_(first) {}
  PageId PullVictim(char* page, bool* dirty, bool* fdirty,
                    Lsn* rec_lsn) override {
    if (remaining_ == 0) return kInvalidPageId;
    --remaining_;
    const PageId id = next_++;
    PageView v(page);
    v.Format(id);
    v.set_lsn(5);
    *dirty = true;
    *fdirty = true;
    *rec_lsn = 5;
    ++pulled;
    return id;
  }
  void Stock(uint32_t n) { remaining_ = n; }
  uint32_t pulled = 0;

 private:
  PageId next_;
  uint32_t remaining_ = 0;
};

TEST_F(FaceCacheTest, SecondChanceReenqueuesReferencedPages) {
  FaceOptions gsc = FaceOptions::GroupSecondChance(32);
  gsc.group_size = 8;
  Init(gsc);
  for (PageId p = 0; p < 32; ++p) FACE_ASSERT_OK(Evict(p, true, true));
  // Reference pages 0..3 (they sit at the front).
  std::string out(kPageSize, '\0');
  for (PageId p = 0; p < 4; ++p) {
    FACE_ASSERT_OK(cache_->ReadPage(p, out.data()).status());
  }
  // Trigger a replacement: the referenced front pages survive.
  FACE_ASSERT_OK(Evict(100, true, true));
  for (PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(cache_->Contains(p)) << "page " << p;
  }
  EXPECT_GE(cache_->stats().second_chances, 4u);
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, GscPullsVictimsToFillBatches) {
  FaceOptions gsc = FaceOptions::GroupSecondChance(32);
  gsc.group_size = 8;
  Init(gsc);
  FakePullSource pull(1000);
  cache_->SetPullSource(&pull);
  for (PageId p = 0; p < 32; ++p) FACE_ASSERT_OK(Evict(p, true, true));
  pull.Stock(6);
  FACE_ASSERT_OK(Evict(100, true, true));  // replacement pulls to fill
  EXPECT_GT(pull.pulled, 0u);
  EXPECT_EQ(cache_->stats().pulled_from_dram, pull.pulled);
  for (PageId p = 1000; p < 1000 + pull.pulled; ++p) {
    EXPECT_TRUE(cache_->Contains(p));
  }
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, MetadataSegmentsFlushOnCadence) {
  FaceOptions o = FaceOptions::Base(64);
  o.seg_entries = 16;
  Init(o);
  const uint64_t meta0 = cache_->stats().meta_flash_writes;
  for (PageId p = 0; p < 16; ++p) FACE_ASSERT_OK(Evict(p, true, true));
  // One segment (+superblock) must have been persisted at the boundary.
  EXPECT_GT(cache_->stats().meta_flash_writes, meta0);
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, RecoversPersistedStateAfterCrash) {
  FaceOptions o = FaceOptions::Base(64);
  o.seg_entries = 16;
  Init(o);
  for (PageId p = 0; p < 40; ++p) {
    FACE_ASSERT_OK(Evict(p, true, true, static_cast<char>('A' + p % 26)));
  }
  Reboot();
  EXPECT_EQ(cache_->valid_pages(), 40u);
  const auto& info = cache_->recovery_info();
  EXPECT_EQ(info.persisted_segments_read, 2u);  // 32 entries persisted
  EXPECT_GT(info.rebuilt_frames_scanned, 0u);   // the 8-entry remainder
  // Every page reads back with its payload.
  std::string out(kPageSize, '\0');
  for (PageId p = 0; p < 40; ++p) {
    ASSERT_TRUE(cache_->Contains(p)) << "page " << p;
    FACE_ASSERT_OK_AND_ASSIGN(FlashReadResult r, cache_->ReadPage(p, &out[0]));
    EXPECT_EQ(out[kPageHeaderSize], static_cast<char>('A' + p % 26));
    EXPECT_TRUE(r.dirty);  // every page was evicted dirty
  }
  EXPECT_EQ(info.dirty_entries_restored, 40u);
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceCacheTest, ScannedTailRestoresEachFrameDirtyFlag) {
  FaceOptions o = FaceOptions::Base(64);
  o.seg_entries = 16;
  Init(o);
  // 16 entries reach a persisted segment; the next 8 live only in frames.
  // Odd pages enter clean: each frame's stamp must bring its flag back.
  for (PageId p = 0; p < 24; ++p) {
    FACE_ASSERT_OK(Evict(p, /*dirty=*/p % 2 == 0, /*fdirty=*/true));
  }
  Reboot();
  const auto& info = cache_->recovery_info();
  EXPECT_EQ(info.persisted_segments_read, 1u);
  EXPECT_EQ(info.valid_pages_restored, 24u);
  EXPECT_EQ(info.dirty_entries_restored, 12u);
  std::string out(kPageSize, '\0');
  for (PageId p = 0; p < 24; ++p) {
    FACE_ASSERT_OK_AND_ASSIGN(FlashReadResult r, cache_->ReadPage(p, &out[0]));
    EXPECT_EQ(r.dirty, p % 2 == 0) << "page " << p;
  }
  // Only the dirty pages enter the WAL-rebuild ledger; a clean frame is
  // discarded at dequeue, not destaged.
  std::vector<FlashOnlyPage> exposed;
  cache_->CollectFlashOnlyDirty(&exposed);
  EXPECT_EQ(exposed.size(), 12u);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t audited, cache_->AuditFrames());
  EXPECT_EQ(audited, 24u);
}

TEST_F(FaceCacheTest, SegmentBoundaryInsideSurvivorLoopKeepsSurvivors) {
  // 30 frames, 8-page groups: a full queue's rear sits 6 past a group
  // boundary, so the re-enqueued survivors of the front group take seqs
  // 30..33 and the 8-entry segment boundary (seq 31) falls among them.
  FaceOptions o = FaceOptions::GroupSecondChance(30);
  o.group_size = 8;
  o.seg_entries = 8;
  Init(o);
  for (PageId p = 0; p < 30; ++p) {
    FACE_ASSERT_OK(Evict(p, true, true, static_cast<char>('a' + p % 26)));
  }
  std::string out(kPageSize, '\0');
  for (PageId p = 0; p < 4; ++p) {  // survivors of the front group
    FACE_ASSERT_OK(cache_->ReadPage(p, out.data()).status());
  }
  FACE_ASSERT_OK(Evict(100, true, true));  // dequeue + survivor loop
  ASSERT_EQ(cache_->stats().second_chances, 4u);
  // Crash before the next staging flush: every survivor's only copy must
  // be durable, past the superblock front the boundary persisted.
  Reboot();
  for (PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(cache_->Contains(p)) << "survivor " << p << " lost";
    FACE_ASSERT_OK_AND_ASSIGN(FlashReadResult r,
                              cache_->ReadPage(p, out.data()));
    EXPECT_TRUE(r.dirty);
    EXPECT_EQ(out[kPageHeaderSize], static_cast<char>('a' + p)) << p;
  }
  FACE_ASSERT_OK(cache_->AuditFrames().status());
}

TEST_F(FaceCacheTest, RecoverRefusesSegmentLargerThanHalfTheFrames) {
  // A 16-entry segment on 16 frames: the unpersisted tail can lap frames
  // the persisted segments still describe, so restart must refuse it.
  FaceOptions o = FaceOptions::Base(16);
  o.seg_entries = 16;
  Init(o);
  for (PageId p = 0; p < 40; ++p) FACE_ASSERT_OK(Evict(p, true, true));
  cache_ = std::make_unique<FaceCache>(options_, flash_.get(), storage_.get());
  EXPECT_TRUE(cache_->RecoverAfterCrash().IsInvalidArgument());
}

TEST_F(FaceCacheTest, RecoversAfterRingWrap) {
  FaceOptions o = FaceOptions::Base(32);
  o.seg_entries = 8;
  Init(o);
  // Wrap the ring several times; disk absorbs dequeued dirty pages.
  for (int round = 0; round < 4; ++round) {
    for (PageId p = 0; p < 40; ++p) {
      FACE_ASSERT_OK(Evict(p, true, true,
                           static_cast<char>('a' + round)));
    }
  }
  Reboot();
  FACE_ASSERT_OK(cache_->CheckInvariants());
  EXPECT_LE(cache_->live_entries(), 32u);
  // Every cached page must serve a validating read; every page must be
  // current (either the cached newest version or the disk copy).
  std::string out(kPageSize, '\0');
  for (PageId p = 0; p < 40; ++p) {
    if (cache_->Contains(p)) {
      FACE_ASSERT_OK(cache_->ReadPage(p, out.data()).status());
      EXPECT_EQ(out[kPageHeaderSize], 'd') << "page " << p;
    }
  }
}

TEST_F(FaceCacheTest, RecoverOnFreshDeviceIsColdStart) {
  Init(FaceOptions::Base(16));
  flash_->Erase();  // nothing persisted at all
  Reboot();
  EXPECT_EQ(cache_->valid_pages(), 0u);
  FACE_ASSERT_OK(Evict(1, true, true));
  EXPECT_TRUE(cache_->Contains(1));
}

TEST_F(FaceCacheTest, CheckpointPagesAbsorbsIntoFlash) {
  Init(FaceOptions::Base(16));
  std::string page = MakePage(9, 'k', 77);
  const uint64_t disk0 = cache_->stats().disk_writes;
  std::vector<CheckpointOffer> offers = {
      CheckpointOffer{9, page.data(), 77, DeltaWriteHint{}, false}};
  bool forced = false;
  const IoLead force{[&forced] {
    forced = true;
    return Status::OK();
  }};
  WriteBackStats stats;
  FACE_ASSERT_OK(cache_->CheckpointPages(&offers, force, nullptr, &stats));
  EXPECT_TRUE(forced);
  EXPECT_EQ(stats.batches, 0u);  // no scheduler: no lane batch
  EXPECT_EQ(stats.pages, 0u);
  EXPECT_TRUE(offers[0].absorbed);
  EXPECT_NE(offers[0].hint.new_version, kNoFlashVersion);
  EXPECT_EQ(cache_->stats().disk_writes, disk0);
  EXPECT_TRUE(cache_->Contains(9));
  FACE_ASSERT_OK(cache_->OnCheckpoint());  // staging forced to flash
}

TEST_F(FaceCacheTest, WriteThroughAblationAlsoWritesDisk) {
  FaceOptions o = FaceOptions::Base(16);
  o.write_through = true;
  Init(o);
  FACE_ASSERT_OK(Evict(3, true, true, 'w'));
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(storage_->ReadPage(3, out.data()));  // disk current
  EXPECT_EQ(out[kPageHeaderSize], 'w');
  EXPECT_TRUE(cache_->Contains(3));  // and cached
}

TEST_F(FaceCacheTest, DirtyOnlyAblationSkipsCleanPages) {
  FaceOptions o = FaceOptions::Base(16);
  o.cache_clean = false;
  Init(o);
  FACE_ASSERT_OK(Evict(1, false, false, 'c'));
  EXPECT_FALSE(cache_->Contains(1));
  FACE_ASSERT_OK(Evict(2, true, true, 'd'));
  EXPECT_TRUE(cache_->Contains(2));
}

TEST_F(FaceCacheTest, CleanOnlyAblationWritesDirtyToDisk) {
  FaceOptions o = FaceOptions::Base(16);
  o.cache_dirty = false;
  Init(o);
  FACE_ASSERT_OK(Evict(1, true, true, 'd'));
  EXPECT_FALSE(cache_->Contains(1));
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(storage_->ReadPage(1, out.data()));
  EXPECT_EQ(out[kPageHeaderSize], 'd');
}

TEST_F(FaceCacheTest, CleanOnlyAblationInvalidatesStaleFlashCopy) {
  FaceOptions o = FaceOptions::Base(16);
  o.seg_entries = 4;
  o.cache_dirty = false;
  Init(o);
  // Clean copies of pages 4-7 enter the cache and fill a metadata segment,
  // which is persisted; page 7 is then re-dirtied and evicted to disk. Its
  // flash copy is stale and must never be served again, not even after a
  // restart.
  for (PageId p = 4; p < 8; ++p) FACE_ASSERT_OK(Evict(p, false, true, 'o'));
  ASSERT_TRUE(cache_->Contains(7));
  FACE_ASSERT_OK(Evict(7, true, true, 'n'));
  EXPECT_FALSE(cache_->Contains(7));
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(storage_->ReadPage(7, out.data()));
  EXPECT_EQ(out[kPageHeaderSize], 'n');
  FACE_ASSERT_OK(cache_->CheckInvariants());
  Reboot();
  EXPECT_TRUE(cache_->Contains(6));
  EXPECT_FALSE(cache_->Contains(7));
}

// --- FaCE under the engine (buffer pool, WAL, commits) ------------------------

class FaceEngineTest : public TimedEngineFixture {};

TEST_F(FaceEngineTest, DiskWriteDropsTheOlderFlashCopy) {
  // FlushAllToDisk (clean shutdown's first step) writes a page's newest
  // version to disk and marks the DRAM frame clean. The older dirty flash
  // copy must go with it: a clean eviction never re-admits a page the
  // cache still holds, so the next fetch would serve the old version.
  InitFace(/*buffer_frames=*/16, /*flash_frames=*/64);
  const std::vector<PageId> pages = NewPages(40);
  CommitToEach(pages, "old!!");
  FACE_ASSERT_OK(db_->pool()->EvictAll());
  ASSERT_TRUE(cache_->Contains(pages[7]));
  CommitToEach({pages[7]}, "new!!");
  FACE_ASSERT_OK(db_->pool()->FlushAllToDisk());
  EXPECT_FALSE(cache_->Contains(pages[7]));
  FACE_ASSERT_OK(db_->pool()->EvictAll());
  EXPECT_EQ(ReadBytes(pages[7], kPageHeaderSize, 5), "new!!");
  FACE_ASSERT_OK(cache_->CheckInvariants());
}

TEST_F(FaceEngineTest, GscWriteThroughLeavesNothingOnlyOnFlash) {
  // Write-through: every dirty page leaving DRAM reaches disk, the DRAM
  // victims GSC pulls to fill a group included, so no page's newest
  // version ever lives only on flash.
  FaceOptions o = FaceOptions::GroupSecondChance(32);
  o.group_size = 8;
  o.seg_entries = 8;
  o.write_through = true;
  InitFace(/*buffer_frames=*/16, o);
  std::vector<PageId> pages;  // each created right before its first commit
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < 200; ++i) {
      if (round == 0) pages.push_back(NewPages(1).at(0));
      CommitToEach({pages[i]}, "round" + std::to_string(round));
      std::vector<FlashOnlyPage> exposed;
      cache_->CollectFlashOnlyDirty(&exposed);
      ASSERT_TRUE(exposed.empty())
          << exposed.size() << " pages only on flash after "
          << cache_->stats().pulled_from_dram << " pulls";
    }
  }
  EXPECT_GT(cache_->stats().pulled_from_dram, 0u);
  EXPECT_EQ(cache_->FlashRedoFloor(), kInvalidLsn);
}

// Property sweep: random traffic against every FaCE flavor keeps internal
// invariants and never loses the newest version of a page.
struct FaceFlavor {
  const char* name;
  FaceReplacement replacement;
};

class FaceCacheProperty : public FaceCacheTest,
                          public ::testing::WithParamInterface<FaceFlavor> {};

TEST_P(FaceCacheProperty, RandomTrafficKeepsNewestVersionReachable) {
  FaceOptions o = FaceOptions::Base(48);
  o.replacement = GetParam().replacement;
  o.group_size = 8;
  o.seg_entries = 16;
  Init(o);

  Random rnd(99);
  std::map<PageId, char> newest;  // model: last dirty payload per page
  for (int i = 0; i < 2000; ++i) {
    const PageId p = rnd.Uniform(100);
    const char fill = static_cast<char>('a' + rnd.Uniform(26));
    const bool dirty = rnd.PercentTrue(70);
    if (dirty) {
      FACE_ASSERT_OK(Evict(p, true, true, fill, /*lsn=*/10 + i));
      newest[p] = fill;
    } else if (newest.count(p) != 0) {
      // Clean re-eviction of the same content the cache already has.
      FACE_ASSERT_OK(Evict(p, false, false, newest[p], 10 + i));
    }
    if (i % 250 == 0) FACE_ASSERT_OK(cache_->CheckInvariants());
  }
  FACE_ASSERT_OK(cache_->CheckInvariants());

  // Every page: the current version is either cached (matching payload) or
  // on disk (matching payload) — never lost, never stale.
  std::string out(kPageSize, '\0');
  for (const auto& [p, fill] : newest) {
    if (cache_->Contains(p)) {
      FACE_ASSERT_OK(cache_->ReadPage(p, out.data()).status());
    } else {
      FACE_ASSERT_OK(storage_->ReadPage(p, out.data()));
    }
    EXPECT_EQ(out[kPageHeaderSize], fill) << "page " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, FaceCacheProperty,
    ::testing::Values(FaceFlavor{"base", FaceReplacement::kMvFifo},
                      FaceFlavor{"GR", FaceReplacement::kGroupReplace},
                      FaceFlavor{"GSC", FaceReplacement::kGroupSecondChance}),
    [](const ::testing::TestParamInfo<FaceFlavor>& pinfo) {
      return pinfo.param.name;
    });

}  // namespace
}  // namespace face
