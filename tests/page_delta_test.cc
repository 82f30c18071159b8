// Unit tests for the page-differential machinery: the diff-trim scan, the
// region tracker, the on-media delta-record codec, and the shared DeltaRing
// — including a randomized differential proof that applying a chain onto
// its base image always reproduces the full page, across a million fuzzed
// byte edits with slot-reuse consolidation churning underneath.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/page_delta.h"
#include "core/delta_ring.h"
#include "fault/fault_injector.h"
#include "sim/sim_device.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace face {
namespace {

// ---------------------------------------------------------------------------
// ComputeDiffBounds: the word-wise trim must match a byte-wise scan exactly.

DiffBounds NaiveDiff(const char* before, const char* after, uint32_t len) {
  uint32_t lo = 0;
  while (lo < len && before[lo] == after[lo]) ++lo;
  uint32_t hi = len;
  while (hi > lo && before[hi - 1] == after[hi - 1]) --hi;
  return DiffBounds{lo, hi};
}

TEST(PageDeltaTest, DiffBoundsMatchByteScan) {
  std::mt19937_64 rng(20120827);
  std::string before(kPageSize, '\0');
  for (char& c : before) c = static_cast<char>(rng());
  for (int iter = 0; iter < 2000; ++iter) {
    std::string after = before;
    const uint32_t len =
        1 + static_cast<uint32_t>(rng() % kPageSize);
    // Flip up to three spans (possibly none: identical inputs).
    const int flips = static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const uint32_t off = static_cast<uint32_t>(rng() % len);
      const uint32_t n =
          1 + static_cast<uint32_t>(rng() % std::min<uint32_t>(64, len - off));
      for (uint32_t i = 0; i < n; ++i) after[off + i] ^= 0x5a;
    }
    const DiffBounds fast = ComputeDiffBounds(before.data(), after.data(), len);
    const DiffBounds slow = NaiveDiff(before.data(), after.data(), len);
    ASSERT_EQ(fast.lo, slow.lo) << "len=" << len;
    ASSERT_EQ(fast.hi, slow.hi) << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// PageDeltaTracker: merge discipline and degradation.

TEST(PageDeltaTest, TrackerMergesOverlapsAndClampsHeader) {
  PageDeltaTracker t;
  t.Add(100, 10);
  t.Add(105, 10);  // overlaps -> one region [100, 115)
  ASSERT_EQ(t.region_count(), 1u);
  EXPECT_EQ(t.regions()[0].off, 100u);
  EXPECT_EQ(t.regions()[0].len, 15u);

  // Offsets inside the page header are clamped out: the header is
  // reconstructed at apply time.
  t.Reset();
  t.Add(0, kPageHeaderSize + 8);
  ASSERT_EQ(t.region_count(), 1u);
  EXPECT_EQ(t.regions()[0].off, kPageHeaderSize);
  EXPECT_EQ(t.regions()[0].len, 8u);

  // Overflow past kMaxDeltaRegions merges the closest pair instead of
  // dropping anything: coverage is a superset of the true diff.
  t.Reset();
  for (uint32_t i = 0; i < kMaxDeltaRegions + 3; ++i) {
    t.Add(kPageHeaderSize + i * 200, 4);
  }
  EXPECT_LE(t.region_count(), kMaxDeltaRegions);
  EXPECT_FALSE(t.whole_page());
  uint32_t covered = 0;
  for (uint32_t i = 0; i < t.region_count(); ++i) covered += t.regions()[i].len;
  EXPECT_GE(covered, (kMaxDeltaRegions + 3) * 4u);

  t.MarkAll();
  EXPECT_TRUE(t.whole_page());
  EXPECT_EQ(t.region_count(), 0u);
}

// ---------------------------------------------------------------------------
// PageDeltaRecord codec: round trip, and rejection of any corrupted byte.

TEST(PageDeltaTest, RecordCodecRoundTrip) {
  std::mt19937_64 rng(42);
  std::string page(kPageSize, '\0');
  for (char& c : page) c = static_cast<char>(rng());

  for (int iter = 0; iter < 500; ++iter) {
    PageDeltaTracker t;
    const uint32_t n = 1 + static_cast<uint32_t>(rng() % kMaxDeltaRegions);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t off =
          kPageHeaderSize +
          static_cast<uint32_t>(rng() % (kPageSize - kPageHeaderSize - 128));
      t.Add(off, 1 + static_cast<uint32_t>(rng() % 128));
    }
    const PageId pid = 7 + iter;
    const Lsn lsn = 1000 + iter;
    std::string blob;
    PageDeltaRecord::Encode(t, pid, lsn, /*base_version=*/iter,
                            /*chain_idx=*/static_cast<uint16_t>(iter % 4),
                            /*dirty=*/(iter % 2) != 0, page.data(), &blob);
    ASSERT_EQ(blob.size(), PageDeltaRecord::EncodedSizeFor(t));

    PageDeltaRecord rec;
    ASSERT_TRUE(PageDeltaRecord::Decode(blob.data(),
                                        static_cast<uint32_t>(blob.size()),
                                        &rec));
    EXPECT_EQ(rec.page_id, pid);
    EXPECT_EQ(rec.lsn, lsn);
    EXPECT_EQ(rec.base_version, static_cast<uint64_t>(iter));
    EXPECT_EQ(rec.chain_idx, iter % 4);
    EXPECT_EQ(rec.dirty, (iter % 2) != 0 ? 1 : 0);
    ASSERT_EQ(rec.n_regions, t.region_count());
    // Applying the record onto a scrambled copy restores exactly the
    // tracked regions.
    std::string target(kPageSize, '\xee');
    rec.ApplyRegions(target.data());
    for (uint32_t i = 0; i < rec.n_regions; ++i) {
      const auto& r = rec.regions[i];
      ASSERT_EQ(0, memcmp(target.data() + r.off, page.data() + r.off, r.len));
    }

    // Any single flipped byte must fail the crc (or the structural checks).
    std::string bad = blob;
    const size_t flip = rng() % bad.size();
    bad[flip] = static_cast<char>(bad[flip] ^ 0x40);
    EXPECT_FALSE(PageDeltaRecord::Decode(
        bad.data(), static_cast<uint32_t>(bad.size()), &rec))
        << "flip at " << flip;
    // A truncated buffer must fail cleanly too.
    EXPECT_FALSE(PageDeltaRecord::Decode(
        blob.data(), static_cast<uint32_t>(blob.size() - 1), &rec));
  }
}

// ---------------------------------------------------------------------------
// DeltaRing fixture: a simulated owner with per-page base images, as the
// cache policies keep them.

class DeltaRingTest : public ::testing::Test {
 protected:
  void Init(uint32_t n_blocks, DeltaRingOptions tweak = DeltaRingOptions{}) {
    flash_ = std::make_unique<SimDevice>("flash",
                                         DeviceProfile::MlcSamsung470(),
                                         n_blocks);
    DeltaRingOptions o = tweak;
    o.base_block = 0;
    o.n_blocks = n_blocks;
    ring_ = std::make_unique<DeltaRing>(o, flash_.get(), &stats_);
    ring_->SetConsolidateFn([this](const std::vector<PageId>& pids) {
      return Consolidate(pids);
    });
    FACE_ASSERT_OK(ring_->Reset());
  }

  /// Owner-side full write: remember the image as the new base and re-base
  /// the chain.
  void FullWrite(PageId pid, const std::string& image) {
    base_[pid] = image;
    version_[pid] = ring_->BeginFull(pid, next_tag_++);
  }

  /// The slot-reuse callback: consolidate each page by folding its chain
  /// tip into the stored base (a full write in the real policies).
  Status Consolidate(const std::vector<PageId>& pids) {
    for (PageId pid : pids) {
      auto it = base_.find(pid);
      if (it == base_.end()) continue;
      DeltaRing::ChainView cv;
      if (!ring_->GetChain(pid, &cv) || cv.len == 0) continue;
      ring_->ApplyChain(pid, it->second.data());
      version_[pid] = ring_->BeginFull(pid, next_tag_++);
      ++consolidated_;
    }
    return Status::OK();
  }

  std::unique_ptr<SimDevice> flash_;
  CacheStats stats_;  ///< the owner's counters the ring counts into
  std::unique_ptr<DeltaRing> ring_;
  std::unordered_map<PageId, std::string> base_;     ///< last full image
  std::unordered_map<PageId, uint64_t> version_;     ///< frame tip version
  uint64_t next_tag_ = 1;
  uint64_t consolidated_ = 0;
};

std::string FreshPage(PageId pid, Lsn lsn, std::mt19937_64& rng) {
  std::string page(kPageSize, '\0');
  for (char& c : page) c = static_cast<char>(rng());
  PageView v(page.data());
  v.set_page_id(pid);
  v.set_lsn(lsn);
  v.StampChecksum();
  return page;
}

// The tentpole differential: across a million fuzzed byte edits spread over
// a working set larger than the ring, apply(base, chain) must equal the
// full current image after every single step — while wraparound forces
// slot-reuse consolidations underneath.
TEST_F(DeltaRingTest, RandomizedDifferentialAcrossAMillionEdits) {
  // Long chains + a tiny ring: chains stay alive across a full ring lap,
  // so wraparound keeps landing on slots with live records and the
  // consolidation sweep runs for real.
  DeltaRingOptions tweak;
  tweak.max_chain = 64;
  tweak.max_chain_bytes = 1u << 20;
  Init(/*n_blocks=*/8, tweak);
  std::mt19937_64 rng(20120827);
  constexpr int kPages = 16;
  std::vector<std::string> truth;
  for (PageId p = 0; p < kPages; ++p) {
    truth.push_back(FreshPage(p, /*lsn=*/1, rng));
    FullWrite(p, truth[p]);
  }

  uint64_t edited_bytes = 0;
  Lsn lsn = 2;
  uint64_t appends = 0, full_writes = 0;
  while (edited_bytes < 1'000'000) {
    const PageId p = static_cast<PageId>(rng() % kPages);
    PageDeltaTracker tracker;
    const uint32_t n_spans = 1 + static_cast<uint32_t>(rng() % 3);
    for (uint32_t s = 0; s < n_spans; ++s) {
      const uint32_t len = 1 + static_cast<uint32_t>(rng() % 64);
      const uint32_t off =
          kPageHeaderSize +
          static_cast<uint32_t>(rng() %
                                (kPageSize - kPageHeaderSize - len));
      for (uint32_t i = 0; i < len; ++i) {
        truth[p][off + i] = static_cast<char>(rng());
      }
      tracker.Add(off, len);
      edited_bytes += len;
    }
    PageView v(truth[p].data());
    v.set_lsn(lsn);
    v.StampChecksum();

    bool appended = false;
    const uint32_t size = PageDeltaRecord::EncodedSizeFor(tracker);
    if (ring_->CanAppend(p, version_[p], size)) {
      FACE_ASSERT_OK_AND_ASSIGN(
          const uint64_t got,
          ring_->Append(p, version_[p], tracker, lsn, /*dirty=*/true,
                        truth[p].data()));
      if (got != kNoFlashVersion) {
        version_[p] = got;
        appended = true;
        ++appends;
      }
    }
    if (!appended) {
      FullWrite(p, truth[p]);
      ++full_writes;
    }
    ++lsn;

    // The differential check proper: base + chain == full current image.
    std::string img = base_[p];
    ring_->ApplyChain(p, img.data());
    ASSERT_EQ(0, memcmp(img.data() + kPageHeaderSize,
                        truth[p].data() + kPageHeaderSize,
                        kPageSize - kPageHeaderSize))
        << "differential mismatch on page " << p << " after " << edited_bytes
        << " edited bytes";
    ASSERT_EQ(ConstPageView(img.data()).lsn(), ConstPageView(truth[p].data()).lsn());
    ASSERT_TRUE(ConstPageView(img.data()).VerifyChecksum());
  }

  FACE_ASSERT_OK(ring_->CheckInvariants());
  // The tiny 8-block ring must have wrapped many times: slot-reuse
  // consolidation ran, and chains still never lost an edit (checked above).
  EXPECT_GT(stats_.delta_consolidations, 0u);
  EXPECT_GT(consolidated_, 0u);
  EXPECT_GT(appends, full_writes)
      << "delta path should dominate with small edits";
}

// Chain caps: length, per-record bytes, per-chain bytes, version mismatch.
TEST_F(DeltaRingTest, ThresholdAndVersionEdges) {
  DeltaRingOptions tweak;
  tweak.max_chain = 3;
  tweak.max_record_bytes = 256;
  tweak.max_chain_bytes = 400;
  Init(/*n_blocks=*/8, tweak);
  std::mt19937_64 rng(7);
  std::string page = FreshPage(/*pid=*/1, /*lsn=*/1, rng);
  FullWrite(1, page);

  PageDeltaTracker small;
  small.Add(kPageHeaderSize, 16);
  const uint32_t small_size = PageDeltaRecord::EncodedSizeFor(small);

  // No chain registered for an unknown page.
  EXPECT_FALSE(ring_->CanAppend(99, version_[1], small_size));
  // Version mismatch: a frame loaded from an older flash state may not
  // append (its tracked regions are not the diff vs. the current tip).
  EXPECT_FALSE(ring_->CanAppend(1, version_[1] + 1, small_size));
  EXPECT_FALSE(ring_->CanAppend(1, kNoFlashVersion, small_size));
  // A record beyond the per-record cap is refused outright.
  PageDeltaTracker big;
  big.Add(kPageHeaderSize, 300);
  EXPECT_FALSE(
      ring_->CanAppend(1, version_[1], PageDeltaRecord::EncodedSizeFor(big)));
  // Up to max_chain records fit; the next one is refused (the owner falls
  // back to a full write, which re-bases).
  Lsn lsn = 2;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring_->CanAppend(1, version_[1], small_size)) << i;
    page[kPageHeaderSize + i] = 'x';
    PageView(page.data()).set_lsn(lsn);
    PageView(page.data()).StampChecksum();
    FACE_ASSERT_OK_AND_ASSIGN(
        version_[1], ring_->Append(1, version_[1], small, lsn, true,
                                   page.data()));
    ASSERT_NE(version_[1], kNoFlashVersion);
    ++lsn;
  }
  EXPECT_FALSE(ring_->CanAppend(1, version_[1], small_size));
  DeltaRing::ChainView cv;
  ASSERT_TRUE(ring_->GetChain(1, &cv));
  EXPECT_EQ(cv.len, 3u);
  FullWrite(1, page);  // chain-too-long fallback
  ASSERT_TRUE(ring_->GetChain(1, &cv));
  EXPECT_EQ(cv.len, 0u);
  EXPECT_TRUE(ring_->CanAppend(1, version_[1], small_size));

  // The per-chain byte cap binds before the length cap when records are
  // fat: two 236-byte records exceed the 400-byte chain budget.
  PageDeltaTracker fat;
  fat.Add(kPageHeaderSize, 200);
  const uint32_t fat_size = PageDeltaRecord::EncodedSizeFor(fat);
  ASSERT_LE(fat_size, 256u);
  FACE_ASSERT_OK_AND_ASSIGN(
      version_[1],
      ring_->Append(1, version_[1], fat, lsn, true, page.data()));
  ASSERT_NE(version_[1], kNoFlashVersion);
  EXPECT_FALSE(ring_->CanAppend(1, version_[1], fat_size));

  // Drop forgets the chain entirely.
  ring_->Drop(1);
  EXPECT_FALSE(ring_->GetChain(1, &cv));
  FACE_ASSERT_OK(ring_->CheckInvariants());
}

// Flush + RecoverScan: durable records survive in order; a garbled byte
// mid-ring cuts the scan there and discards everything after.
TEST_F(DeltaRingTest, RecoverScanStopsAtGarbledRecord) {
  Init(/*n_blocks=*/8);
  std::mt19937_64 rng(11);
  std::string page = FreshPage(/*pid=*/5, /*lsn=*/1, rng);
  FullWrite(5, page);

  PageDeltaTracker t;
  t.Add(kPageHeaderSize, 32);
  DeltaRingOptions opts = ring_->options();
  std::vector<std::pair<Lsn, uint16_t>> appended;  // (lsn, chain_idx)
  Lsn lsn = 2;
  // Two batches with a Flush after each: everything lands on media. A full
  // write mid-stream (chain at cap) restarts chain indexes — expected.
  for (int batch = 0; batch < 2; ++batch) {
    for (int i = 0; i < 3; ++i) {
      page[kPageHeaderSize + i] = static_cast<char>('a' + i + batch * 3);
      PageView(page.data()).set_lsn(lsn);
      PageView(page.data()).StampChecksum();
      if (!ring_->CanAppend(5, version_[5],
                            PageDeltaRecord::EncodedSizeFor(t))) {
        FullWrite(5, page);
        continue;
      }
      DeltaRing::ChainView before;
      ASSERT_TRUE(ring_->GetChain(5, &before));
      FACE_ASSERT_OK_AND_ASSIGN(
          version_[5],
          ring_->Append(5, version_[5], t, lsn, true, page.data()));
      if (version_[5] != kNoFlashVersion) {
        appended.emplace_back(lsn, before.len);
      }
      ++lsn;
    }
    FACE_ASSERT_OK(ring_->Flush());
  }
  ASSERT_GE(appended.size(), 4u);

  // A clean recovery scan sees every record, in append order.
  {
    DeltaRing ring2(opts, flash_.get(), &stats_);
    FACE_ASSERT_OK_AND_ASSIGN(auto recs, ring2.RecoverScan());
    ASSERT_EQ(recs.size(), appended.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].rec.lsn, appended[i].first);
      EXPECT_EQ(recs[i].rec.page_id, 5u);
      EXPECT_EQ(recs[i].rec.chain_idx, appended[i].second);
    }
  }

  // Garble one byte in the middle of the first record's payload area: the
  // scan must stop before it and surface zero records (later blocks, if
  // any, are discarded as beyond the cut).
  FACE_ASSERT_OK(FaultInjector::GarbleBlocks(
      flash_.get(), opts.base_block, 1, '\x5a'));
  {
    DeltaRing ring2(opts, flash_.get(), &stats_);
    FACE_ASSERT_OK_AND_ASSIGN(auto recs, ring2.RecoverScan());
    EXPECT_TRUE(recs.empty());
  }
}

// A power cut mid-Flush (sector-granular tear via the FaultInjector) leaves
// a prefix of the rewritten block; recovery keeps exactly the records whose
// bytes fully survived and the ring keeps working afterwards.
TEST_F(DeltaRingTest, TornFlushRecoversDurablePrefix) {
  Init(/*n_blocks=*/8);
  std::mt19937_64 rng(13);
  std::string page = FreshPage(/*pid=*/3, /*lsn=*/1, rng);
  FullWrite(3, page);
  DeltaRingOptions opts = ring_->options();

  PageDeltaTracker t;
  t.Add(kPageHeaderSize, 600);  // fat records so the tear lands mid-record
  std::vector<Lsn> flushed;

  // First record made durable cleanly.
  Lsn lsn = 2;
  PageView(page.data()).set_lsn(lsn);
  PageView(page.data()).StampChecksum();
  FACE_ASSERT_OK_AND_ASSIGN(
      version_[3], ring_->Append(3, version_[3], t, lsn, true, page.data()));
  ASSERT_NE(version_[3], kNoFlashVersion);
  flushed.push_back(lsn);
  FACE_ASSERT_OK(ring_->Flush());
  ++lsn;

  // Second record's Flush is cut at sector granularity.
  PageView(page.data()).set_lsn(lsn);
  PageView(page.data()).StampChecksum();
  FACE_ASSERT_OK_AND_ASSIGN(
      version_[3], ring_->Append(3, version_[3], t, lsn, true, page.data()));
  ASSERT_NE(version_[3], kNoFlashVersion);
  FaultInjector inj;
  flash_->set_fault_injector(&inj);
  inj.SetTearGranularity("flash", TearGranularity::kSectorTear);
  inj.ArmAfterWrites(1, /*seed=*/99);
  EXPECT_TRUE(ring_->Flush().IsIOError());
  inj.Disarm();
  flash_->set_fault_injector(nullptr);

  // Recovery: the first record is durable and must survive; the second was
  // torn and may survive only if its bytes happened to land entirely before
  // the cut. Whatever comes back is a strict in-order prefix.
  DeltaRing ring2(opts, flash_.get(), &stats_);
  ring2.SetConsolidateFn([](const std::vector<PageId>&) {
    return Status::OK();
  });
  FACE_ASSERT_OK_AND_ASSIGN(auto recs, ring2.RecoverScan());
  ASSERT_GE(recs.size(), 1u);
  ASSERT_LE(recs.size(), 2u);
  EXPECT_EQ(recs[0].rec.lsn, flushed[0]);

  // Re-attach the survivors the way a policy's restart does, then keep
  // appending: the ring resumed in the same epoch past the survivors.
  const uint64_t ver = ring2.BeginFull(3, /*base_tag=*/1);
  uint64_t tip = ver;
  for (const auto& r : recs) {
    ASSERT_EQ(r.rec.chain_idx, &r - recs.data());
    tip = ring2.AttachRecovered(3, r);
  }
  PageView(page.data()).set_lsn(lsn + 1);
  PageView(page.data()).StampChecksum();
  PageDeltaTracker small;
  small.Add(kPageHeaderSize, 8);
  ASSERT_TRUE(
      ring2.CanAppend(3, tip, PageDeltaRecord::EncodedSizeFor(small)));
  FACE_ASSERT_OK_AND_ASSIGN(
      tip, ring2.Append(3, tip, small, lsn + 1, true, page.data()));
  EXPECT_NE(tip, kNoFlashVersion);
  FACE_ASSERT_OK(ring2.Flush());
  FACE_ASSERT_OK(ring2.CheckInvariants());
}

// Reset after a previous life: old-epoch records never resurface.
TEST_F(DeltaRingTest, ResetOrphansPriorEpochRecords) {
  Init(/*n_blocks=*/8);
  std::mt19937_64 rng(17);
  std::string page = FreshPage(/*pid=*/2, /*lsn=*/1, rng);
  FullWrite(2, page);
  PageDeltaTracker t;
  t.Add(kPageHeaderSize, 32);
  PageView(page.data()).set_lsn(2);
  PageView(page.data()).StampChecksum();
  FACE_ASSERT_OK_AND_ASSIGN(
      version_[2], ring_->Append(2, version_[2], t, /*lsn=*/2, true,
                                 page.data()));
  FACE_ASSERT_OK(ring_->Flush());

  // Format: a fresh epoch. The old record is still physically on media but
  // recovery must not return it.
  FACE_ASSERT_OK(ring_->Reset());
  DeltaRing ring2(ring_->options(), flash_.get(), &stats_);
  FACE_ASSERT_OK_AND_ASSIGN(auto recs, ring2.RecoverScan());
  EXPECT_TRUE(recs.empty());
}

}  // namespace
}  // namespace face
