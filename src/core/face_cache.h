// FaCE: Flash as Cache Extension (the paper's core contribution).
//
// The flash cache is a circular queue of page frames managed by
// Multi-Version FIFO (mvFIFO) replacement:
//   - pages enter at the rear (append-only -> sequential flash writes);
//   - a page may exist in several versions; only the newest is valid;
//   - enqueue is unconditional for fdirty pages, conditional (absent-only)
//     for clean ones;
//   - dequeue at the front writes the page to disk iff it is valid & dirty,
//     else discards it.
// Group Replacement (GR) batches dequeues/enqueues into group_size-page
// device requests; Group Second Chance (GSC) additionally re-enqueues
// referenced pages and pulls extra victims from the DRAM buffer's LRU tail
// to keep write batches full. Every frame write goes through one staging
// arena (group_size pages under GR/GSC, one page under base FaCE). Each
// queue entry carries its page's durability exposure (Entry::since), so a
// destage needs no bookkeeping. A frame dies in one of two places: the
// dequeue loop (DequeueFront) or a persisted drop (Invalidate).
//
// The cache is persistent (paper §4): metadata entries are appended to an
// in-memory segment mirrored to flash one segment at a time, and restart
// restores the directory from the persisted segments plus a bounded scan of
// the last two segments' worth of raw frames, then, in redo's first batch,
// the delta chains from the delta ring. Each frame carries its own
// enqueue sequence and enqueue-time dirty flag in the page-header flags
// word, so the scan restores exactly what the lost metadata said: a clean
// frame comes back clean. The testbed sizes a segment to one 4 KB metadata
// block (170 entries), never more than half the frames.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/page_map.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/delta_ring.h"
#include "core/flash_layout.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// FaCE's replacement flavor (paper §3.3): base mvFIFO, Group Replacement
/// (group_size-page requests), or Group Second Chance (GR, plus second
/// chances for referenced pages and DRAM victims pulled to fill batches).
enum class FaceReplacement { kMvFifo, kGroupReplace, kGroupSecondChance };

/// Tuning knobs for FaCE; defaults reproduce the paper's base "FaCE" line.
struct FaceOptions {
  /// Flash cache capacity in pages.
  uint64_t n_frames = 0;
  /// Metadata entries per persistent segment (paper: 64,000 = 1.5 MB).
  /// Restart refuses a segment larger than half of n_frames.
  uint32_t seg_entries = 64000;
  FaceReplacement replacement = FaceReplacement::kMvFifo;
  /// Pages per group (paper: pages in a flash block, typically 64 or 128).
  uint32_t group_size = 64;

  // Design-choice ablations (Section 3.2); paper defaults below.
  bool cache_clean = true;    ///< admit clean pages ("what: both")
  bool cache_dirty = true;    ///< admit dirty pages
  bool write_through = false; ///< also write dirty evictions to disk

  /// Paper configurations.
  static FaceOptions Base(uint64_t n_frames);
  static FaceOptions GroupReplace(uint64_t n_frames);
  static FaceOptions GroupSecondChance(uint64_t n_frames);
};

/// The FaCE cache extension; see file comment.
class FaceCache final : public CacheExtension {
 public:
  /// Restart-time cost breakdown of the last restart (RecoverAfterCrash,
  /// then FinishRecovery).
  struct RecoveryInfo {
    uint64_t persisted_segments_read = 0;
    uint64_t rebuilt_frames_scanned = 0;
    uint64_t entries_restored = 0;
    uint64_t valid_pages_restored = 0;
    /// Valid entries restored dirty (delta records included): the pages a
    /// dequeue will destage to disk.
    uint64_t dirty_entries_restored = 0;
    uint64_t delta_records_attached = 0;
  };

  /// `flash` must be at least FlashLayout::Compute(...).total_blocks pages.
  /// `storage` receives dirty pages staged out of the cache.
  FaceCache(const FaceOptions& options, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface ------------------------------------------------
  /// An empty queue, a fresh delta ring and a fresh superblock.
  Status Format() override;
  /// Forget every entry, chain, staged frame and metadata buffer.
  void Forget() override;
  const char* name() const override;
  bool Contains(PageId page_id) const override {
    return newest_.Contains(page_id);
  }
  /// The newest valid frame's LSN (chain tip included), from the directory
  /// restart restored.
  Lsn PersistentCopyLsn(PageId page_id) const override;
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  /// Every flavor absorbs the whole set in three steps: plan which offers
  /// take a delta record, and add the live chains those appends would
  /// displace to the full-frame set; make all the room that set needs in
  /// one lane batch, the log force its first lane and each destage its
  /// own; after the batch closed, write the survivors, the reclaimed tip
  /// images and the new full frames, then append the delta records.
  /// Without a scheduler the batch runs its lanes one after another.
  Status CheckpointPages(std::vector<CheckpointOffer>* offers,
                         const IoLead& force, IoScheduler* lanes,
                         WriteBackStats* stats) override;
  Status OnCheckpoint() override;
  /// The disk copy is current: drop the cached copy and persist the drop.
  void OnPageWrittenToDisk(PageId page_id) override;
  /// Restores the directory from the persisted metadata segments, then
  /// scans the raw frames past the superblock's rear (at most two segments,
  /// or with second chance one segment plus a group), restoring each frame
  /// stamped with its sequence with the dirty flag stamped beside it. A
  /// device formatted with a segment larger than half the frames is
  /// refused (InvalidArgument): its unpersisted tail can overwrite frames
  /// the persisted segments still describe. The delta ring stays unread
  /// until FinishRecovery.
  Status RecoverAfterCrash() override;
  /// Reads the delta ring and re-attaches each surviving record to the
  /// valid entry it extends, then sets every restored dirty entry's
  /// exposure: its LSN, or `dirty_floor` when lower. Nothing to do unless
  /// RecoverAfterCrash restored a directory.
  Status FinishRecovery(Lsn dirty_floor) override;
  void SetPullSource(DramPullSource* source) override { pull_ = source; }
  Status CheckInvariants() const override;

  // Flash-loss exposure / scrub (see cache_ext.h) ----------------------------
  /// Every valid entry with an exposure, at its `since`.
  void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const override;
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override;

  /// Deep directory audit for crash tests: CheckInvariants plus a read-back
  /// of every valid frame, verifying checksum, stamped page id, the
  /// enqueue-sequence stamp and that a frame stamped dirty is not mapped
  /// clean ("no frame mapped twice, every mapped frame CRC-valid"). Frames
  /// still in the staging buffer are checked in memory.
  /// Returns the number of frames verified; Corruption on the first
  /// violation. Charges flash reads (callers audit with timing disabled).
  StatusOr<uint64_t> AuditFrames() override;

  // Introspection ------------------------------------------------------------
  /// Live entries (valid + invalid versions + holes) in the queue.
  uint64_t live_entries() const { return rear_seq_ - front_seq_; }
  /// Distinct pages with a valid cached copy.
  uint64_t valid_pages() const { return newest_.size(); }
  /// Fraction of live entries that are duplicates/invalid (paper §5.3
  /// reports 30-40 % at 8 GB).
  double DuplicateRatio() const {
    const uint64_t live = live_entries();
    return live ? 1.0 - static_cast<double>(newest_.size()) /
                            static_cast<double>(live)
                : 0.0;
  }
  const FaceOptions& options() const { return options_; }
  const FlashLayout& layout() const { return layout_; }
  const DeltaRing& delta_ring() const { return delta_; }
  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  uint64_t front_seq() const { return front_seq_; }
  uint64_t rear_seq() const { return rear_seq_; }

 private:
  /// In-memory directory entry for one queue slot.
  struct Entry {
    PageId page_id = kInvalidPageId;
    Lsn lsn = kInvalidLsn;
    /// Oldest recLSN since the page's disk copy was last current, while
    /// the flash copy is newer than disk (kInvalidLsn = no exposure). Only
    /// meaningful on the valid entry; implies `dirty`.
    Lsn since = kInvalidLsn;
    bool dirty = false;
    bool valid = false;
    bool referenced = false;
  };

  Entry& EntryAt(uint64_t seq) { return entries_[seq - front_seq_]; }
  const Entry& EntryAt(uint64_t seq) const {
    return entries_[seq - front_seq_];
  }

  /// Append a page at the rear (the page must fit: live < n_frames). The
  /// full image re-bases the page's delta chain; `out_version` (optional)
  /// receives the fresh chain-tip version for the buffer pool. A dirty
  /// entry's exposure is the superseded valid version's, if it had one,
  /// else `since`.
  Status Enqueue(PageId page_id, const char* page, bool dirty, Lsn lsn,
                 Lsn since, uint64_t* out_version = nullptr);
  /// Page-differential fast path: DeltaRing::TryRefresh against the page's
  /// newest valid frame. True = handled (entry lsn/dirty advanced, a dirty
  /// record starts an exposure at `since` if none is open,
  /// hint->new_version filled); false = caller must take the full-write
  /// path.
  StatusOr<bool> TryDeltaRefresh(PageId page_id, const char* page, bool dirty,
                                 Lsn since, DeltaWriteHint* hint);
  /// A second-chance survivor of a dequeue: its entry and its tip image.
  struct Survivor {
    Entry entry;
    const char* bytes;  ///< in dequeue_buf_
  };

  /// DeltaRing slot-reuse callback: re-enqueue the current tip image of
  /// every page whose chain still has records in the slot being reclaimed,
  /// then make the fresh full frames durable.
  Status ConsolidateDeltaPages(const std::vector<PageId>& pids);
  /// `o`'s image as a new dirty full frame (the queue must have room).
  Status EnqueueOffer(CheckpointOffer* o);
  /// Algorithm 1 with the §3.2 ablations, for a page leaving DRAM (evicted
  /// or pulled). True when it had to make room in a full queue.
  StatusOr<bool> Admit(PageId page_id, char* page, bool dirty, bool fdirty,
                       Lsn rec_lsn, DeltaWriteHint* hint);
  /// When the queue is full, free at least one slot per the flavor: base
  /// FaCE dequeues its front frame; GR/GSC read the front group as one
  /// request and dequeue all of it, GSC re-enqueueing its survivors.
  Status MakeRoom();
  /// Dequeue the `n` front frames: the one loop that decides each frame's
  /// fate. The entries of `keep` (ascending seqs) are patched to their tip
  /// images and returned in `survivors`; every other valid dirty frame is
  /// patched the same way and destaged to disk; the rest are discarded.
  /// Each survivor and destage takes its own lane of `batch`. `group` holds
  /// the `n` frames when the caller read them as one request; otherwise
  /// each frame is read on its own, a survivor into dequeue_buf_. Returns
  /// the number of destages.
  StatusOr<uint64_t> DequeueFront(uint64_t n, const std::vector<uint64_t>& keep,
                                  char* group, ScopedIoBatch* batch,
                                  std::vector<Survivor>* survivors);
  /// GSC's second chances over the group of `count` entries from `seq`:
  /// append to `keep` the seq of each referenced valid entry that
  /// `eligible` admits, except where a rule denies it. (a) When every entry
  /// of the group is a referenced valid page, the first one gets none, so
  /// the dequeue frees a slot. (b) A dirty page whose new frame, re-enqueued
  /// at rear_seq_ + keep->size(), lands on its own block is destaged
  /// instead when a delta chain patched it: one torn write would then
  /// destroy both copies of the page.
  template <typename Eligible>
  void KeepSecondChances(uint64_t seq, uint64_t count, const Eligible& eligible,
                         std::vector<uint64_t>* keep) const;
  /// Re-enqueue `survivors` with segment flushes held until every one is
  /// staged, then flush: the front already passed their old frames.
  Status ReenqueueSurvivors(const std::vector<Survivor>& survivors);
  /// GSC: pull victims from the DRAM LRU tail until the staging batch is
  /// full or no free slots/victims remain.
  Status FillBatchFromDram();

  /// Stage `page` as the frame for `seq`; a full arena is flushed.
  Status WriteFrame(uint64_t seq, const char* page, PageId page_id, Lsn lsn,
                    bool dirty);
  /// Flush staged frames as (wrap-split) batch writes straight out of the
  /// staging arena. The arena is free again afterwards, even on failure.
  Status FlushStaging();
  /// The frame image of `seq`, from the staging arena or from flash.
  Status ReadFrame(uint64_t seq, char* out);
  /// Read `count` frames starting at `seq` into `out` (wrap-split batches).
  Status ReadFrames(uint64_t seq, uint32_t count, char* out);

  /// Drop the valid entry `seq` (its page leaves the cache), then persist
  /// the drop into the metadata holding `seq`, so a later restart cannot
  /// resurrect the dead copy. A failed metadata write leaves the in-memory
  /// drop in place.
  Status Invalidate(uint64_t seq);
  /// Remove the front entry, unmapping its page if it was the valid one.
  void PopFront();

  /// Append the metadata entry for the newest enqueue; flush the segment
  /// it completes, unless segment flushes are held.
  Status AppendMeta(const FlashMetaEntry& entry);
  /// Write every complete segment buffered in seg_buf_ (staged frames
  /// first), then the superblock — the paper's "flash cache
  /// checkpointing".
  Status FlushSegments();
  Status WriteSuperblock();

  /// Copy `page` into `dst` and stamp page id, the frame stamp (enqueue
  /// sequence and dirty flag, in the flags field, for restart) and a
  /// checksum — the one and only byte copy on the enqueue path.
  void StampInto(char* dst, const char* page, PageId page_id, Lsn lsn,
                 uint64_t seq, bool dirty);

  bool grouped() const {
    return options_.replacement != FaceReplacement::kMvFifo;
  }
  bool second_chance() const {
    return options_.replacement == FaceReplacement::kGroupSecondChance;
  }
  /// Frames the staging arena holds.
  uint32_t StagingCapacity() const {
    return grouped() ? options_.group_size : 1;
  }
  /// Frame image `i` of the staging arena.
  char* StagingSlot(uint64_t i) {
    return staging_buf_.data() + static_cast<size_t>(i) * kPageSize;
  }
  const char* StagingSlot(uint64_t i) const {
    return staging_buf_.data() + static_cast<size_t>(i) * kPageSize;
  }

  FaceOptions options_;
  FlashLayout layout_;
  SimDevice* flash_;
  DbStorage* storage_;
  DramPullSource* pull_ = nullptr;

  uint64_t front_seq_ = 0;
  uint64_t rear_seq_ = 0;
  std::deque<Entry> entries_;          // seqs [front_, rear_)
  PageMap<uint64_t> newest_;           // page -> valid seq

  /// ScrubSome's rotating position (an enqueue seq; clamped into
  /// [front_, rear_) at each call).
  uint64_t scrub_seq_ = 0;

  /// Staged (not yet written) rear frames: seqs [staged_base_, rear_seq_),
  /// stamped frame images living contiguously in the reusable staging
  /// arena (StagingCapacity pages; no per-frame allocation, and
  /// FlushStaging hands the arena to the device directly).
  uint64_t staged_base_ = 0;
  uint64_t staged_count_ = 0;
  std::string staging_buf_;

  /// Metadata entries since the last flushed segment boundary: the partial
  /// segment, or more while flushes are held.
  std::string seg_buf_;
  /// Set while ReenqueueSurvivors re-enqueues second-chance survivors: a
  /// flush would persist a superblock front past survivors still only
  /// staged.
  bool hold_segments_ = false;

  /// Superblock values as last persisted.
  uint64_t sb_front_seq_ = 0;
  uint64_t sb_rear_seq_ = 0;

  std::string scratch_;      // one-page read-back / repair buffer
  std::string dequeue_buf_;  // group-dequeue read / survivor buffer
  RecoveryInfo recovery_info_;
  /// RecoverAfterCrash restored a directory whose delta chains and
  /// exposures FinishRecovery has yet to restore.
  bool finish_pending_ = false;

  /// Page-differential write-back (see delta_ring.h). Chains are keyed by
  /// page id and based on the page's newest full frame (base tag = enqueue
  /// seq); consolidation re-enqueues tip images through the normal path.
  DeltaRing delta_;
  std::string consolidate_buf_;  // tip-image rebuild arena (one page)
};

}  // namespace face
