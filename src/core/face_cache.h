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
// to keep write batches full.
//
// The cache is persistent (paper §4): metadata entries are appended to an
// in-memory segment mirrored to flash one segment at a time, and restart
// restores the directory from the persisted segments plus a bounded scan of
// the last two segments' worth of raw frames. Each frame carries its own
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

/// Tuning knobs for FaCE; defaults reproduce the paper's base "FaCE" line.
struct FaceOptions {
  /// Flash cache capacity in pages.
  uint64_t n_frames = 0;
  /// Metadata entries per persistent segment (paper: 64,000 = 1.5 MB).
  /// Restart refuses a segment larger than half of n_frames.
  uint32_t seg_entries = 64000;
  /// Batch dequeue/enqueue in group_size-page device requests (GR).
  bool group_replace = false;
  /// Give referenced pages a second chance and pull DRAM victims to fill
  /// batches (GSC; implies group_replace).
  bool second_chance = false;
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
  /// Restart-time cost breakdown of the last RecoverAfterCrash call.
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

  /// Initialize an empty cache (fresh superblock). Call once on a new
  /// device; RecoverAfterCrash handles restarts.
  Status Format();

  // CacheExtension interface ------------------------------------------------
  const char* name() const override;
  bool IsPersistent() const override { return true; }
  bool Contains(PageId page_id) const override {
    return newest_.Contains(page_id);
  }
  /// The newest valid frame's LSN (chain tip included), from the directory
  /// restart restored; "none" while degraded.
  Lsn PersistentCopyLsn(PageId page_id) const override;
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  /// With a scheduler, absorbs the whole set in three steps: delta
  /// refreshes, one room-making sweep whose dirty destages run one lane
  /// each, then the new full frames after the batch closed (Absorb).
  /// Without one, and under group replacement: one page after another.
  Status CheckpointPages(std::vector<CheckpointOffer>* offers,
                         IoScheduler* lanes, WriteBackStats* stats) override;
  Status OnCheckpoint() override;
  /// Restores the directory from the persisted metadata segments, then
  /// scans the raw frames past the superblock's rear (at most two segments,
  /// or with second chance one segment plus a group), restoring each frame
  /// stamped with its sequence with the dirty flag stamped beside it. A
  /// device formatted with a segment larger than half the frames is
  /// refused (InvalidArgument): its unpersisted tail can overwrite frames
  /// the persisted segments still describe.
  Status RecoverAfterCrash() override;
  void SetPullSource(DramPullSource* source) override { pull_ = source; }
  Status CheckInvariants() const override;

  // Degraded mode / scrub (see cache_ext.h) ----------------------------------
  Status EnterDegraded() override;
  void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const override;
  Lsn FlashRedoFloor() const override;
  void SetRecoveredDirtyFloor(Lsn floor) override;
  Status ReattachFlash() override;
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override;

  /// Deep directory audit for crash tests: CheckInvariants plus a read-back
  /// of every valid frame, verifying checksum, stamped page id, the
  /// enqueue-sequence stamp and that a frame stamped dirty is not mapped
  /// clean ("no frame mapped twice, every mapped frame CRC-valid"). Frames
  /// still in the staging buffer are checked in memory.
  /// Returns the number of frames verified; Corruption on the first
  /// violation. Charges flash reads (callers audit with timing disabled).
  StatusOr<uint64_t> AuditFrames();

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
  /// receives the fresh chain-tip version for the buffer pool.
  Status Enqueue(PageId page_id, const char* page, bool dirty, Lsn lsn,
                 uint64_t* out_version = nullptr);
  /// Page-differential fast path: DeltaRing::TryRefresh against the page's
  /// newest valid frame. True = handled (entry lsn/dirty advanced,
  /// hint->new_version filled); false = caller must take the full-write
  /// path.
  StatusOr<bool> TryDeltaRefresh(PageId page_id, const char* page, bool dirty,
                                 DeltaWriteHint* hint);
  /// DeltaRing slot-reuse callback: re-enqueue the current tip image of
  /// every page whose chain still has records in the slot being reclaimed,
  /// then make the fresh full frames durable.
  Status ConsolidateDeltaPages(const std::vector<PageId>& pids);
  /// Checkpoint absorption of `n` offers (one at a time without lanes):
  /// delta refreshes first, then one room-making sweep for the remaining
  /// full images, then their frame writes.
  Status Absorb(CheckpointOffer* offers, size_t n, IoScheduler* lanes,
                WriteBackStats* stats);
  /// Free at least one slot per the configured replacement flavor.
  Status MakeRoom();
  /// Base mvFIFO: dequeue the `n` front frames, staging each valid dirty
  /// one out to disk with individual I/Os (MakeRoom: n = 1). With `lanes`,
  /// the destages run as one lane batch, counted in `stats`.
  Status DequeueFront(uint64_t n, IoScheduler* lanes, WriteBackStats* stats);
  /// GR/GSC: stage out up to group_size pages in batched I/Os; with
  /// second chance, referenced valid pages are re-enqueued.
  Status DequeueGroup();
  /// GSC: pull victims from the DRAM LRU tail until the staging batch is
  /// full or no free slots/victims remain.
  Status FillBatchFromDram();

  /// Write `page` into the frame for `seq` (immediate or staged).
  Status WriteFrame(uint64_t seq, const char* page, PageId page_id, Lsn lsn,
                    bool dirty);
  /// Flush staged frames as (wrap-split) batch writes straight out of the
  /// staging arena.
  Status FlushStaging();
  /// Read `count` frames starting at `seq` into `out` (wrap-split batches).
  Status ReadFrames(uint64_t seq, uint32_t count, char* out);

  /// dirty_since_ bookkeeping: the disk copy of `page_id` just became
  /// stale (first dirty admission) / current again (dirty destage or an
  /// ablation bypass write).
  void NoteDirtyAdmission(PageId page_id, Lsn rec_lsn, const char* page);
  void NoteDestagedToDisk(PageId page_id) { dirty_since_.Erase(page_id); }
  /// Persist an entry drop (scrub found the frame rotten) into the metadata
  /// holding `seq`, so a later restart cannot resurrect the dead copy.
  Status PersistEntryDrop(uint64_t seq);

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

  /// Durability-exposure ledger: page -> recLSN at its FIRST dirty admission
  /// since the disk copy was last current. Inserted when a dirty page enters
  /// the cache (or a cached clean page turns dirty), erased only when a
  /// valid dirty copy is destaged to disk (dequeue) or the page is written
  /// to disk by an ablation bypass. Re-dirty chains keep the oldest LSN:
  /// the disk copy has been stale since then, so WAL redo for a flash loss
  /// must start at min over these values (FlashRedoFloor).
  PageMap<Lsn> dirty_since_;

  /// ScrubSome's rotating position (an enqueue seq; clamped into
  /// [front_, rear_) at each call).
  uint64_t scrub_seq_ = 0;

  /// Staged (not yet written) rear frames: seqs [staged_base_, rear_seq_),
  /// stamped frame images living contiguously in the reusable staging
  /// arena (group_size pages; no per-frame allocation, and FlushStaging
  /// hands the arena to the device directly).
  uint64_t staged_base_ = 0;
  uint64_t staged_count_ = 0;
  std::string staging_buf_;

  /// Metadata entries since the last flushed segment boundary: the partial
  /// segment, or more while flushes are held.
  std::string seg_buf_;
  /// Set while DequeueGroup re-enqueues second-chance survivors: a flush
  /// would persist a superblock front past survivors still only staged.
  bool hold_segments_ = false;

  /// Superblock values as last persisted.
  uint64_t sb_front_seq_ = 0;
  uint64_t sb_rear_seq_ = 0;

  std::string scratch_;      // one-page stamp/read-back staging
  std::string dequeue_buf_;  // reusable group-dequeue read buffer
  RecoveryInfo recovery_info_;

  /// Page-differential write-back (see delta_ring.h). Chains are keyed by
  /// page id and based on the page's newest full frame (base tag = enqueue
  /// seq); consolidation re-enqueues tip images through the normal path.
  DeltaRing delta_;
  std::string consolidate_buf_;  // tip-image rebuild arena (one page)
};

}  // namespace face
