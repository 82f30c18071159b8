// The in-place frame store under LC and the plugin example's policy
// (examples/custom_policy.cpp).
//
// Paper §3.2 places every flash-cache design in a when x what x sync x
// replacement space: the in-place designs differ in those choices, not in
// how a cached page sits on flash. That shared half lives here. Each cached
// page owns one frame at a fixed device block and is overwritten in place.
// The store owns
//   - the page -> frame directory and its frame -> page reverse map;
//   - the free-frame stack (LIFO; a fresh store hands out frame 0 first);
//   - checksummed frame I/O: frame f is device block f, and every image
//     carries its page id and checksum;
//   - each page's delta chain (delta_ring.h) in a ring right past the
//     frames, base tag = frame index; slot-reuse consolidation rewrites the
//     page's tip image into its frame in place;
//   - the per-frame dirty flag and recLSN of write-back policies, behind
//     CollectFlashOnlyDirty and CleanAll;
//   - the scrub walk and the I/O-free Clear behind every policy's Forget.
// A policy keeps its replacement order and admission rule, with any state
// of its own in vectors indexed by frame; its Format is Forget plus a fresh
// delta ring (delta().Reset()).
#pragma once

#include <cstdint>
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

class FrameStore {
 public:
  static constexpr uint32_t kNoFrame = ~0u;

  /// Device blocks the frames and their delta ring occupy.
  static uint64_t BlocksFor(uint64_t n_frames) {
    return n_frames + FlashLayout::DeltaBlocksFor(n_frames);
  }

  /// Frames are blocks [0, n_frames) of `flash`, the delta ring the blocks
  /// right after. `storage` is the pages' durable home (cleaning, scrub
  /// repair); the store counts into the owner's `stats`.
  FrameStore(uint64_t n_frames, SimDevice* flash, DbStorage* storage,
             CacheStats* stats);
  // The delta ring's consolidation callback holds `this`.
  FrameStore(const FrameStore&) = delete;
  FrameStore& operator=(const FrameStore&) = delete;

  // --- directory ------------------------------------------------------
  uint64_t n_frames() const { return page_at_.size(); }
  uint64_t size() const { return index_.size(); }
  bool Contains(PageId pid) const { return index_.Contains(pid); }
  /// The frame caching `pid`, or kNoFrame.
  uint32_t FrameOf(PageId pid) const {
    const uint32_t* f = index_.Find(pid);
    return f == nullptr ? kNoFrame : *f;
  }
  /// The page cached in `frame`, or kInvalidPageId when it is free.
  PageId PageAt(uint32_t frame) const { return page_at_[frame]; }

  /// Pop a free frame, or kNoFrame when every frame holds a page.
  uint32_t TakeFree();
  /// Write `page` as `pid`'s full image into `frame` (from TakeFree), bind
  /// it clean and start its chain. Returns the chain-tip version. A failed
  /// write hands the frame back to the free stack.
  StatusOr<uint64_t> Admit(PageId pid, uint32_t frame, const char* page);
  /// Unbind `frame`'s page, forget its chain and dirty state, and push the
  /// frame free. No I/O; counts an invalidation.
  void Release(uint32_t frame);

  // --- frame I/O ------------------------------------------------------
  /// The DRAM-miss path: read `pid`'s frame into `out`, verify it and patch
  /// the chain on top. The result carries the chain tip to delta against.
  StatusOr<FlashReadResult> Read(PageId pid, char* out);
  /// A newer image of `frame`'s page: a delta record when `hint` allows,
  /// else an in-place rewrite that re-bases the chain.
  Status Refresh(uint32_t frame, const char* page, bool dirty,
                 DeltaWriteHint* hint);

  // --- write-back ledger ----------------------------------------------
  bool IsDirty(uint32_t frame) const { return dirty_[frame] != 0; }
  uint64_t dirty_count() const { return dirty_count_; }
  /// `frame` holds data newer than disk; keeps the oldest recLSN.
  void MarkDirty(uint32_t frame, Lsn rec_lsn);
  /// Stage dirty `frame`'s tip image out to disk and mark it clean.
  Status Clean(uint32_t frame);
  /// Clean every dirty frame, in ascending page order: a volatile
  /// write-back cache's checkpoint, so adjacent pages coalesce into
  /// sequential disk writes and the order depends on the cached set alone.
  Status CleanAll();
  /// Dirty pages with their recLSN, sorted by page id.
  void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const;

  /// Verify up to `max_frames` occupied frames, rotating over the frames:
  /// a rotten clean frame is re-read from disk (the chain tip, so a correct
  /// new base), a rotten dirty one released and reported in lost_dirty.
  /// Releasing leaves the owner's replacement state alone, so a policy with
  /// dirty frames must tolerate a vanished page (a lazy victim order).
  Status ScrubSome(uint64_t max_frames, ScrubResult* out);

  /// Forget every page and chain, every frame free; no I/O.
  void Clear();

  DeltaRing& delta() { return delta_; }
  /// Directory, reverse map, free stack, dirty count and chain bases agree.
  Status CheckInvariants() const;

 private:
  static uint64_t BlockOf(uint32_t frame) { return frame; }
  /// True when `image` is a checksum-valid frame of `pid`.
  static bool Verify(const char* image, PageId pid);
  /// Stamp `page` as `pid`'s image and write it into `frame`.
  Status WriteFrame(uint32_t frame, const char* page, PageId pid);
  /// Ring slot-reuse callback: rewrite each page's tip image in place.
  Status Consolidate(const std::vector<PageId>& pids);

  SimDevice* flash_;
  DbStorage* storage_;
  CacheStats* stats_;

  PageMap<uint32_t> index_;        ///< page -> frame
  std::vector<PageId> page_at_;    ///< frame -> page
  std::vector<uint32_t> free_;     ///< free-frame stack
  std::vector<uint8_t> dirty_;     ///< per frame: newer than disk
  std::vector<Lsn> rec_lsn_;       ///< per frame: oldest recLSN while dirty
  uint64_t dirty_count_ = 0;
  uint32_t scrub_cursor_ = 0;      ///< next frame ScrubSome visits
  std::string scratch_;            ///< one-page stamp / read-back buffer
  DeltaRing delta_;
};

}  // namespace face
