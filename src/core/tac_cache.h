// The Temperature-Aware Caching (TAC) baseline of the IBM DB2 Bufferpool
// Extension prototype (Canim et al., PVLDB 2010; Bhattacharjee et al.,
// DaMoN 2011) — Table 2's "on entry, both, write-through, Temperature" row.
//
// TAC admits pages into flash when they are fetched from disk, gated by the
// access temperature of their extent (a fixed run of contiguous pages), and
// keeps the flash cache consistent with disk through a write-through policy:
// a dirty page evicted from DRAM is written to disk AND, if cached, its
// flash copy is updated in place. Flash therefore never holds data newer
// than disk and provides no write reduction — only read caching.
//
// Its distinguishing cost is persistent metadata: TAC maintains a slot
// directory *in flash*, one entry per cached page, updated with an
// invalidation write followed by a validation write on every replacement
// (paper §4.1). Those are small random flash writes, and they are exactly
// the overhead FaCE's segmented, sequential metadata checkpointing avoids.
// The payoff is that the directory survives a crash, so a restart can
// rebuild the cache map with a short sequential scan and serve recovery
// reads from flash.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/lazy_min_heap.h"
#include "common/page_map.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/flash_layout.h"
#include "core/frame_store.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// Tuning knobs for the TAC baseline.
struct TacOptions {
  /// Flash cache capacity in pages.
  uint64_t n_frames = 0;
  /// Pages per temperature extent (DB2 BPX monitors at extent granularity).
  uint32_t extent_pages = 64;
};

/// The TAC cache extension; see file comment. Single-threaded.
class TacCache final : public CacheExtension {
 public:
  /// Directory entries per 4 KB block (entries never straddle blocks, so a
  /// single-entry update rewrites exactly one block).
  static constexpr uint64_t kEntriesPerBlock =
      kPageSize / FlashMetaEntry::kEncodedSize;

  /// Directory blocks needed for an `n_frames` cache.
  static constexpr uint64_t DirBlocksFor(uint64_t n_frames) {
    return (n_frames + kEntriesPerBlock - 1) / kEntriesPerBlock;
  }

  /// Device blocks TAC needs: directory + frames + the delta-record ring
  /// appended past the frames.
  static uint64_t DeviceBlocksFor(uint64_t n_frames) {
    return DirBlocksFor(n_frames) + FrameStore::BlocksFor(n_frames);
  }

  /// `flash` must have at least DeviceBlocksFor(n_frames) blocks.
  TacCache(const TacOptions& options, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface --------------------------------------------------
  /// An empty persistent slot directory and a fresh delta ring.
  Status Format() override;
  /// Forget the map, temperatures and victim order (no invalidation
  /// writes: a dead device gets none).
  void Forget() override;
  const char* name() const override { return "TAC"; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  /// On-entry admission: the temperature-gated caching decision.
  Status OnFetchFromDisk(PageId page_id, const char* page,
                         uint64_t* admitted_version = nullptr) override;
  /// Delta records absorbed by a checkpoint must be durable: recovery drops
  /// any slot whose page has media delta records, and that net depends on
  /// pre-checkpoint records actually being on the media (see
  /// RecoverAfterCrash).
  Status OnCheckpoint() override { return store_.delta().Flush(); }
  void OnPageWrittenToDisk(PageId page_id) override;
  /// Rebuild the cache map from the persistent slot directory.
  Status RecoverAfterCrash() override;
  Status CheckInvariants() const override;

  /// Write-through means flash never outruns disk: every rotten frame is
  /// repairable from disk, and lost_dirty stays empty.
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override {
    return store_.ScrubSome(max_frames, out);
  }

  // Introspection --------------------------------------------------------------
  uint64_t cached_pages() const { return store_.size(); }
  /// Current access temperature of the extent containing `page_id`.
  uint64_t ExtentTemperature(PageId page_id) const;
  /// Device blocks occupied by the slot directory.
  uint64_t DirBlocks() const { return dir_blocks_; }
  const TacOptions& options() const { return options_; }

 private:
  /// Replacement standing of the page in one slot (slot == frame index).
  struct Standing {
    uint64_t temp_snapshot = 0;  ///< extent temperature at last touch
    uint64_t tick = 0;           ///< age tiebreak
  };

  using VictimKey = std::tuple<uint64_t, uint64_t, PageId>;
  VictimKey KeyOf(PageId page_id, uint32_t slot) const {
    return {standing_[slot].temp_snapshot, standing_[slot].tick, page_id};
  }

  /// A heap key is current iff its page is cached and the key matches the
  /// page's present (temperature, tick) standing — ticks are monotonic, so
  /// a superseded key can never become current again.
  bool IsCurrentKey(const VictimKey& key) const {
    const uint32_t slot = store_.FrameOf(std::get<2>(key));
    return slot != FrameStore::kNoFrame &&
           KeyOf(std::get<2>(key), slot) == key;
  }

  uint64_t ExtentOf(PageId page_id) const {
    return page_id / options_.extent_pages;
  }
  /// Bump the extent's temperature and return the new value.
  uint64_t Heat(PageId page_id);
  /// Give the page in `slot` a fresh standing and a current heap key.
  void Stand(PageId page_id, uint32_t slot, uint64_t temp);
  /// Persist the directory entry for `slot` (one random flash write).
  Status WriteDirEntry(uint32_t slot, PageId page_id, bool occupied);
  /// Release `slot` and persist the invalidation.
  Status Invalidate(uint32_t slot);

  TacOptions options_;
  uint64_t dir_blocks_;
  SimDevice* flash_;
  DbStorage* storage_;
  FrameStore store_;
  std::vector<Standing> standing_;       ///< per slot
  LazyMinHeap<VictimKey> victim_order_;  ///< coldest extent first (lazy)
  PageMap<uint64_t> extent_temp_;  ///< extent number -> access temperature
  uint64_t clock_ = 0;
  std::string scratch_;  ///< one-page directory staging buffer
};

}  // namespace face
