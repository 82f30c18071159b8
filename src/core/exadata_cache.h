// Exadata-style Smart Flash Cache baseline — Table 2's "on entry, clean,
// write-through, LRU" row.
//
// Oracle Exadata caches data pages in flash when they are read from disk
// (modulo a static type priority we approximate with an admit-all rule,
// since our workload is all tables and indexes — the types Exadata
// prioritizes). The cache is read-only from the database's perspective:
// dirty pages are written through to disk and a cached copy is simply
// invalidated, so flash never holds the only current copy of anything.
// Metadata lives in DRAM; a crash resets the cache cold.
//
// The frames live in a FrameStore (frame_store.h), and the LRU is
// index-intrusive over per-frame links (like the buffer pool's): no
// per-reference list-node churn.
#pragma once

#include <cstdint>
#include <vector>

#include "common/intrusive_list.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/frame_store.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// The Exadata-style cache extension; see file comment. Single-threaded.
class ExadataCache final : public CacheExtension {
 public:
  /// Device blocks the cache needs: one frame per page plus the
  /// delta-record ring appended past the frames.
  static uint64_t DeviceBlocksFor(uint64_t n_frames) {
    return FrameStore::BlocksFor(n_frames);
  }

  /// `flash` must have at least DeviceBlocksFor(n_frames) blocks.
  ExadataCache(uint64_t n_frames, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface --------------------------------------------------
  const char* name() const override { return "Exadata"; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  Status OnFetchFromDisk(PageId page_id, const char* page,
                         uint64_t* admitted_version = nullptr) override;
  void OnPageWrittenToDisk(PageId page_id) override;
  /// A fresh delta ring. The DRAM directory (delta chains included) dies
  /// with the process, so a restart is a Format too.
  Status Format() override {
    Forget();
    return store_.delta().Reset();
  }
  void Forget() override;
  Status CheckInvariants() const override;

  /// Clean-only write-through: every rotten frame is repairable from disk.
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override {
    return store_.ScrubSome(max_frames, out);
  }

  uint64_t cached_pages() const { return store_.size(); }
  uint64_t n_frames() const { return store_.n_frames(); }

 private:
  /// Link accessor for the intrusive LRU over frames.
  auto FrameLinks() {
    return [this](uint32_t i) -> IntrusiveLinks& { return links_[i]; };
  }

  /// Drop the page cached in `frame` and free the frame.
  void DropFrame(uint32_t frame);

  DbStorage* storage_;
  FrameStore store_;
  std::vector<IntrusiveLinks> links_; ///< frame LRU links (head = MRU)
  IntrusiveList lru_;
};

}  // namespace face
