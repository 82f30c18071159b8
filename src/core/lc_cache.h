// The Lazy Cleaning (LC) baseline of Do et al., "Turbocharging DBMS Buffer
// Pool Using SSDs" (SIGMOD 2011) — the closest prior design to FaCE and the
// paper's principal comparison point (Table 2: on exit, both, write-back,
// LRU-2).
//
// LC keeps exactly one up-to-date copy per cached page in a fixed flash
// frame. Replacement is LRU-2: the victim is the page whose *penultimate*
// reference is oldest, which keeps single-visit pages from polluting the
// cache but makes every replacement an in-place — i.e. random — flash write.
// Dirty flash pages are flushed to disk by a background "lazy cleaner" once
// the dirty fraction passes a threshold. The cache is NOT part of the
// persistent database: its directory lives only in DRAM, so a database
// checkpoint must force all flash-resident dirty pages to disk (the
// checkpointing cost the FaCE paper charges to LC), and a crash resets the
// cache cold.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/lazy_min_heap.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/frame_store.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// Tuning knobs for the LC baseline.
struct LcOptions {
  /// Flash cache capacity in pages.
  uint64_t n_frames = 0;
  /// Start the lazy cleaner when dirty frames exceed this fraction.
  double clean_threshold = 0.80;
  /// Clean down to this fraction before going back to sleep (hysteresis).
  double clean_target = 0.75;
  /// Dirty pages flushed per background run.
  uint32_t clean_batch = 64;
};

/// The LC cache extension; see file comment. Single-threaded.
class LcCache final : public CacheExtension {
 public:
  /// Device blocks LC needs: one frame per page plus the delta-record ring
  /// appended past the frames.
  static uint64_t DeviceBlocksFor(uint64_t n_frames) {
    return FrameStore::BlocksFor(n_frames);
  }

  /// `flash` must have at least DeviceBlocksFor(n_frames) blocks. `storage`
  /// receives cleaned and evicted dirty pages.
  LcCache(const LcOptions& options, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface --------------------------------------------------
  const char* name() const override { return "LC"; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  /// Flush every flash-resident dirty page to disk: the flash cache is not
  /// persistent, so checkpoint completeness requires it (paper §2.3).
  Status PrepareCheckpoint() override { return store_.CleanAll(); }
  void OnPageWrittenToDisk(PageId page_id) override;
  /// A fresh delta ring. The DRAM directory dies with the process, so a
  /// restart is a Format too (the default RecoverAfterCrash).
  Status Format() override {
    Forget();
    return store_.delta().Reset();
  }
  void Forget() override;
  Status RunBackgroundWork() override;
  bool HasBackgroundWork() const override;
  Status CheckInvariants() const override;

  // Flash-loss exposure / scrub (see cache_ext.h). LC's write-back window —
  // flash-dirty pages between checkpoints — is the exposure a flash loss
  // creates; the frame store tracks each dirty page's recLSN.
  void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const override {
    store_.CollectFlashOnlyDirty(out);
  }
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override {
    return store_.ScrubSome(max_frames, out);
  }

  // Introspection --------------------------------------------------------------
  uint64_t cached_pages() const { return store_.size(); }
  uint64_t dirty_pages() const { return store_.dirty_count(); }
  double DirtyFraction() const {
    return options_.n_frames
               ? static_cast<double>(store_.dirty_count()) /
                     static_cast<double>(options_.n_frames)
               : 0.0;
  }
  const LcOptions& options() const { return options_; }

 private:
  /// Reference history of the page in one frame.
  struct Refs {
    uint64_t last = 0;    ///< most recent reference tick
    uint64_t penult = 0;  ///< reference before that (0 = "-inf")
  };

  /// Victim order: oldest penultimate reference first, ties by oldest last
  /// reference — the LRU-2 discipline.
  using VictimKey = std::tuple<uint64_t, uint64_t, PageId>;

  VictimKey KeyOf(PageId page_id, uint32_t frame) const {
    return {refs_[frame].penult, refs_[frame].last, page_id};
  }

  /// A heap key is current iff its page is cached and the key matches the
  /// page's present reference history (clock ticks are monotonic, so a
  /// superseded key can never become current again).
  bool IsCurrentKey(const VictimKey& key) const {
    const uint32_t frame = store_.FrameOf(std::get<2>(key));
    return frame != FrameStore::kNoFrame &&
           KeyOf(std::get<2>(key), frame) == key;
  }

  /// Record a reference to a cached page (maintains the victim order).
  void Touch(PageId page_id, uint32_t frame);
  /// Evict the LRU-2 victim, cleaning it first if dirty. Frees its frame.
  Status EvictVictim();

  LcOptions options_;
  FrameStore store_;
  std::vector<Refs> refs_;               ///< per frame
  LazyMinHeap<VictimKey> victim_order_;  ///< lazy-deletion LRU-2 order
  std::vector<VictimKey> cleaner_keys_;  ///< reusable traversal snapshot
  uint64_t clock_ = 0;       ///< logical reference tick
  bool cleaning_ = false;    ///< hysteresis state of the lazy cleaner
};

}  // namespace face
