// Extending the library: write your own flash caching policy against the
// CacheExtension interface and race it against FaCE on the same workload.
//
// The toy policy here ("ClockCache") keeps one copy per page in a flash
// frame with CLOCK (second-chance) replacement — a plausible middle ground
// between LC's LRU-2 and FaCE's mvFIFO that a systems class might propose.
// The interesting part is what the device model says about it: it avoids
// duplicates like LC but still pays random in-place writes, so it lands
// between the two published designs.
//
// A policy need not manage flash frames itself: it holds a FrameStore
// (core/frame_store.h), which owns the page directory, checksummed frame
// I/O, delta chains and the dirty/recLSN ledger, and keeps only its own
// replacement state — here a CLOCK hand and one reference bit per frame.
// Its lifecycle is two short bodies, Forget and Format: CacheExtension
// derives restart, degradation and re-attach from them.
//
//   $ ./examples/custom_policy
#include <cstdio>
#include <vector>

#include "core/cache_ext.h"
#include "core/frame_store.h"
#include "testbed/testbed.h"
#include "tpcc/workload.h"

using namespace face;

namespace {

/// One-copy-per-page flash cache with CLOCK replacement. Volatile metadata
/// (cold restart), write-back for dirty pages: a checkpoint cleans every
/// flash-dirty frame, and a flash loss reports them for WAL rebuild.
class ClockCache final : public CacheExtension {
 public:
  /// `flash` must have at least FrameStore::BlocksFor(n_frames) blocks.
  ClockCache(uint64_t n_frames, SimDevice* flash, DbStorage* storage)
      : store_(n_frames, /*frame_base=*/0, flash, storage, &stats_),
        referenced_(n_frames, false) {}

  const char* name() const override { return "Clock"; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }

  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override {
    FACE_ASSIGN_OR_RETURN(const FlashReadResult r, store_.Read(page_id, out));
    referenced_[store_.FrameOf(page_id)] = true;
    return r;
  }

  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override {
    if (dirty) ++stats_.dirty_evictions;
    uint32_t frame = store_.FrameOf(page_id);
    if (frame != FrameStore::kNoFrame) {
      // Refresh the copy in place (a random flash write, or a delta record)
      // only when DRAM holds newer bytes.
      if (fdirty) {
        FACE_RETURN_IF_ERROR(store_.Refresh(frame, page, dirty, hint));
      }
      if (dirty) store_.MarkDirty(frame, rec_lsn);
      referenced_[frame] = true;
      return Status::OK();
    }
    FACE_ASSIGN_OR_RETURN(frame, FindVictim());
    FACE_RETURN_IF_ERROR(store_.Admit(page_id, frame, page).status());
    if (dirty) store_.MarkDirty(frame, rec_lsn);
    referenced_[frame] = false;
    return Status::OK();
  }

  void OnPageWrittenToDisk(PageId page_id) override {
    // The disk copy is current; the cached one is stale now.
    const uint32_t frame = store_.FrameOf(page_id);
    if (frame != FrameStore::kNoFrame) store_.Release(frame);
  }

  // The flash copy of a dirty frame is the page's only newest version, and
  // the directory dies with DRAM: a checkpoint must put it on disk.
  Status PrepareCheckpoint() override { return store_.CleanAll(); }
  void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const override {
    store_.CollectFlashOnlyDirty(out);
  }

  void Forget() override {
    referenced_.assign(referenced_.size(), false);
    hand_ = 0;
    store_.Clear();
  }
  Status Format() override {  // also a restart: the directory was volatile
    Forget();
    return store_.delta().Reset();
  }

 private:
  /// A free frame, else the first unreferenced frame under the CLOCK hand
  /// (cleared reference bits are its second chance), written back to disk
  /// first if dirty.
  StatusOr<uint32_t> FindVictim() {
    const uint32_t free = store_.TakeFree();
    if (free != FrameStore::kNoFrame) return free;
    while (true) {
      const uint32_t frame = hand_;
      hand_ = static_cast<uint32_t>((hand_ + 1) % referenced_.size());
      if (referenced_[frame]) {
        referenced_[frame] = false;
        continue;
      }
      if (store_.IsDirty(frame)) FACE_RETURN_IF_ERROR(store_.Clean(frame));
      store_.Release(frame);
      return store_.TakeFree();
    }
  }

  FrameStore store_;
  std::vector<bool> referenced_;  ///< per frame
  uint32_t hand_ = 0;
};

}  // namespace

int main() {
  printf("loading TPC-C (1 warehouse)...\n");
  auto golden = GoldenImage::Build(1);
  if (!golden.ok()) return 1;
  const uint64_t cache_pages = golden->db_pages() / 8;

  // FaCE+GSC via the testbed.
  double face_tpmc, face_hit;
  {
    TestbedOptions opts;
    opts.policy = CachePolicy::kFaceGSC;
    opts.flash_pages = cache_pages;
    Testbed tb(opts, &*golden);
    if (!tb.Start().ok() || !tb.Warmup(2000).ok()) return 1;
    auto r = tb.Run({.txns = 3000});
    if (!r.ok()) return 1;
    face_tpmc = r->TpmC();
    face_hit = r->cache_stats.HitRate();
  }

  // The custom policy, wired by hand on identical devices.
  double clock_tpmc, clock_hit;
  {
    IoScheduler sched(50);
    SimDevice db_dev("db", DeviceProfile::Raid0Seagate(8),
                     golden->device->capacity_pages(), &sched);
    SimDevice log_dev("log", DeviceProfile::Seagate15k(), 1 << 22, &sched);
    SimDevice flash_dev("flash", DeviceProfile::MlcSamsung470(),
                        FrameStore::BlocksFor(cache_pages), &sched);
    db_dev.set_timing_enabled(false);
    if (!db_dev.CloneContentsFrom(*golden->device).ok()) return 1;
    db_dev.set_timing_enabled(true);

    DbStorage storage(&db_dev);
    storage.RestoreAllocator(golden->next_page_id);
    LogManager log(&log_dev);
    if (!log.Format().ok()) return 1;
    ClockCache cache(cache_pages, &flash_dev, &storage);
    DatabaseOptions db_opts;
    db_opts.buffer_frames = 256;
    Database db(db_opts, &storage, &log, &cache);
    if (!db.Open().ok() || !db.TakeCheckpoint().ok()) return 1;

    tpcc::Workload workload(/*warehouses=*/1);
    if (!workload.Setup(db, /*seed=*/42).ok()) return 1;
    Random unused(0);  // TPC-C draws from its own NURand stream
    for (int i = 0; i < 5000; ++i) {  // warm + measure
      if (i == 2000) {
        sched.Reset();
        cache.ResetStats();
        workload.ResetStats();
      }
      sched.BeginTxn();
      sched.OnCpu(100 * kNanosPerMicro);
      if (!workload.NextTxn(db, unused).ok()) return 1;
      sched.EndTxn();
    }
    clock_tpmc = static_cast<double>(workload.stats().primary) * 60e9 /
                 static_cast<double>(sched.makespan());
    clock_hit = cache.stats().HitRate();
  }

  printf("\n%-10s %10s %8s\n", "policy", "tpmC", "hit%");
  printf("%-10s %10.0f %8.1f\n", "FaCE+GSC", face_tpmc, face_hit * 100);
  printf("%-10s %10.0f %8.1f\n", "Clock", clock_tpmc, clock_hit * 100);
  printf(
      "\nThe trade the paper's Table 4 is about, on a policy it never "
      "measured: Clock\nkeeps one copy per page (higher hit rate than "
      "mvFIFO) but pays a random\nin-place flash write per admission. "
      "Which side wins depends on how close the\nflash device is to its "
      "random-write ceiling: below saturation (small scale,\nthis run) "
      "the hit rate can carry Clock ahead; at the paper's scale the\n"
      "saturated device throttles every in-place design — that regime is "
      "what\nFigure 4 and Table 4 show. Crash behavior differs "
      "unconditionally: Clock's\ndirectory is volatile, so it restarts "
      "cold, while FaCE recovers its contents.\n");
  return 0;
}
