#include "core/exadata_cache.h"

#include "obs/metrics.h"

namespace face {

namespace {

/// "core.exadata.*" handles: clean-only admission and invalidation churn.
struct ExaObs {
  obs::Counter* admissions;
  obs::Counter* invalidations;
  obs::Counter* dirty_evictions;
};

ExaObs& GetExaObs() {
  thread_local ExaObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    ExaObs e;
    e.admissions = reg.GetCounter("core.exadata.admissions");
    e.invalidations = reg.GetCounter("core.exadata.invalidations");
    e.dirty_evictions = reg.GetCounter("core.exadata.dirty_evictions");
    return e;
  }();
  return o;
}

}  // namespace

ExadataCache::ExadataCache(uint64_t n_frames, SimDevice* flash,
                           DbStorage* storage)
    : storage_(storage),
      store_(n_frames, /*frame_base=*/0, flash, storage, &stats_),
      links_(n_frames) {}

StatusOr<FlashReadResult> ExadataCache::ReadPage(PageId page_id, char* out) {
  FACE_ASSIGN_OR_RETURN(const FlashReadResult result,
                        store_.Read(page_id, out));
  lru_.MoveToFront(FrameLinks(), store_.FrameOf(page_id));
  return result;  // clean-only cache
}

Status ExadataCache::OnFetchFromDisk(PageId page_id, const char* page,
                                     uint64_t* admitted_version) {
  if (Contains(page_id)) return Status::OK();

  uint32_t frame = store_.TakeFree();
  if (frame == FrameStore::kNoFrame) {
    // LRU replacement: victims are always clean, so they are just dropped.
    DropFrame(static_cast<uint32_t>(lru_.tail()));
    frame = store_.TakeFree();
  }
  FACE_ASSIGN_OR_RETURN(const uint64_t version,
                        store_.Admit(page_id, frame, page));
  if (admitted_version != nullptr) *admitted_version = version;
  lru_.PushFront(FrameLinks(), frame);
  if (obs::Enabled()) GetExaObs().admissions->Increment();
  return Status::OK();
}

Status ExadataCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                                 bool fdirty, Lsn rec_lsn,
                                 DeltaWriteHint* hint) {
  (void)fdirty;
  (void)rec_lsn;
  if (!dirty) return Status::OK();
  ++stats_.dirty_evictions;
  if (obs::Enabled()) GetExaObs().dirty_evictions->Increment();
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
  ++stats_.disk_writes;
  // Page-differential path: a small update whose chain tip matches the
  // cached copy becomes a delta record (dirty = false — disk stays
  // current) and the page keeps serving read hits. Otherwise fall back to
  // the classic clean-only behavior: invalidate rather than update.
  FACE_ASSIGN_OR_RETURN(
      const bool refreshed,
      store_.delta().TryRefresh(page_id, page, /*dirty=*/false, hint));
  if (!refreshed) OnPageWrittenToDisk(page_id);
  return Status::OK();
}

void ExadataCache::OnPageWrittenToDisk(PageId page_id) {
  const uint32_t frame = store_.FrameOf(page_id);
  if (frame != FrameStore::kNoFrame) DropFrame(frame);
}

void ExadataCache::DropFrame(uint32_t frame) {
  lru_.Remove(FrameLinks(), frame);
  store_.Release(frame);
  if (obs::Enabled()) GetExaObs().invalidations->Increment();
}

void ExadataCache::Forget() {
  lru_.Clear();
  links_.assign(links_.size(), IntrusiveLinks());
  store_.Clear();
}

Status ExadataCache::CheckInvariants() const {
  FACE_RETURN_IF_ERROR(store_.CheckInvariants());
  uint64_t chained = 0;
  for (int32_t i = lru_.head(); i >= 0; i = links_[i].next) {
    if (++chained > links_.size()) {
      return Status::Internal("Exadata LRU chain cycles");
    }
    if (store_.PageAt(static_cast<uint32_t>(i)) == kInvalidPageId) {
      return Status::Internal("Exadata LRU frame missing from index");
    }
  }
  if (chained != store_.size()) {
    return Status::Internal("Exadata index / LRU size mismatch");
  }
  return Status::OK();
}

}  // namespace face
