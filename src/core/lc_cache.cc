#include "core/lc_cache.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "obs/trace.h"

namespace face {

LcCache::LcCache(const LcOptions& options, SimDevice* flash,
                 DbStorage* storage)
    : options_(options),
      store_(options.n_frames, flash, storage, &stats_),
      refs_(options.n_frames) {
  assert(options_.clean_target <= options_.clean_threshold);
}

void LcCache::Touch(PageId page_id, uint32_t frame) {
  // The old key goes stale in place; PeekMin/MaybeCompact discard it later.
  refs_[frame].penult = refs_[frame].last;
  refs_[frame].last = ++clock_;
  victim_order_.Push(KeyOf(page_id, frame));
  victim_order_.MaybeCompact(
      store_.size(), [this](const VictimKey& k) { return IsCurrentKey(k); });
}

StatusOr<FlashReadResult> LcCache::ReadPage(PageId page_id, char* out) {
  FACE_ASSIGN_OR_RETURN(const FlashReadResult result,
                        store_.Read(page_id, out));
  Touch(page_id, store_.FrameOf(page_id));
  return result;
}

Status LcCache::EvictVictim() {
  VictimKey key;
  const bool found = victim_order_.PeekMin(
      [this](const VictimKey& k) { return IsCurrentKey(k); }, &key);
  if (!found) return Status::Internal("LC victim order empty");
  const uint32_t frame = store_.FrameOf(std::get<2>(key));
  if (store_.IsDirty(frame)) {
    // Cleaning flips dirty/recLSN only — the reference-history key stays
    // current, so the heap top is still this victim afterwards.
    FACE_RETURN_IF_ERROR(store_.Clean(frame));
  }
  victim_order_.PopMin();
  store_.Release(frame);
  return Status::OK();
}

Status LcCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                            bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  if (dirty) ++stats_.dirty_evictions;

  const uint32_t cached = store_.FrameOf(page_id);
  if (cached != FrameStore::kNoFrame) {
    // Single-copy discipline: refresh the frame in place (or as a delta
    // record) — but only when the DRAM copy is actually newer (fdirty);
    // otherwise the flash copy is identical and no write is needed.
    if (fdirty) {
      FACE_RETURN_IF_ERROR(store_.Refresh(cached, page, dirty, hint));
      if (dirty) store_.MarkDirty(cached, rec_lsn);
    }
    Touch(page_id, cached);
    return Status::OK();
  }

  // Admission of a new page: free frame, else replace the LRU-2 victim.
  uint32_t frame = store_.TakeFree();
  if (frame == FrameStore::kNoFrame) {
    FACE_RETURN_IF_ERROR(EvictVictim());
    frame = store_.TakeFree();
  }
  FACE_RETURN_IF_ERROR(store_.Admit(page_id, frame, page).status());
  if (dirty) store_.MarkDirty(frame, rec_lsn);
  // First visit: -inf history, a prime eviction candidate.
  refs_[frame] = Refs{++clock_, 0};
  victim_order_.Push(KeyOf(page_id, frame));
  return Status::OK();
}

void LcCache::OnPageWrittenToDisk(PageId page_id) {
  // The disk copy just became current; a cached copy is stale now. Drop it
  // (an in-memory invalidation — no flash I/O); its heap key goes stale.
  const uint32_t frame = store_.FrameOf(page_id);
  if (frame != FrameStore::kNoFrame) store_.Release(frame);
}

void LcCache::Forget() {
  victim_order_.Clear();
  cleaning_ = false;
  store_.Clear();
}

bool LcCache::HasBackgroundWork() const {
  const double dirty = DirtyFraction();
  if (cleaning_) return dirty > options_.clean_target;
  return dirty > options_.clean_threshold;
}

Status LcCache::RunBackgroundWork() {
  if (!HasBackgroundWork()) return Status::OK();
  obs::ScopedSpan span("core.lc", "clean_batch");
  cleaning_ = true;
  // Clean coldest-first so pages likely to be re-dirtied soon stay dirty in
  // flash and keep absorbing writes. Ascending traversal over a heapified
  // snapshot of the victim keys (cleaning flips dirty bits, never keys, so
  // current keys stay current while we walk).
  cleaner_keys_.assign(victim_order_.keys().begin(),
                       victim_order_.keys().end());
  std::make_heap(cleaner_keys_.begin(), cleaner_keys_.end(),
                 std::greater<VictimKey>());
  uint32_t flushed = 0;
  while (!cleaner_keys_.empty() && flushed < options_.clean_batch &&
         DirtyFraction() > options_.clean_target) {
    std::pop_heap(cleaner_keys_.begin(), cleaner_keys_.end(),
                  std::greater<VictimKey>());
    const VictimKey key = cleaner_keys_.back();
    cleaner_keys_.pop_back();
    if (!IsCurrentKey(key)) continue;
    const uint32_t frame = store_.FrameOf(std::get<2>(key));
    if (!store_.IsDirty(frame)) continue;
    FACE_RETURN_IF_ERROR(store_.Clean(frame));
    ++flushed;
  }
  if (DirtyFraction() <= options_.clean_target) cleaning_ = false;
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    thread_local obs::Counter* runs = reg.GetCounter("core.lc.cleaner_runs");
    thread_local obs::Hist* pages = reg.GetHistogram("core.lc.clean_batch_pages");
    runs->Increment();
    pages->Add(flushed);
  }
  return Status::OK();
}

Status LcCache::CheckInvariants() const {
  FACE_RETURN_IF_ERROR(store_.CheckInvariants());
  // Exactly one heap key per cached page must be current, and every cached
  // page's current key must be among them (stale keys are expected).
  std::vector<VictimKey> keys(victim_order_.keys());
  std::sort(keys.begin(), keys.end());
  uint64_t current = 0;
  for (const VictimKey& k : keys) {
    if (IsCurrentKey(k)) ++current;
  }
  if (current != store_.size()) {
    return Status::Internal("LC victim order out of sync with index");
  }
  for (uint32_t f = 0; f < options_.n_frames; ++f) {
    const PageId page_id = store_.PageAt(f);
    if (page_id == kInvalidPageId) continue;
    if (!std::binary_search(keys.begin(), keys.end(), KeyOf(page_id, f))) {
      return Status::Internal("LC entry missing from victim order");
    }
    if (refs_[f].penult > refs_[f].last) {
      return Status::Internal("LC reference history out of order");
    }
  }
  return Status::OK();
}

}  // namespace face
