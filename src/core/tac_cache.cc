#include "core/tac_cache.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace face {

namespace {

/// "core.tac.*" handles: temperature-gated admission and victim churn.
struct TacObs {
  obs::Counter* admissions;
  obs::Counter* invalidations;
  obs::Counter* dirty_evictions;
};

TacObs& GetTacObs() {
  thread_local TacObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    TacObs t;
    t.admissions = reg.GetCounter("core.tac.admissions");
    t.invalidations = reg.GetCounter("core.tac.invalidations");
    t.dirty_evictions = reg.GetCounter("core.tac.dirty_evictions");
    return t;
  }();
  return o;
}

}  // namespace

TacCache::TacCache(const TacOptions& options, SimDevice* flash,
                   DbStorage* storage)
    : options_(options),
      dir_blocks_(DirBlocksFor(options.n_frames)),
      flash_(flash),
      storage_(storage),
      store_(options.n_frames, DirBlocksFor(options.n_frames), flash, storage,
             &stats_),
      standing_(options.n_frames) {
  assert(options_.extent_pages >= 1);
  scratch_.resize(kPageSize);
}

void TacCache::Forget() {
  victim_order_.Clear();
  extent_temp_.Clear();
  clock_ = 0;
  store_.Clear();
}

Status TacCache::Format() {
  Forget();
  // Zero the whole directory region in one sequential write.
  std::string zeros(static_cast<size_t>(dir_blocks_) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->WriteBatch(
      0, static_cast<uint32_t>(dir_blocks_), zeros.data()));
  stats_.meta_flash_writes += dir_blocks_;
  return store_.delta().Reset();
}

uint64_t TacCache::Heat(PageId page_id) {
  return ++extent_temp_[ExtentOf(page_id)];
}

uint64_t TacCache::ExtentTemperature(PageId page_id) const {
  const uint64_t* temp = extent_temp_.Find(ExtentOf(page_id));
  return temp == nullptr ? 0 : *temp;
}

void TacCache::Stand(PageId page_id, uint32_t slot, uint64_t temp) {
  standing_[slot] = Standing{temp, ++clock_};
  victim_order_.Push(KeyOf(page_id, slot));
}

Status TacCache::WriteDirEntry(uint32_t slot, PageId page_id, bool occupied) {
  // Persist the one entry by rewriting its 4 KB directory block — the
  // "update an entry in the slot directory" random write of paper §4.1.
  const uint64_t block = slot / kEntriesPerBlock;
  const uint64_t offset =
      (slot % kEntriesPerBlock) * FlashMetaEntry::kEncodedSize;
  FACE_RETURN_IF_ERROR(flash_->Read(block, scratch_.data()));
  ++stats_.flash_reads;
  FlashMetaEntry e;
  e.page_id = page_id;
  e.dirty = false;  // write-through: flash never holds dirty data
  e.occupied = occupied;
  e.EncodeTo(scratch_.data() + offset);
  ++stats_.meta_flash_writes;
  return flash_->Write(block, scratch_.data());
}

StatusOr<FlashReadResult> TacCache::ReadPage(PageId page_id, char* out) {
  FACE_ASSIGN_OR_RETURN(const FlashReadResult result,
                        store_.Read(page_id, out));
  // Cache hits heat the extent and refresh this page's standing; the old
  // key goes stale in place.
  Stand(page_id, store_.FrameOf(page_id), Heat(page_id));
  victim_order_.MaybeCompact(
      store_.size(), [this](const VictimKey& k) { return IsCurrentKey(k); });
  return result;  // write-through: never dirty
}

Status TacCache::OnFetchFromDisk(PageId page_id, const char* page,
                                 uint64_t* admitted_version) {
  const uint64_t temp = Heat(page_id);
  if (Contains(page_id)) return Status::OK();  // defensive; shouldn't happen

  uint32_t slot = store_.TakeFree();
  if (slot == FrameStore::kNoFrame) {
    // Temperature gate: replace the coldest cached page only if the
    // incoming page's extent is strictly hotter.
    VictimKey coldest;
    const bool found = victim_order_.PeekMin(
        [this](const VictimKey& k) { return IsCurrentKey(k); }, &coldest);
    if (!found) return Status::Internal("TAC victim order empty");
    if (temp <= std::get<0>(coldest)) return Status::OK();
    victim_order_.PopMin();
    FACE_RETURN_IF_ERROR(Invalidate(store_.FrameOf(std::get<2>(coldest))));
    slot = store_.TakeFree();
  }

  FACE_ASSIGN_OR_RETURN(const uint64_t version,
                        store_.Admit(page_id, slot, page));
  FACE_RETURN_IF_ERROR(WriteDirEntry(slot, page_id, true));  // validation
  if (admitted_version != nullptr) *admitted_version = version;
  Stand(page_id, slot, temp);
  if (obs::Enabled()) GetTacObs().admissions->Increment();
  return Status::OK();
}

Status TacCache::Invalidate(uint32_t slot) {
  // No heap maintenance: the key goes stale when the page leaves the store
  // (the replacement path already popped it; the others leave it for lazy
  // discard).
  store_.Release(slot);
  if (obs::Enabled()) GetTacObs().invalidations->Increment();
  // Persist the invalidation — the first of the two random metadata writes
  // TAC pays per replacement.
  return WriteDirEntry(slot, kInvalidPageId, false);
}

Status TacCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                             bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  (void)rec_lsn;
  if (!dirty) return Status::OK();  // clean pages were cached on entry
  ++stats_.dirty_evictions;
  if (obs::Enabled()) GetTacObs().dirty_evictions->Increment();
  // Write-through: disk first, then keep a cached copy coherent.
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
  ++stats_.disk_writes;
  const uint32_t slot = store_.FrameOf(page_id);
  if (slot == FrameStore::kNoFrame || !fdirty) return Status::OK();
  // A small refresh becomes a delta record (dirty = false: the disk write
  // above already made disk current) instead of an in-place (random)
  // full-frame rewrite.
  return store_.Refresh(slot, page, /*dirty=*/false, hint);
}

void TacCache::OnPageWrittenToDisk(PageId page_id) {
  // Checkpoint wrote the page without handing us bytes: the flash copy is
  // stale, so it must be invalidated (persistently).
  const uint32_t slot = store_.FrameOf(page_id);
  if (slot == FrameStore::kNoFrame) return;
  // Invalidate() returns a Status for the metadata write; a failure here is
  // ignored deliberately — the in-memory drop already guarantees the stale
  // copy can never be served.
  (void)Invalidate(slot);
}

Status TacCache::RecoverAfterCrash() {
  Forget();

  // One sequential sweep over the slot directory rebuilds the map.
  std::string dir(static_cast<size_t>(dir_blocks_) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->ReadBatch(
      0, static_cast<uint32_t>(dir_blocks_), dir.data()));
  stats_.flash_reads += dir_blocks_;
  // A second sequential sweep validates the frames themselves: the
  // write-through in-place refresh (OnDramEvict) updates a frame without
  // touching its directory entry, so a crash can tear a frame that the
  // directory still advertises as valid. Dropping such a slot is always
  // safe — write-through means disk holds the current copy.
  std::vector<PageId> page_at(options_.n_frames, kInvalidPageId);
  constexpr uint32_t kSweepBatch = 64;
  std::string frames(static_cast<size_t>(kSweepBatch) * kPageSize, '\0');
  for (uint32_t base = 0; base < options_.n_frames; base += kSweepBatch) {
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(kSweepBatch, options_.n_frames - base));
    FACE_RETURN_IF_ERROR(
        flash_->ReadBatch(store_.BlockOf(base), chunk, frames.data()));
    stats_.flash_reads += chunk;
    for (uint32_t k = 0; k < chunk; ++k) {
      const uint32_t slot = base + k;
      const FlashMetaEntry e = FlashMetaEntry::DecodeFrom(
          dir.data() + (slot / kEntriesPerBlock) * kPageSize +
          (slot % kEntriesPerBlock) * FlashMetaEntry::kEncodedSize);
      if (!e.occupied || e.page_id == kInvalidPageId) continue;
      if (!FrameStore::Verify(
              frames.data() + static_cast<size_t>(k) * kPageSize,
              e.page_id)) {
        // Persist the invalidation so the next restart's sweep skips it.
        FACE_RETURN_IF_ERROR(WriteDirEntry(slot, kInvalidPageId, false));
        ++stats_.invalidations;
        continue;
      }
      page_at[slot] = e.page_id;
      Stand(e.page_id, slot, 0);  // temperatures do not survive a crash
    }
  }
  store_.Restore(page_at);
  // Delta fencing: a frame with surviving media delta records is a *stale
  // base* — the crash-time tip lived in the delta chain, not the frame.
  // Reconstructing tips here would be wasted motion (write-through means
  // disk already holds every committed byte), so conservatively drop such
  // slots and let demand fetches repopulate them. Pre-checkpoint records
  // are guaranteed on media by OnCheckpoint's Flush; records lost after the
  // last checkpoint heal through restart redo plus the restart-end
  // checkpoint's OnPageWrittenToDisk invalidation — the same window TAC
  // already tolerates for torn in-place refreshes.
  FACE_ASSIGN_OR_RETURN(const std::vector<DeltaRing::RecoveredRecord> recovered,
                        store_.delta().RecoverScan());
  for (const DeltaRing::RecoveredRecord& r : recovered) {
    const uint32_t slot = store_.FrameOf(r.rec.page_id);
    // An uncached page, or a record of an older tenancy of the slot.
    if (slot == FrameStore::kNoFrame || r.rec.base_version != slot) continue;
    FACE_RETURN_IF_ERROR(Invalidate(slot));
  }
  // Chains never outlive a restart; reclaim the ring wholesale.
  return store_.delta().Reset();
}

Status TacCache::CheckInvariants() const {
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
    return Status::Internal("TAC victim order out of sync with index");
  }
  for (uint32_t slot = 0; slot < options_.n_frames; ++slot) {
    const PageId page_id = store_.PageAt(slot);
    if (page_id != kInvalidPageId &&
        !std::binary_search(keys.begin(), keys.end(), KeyOf(page_id, slot))) {
      return Status::Internal("TAC entry missing from victim order");
    }
  }
  return Status::OK();
}

}  // namespace face
