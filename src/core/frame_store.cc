#include "core/frame_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "storage/page.h"

namespace face {

FrameStore::FrameStore(uint64_t n_frames, uint64_t frame_base,
                       SimDevice* flash, DbStorage* storage, CacheStats* stats)
    : frame_base_(frame_base),
      flash_(flash),
      storage_(storage),
      stats_(stats),
      page_at_(n_frames, kInvalidPageId),
      delta_(DeltaRingOptions{frame_base + n_frames,
                              static_cast<uint32_t>(
                                  FlashLayout::DeltaBlocksFor(n_frames))},
             flash, stats) {
  assert(n_frames >= 2);
  assert(n_frames <= static_cast<uint64_t>(INT32_MAX));  // int32 LRU links
  assert(flash_->capacity_pages() >= frame_base + BlocksFor(n_frames));
  index_.Reserve(n_frames);  // steady state never rehashes
  free_.reserve(n_frames);
  scratch_.resize(kPageSize);
  Clear();
  delta_.SetConsolidateFn([this](const std::vector<PageId>& pids) {
    return Consolidate(pids);
  });
}

uint32_t FrameStore::TakeFree() {
  if (free_.empty()) return kNoFrame;
  const uint32_t frame = free_.back();
  free_.pop_back();
  return frame;
}

StatusOr<uint64_t> FrameStore::Admit(PageId pid, uint32_t frame,
                                     const char* page) {
  assert(page_at_[frame] == kInvalidPageId);
  const Status written = WriteFrame(frame, page, pid);
  if (!written.ok()) {
    free_.push_back(frame);  // TakeFree popped it; it holds nothing
    return written;
  }
  page_at_[frame] = pid;
  index_.TryEmplace(pid, frame);
  ++stats_->enqueues;
  return delta_.BeginFull(pid, frame);
}

void FrameStore::Release(uint32_t frame) {
  const PageId pid = page_at_[frame];
  if (dirty_[frame]) --dirty_count_;
  dirty_[frame] = 0;
  rec_lsn_[frame] = kInvalidLsn;
  page_at_[frame] = kInvalidPageId;
  index_.Erase(pid);
  delta_.Drop(pid);
  free_.push_back(frame);
  ++stats_->invalidations;
}

bool FrameStore::Verify(const char* image, PageId pid) {
  ConstPageView view(image);
  return view.VerifyChecksum() && view.page_id() == pid;
}

Status FrameStore::WriteFrame(uint32_t frame, const char* page, PageId pid) {
  if (page != scratch_.data()) memcpy(scratch_.data(), page, kPageSize);
  PageView view(scratch_.data());
  view.set_page_id(pid);
  view.StampChecksum();
  ++stats_->flash_writes;
  return flash_->Write(BlockOf(frame), scratch_.data());
}

StatusOr<FlashReadResult> FrameStore::Read(PageId pid, char* out) {
  const uint32_t frame = FrameOf(pid);
  if (frame == kNoFrame) return Status::NotFound("page not in the cache");
  FACE_RETURN_IF_ERROR(flash_->Read(BlockOf(frame), out));
  ++stats_->flash_reads;
  if (!Verify(out, pid)) {
    return Status::Corruption("cache frame failed validation");
  }
  // The frame is the chain base; patch delta refreshes on top and hand the
  // caller the tip version so it can delta against this copy later.
  delta_.ApplyChain(pid, out);
  FlashReadResult result{IsDirty(frame), rec_lsn_[frame]};
  DeltaRing::ChainView cv;
  if (delta_.GetChain(pid, &cv)) result.flash_version = cv.tip_version;
  return result;
}

Status FrameStore::Refresh(uint32_t frame, const char* page, bool dirty,
                           DeltaWriteHint* hint) {
  const PageId pid = page_at_[frame];
  FACE_ASSIGN_OR_RETURN(const bool refreshed,
                        delta_.TryRefresh(pid, page, dirty, hint));
  if (refreshed) return Status::OK();
  FACE_RETURN_IF_ERROR(WriteFrame(frame, page, pid));
  delta_.BeginFull(pid, frame);  // the full image re-bases the chain
  return Status::OK();
}

Status FrameStore::Consolidate(const std::vector<PageId>& pids) {
  for (PageId pid : pids) {
    const uint32_t frame = FrameOf(pid);
    if (frame == kNoFrame) continue;
    DeltaRing::ChainView cv;
    if (!delta_.GetChain(pid, &cv) || cv.len == 0 || cv.base_tag != frame) {
      continue;
    }
    // Rebuild the tip image and rewrite it into the page's frame in place;
    // the full write re-bases the chain, freeing the doomed records.
    FACE_RETURN_IF_ERROR(flash_->Read(BlockOf(frame), scratch_.data()));
    ++stats_->flash_reads;
    delta_.ApplyChain(pid, scratch_.data());
    FACE_RETURN_IF_ERROR(WriteFrame(frame, scratch_.data(), pid));
    delta_.BeginFull(pid, frame);
  }
  return Status::OK();
}

void FrameStore::MarkDirty(uint32_t frame, Lsn rec_lsn) {
  if (!dirty_[frame]) {
    dirty_[frame] = 1;
    ++dirty_count_;
  }
  Lsn& kept = rec_lsn_[frame];
  if (kept == kInvalidLsn || (rec_lsn != kInvalidLsn && rec_lsn < kept)) {
    kept = rec_lsn;
  }
}

Status FrameStore::Clean(uint32_t frame) {
  assert(dirty_[frame]);
  const PageId pid = page_at_[frame];
  FACE_RETURN_IF_ERROR(flash_->Read(BlockOf(frame), scratch_.data()));
  ++stats_->flash_reads;
  // Stage out the chain *tip*, not the stale base.
  delta_.ApplyChain(pid, scratch_.data());
  FACE_RETURN_IF_ERROR(storage_->WritePage(pid, scratch_.data()));
  ++stats_->disk_writes;
  dirty_[frame] = 0;
  rec_lsn_[frame] = kInvalidLsn;
  --dirty_count_;
  return Status::OK();
}

Status FrameStore::CleanAll() {
  std::vector<FlashOnlyPage> dirty;
  CollectFlashOnlyDirty(&dirty);
  for (const FlashOnlyPage& p : dirty) {
    FACE_RETURN_IF_ERROR(Clean(FrameOf(p.page_id)));
  }
  return Status::OK();
}

void FrameStore::CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const {
  const size_t base = out->size();
  for (uint32_t f = 0; f < n_frames(); ++f) {
    if (dirty_[f]) out->push_back(FlashOnlyPage{page_at_[f], rec_lsn_[f]});
  }
  std::sort(out->begin() + base, out->end(),
            [](const FlashOnlyPage& a, const FlashOnlyPage& b) {
              return a.page_id < b.page_id;
            });
}

Status FrameStore::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  if (index_.empty()) return Status::OK();
  for (uint64_t walked = 0;
       walked < n_frames() && out->frames_scanned < max_frames; ++walked) {
    const uint32_t frame = scrub_cursor_;
    scrub_cursor_ = static_cast<uint32_t>((frame + 1) % n_frames());
    const PageId pid = page_at_[frame];
    if (pid == kInvalidPageId) continue;
    FACE_RETURN_IF_ERROR(flash_->Read(BlockOf(frame), scratch_.data()));
    ++stats_->flash_reads;
    ++out->frames_scanned;
    if (Verify(scratch_.data(), pid)) continue;
    if (dirty_[frame]) {
      // The rotten base held the only up-to-date copy: drop the page and
      // report it for WAL-driven rebuild.
      out->lost_dirty.push_back(FlashOnlyPage{pid, rec_lsn_[frame]});
      Release(frame);
      continue;
    }
    // A clean frame's disk copy is the chain tip, so the repaired frame is
    // a correct new base for any delta records still attached.
    FACE_RETURN_IF_ERROR(storage_->ReadPage(pid, scratch_.data()));
    ++stats_->disk_reads;
    FACE_RETURN_IF_ERROR(WriteFrame(frame, scratch_.data(), pid));
    ++out->clean_repaired;
  }
  return Status::OK();
}

void FrameStore::Clear() {
  index_.Clear();
  page_at_.assign(page_at_.size(), kInvalidPageId);
  free_.clear();
  for (uint32_t f = static_cast<uint32_t>(n_frames()); f-- > 0;) {
    free_.push_back(f);
  }
  dirty_.assign(n_frames(), 0);
  rec_lsn_.assign(n_frames(), kInvalidLsn);
  dirty_count_ = 0;
  scrub_cursor_ = 0;
  delta_.DropAll();
}

Status FrameStore::CheckInvariants() const {
  if (index_.size() + free_.size() != n_frames()) {
    return Status::Internal("frame store accounting broken");
  }
  uint64_t bound = 0;
  uint64_t dirty = 0;
  for (uint32_t f = 0; f < n_frames(); ++f) {
    if (page_at_[f] == kInvalidPageId) {
      if (dirty_[f]) return Status::Internal("free frame marked dirty");
      continue;
    }
    ++bound;
    if (dirty_[f]) ++dirty;
    if (FrameOf(page_at_[f]) != f) {
      return Status::Internal("frame reverse map out of sync with directory");
    }
  }
  if (bound != index_.size()) {
    return Status::Internal("frame directory / reverse map size mismatch");
  }
  if (dirty != dirty_count_) {
    return Status::Internal("frame store dirty count out of sync");
  }
  FACE_RETURN_IF_ERROR(delta_.CheckInvariants());
  Status chains = Status::OK();
  delta_.ForEachChain([&](PageId pid, const DeltaRing::ChainView& cv) {
    if (chains.ok() && FrameOf(pid) != cv.base_tag) {
      chains = Status::Internal("delta chain base is not the page's frame");
    }
  });
  return chains;
}

}  // namespace face
