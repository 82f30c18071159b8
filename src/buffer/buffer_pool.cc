#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace face {

namespace {

/// "buffer.*" handles, registered on first use; mirrors BufferPool::Stats
/// plus the miss-path virtual latency distribution Stats cannot express.
struct PoolObs {
  obs::Counter* fetches;
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* disk_fetches;
  obs::Counter* flash_fetches;
  obs::Counter* evictions;
  obs::Counter* dirty_evictions;
  obs::Counter* pulls;
  obs::Hist* miss_fetch_ns;
  obs::Hist* ckpt_sync_pages;
};

PoolObs& GetPoolObs() {
  thread_local PoolObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    PoolObs p;
    p.fetches = reg.GetCounter("buffer.fetches");
    p.hits = reg.GetCounter("buffer.hits");
    p.misses = reg.GetCounter("buffer.misses");
    p.disk_fetches = reg.GetCounter("buffer.disk_fetches");
    p.flash_fetches = reg.GetCounter("buffer.flash_fetches");
    p.evictions = reg.GetCounter("buffer.evictions");
    p.dirty_evictions = reg.GetCounter("buffer.dirty_evictions");
    p.pulls = reg.GetCounter("buffer.pulls");
    p.miss_fetch_ns = reg.GetHistogram("buffer.miss_fetch_ns");
    p.ckpt_sync_pages = reg.GetHistogram("buffer.ckpt_sync_pages");
    return p;
  }();
  return o;
}

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }
  return *this;
}

char* PageHandle::data() {
  assert(valid());
  return pool_->frames_[frame_].data.get();
}

const char* PageHandle::data() const {
  assert(valid());
  return pool_->frames_[frame_].data.get();
}

void PageHandle::MarkDirty(Lsn lsn) {
  assert(valid());
  BufferPool::Frame& f = pool_->frames_[frame_];
  if (pool_->trace_ != nullptr) pool_->trace_->OnPageAccess(f.page_id, true);
  f.dirty = true;
  f.fdirty = true;
  f.tracker.MarkAll();  // span unknown: only a full flash write is safe
  if (f.rec_lsn == kInvalidLsn) f.rec_lsn = lsn;
  if (lsn != kInvalidLsn) PageView(f.data.get()).set_lsn(lsn);
}

void PageHandle::MarkDirtyRange(Lsn lsn, uint32_t offset, uint32_t len) {
  assert(valid());
  BufferPool::Frame& f = pool_->frames_[frame_];
  if (pool_->trace_ != nullptr) pool_->trace_->OnPageAccess(f.page_id, true);
  f.dirty = true;
  f.fdirty = true;
  f.tracker.Add(offset, len);
  if (f.rec_lsn == kInvalidLsn) f.rec_lsn = lsn;
  if (lsn != kInvalidLsn) PageView(f.data.get()).set_lsn(lsn);
}

void PageHandle::Release() {
  if (pool_ == nullptr) return;
  BufferPool::Frame& f = pool_->frames_[frame_];
  assert(f.pins > 0);
  --f.pins;
  pool_ = nullptr;
}

BufferPool::BufferPool(uint32_t capacity_frames, DbStorage* storage,
                       LogManager* log, CacheExtension* cache)
    : frames_(capacity_frames), storage_(storage), log_(log), cache_(cache) {
  assert(capacity_frames >= 8);
  table_.Reserve(capacity_frames);  // steady state never rehashes
  free_list_.reserve(capacity_frames);
  for (uint32_t i = 0; i < capacity_frames; ++i) {
    frames_[i].data = std::make_unique<char[]>(kPageSize);
    free_list_.push_back(capacity_frames - 1 - i);
  }
  cache_->SetPullSource(this);
}

BufferPool::~BufferPool() { cache_->SetPullSource(nullptr); }

StatusOr<PageHandle> BufferPool::FetchPage(PageId page_id) {
  ++stats_.fetches;
  const bool obs_on = obs::Enabled();
  if (obs_on) GetPoolObs().fetches->Increment();
  if (trace_ != nullptr) trace_->OnPageAccess(page_id, false);
  if (const uint32_t* slot = table_.Find(page_id)) {
    const uint32_t frame = *slot;
    ++stats_.hits;
    if (obs_on) GetPoolObs().hits->Increment();
    ++frames_[frame].pins;
    lru_.MoveToFront(FrameLinks(), frame);
    return PageHandle(this, frame, page_id);
  }

  ++stats_.misses;
  const uint64_t miss_start = obs_on ? obs::VirtualNow() : 0;
  FACE_ASSIGN_OR_RETURN(uint32_t frame, GetFreeFrame());
  Frame& f = frames_[frame];

  // While degraded the flash device is gone: no probes, no admissions —
  // the policy is treated exactly like NullCache until ReattachFlash.
  const bool degraded = cache_->degraded();
  const bool flash_hit = !degraded && cache_->Contains(page_id);
  cache_->RecordProbe(flash_hit);
  if (flash_hit) {
    auto read = cache_->ReadPage(page_id, f.data.get());
    if (!read.ok()) {
      free_list_.push_back(frame);
      return read.status();
    }
    ++stats_.flash_fetches;
    if (obs_on) GetPoolObs().flash_fetches->Increment();
    f.dirty = read->dirty;
    f.fdirty = false;  // synced with the flash copy we just read
    f.rec_lsn = read->rec_lsn;
    // The frame now equals this exact flash state: deltas may build on it.
    f.flash_version = read->flash_version;
    f.tracker.Reset();
  } else {
    const Status s = storage_->ReadPage(page_id, f.data.get());
    if (!s.ok()) {
      free_list_.push_back(frame);
      return s;
    }
    ++stats_.disk_fetches;
    if (obs_on) GetPoolObs().disk_fetches->Increment();
    f.dirty = false;
    f.fdirty = false;
    f.rec_lsn = kInvalidLsn;
    f.flash_version = kNoFlashVersion;
    f.tracker.Reset();
  }

  f.page_id = page_id;
  f.pins = 1;
  f.in_use = true;
  table_.TryEmplace(page_id, frame);
  lru_.PushFront(FrameLinks(), frame);
  if (obs_on) {
    PoolObs& o = GetPoolObs();
    o.misses->Increment();
    o.miss_fetch_ns->Add(obs::VirtualNow() - miss_start);
  }
  return PageHandle(this, frame, page_id);
}

StatusOr<PageHandle> BufferPool::NewPage() {
  FACE_ASSIGN_OR_RETURN(PageId page_id, storage_->AllocatePage());
  FACE_ASSIGN_OR_RETURN(uint32_t frame, GetFreeFrame());
  Frame& f = frames_[frame];
  PageView(f.data.get()).Format(page_id);
  f.page_id = page_id;
  f.pins = 1;
  f.in_use = true;
  // Clean until the caller logs the formatting: if evicted before any
  // logged write, the zero page is simply dropped and redo recreates it.
  f.dirty = false;
  f.fdirty = false;
  f.rec_lsn = kInvalidLsn;
  f.flash_version = kNoFlashVersion;
  f.tracker.Reset();
  table_.TryEmplace(page_id, frame);
  lru_.PushFront(FrameLinks(), frame);
  ++stats_.new_pages;
  return PageHandle(this, frame, page_id);
}

StatusOr<PageHandle> BufferPool::FetchPageForRedo(PageId page_id) {
  auto handle = FetchPage(page_id);
  if (handle.ok() || !handle.status().IsNotFound()) return handle;
  // Virgin page: materialize a formatted zero page for redo to fill.
  storage_->ObservePage(page_id);
  FACE_ASSIGN_OR_RETURN(uint32_t frame, GetFreeFrame());
  Frame& f = frames_[frame];
  PageView(f.data.get()).Format(page_id);
  f.page_id = page_id;
  f.pins = 1;
  f.in_use = true;
  f.dirty = false;
  f.fdirty = false;
  f.rec_lsn = kInvalidLsn;
  f.flash_version = kNoFlashVersion;
  f.tracker.Reset();
  table_.TryEmplace(page_id, frame);
  lru_.PushFront(FrameLinks(), frame);
  return PageHandle(this, frame, page_id);
}

StatusOr<uint32_t> BufferPool::GetFreeFrame() {
  if (!free_list_.empty()) {
    const uint32_t frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  // Evict from the LRU tail, skipping pinned frames.
  for (int32_t i = lru_.tail(); i >= 0; i = frames_[i].lru.prev) {
    if (frames_[i].pins == 0) {
      const uint32_t frame = static_cast<uint32_t>(i);
      FACE_RETURN_IF_ERROR(EvictVictim(frame));
      return frame;
    }
  }
  return Status::Busy("all buffer frames pinned");
}

Status BufferPool::EvictVictim(uint32_t frame) {
  lru_.Remove(FrameLinks(), frame);
  const Status s = EvictFrame(frame);
  if (!s.ok()) {
    // A victim EvictFrame released (the cache failed mid-eviction) goes to
    // the free list rather than out of the pool for good; one it never
    // released (the WAL force failed) stays resident and mapped.
    if (frames_[frame].in_use) {
      lru_.PushFront(FrameLinks(), frame);
    } else {
      free_list_.push_back(frame);
    }
  }
  return s;
}

Status BufferPool::EvictFrame(uint32_t frame) {
  Frame& f = frames_[frame];
  ++stats_.evictions;
  if (f.dirty) ++stats_.dirty_evictions;
  if (obs::Enabled()) {
    PoolObs& o = GetPoolObs();
    o.evictions->Increment();
    if (f.dirty) o.dirty_evictions->Increment();
  }
  // WAL-before-data: nothing newer than the durable log may reach
  // persistent storage (flash cache included).
  if (f.dirty || f.fdirty) {
    FACE_RETURN_IF_ERROR(log_->FlushTo(PageView(f.data.get()).lsn()));
  }
  table_.Erase(f.page_id);
  Status s;
  if (cache_->degraded()) {
    // Disk-only service: dirty pages go straight to their durable home.
    if (f.dirty) s = storage_->WritePage(f.page_id, f.data.get());
  } else {
    DeltaWriteHint hint{&f.tracker, f.flash_version, kNoFlashVersion};
    s = cache_->OnDramEvict(f.page_id, f.data.get(), f.dirty, f.fdirty,
                            f.rec_lsn, &hint);
    if (!s.ok() && f.dirty) {
      // The cache refused mid-eviction (flash failure) and this frame may
      // hold the only current copy. Rescue it to disk before the frame is
      // recycled; the original error still surfaces for supervision.
      (void)storage_->WritePage(f.page_id, f.data.get());
    }
  }
  f.in_use = false;
  f.page_id = kInvalidPageId;
  f.dirty = f.fdirty = false;
  f.rec_lsn = kInvalidLsn;
  f.flash_version = kNoFlashVersion;
  f.tracker.Reset();
  return s;
}

PageId BufferPool::PullVictim(char* page, bool* dirty, bool* fdirty,
                              Lsn* rec_lsn) {
  for (int32_t i = lru_.tail(); i >= 0; i = frames_[i].lru.prev) {
    if (frames_[i].pins != 0) continue;
    const uint32_t frame = static_cast<uint32_t>(i);
    Frame& f = frames_[frame];
    if (f.dirty || f.fdirty) {
      if (!log_->FlushTo(PageView(f.data.get()).lsn()).ok()) return kInvalidPageId;
    }
    const PageId page_id = f.page_id;
    memcpy(page, f.data.get(), kPageSize);
    *dirty = f.dirty;
    *fdirty = f.fdirty;
    if (rec_lsn != nullptr) *rec_lsn = f.rec_lsn;
    lru_.Remove(FrameLinks(), frame);
    table_.Erase(page_id);
    f.in_use = false;
    f.page_id = kInvalidPageId;
    f.dirty = f.fdirty = false;
    f.rec_lsn = kInvalidLsn;
    f.flash_version = kNoFlashVersion;
    f.tracker.Reset();
    free_list_.push_back(frame);
    ++stats_.evictions;
    ++stats_.pulls;
    if (obs::Enabled()) {
      PoolObs& o = GetPoolObs();
      o.evictions->Increment();
      o.pulls->Increment();
    }
    return page_id;
  }
  return kInvalidPageId;
}

Status BufferPool::FlushAllToDisk() {
  // Ascending-page order (see SnapshotResidentPages): shutdown writes are
  // deterministic and adjacent dirty pages coalesce into sequential I/O.
  return FlushPagesToDisk(SnapshotResidentPages());
}

Status BufferPool::FlushPagesToDisk(const std::vector<PageId>& pages) {
  FACE_RETURN_IF_ERROR(log_->FlushAll());
  for (PageId page_id : pages) {
    const uint32_t* slot = table_.Find(page_id);
    if (slot == nullptr) continue;  // a cache callback may mutate the table
    Frame& f = frames_[*slot];
    if (f.dirty) FACE_RETURN_IF_ERROR(SyncToDisk(page_id, &f));
  }
  return Status::OK();
}

Status BufferPool::FlushUnprotectedFrames() {
  FACE_RETURN_IF_ERROR(log_->FlushAll());
  for (PageId page_id : SnapshotResidentPages()) {
    const uint32_t* slot = table_.Find(page_id);
    if (slot == nullptr) continue;
    Frame& f = frames_[*slot];
    // The flash state is gone: no frame may delta against it anymore.
    f.flash_version = kNoFlashVersion;
    f.tracker.Reset();
    // dirty + invalid recLSN = the flash copy (persistent cache) was the
    // page's redo protection. With flash lost, disk must catch up now.
    if (!f.dirty || f.rec_lsn != kInvalidLsn) continue;
    FACE_RETURN_IF_ERROR(SyncToDisk(page_id, &f));
  }
  return Status::OK();
}

std::vector<PageId> BufferPool::SnapshotResidentPages() const {
  std::vector<PageId> ids;
  ids.reserve(table_.size());
  table_.ForEach([&ids](PageId page_id, const uint32_t&) {
    ids.push_back(page_id);
  });
  // Sorted, so checkpoint/trace iteration order is a function of the
  // resident set alone — not of hash-table layout or stdlib internals.
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status BufferPool::EvictAll() {
  while (lru_.tail() >= 0) {
    bool evicted = false;
    for (int32_t i = lru_.tail(); i >= 0; i = frames_[i].lru.prev) {
      if (frames_[i].pins == 0) {
        const uint32_t frame = static_cast<uint32_t>(i);
        FACE_RETURN_IF_ERROR(EvictVictim(frame));
        free_list_.push_back(frame);
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // everything left is pinned
  }
  return Status::OK();
}

std::vector<DptEntry> BufferPool::CollectDirtyPages() const {
  std::vector<DptEntry> dpt;
  table_.ForEach([this, &dpt](PageId page_id, const uint32_t& frame) {
    const Frame& f = frames_[frame];
    if (PersistentlyDirty(f)) dpt.push_back({page_id, f.rec_lsn});
  });
  // Deterministic checkpoint-record content regardless of table layout.
  std::sort(dpt.begin(), dpt.end(),
            [](const DptEntry& a, const DptEntry& b) {
              return a.page_id < b.page_id;
            });
  return dpt;
}

StatusOr<WriteBackStats> BufferPool::SyncDirtyPagesForCheckpoint(
    IoScheduler* lanes) {
  // WAL before data: the cache runs the force before it writes any offer,
  // and the disk pass below follows it.
  const IoLead force{[this] { return log_->FlushAll(); },
                     lanes != nullptr ? lanes->span_time() : 0};
  std::vector<CheckpointOffer> offers;
  for (PageId page_id : SnapshotResidentPages()) {
    Frame& f = frames_[*table_.Find(page_id)];
    if (!PersistentlyDirty(f)) continue;
    offers.push_back(CheckpointOffer{
        page_id, f.data.get(), f.rec_lsn,
        DeltaWriteHint{&f.tracker, f.flash_version, kNoFlashVersion}, false});
  }
  // Absorb pass. Nothing in it pulls frames from the pool, so the offers'
  // page pointers stay valid until the frames are updated below.
  WriteBackStats out;
  if (cache_->degraded()) {
    FACE_RETURN_IF_ERROR(force.run());
  } else {
    FACE_RETURN_IF_ERROR(cache_->CheckpointPages(&offers, force, lanes, &out));
  }
  FACE_DCHECK(log_->durable_lsn() == log_->next_lsn(),
              "the checkpoint's log force must run before its disk pass");
  // Disk pass: what the cache did not absorb, one lane per page.
  const uint64_t to_disk = static_cast<uint64_t>(
      std::count_if(offers.begin(), offers.end(),
                    [](const CheckpointOffer& o) { return !o.absorbed; }));
  if (to_disk == 0) lanes = nullptr;
  obs::ScopedSpan span("checkpoint", "writeback", lanes != nullptr);
  ScopedIoBatch batch(lanes);
  for (const CheckpointOffer& o : offers) {
    Frame& f = frames_[*table_.Find(o.page_id)];
    if (o.absorbed) {
      MarkAbsorbed(&f, o.hint.new_version);
      continue;
    }
    batch.NextLane();
    FACE_RETURN_IF_ERROR(SyncToDisk(o.page_id, &f));
  }
  if (lanes != nullptr) {
    ++out.batches;
    out.pages += to_disk;
  }
  if (obs::Enabled()) GetPoolObs().ckpt_sync_pages->Add(offers.size());
  return out;
}

void BufferPool::MarkAbsorbed(Frame* f, uint64_t flash_version) {
  // Flash now holds the current copy persistently; still newer than disk.
  // The frame stays resident and equals the just-absorbed flash state:
  // later mutations may delta against it.
  f->fdirty = false;
  f->rec_lsn = kInvalidLsn;
  f->flash_version = flash_version;
  f->tracker.Reset();
}

Status BufferPool::SyncToDisk(PageId page_id, Frame* f) {
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, f->data.get()));
  cache_->OnPageWrittenToDisk(page_id);
  f->dirty = false;
  f->fdirty = false;
  f->rec_lsn = kInvalidLsn;
  f->flash_version = kNoFlashVersion;
  f->tracker.Reset();
  return Status::OK();
}

uint32_t BufferPool::pinned_frames() const {
  uint32_t n = 0;
  for (const auto& f : frames_) {
    if (f.in_use && f.pins > 0) ++n;
  }
  return n;
}

}  // namespace face
