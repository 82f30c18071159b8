// DRAM buffer pool with LRU replacement and the dirty/fdirty flag discipline
// of FaCE §3.3:
//   dirty  — page is newer than its disk copy
//   fdirty — page is newer than its flash-cache copy (or has none)
// On eviction, the page is handed to the configured CacheExtension, which
// decides among flash enqueue, disk write, or discard. WAL-before-data is
// enforced here: the log is forced through the page's LSN before any dirty
// page leaves the buffer.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/intrusive_list.h"
#include "common/page_map.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "sim/scheduler.h"
#include "storage/db_storage.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace face {

class BufferPool;

/// Observer of the logical page-reference stream above the buffer pool:
/// every FetchPage (hit or miss) and every MarkDirty is reported. A test and
/// examples/workload_plugins.cpp fingerprint the stream with it to show
/// that every cache policy sees the same references; null by default.
class PageTraceSink {
 public:
  virtual ~PageTraceSink() = default;
  virtual void OnPageAccess(PageId page_id, bool write) = 0;
};

/// RAII pin on a buffered page. Move-only; unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, uint32_t frame, PageId page_id)
      : pool_(pool), frame_(frame), page_id_(page_id) {}
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle() { Release(); }

  /// Raw page bytes (kPageSize).
  char* data();
  const char* data() const;
  /// Typed header view.
  PageView view() { return PageView(data()); }

  PageId page_id() const { return page_id_; }
  bool valid() const { return pool_ != nullptr; }

  /// Record that the caller modified the page under WAL record `lsn`:
  /// sets dirty+fdirty, initializes the frame's recLSN, stamps the pageLSN.
  /// Marks the whole page changed for the delta tracker — callers that know
  /// the touched span should use MarkDirtyRange so flash write-back can
  /// emit a delta record instead of a full page.
  void MarkDirty(Lsn lsn);

  /// MarkDirty plus the exact byte span modified: feeds the frame's delta
  /// tracker, keeping the page eligible for differential flash write-back.
  void MarkDirtyRange(Lsn lsn, uint32_t offset, uint32_t len);

  /// Drop the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
};

/// Buffer pool; see file comment. Single-threaded.
class BufferPool final : public DramPullSource {
 public:
  struct Stats {
    uint64_t fetches = 0;
    uint64_t hits = 0;           ///< served from DRAM
    uint64_t misses = 0;
    uint64_t disk_fetches = 0;   ///< misses served from disk
    uint64_t flash_fetches = 0;  ///< misses served from the flash cache
    uint64_t evictions = 0;
    uint64_t dirty_evictions = 0;
    uint64_t new_pages = 0;
    uint64_t pulls = 0;          ///< victims pulled by the cache (GSC)
  };

  /// `capacity_frames` pages of DRAM. All pointers must outlive the pool.
  BufferPool(uint32_t capacity_frames, DbStorage* storage, LogManager* log,
             CacheExtension* cache);
  ~BufferPool() override;

  /// Pin `page_id`, faulting it from flash or disk as needed. Returns
  /// NotFound for virgin pages (never written anywhere).
  StatusOr<PageHandle> FetchPage(PageId page_id);

  /// Allocate and pin a fresh zero page (bump allocator).
  StatusOr<PageHandle> NewPage();

  /// Like FetchPage but a virgin page is materialized as a formatted zero
  /// page — the redo path's "create on demand".
  StatusOr<PageHandle> FetchPageForRedo(PageId page_id);

  /// Write every dirty frame straight to disk (clean shutdown / tests).
  /// Bypasses the cache policy.
  Status FlushAllToDisk();

  /// Evict every unpinned frame through the normal cache pipeline (tests).
  Status EvictAll();

  /// Write the listed pages' dirty resident frames to disk and mark them
  /// clean (flash rebuild: redo-reconstructed pages become durable on
  /// disk). Non-resident or clean pages are skipped. WAL forced first.
  Status FlushPagesToDisk(const std::vector<PageId>& pages);

  /// Dirty-page table for a checkpoint: frames whose persistent copy
  /// (disk, or flash for persistent caches) is stale.
  std::vector<DptEntry> CollectDirtyPages() const;

  /// Checkpoint step: offer the persistently-dirty frames, in page order,
  /// to the cache (CacheExtension::CheckpointPages), then write the ones it
  /// did not absorb to disk. The cache forces the WAL before it writes any
  /// offer. `lanes` non-null (a timed checkpoint, inside an open span): the
  /// cache may batch the writes its admissions trigger, its force among
  /// them, and the disk writes run one lane per page. Null: the same
  /// writes, one after another. Returns the lane-batched writes.
  StatusOr<WriteBackStats> SyncDirtyPagesForCheckpoint(
      IoScheduler* lanes = nullptr);

  /// DramPullSource: surrender an unpinned LRU-tail page to the cache.
  PageId PullVictim(char* page, bool* dirty, bool* fdirty,
                    Lsn* rec_lsn) override;

  /// Flash-loss transition step: write every dirty frame whose only redo
  /// protection was its flash copy (dirty, recLSN invalid — fetched dirty
  /// from a persistent cache and unmodified since) straight to disk, and
  /// drop all frames' flash delta bases (the flash state is gone). WAL
  /// forced first. Frames stay resident.
  Status FlushUnprotectedFrames();

  /// Attach/detach the page-reference observer (null = off). The sink sees
  /// logical references (DRAM hits included), not device I/O.
  void set_trace_sink(PageTraceSink* sink) { trace_ = sink; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }
  uint32_t capacity() const { return static_cast<uint32_t>(frames_.size()); }
  uint32_t pages_in_pool() const { return static_cast<uint32_t>(table_.size()); }
  /// True if `page_id` occupies a frame (a fetch would hit DRAM).
  bool IsResident(PageId page_id) const { return table_.Contains(page_id); }
  CacheExtension* cache() { return cache_; }

  /// Number of currently pinned frames (test hook).
  uint32_t pinned_frames() const;

  /// Page ids currently resident (stable snapshot for iteration).
  std::vector<PageId> SnapshotResidentPages() const;

 private:
  friend class PageHandle;

  struct Frame {
    std::unique_ptr<char[]> data;
    PageId page_id = kInvalidPageId;
    uint32_t pins = 0;
    bool dirty = false;
    bool fdirty = false;
    Lsn rec_lsn = kInvalidLsn;  ///< first LSN to have dirtied the page since
                                ///< its persistent copy was last current
    bool in_use = false;
    IntrusiveLinks lru;  ///< LRU chain links (head = most recent)
    /// Flash version the frame's bytes were loaded from / last written as
    /// (kNoFlashVersion when flash holds no delta-capable copy), plus the
    /// byte regions modified since. Together they let the cache policy
    /// write back a delta record instead of a full 4 KB page.
    uint64_t flash_version = kNoFlashVersion;
    PageDeltaTracker tracker;
  };

  /// Link accessor for the intrusive LRU over frames_.
  auto FrameLinks() {
    return [this](uint32_t i) -> IntrusiveLinks& { return frames_[i].lru; };
  }

  /// Free a frame for reuse, evicting the LRU-tail victim if needed.
  StatusOr<uint32_t> GetFreeFrame();
  /// Unlink the unpinned LRU frame `frame` and evict it. On failure the
  /// frame is back in the pool: on the free list if the eviction released
  /// it, else still resident in the LRU.
  Status EvictVictim(uint32_t frame);
  /// Evict `frame` through the cache pipeline (caller removed it from LRU).
  Status EvictFrame(uint32_t frame);
  /// Checkpoint sync of one frame: the cache absorbed it at
  /// `flash_version`.
  void MarkAbsorbed(Frame* f, uint64_t flash_version);
  /// The pool's one frame-to-disk routine (checkpoint sync, shutdown, flash
  /// rebuild, the flash-loss flush): write the frame, tell the cache, mark
  /// the frame clean.
  Status SyncToDisk(PageId page_id, Frame* f);
  /// True if the frame's persistent copy is stale (belongs in the DPT).
  bool PersistentlyDirty(const Frame& f) const {
    return f.dirty && f.rec_lsn != kInvalidLsn;
  }

  std::vector<Frame> frames_;
  std::vector<uint32_t> free_list_;
  PageMap<uint32_t> table_;  ///< page id -> frame index
  IntrusiveList lru_;

  DbStorage* storage_;
  LogManager* log_;
  CacheExtension* cache_;
  PageTraceSink* trace_ = nullptr;
  Stats stats_;
};

/// Every BufferPool::Stats counter, the one field list that run deltas and
/// shard merges walk.
inline constexpr uint64_t BufferPool::Stats::*kPoolCounters[] = {
    &BufferPool::Stats::fetches,       &BufferPool::Stats::hits,
    &BufferPool::Stats::misses,        &BufferPool::Stats::disk_fetches,
    &BufferPool::Stats::flash_fetches, &BufferPool::Stats::evictions,
    &BufferPool::Stats::dirty_evictions, &BufferPool::Stats::new_pages,
    &BufferPool::Stats::pulls};
static_assert(sizeof(BufferPool::Stats) ==
                  std::size(kPoolCounters) * sizeof(uint64_t),
              "kPoolCounters must list every BufferPool::Stats field");

}  // namespace face
