// The cache-extension contract between the DRAM buffer pool and a flash
// caching policy. Section 3.2 of the FaCE paper frames every design as a
// point in (when: entry/exit) x (what: clean/dirty/both) x (sync:
// write-through/write-back) x (replacement) space; this interface carries
// exactly the events needed to express all of them:
//
//   - OnDramEvict     : a page leaves the DRAM buffer (on-exit policies)
//   - OnFetchFromDisk : a page enters DRAM from disk (on-entry policies)
//   - ReadPage        : DRAM miss served from flash
//   - PrepareCheckpoint / CheckpointPages / OnCheckpoint : database
//     checkpoint integration (who absorbs dirty pages, who must flush)
//   - Format / Forget / RecoverAfterCrash / FinishRecovery : the lifecycle
//     (below)
//
// Lifecycle. A policy writes two bodies: Forget drops every DRAM structure
// with no device I/O, and Format is a cold start on a blank or replaced
// device (Forget, then whatever on-flash structure the policy persists).
// The base class decides the rest once: a restart defaults to Format (the
// directory died with DRAM; FaCE and TAC override it to restore theirs), a
// flash loss sets the degraded flag and Forgets, and a re-attach clears the
// flag and Formats. A restart runs in two steps: RecoverAfterCrash before
// analysis restores the directory, and FinishRecovery, the first lane of
// redo's first read-ahead batch, restores what a policy deferred to overlap
// redo's disk fetches (FaCE's delta chains; recovery/redo.h). Nothing reads
// a cached copy between the two.
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/page_delta.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/scheduler.h"

namespace face {

/// Lets a cache pull extra victim pages from the DRAM buffer's LRU tail to
/// fill a write batch — the "pulling page frames" device of Group Second
/// Chance (paper §3.3). Implemented by BufferPool.
class DramPullSource {
 public:
  virtual ~DramPullSource() = default;

  /// Evict one unpinned page from the LRU tail: copies its kPageSize bytes
  /// into `page`, reports its dirty/fdirty flags and recLSN as of eviction,
  /// and frees the frame. Returns kInvalidPageId if nothing is evictable.
  /// The WAL is forced as needed before the page is surrendered.
  virtual PageId PullVictim(char* page, bool* dirty, bool* fdirty,
                            Lsn* rec_lsn) = 0;
};

/// A page whose newest committed version lives only on the flash cache —
/// the durability exposure FaCE's persistent write-back creates. Collected
/// at degradation time (and by the scrubber for unrepairable dirty frames)
/// so targeted WAL redo can rebuild the disk copy.
struct FlashOnlyPage {
  PageId page_id = kInvalidPageId;
  Lsn redo_lsn = kInvalidLsn;  ///< redo from at/below this LSN rebuilds it
};

/// One scrub pass's findings (see CacheExtension::ScrubSome).
struct ScrubResult {
  uint64_t frames_scanned = 0;
  uint64_t clean_repaired = 0;  ///< rotten clean frames re-read from disk
  /// Rotten *dirty* frames had the only valid copy; they are dropped from
  /// the cache and reported here for WAL-driven rebuild by the caller.
  std::vector<FlashOnlyPage> lost_dirty;
};

/// Counters every policy maintains; benches derive the paper's hit-rate,
/// write-reduction, and traffic numbers from these.
struct CacheStats {
  uint64_t lookups = 0;          ///< DRAM-miss probes
  uint64_t hits = 0;             ///< probes served from flash
  uint64_t dirty_evictions = 0;  ///< dirty pages leaving DRAM (would each
                                 ///< cost a disk write with no cache)
  uint64_t disk_writes = 0;      ///< disk page writes this cache issued
  uint64_t disk_reads = 0;       ///< disk page reads this cache issued
  uint64_t flash_writes = 0;     ///< flash page writes (any pattern)
  uint64_t flash_reads = 0;      ///< flash page reads
  uint64_t enqueues = 0;         ///< admissions into the cache
  uint64_t invalidations = 0;    ///< versions/copies invalidated in place
  uint64_t second_chances = 0;   ///< GSC re-enqueues
  uint64_t pulled_from_dram = 0; ///< victims pulled to fill batches
  uint64_t meta_flash_writes = 0;///< persistent-metadata page writes
  uint64_t delta_records = 0;    ///< page refreshes served by delta records
  uint64_t delta_record_bytes = 0; ///< encoded bytes across those records
  uint64_t delta_block_writes = 0; ///< shared delta-ring block writes
  uint64_t delta_consolidations = 0; ///< forced full writes on slot reuse

  /// Flash hit ratio over all DRAM misses (Table 3a).
  double HitRate() const {
    return lookups ? static_cast<double>(hits) / lookups : 0.0;
  }
  /// Fraction of dirty evictions that did not (yet) become disk writes
  /// (Table 3b: "write reduction").
  double WriteReduction() const {
    if (dirty_evictions == 0) return 0.0;
    const double w = static_cast<double>(disk_writes);
    const double d = static_cast<double>(dirty_evictions);
    return w >= d ? 0.0 : 1.0 - w / d;
  }
};

/// Every CacheStats counter, the one field list that run deltas and shard
/// merges walk.
inline constexpr uint64_t CacheStats::*kCacheCounters[] = {
    &CacheStats::lookups,           &CacheStats::hits,
    &CacheStats::dirty_evictions,   &CacheStats::disk_writes,
    &CacheStats::disk_reads,        &CacheStats::flash_writes,
    &CacheStats::flash_reads,       &CacheStats::enqueues,
    &CacheStats::invalidations,     &CacheStats::second_chances,
    &CacheStats::pulled_from_dram,  &CacheStats::meta_flash_writes,
    &CacheStats::delta_records,     &CacheStats::delta_record_bytes,
    &CacheStats::delta_block_writes, &CacheStats::delta_consolidations};
static_assert(sizeof(CacheStats) ==
                  std::size(kCacheCounters) * sizeof(uint64_t),
              "kCacheCounters must list every CacheStats field");

/// Result of a flash read on the DRAM-miss path.
struct FlashReadResult {
  bool dirty = false;   ///< flash copy is newer than the disk copy
  /// The recLSN the DRAM frame takes (ARIES DPT). A volatile write-back
  /// cache (LC) returns the conservative recLSN it remembered for a dirty
  /// copy. kInvalidLsn for a clean copy, and always from a persistent cache
  /// (FaCE): its flash copy is part of the durable database and needs no
  /// redo protection.
  Lsn rec_lsn = kInvalidLsn;
  /// Version tag of the flash state the page was served from (chain tip for
  /// delta-capable policies). The buffer pool remembers it per frame; a
  /// later write-back may emit a delta record only against this exact
  /// version. kNoFlashVersion = policy cannot delta against this copy.
  uint64_t flash_version = kNoFlashVersion;
};

/// Write-back context for the delta path, passed by the buffer pool on
/// eviction and checkpoint offers. `tracker` describes which bytes changed
/// since the frame matched flash version `flash_version`; a policy that
/// appends a delta record (instead of a full page) reports the resulting
/// chain tip in `new_version` so the caller can keep the frame delta-capable
/// (checkpoint absorption keeps the frame in DRAM).
struct DeltaWriteHint {
  const PageDeltaTracker* tracker = nullptr;
  uint64_t flash_version = kNoFlashVersion;
  uint64_t new_version = kNoFlashVersion;  ///< out: tip after the write
};

/// One page of a checkpoint's dirty set, offered through
/// CacheExtension::CheckpointPages. `rec_lsn` is the frame's recLSN
/// (absorbing policies track it as the page's WAL rebuild floor — the disk
/// copy stays stale). `hint` is as in OnDramEvict: an absorbing policy fills
/// hint.new_version so the frame (which stays in DRAM) remains
/// delta-capable.
struct CheckpointOffer {
  PageId page_id = kInvalidPageId;
  char* page = nullptr;
  Lsn rec_lsn = kInvalidLsn;
  DeltaWriteHint hint;
  bool absorbed = false;  ///< out: the cache holds the page persistently
};

/// Page writes a checkpoint issued as scheduler I/O lane batches.
struct WriteBackStats {
  uint64_t batches = 0;  ///< lane batches opened
  uint64_t pages = 0;    ///< page writes in them, one lane each
  /// Of `pages`, the cache's destages of its own frames to disk.
  uint64_t destages = 0;
  /// Delta chains the cache rewrote as full frames before its appends
  /// reused their ring slots.
  uint64_t reclaimed_chains = 0;
};

/// A flash caching policy. Single-threaded, like the rest of the engine.
class CacheExtension {
 public:
  virtual ~CacheExtension() = default;

  /// Short policy name for reports ("FaCE+GSC", "LC", ...).
  virtual const char* name() const = 0;

  /// True if the valid copy of `page_id` is cached.
  virtual bool Contains(PageId page_id) const = 0;

  /// pageLSN of the persistent cached copy of `page_id` a fetch would read
  /// (delta chain applied), or kInvalidLsn for none — the default, right
  /// for every cache whose contents do not survive a crash. Restart redo
  /// skips, without a fetch, a record of a non-resident page whose copy is
  /// at or above the record's LSN (recovery/redo.h), so a policy must
  /// answer "none" whenever a fetch would not read exactly that copy
  /// (a degraded policy has forgotten every copy).
  virtual Lsn PersistentCopyLsn(PageId page_id) const {
    (void)page_id;
    return kInvalidLsn;
  }

  /// Copy the valid cached copy of `page_id` into `out`. Caller must have
  /// checked Contains. Charges flash read I/O.
  virtual StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) = 0;

  /// A page evicted from DRAM. `dirty`: newer than disk; `fdirty`: newer
  /// than the flash copy (if any). `page` is mutable so the policy can
  /// stamp checksums in place before writing to flash. `rec_lsn` is the
  /// frame's recLSN at eviction (for non-persistent write-back caches).
  /// `hint` (optional) enables the page-differential path: when the frame's
  /// tracked regions are small and its version matches the policy's chain
  /// tip, the policy may append a delta record instead of a full page.
  virtual Status OnDramEvict(PageId page_id, char* page, bool dirty,
                             bool fdirty, Lsn rec_lsn,
                             DeltaWriteHint* hint = nullptr) = 0;

  /// A page was just fetched from disk on a DRAM miss (on-entry policies
  /// admit here; on-exit policies ignore it). A policy that admitted the
  /// page reports the flash version it can later delta against through
  /// `admitted_version` (left untouched otherwise).
  virtual Status OnFetchFromDisk(PageId page_id, const char* page,
                                 uint64_t* admitted_version = nullptr) {
    (void)page_id;
    (void)page;
    (void)admitted_version;
    return Status::OK();
  }

  /// Called before the checkpoint record is logged. LC flushes its
  /// flash-resident dirty pages to disk here (the checkpointing cost the
  /// paper charges to LC).
  virtual Status PrepareCheckpoint() { return Status::OK(); }

  /// Offer a checkpoint's dirty set to the cache. A policy sets `absorbed`
  /// on each offer it holds persistently (FaCE enqueues to flash); the
  /// caller writes every other offer to disk once this returns. `force`
  /// forces the log: a policy runs it once, before it writes any offered
  /// page (WAL before data). The default runs the force and absorbs
  /// nothing. Without a scheduler (every runtime checkpoint) a policy runs
  /// the force, then absorbs the offers one after another, in order. With
  /// the recovery scheduler (restart's checkpoints, inside its open span) a
  /// policy may issue the independent writes its admissions trigger as lane
  /// batches (ScopedIoBatch), adding them to `stats`, and may run the force
  /// as the first lane of one, beside writes that need no force
  /// (sim/scheduler.h).
  virtual Status CheckpointPages(std::vector<CheckpointOffer>* offers,
                                 const IoLead& force, IoScheduler* lanes,
                                 WriteBackStats* stats) {
    (void)offers;
    (void)lanes;
    (void)stats;
    return force.run();
  }

  /// Called after all dirty pages are synced, before the control block
  /// names the checkpoint.
  virtual Status OnCheckpoint() { return Status::OK(); }

  /// The buffer pool wrote `page_id` to disk directly (checkpoint path of
  /// non-absorbing policies, clean shutdown). A cached copy is stale now:
  /// write-back caches drop it.
  virtual void OnPageWrittenToDisk(PageId page_id) { (void)page_id; }

  /// Cold start on a blank or replaced device: Forget, then lay down the
  /// policy's on-flash structure (superblock, slot directory, delta-ring
  /// header). Default: Forget alone.
  virtual Status Format() {
    Forget();
    return Status::OK();
  }

  /// Drop every DRAM structure (directory, replacement order, delta chains,
  /// staged frames) without device I/O: afterwards nothing is cached.
  virtual void Forget() = 0;

  /// Restart after a crash: restore persistent metadata (FaCE/TAC) or, by
  /// default, Format cold. Charges recovery I/O.
  virtual Status RecoverAfterCrash() { return Format(); }

  /// Restart's second step (see the file comment): finish what
  /// RecoverAfterCrash left for redo's first read-ahead batch, and lower
  /// every restored dirty entry's WAL rebuild floor to `dirty_floor` (the
  /// flash redo floor the control block persisted; kInvalidLsn = none).
  /// The exact per-page floors died with the process; the persisted minimum
  /// is a safe lower bound for every page that was dirty before the crash.
  /// Never called while degraded. Default: nothing to do.
  virtual Status FinishRecovery(Lsn dirty_floor) {
    (void)dirty_floor;
    return Status::OK();
  }

  /// Deferred maintenance (LC's lazy cleaner). The driver runs this on a
  /// background token between transactions while HasBackgroundWork().
  virtual Status RunBackgroundWork() { return Status::OK(); }
  virtual bool HasBackgroundWork() const { return false; }

  /// Wire the DRAM pull source (GSC batch filling). Optional.
  virtual void SetPullSource(DramPullSource* source) { (void)source; }

  // --- degraded disk-only mode ----------------------------------------------
  // When the flash device is declared lost, the supervisor collects the
  // flash-only dirty set (for WAL rebuild), then enters degraded mode. While
  // degraded the buffer pool treats the policy like NullCache: no Contains,
  // no ReadPage, no admissions. Having forgotten everything, the policy has
  // no background work and nothing to scrub, so nothing touches the flash
  // device — it is gone.

  /// True while serving disk-only after a flash loss.
  bool degraded() const { return degraded_; }

  /// Stop serving from flash: set the flag and Forget. Also a restart's
  /// answer to a control block that says the crash happened while degraded
  /// (the possibly replaced flash must not be trusted). Callers needing the
  /// flash-only dirty set must CollectFlashOnlyDirty BEFORE this.
  void EnterDegraded() {
    degraded_ = true;
    Forget();
  }

  /// Append every page whose newest version lives only on flash, with its
  /// WAL rebuild floor, sorted by page id. Empty for write-through
  /// policies, whose flash never outruns the disk copy.
  virtual void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const {
    (void)out;
  }

  /// Lowest WAL LSN still needed to rebuild any flash-only dirty page
  /// (kInvalidLsn = none): the minimum over CollectFlashOnlyDirty. The
  /// checkpointer must not truncate the log above this while the policy
  /// holds dirty pages the disk has never seen.
  Lsn FlashRedoFloor() const {
    std::vector<FlashOnlyPage> pages;
    CollectFlashOnlyDirty(&pages);
    Lsn floor = kInvalidLsn;
    for (const FlashOnlyPage& p : pages) {
      if (p.redo_lsn != kInvalidLsn &&
          (floor == kInvalidLsn || p.redo_lsn < floor)) {
        floor = p.redo_lsn;
      }
    }
    return floor;
  }

  /// Re-attach a healthy (erased) flash device after degradation: clear
  /// the flag and Format, so admission resumes cold. The caller owns device
  /// health (injector disarm + SimDevice::ResetHealth) and the control
  /// block marker.
  Status ReattachFlash() {
    degraded_ = false;
    return Format();
  }

  /// Background scrub: verify up to `max_frames` occupied flash frames
  /// (rotating cursor), repair rotten clean frames from the durable home,
  /// drop rotten dirty frames and report them in `out->lost_dirty` for
  /// WAL-driven rebuild. Default: nothing to scrub.
  virtual Status ScrubSome(uint64_t max_frames, ScrubResult* out) {
    (void)max_frames;
    (void)out;
    return Status::OK();
  }

  /// Expensive internal-consistency audit for tests.
  virtual Status CheckInvariants() const { return Status::OK(); }
  /// The cache audit after a restart: CheckInvariants, plus whatever
  /// read-back of the frames a policy offers. Returns the frames read back.
  virtual StatusOr<uint64_t> AuditFrames() {
    FACE_RETURN_IF_ERROR(CheckInvariants());
    return uint64_t{0};
  }

  /// Account one DRAM-miss probe (called by the buffer pool so every policy
  /// shares the same hit-rate denominator, Table 3a's "all DRAM misses").
  void RecordProbe(bool hit) {
    ++stats_.lookups;
    if (hit) ++stats_.hits;
  }

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats(); }

 protected:
  CacheStats stats_;
  bool degraded_ = false;
};

/// The no-cache configuration (HDD-only / SSD-only): dirty evictions go
/// straight to disk; reads always miss.
class NullCache final : public CacheExtension {
 public:
  /// `storage` is where dirty evictions are written; see DbStorage.
  explicit NullCache(class DbStorage* storage) : storage_(storage) {}

  const char* name() const override { return "none"; }
  bool Contains(PageId) const override { return false; }
  StatusOr<FlashReadResult> ReadPage(PageId, char*) override {
    return Status::NotFound("null cache holds nothing");
  }
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  void Forget() override {}

 private:
  class DbStorage* storage_;
};

}  // namespace face
