// Crash recovery (paper §4.2): ARIES-style analysis / redo / undo, with the
// flash cache restored *first* so that page fetches during redo and undo hit
// flash instead of disk — the mechanism behind the paper's 4x-faster restart
// (Table 6) and its ">98% of recovery pages came from flash" observation.
//
// Restart sequence:
//      read the log's control block once: the last checkpoint's LSN and the
//      degraded marker decide how steps 0, 1 and 3 run
//   0. attach to the durable log: scan from the checkpoint to the valid end
//      of log through the restart's one LogReader, which keeps every window
//      it reads (wal/log_manager.h)
//   1. restore the cache extension's metadata (FaCE: persisted segments +
//      bounded raw-frame scan; TAC: slot directory sweep; LC/none: cold).
//      Steps 0 and 1 read different devices (log disk, flash), so they run
//      as two lanes of one scheduler lane batch and overlap. FaCE's delta
//      chains wait for step 3
//   2. analysis: scan from the last complete checkpoint's BEGIN, building
//      the loser-transaction table. It decodes the range step 0 read, so it
//      costs no device I/O and no virtual time
//   3. redo: replay history from the checkpoint (pageLSN test makes
//      replaying idempotent), reading ahead: the log is decoded a window at
//      a time and each window's non-resident pages are fetched as one
//      scheduler lane batch, so the reads overlap across the disk array's
//      spindles and the flash device (recovery/redo.h). The first batch's
//      first lane finishes the cache's restore (CacheExtension::
//      FinishRecovery: FaCE reads its delta ring and re-attaches the
//      chains), continuing step 1's lane, so the ring read overlaps the log
//      scan and redo's disk fetches, and every flash fetch queues behind
//      it. A record whose
//      page's persistent cached copy (the directory step 1 restored)
//      already holds it is skipped without a fetch, so the post-checkpoint
//      work FaCE already put on flash costs restart nothing. A degraded
//      restart trusts no cached copy and skips nothing. Redo decodes
//      through the same reader, so the log range is not read again
//   4. undo: roll back losers in reverse-LSN order, logging CLRs. An
//      update record carries before XOR after, so undo XORs it out of the
//      page and logs the restored before image as the CLR's. Records
//      at or above the checkpoint come from the reader's windows; a loser
//      chain reaching below them refills backwards, one window per 256 KB.
//      Undo does not force the log: step 5 does, and the WAL rule forces it
//      before any page a CLR dirtied leaves the pool
//   5. final checkpoint, so a crash during recovery never lengthens the log:
//      one log force and the control-block write. Its independent writes
//      run as scheduler lane batches: the pages no cache absorbs go to disk
//      one lane each, after the force; FaCE's batch runs the force as its
//      first lane, beside the destages of the front frames it makes room
//      from, one lane each, then writes the absorbed frames and its delta
//      records after the batch closed. The control block is written last
//      (recovery/checkpointer.h)
// So a restart reads each log block at most once, and its log reads grow
// once with the log written since the last checkpoint.
// Every phase's virtual time is reported separately.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "recovery/checkpointer.h"
#include "sim/scheduler.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace face {

/// A prepared (2PC) transaction whose fate this shard's log alone cannot
/// decide: its vote is durable but no local completion record follows.
/// Resolution needs the union of GlobalCommit decisions across shards.
struct InDoubtTxn {
  TxnId txn_id = kInvalidTxnId;
  uint64_t gtid = 0;
  Lsn last_lsn = kInvalidLsn;  ///< undo-chain head if the decision is abort
};

/// Outcome and cost breakdown of one restart.
struct RestartReport {
  Lsn checkpoint_lsn = kInvalidLsn;  ///< last complete checkpoint's BEGIN
  /// The control block said the crash happened while the flash cache was
  /// lost: the cache metadata was not restored (the device's contents are
  /// untrusted) and the system comes up serving disk-only.
  bool degraded = false;
  uint64_t analysis_records = 0;
  Lsn redo_lsn = kInvalidLsn;  ///< where redo started (checkpoint, or a
                               ///< lower rebuild floor after a degraded crash)
  uint64_t redo_records = 0;   ///< update/CLR records examined
  uint64_t redo_applied = 0;   ///< records whose effects were re-applied
  /// Records skipped without a fetch: the page was not resident and its
  /// persistent cached copy already held the effect (recovery/redo.h).
  uint64_t redo_skipped = 0;
  uint64_t losers = 0;         ///< transactions rolled back
  uint64_t undo_records = 0;   ///< records undone (CLRs written)
  uint64_t pages_fetched = 0;  ///< buffer misses during recovery
  uint64_t pages_from_flash = 0;
  uint64_t pages_from_disk = 0;
  uint64_t readahead_batches = 0;  ///< redo windows fetched as a lane batch
  uint64_t readahead_pages = 0;    ///< redo pages fetched by read-ahead
  uint64_t writeback_batches = 0;  ///< restart-checkpoint lane batches
  uint64_t writeback_pages = 0;    ///< page writes in them, one lane each
  /// Restart-checkpoint destages of cache frames outside a lane batch.
  uint64_t serial_destages = 0;
  /// Delta chains the restart checkpoint rewrote as full frames before its
  /// delta appends reused their ring slots.
  uint64_t reclaimed_chains = 0;
  /// Distinct pages redo skipped because the flash copy covered them, and
  /// never fetched.
  uint64_t redo_skipped_pages = 0;

  /// 2PC: prepared transactions awaiting a cross-shard decision (withheld
  /// from undo, re-registered active, still covered by checkpoints) and
  /// the GlobalCommit decisions this shard's log recorded.
  std::vector<InDoubtTxn> in_doubt;
  /// Sorted + deduplicated (analysis normalizes it; binary-search friendly).
  std::vector<uint64_t> decided_gtids;

  /// Steps 0-1's span less meta_restore_ns: the control-block read, plus
  /// the part of the end-of-log scan that outlasts the metadata restore.
  /// FaCE's delta-ring read, redo's lead lane, starts where the metadata
  /// restore ended and runs beside that part of the scan, and redo's flash
  /// fetches queue behind it. So this share is not time a shorter scan
  /// would save the restart.
  SimNanos attach_ns = 0;
  /// The cache-extension metadata restore's own duration (its lane starts
  /// with the log scan's, so the two overlap). FaCE's delta-ring read is
  /// not in it: redo's first batch waits for that read (redo_ns).
  SimNanos meta_restore_ns = 0;
  SimNanos analysis_ns = 0;
  SimNanos redo_ns = 0;
  SimNanos undo_ns = 0;
  SimNanos checkpoint_ns = 0;  ///< final checkpoint
  SimNanos total_ns = 0;

  /// Fraction of recovery page fetches served by the flash cache.
  double FlashFetchFraction() const {
    return pages_fetched
               ? static_cast<double>(pages_from_flash) /
                     static_cast<double>(pages_fetched)
               : 0.0;
  }
  /// Fraction of the pages recovery needed that the flash cache served:
  /// fetched from flash, or skipped by redo because the flash copy already
  /// held every record (paper Table 6: ">98% of recovery pages").
  double FlashPageFraction() const {
    const uint64_t pages = pages_fetched + redo_skipped_pages;
    return pages ? static_cast<double>(pages_from_flash + redo_skipped_pages) /
                       static_cast<double>(pages)
                 : 0.0;
  }

  std::string ToString() const;
};

/// Restart orchestrator; see file comment. Construct over *fresh* DRAM
/// structures (buffer pool, transaction manager) and *surviving* devices.
class RestartManager {
 public:
  /// `sched` may be null (tests that do not care about virtual time).
  /// `bg_token` is the scheduler background token recovery runs on.
  RestartManager(LogManager* log, BufferPool* pool, TransactionManager* txns,
                 DbStorage* storage, CacheExtension* cache,
                 IoScheduler* sched = nullptr, uint32_t bg_token = 0)
      : log_(log), pool_(pool), txns_(txns), storage_(storage),
        cache_(cache), sched_(sched), bg_token_(bg_token),
        reader_(log->device()) {}

  /// Run full crash recovery. On success the system is consistent: all
  /// committed work is present, all loser work is rolled back — except
  /// prepared (2PC) transactions, which are left in-doubt in the report
  /// and re-registered active; resolve them with ResolveInDoubt() once
  /// every shard's decisions are known.
  StatusOr<RestartReport> Run();

  /// Resolve recovered in-doubt transactions against `decided` (the union
  /// of every shard's decided_gtids, sorted ascending): commit those whose
  /// gtid was decided (their effects are already in place from redo), roll
  /// the rest back via log-driven undo with CLRs (presumed abort).
  /// Finishes with a checkpoint so the resolved state is the new recovery
  /// floor.
  Status ResolveInDoubt(const std::vector<InDoubtTxn>& in_doubt,
                        const std::vector<uint64_t>& decided,
                        RestartReport* report);

 private:
  /// All phases, run inside the scheduler span opened by Run().
  Status RunPhases(RestartReport* report);
  /// Step 1: restore the cache metadata, or mark the cache degraded when
  /// the control record says flash was lost before the crash.
  Status RestoreCacheMetadata(const WalControlInfo& ctrl);
  /// Step 3's first lane: CacheExtension::FinishRecovery with the dirty
  /// floor the control record implies.
  Status FinishCacheRecovery(const WalControlInfo& ctrl);
  Status Analysis(RestartReport* report, Lsn ckpt_lsn,
                  std::map<TxnId, Lsn>* losers);
  Status Undo(RestartReport* report, std::map<TxnId, Lsn>* losers);

  /// Current virtual time of the active recovery span (0 without sched).
  SimNanos SpanTime() const {
    return sched_ != nullptr ? sched_->span_time() : 0;
  }

  LogManager* log_;
  BufferPool* pool_;
  TransactionManager* txns_;
  DbStorage* storage_;
  CacheExtension* cache_;
  IoScheduler* sched_;
  uint32_t bg_token_;
  /// Attach, analysis, redo and undo share one log reader, which keeps every
  /// window it reads: the attach scan reads the range from the checkpoint
  /// to the end of log once, and the later phases decode it from memory.
  /// Undo reads only records that were durable before the crash, so the
  /// CLRs it appends never make a cached window stale.
  LogReader reader_;
  /// Prepared transactions seen by analysis (txn id -> gtid).
  std::map<TxnId, uint64_t> prepared_;
};

}  // namespace face
