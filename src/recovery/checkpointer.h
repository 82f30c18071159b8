// Database checkpointing with cache-policy routing (paper §4.1).
//
// A checkpoint bounds redo work by making dirty pages persistent. Where
// they become persistent depends on the cache policy:
//   - FaCE: dirty DRAM pages are *enqueued to the flash cache* (sequential
//     writes) and flash-resident pages are never subject to checkpointing —
//     the flash cache is inside the persistent database.
//   - LC: the flash cache is volatile metadata-wise, so its dirty pages
//     must first be staged to disk (PrepareCheckpoint), then DRAM dirty
//     pages are written to disk too. This is the checkpointing cost the
//     paper charges to LC.
//   - none: no cache; DRAM dirty pages go to disk.
// The sequence is PostgreSQL-flavored, one log force and one control-block
// write per checkpoint: log CHECKPOINT_BEGIN carrying the DPT/ATT/allocator,
// force the log, sync every dirty page, then point the control block at
// BEGIN. The control-block write is the commit point: redo after a crash
// starts at the BEGIN it names, and a crash before it falls back to the
// previous checkpoint. The checkpoint is sharp, not fuzzy: every page dirty
// at BEGIN is synced before the control block advances.
//
// A timed checkpoint passes the scheduler of its open span: restart's final
// checkpoint, and the testbed's runtime checkpoints on their own token
// (Testbed::TakeCheckpoint). Its independent writes run as I/O lane batches
// (BufferPool::SyncDirtyPagesForCheckpoint):
//   - FaCE, every flavor, absorbs the dirty set at once. It first plans all
//     the room it needs: the full frames, and the tip images of the delta
//     chains its delta appends would displace from the ring. Then one
//     batch makes that room. The sync's log force is its first lane (a
//     destage needs no force; sim/scheduler.h), and each destage of a
//     front frame (and each read of a survivor or tip image) its own. So
//     no timed checkpoint destages a frame outside a lane
//     (Stats::serial_destages stays 0);
//   - the pages no cache absorbs go to disk one lane each, after the force.
// Closing a batch is the barrier: FaCE's frame writes and delta appends and
// the control-block write all start after the last lane ended. Lanes queue
// on each station like any request, so a runtime checkpoint's lanes wait
// behind the clients' requests issued before them. Without a scheduler
// (setup, clean shutdown, direct calls) the same plan and writes run one
// after another.
#pragma once

#include <cstdint>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace face {

/// Checkpoint orchestrator; see file comment.
class Checkpointer {
 public:
  struct Stats {
    uint64_t checkpoints = 0;
    uint64_t dpt_pages = 0;  ///< dirty pages captured across all checkpoints
    uint64_t writeback_batches = 0;  ///< lane batches (timed checkpoints)
    uint64_t writeback_pages = 0;    ///< page writes in them
    /// The cache's destages outside every lane batch (all of an untimed
    /// checkpoint's; none of a timed checkpoint's, by design).
    uint64_t serial_destages = 0;
    uint64_t reclaimed_chains = 0;  ///< WriteBackStats::reclaimed_chains
  };

  Checkpointer(LogManager* log, BufferPool* pool, TransactionManager* txns,
               DbStorage* storage, CacheExtension* cache)
      : log_(log), pool_(pool), txns_(txns), storage_(storage),
        cache_(cache) {}

  /// Run one full checkpoint; returns the BEGIN record's LSN (the redo
  /// point a subsequent restart will use). `lanes` non-null (a timed
  /// checkpoint, with an open span): write the dirty pages back as lane
  /// batches.
  StatusOr<Lsn> TakeCheckpoint(IoScheduler* lanes = nullptr);

  const Stats& stats() const { return stats_; }

 private:
  LogManager* log_;
  BufferPool* pool_;
  TransactionManager* txns_;
  DbStorage* storage_;
  CacheExtension* cache_;
  Stats stats_;
};

}  // namespace face
