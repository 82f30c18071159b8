// Targeted WAL redo after a flash loss.
//
// With a persistent write-back cache (FaCE), the newest version of a dirty
// page may live only on flash — that is the paper's durability argument:
// flash is part of the persistent database. When the flash device is
// declared lost, those versions are gone, but every *committed* update to
// them is still in the WAL at or above the page's durability-exposure floor
// (the recLSN the page had when it was first admitted dirty to flash — see
// FaCE's queue entry `since` / the FrameStore per-frame recLSN under LC).
//
// This component reruns ARIES redo on the LIVE engine, scoped to exactly
// that lost set: one WAL scan from the minimum floor (LogReader::Scan)
// keeps the target pages' update/CLR records, redo applies them under the
// usual pageLSN test, and the rebuilt pages are written to their durable
// home on disk. The scan and the redo are restart's own (recovery/redo.h,
// read-ahead included), so the crash path and the degrade path cannot
// drift apart.
//
// Caller contract (see Testbed::DegradeToDiskOnly and Testbed::ScrubPass):
// the cache must no longer serve a lost page (it is degraded, so page
// fetches go to disk, or the scrub dropped the pages' frames), the WAL must
// not have been truncated above the floor (the checkpointer holds it down
// via CacheExtension::FlashRedoFloor), and stranded-transaction rollback
// must run AFTER the rebuild — rollback applies before-images to the page
// tips this redo reconstructs.
#pragma once

#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "sim/scheduler.h"
#include "storage/db_storage.h"
#include "wal/log_manager.h"

namespace face {

/// Outcome and cost breakdown of one flash rebuild.
struct FlashRebuildReport {
  uint64_t target_pages = 0;     ///< flash-only dirty pages to reconstruct
  uint64_t records_scanned = 0;  ///< update/CLR records touching a target
  uint64_t records_applied = 0;  ///< records whose effects were re-applied
  uint64_t pages_written = 0;    ///< rebuilt pages written to disk
  Lsn floor = kInvalidLsn;       ///< WAL scan start actually used
};

/// One-shot rebuild runner; see file comment.
class FlashRebuild {
 public:
  /// `sched` may be null (no virtual time); otherwise the caller holds an
  /// open span on it, which the rebuild's read-ahead batches run inside.
  FlashRebuild(LogManager* log, BufferPool* pool, DbStorage* storage,
               IoScheduler* sched = nullptr)
      : log_(log), pool_(pool), storage_(storage), sched_(sched) {}

  /// Reconstruct `lost` (in any order: a degrade collects it in page
  /// order, a scrub in queue order) from the WAL and write the results to
  /// disk. Entries whose redo_lsn is kInvalidLsn scan from
  /// `fallback_floor` (the restored control block's rebuild_floor, or the
  /// last checkpoint); if that is also invalid, from the start of the log.
  StatusOr<FlashRebuildReport> Rebuild(const std::vector<FlashOnlyPage>& lost,
                                       Lsn fallback_floor);

 private:
  LogManager* log_;
  BufferPool* pool_;
  DbStorage* storage_;
  IoScheduler* sched_;
};

}  // namespace face
