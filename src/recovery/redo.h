// ARIES redo with read-ahead: the one redo loop shared by crash restart
// (RestartManager) and the WAL-driven flash rebuild (FlashRebuild).
//
// The log is decoded a window at a time. A window closes once its records
// touch half the buffer pool's capacity in distinct pages that are not
// resident (so a window's own fetches never evict each other). Those pages
// are then faulted in through the unchanged BufferPool::FetchPageForRedo
// path as one scheduler I/O lane batch, one lane per page in first-touch
// order — the reads overlap across the disk array's spindles and the flash
// device instead of queueing behind a single recovery token. Finally the
// window's records are applied in LSN order under the usual pageLSN test.
// Fetching ahead changes only when a page is read, never which pages are
// read or which records are applied, so the recovered state is exactly the
// serial loop's.
#pragma once

#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/scheduler.h"
#include "storage/db_storage.h"
#include "wal/log_manager.h"

namespace face {

/// What one redo pass did.
struct RedoStats {
  uint64_t records = 0;            ///< update/CLR records examined
  uint64_t applied = 0;            ///< records whose effects were re-applied
  uint64_t readahead_batches = 0;  ///< windows that fetched at least one page
  uint64_t readahead_pages = 0;    ///< pages fetched through read-ahead
};

/// Replay every update/CLR record from `from` to the end of the durable log,
/// decoded through `reader` (restart passes the reader its attach scan
/// filled, so the range is not read again). `targets`, if non-null, is a
/// sorted list of the only page ids to replay (flash rebuild's lost set).
/// `sched` may be null (no virtual time); otherwise the caller holds an
/// open span. An I/O error from a read-ahead fetch is returned with the
/// lane batch closed.
Status RedoWithReadAhead(LogReader* reader, BufferPool* pool,
                         DbStorage* storage, IoScheduler* sched, Lsn from,
                         const std::vector<PageId>* targets, RedoStats* stats);

}  // namespace face
