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
// window's records are applied in LSN order under the usual pageLSN test:
// an update XORs its before-XOR-after image in, a CLR copies its
// compensation image (wal/log_record.h). Fetching ahead changes only when a
// page is read, never which pages are read or which records are applied,
// so the recovered state is exactly the serial loop's.
//
// Flash-covered skip. A record whose page is not resident, and whose
// persistent cached copy (CacheExtension::PersistentCopyLsn — FaCE's
// directory) is already at or above the record's LSN, is skipped without a
// fetch: the copy a fetch would bring in holds the effect, so the pageLSN
// test would skip the record anyway. A later record of the page above the
// copy's LSN still fetches it and applies on top. Skipped records still
// raise the storage allocator's high-water mark (ObservePage). This keeps
// the work a longer post-checkpoint log adds out of restart: on a FaCE
// cache most of it is already on flash.
//
// The lead lane. Restart hands redo the rest of the cache's restore
// (CacheExtension::FinishRecovery; FaCE reads its delta ring and
// re-attaches the chains) as an IoLead, the first lane of the first
// window's batch (sim/scheduler.h states the rule for leads). The window is
// decoded after it in host order, so every skip and fetch decision is the
// one a restore before redo would give: only the virtual timeline moves.
// Flash fetches queue behind the ring read, and which disk pages a window
// reads never depends on a chain (a page with a chain is in the cache's
// directory, and redo fetches it from flash).
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
  uint64_t skipped = 0;            ///< records the cached copy covered
  /// Distinct pages with a skipped record that this pass never fetched:
  /// the cached copy served them whole.
  uint64_t skipped_pages = 0;
  uint64_t readahead_batches = 0;  ///< windows that fetched at least one page
  uint64_t readahead_pages = 0;    ///< pages fetched through read-ahead
};

/// Replay every update/CLR record from `from` to the end of the durable log,
/// decoded through `reader` (restart passes the reader its attach scan
/// filled, so the range is not read again). `targets`, if non-null, is a
/// sorted list of the only page ids to replay (flash rebuild's lost set).
/// `lead`, if non-null, runs first (see file comment); the first window is
/// decoded inside its batch, so `reader` must already hold those records.
/// `sched` may be null (no virtual time); otherwise the caller holds an
/// open span. An I/O error from the lead or a read-ahead fetch is returned
/// with the lane batch closed.
Status RedoWithReadAhead(LogReader* reader, BufferPool* pool,
                         DbStorage* storage, IoScheduler* sched, Lsn from,
                         const std::vector<PageId>* targets,
                         const IoLead* lead, RedoStats* stats);

}  // namespace face
