#include "recovery/checkpointer.h"

#include "obs/trace.h"

namespace face {

StatusOr<Lsn> Checkpointer::TakeCheckpoint(IoScheduler* lanes) {
  // Component "checkpoint", not "recovery": the recovery category is
  // reserved for the restart phases, one of which runs this very code.
  obs::ScopedSpan span("checkpoint", "take_checkpoint");

  // 1. Non-persistent write-back caches stage their flash-dirty pages to
  //    disk first, so that "all dirty pages synced" below really covers
  //    everything the post-checkpoint redo will skip. While degraded the
  //    flash device is gone: no cache step may touch it.
  const bool degraded = cache_->degraded();
  if (!degraded) FACE_RETURN_IF_ERROR(cache_->PrepareCheckpoint());

  // 2. Log BEGIN with the dirty-page and active-transaction tables plus the
  //    page allocator's high-water mark.
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  begin.next_page_id = storage_->next_page_id();
  begin.dirty_pages = pool_->CollectDirtyPages();
  begin.active_txns = txns_->ActiveTxns();
  const Lsn begin_lsn = log_->Append(&begin);
  stats_.dpt_pages += begin.dirty_pages.size();

  // 3. Make every dirty DRAM page persistent — into the flash cache when
  //    the policy absorbs it (FaCE), else to disk.
  const uint64_t cache_writes = cache_->stats().disk_writes;
  FACE_ASSIGN_OR_RETURN(const WriteBackStats written,
                        pool_->SyncDirtyPagesForCheckpoint(lanes));
  stats_.writeback_batches += written.batches;
  stats_.writeback_pages += written.pages;
  stats_.reclaimed_chains += written.reclaimed_chains;
  if (!degraded) FACE_RETURN_IF_ERROR(cache_->OnCheckpoint());
  stats_.serial_destages +=
      cache_->stats().disk_writes - cache_writes - written.destages;

  // 4. Advertise the checkpoint: the control-block write is its commit
  //    point, and a crash before it falls back to the previous one. The
  //    block may name BEGIN only once BEGIN is durable; the sync's force
  //    made it so, and FlushTo, which states the condition, writes nothing.
  //    The control record also carries the cache's durability exposure:
  //    the degraded marker and the flash redo floor — the lowest WAL LSN
  //    still needed to rebuild a page whose newest version lives only on
  //    flash.
  FACE_RETURN_IF_ERROR(log_->FlushTo(begin_lsn));
  const Lsn flash_floor = degraded ? kInvalidLsn : cache_->FlashRedoFloor();
  WalControlInfo info;
  info.checkpoint_lsn = begin_lsn;
  info.degraded = degraded;
  info.rebuild_floor = flash_floor;
  FACE_RETURN_IF_ERROR(log_->WriteControlInfo(info));
  // 5. Recycle log space: nothing before this checkpoint's BEGIN will be
  //    read again, as long as no still-active transaction's undo chain
  //    reaches back past it — and no flash-only dirty page's rebuild floor
  //    sits below it (losing those records would make a later flash loss
  //    unrecoverable).
  Lsn keep = begin_lsn;
  if (flash_floor != kInvalidLsn && flash_floor < keep) keep = flash_floor;
  if (begin.active_txns.empty()) log_->TruncateBefore(keep);
  ++stats_.checkpoints;
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    thread_local obs::Counter* ckpts = reg.GetCounter("checkpoint.checkpoints");
    thread_local obs::Hist* dpt = reg.GetHistogram("checkpoint.dpt_pages");
    ckpts->Increment();
    dpt->Add(begin.dirty_pages.size());
  }
  return begin_lsn;
}

}  // namespace face
