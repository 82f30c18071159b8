#include "engine/database.h"

namespace face {

Database::Database(const DatabaseOptions& options, DbStorage* storage,
                   LogManager* log, CacheExtension* cache)
    : storage_(storage),
      log_(log),
      cache_(cache),
      pool_(options.buffer_frames, storage, log, cache),
      txns_(log, &pool_),
      catalog_(&pool_),
      checkpointer_(log, &pool_, &txns_, storage, cache) {}

Status Database::Format() {
  FACE_RETURN_IF_ERROR(log_->Format());
  // The catalog is created unlogged: the initial checkpoint right below
  // anchors redo after it, so nothing before needs log coverage.
  PageWriter bulk;
  FACE_RETURN_IF_ERROR(catalog_.Format(&bulk));
  FACE_RETURN_IF_ERROR(pool_.FlushAllToDisk());
  FACE_ASSIGN_OR_RETURN(Lsn ckpt, checkpointer_.TakeCheckpoint());
  (void)ckpt;
  return Status::OK();
}

Status Database::Open() {
  FACE_RETURN_IF_ERROR(log_->Attach());
  return catalog_.Load();
}

StatusOr<RestartReport> Database::Recover(IoScheduler* sched,
                                          uint32_t bg_token) {
  RestartManager restart(log_, &pool_, &txns_, storage_, cache_, sched,
                         bg_token);
  FACE_ASSIGN_OR_RETURN(RestartReport report, restart.Run());
  FACE_RETURN_IF_ERROR(catalog_.Load());
  return report;
}

Status Database::Abort(TxnId txn) {
  const bool wrote_catalog = txns_.Wrote(txn, Catalog::kCatalogPageId);
  FACE_RETURN_IF_ERROR(txns_.Abort(txn));
  return wrote_catalog ? catalog_.Load() : Status::OK();
}

Status Database::CleanShutdown() {
  FACE_RETURN_IF_ERROR(pool_.FlushAllToDisk());
  FACE_ASSIGN_OR_RETURN(Lsn ckpt, checkpointer_.TakeCheckpoint());
  (void)ckpt;
  return Status::OK();
}

}  // namespace face
