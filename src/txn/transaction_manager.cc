#include "txn/transaction_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/page_delta.h"
#include "obs/metrics.h"

namespace face {

namespace {

/// "txn.*" handles mirroring TransactionManager::Stats.
struct TxnObs {
  obs::Counter* begun;
  obs::Counter* committed;
  obs::Counter* aborted;
  obs::Counter* updates;
};

TxnObs& GetTxnObs() {
  thread_local TxnObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    TxnObs t;
    t.begun = reg.GetCounter("txn.begun");
    t.committed = reg.GetCounter("txn.committed");
    t.aborted = reg.GetCounter("txn.aborted");
    t.updates = reg.GetCounter("txn.updates");
    return t;
  }();
  return o;
}

}  // namespace

TransactionManager::TransactionManager(LogManager* log, BufferPool* pool)
    : log_(log), pool_(pool) {}

TxnId TransactionManager::Begin() {
  const TxnId id = next_txn_id_++;
  // The Begin record is logged lazily by the first Update — the PostgreSQL
  // "no XID until first write" discipline. Read-only transactions therefore
  // leave no trace in the log and no losers for recovery to close out.
  active_.emplace(id, Transaction{});
  ++stats_.begun;
  if (obs::Enabled()) GetTxnObs().begun->Increment();
  return id;
}

Status TransactionManager::Update(TxnId txn_id, PageHandle* page,
                                  uint16_t offset, const char* after,
                                  uint32_t len) {
  auto it = active_.find(txn_id);
  if (it == active_.end()) {
    return Status::InvalidArgument("update on inactive transaction");
  }
  if (static_cast<uint32_t>(offset) + len > kPageSize) {
    return Status::InvalidArgument("update range beyond page");
  }
  char* dst = page->data() + offset;

  // Trim the unchanged prefix and suffix: TPC-C updates touch a few fields
  // of a wide record, so this routinely shrinks log volume severalfold.
  // The same scan feeds the flash delta tracker below, so WAL trimming and
  // page-differential write-back can never disagree about what changed.
  const DiffBounds b = ComputeDiffBounds(dst, after, len);
  if (b.empty()) return Status::OK();  // no-op change: log nothing
  const uint32_t lo = b.lo;
  const uint32_t hi = b.hi;
  stats_.bytes_logged_saved += len - (hi - lo);
  const uint32_t n = hi - lo;

  Transaction& t = it->second;
  if (t.first_lsn == kInvalidLsn) {
    // First logged write: one tail reservation covers the transaction's
    // typical record volume, then log the deferred Begin.
    log_->BeginTxnBatch(kTxnReserveBytes);
    Lsn begin_lsn;
    char* rec = log_->AppendBatch(ControlRecordSize(), &begin_lsn);
    EncodeControlRecordTo(rec, LogRecordType::kBegin, begin_lsn, txn_id,
                          kInvalidLsn);
    t.first_lsn = begin_lsn;
    t.last_lsn = begin_lsn;
  }

  // Encode the update record in place: its one image is the page bytes
  // (not yet modified) XOR the caller's span.
  const uint16_t rec_offset = static_cast<uint16_t>(offset + lo);
  Lsn lsn;
  char* rec = log_->AppendBatch(UpdateRecordSize(n), &lsn);
  EncodeUpdateRecordTo(rec, lsn, txn_id, t.last_lsn, page->page_id(),
                       rec_offset, dst + lo, after + lo, n);
  t.last_lsn = lsn;

  // Undo arena: one append, no per-update string allocation.
  const uint32_t image_offset = static_cast<uint32_t>(t.undo_images.size());
  t.undo_images.append(dst + lo, n);
  t.undo.push_back(UndoEntry{page->page_id(), rec_offset, image_offset, n,
                             lsn});

  memcpy(dst + lo, after + lo, n);
  page->MarkDirtyRange(lsn, rec_offset, n);
  ++stats_.updates;
  if (obs::Enabled()) GetTxnObs().updates->Increment();
  return Status::OK();
}

Status TransactionManager::Commit(TxnId txn_id) {
  auto it = active_.find(txn_id);
  if (it == active_.end()) {
    return Status::InvalidArgument("commit of inactive transaction");
  }
  // Read-only transactions (never logged a record) commit without logging
  // or forcing — the PostgreSQL no-XID fast path. Their atomicity is
  // vacuous and their durability is free.
  const bool read_only = it->second.first_lsn == kInvalidLsn;
  if (!read_only) {
    Lsn lsn;
    char* rec = log_->AppendBatch(ControlRecordSize(), &lsn);
    EncodeControlRecordTo(rec, LogRecordType::kCommit, lsn, txn_id,
                          it->second.last_lsn);
    FACE_RETURN_IF_ERROR(log_->FlushTo(lsn));  // force at commit
  }
  active_.erase(it);
  ++stats_.committed;
  if (obs::Enabled()) GetTxnObs().committed->Increment();
  return Status::OK();
}

Status TransactionManager::Prepare(TxnId txn_id, uint64_t gtid) {
  auto it = active_.find(txn_id);
  if (it == active_.end()) {
    return Status::InvalidArgument("prepare of inactive transaction");
  }
  if (gtid == 0) return Status::InvalidArgument("prepare needs nonzero gtid");
  Transaction& t = it->second;
  // Read-only so far: nothing durable to vote on; the later Commit takes
  // the no-XID fast path and atomicity is vacuous.
  if (t.first_lsn == kInvalidLsn) {
    t.gtid = gtid;
    return Status::OK();
  }
  // The Prepare record links to the chain (prev_lsn) but does not become
  // its head: undo — whether in-memory or log-driven — walks straight from
  // the last update and never has to skip the vote record.
  Lsn lsn;
  char* rec = log_->AppendBatch(GtidRecordSize(), &lsn);
  EncodeGtidRecordTo(rec, LogRecordType::kPrepare, lsn, txn_id, t.last_lsn,
                     gtid);
  FACE_RETURN_IF_ERROR(log_->FlushTo(lsn));  // the vote must be durable
  t.gtid = gtid;
  return Status::OK();
}

Status TransactionManager::LogGlobalCommit(TxnId txn_id, uint64_t gtid) {
  if (gtid == 0) return Status::InvalidArgument("global commit needs gtid");
  Lsn lsn;
  char* rec = log_->AppendBatch(GtidRecordSize(), &lsn);
  EncodeGtidRecordTo(rec, LogRecordType::kGlobalCommit, lsn, txn_id,
                     kInvalidLsn, gtid);
  return log_->FlushTo(lsn);  // the decision point
}

void TransactionManager::AdoptRecovered(TxnId txn_id, Lsn last_lsn,
                                        uint64_t gtid) {
  Transaction t;
  t.first_lsn = last_lsn;  // nonzero: never treated as read-only
  t.last_lsn = last_lsn;
  t.gtid = gtid;
  t.recovered = true;
  active_[txn_id] = std::move(t);
  ObserveTxnId(txn_id);
}

Status TransactionManager::Abort(TxnId txn_id) {
  auto it = active_.find(txn_id);
  if (it == active_.end()) {
    return Status::InvalidArgument("abort of inactive transaction");
  }
  Transaction& t = it->second;
  if (t.recovered) {
    return Status::Internal(
        "abort of recovered in-doubt transaction must be log-driven");
  }
  if (t.first_lsn == kInvalidLsn) {
    // Never logged anything: nothing to undo, nothing to record.
    active_.erase(it);
    ++stats_.aborted;
    if (obs::Enabled()) GetTxnObs().aborted->Increment();
    return Status::OK();
  }

  // Undo in reverse order, writing a CLR per undone update. The CLR's
  // undo_next points past the undone record so crash recovery resumes the
  // rollback exactly where it left off.
  for (size_t i = t.undo.size(); i-- > 0;) {
    const UndoEntry& u = t.undo[i];
    auto page = pool_->FetchPage(u.page_id);
    if (!page.ok()) return page.status();

    const char* image = t.undo_images.data() + u.image_offset;
    // Resume point for a crash mid-abort: the update before this one, or
    // the Begin record when the rollback is complete.
    const Lsn undo_next = i > 0 ? t.undo[i - 1].lsn : t.first_lsn;
    Lsn lsn;
    char* rec = log_->AppendBatch(ClrRecordSize(u.image_len), &lsn);
    EncodeClrRecordTo(rec, lsn, txn_id, t.last_lsn, u.page_id, u.offset,
                      image, u.image_len, undo_next);
    t.last_lsn = lsn;

    memcpy(page->data() + u.offset, image, u.image_len);
    page->MarkDirtyRange(lsn, u.offset, u.image_len);
  }

  Lsn lsn;
  char* rec = log_->AppendBatch(ControlRecordSize(), &lsn);
  EncodeControlRecordTo(rec, LogRecordType::kAbort, lsn, txn_id, t.last_lsn);
  active_.erase(it);
  ++stats_.aborted;
  if (obs::Enabled()) GetTxnObs().aborted->Increment();
  return Status::OK();
}

std::vector<AttEntry> TransactionManager::ActiveTxns() const {
  std::vector<AttEntry> att;
  att.reserve(active_.size());
  for (const auto& [id, t] : active_) {
    // Unlogged (so-far read-only) transactions need no recovery coverage.
    if (t.first_lsn != kInvalidLsn) att.push_back({id, t.last_lsn, t.gtid});
  }
  // Ascending txn id: deterministic checkpoint-record content regardless
  // of the hash table's layout (the std::map order this table used to have).
  std::sort(att.begin(), att.end(),
            [](const AttEntry& a, const AttEntry& b) {
              return a.txn_id < b.txn_id;
            });
  return att;
}

}  // namespace face
