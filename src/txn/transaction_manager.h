// Transaction lifecycle and physiological update logging.
//
// Every page modification flows through Update(), which logs the byte
// range's before XOR after image (trimmed to the changed span; see
// wal/log_record.h) before applying it — write-ahead logging is structural
// here, not a convention callers can forget. Commit forces the log
// (durability); abort walks the transaction's in-memory undo list
// backwards, writing a compensation record (CLR, a full image) for each
// undone update so that a crash mid-abort never undoes twice.
//
// Hot-path discipline: the first logged write of a transaction reserves
// WAL tail-buffer space once (LogManager::BeginTxnBatch); every record of
// the transaction is then encoded in place into the tail via AppendBatch —
// no LogRecord structs, no per-record std::strings, one identical LSN
// hand-out sequence and byte stream. Undo images live in a per-transaction
// arena instead of one heap string per update.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace face {

/// Transaction manager; see file comment. Single-threaded: transactions may
/// interleave (multiple active ids) but calls are serialized.
class TransactionManager {
 public:
  struct Stats {
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t updates = 0;
    uint64_t bytes_logged_saved = 0;  ///< image bytes avoided by diff-trimming
  };

  TransactionManager(LogManager* log, BufferPool* pool);

  /// Start a transaction; logs a Begin record.
  TxnId Begin();

  /// Log and apply a byte-range update at `offset` within the pinned page:
  /// the record is trimmed to the changed span and carries before XOR
  /// after, the before-image is kept for in-memory abort, and the page is
  /// modified and marked dirty under the record's LSN. A no-op change
  /// (identical bytes) logs nothing.
  Status Update(TxnId txn_id, PageHandle* page, uint16_t offset,
                const char* after, uint32_t len);

  /// Commit: append the commit record and force the log through it.
  Status Commit(TxnId txn_id);

  /// Abort: undo all updates in reverse order with CLRs, then log Abort.
  Status Abort(TxnId txn_id);

  /// Active-transaction table snapshot for a checkpoint (ascending txn id).
  std::vector<AttEntry> ActiveTxns() const;

  /// Whether active transaction `txn_id` has an update of `page_id` that
  /// an Abort would undo.
  bool Wrote(TxnId txn_id, PageId page_id) const;

  uint64_t active_count() const { return active_.size(); }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  /// Restore the id generator after recovery so new ids never collide with
  /// pre-crash ones (losers' CLRs carry their original ids).
  void ObserveTxnId(TxnId id) {
    if (id >= next_txn_id_) next_txn_id_ = id + 1;
  }

 private:
  struct UndoEntry {
    PageId page_id;
    uint16_t offset;
    uint32_t image_offset;  ///< into Transaction::undo_images
    uint32_t image_len;
    Lsn lsn;  ///< LSN of the update record this entry undoes
  };

  struct Transaction {
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    std::vector<UndoEntry> undo;
    /// Concatenated before-images, one arena append per update.
    std::string undo_images;
  };

  /// Tail-buffer reservation made at a transaction's first logged write;
  /// covers a typical transaction's full record volume so subsequent
  /// appends never grow the buffer.
  static constexpr uint32_t kTxnReserveBytes = 4096;

  LogManager* log_;
  BufferPool* pool_;
  std::unordered_map<TxnId, Transaction> active_;
  TxnId next_txn_id_ = 1;
  Stats stats_;
};

}  // namespace face
