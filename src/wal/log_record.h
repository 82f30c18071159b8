// Write-ahead-log record model and its on-media codec.
//
// Stream format per record:
//   [u32 len][u32 masked-crc][u64 lsn][u64 txn][u64 prev_lsn][u8 type][payload]
// where crc covers everything after the crc field. A len of 0 (or a crc
// mismatch) marks the end of the valid log — exactly how a torn tail after a
// crash is detected.
//
// Update records carry ONE image of their byte range: before XOR after
// (Page-Differential Logging's idea, applied to the WAL). Either image is
// the other XOR the record's, so redo XORs it into a page whose pageLSN is
// below the record's (the range then holds the before image), and
// log-driven undo XORs it out of a page that holds the after image. CLRs
// stay full compensation images applied by copy: redo of a CLR never
// depends on the bytes it overwrites.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace face {

/// WAL record types (ARIES-style physiological logging).
enum class LogRecordType : uint8_t {
  kBegin = 1,            ///< transaction start
  kUpdate = 2,           ///< byte range of one page: before XOR after
  kCommit = 3,           ///< transaction commit (forces the log)
  kAbort = 4,            ///< transaction fully rolled back
  kClr = 5,              ///< compensation record written during undo
  /// Checkpoint: DPT + ATT + allocator hwm. The checkpoint is sharp: every
  /// dirty page is synced before the control block names this record,
  /// which is why redo starts here.
  kCheckpointBegin = 6,
  // 7 is unassigned (it was CHECKPOINT_END): such a record decodes as an
  // unknown type.
  kPrepare = 8,          ///< 2PC: participant vote, forced; carries gtid
  kGlobalCommit = 9,     ///< 2PC: coordinator decision, forced; carries gtid
};

/// Dirty-page-table entry captured by a checkpoint.
struct DptEntry {
  PageId page_id;
  Lsn rec_lsn;  ///< oldest LSN that may have dirtied the page
};

/// Active-transaction-table entry captured by a checkpoint.
struct AttEntry {
  TxnId txn_id;
  Lsn last_lsn;       ///< head of the transaction's undo chain
  uint64_t gtid = 0;  ///< nonzero: prepared under this global txn id (2PC)
};

/// In-memory representation of one WAL record (tagged union by `type`).
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  Lsn lsn = kInvalidLsn;       ///< assigned by LogManager::Append
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;  ///< previous record of the same transaction

  // kUpdate / kClr:
  PageId page_id = kInvalidPageId;
  uint16_t offset = 0;  ///< byte offset within the page
  /// kUpdate: before XOR after over the range (redo XORs it in, undo XORs
  /// it out); kClr: the compensation image, applied by copy.
  std::string image;
  Lsn undo_next_lsn = kInvalidLsn;  ///< kClr: next record to undo

  // kCheckpointBegin:
  PageId next_page_id = 0;  ///< allocator high-water mark
  std::vector<DptEntry> dirty_pages;
  std::vector<AttEntry> active_txns;

  // kPrepare / kGlobalCommit:
  uint64_t gtid = 0;  ///< global (cross-shard) transaction id

  /// Serialize to the on-media format into `dst`, which must have exactly
  /// EncodedSize() bytes. The hot path: LogManager::Append encodes straight
  /// into its tail buffer, no per-record allocation.
  void EncodeTo(char* dst) const;

  /// Serialize to the on-media format (convenience wrapper over EncodeTo
  /// for tests and tools).
  std::string Encode() const;

  /// Decode from `data` (one full record, length already framed).
  /// Validates the crc; returns Corruption on mismatch.
  static StatusOr<LogRecord> Decode(const char* data, uint32_t len);

  /// Bytes this record occupies in the log stream.
  uint32_t EncodedSize() const;

  /// kUpdate: XOR the image into the record's range of `page` — turns the
  /// before image into the after image (redo) and back (undo).
  void XorImageInto(char* page) const {
    char* range = page + offset;
    for (size_t i = 0; i < image.size(); ++i) range[i] ^= image[i];
  }
};

/// Fixed part of the on-media framing.
inline constexpr uint32_t kLogRecordHeaderSize = 4 + 4 + 8 + 8 + 8 + 1;
/// Upper bound accepted when scanning (guards against garbage lengths).
inline constexpr uint32_t kMaxLogRecordSize = 16 * 1024 * 1024;

// --- In-place encoders for the transaction hot path -------------------------
// TransactionManager encodes its records straight into the WAL tail buffer
// handed out by LogManager::AppendBatch — no LogRecord struct, no image
// std::strings. Byte-for-byte the same stream as LogRecord::EncodeTo
// (EncodeTo shares their framing).

/// Stream size of a header-only record (Begin/Commit/Abort).
inline constexpr uint32_t ControlRecordSize() { return kLogRecordHeaderSize; }
/// Stream size of an update record over an n-byte range.
inline constexpr uint32_t UpdateRecordSize(uint32_t n) {
  return kLogRecordHeaderSize + 8 + 2 + 4 + n;
}
/// Stream size of a CLR with an n-byte compensation image.
inline constexpr uint32_t ClrRecordSize(uint32_t n) {
  return kLogRecordHeaderSize + 8 + 2 + 4 + n + 8;
}
/// Stream size of a 2PC record (Prepare / GlobalCommit): a u64 gtid body.
inline constexpr uint32_t GtidRecordSize() { return kLogRecordHeaderSize + 8; }

/// Encode a header-only record into `dst` (ControlRecordSize() bytes).
void EncodeControlRecordTo(char* dst, LogRecordType type, Lsn lsn,
                           TxnId txn_id, Lsn prev_lsn);
/// Encode an update record into `dst` (UpdateRecordSize(n) bytes), its
/// image computed in place as `before` XOR `after` (n bytes each).
void EncodeUpdateRecordTo(char* dst, Lsn lsn, TxnId txn_id, Lsn prev_lsn,
                          PageId page_id, uint16_t offset, const char* before,
                          const char* after, uint32_t n);
/// Encode a CLR into `dst` (ClrRecordSize(n) bytes).
void EncodeClrRecordTo(char* dst, Lsn lsn, TxnId txn_id, Lsn prev_lsn,
                       PageId page_id, uint16_t offset, const char* image,
                       uint32_t n, Lsn undo_next_lsn);
/// Encode a Prepare or GlobalCommit into `dst` (GtidRecordSize() bytes).
void EncodeGtidRecordTo(char* dst, LogRecordType type, Lsn lsn, TxnId txn_id,
                        Lsn prev_lsn, uint64_t gtid);

}  // namespace face
