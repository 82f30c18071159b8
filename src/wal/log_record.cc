#include "wal/log_record.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace face {

namespace {

Status GetLengthPrefixed(const char* data, uint32_t len, uint32_t* pos,
                         std::string* out) {
  if (*pos + 4 > len) return Status::Corruption("truncated string length");
  const uint32_t n = DecodeFixed32(data + *pos);
  *pos += 4;
  if (*pos + n > len) return Status::Corruption("truncated string payload");
  out->assign(data + *pos, n);
  *pos += n;
  return Status::OK();
}

/// Write the common framing (length, lsn, txn, prev, type); the crc at
/// [4..8) is patched by FinishRecordCrc once the body is in place.
char* EncodeRecordHeader(char* dst, uint32_t len, Lsn lsn, TxnId txn_id,
                         Lsn prev_lsn, LogRecordType type) {
  EncodeFixed32(dst, len);
  EncodeFixed64(dst + 8, lsn);
  EncodeFixed64(dst + 16, txn_id);
  EncodeFixed64(dst + 24, prev_lsn);
  dst[32] = static_cast<char>(type);
  return dst + kLogRecordHeaderSize;
}

/// CRC over everything after the crc field (lsn included, so a record
/// copied to the wrong offset is rejected).
void FinishRecordCrc(char* dst, uint32_t len) {
  const uint32_t crc = crc32c::Value(dst + 8, len - 8);
  EncodeFixed32(dst + 4, crc32c::Mask(crc));
}

/// Framing plus the page range of an update or CLR: returns where its
/// n-byte image goes.
char* EncodePageRecordHeader(char* dst, uint32_t len, Lsn lsn, TxnId txn_id,
                             Lsn prev_lsn, LogRecordType type, PageId page_id,
                             uint16_t offset, uint32_t n) {
  char* p = EncodeRecordHeader(dst, len, lsn, txn_id, prev_lsn, type);
  EncodeFixed64(p, page_id);
  EncodeFixed16(p + 8, offset);
  EncodeFixed32(p + 10, n);
  return p + 14;
}

}  // namespace

void EncodeControlRecordTo(char* dst, LogRecordType type, Lsn lsn,
                           TxnId txn_id, Lsn prev_lsn) {
  const uint32_t len = ControlRecordSize();
  EncodeRecordHeader(dst, len, lsn, txn_id, prev_lsn, type);
  FinishRecordCrc(dst, len);
}

void EncodeUpdateRecordTo(char* dst, Lsn lsn, TxnId txn_id, Lsn prev_lsn,
                          PageId page_id, uint16_t offset, const char* before,
                          const char* after, uint32_t n) {
  const uint32_t len = UpdateRecordSize(n);
  char* p = EncodePageRecordHeader(dst, len, lsn, txn_id, prev_lsn,
                                   LogRecordType::kUpdate, page_id, offset, n);
  for (uint32_t i = 0; i < n; ++i) {
    p[i] = static_cast<char>(before[i] ^ after[i]);
  }
  FinishRecordCrc(dst, len);
}

void EncodeClrRecordTo(char* dst, Lsn lsn, TxnId txn_id, Lsn prev_lsn,
                       PageId page_id, uint16_t offset, const char* image,
                       uint32_t n, Lsn undo_next_lsn) {
  const uint32_t len = ClrRecordSize(n);
  char* p = EncodePageRecordHeader(dst, len, lsn, txn_id, prev_lsn,
                                   LogRecordType::kClr, page_id, offset, n);
  memcpy(p, image, n);
  EncodeFixed64(p + n, undo_next_lsn);
  FinishRecordCrc(dst, len);
}

void LogRecord::EncodeTo(char* dst) const {
  const uint32_t len = EncodedSize();
  const uint32_t n = static_cast<uint32_t>(image.size());
  switch (type) {
    case LogRecordType::kUpdate: {
      char* p = EncodePageRecordHeader(dst, len, lsn, txn_id, prev_lsn, type,
                                       page_id, offset, n);
      memcpy(p, image.data(), n);
      FinishRecordCrc(dst, len);
      return;
    }
    case LogRecordType::kClr:
      EncodeClrRecordTo(dst, lsn, txn_id, prev_lsn, page_id, offset,
                        image.data(), n, undo_next_lsn);
      return;
    case LogRecordType::kBegin:
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      EncodeControlRecordTo(dst, type, lsn, txn_id, prev_lsn);
      return;
    case LogRecordType::kCheckpointBegin:
      break;  // encoded below
  }

  char* p = EncodeRecordHeader(dst, len, lsn, txn_id, prev_lsn, type);
  switch (type) {
    case LogRecordType::kCheckpointBegin:
      EncodeFixed64(p, next_page_id);
      EncodeFixed32(p + 8, static_cast<uint32_t>(dirty_pages.size()));
      EncodeFixed32(p + 12, static_cast<uint32_t>(active_txns.size()));
      p += 16;
      for (const auto& e : dirty_pages) {
        EncodeFixed64(p, e.page_id);
        EncodeFixed64(p + 8, e.rec_lsn);
        p += 16;
      }
      for (const auto& e : active_txns) {
        EncodeFixed64(p, e.txn_id);
        EncodeFixed64(p + 8, e.last_lsn);
        p += 16;
      }
      break;
    default:
      break;  // handled above
  }
  assert(p == dst + len);
  FinishRecordCrc(dst, len);
}

std::string LogRecord::Encode() const {
  std::string out(EncodedSize(), '\0');
  EncodeTo(out.data());
  return out;
}

uint32_t LogRecord::EncodedSize() const {
  uint32_t n = kLogRecordHeaderSize;
  switch (type) {
    case LogRecordType::kUpdate:
      return UpdateRecordSize(static_cast<uint32_t>(image.size()));
    case LogRecordType::kClr:
      return ClrRecordSize(static_cast<uint32_t>(image.size()));
    case LogRecordType::kCheckpointBegin:
      n += 8 + 4 + 4 + 16 * static_cast<uint32_t>(dirty_pages.size()) +
           16 * static_cast<uint32_t>(active_txns.size());
      break;
    default:
      break;
  }
  return n;
}

StatusOr<LogRecord> LogRecord::Decode(const char* data, uint32_t len) {
  if (len < kLogRecordHeaderSize) {
    return Status::Corruption("log record shorter than header");
  }
  const uint32_t stored_len = DecodeFixed32(data);
  if (stored_len != len) return Status::Corruption("log record length mismatch");
  const uint32_t stored_crc = DecodeFixed32(data + 4);
  const uint32_t crc = crc32c::Value(data + 8, len - 8);
  if (crc32c::Mask(crc) != stored_crc) {
    return Status::Corruption("log record crc mismatch");
  }

  LogRecord rec;
  rec.lsn = DecodeFixed64(data + 8);
  rec.txn_id = DecodeFixed64(data + 16);
  rec.prev_lsn = DecodeFixed64(data + 24);
  rec.type = static_cast<LogRecordType>(data[32]);
  uint32_t pos = kLogRecordHeaderSize;

  switch (rec.type) {
    case LogRecordType::kUpdate: {
      if (pos + 10 > len) return Status::Corruption("truncated update record");
      rec.page_id = DecodeFixed64(data + pos);
      rec.offset = DecodeFixed16(data + pos + 8);
      pos += 10;
      FACE_RETURN_IF_ERROR(GetLengthPrefixed(data, len, &pos, &rec.image));
      break;
    }
    case LogRecordType::kClr: {
      if (pos + 10 > len) return Status::Corruption("truncated CLR record");
      rec.page_id = DecodeFixed64(data + pos);
      rec.offset = DecodeFixed16(data + pos + 8);
      pos += 10;
      FACE_RETURN_IF_ERROR(GetLengthPrefixed(data, len, &pos, &rec.image));
      if (pos + 8 > len) return Status::Corruption("truncated CLR undo_next");
      rec.undo_next_lsn = DecodeFixed64(data + pos);
      pos += 8;
      break;
    }
    case LogRecordType::kCheckpointBegin: {
      if (pos + 16 > len) return Status::Corruption("truncated checkpoint");
      rec.next_page_id = DecodeFixed64(data + pos);
      const uint32_t n_dpt = DecodeFixed32(data + pos + 8);
      const uint32_t n_att = DecodeFixed32(data + pos + 12);
      pos += 16;
      if (pos + 16ull * n_dpt + 16ull * n_att > len) {
        return Status::Corruption("truncated checkpoint tables");
      }
      rec.dirty_pages.reserve(n_dpt);
      for (uint32_t i = 0; i < n_dpt; ++i) {
        rec.dirty_pages.push_back(
            {DecodeFixed64(data + pos), DecodeFixed64(data + pos + 8)});
        pos += 16;
      }
      rec.active_txns.reserve(n_att);
      for (uint32_t i = 0; i < n_att; ++i) {
        rec.active_txns.push_back(
            {DecodeFixed64(data + pos), DecodeFixed64(data + pos + 8)});
        pos += 16;
      }
      break;
    }
    case LogRecordType::kBegin:
    case LogRecordType::kCommit:
    case LogRecordType::kAbort:
      break;
    default:
      return Status::Corruption("unknown log record type");
  }
  return rec;
}

}  // namespace face
