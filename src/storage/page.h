// On-media page layout. Every 4 KB page starts with a 24-byte header:
//   [0..8)   page id
//   [8..16)  pageLSN — LSN of the last WAL record applied to this page
//   [16..20) masked CRC32-C over the page with this field zeroed
//   [20..24) flags: the FaCE frame stamp — bit 31 the frame's enqueue-time
//            dirty flag, bits 0..30 its enqueue sequence (mod 2^31); no
//            other layer reads or writes it
// The same bytes live unchanged in the DRAM buffer, the flash cache, and on
// disk, which is what lets FaCE recovery rebuild its metadata directory by
// scanning raw flash frames (Section 4.2 of the paper).
#pragma once

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/status.h"
#include "common/types.h"

namespace face {

/// Byte offsets of the page header fields.
inline constexpr uint32_t kPageIdOffset = 0;
inline constexpr uint32_t kPageLsnOffset = 8;
inline constexpr uint32_t kPageCrcOffset = 16;
inline constexpr uint32_t kPageFlagsOffset = 20;
/// First byte usable by the layer above (heap/btree payload).
inline constexpr uint32_t kPageHeaderSize = 24;
/// Payload capacity of a page.
inline constexpr uint32_t kPagePayloadSize = kPageSize - kPageHeaderSize;

/// Non-owning view over one page's bytes with typed header accessors.
class PageView {
 public:
  explicit PageView(char* data) : data_(data) {}

  PageId page_id() const { return DecodeFixed64(data_ + kPageIdOffset); }
  void set_page_id(PageId id) { EncodeFixed64(data_ + kPageIdOffset, id); }

  Lsn lsn() const { return DecodeFixed64(data_ + kPageLsnOffset); }
  void set_lsn(Lsn lsn) { EncodeFixed64(data_ + kPageLsnOffset, lsn); }

  uint32_t flags() const { return DecodeFixed32(data_ + kPageFlagsOffset); }
  void set_flags(uint32_t f) { EncodeFixed32(data_ + kPageFlagsOffset, f); }

  char* data() { return data_; }
  const char* data() const { return data_; }
  char* payload() { return data_ + kPageHeaderSize; }
  const char* payload() const { return data_ + kPageHeaderSize; }

  /// Zero the page and stamp its id (fresh allocation).
  void Format(PageId id) {
    memset(data_, 0, kPageSize);
    set_page_id(id);
  }

  /// Recompute and store the masked checksum (called before media writes).
  void StampChecksum() {
    EncodeFixed32(data_ + kPageCrcOffset, 0);
    const uint32_t crc = crc32c::Value(data_, kPageSize);
    EncodeFixed32(data_ + kPageCrcOffset, crc32c::Mask(crc));
  }

  /// Verify the stored checksum. A page of all zeroes (never written) fails.
  bool VerifyChecksum() const {
    const uint32_t stored = DecodeFixed32(data_ + kPageCrcOffset);
    char scratch[4] = {0, 0, 0, 0};
    uint32_t crc = crc32c::Value(data_, kPageCrcOffset);
    crc = crc32c::Extend(crc, scratch, 4);
    crc = crc32c::Extend(crc, data_ + kPageCrcOffset + 4,
                         kPageSize - kPageCrcOffset - 4);
    return crc32c::Mask(crc) == stored;
  }

 private:
  char* data_;
};

/// Const-only counterpart of PageView for read paths.
class ConstPageView {
 public:
  explicit ConstPageView(const char* data) : data_(data) {}
  PageId page_id() const { return DecodeFixed64(data_ + kPageIdOffset); }
  Lsn lsn() const { return DecodeFixed64(data_ + kPageLsnOffset); }
  uint32_t flags() const { return DecodeFixed32(data_ + kPageFlagsOffset); }
  const char* payload() const { return data_ + kPageHeaderSize; }
  bool VerifyChecksum() const {
    return PageView(const_cast<char*>(data_)).VerifyChecksum();
  }

 private:
  const char* data_;
};

}  // namespace face
