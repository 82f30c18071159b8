// Fixed-width little-endian encode/decode helpers for on-media formats.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/types.h"

namespace face {

inline void EncodeFixed16(char* dst, uint16_t v) { memcpy(dst, &v, 2); }
inline void EncodeFixed32(char* dst, uint32_t v) { memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { memcpy(dst, &v, 8); }

inline uint16_t DecodeFixed16(const char* src) {
  uint16_t v;
  memcpy(&v, src, 2);
  return v;
}
inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  memcpy(&v, src, 8);
  return v;
}

// --- Rid <-> index value codec (10 bytes on media) ---------------------------
// The one encoding every secondary index uses to store heap Rids as values.

inline constexpr uint32_t kRidValueSize = 10;

inline std::string EncodeRid(Rid rid) {
  std::string v(kRidValueSize, '\0');
  EncodeFixed64(v.data(), rid.page_id);
  EncodeFixed16(v.data() + 8, rid.slot);
  return v;
}

inline Rid DecodeRid(std::string_view v) {
  return Rid{DecodeFixed64(v.data()), DecodeFixed16(v.data() + 8)};
}

inline void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  dst->append(buf, 2);
}
inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}
inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

}  // namespace face
