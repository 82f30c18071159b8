// Physical layout of the FaCE flash-cache device:
//
//   block 0                          superblock
//   [1, 1 + ring * seg_blocks)       metadata segment ring
//   [delta_base, delta_base + D)     page-delta record ring (see delta_ring.h)
//   [frame_base, frame_base + N)     page frames (circular mvFIFO queue)
//
// Frames are addressed by *enqueue sequence number*: frame(seq) =
// frame_base + seq % N, so the write pointer physically ascends and wraps —
// the append-only pattern that makes every cache write sequential.
// Metadata entries are 24 bytes (paper §4.1: page id, pageLSN, flags) and
// are flushed one segment at a time into the ring slot seg_no % ring. The
// testbed's segment is one block (kPageSize / 24 = 170 entries), at most
// half the frames: restart re-reads the unpersisted tail (at most two
// segments) from the frames themselves, whose page-header flags carry each
// frame's enqueue sequence and dirty flag (storage/page.h), and refuses a
// segment larger than half the frames, whose tail could overwrite frames
// the persisted segments still describe.
#pragma once

#include <cstdint>

#include "common/coding.h"
#include "common/types.h"

namespace face {

/// One persistent metadata entry (24 bytes on media).
struct FlashMetaEntry {
  PageId page_id = kInvalidPageId;
  Lsn lsn = kInvalidLsn;
  bool dirty = false;
  bool occupied = false;  ///< slot held a real page when written

  static constexpr uint32_t kEncodedSize = 24;

  void EncodeTo(char* dst) const {
    EncodeFixed64(dst, page_id);
    EncodeFixed64(dst + 8, lsn);
    uint32_t flags = 0;
    if (dirty) flags |= 1u;
    if (occupied) flags |= 2u;
    EncodeFixed32(dst + 16, flags);
    EncodeFixed32(dst + 20, 0);  // reserved
  }

  static FlashMetaEntry DecodeFrom(const char* src) {
    FlashMetaEntry e;
    e.page_id = DecodeFixed64(src);
    e.lsn = DecodeFixed64(src + 8);
    const uint32_t flags = DecodeFixed32(src + 16);
    e.dirty = (flags & 1u) != 0;
    e.occupied = (flags & 2u) != 0;
    return e;
  }
};

/// Geometry of the flash-cache device regions; see file comment.
struct FlashLayout {
  uint64_t n_frames = 0;       ///< cache capacity in pages
  uint32_t seg_entries = 0;    ///< metadata entries per segment
  uint32_t seg_blocks = 0;     ///< device blocks per segment
  uint64_t ring_segments = 0;  ///< slots in the metadata ring
  uint64_t meta_base = 1;      ///< first block of the ring
  uint64_t delta_base = 0;     ///< first block of the delta-record ring
  uint64_t delta_blocks = 0;   ///< delta-record ring size
  uint64_t frame_base = 0;     ///< first frame block
  uint64_t total_blocks = 0;   ///< device capacity this layout needs

  /// Delta ring sized to the frame count: enough slots that steady-state
  /// chains (capped at a few records each) rarely force consolidation.
  static uint64_t DeltaBlocksFor(uint64_t n_frames) {
    return n_frames / 16 < 4 ? 4 : n_frames / 16;
  }

  static FlashLayout Compute(uint64_t n_frames, uint32_t seg_entries) {
    FlashLayout lay;
    lay.n_frames = n_frames;
    lay.seg_entries = seg_entries;
    lay.seg_blocks = static_cast<uint32_t>(
        (static_cast<uint64_t>(seg_entries) * FlashMetaEntry::kEncodedSize +
         kPageSize - 1) /
        kPageSize);
    // Live entries span < n_frames + 2 segments of sequence numbers, so a
    // ring of n/S + 3 slots never overwrites a segment still needed.
    lay.ring_segments = n_frames / seg_entries + 3;
    lay.meta_base = 1;
    lay.delta_base = lay.meta_base + lay.ring_segments * lay.seg_blocks;
    lay.delta_blocks = DeltaBlocksFor(n_frames);
    lay.frame_base = lay.delta_base + lay.delta_blocks;
    lay.total_blocks = lay.frame_base + n_frames;
    return lay;
  }

  /// Device block holding the frame for enqueue sequence number `seq`.
  uint64_t FrameBlock(uint64_t seq) const {
    return frame_base + seq % n_frames;
  }
  /// First device block of segment number `seg_no`'s ring slot.
  uint64_t SegmentBlock(uint64_t seg_no) const {
    return meta_base + (seg_no % ring_segments) * seg_blocks;
  }
  /// Segment number covering sequence number `seq`.
  uint64_t SegmentOf(uint64_t seq) const { return seq / seg_entries; }
};

}  // namespace face
