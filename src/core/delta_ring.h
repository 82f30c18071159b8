// A shared delta-record ring for the flash cache policies (Page-Differential
// Logging applied to the cache write-back and checkpoint paths).
//
// Instead of rewriting a full 4 KB page image on every flash refresh, a
// policy appends a compact PageDeltaRecord describing only the bytes that
// changed since the page's last full flash image (its *base*). Records from
// many pages pack into shared 4 KB blocks, so the device — which prices
// whole blocks — sees one block write per ~dozens of refreshes. The
// in-memory copy of every live record doubles as the delta write buffer:
// chain application on the read path costs no simulated I/O, exactly like
// the in-memory merge buffer of the PDL paper; the media copy exists for
// durability and crash recovery.
//
// Versioning. The ring hands out monotonically increasing *flash versions*
// (volatile, per-process). A page's chain tracks {base_version: owner tag
// binding the chain to one specific full flash image (media-meaningful,
// e.g. FaCE's enqueue seq), tip_version: the version of base + all records}.
// The buffer pool remembers which version a DRAM frame was loaded from
// (and which regions were modified since); an append is legal only when the
// frame's version equals the chain tip, which guarantees the tracked
// regions are exactly the diff vs. the current flash state.
//
// Consolidation. A chain is capped in length and bytes; beyond the cap the
// owner falls back to a full write (which re-bases the page). Additionally,
// before a ring slot is overwritten, every page with live records in that
// slot must be consolidated — a full write of its current image — so no
// live chain ever loses its early records. Two paths do it:
//   - the reclamation query (PlanAppends): an owner about to append a batch
//     of records asks, without I/O, which live chains those appends would
//     displace, and rewrites them as full frames first (FaCE's restart
//     checkpoint, where the rewrites join one lane batch);
//   - the slot-reuse callback (SetConsolidateFn): WriteOpenBlock calls it
//     on the first write of a block's sequence number into a slot that
//     still holds live chains. That is the runtime path, one append at a
//     time, and a batch's safety net.
//
// On-media block layout (4 KB):
//   [0..8)   magic
//   [8..16)  block seq (monotone; slot = seq % n_blocks)
//   [16..24) epoch — bumped by Reset() (format); recovery keeps the epoch
//   [24..28) used bytes (header included)
//   [28..32) masked crc32c over bytes [0..28)
//   then     packed PageDeltaRecords (each self-checksummed)
//
// The open block is re-written in place as it fills (Flush() at checkpoint,
// close when full). Every rewrite extends the previous image — records are
// append-only within a block — so any sector-level tear mixing old and new
// images yields a valid record prefix; the per-record crc finds the cut.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/page_delta.h"
#include "common/page_map.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "sim/sim_device.h"

namespace face {

struct DeltaRingOptions {
  uint64_t base_block = 0;  ///< first block of the ring region
  uint32_t n_blocks = 0;    ///< ring size in blocks (>= 2)
  uint16_t max_chain = 16;   ///< records per chain before forced full write
  /// Eligibility caps: half a page each. A record above half-page
  /// approaches full-page cost once the header and packing slack are
  /// counted, while anything below still at least halves the priced write
  /// volume — and typically does far better, since records from many pages
  /// share one block. (Update-heavy YCSB dirties 1-3 ~400 B rows per hot
  /// page between refreshes; a 1 KB cap rejected most of those.)
  uint32_t max_record_bytes = kPageSize / 2;  ///< per-record encoded-size cap
  uint32_t max_chain_bytes = kPageSize;       ///< per-chain total encoded cap
};

class DeltaRing {
 public:
  /// Owner callback: force-consolidate these pages (full write + BeginFull /
  /// Drop) because their ring slot is about to be overwritten. The callback
  /// must not call Append (CanAppend returns false during the sweep); pages
  /// that no longer have live chains should be skipped.
  using ConsolidateFn = std::function<Status(const std::vector<PageId>&)>;

  /// The ring counts its records, record bytes, block writes and forced
  /// consolidations straight into the owner's `stats` (the delta_* fields).
  DeltaRing(const DeltaRingOptions& opts, SimDevice* flash, CacheStats* stats);

  void SetConsolidateFn(ConsolidateFn fn) { consolidate_ = std::move(fn); }

  /// Cold format: forget all chains and start a fresh epoch strictly above
  /// anything already on the media, so stale records from a previous life
  /// of the device can never be mistaken for live ones.
  Status Reset();

  /// A full image of `pid` was (or is about to be) written to flash:
  /// drops any existing chain and registers the new base. `base_tag` is the
  /// owner's media-meaningful identifier of that image (e.g. FaCE enqueue
  /// seq); recovery re-derives it and uses it to match surviving records.
  /// Returns the new tip version for the owner to hand to the buffer pool.
  uint64_t BeginFull(PageId pid, uint64_t base_tag);

  /// True when a delta append is currently legal for this page: the ring is
  /// not mid-consolidation, a chain exists, the caller's frame version
  /// matches the chain tip, and length/byte caps leave room for a record of
  /// `encoded_size` bytes.
  bool CanAppend(PageId pid, uint64_t frame_version,
                 uint32_t encoded_size) const;

  /// Appends a delta record for `pid` built from the tracker regions of
  /// `page` (the current full image). Returns the new tip version, or
  /// kNoFlashVersion when the chain died while making room (slot-reuse
  /// consolidation may destage arbitrary pages) — the caller must then fall
  /// back to a full write.
  StatusOr<uint64_t> Append(PageId pid, uint64_t frame_version,
                            const PageDeltaTracker& tracker, Lsn lsn,
                            bool dirty, const char* page);

  /// The encoded size of the record TryRefresh would append for `hint`'s
  /// tracked regions, or 0 when it would not append (untracked, or
  /// CanAppend refuses).
  uint32_t RefreshSize(PageId pid, const DeltaWriteHint* hint) const;

  /// Reclamation query, read-only: plan appending records of `sizes`
  /// encoded bytes, in order. Returns how many leading records fit without
  /// writing any slot twice (the rest would overwrite this batch's own
  /// records). Appends to `displaced`, sorted and unique, every page whose
  /// live chain has records in a slot those appends overwrite — the open
  /// block's first write at its sequence number included: the test
  /// WriteOpenBlock's callback applies. Rewriting those pages as full
  /// frames before appending leaves the callback nothing to do.
  size_t PlanAppends(const std::vector<uint32_t>& sizes,
                     std::vector<PageId>* displaced) const;

  /// Delta eligibility, the step every policy's refresh path shares: when
  /// `hint` tracks a partial rewrite of `page` (the new full image) against
  /// the chain tip, append it as a record and report the new tip in
  /// hint->new_version. False = not eligible, or the chain died making room;
  /// the caller writes a full image instead.
  StatusOr<bool> TryRefresh(PageId pid, const char* page, bool dirty,
                            DeltaWriteHint* hint);
  /// TryRefresh's lookup-free first test: `hint` tracks a partial rewrite.
  static bool Tracks(const DeltaWriteHint* hint) {
    return hint != nullptr && hint->tracker != nullptr &&
           !hint->tracker->whole_page() && hint->tracker->region_count() != 0;
  }

  /// Patches `pid`'s chain (if any) into `page`, which must hold the chain's
  /// base image, then restamps pageLSN + checksum. Returns true when a
  /// non-empty chain was applied. Costs no simulated I/O (see file comment).
  bool ApplyChain(PageId pid, char* page) const;

  struct ChainView {
    uint64_t base_tag = 0;
    uint64_t tip_version = kNoFlashVersion;
    Lsn tip_lsn = kInvalidLsn;
    uint16_t len = 0;
    uint32_t bytes = 0;
    bool dirty = false;
  };
  /// Chain metadata for `pid`; false when the page is not registered.
  bool GetChain(PageId pid, ChainView* out) const;

  /// The page left the owner's directory (destaged, invalidated): forget
  /// its chain. Records already on media become unmatchable garbage.
  void Drop(PageId pid);
  /// Forget every chain without I/O (the flash device is gone).
  void DropAll();

  /// Make every appended record durable (re-writes the open block in place).
  /// Called on the checkpoint path: absorbed deltas must survive a crash.
  Status Flush();
  bool has_unflushed() const { return unflushed_; }

  /// One record that survived a crash, in ring order.
  struct RecoveredRecord {
    uint64_t block_seq = 0;
    std::string blob;      ///< full encoded record bytes
    PageDeltaRecord rec;   ///< decoded view; payload points into blob
  };

  /// Crash recovery: reads the ring region, keeps blocks of the newest
  /// epoch ordered by block seq, decodes records until the first torn one,
  /// and primes the ring to resume appending in the SAME epoch after the
  /// survivors (a new epoch would orphan checkpoint-absorbed records).
  /// The owner validates each record against its rebuilt directory and
  /// calls AttachRecovered for the ones that belong to a live chain.
  StatusOr<std::vector<RecoveredRecord>> RecoverScan();

  /// Re-attach a surviving record to `pid`'s chain (the owner must already
  /// have called BeginFull with the matching base tag and verified
  /// rec.chain_idx == chain length). Returns the new tip version.
  uint64_t AttachRecovered(PageId pid, const RecoveredRecord& r);

  const DeltaRingOptions& options() const { return opts_; }

  /// Consistency checks for the owner's CheckInvariants: every chain's
  /// node list matches its recorded length/bytes and carries monotonically
  /// increasing chain indexes and LSNs.
  Status CheckInvariants() const;

  /// Enumerate registered pages (invariant audits).
  template <typename Fn>
  void ForEachChain(Fn&& fn) const {
    chains_.ForEach([&](PageId pid, const ChainInfo& c) {
      fn(pid, ChainView{c.base_tag, c.tip_version, c.tip_lsn, c.len, c.bytes,
                        c.dirty != 0});
    });
  }

 private:
  struct ChainInfo {
    int32_t head = -1;    ///< first node index, -1 when chainless
    int32_t tail = -1;
    uint16_t len = 0;
    uint8_t dirty = 0;
    uint32_t bytes = 0;   ///< encoded bytes across the chain
    uint64_t base_tag = 0;
    uint64_t tip_version = kNoFlashVersion;
    Lsn tip_lsn = kInvalidLsn;
  };
  struct Node {
    std::string bytes;       ///< encoded record
    int32_t next = -1;
    uint64_t block_seq = 0;  ///< ring block holding the media copy
  };

  uint64_t NewVersion() { return next_version_++; }
  int32_t AllocNode();
  void FreeChainNodes(ChainInfo* c);
  /// Append to `out`, sorted and unique, the pages whose live chains have a
  /// record in the block `slot` holds now.
  void LiveChainsIn(uint32_t slot, std::vector<PageId>* out) const;
  /// Stamp the open block's header and write it to its slot, consolidating
  /// the slot's previous occupants before the first write of this seq.
  Status WriteOpenBlock();
  /// Write the open block and open a fresh one at the next seq.
  Status CloseBlock();
  /// Scan media headers for the highest epoch (Reset uses max+1).
  uint64_t MaxMediaEpoch();

  DeltaRingOptions opts_;
  SimDevice* flash_;
  CacheStats* stats_;
  ConsolidateFn consolidate_;

  PageMap<ChainInfo> chains_;
  std::vector<Node> nodes_;
  std::vector<int32_t> free_nodes_;

  std::string block_buf_;            ///< open block image (kPageSize)
  uint32_t used_ = 0;                ///< bytes used in the open block
  bool unflushed_ = false;           ///< open block has undurable records
  uint64_t block_seq_ = 0;           ///< seq of the open block
  uint64_t epoch_ = 1;
  uint64_t next_version_ = 1;
  bool in_consolidate_ = false;

  /// Per-slot bookkeeping for slot-reuse consolidation.
  std::vector<uint64_t> slot_seq_;              ///< seq stored in slot (~0 none)
  std::vector<std::vector<PageId>> slot_pages_; ///< pages with records there
  std::vector<PageId> open_pages_;              ///< pages in the open block
};

}  // namespace face
