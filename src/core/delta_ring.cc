#include "core/delta_ring.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/crc32c.h"
#include "storage/page.h"

namespace face {

namespace {

constexpr uint64_t kDeltaBlockMagic = 0xFACEDE17AB10C0DEull;
constexpr uint32_t kBlockHeaderSize = 32;
constexpr uint64_t kNoSeq = ~0ull;

struct BlockHeader {
  uint64_t seq;
  uint64_t epoch;
  uint32_t used;
};

/// Parse and validate one block header. False = not a delta block (zeroed,
/// foreign, or torn in the header sector).
bool ReadBlockHeader(const char* block, BlockHeader* out) {
  if (DecodeFixed64(block) != kDeltaBlockMagic) return false;
  const uint32_t stored = DecodeFixed32(block + 28);
  if (crc32c::Mask(crc32c::Value(block, 28)) != stored) return false;
  out->seq = DecodeFixed64(block + 8);
  out->epoch = DecodeFixed64(block + 16);
  out->used = DecodeFixed32(block + 24);
  return out->used >= kBlockHeaderSize && out->used <= kPageSize;
}

}  // namespace

DeltaRing::DeltaRing(const DeltaRingOptions& opts, SimDevice* flash,
                     CacheStats* stats)
    : opts_(opts), flash_(flash), stats_(stats) {
  assert(opts_.n_blocks >= 2);
  block_buf_.assign(kPageSize, 0);
  used_ = kBlockHeaderSize;
  slot_seq_.assign(opts_.n_blocks, kNoSeq);
  slot_pages_.resize(opts_.n_blocks);
}

uint64_t DeltaRing::MaxMediaEpoch() {
  std::string buf(static_cast<size_t>(opts_.n_blocks) * kPageSize, '\0');
  uint64_t max_epoch = 0;
  if (flash_->ReadBatch(opts_.base_block, opts_.n_blocks, buf.data()).ok()) {
    for (uint32_t i = 0; i < opts_.n_blocks; ++i) {
      BlockHeader h;
      if (ReadBlockHeader(buf.data() + static_cast<size_t>(i) * kPageSize, &h))
        max_epoch = std::max(max_epoch, h.epoch);
    }
  }
  return max_epoch;
}

Status DeltaRing::Reset() {
  chains_.Clear();
  nodes_.clear();
  free_nodes_.clear();
  open_pages_.clear();
  slot_seq_.assign(opts_.n_blocks, kNoSeq);
  for (auto& v : slot_pages_) v.clear();
  // A fresh epoch strictly above everything on the media, stamped durably
  // right away (as a header-only block 0) so recovery can tell this life of
  // the ring from any earlier one even if no record is ever written.
  epoch_ = MaxMediaEpoch() + 1;
  block_seq_ = 0;
  next_version_ = 1;
  block_buf_.assign(kPageSize, 0);
  used_ = kBlockHeaderSize;
  unflushed_ = false;
  return WriteOpenBlock();
}

int32_t DeltaRing::AllocNode() {
  if (!free_nodes_.empty()) {
    const int32_t idx = free_nodes_.back();
    free_nodes_.pop_back();
    return idx;
  }
  nodes_.push_back(Node{});
  return static_cast<int32_t>(nodes_.size() - 1);
}

void DeltaRing::FreeChainNodes(ChainInfo* c) {
  int32_t idx = c->head;
  while (idx >= 0) {
    const int32_t next = nodes_[idx].next;
    nodes_[idx].bytes.clear();
    nodes_[idx].next = -1;
    free_nodes_.push_back(idx);
    idx = next;
  }
  c->head = c->tail = -1;
  c->len = 0;
  c->bytes = 0;
  c->dirty = 0;
  c->tip_lsn = kInvalidLsn;
}

uint64_t DeltaRing::BeginFull(PageId pid, uint64_t base_tag) {
  ChainInfo* c = chains_.Find(pid);
  if (c == nullptr) {
    c = &chains_[pid];
  } else {
    FreeChainNodes(c);
  }
  c->base_tag = base_tag;
  c->tip_version = NewVersion();
  return c->tip_version;
}

bool DeltaRing::CanAppend(PageId pid, uint64_t frame_version,
                          uint32_t encoded_size) const {
  if (in_consolidate_) return false;
  if (frame_version == kNoFlashVersion) return false;
  if (encoded_size > opts_.max_record_bytes) return false;
  if (encoded_size > kPageSize - kBlockHeaderSize) return false;
  const ChainInfo* c = chains_.Find(pid);
  if (c == nullptr || c->tip_version != frame_version) return false;
  if (c->len >= opts_.max_chain) return false;
  if (c->bytes + encoded_size > opts_.max_chain_bytes) return false;
  return true;
}

StatusOr<uint64_t> DeltaRing::Append(PageId pid, uint64_t frame_version,
                                     const PageDeltaTracker& tracker, Lsn lsn,
                                     bool dirty, const char* page) {
  const uint32_t size = PageDeltaRecord::EncodedSizeFor(tracker);
  if (used_ + size > kPageSize) {
    // The open block is full: write it out and advance. Slot-reuse
    // consolidation inside may destage arbitrary pages (including this
    // one), so re-validate the chain afterwards.
    FACE_RETURN_IF_ERROR(CloseBlock());
  }
  if (!CanAppend(pid, frame_version, size)) return uint64_t{kNoFlashVersion};

  const int32_t idx = AllocNode();
  Node& node = nodes_[idx];
  ChainInfo* c = chains_.Find(pid);
  node.bytes.clear();
  PageDeltaRecord::Encode(tracker, pid, lsn, c->base_tag, c->len, dirty, page,
                          &node.bytes);
  node.next = -1;
  node.block_seq = block_seq_;
  if (c->tail >= 0) {
    nodes_[c->tail].next = idx;
  } else {
    c->head = idx;
  }
  c->tail = idx;
  ++c->len;
  c->bytes += size;
  c->tip_lsn = lsn;
  c->dirty |= dirty ? 1 : 0;
  c->tip_version = NewVersion();

  memcpy(&block_buf_[used_], node.bytes.data(), size);
  used_ += size;
  unflushed_ = true;
  open_pages_.push_back(pid);
  ++stats_->delta_records;
  stats_->delta_record_bytes += size;
  return c->tip_version;
}

uint32_t DeltaRing::RefreshSize(PageId pid,
                                const DeltaWriteHint* hint) const {
  if (!Tracks(hint)) return 0;
  const uint32_t size = PageDeltaRecord::EncodedSizeFor(*hint->tracker);
  return CanAppend(pid, hint->flash_version, size) ? size : 0;
}

StatusOr<bool> DeltaRing::TryRefresh(PageId pid, const char* page, bool dirty,
                                     DeltaWriteHint* hint) {
  if (RefreshSize(pid, hint) == 0) return false;
  FACE_ASSIGN_OR_RETURN(const uint64_t version,
                        Append(pid, hint->flash_version, *hint->tracker,
                               ConstPageView(page).lsn(), dirty, page));
  if (version == kNoFlashVersion) return false;
  hint->new_version = version;
  return true;
}

bool DeltaRing::ApplyChain(PageId pid, char* page) const {
  const ChainInfo* c = chains_.Find(pid);
  if (c == nullptr || c->len == 0) return false;
  int32_t idx = c->head;
  while (idx >= 0) {
    const Node& node = nodes_[idx];
    PageDeltaRecord rec;
    const bool ok = PageDeltaRecord::Decode(
        node.bytes.data(), static_cast<uint32_t>(node.bytes.size()), &rec);
    assert(ok && "in-memory delta record must decode");
    if (ok) rec.ApplyRegions(page);
    idx = node.next;
  }
  PageView v(page);
  v.set_lsn(c->tip_lsn);
  v.StampChecksum();
  return true;
}

bool DeltaRing::GetChain(PageId pid, ChainView* out) const {
  const ChainInfo* c = chains_.Find(pid);
  if (c == nullptr) return false;
  *out = ChainView{c->base_tag, c->tip_version, c->tip_lsn,
                   c->len,      c->bytes,       c->dirty != 0};
  return true;
}

void DeltaRing::Drop(PageId pid) {
  ChainInfo* c = chains_.Find(pid);
  if (c == nullptr) return;
  FreeChainNodes(c);
  chains_.Erase(pid);
}

void DeltaRing::DropAll() {
  chains_.Clear();
  nodes_.clear();
  free_nodes_.clear();
}

Status DeltaRing::Flush() {
  if (!unflushed_) return Status::OK();
  return WriteOpenBlock();
}

void DeltaRing::LiveChainsIn(uint32_t slot, std::vector<PageId>* out) const {
  for (PageId pid : slot_pages_[slot]) {
    const ChainInfo* c = chains_.Find(pid);
    if (c == nullptr || c->len == 0) continue;
    for (int32_t idx = c->head; idx >= 0; idx = nodes_[idx].next) {
      if (nodes_[idx].block_seq == slot_seq_[slot]) {
        out->push_back(pid);
        break;
      }
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

size_t DeltaRing::PlanAppends(const std::vector<uint32_t>& sizes,
                              std::vector<PageId>* displaced) const {
  // Pack the records the way Append would, stopping before a block that
  // would take a slot this batch already writes.
  uint64_t seq = block_seq_;
  uint32_t used = used_;
  size_t fit = 0;
  for (; fit < sizes.size(); ++fit) {
    if (used + sizes[fit] > kPageSize) {
      if (seq + 1 - block_seq_ >= opts_.n_blocks) break;
      ++seq;
      used = kBlockHeaderSize;
    }
    used += sizes[fit];
  }
  if (fit == 0 && !unflushed_) return 0;  // no block gets written
  for (uint64_t s = block_seq_; s <= seq; ++s) {
    const uint32_t slot = static_cast<uint32_t>(s % opts_.n_blocks);
    if (slot_seq_[slot] != s) LiveChainsIn(slot, displaced);
  }
  return fit;
}

Status DeltaRing::WriteOpenBlock() {
  const uint32_t slot = static_cast<uint32_t>(block_seq_ % opts_.n_blocks);
  if (slot_seq_[slot] != block_seq_) {
    // First write of this seq into the slot: the previous occupant's
    // records are about to disappear from the media. Force-consolidate
    // every page whose live chain still has a record in that occupant, so
    // no chain loses its early links.
    std::vector<PageId> sweep;
    LiveChainsIn(slot, &sweep);
    slot_pages_[slot].clear();
    if (!sweep.empty()) {
      if (!consolidate_) {
        return Status::Internal(
            "delta ring slot reuse with live chains and no consolidator");
      }
      in_consolidate_ = true;
      Status st = consolidate_(sweep);
      in_consolidate_ = false;
      FACE_RETURN_IF_ERROR(st);
      stats_->delta_consolidations += sweep.size();
    }
    slot_seq_[slot] = block_seq_;
  }
  EncodeFixed64(&block_buf_[0], kDeltaBlockMagic);
  EncodeFixed64(&block_buf_[8], block_seq_);
  EncodeFixed64(&block_buf_[16], epoch_);
  EncodeFixed32(&block_buf_[24], used_);
  EncodeFixed32(&block_buf_[28],
                crc32c::Mask(crc32c::Value(block_buf_.data(), 28)));
  FACE_RETURN_IF_ERROR(flash_->Write(opts_.base_block + slot,
                                     block_buf_.data()));
  ++stats_->delta_block_writes;
  slot_pages_[slot] = open_pages_;
  unflushed_ = false;
  return Status::OK();
}

Status DeltaRing::CloseBlock() {
  FACE_RETURN_IF_ERROR(WriteOpenBlock());
  ++block_seq_;
  block_buf_.assign(kPageSize, 0);
  used_ = kBlockHeaderSize;
  unflushed_ = false;
  open_pages_.clear();
  return Status::OK();
}

StatusOr<std::vector<DeltaRing::RecoveredRecord>> DeltaRing::RecoverScan() {
  std::string buf(static_cast<size_t>(opts_.n_blocks) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(
      flash_->ReadBatch(opts_.base_block, opts_.n_blocks, buf.data()));

  struct Candidate {
    BlockHeader h;
    uint32_t slot;
  };
  std::vector<Candidate> blocks;
  uint64_t max_epoch = 0;
  for (uint32_t i = 0; i < opts_.n_blocks; ++i) {
    BlockHeader h;
    if (!ReadBlockHeader(buf.data() + static_cast<size_t>(i) * kPageSize, &h))
      continue;
    max_epoch = std::max(max_epoch, h.epoch);
    blocks.push_back(Candidate{h, i});
  }
  blocks.erase(std::remove_if(blocks.begin(), blocks.end(),
                              [&](const Candidate& c) {
                                return c.h.epoch != max_epoch;
                              }),
               blocks.end());
  std::sort(blocks.begin(), blocks.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.h.seq < b.h.seq;
            });

  std::vector<RecoveredRecord> out;
  uint64_t max_seq = 0;
  bool torn = false;
  for (const Candidate& c : blocks) {
    max_seq = std::max(max_seq, c.h.seq);
    slot_seq_[c.slot] = c.h.seq;
    if (torn) continue;  // records past a torn block are unreachable state
    const char* block = buf.data() + static_cast<size_t>(c.slot) * kPageSize;
    uint32_t off = kBlockHeaderSize;
    while (off < c.h.used) {
      PageDeltaRecord rec;
      if (!PageDeltaRecord::Decode(block + off, c.h.used - off, &rec)) {
        // Torn tail: only the newest (open) block can legitimately be cut
        // short; everything at and beyond the cut is discarded.
        torn = true;
        break;
      }
      RecoveredRecord r;
      r.block_seq = c.h.seq;
      r.blob.assign(block + off, rec.encoded_size());
      out.push_back(std::move(r));
      off += rec.encoded_size();
    }
  }
  // Re-point each decoded view into its blob's final location (the vector
  // stopped moving once fully built).
  for (RecoveredRecord& r : out) {
    const bool ok = PageDeltaRecord::Decode(
        r.blob.data(), static_cast<uint32_t>(r.blob.size()), &r.rec);
    assert(ok);
    (void)ok;
  }

  // Resume appending in the SAME epoch right after the survivors: a new
  // epoch would orphan records a checkpoint already made durable.
  if (!blocks.empty()) {
    epoch_ = max_epoch;
    block_seq_ = max_seq + 1;
  }
  block_buf_.assign(kPageSize, 0);
  used_ = kBlockHeaderSize;
  unflushed_ = false;
  open_pages_.clear();
  return out;
}

uint64_t DeltaRing::AttachRecovered(PageId pid, const RecoveredRecord& r) {
  ChainInfo* c = chains_.Find(pid);
  assert(c != nullptr && "owner must BeginFull before attaching records");
  assert(r.rec.chain_idx == c->len && "chain indexes must be contiguous");
  const int32_t idx = AllocNode();
  Node& node = nodes_[idx];
  node.bytes = r.blob;
  node.next = -1;
  node.block_seq = r.block_seq;
  // Re-find: AllocNode may not touch chains_, but stay robust to layout
  // changes — PageMap pointers are invalidated by mutation only.
  c = chains_.Find(pid);
  if (c->tail >= 0) {
    nodes_[c->tail].next = idx;
  } else {
    c->head = idx;
  }
  c->tail = idx;
  ++c->len;
  c->bytes += static_cast<uint32_t>(r.blob.size());
  c->tip_lsn = r.rec.lsn;
  c->dirty |= r.rec.dirty;
  c->tip_version = NewVersion();
  slot_pages_[r.block_seq % opts_.n_blocks].push_back(pid);
  return c->tip_version;
}

Status DeltaRing::CheckInvariants() const {
  Status result = Status::OK();
  chains_.ForEach([&](PageId pid, const ChainInfo& c) {
    if (!result.ok()) return;
    uint16_t n = 0;
    uint32_t bytes = 0;
    Lsn prev_lsn = 0;
    for (int32_t idx = c.head; idx >= 0; idx = nodes_[idx].next) {
      const Node& node = nodes_[idx];
      PageDeltaRecord rec;
      if (!PageDeltaRecord::Decode(node.bytes.data(),
                                   static_cast<uint32_t>(node.bytes.size()),
                                   &rec)) {
        result = Status::Internal("delta chain node fails to decode");
        return;
      }
      if (rec.page_id != pid) {
        result = Status::Internal("delta chain node page id mismatch");
        return;
      }
      if (rec.base_version != c.base_tag) {
        result = Status::Internal("delta chain node base tag mismatch");
        return;
      }
      if (rec.chain_idx != n) {
        result = Status::Internal("delta chain indexes not contiguous");
        return;
      }
      if (rec.lsn < prev_lsn) {
        result = Status::Internal("delta chain LSNs not monotone");
        return;
      }
      prev_lsn = rec.lsn;
      ++n;
      bytes += static_cast<uint32_t>(node.bytes.size());
    }
    if (n != c.len || bytes != c.bytes) {
      result = Status::Internal("delta chain length/bytes bookkeeping drift");
      return;
    }
    if (c.len > 0 && c.tip_lsn != prev_lsn) {
      result = Status::Internal("delta chain tip LSN drift");
      return;
    }
    if (c.len > opts_.max_chain || c.bytes > opts_.max_chain_bytes) {
      result = Status::Internal("delta chain exceeds caps");
      return;
    }
  });
  return result;
}

}  // namespace face
