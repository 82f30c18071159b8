#include "wal/log_manager.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"
#include "obs/trace.h"

namespace face {

namespace {
constexpr uint64_t kControlMagic = 0xFACEC0DE2012ull;

/// "wal.*" handles (appends mirror Stats; forces add the latency, batch and
/// group-size distributions group commit is all about).
struct WalObs {
  obs::Counter* appends;
  obs::Counter* append_bytes;
  obs::Counter* forces;
  obs::Counter* group_joins;
  obs::Hist* force_pages;
  obs::Hist* force_ns;
  obs::Hist* group_size;
};

WalObs& GetWalObs() {
  thread_local WalObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    WalObs w;
    w.appends = reg.GetCounter("wal.appends");
    w.append_bytes = reg.GetCounter("wal.append_bytes");
    w.forces = reg.GetCounter("wal.forces");
    w.group_joins = reg.GetCounter("wal.group_joins");
    w.force_pages = reg.GetHistogram("wal.force_pages");
    w.force_ns = reg.GetHistogram("wal.force_ns");
    w.group_size = reg.GetHistogram("wal.group_size");
    return w;
  }();
  return o;
}

}  // namespace

void LogManager::ObsOnAppend(uint32_t len) {
  WalObs& o = GetWalObs();
  o.appends->Increment();
  o.append_bytes->Add(len);
}

LogManager::LogManager(SimDevice* device) : device_(device) {}

Status LogManager::Format() {
  next_lsn_ = kLogStartLsn;
  durable_lsn_ = kLogStartLsn;
  buffer_base_ = kLogStartLsn;
  tail_used_ = 0;
  return WriteControlBlock(kInvalidLsn);
}

Status LogManager::Attach() {
  FACE_ASSIGN_OR_RETURN(Lsn ckpt_lsn, ReadControlBlock());
  LogReader reader(device_);
  return Attach(&reader, ckpt_lsn);
}

Status LogManager::Attach(LogReader* reader, Lsn checkpoint_lsn) {
  FACE_RETURN_IF_ERROR(reader->Seek(
      checkpoint_lsn == kInvalidLsn ? kLogStartLsn : checkpoint_lsn));
  while (true) {
    auto rec = reader->Next();
    if (rec.status().IsNotFound()) break;  // the valid end of log
    FACE_RETURN_IF_ERROR(rec.status());
  }
  next_lsn_ = reader->position();
  durable_lsn_ = next_lsn_;
  buffer_base_ = (next_lsn_ / kPageSize) * kPageSize;
  // Preserve the partial last block so future flushes rewrite it intact.
  // The scan ended by reading the record header at next_lsn_, so the
  // reader already holds the block.
  tail_used_ = static_cast<size_t>(next_lsn_ - buffer_base_);
  if (tail_used_ > 0) {
    EnsureTailRoom(0);
    FACE_RETURN_IF_ERROR(reader->Read(buffer_base_,
                                      static_cast<uint32_t>(tail_used_),
                                      tail_.data()));
  }
  return Status::OK();
}

Lsn LogManager::Append(LogRecord* rec) {
  // Encode straight into the tail buffer: no per-record std::string.
  char* dst = AppendBatch(rec->EncodedSize(), &rec->lsn);
  rec->EncodeTo(dst);
  return rec->lsn;
}

Status LogManager::FlushTo(Lsn lsn) {
  // Nothing new since the last flush: in particular, do NOT rewrite the
  // already-durable partial tail block. (Checking `next_lsn_ ==
  // buffer_base_` here used to miss exactly that case.)
  if (lsn < durable_lsn_ || next_lsn_ == durable_lsn_) return Status::OK();
  // Force the whole tail, as one joinable write: whether it joins the
  // station's open group is a matter of virtual time (see file comment).

  obs::ScopedSpan force_span("wal", "force");
  const bool obs_on = obs::Enabled();
  const uint64_t force_start = obs_on ? obs::VirtualNow() : 0;

  const uint64_t first_block = buffer_base_ / kPageSize;
  const uint64_t last_block = (next_lsn_ - 1) / kPageSize;
  const uint32_t n_blocks = static_cast<uint32_t>(last_block - first_block + 1);

  // Assemble full block images in the reusable flush buffer (the final
  // partial block is zero-padded, and rewritten by the next flush — the
  // PostgreSQL partial-page rewrite).
  const size_t block_bytes = static_cast<size_t>(n_blocks) * kPageSize;
  if (flush_buf_.size() < block_bytes) flush_buf_.resize(block_bytes);
  memcpy(flush_buf_.data(), tail_.data(), tail_used_);
  memset(flush_buf_.data() + tail_used_, 0, block_bytes - tail_used_);
  bool joined = false;
  FACE_RETURN_IF_ERROR(device_->GroupWrite(first_block, n_blocks,
                                           flush_buf_.data(), &joined));
  ++stats_.flushes;
  stats_.pages_flushed += n_blocks;
  const uint64_t closed_group = joined ? 0 : group_size_;
  if (joined) {
    ++stats_.group_joins;
    ++group_size_;
  } else {
    group_size_ = 1;
  }
  if (obs_on) {
    WalObs& o = GetWalObs();
    o.forces->Increment();
    if (joined) o.group_joins->Increment();
    if (closed_group > 0) o.group_size->Add(closed_group);
    o.force_pages->Add(n_blocks);
    o.force_ns->Add(obs::VirtualNow() - force_start);
  }

  durable_lsn_ = next_lsn_;
  // Retain only the partial last block in the buffer.
  const Lsn new_base = (next_lsn_ / kPageSize) * kPageSize;
  const size_t drop = static_cast<size_t>(new_base - buffer_base_);
  tail_used_ -= drop;
  memmove(tail_.data(), tail_.data() + drop, tail_used_);
  buffer_base_ = new_base;
  return Status::OK();
}

// Control-block layout (one sector-atomic 4 KB write; crc over the fixed
// 32-byte prefix): magic @0, checkpoint_lsn @8, flags @16 (bit 0 =
// degraded), rebuild_floor @24, masked crc32c @32.
Status LogManager::WriteControlInfo(const WalControlInfo& info) {
  std::string block(kPageSize, '\0');
  EncodeFixed64(block.data(), kControlMagic);
  EncodeFixed64(block.data() + 8, info.checkpoint_lsn);
  EncodeFixed64(block.data() + 16, info.degraded ? 1 : 0);
  EncodeFixed64(block.data() + 24, info.rebuild_floor);
  const uint32_t crc = crc32c::Value(block.data(), 32);
  EncodeFixed32(block.data() + 32, crc32c::Mask(crc));
  return device_->Write(0, block.data());
}

StatusOr<WalControlInfo> LogManager::ReadControlInfo() {
  std::string block(kPageSize, '\0');
  FACE_RETURN_IF_ERROR(device_->Read(0, block.data()));
  if (DecodeFixed64(block.data()) != kControlMagic) {
    return Status::Corruption("log control block: bad magic");
  }
  const uint32_t crc = crc32c::Value(block.data(), 32);
  if (crc32c::Mask(crc) != DecodeFixed32(block.data() + 32)) {
    return Status::Corruption("log control block: bad crc");
  }
  WalControlInfo info;
  info.checkpoint_lsn = DecodeFixed64(block.data() + 8);
  info.degraded = (DecodeFixed64(block.data() + 16) & 1) != 0;
  info.rebuild_floor = DecodeFixed64(block.data() + 24);
  return info;
}

LogReader::LogReader(SimDevice* device) : device_(device) {}

Status LogReader::Seek(Lsn lsn) {
  if (lsn < LogManager::kLogStartLsn) {
    return Status::InvalidArgument("seek before start of log");
  }
  pos_ = lsn;
  return Status::OK();
}

StatusOr<LogReader::WindowMap::iterator> LogReader::Fill(uint64_t block) {
  // Forward scans read from `block` on. A miss below every cached window is
  // a backward walk (undo follows loser chains in reverse-LSN order): read
  // the window that ends one block past `block` — room for a record
  // straddling into the next block — clamped at the log start, so the walk
  // reads once per window, not once per block. A window never extends into
  // the next cached one, so no block is read twice.
  const auto next = windows_.upper_bound(block);
  uint64_t base = block;
  if (next == windows_.begin() && next != windows_.end()) {
    constexpr uint64_t kStartBlock = LogManager::kLogStartLsn / kPageSize;
    base = block + 2 > kStartBlock + kReadBatchBlocks
               ? block + 2 - kReadBatchBlocks
               : kStartBlock;
  }
  uint64_t end = std::min(base + kReadBatchBlocks, device_->capacity_pages());
  if (next != windows_.end()) end = std::min(end, next->first);
  if (end <= block) return Status::IOError("log read past device end");
  std::string bytes(static_cast<size_t>(end - base) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(device_->ReadBatch(
      base, static_cast<uint32_t>(end - base), bytes.data()));
  return windows_.emplace_hint(next, base, std::move(bytes));
}

Status LogReader::Read(Lsn offset, uint32_t n, char* out) {
  uint32_t copied = 0;
  while (copied < n) {
    const Lsn at = offset + copied;
    const uint64_t block = at / kPageSize;
    auto it = windows_.upper_bound(block);
    if (it != windows_.begin()) --it;
    if (it == windows_.end() || it->first > block ||
        block - it->first >= it->second.size() / kPageSize) {
      FACE_ASSIGN_OR_RETURN(it, Fill(block));
    }
    const uint64_t in_window = at - it->first * kPageSize;
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(n - copied, it->second.size() - in_window));
    memcpy(out + copied, it->second.data() + in_window, chunk);
    copied += chunk;
  }
  return Status::OK();
}

StatusOr<LogRecord> LogReader::Next() {
  char lenbuf[4];
  FACE_RETURN_IF_ERROR(Read(pos_, 4, lenbuf));
  const uint32_t len = DecodeFixed32(lenbuf);
  if (len < kLogRecordHeaderSize || len > kMaxLogRecordSize) {
    return Status::NotFound("end of log");
  }
  std::string body(len, '\0');
  FACE_RETURN_IF_ERROR(Read(pos_, len, body.data()));
  auto rec = LogRecord::Decode(body.data(), len);
  if (!rec.ok()) return Status::NotFound("end of log (torn record)");
  if (rec->lsn != pos_) return Status::NotFound("end of log (stale bytes)");
  pos_ += len;
  return rec;
}

}  // namespace face
