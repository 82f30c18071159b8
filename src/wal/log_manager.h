// Append-only WAL over a simulated device: in-memory tail buffer, explicit
// force (FlushTo) at commit and before page steals, and a control block in
// device block 0 recording the last completed checkpoint.
//
// Group commit. The engine runs host-serially, so every committing
// transaction issues its own force. Each force is a joinable device write
// (SimDevice::GroupWrite): a force whose clock is at or before the start of
// the log station's last force, while that force is still the station's
// last request, joins it and completes at the group's end; the group's
// service grows only by the transfer of the blocks the join adds
// (sim/scheduler.h has the rule). The bytes written and their host order
// do not change, so every crash point and fault site stays where it was.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "sim/sim_device.h"
#include "wal/log_record.h"

namespace face {

class LogReader;

/// Everything the control block (device block 0) records. Beyond the
/// checkpoint LSN it carries the degraded-mode marker: set (with a redo
/// floor) the moment the flash cache is declared lost, so a crash at any
/// point during or after the WAL-driven flash rebuild restarts disk-only
/// and redoes far enough back to rebuild flash-only dirty pages.
struct WalControlInfo {
  Lsn checkpoint_lsn = kInvalidLsn;
  bool degraded = false;  ///< flash lost; restart must not trust the cache
  /// While degraded: lowest rec_lsn of any page whose newest version lived
  /// only on flash (kInvalidLsn once the rebuild's checkpoint re-anchors).
  Lsn rebuild_floor = kInvalidLsn;
};

/// WAL appender/forcer. LSN = byte offset of the record in the log stream;
/// the stream starts at byte kPageSize (block 0 is the control block), so
/// LSN 0 doubles as the invalid sentinel.
class LogManager {
 public:
  /// Counters exposed for benches and tests.
  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t flushes = 0;       ///< forces that wrote (joined ones included)
    uint64_t pages_flushed = 0;
    uint64_t group_joins = 0;   ///< forces that joined an open group
  };

  explicit LogManager(SimDevice* device);

  /// Start a fresh log (zero control block, stream begins at block 1).
  Status Format();
  /// Attach to an existing log after a crash: reads the control block, then
  /// runs the Attach below through a reader of its own.
  Status Attach();
  /// Attach through the caller's `reader`: scans forward from
  /// `checkpoint_lsn` (the stream start if invalid) to locate the valid end
  /// of log, and copies the partial tail block out of the reader rather
  /// than reading it again. The reader keeps what it read, so a restart
  /// scanning the same range through it again costs no device I/O.
  Status Attach(LogReader* reader, Lsn checkpoint_lsn);

  /// Assign an LSN to `rec`, serialize it into the tail buffer.
  /// Does NOT hit the device until a flush. Returns the record's LSN.
  Lsn Append(LogRecord* rec);

  /// Reserve tail-buffer room for roughly `bytes_hint` of upcoming record
  /// appends. TransactionManager calls this once per transaction (at the
  /// first logged write), so the per-record AppendBatch calls below never
  /// grow the buffer in steady state — one reservation per transaction
  /// instead of one resize per record.
  void BeginTxnBatch(uint32_t bytes_hint) { EnsureTailRoom(bytes_hint); }

  /// Hand out the next LSN and the `len`-byte tail destination for one
  /// record; the caller encodes in place (see wal/log_record.h's in-place
  /// encoders). The LSN sequence and on-media stream are byte-identical to
  /// the Append path.
  char* AppendBatch(uint32_t len, Lsn* lsn) {
    EnsureTailRoom(len);
    char* dst = tail_.data() + tail_used_;
    *lsn = next_lsn_;
    next_lsn_ += len;
    tail_used_ += len;
    ++stats_.records_appended;
    stats_.bytes_appended += len;
    if (obs::Enabled()) ObsOnAppend(len);
    return dst;
  }

  /// Force the log through `lsn` (inclusive). No-op if already durable.
  /// Writes the whole tail as one joinable request (see file comment).
  Status FlushTo(Lsn lsn);
  /// Force everything appended so far.
  Status FlushAll() { return FlushTo(next_lsn_ > 0 ? next_lsn_ - 1 : 0); }

  /// First LSN that would be assigned next.
  Lsn next_lsn() const { return next_lsn_; }
  /// All records with lsn < durable_lsn() survive a crash.
  Lsn durable_lsn() const { return durable_lsn_; }

  /// Persist the LSN of the latest completed checkpoint in the control
  /// block (clears the degraded marker — Format and plain-engine callers).
  Status WriteControlBlock(Lsn checkpoint_lsn) {
    WalControlInfo info;
    info.checkpoint_lsn = checkpoint_lsn;
    return WriteControlInfo(info);
  }
  /// Persist the full control record (checkpoint LSN + degraded marker).
  Status WriteControlInfo(const WalControlInfo& info);
  /// Read the full control record back.
  StatusOr<WalControlInfo> ReadControlInfo();

  /// Reclaim log space below `lsn`: no reader will ever need records before
  /// the last complete checkpoint once no transaction from before it is
  /// still active. Frees simulator memory; keeps long runs bounded.
  void TruncateBefore(Lsn lsn) {
    if (lsn == kInvalidLsn) return;
    device_->TrimBefore(lsn / kPageSize, /*keep_below=*/1);  // keep control
  }
  /// Read the checkpoint LSN back (kInvalidLsn if none recorded).
  StatusOr<Lsn> ReadControlBlock() {
    FACE_ASSIGN_OR_RETURN(WalControlInfo info, ReadControlInfo());
    return info.checkpoint_lsn;
  }

  const Stats& stats() const { return stats_; }
  SimDevice* device() { return device_; }

  /// Byte offset where the log stream begins.
  static constexpr Lsn kLogStartLsn = kPageSize;

 private:
  /// Cold half of the AppendBatch instrumentation (keeps the inline hot
  /// path to one predicted branch when observability is off).
  void ObsOnAppend(uint32_t len);

  /// Grow the tail storage to hold `more` additional bytes (geometric, so
  /// growth is amortized away; never shrinks).
  void EnsureTailRoom(size_t more) {
    const size_t want = tail_used_ + more;
    if (want > tail_.size()) {
      tail_.resize(want < 2 * tail_.size() ? 2 * tail_.size() : want);
    }
  }

  SimDevice* device_;
  Lsn next_lsn_ = kLogStartLsn;
  Lsn durable_lsn_ = kLogStartLsn;
  /// Tail storage: the unflushed stream bytes live in tail_[0, tail_used_),
  /// where buffer_base_ is the stream offset of tail_[0], always
  /// block-aligned. tail_.size() is capacity, not content length; records
  /// are encoded in place at tail_used_ (see src/wal/README.md).
  std::string tail_;
  size_t tail_used_ = 0;
  Lsn buffer_base_ = kLogStartLsn;
  /// Reusable block-image staging buffer for FlushTo (grown on demand,
  /// never shrunk): flushes allocate nothing in steady state.
  std::string flush_buf_;
  /// Forces in the current group so far (the wal.group_size sample taken
  /// when the next group opens).
  uint64_t group_size_ = 0;
  Stats stats_;
};

/// Sequential scanner over the durable log, charging device reads in batches
/// (this is the "read the log" component of restart time). Every window it
/// reads stays cached for the reader's lifetime, so a second pass over a
/// range it has read costs no device I/O. The memory held is the log range
/// scanned, which checkpoint truncation bounds.
class LogReader {
 public:
  explicit LogReader(SimDevice* device);

  /// Position at `lsn` (must be a record boundary).
  Status Seek(Lsn lsn);
  /// Decode the record at the current position and advance. Returns
  /// NotFound at the end of the valid log (zero length or bad crc); any
  /// other error is a failed device read.
  StatusOr<LogRecord> Next();
  /// LSN of the record Next() would return.
  Lsn position() const { return pos_; }

  /// Copy `n` stream bytes at `offset` into `out`, reading the blocks no
  /// cached window holds.
  Status Read(Lsn offset, uint32_t n, char* out);

 private:
  static constexpr uint64_t kReadBatchBlocks = 64;  // 256 KB read-ahead

  /// Cached windows by base block: disjoint runs of whole blocks.
  using WindowMap = std::map<uint64_t, std::string>;

  /// Read the window that serves `block`, which no cached window holds,
  /// and return its entry.
  StatusOr<WindowMap::iterator> Fill(uint64_t block);

  SimDevice* device_;
  Lsn pos_ = LogManager::kLogStartLsn;
  WindowMap windows_;
};

}  // namespace face
