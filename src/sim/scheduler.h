// Closed-loop virtual-time scheduler. The engine executes single-threaded,
// but the paper's system ran 50 concurrent PostgreSQL backends against
// queueing devices. This scheduler reconstructs that concurrency: each
// transaction is assigned to the next-free client token, every device
// request is placed on its station's timeline FCFS-by-submission, and the
// token's clock advances through queueing delay + service. The result is a
// deterministic max-plus schedule of the closed system: makespan -> tpmC,
// station busy time -> device utilization, completion stamps -> Figure 6.
//
// I/O lane batches. A span may open a batch to issue independent requests
// concurrently (restart redo's read-ahead fetches one page per lane; every
// timed checkpoint, restart's and the runtime ones, writes back one page
// per lane):
//   - every lane starts at the batch start, the span's clock when the batch
//     opened;
//   - requests inside one lane chain serially, so a fetch's eviction
//     write-back or admission write follows its own read;
//   - lanes still queue FCFS on each station, in the order they are issued;
//   - CPU / retry backoff (OnCpu) delays only the lane that incurs it;
//   - the span resumes when the last lane ends (EndBatch);
//   - a lead (IoLead) may start before the batch (NextLaneAt): work the
//     span issued at an earlier clock that the host runs only now, as the
//     batch's first lane. Each station still queues it behind every request
//     issued before it, and the batch waits for it. The caller vouches that
//     it depends on nothing the span did after its start.
// There are two leads:
//   - FaCE's delta-ring read at restart, issued once the metadata restore's
//     lane ended and run in redo's first read-ahead batch (recovery/redo.h);
//   - a timed checkpoint's log force, issued when its sync began and run
//     in FaCE's first room-making batch (FaceCache::CheckpointPages), so it
//     overlaps the destages. The causality rule that allows it: every frame
//     already on flash had its records forced when it reached flash — on
//     leaving DRAM (BufferPool::EvictFrame, PullVictim) or by the force of
//     the checkpoint that absorbed it — so a destage needs no force. Only
//     the offered pages' frames and delta appends wait for the force, and
//     they are written after the batch closed.
// Inside a lane span_time() is the lane's clock, so latency measured across
// a lane's requests (e.g. buffer.miss_fetch_ns) is that lane's latency.
// There is no backfill: a request queues behind every request issued before
// it on its station, even one that starts later in virtual time. A lane
// that returns to a station after a long wait elsewhere (flash read → disk
// write → flash write) would hold back every later lane's request there, so
// such writes belong after the batch. FaCE's checkpoint therefore plans all
// its room first, and its one batch holds only the log force and the frame
// reads and destages that make the room; the survivors, tip images, new
// frames and delta-ring appends are written once the batch closed.
// Batches do not nest and exist only inside an open span; foreground
// transactions never open one.
//
// Group commit (OnJoinableIo; only LogManager::FlushTo issues joinable
// requests). The engine runs host-serially, so every commit issues its own
// log force. A joinable request joins the station's last request instead
// of queueing behind it when:
//   - that request was itself joinable (a force: it opened a group);
//   - it is still the station's last request — any other request on the
//     station closes the group;
//   - the joiner's clock is at or before the group's start: the force has
//     not begun, so the writer would have taken the joiner's pages with it,
//     as PostgreSQL's WAL writer flushes everything queued behind it.
// The join completes at the group's end, which, like the station's, moves
// only by the transfer time of the pages the joiner adds. Requests in a
// lane batch or outside a span never join and open no group. The rule
// charges no other request differently, so every other station's timeline
// is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace face {

/// Virtual-time closed-loop scheduler (see file comment). Single-threaded.
class IoScheduler {
 public:
  /// `num_clients` foreground tokens (the paper runs 50).
  explicit IoScheduler(uint32_t num_clients);

  /// Reserve `n` service stations (devices call this once at construction).
  /// Returns the first station id of the contiguous range.
  uint32_t RegisterStations(uint32_t n);

  /// Start the next foreground transaction on the earliest-free client.
  void BeginTxn();
  /// Finish the current transaction; returns its virtual completion time.
  SimNanos EndTxn();

  /// Extra token for a background stream (checkpointer, lazy cleaner,
  /// recovery). Background work does not count as a transaction.
  uint32_t AddBackgroundToken();
  /// Start a background span on `token`, not earlier than `not_before`.
  void BeginBackground(uint32_t token, SimNanos not_before);
  /// Finish the background span; returns its completion time.
  SimNanos EndBackground();

  /// Charge a device request on `station` to the current token: the token
  /// waits for the station to free, then holds it for `service_ns`.
  void OnIo(uint32_t station, SimNanos service_ns);
  /// Charge pure CPU time to the current token (no station contention).
  void OnCpu(SimNanos think_ns);

  /// Charge a joinable request on `station` (group commit; see file
  /// comment). Joins the station's open group when the rule allows: the
  /// group's end moves by `join_ns` and the current token waits for it.
  /// Otherwise charges `service_ns` exactly as OnIo and, inside a span and
  /// outside a batch, opens a new group. Returns whether it joined.
  bool OnJoinableIo(uint32_t station, SimNanos service_ns, SimNanos join_ns);

  /// Open an I/O lane batch on the active span (see file comment).
  void BeginBatch();
  /// End the current lane (if any) and start the next one at the batch
  /// start. Requests issued until the next call chain on this lane.
  void NextLane();
  /// NextLane, but the lane's clock starts at `start`, at or before the
  /// batch start (see file comment).
  void NextLaneAt(SimNanos start);
  /// Close the batch: the span's clock moves to the latest lane end, which
  /// is returned.
  SimNanos EndBatch();
  /// True between BeginBatch and EndBatch.
  bool in_batch() const { return in_batch_; }

  /// Latest completion time observed (coarse virtual "now" used to trigger
  /// interval-based events like checkpoints).
  SimNanos now() const { return last_completion_; }
  /// Clock of the active span (valid only while in_span()); lets recovery
  /// attribute virtual time to its phases.
  SimNanos span_time() const { return current_time_; }
  /// Push every token's ready time to at least `t` — clients resume no
  /// earlier than `t` (used after a crash: nobody runs during restart).
  void AdvanceAllTokens(SimNanos t);
  /// Max over all token clocks: the virtual end of the run.
  SimNanos makespan() const;
  /// Busy time accumulated on one station.
  SimNanos station_busy_ns(uint32_t station) const { return busy_[station]; }
  /// Number of foreground transactions completed.
  uint64_t txns_completed() const { return txns_completed_; }
  /// True between BeginTxn/BeginBackground and the matching End call.
  bool in_span() const { return active_; }

  /// Forget all timing (tokens, stations, counters, open groups); station
  /// ids survive.
  void Reset();

 private:
  /// group_start_ value of a station with no open group.
  static constexpr SimNanos kNoGroup = ~SimNanos{0};

  uint32_t num_clients_;
  std::vector<SimNanos> token_ready_;   // per-token clock
  std::vector<SimNanos> station_free_;  // per-station next-free time
  std::vector<SimNanos> busy_;          // per-station busy accumulation
  /// Per station: start of the open group (its last request, if joinable),
  /// or kNoGroup.
  std::vector<SimNanos> group_start_;
  uint32_t current_token_ = 0;
  SimNanos current_time_ = 0;
  SimNanos last_completion_ = 0;
  uint64_t txns_completed_ = 0;
  bool active_ = false;
  bool in_batch_ = false;
  SimNanos batch_start_ = 0;  ///< span clock when the batch opened
  SimNanos batch_end_ = 0;    ///< latest lane end so far
};

/// Work a lane batch runs as its first lane, from the clock it was issued
/// at (see file comment). Without a batch it runs on the span's clock.
struct IoLead {
  std::function<Status()> run;
  /// The lane's clock, at or before the batch start.
  SimNanos start = 0;
};

/// RAII lane batch: opens on construction, closes on every exit path — an
/// error unwinding out of a lane must never leave the scheduler batched.
/// A null scheduler makes every call a no-op.
class ScopedIoBatch {
 public:
  explicit ScopedIoBatch(IoScheduler* sched) : sched_(sched) {
    if (sched_ != nullptr) sched_->BeginBatch();
  }
  ~ScopedIoBatch() {
    if (sched_ != nullptr) sched_->EndBatch();
  }
  ScopedIoBatch(const ScopedIoBatch&) = delete;
  ScopedIoBatch& operator=(const ScopedIoBatch&) = delete;

  void NextLane() {
    if (sched_ != nullptr) sched_->NextLane();
  }
  /// Run `lead` as the next lane, from its own clock.
  Status RunLead(const IoLead& lead) {
    if (sched_ != nullptr) sched_->NextLaneAt(lead.start);
    return lead.run();
  }

 private:
  IoScheduler* sched_;
};

}  // namespace face
