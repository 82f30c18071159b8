// A simulated block device: stores real page bytes in memory (so the stack
// above it reads back exactly what it wrote, checksums and all) and charges
// virtual service time per request through the cost model. Sequentiality is
// detected by the device itself from request offsets — callers cannot lie
// about their access pattern, which is what makes the mvFIFO-vs-LRU pricing
// comparison honest.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/device_model.h"
#include "sim/io_retry.h"
#include "sim/scheduler.h"

namespace face {

class FaultInjector;

/// Aggregate request/traffic counters for one device.
struct DeviceStats {
  uint64_t read_reqs = 0;
  uint64_t write_reqs = 0;
  uint64_t seq_read_reqs = 0;   ///< requests classified sequential
  uint64_t seq_write_reqs = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  SimNanos busy_ns = 0;         ///< sum of service times
  uint64_t retries = 0;         ///< attempts repeated after transient faults
  SimNanos backoff_ns = 0;      ///< virtual time spent backing off

  uint64_t total_reqs() const { return read_reqs + write_reqs; }
  uint64_t total_pages() const { return pages_read + pages_written; }
};

/// Every DeviceStats counter, the one field list that run deltas and shard
/// merges walk.
inline constexpr uint64_t DeviceStats::*kDeviceCounters[] = {
    &DeviceStats::read_reqs,      &DeviceStats::write_reqs,
    &DeviceStats::seq_read_reqs,  &DeviceStats::seq_write_reqs,
    &DeviceStats::pages_read,     &DeviceStats::pages_written,
    &DeviceStats::busy_ns,        &DeviceStats::retries,
    &DeviceStats::backoff_ns};
static_assert(sizeof(DeviceStats) ==
                  std::size(kDeviceCounters) * sizeof(uint64_t),
              "kDeviceCounters must list every DeviceStats field");

/// Simulated device; see file comment. Not thread-safe (the whole simulation
/// is single-threaded by design).
class SimDevice {
 public:
  /// Creates a device of `capacity_pages` 4 KB blocks. If `sched` is given,
  /// every request is also placed on the scheduler's station timeline;
  /// otherwise the device only accumulates its own counters.
  SimDevice(std::string id, DeviceProfile profile, uint64_t capacity_pages,
            IoScheduler* sched = nullptr);

  /// Read one page into `out` (kPageSize bytes).
  Status Read(uint64_t block, char* out);
  /// Write one page from `in` (kPageSize bytes). Durable on return.
  Status Write(uint64_t block, const char* in);
  /// Read `n` contiguous pages: priced as one positioning + n transfers
  /// (split per RAID stripe on multi-station devices).
  Status ReadBatch(uint64_t block, uint32_t n, char* out);
  /// Write `n` contiguous pages, same pricing as ReadBatch.
  Status WriteBatch(uint64_t block, uint32_t n, const char* in);
  /// WriteBatch for a log force, on a single-station device: the request
  /// may join the station's open group (IoScheduler::OnJoinableIo), adding
  /// only the transfer time of its pages past the group's end. A join moves
  /// the same bytes but counts as part of the group's one request: no
  /// request of its own, and only the pages it adds. `*joined` reports it.
  Status GroupWrite(uint64_t block, uint32_t n, const char* in, bool* joined);

  const std::string& id() const { return id_; }
  const DeviceProfile& profile() const { return profile_; }
  uint64_t capacity_pages() const { return capacity_pages_; }
  const DeviceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DeviceStats(); }

  /// Fraction of virtual time this device was busy, given the run's
  /// makespan. Multi-station devices average across stations.
  double Utilization(SimNanos makespan) const;

  /// Wipe contents to zero. Media state resets with the contents: the
  /// sequentiality history restarts (the next request on every station
  /// classifies random). Stats deliberately survive — Erase models
  /// reformatting the media mid-experiment, not resetting the measurement;
  /// callers that want fresh counters pair it with ResetStats().
  void Erase();

  /// Release the backing memory of blocks in [keep_below, block), shrunk
  /// INWARD to whole allocation chunks: only chunks lying entirely inside
  /// the range are freed, so a partially covered chunk at either end is
  /// kept in full (trimming can never discard a byte outside the range).
  /// The freed blocks read back as zero afterwards. No virtual time is
  /// charged — this models reclaiming recycled WAL extents, not an I/O.
  /// `keep_below` protects a leading superblock region from reclamation.
  void TrimBefore(uint64_t block, uint64_t keep_below = 0);

  /// Copy another device's full contents (bulk load once, clone per bench
  /// configuration). No virtual time is charged. Capacities must match up to
  /// the source's allocated extent.
  Status CloneContentsFrom(const SimDevice& src);

  /// When false, requests move bytes but charge no time and no stats — used
  /// for initial bulk load, which the paper excludes from measurements.
  void set_timing_enabled(bool enabled) { timing_enabled_ = enabled; }
  bool timing_enabled() const { return timing_enabled_; }

  /// Attach a crash injector (null detaches): every write request is
  /// submitted to it first and may be cut short or rejected, and a dead
  /// (crashed) injector fails reads too. See fault/fault_injector.h.
  void set_fault_injector(FaultInjector* fault) { fault_ = fault; }
  FaultInjector* fault_injector() const { return fault_; }

  /// Retry knobs for transient faults (defaults are sane; tests shrink the
  /// budget to force exhaustion cheaply).
  void set_retry_policy(const IoRetryPolicy& policy) { retry_ = policy; }
  const IoRetryPolicy& retry_policy() const { return retry_; }

  /// True once the retry budget was exhausted (or the injector killed the
  /// device): the device is offline and every request fails fast with
  /// Status::DeviceLost until ResetHealth().
  bool failed() const { return failed_; }
  /// Bring a lost device back (models replacing/re-attaching the media);
  /// the caller owns disarming the injector first.
  void ResetHealth() { failed_ = false; }

 private:
  /// One request. `joined` non-null makes it joinable (GroupWrite) and
  /// receives whether it joined.
  Status DoIo(IoOp op, uint64_t block, uint32_t n, char* rbuf,
              const char* wbuf, bool* joined = nullptr);
  /// Cold path of DoIo: consult the attached injector for one attempt. OK =
  /// proceed with the request; a retryable error may be re-attempted by
  /// DoIo's retry loop; any other error ends the request (possibly after a
  /// partial torn write). `latency_factor` is the transient layer's
  /// service-time multiplier for a spiked request (1 otherwise).
  Status ConsultFaultInjector(IoOp op, uint64_t block, uint32_t n,
                              const char* wbuf, uint32_t* latency_factor);
  /// Retry loop around ConsultFaultInjector: backoff on the scheduler
  /// clock between attempts, declare the device lost on budget exhaustion.
  Status ConsultWithRetries(IoOp op, uint64_t block, uint32_t n,
                            const char* wbuf, uint32_t* latency_factor);
  /// Copy `n` pages at `block` into `out`, one memcpy per chunk span.
  /// Absent chunks read back as zeroes without being materialized.
  void CopyOut(uint64_t block, uint32_t n, char* out) const;
  /// Copy `n` pages from `in` to `block`, one memcpy per chunk span.
  void CopyIn(uint64_t block, uint32_t n, const char* in);
  /// Register this device's "sim.<id>.*" metric handles (ctor-time; the
  /// registry hands out process-lifetime pointers, so the handles are valid
  /// even if observability is only enabled later).
  void RegisterObs();
  /// RAID-0 stripe routing.
  uint32_t StationFor(uint64_t block) const;
  /// Spindle-local LBA of `block` (sequentiality is judged per spindle).
  uint64_t LocalOffset(uint64_t block) const;
  char* PagePtr(uint64_t block);

  static constexpr uint64_t kChunkPages = 1024;  // 4 MiB lazy chunks

  std::string id_;
  DeviceProfile profile_;
  uint64_t capacity_pages_;
  IoScheduler* sched_;
  FaultInjector* fault_ = nullptr;
  uint32_t station_base_ = 0;
  bool timing_enabled_ = true;
  bool failed_ = false;  ///< retry budget exhausted; device offline
  IoRetryPolicy retry_;
  DeviceStats stats_;
  /// Per-station, per-op-class end offset of the last request. Read and
  /// write streams are tracked independently: a device serving an
  /// append-only write stream interleaved with a sequential read stream
  /// (mvFIFO enqueue + dequeue) keeps both sequential, as NCQ/elevator
  /// scheduling does on real hardware.
  std::vector<std::array<uint64_t, 2>> last_end_;
  std::vector<std::unique_ptr<char[]>> chunks_;

  /// "sim.<id>.*" handles, indexed by IoOp where it is a pair. Metrics
  /// mirror DeviceStats (so snapshots cover devices uniformly) and add the
  /// per-request service-time and request-size distributions DeviceStats
  /// cannot express.
  obs::Counter* obs_reqs_[2] = {nullptr, nullptr};
  obs::Counter* obs_seq_reqs_[2] = {nullptr, nullptr};
  obs::Counter* obs_pages_[2] = {nullptr, nullptr};
  obs::Counter* obs_busy_ns_ = nullptr;
  obs::Counter* obs_retries_ = nullptr;
  obs::Counter* obs_backoff_ns_ = nullptr;
  obs::Hist* obs_service_ns_ = nullptr;
  obs::Hist* obs_req_pages_ = nullptr;
  const char* obs_span_name_ = nullptr;  ///< interned "io.<id>"
};

}  // namespace face
