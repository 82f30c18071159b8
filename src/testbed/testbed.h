// The full experimental rig of the paper's Section 5, in one object:
// devices (disk array + flash SSD + log disk) on a closed-loop scheduler,
// the database engine, a cache-extension policy, a pluggable workload
// driver, a virtual-time checkpoint daemon, and a crash/recovery protocol.
//
// Benches and examples use it like the paper's testbed was used:
//
//   auto golden = GoldenImage::Build(2);          // load TPC-C once
//   Testbed tb(options, &golden);                  // clone per configuration
//   tb.Start();
//   tb.Warmup(20000);                              // populate the flash cache
//   auto result = tb.Run({.txns = 50000});         // measure steady state
//
// The golden image is built once and cloned per configuration, because the
// bulk load dominates wall time otherwise. A clone copies nothing: the
// testbed's database device shares the golden's pages until it writes them
// (SimDevice::CloneContentsFrom), so Start is cheap, and a process holds the
// image once plus the pages each testbed has written. The workload is
// pluggable: any workload::WorkloadFactory (TPC-C, a YCSB mix, your own
// driver) both populates the golden image and drives the clones — TPC-C is
// just the default. GoldenImage::BuildFor(factory) loads any of them.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/cache_ext.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "recovery/flash_rebuild.h"
#include "recovery/restart.h"
#include "sim/device_model.h"
#include "sim/scheduler.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"
#include "wal/log_manager.h"
#include "workload/workload.h"

namespace face {

/// Which flash caching policy the testbed runs: FaCE's variants and the
/// designs the paper's evaluation compares them with.
enum class CachePolicy : uint8_t {
  kNone = 0,  ///< no flash cache (HDD-only / SSD-only)
  kFace,      ///< mvFIFO, individual I/Os
  kFaceGR,    ///< mvFIFO + Group Replacement
  kFaceGSC,   ///< mvFIFO + Group Second Chance
  kLc,        ///< Lazy Cleaning (Do et al., SIGMOD'11)
};

/// Printable policy name matching the paper's figure legends.
const char* CachePolicyName(CachePolicy policy);

/// A fully loaded database image, built once by a workload factory and
/// cloned per configuration. It is never written after the build; clones
/// share its pages until they write them.
struct GoldenImage {
  std::unique_ptr<SimDevice> device;  ///< unscheduled, holds the page image
  PageId next_page_id = 0;            ///< allocator high-water mark
  uint32_t warehouses = 0;            ///< TPC-C scale (0 for other loads)
  /// The workload that loaded the image; clones drive it by default.
  std::shared_ptr<const workload::WorkloadFactory> factory;

  /// Pages the image actually uses (= next_page_id).
  uint64_t db_pages() const { return next_page_id; }

  /// Load a fresh TPC-C database of `warehouses` warehouses.
  static StatusOr<GoldenImage> Build(uint32_t warehouses,
                                     uint64_t seed = 20120827);

  /// Load a fresh database with any workload factory's initial population.
  static StatusOr<GoldenImage> BuildFor(
      std::shared_ptr<const workload::WorkloadFactory> factory,
      uint64_t seed = 20120827);

  /// Device capacity the testbed provisions for `warehouses` (TPC-C).
  static uint64_t CapacityPages(uint32_t warehouses);
};

/// Shape of one testbed configuration (a point in the paper's experiment
/// grids).
struct TestbedOptions {
  uint32_t clients = 50;  ///< closed-loop client tokens (paper: 50)
  uint64_t seed = 42;

  /// Workload driven against the clone. Null = the golden image's own
  /// factory (TPC-C for images built via Build(warehouses)).
  std::shared_ptr<const workload::WorkloadFactory> workload;

  DeviceProfile db_profile = DeviceProfile::Raid0Seagate(8);
  DeviceProfile flash_profile = DeviceProfile::MlcSamsung470();

  /// DRAM buffer in frames. 0 = the paper's ratio (200 MB : 50 GB = 0.4 %
  /// of the database, floor 256 frames).
  uint32_t buffer_frames = 0;
  /// Flash cache capacity in pages (ignored for kNone).
  uint64_t flash_pages = 0;
  CachePolicy policy = CachePolicy::kNone;

  /// FaCE: pages per GR/GSC batch (paper: a flash block, 64 or 128).
  uint32_t group_size = 64;
  /// FaCE: metadata entries per persistent segment. 0 = one 4 KB metadata
  /// block (170 entries), at most half the frames. Restart scans at most
  /// two segments of raw frames, and refuses a segment above half the
  /// frames.
  uint32_t seg_entries = 0;
  /// FaCE §3.2 design-choice ablations (paper defaults below).
  bool face_write_through = false;
  bool face_cache_clean = true;
  bool face_cache_dirty = true;

  /// CPU time charged per transaction (no station contention).
  SimNanos cpu_per_txn_ns = 100 * kNanosPerMicro;

  /// Virtual-time interval between background scrub passes over idle flash
  /// frames (0 = scrubber off). Each pass verifies up to 64 occupied
  /// frames' checksums, repairs rotten clean frames from disk, and rebuilds
  /// rotten dirty frames from the WAL — see CacheExtension::ScrubSome.
  SimNanos scrub_interval = 0;
};

/// Knobs of one measured run.
struct RunOptions {
  uint64_t txns = 10000;
  /// Virtual-time database checkpoint interval; 0 = no checkpoints.
  SimNanos checkpoint_interval = 0;
  /// Record per-transaction completion stamps (Figure 6 timelines).
  bool collect_completions = false;
};

/// The flash-loss supervisor's and the scrubber's counters (all zero on a
/// healthy run).
struct FaultTelemetry {
  uint64_t degradations = 0;    ///< flash-loss events the supervisor handled
  uint64_t degraded_txns = 0;   ///< transactions served while disk-only
  SimNanos degraded_ns = 0;     ///< virtual time spent in degraded mode
  uint64_t scrub_frames_scanned = 0;
  uint64_t scrub_clean_repaired = 0;
  uint64_t scrub_lost_dirty = 0;  ///< rotten dirty frames rebuilt from WAL
};

/// Every FaultTelemetry counter, the one field list that run deltas and
/// shard merges walk.
inline constexpr uint64_t FaultTelemetry::*kFaultCounters[] = {
    &FaultTelemetry::degradations,
    &FaultTelemetry::degraded_txns,
    &FaultTelemetry::degraded_ns,
    &FaultTelemetry::scrub_frames_scanned,
    &FaultTelemetry::scrub_clean_repaired,
    &FaultTelemetry::scrub_lost_dirty};
static_assert(sizeof(FaultTelemetry) ==
                  std::size(kFaultCounters) * sizeof(uint64_t),
              "kFaultCounters must list every FaultTelemetry field");

/// Everything one run measured. Counter fields are deltas over the run.
struct RunResult {
  uint64_t txns = 0;
  /// Headline-metric transactions (NewOrder for TPC-C, all ops for YCSB).
  uint64_t primary_txns = 0;
  uint64_t user_aborts = 0;
  SimNanos duration = 0;  ///< virtual makespan delta of this run
  uint64_t checkpoints = 0;

  DeviceStats db_stats, flash_stats, log_stats;
  double db_utilization = 0;
  double flash_utilization = 0;
  CacheStats cache_stats;
  BufferPool::Stats pool_stats;

  /// Completion stamp + workload txn-type index per transaction (if
  /// collected).
  std::vector<std::pair<SimNanos, uint8_t>> completions;

  /// Fault-tolerance telemetry of this run.
  FaultTelemetry fault;

  /// All transactions per virtual minute.
  double Tpm() const {
    return duration ? static_cast<double>(txns) * 60e9 /
                          static_cast<double>(duration)
                    : 0.0;
  }
  /// Primary transactions per virtual minute — the paper's tpmC under
  /// TPC-C, plain throughput elsewhere.
  double TpmC() const {
    return duration ? static_cast<double>(primary_txns) * 60e9 /
                          static_cast<double>(duration)
                    : 0.0;
  }
  /// Flash 4 KB page I/Os per second (Table 4b).
  double FlashIops() const {
    return duration ? static_cast<double>(flash_stats.total_pages()) * 1e9 /
                          static_cast<double>(duration)
                    : 0.0;
  }
};

/// The testbed; see file comment. Single-threaded.
class Testbed {
 public:
  /// `golden` must outlive the testbed and match no particular profile —
  /// only its bytes, allocator mark, and workload factory are used.
  Testbed(const TestbedOptions& options, const GoldenImage* golden);
  ~Testbed();

  /// Clone the golden image, wire the stack, take the anchoring checkpoint,
  /// and bind the workload driver.
  Status Start();

  /// Run `txns` transactions, then zero every stat and clock: subsequent
  /// Run() calls measure steady state (paper §5.2: "all measurements after
  /// the flash cache was fully populated").
  Status Warmup(uint64_t txns);

  /// Run a measured batch of transactions.
  StatusOr<RunResult> Run(const RunOptions& run);

  /// Take one checkpoint now, on the checkpoint token, as Run's interval
  /// checkpoints do: its write-back runs as lane batches beside the
  /// clients' requests (Checkpointer::TakeCheckpoint). Records the span's
  /// virtual time in the `checkpoint.virtual_ns` histogram.
  StatusOr<Lsn> TakeCheckpoint();

  /// Position a kill (the paper's restart protocol, §5.5): run 200-txn
  /// batches with a checkpoint every `interval` until `checkpoints` more
  /// completed, then single transactions until the clock sits within one
  /// transaction of an interval's midpoint. When the last batch ended past
  /// the midpoint, the single transactions first pass the next checkpoint.
  Status RunToMidInterval(SimNanos interval, uint64_t checkpoints);

  /// Begin `n` transactions and leave them uncommitted with real updates
  /// applied — the in-flight work a mid-interval crash strands (the
  /// paper's kill -9 protocol always caught ~50 backends mid-flight).
  /// Requires a workload that implements InjectStranded.
  Status InjectInflightTransactions(uint32_t n);

  /// Power loss: DRAM state (buffer pool, directories, active
  /// transactions) is gone; device contents survive, and so does the
  /// workload (the clients, which run on the host).
  Status Crash();

  /// Restart after Crash(): rebuilds the DRAM stack and runs full recovery
  /// on a background token, then binds the workload to the recovered
  /// database. Clients resume only after recovery finishes.
  StatusOr<RestartReport> Recover();

  /// The crash oracle: the bound workload's logical audit
  /// (Workload::Audit), then the cache audit (CacheExtension::AuditFrames).
  /// Device timing is off meanwhile; the audit's I/O is not part of the
  /// experiment.
  StatusOr<workload::AuditReport> Audit();

  // --- flash-loss supervision ----------------------------------------------
  // Run() invokes this machinery automatically when the flash device's
  // retry budget is exhausted (SimDevice::failed()); tests and benches may
  // also drive it directly.

  /// Declare the flash cache lost and transition to disk-only service:
  /// collect the flash-only dirty set, drop the cache state (no flash
  /// I/O), persist the degraded marker + WAL rebuild floor, flush frames
  /// whose only redo protection was their flash copy, rebuild the lost
  /// dirty pages from the WAL onto disk, roll back stranded transactions,
  /// and re-anchor with a checkpoint. Traffic resumes disk-only.
  Status DegradeToDiskOnly();

  /// Re-attach a healthy flash device after degradation: resets device
  /// health, erases the media, reformats the policy cold, and clears the
  /// durable degraded marker. The cache re-warms through normal admission.
  /// The caller owns disarming any fault injector first.
  Status ReattachFlash();

  /// Run one scrub pass over up to `max_frames` occupied flash frames now
  /// (Run() also schedules passes on opts_.scrub_interval). Rotten dirty
  /// frames reported by the policy are rebuilt from the WAL immediately.
  StatusOr<ScrubResult> ScrubPass(uint64_t max_frames);

  /// True while serving disk-only after a flash loss.
  bool IsDegraded() const { return cache_ != nullptr && cache_->degraded(); }
  /// Report of the most recent WAL-driven flash rebuild.
  const FlashRebuildReport& last_rebuild() const { return last_rebuild_; }

  /// Test hook: invoked between the durable degraded-marker write and the
  /// WAL-driven rebuild. A non-OK return unwinds the degradation mid-way —
  /// the window a crash-during-rebuild test crashes in. Null disables.
  void set_mid_degrade_hook(std::function<Status()> hook) {
    mid_degrade_hook_ = std::move(hook);
  }

  // --- accessors ---------------------------------------------------------------
  Database* db() { return db_.get(); }
  /// The bound workload (valid after Start, across crashes). Tests that
  /// need its internals (TPC-C's tables, YCSB's key space) cast it.
  workload::Workload* workload() { return workload_.get(); }
  IoScheduler* sched() { return &sched_; }
  SimDevice* db_dev() { return db_dev_.get(); }
  SimDevice* flash_dev() { return flash_dev_.get(); }
  SimDevice* log_dev() { return log_dev_.get(); }
  CacheExtension* cache() { return cache_.get(); }
  const TestbedOptions& options() const { return opts_; }
  /// DRAM buffer frames actually in use (after the 0 = ratio default).
  uint32_t buffer_frames() const { return buffer_frames_; }
  /// Virtual time of the most recent checkpoint (crash-protocol helper).
  SimNanos last_checkpoint_time() const { return last_ckpt_time_; }

  /// Snapshot of the observability registry: the metrics JSON object when
  /// `as_json`, a human-readable name = value listing otherwise. Empty-ish
  /// ("{}" / "") when obs is disabled or compiled out.
  std::string DumpStats(bool as_json = false) const;

 private:
  /// Create storage/log/cache/database. `after_crash` skips cache Format
  /// (RecoverAfterCrash will restore or reset it).
  Status BuildDramStack(bool after_crash);
  /// Construct the configured policy over flash_dev_.
  StatusOr<std::unique_ptr<CacheExtension>> MakeCache();
  /// Flash device blocks the policy needs for `flash_pages` cache pages.
  uint64_t FlashDeviceBlocks() const;
  uint32_t EffectiveSegEntries() const;
  /// Run the checkpointer / lazy cleaner on their background tokens.
  Status RunBackgroundWork();
  /// Charge (or stop charging) every device's I/O to virtual time.
  void SetTiming(bool on);
  void ResetAllStats();
  /// Supervisor filter for engine errors: true = the error was a flash
  /// loss and the system degraded to disk-only (caller continues); false =
  /// `s` was OK; any other error propagates unchanged.
  StatusOr<bool> InterceptFlashLoss(const Status& s);
  /// Fault telemetry so far, the open degraded window included.
  FaultTelemetry Telemetry() const;

  TestbedOptions opts_;
  const GoldenImage* golden_;
  std::shared_ptr<const workload::WorkloadFactory> factory_;
  IoScheduler sched_;
  std::unique_ptr<SimDevice> db_dev_, log_dev_, flash_dev_;
  uint32_t ckpt_token_ = 0, cleaner_token_ = 0, recovery_token_ = 0;
  uint32_t buffer_frames_ = 0;

  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CacheExtension> cache_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<workload::Workload> workload_;
  Random client_rnd_;  ///< per-client request stream handed to NextTxn

  /// Per-transaction-type latency histograms, indexed by the workload's
  /// type index ("testbed.txn_latency_ns.<type>"). Rebuilt on every
  /// workload bind; null handles while obs is compiled out or unbound.
  std::vector<obs::Hist*> txn_lat_;

  SimNanos last_ckpt_time_ = 0;
  uint64_t txn_seed_ = 0;  ///< workload seed, advanced across crashes

  // Flash-loss supervision state (see DegradeToDiskOnly / ScrubPass).
  std::function<Status()> mid_degrade_hook_;
  FlashRebuildReport last_rebuild_;
  SimNanos last_scrub_time_ = 0;
  /// Since the last stats reset; degraded_ns sums the closed windows.
  FaultTelemetry fault_;
  SimNanos degraded_since_ = 0;  ///< start of the open degraded window
};

}  // namespace face
