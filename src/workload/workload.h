// The pluggable workload interface that decouples the experimental rig from
// TPC-C. A Workload owns the logical access pattern: which tables it
// touches, which transaction profiles it mixes, and how its key space is
// skewed. The testbed owns everything physical (devices, scheduler, cache
// policy, recovery) and drives any Workload through the same loop:
//
//   factory->Load(db, seed)     once, into the golden image
//   workload = factory->Create()  once per clone
//   workload->Setup(db, seed)   per clone / after each recovery
//   workload->NextTxn(db, rnd)  per transaction, begin..commit inclusive
//   workload->Audit(db, report) after a restart: is the recovered database
//                               one the committed history allows?
//
// A Workload plays the clients, which live on the host: a crash of the
// simulated machine discards the database's DRAM but not the Workload, so
// what it remembers of its acknowledged commits survives to audit the
// restart.
//
// Concrete drivers: tpcc::Workload (the paper's workload, and the default;
// tpcc/workload.h) and YcsbWorkload (every key-value mix over one KV table:
// uniform/Zipfian/latest keys, read/update/insert/scan, the cache-polluting
// long scans included). A workload never reads virtual time, so one seed
// gives every cache policy the same page references: comparing policies on
// live runs compares them on the same accesses.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"

namespace face {
namespace workload {

/// Per-workload outcome counters. `completed` is indexed by the driver's
/// transaction-type index; `primary` counts the transactions that make up
/// the headline throughput metric (NewOrder for TPC-C, every operation for
/// YCSB) — the testbed's TpmC() reports primary per virtual minute.
struct WorkloadStats {
  static constexpr uint32_t kMaxTxnTypes = 8;

  uint64_t completed[kMaxTxnTypes] = {};
  uint64_t primary = 0;
  uint64_t user_aborts = 0;   ///< intentional rollbacks (TPC-C §2.4.1.4)
  uint64_t rows_read = 0;     ///< per-txn stats hooks: tuples touched
  uint64_t rows_written = 0;

  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t c : completed) t += c;
    return t;
  }
};

/// How an audit resolved the write a crash cut in flight: the restart
/// kept its new version or rolled it back. kNone: no write was in doubt.
enum class PendingOutcome : uint8_t { kNone = 0, kCommitted, kRolledBack };

/// Outcome of one audit of a recovered database: the workload's logical
/// check (Workload::Audit) and the cache audit beside it. Divergences are
/// reported, not returned as errors, so one audit accounts for everything
/// it finds; only rig failures (a dead device) surface as non-OK status.
struct AuditReport {
  uint64_t rows_checked = 0;
  uint64_t divergences = 0;           ///< states no committed history allows
  uint64_t invariant_violations = 0;  ///< cache-directory audit failures
  uint64_t frames_audited = 0;        ///< flash frames read back and verified
  PendingOutcome pending_outcome = PendingOutcome::kNone;
  /// First few findings, human-readable (capped).
  std::vector<std::string> details;

  bool ok() const { return divergences == 0 && invariant_violations == 0; }
  void AddDivergence(const std::string& what);
  void AddViolation(const std::string& what);
  /// Fold another audit's counts into this one.
  void Merge(const AuditReport& other);
  std::string ToString() const;
};

/// One workload driver bound to one database; see file comment.
/// Single-threaded, like the engine underneath.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Short printable name ("tpcc", "ycsb-zipfian", ...).
  virtual const char* name() const = 0;

  /// Number of transaction profiles this workload mixes (<= kMaxTxnTypes).
  virtual uint32_t num_txn_types() const = 0;
  /// Printable name of transaction type `type`.
  virtual const char* txn_type_name(uint8_t type) const = 0;

  /// Bind to `db`: open tables, rebuild in-memory working state, seed the
  /// driver's generators. Called once after the database opens and again
  /// after every crash recovery (with a fresh seed, so the post-crash
  /// request stream diverges like real clients would), on the same object.
  virtual Status Setup(Database& db, uint64_t seed) = 0;

  /// Run one complete transaction (begin..commit or intentional rollback)
  /// and return the type index that ran. `rnd` is the testbed's per-client
  /// request stream; drivers with richer generator state (TPC-C NURand,
  /// Zipfian tables) may keep their own generators seeded at Setup instead.
  virtual StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) = 0;

  /// Begin one transaction, apply real updates, and return WITHOUT
  /// committing — the stranded in-flight work a crash interrupts (recovery
  /// tests count these as losers). Optional: default is Unimplemented.
  virtual Status InjectStranded(Database& db, Random& rnd);

  /// The testbed rolled back every in-flight transaction on the live
  /// engine (a flash loss interrupted one mid-run and the
  /// supervisor aborted it before resuming traffic). Drivers tracking
  /// in-doubt state record that its commit never completed; the next
  /// Audit checks the outcome. Default is a no-op.
  virtual Status OnInflightRolledBack(Database& db) {
    (void)db;
    return Status::OK();
  }

  /// Check the bound (recovered) database logically and record every
  /// divergence in `report`: a committed write lost or resurrected, a
  /// broken consistency condition. Called after every restart, before the
  /// workload resumes. Default: checks nothing.
  virtual Status Audit(Database& db, AuditReport* report) {
    (void)db;
    (void)report;
    return Status::OK();
  }

  const WorkloadStats& stats() const { return stats_; }
  virtual void ResetStats() { stats_ = WorkloadStats(); }

 protected:
  /// Record a completed transaction of `type`; `primary` marks it as part
  /// of the headline metric.
  void RecordCompleted(uint8_t type, bool primary) {
    assert(type < WorkloadStats::kMaxTxnTypes);
    ++stats_.completed[type];
    if (primary) ++stats_.primary;
  }

  WorkloadStats stats_;
};

/// Builds one workload family: the bulk load that populates a golden image
/// and the driver that runs against clones of it. Factories are immutable
/// and shared (the same factory configures the golden image and every
/// testbed clone, so load and drive always agree on the schema and scale).
class WorkloadFactory {
 public:
  virtual ~WorkloadFactory() = default;

  virtual const char* name() const = 0;

  /// Device pages a golden image of this workload should provision
  /// (database contents plus growth headroom).
  virtual uint64_t CapacityPages() const = 0;

  /// Populate a freshly formatted database. Implementations bulk-load
  /// through the normal engine paths unlogged, then CleanShutdown() so the
  /// on-media image is self-contained (the standard bootstrap shortcut).
  virtual Status Load(Database& db, uint64_t seed) const = 0;

  /// Build an unbound driver (callers Setup() it per clone).
  virtual std::unique_ptr<Workload> Create() const = 0;

  /// A factory for shard `shard` of `num_shards`: the same workload family
  /// scaled to one shard's slice of the data — a warehouse range for TPC-C,
  /// a key range for the KV workloads. Each shard is an independent engine
  /// instance with its own devices and log, so the slice is re-based at
  /// zero (shard-local keys [0, slice)). Returns null when the workload
  /// cannot be partitioned (a custom factory, or more shards than
  /// partitionable units); one-shard callers should use the factory itself,
  /// unpartitioned.
  virtual std::shared_ptr<const WorkloadFactory> Partition(
      uint32_t shard, uint32_t num_shards) const;
};

/// Size of `shard`'s slice when `total` units split across `num_shards` as
/// evenly as possible (the first `total % num_shards` shards take one extra).
inline uint64_t ShardSlice(uint64_t total, uint32_t shard,
                           uint32_t num_shards) {
  return total / num_shards + (shard < total % num_shards ? 1 : 0);
}

}  // namespace workload
}  // namespace face
