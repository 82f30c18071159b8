// Sharded multi-core execution: N independent Testbeds — each with its own
// devices, scheduler clock, WAL, and workload slice — driven by N persistent
// worker threads. Shards never share simulated state; the only cross-shard
// coupling is the harness-level barrier: every call returns only after
// the workers it used have gone idle.
//
// Determinism contract: a shard's entire simulated execution is a pure
// function of (golden image, TestbedOptions, per-shard seed). Worker
// threads only change *wall-clock* interleaving, never the virtual-time
// schedule, so the same seed at any shard count replays bit-for-bit.
// With shards == 1 the per-shard seed is the base seed unchanged and the
// workload factory is used unpartitioned: a one-shard ShardedTestbed is
// observationally identical to a plain Testbed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "testbed/shard_worker.h"
#include "testbed/testbed.h"

namespace face {

/// Shape of a sharded configuration: one TestbedOptions template stamped
/// out per shard with a derived seed and a partitioned workload slice.
struct ShardedTestbedOptions {
  uint32_t shards = 1;
  /// Per-shard template. `base.workload` is ignored; use `factory`.
  TestbedOptions base;
  /// The whole workload; shard i runs factory->Partition(i, shards)
  /// (shards == 1 uses the factory itself, unpartitioned).
  std::shared_ptr<const workload::WorkloadFactory> factory;
  /// When > 0: per-shard flash_pages = flash_ratio * that shard's golden
  /// db_pages (so the cache scales with the slice). 0 = base.flash_pages
  /// verbatim per shard.
  double flash_ratio = 0.0;
};

/// The sharded rig; see file comment. All public methods are called from
/// the harness thread and act as barriers: they return only after every
/// worker involved has gone idle, so inspecting testbed(i) between calls
/// is race-free.
class ShardedTestbed {
 public:
  explicit ShardedTestbed(const ShardedTestbedOptions& options);
  ~ShardedTestbed();

  /// Partition the workload, then build every shard's golden image and
  /// Testbed in parallel on its worker thread (the worker binds its own
  /// thread-local virtual clock and obs registries).
  Status Start();

  /// Warmup every shard in parallel (`txns` transactions each).
  Status Warmup(uint64_t txns);

  /// Run `run.txns` transactions *per shard* in parallel. The merged
  /// result sums counters and takes the makespan (max) as duration; the
  /// optional `per_shard` out-param receives each shard's own result (the
  /// unit of the determinism fingerprint).
  StatusOr<RunResult> Run(const RunOptions& run,
                          std::vector<RunResult>* per_shard = nullptr);

  /// Run `fn(testbed)` on shard `i`'s worker thread and wait for it —
  /// for per-shard setup (InjectInflightTransactions, fault arming).
  Status OnShard(uint32_t shard, const std::function<Status(Testbed&)>& fn);

  uint32_t shards() const { return opts_.shards; }
  /// Shard i's testbed (valid after Start). Harness-thread inspection
  /// only while no parallel call is in flight.
  Testbed* testbed(uint32_t shard) { return testbeds_[shard].get(); }
  /// The seed shard i runs with (base.seed at shards == 1, a per-shard
  /// derivation otherwise).
  uint64_t shard_seed(uint32_t shard) const;

 private:
  /// Launch `fn(i)` on every worker, join all, return the first error.
  Status ParallelOnAll(const std::function<Status(uint32_t)>& fn);

  ShardedTestbedOptions opts_;
  std::vector<std::shared_ptr<const workload::WorkloadFactory>> factories_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::unique_ptr<GoldenImage>> goldens_;
  std::vector<std::unique_ptr<Testbed>> testbeds_;
};

/// Fold per-shard run results into one machine-wide result: counters sum,
/// duration is the makespan (max), utilizations are recomputed against it,
/// completions are merged in stamp order. Exposed for bench reporting.
RunResult MergeRunResults(const std::vector<RunResult>& per_shard,
                          const TestbedOptions& base);

}  // namespace face
