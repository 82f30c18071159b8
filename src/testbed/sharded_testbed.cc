#include "testbed/sharded_testbed.h"

#include <algorithm>
#include <string>

namespace face {

namespace {

/// Golden-ratio odd multiplier: spreads shard indices across the seed
/// space so neighboring shards never run correlated request streams.
constexpr uint64_t kShardSeedMix = 0x9e3779b97f4a7c15ull;

/// Sum `from` into `into` over the struct's field list.
template <typename Stats, size_t N>
void AddCounters(Stats* into, const Stats& from,
                 uint64_t Stats::* const (&fields)[N]) {
  for (uint64_t Stats::*f : fields) into->*f += from.*f;
}

}  // namespace

RunResult MergeRunResults(const std::vector<RunResult>& per_shard,
                          const TestbedOptions& base) {
  RunResult merged;
  for (const RunResult& r : per_shard) {
    merged.txns += r.txns;
    merged.primary_txns += r.primary_txns;
    merged.user_aborts += r.user_aborts;
    merged.checkpoints += r.checkpoints;
    merged.duration = std::max(merged.duration, r.duration);
    AddCounters(&merged.db_stats, r.db_stats, kDeviceCounters);
    AddCounters(&merged.flash_stats, r.flash_stats, kDeviceCounters);
    AddCounters(&merged.log_stats, r.log_stats, kDeviceCounters);
    AddCounters(&merged.cache_stats, r.cache_stats, kCacheCounters);
    AddCounters(&merged.pool_stats, r.pool_stats, kPoolCounters);
    AddCounters(&merged.fault, r.fault, kFaultCounters);
    merged.completions.insert(merged.completions.end(), r.completions.begin(),
                              r.completions.end());
  }
  // The shards ran concurrently: utilization is total busy time over the
  // machine-wide capacity (every shard's stations) for the makespan.
  const uint64_t n = per_shard.empty() ? 1 : per_shard.size();
  if (merged.duration > 0) {
    merged.db_utilization =
        static_cast<double>(merged.db_stats.busy_ns) /
        (static_cast<double>(merged.duration) *
         static_cast<double>(base.db_profile.stations) * static_cast<double>(n));
    merged.flash_utilization = static_cast<double>(merged.flash_stats.busy_ns) /
                               (static_cast<double>(merged.duration) *
                                static_cast<double>(n));
  }
  std::stable_sort(merged.completions.begin(), merged.completions.end(),
                   [](const std::pair<SimNanos, uint8_t>& a,
                      const std::pair<SimNanos, uint8_t>& b) {
                     return a.first < b.first;
                   });
  return merged;
}

ShardedTestbed::ShardedTestbed(const ShardedTestbedOptions& options)
    : opts_(options) {}

ShardedTestbed::~ShardedTestbed() {
  // A testbed must die on the thread that ran it: its destructor unhooks
  // the worker's thread-local virtual clock.
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    if (i < testbeds_.size() && testbeds_[i] != nullptr) {
      workers_[i]->Call([this, i] { testbeds_[i].reset(); });
    }
  }
  workers_.clear();  // joins the threads
}

uint64_t ShardedTestbed::shard_seed(uint32_t shard) const {
  // One shard reproduces a plain Testbed bit-for-bit; more shards get
  // decorrelated streams derived from the same base seed.
  return opts_.shards == 1 ? opts_.base.seed
                           : opts_.base.seed ^ (kShardSeedMix * (shard + 1));
}

Status ShardedTestbed::ParallelOnAll(const std::function<Status(uint32_t)>& fn) {
  std::vector<Status> statuses(opts_.shards);
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    workers_[i]->Launch([&statuses, &fn, i] { statuses[i] = fn(i); });
  }
  for (uint32_t i = 0; i < opts_.shards; ++i) workers_[i]->Join();
  for (const Status& s : statuses) FACE_RETURN_IF_ERROR(s);
  return Status::OK();
}

Status ShardedTestbed::Start() {
  if (opts_.shards == 0) {
    return Status::InvalidArgument("sharded testbed needs >= 1 shard");
  }
  if (opts_.factory == nullptr) {
    return Status::InvalidArgument("sharded testbed needs a workload factory");
  }

  factories_.resize(opts_.shards);
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    factories_[i] = opts_.shards == 1
                        ? opts_.factory
                        : opts_.factory->Partition(i, opts_.shards);
    if (factories_[i] == nullptr) {
      return Status::InvalidArgument(
          std::string(opts_.factory->name()) + " cannot be partitioned " +
          std::to_string(opts_.shards) + " ways");
    }
  }

  workers_.reserve(opts_.shards);
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    workers_.push_back(std::make_unique<ShardWorker>(i));
  }
  goldens_.resize(opts_.shards);
  testbeds_.resize(opts_.shards);

  // Each worker loads its own slice and starts its own testbed; Start()
  // binds the worker's thread-local virtual clock to the shard scheduler.
  return ParallelOnAll([this](uint32_t i) -> Status {
    FACE_ASSIGN_OR_RETURN(GoldenImage golden,
                          GoldenImage::BuildFor(factories_[i]));
    goldens_[i] = std::make_unique<GoldenImage>(std::move(golden));
    TestbedOptions o = opts_.base;
    o.workload = nullptr;  // the golden carries the shard's slice
    o.seed = shard_seed(i);
    if (opts_.flash_ratio > 0.0) {
      o.flash_pages = static_cast<uint64_t>(
          opts_.flash_ratio * static_cast<double>(goldens_[i]->db_pages()));
    }
    testbeds_[i] = std::make_unique<Testbed>(o, goldens_[i].get());
    return testbeds_[i]->Start();
  });
}

Status ShardedTestbed::Warmup(uint64_t txns) {
  return ParallelOnAll(
      [this, txns](uint32_t i) { return testbeds_[i]->Warmup(txns); });
}

StatusOr<RunResult> ShardedTestbed::Run(const RunOptions& run,
                                        std::vector<RunResult>* per_shard) {
  std::vector<RunResult> results(opts_.shards);
  FACE_RETURN_IF_ERROR(ParallelOnAll([this, &run, &results](uint32_t i) {
    FACE_ASSIGN_OR_RETURN(results[i], testbeds_[i]->Run(run));
    return Status::OK();
  }));
  if (per_shard != nullptr) *per_shard = results;
  return MergeRunResults(results, opts_.base);
}

Status ShardedTestbed::Crash() {
  return ParallelOnAll([this](uint32_t i) { return testbeds_[i]->Crash(); });
}

StatusOr<std::vector<RestartReport>> ShardedTestbed::Recover() {
  std::vector<RestartReport> reports(opts_.shards);
  FACE_RETURN_IF_ERROR(ParallelOnAll([this, &reports](uint32_t i) {
    FACE_ASSIGN_OR_RETURN(reports[i], testbeds_[i]->Recover());
    return Status::OK();
  }));

  // Presumed abort across the machine: a prepared transaction commits iff
  // *some* shard's log holds its GlobalCommit decision.
  std::vector<uint64_t> decided;
  for (const RestartReport& r : reports) {
    decided.insert(decided.end(), r.decided_gtids.begin(),
                   r.decided_gtids.end());
  }
  std::sort(decided.begin(), decided.end());
  decided.erase(std::unique(decided.begin(), decided.end()), decided.end());
  FACE_RETURN_IF_ERROR(ParallelOnAll([this, &reports, &decided](uint32_t i) {
    return testbeds_[i]->ResolveInDoubt(reports[i].in_doubt, decided,
                                        &reports[i]);
  }));
  return reports;
}

Status ShardedTestbed::OnShard(uint32_t shard,
                               const std::function<Status(Testbed&)>& fn) {
  if (shard >= opts_.shards) return Status::InvalidArgument("no such shard");
  return workers_[shard]->CallStatus(
      [this, shard, &fn] { return fn(*testbeds_[shard]); });
}

Status ShardedTestbed::RunCrossShardTxn(uint64_t gtid,
                                        const std::vector<uint32_t>& shards,
                                        Random& rnd) {
  if (shards.empty()) {
    return Status::InvalidArgument("cross-shard transaction with no legs");
  }
  for (const uint32_t shard : shards) {
    if (shard >= opts_.shards) {
      return Status::InvalidArgument("cross-shard leg on unknown shard");
    }
  }

  // Phase 1 — votes: each leg applies its updates and forces a Prepare
  // record, as one foreground client span on its own shard clock.
  std::vector<TxnId> txns(shards.size(), kInvalidTxnId);
  for (size_t i = 0; i < shards.size(); ++i) {
    FACE_RETURN_IF_ERROR(OnShard(shards[i], [&, i](Testbed& tb) {
      IoScheduler* sched = tb.sched();
      sched->BeginTxn();
      sched->OnCpu(tb.options().cpu_per_txn_ns);
      const StatusOr<TxnId> txn =
          tb.workload()->BeginCrossShardLeg(*tb.db(), rnd);
      Status s = txn.ok() ? tb.db()->Prepare(*txn, gtid) : txn.status();
      sched->EndTxn();
      if (txn.ok()) txns[i] = *txn;
      return s;
    }));
  }

  // Phase 2 — the decision: the first leg's shard is the coordinator; its
  // forced GlobalCommit record is the commit point of the whole txn.
  FACE_RETURN_IF_ERROR(OnShard(shards[0], [&](Testbed& tb) {
    tb.sched()->BeginTxn();
    const Status s = tb.db()->LogGlobalCommit(txns[0], gtid);
    tb.sched()->EndTxn();
    return s;
  }));

  // Phase 3 — local commits release the prepared transactions. Effects
  // are durable-or-redoable either way: a crash from here on recovers
  // every leg as committed via the decided gtid.
  for (size_t i = 0; i < shards.size(); ++i) {
    FACE_RETURN_IF_ERROR(OnShard(shards[i], [&, i](Testbed& tb) {
      tb.sched()->BeginTxn();
      const Status s = tb.db()->Commit(txns[i]);
      tb.sched()->EndTxn();
      if (s.ok()) tb.workload()->OnCrossShardCommitted();
      return s;
    }));
  }
  return Status::OK();
}

}  // namespace face
