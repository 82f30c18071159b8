// YCSB-style key-value workload over one KV table: configurable
// read/update/insert/scan mix and uniform / Zipfian / latest-hot key
// distributions — the axes the flash-cache follow-up literature (Flashield,
// WLFC) varies and TPC-C alone cannot. Each operation is one complete
// engine transaction, so the cache hierarchy below sees the same WAL /
// buffer-pool / eviction traffic pattern a real OLTP client would produce.
//
// YCSB is also the crash storms' KV workload. Its clients remember every
// acknowledged commit in a ledger (KvLedger) kept in host memory, which a
// crash of the simulated machine does not touch, and Audit compares the
// recovered table with it row for row. The one write in flight at the
// crash is in doubt: its commit record may or may not have reached the
// durable log, so either version is legal once its commit was attempted,
// and only the old one before; no client runs until an audit resolved it.
// Every point read and every scanned row is checked live against the
// ledger too, so a stale row is caught when a client sees it, even if a
// later update overwrites it before the next audit. Keys of injected
// stranded transactions are withheld from later operations until the
// restart rolls them back, so undo's before-images cannot clobber later
// committed work; a scan that crosses one checks only its place.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "workload/kv_table.h"
#include "workload/workload.h"

namespace face {
namespace workload {

/// Shape of a YCSB-style run. Defaults are an update-heavy Zipfian mix
/// (YCSB-A shaped); the presets below mirror the standard workload letters.
struct YcsbOptions {
  enum class Distribution : uint8_t { kUniform = 0, kZipfian = 1, kLatest = 2 };

  /// Initially loaded records (keys [0, records)); inserts append after.
  uint64_t records = 50000;
  /// Payload bytes per row (fixed width: updates overwrite in place).
  uint32_t value_bytes = 400;

  /// Zipfian skew is YCSB's standard 0.99.
  Distribution distribution = Distribution::kZipfian;

  /// Operation mix (percent; must sum to 100).
  int pct_read = 50;
  int pct_update = 44;
  int pct_insert = 3;
  int pct_scan = 3;
  /// Scans read 1..max_scan_rows rows (uniform length).
  uint32_t max_scan_rows = 25;

  /// Populate the golden image through the sorted B+tree bulk-load path
  /// (leaves built left-to-right, device-contiguous). False routes the load
  /// through per-record inserts — slower, but reproduces the physical page
  /// layout of an incrementally grown tree (the timing guard pins it).
  bool bulk_load = true;

  // --- standard mixes (bench/e2e runs A and B) ------------------------------
  static YcsbOptions A() {  // update heavy: 50/50 read/update, Zipfian
    YcsbOptions o;
    o.pct_read = 50, o.pct_update = 50, o.pct_insert = 0, o.pct_scan = 0;
    return o;
  }
  static YcsbOptions B() {  // read mostly: 95/5
    YcsbOptions o;
    o.pct_read = 95, o.pct_update = 5, o.pct_insert = 0, o.pct_scan = 0;
    return o;
  }
  /// The FIFO-pollution stressor (bench_workloads' "scan-heavy" row): 70 %
  /// range scans of 1..900 rows (~450 on average) over uniform keys, and a
  /// thin stream of point reads and updates. Each scan touches hundreds of
  /// pages once, which a recency-blind flash tier (mvFIFO) admits and
  /// churns through; TPC-C has nothing like it.
  static YcsbOptions LongScans() {
    YcsbOptions o;
    o.distribution = Distribution::kUniform;
    o.pct_read = 15, o.pct_update = 15, o.pct_insert = 0, o.pct_scan = 70;
    o.max_scan_rows = 900;
    return o;
  }
  /// `distribution` applied to the default mix ("ycsb-uniform" etc.).
  static YcsbOptions WithDistribution(Distribution d) {
    YcsbOptions o;
    o.distribution = d;
    return o;
  }
};

/// What YCSB's clients know was committed; see file comment.
struct KvLedger {
  /// The version of a key that does not exist (an insert's old state).
  static constexpr uint64_t kAbsent = UINT64_MAX;

  /// The write in flight: at most one, the engine being single-threaded.
  struct Write {
    uint64_t key = 0;
    uint64_t old_version = kAbsent;
    uint64_t new_version = 0;
    /// Set once db.Commit (or a 2PC prepare) was invoked. Until then the
    /// write cannot be durable, so only its old version is legal.
    bool commit_attempted = false;
  };

  /// versions[id] = committed payload version of key id (0 = as loaded);
  /// keys are dense, inserts append.
  std::vector<uint64_t> versions;
  /// Keys held by injected stranded (never-committed) transactions.
  std::set<uint64_t> withheld;
  std::optional<Write> pending;

  uint64_t VersionOf(uint64_t key) const {
    return key < versions.size() ? versions[key] : kAbsent;
  }
  /// Internal while a write whose commit was attempted is unresolved: only
  /// an audit can tell whether it committed, so no client may run before
  /// one (its reads and writes would trust a ledger one commit behind).
  Status CheckResolved() const;
  /// Record a write of `version` to `key` as in flight. It replaces a
  /// pending write whose commit was never attempted: that one has one
  /// legal outcome, the ledger's, which the audit checks like any key.
  void Begin(uint64_t key, uint64_t version) {
    pending = Write{key, VersionOf(key), version, false};
  }
  /// The pending write committed.
  void Commit() {
    if (pending->key >= versions.size()) versions.resize(pending->key + 1);
    versions[pending->key] = pending->new_version;
    pending.reset();
  }
};

/// Workload name of a YCSB key distribution: "ycsb-uniform",
/// "ycsb-zipfian" or "ycsb-latest". The driver and its factory share it.
const char* YcsbName(YcsbOptions::Distribution d);

/// YCSB driver; see file comment.
class YcsbWorkload : public Workload {
 public:
  enum TxnType : uint8_t { kRead = 0, kUpdate = 1, kInsert = 2, kScan = 3 };

  explicit YcsbWorkload(const YcsbOptions& options);

  const char* name() const override { return YcsbName(opts_.distribution); }
  uint32_t num_txn_types() const override { return 4; }
  const char* txn_type_name(uint8_t type) const override;

  Status Setup(Database& db, uint64_t seed) override;
  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override;
  Status InjectStranded(Database& db, Random& rnd) override;
  Status OnInflightRolledBack(Database& db) override;
  /// Resolve the write in flight at the crash, then compare every key
  /// with the ledger and count the index for phantoms.
  Status Audit(Database& db, AuditReport* report) override;
  /// Update one eligible key; the write stays in doubt until
  /// OnCrossShardCommitted (its prepare vote is its commit attempt).
  StatusOr<TxnId> BeginCrossShardLeg(Database& db, Random& rnd) override;
  void OnCrossShardCommitted() override { ledger_.Commit(); }

  /// Key chosen for the next point operation (exposed for distribution
  /// shape tests). Withheld keys pass the operation to the next key up.
  uint64_t ChooseKey(Random& rnd);

  const YcsbOptions& options() const { return opts_; }
  /// Records inserted beyond the initial load (recovered across crashes).
  uint64_t inserted() const { return inserted_; }

 private:
  Status DoRead(Database& db, uint64_t key);
  Status DoUpdate(Database& db, uint64_t key);
  Status DoInsert(Database& db);
  Status DoScan(Database& db, uint64_t key, uint64_t rows);
  /// Commit the pending write's transaction and record it in the ledger.
  Status CommitPending(Database& db, TxnId txn);

  YcsbOptions opts_;
  KvTable table_;
  std::unique_ptr<ZipfGenerator> zipf_;
  uint64_t inserted_ = 0;
  uint64_t version_ = 0;  ///< monotonically fresh payload versions
  KvLedger ledger_;
  std::string row_, expected_row_;  ///< the live checks' buffers, reused
};

/// Builds YCSB golden images and drivers from one shared YcsbOptions.
class YcsbFactory : public WorkloadFactory {
 public:
  explicit YcsbFactory(const YcsbOptions& options) : opts_(options) {}

  const char* name() const override { return YcsbName(opts_.distribution); }
  uint64_t CapacityPages() const override;
  Status Load(Database& db, uint64_t seed) const override;
  std::unique_ptr<Workload> Create() const override;
  /// Partition by key range: shard `shard` owns records/num_shards keys
  /// (re-based at zero — each shard is an independent database).
  std::shared_ptr<const WorkloadFactory> Partition(
      uint32_t shard, uint32_t num_shards) const override;

  const YcsbOptions& options() const { return opts_; }

 private:
  YcsbOptions opts_;
};

}  // namespace workload
}  // namespace face
