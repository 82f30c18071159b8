// Crash-storm harness: turns the testbed + fault injector + shadow workload
// + differential checker into one repeatable experiment. One storm =
//
//   clone the golden image -> warm up (maybe checkpoint) -> strand a few
//   in-flight transactions -> arm the injector at a seeded-random crash
//   point -> run until power fails (checkpoints interleaved, so crashes
//   land inside them too) -> Crash() -> Recover() -> differential check +
//   flash-directory audit -> resume and re-check.
//
// Everything is derived deterministically from the storm seed, so a failing
// seed replays exactly. The harness works against any cache policy; with
// Sabotage the recovery path is deliberately broken to demonstrate that the
// checker catches a recovery that silently loses data.
//
// A storm may instead name its crash point: the k-th page write (any
// device) of one checkpoint interval — checkpoint, body, closing
// checkpoint. The interval's writes happen in the same order for every k,
// so k = 1..armed_writes of a storm that never trips sweeps every crash
// point of that interval exhaustively. It may also name a second one, the
// r-th page write of the restart that follows: r = 1..restart_writes of a
// storm whose restart never trips sweeps every crash point of that
// restart, its checkpoint included.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "fault/diff_checker.h"
#include "fault/fault_injector.h"
#include "fault/shadow_kv.h"
#include "testbed/testbed.h"

namespace face {

/// Accumulates per-phase recovery durations across a storm campaign, one
/// RestartReport per seed. Derived from the reports directly (not the obs
/// registry), so the aggregate works with observability compiled out.
struct RecoveryPhaseAggregate {
  Histogram attach_us, meta_restore_us, analysis_us, redo_us, undo_us,
      checkpoint_us, total_us;

  void Record(const RestartReport& r);
  uint64_t restarts() const { return total_us.count(); }

  /// Multi-line per-phase summary (count/mean/p95/max in microseconds).
  std::string ToString() const;
};

/// Deliberate recovery breakage, to prove the checker has teeth.
enum class Sabotage : uint8_t {
  kNone = 0,
  /// Wipe the flash-cache superblock after the crash: FaCE cold-formats
  /// instead of restoring its metadata, losing every page whose only
  /// current copy lived in flash — the checker must report divergences.
  kWipeFlashSuperblock,
};

/// Shape of one storm campaign (shared by all seeds run through a harness).
struct CrashStormOptions {
  CachePolicy policy = CachePolicy::kFace;
  fault::ShadowKvOptions workload;

  uint32_t clients = 8;
  uint32_t buffer_frames = 64;   ///< small on purpose: evictions drive flash
  uint64_t flash_pages = 512;
  uint32_t seg_entries = 256;    ///< small FaCE segments: more boundaries
  uint32_t group_size = 64;      ///< FaCE+GR/GSC pages per batch
  uint64_t warmup_ops = 250;
  uint64_t body_ops = 350;       ///< armed window the crash point lands in
  uint32_t stranded_txns = 2;
  uint64_t post_ops = 60;        ///< post-recovery survivability run
  Sabotage sabotage = Sabotage::kNone;
  /// Percent of storms that keep the injector armed *through* recovery, so
  /// power fails again while redo/undo is writing — the restart after that
  /// starts from the torn remains of the first restart. 0 disables.
  uint32_t double_fault_pct = 30;
};

/// Everything one storm produced.
struct CrashStormResult {
  bool crashed_mid_body = false;  ///< injector tripped (vs quiescent crash)
  bool double_faulted = false;    ///< a recovery attempt was itself cut down
  /// Page writes the injector saw from arming to the crash (all devices);
  /// for an explicit crash point that never tripped, the whole interval's.
  uint64_t armed_writes = 0;
  /// Page writes of the first restart attempt, up to its crash if one cut
  /// it short (all devices).
  uint64_t restart_writes = 0;
  CrashSite site;
  RestartReport restart;          ///< the restart that finally succeeded
  fault::DiffReport diff;

  std::string ToString() const;
};

/// The harness; see file comment. Builds its golden image lazily on the
/// first storm and reuses it for every seed.
class CrashStormHarness {
 public:
  explicit CrashStormHarness(const CrashStormOptions& options);

  /// Run one full storm. Non-OK only for rig failures (a crash the
  /// injector did not cause, recovery erroring out); data divergences are
  /// reported in the result, not as errors. `crash_write` 0 picks a
  /// seeded-random crash point; k > 0 crashes at the k-th page write of
  /// one checkpoint interval (see file comment), and then `restart_write`
  /// r > 0 crashes the restart at its r-th page write (0: no crash during
  /// recovery).
  StatusOr<CrashStormResult> RunStorm(uint64_t seed, uint64_t crash_write = 0,
                                      uint64_t restart_write = 0);

  const CrashStormOptions& options() const { return opts_; }

  /// Per-phase recovery durations across every storm this harness ran.
  const RecoveryPhaseAggregate& phase_aggregate() const { return phases_; }

 private:
  Status EnsureGolden();

  CrashStormOptions opts_;
  RecoveryPhaseAggregate phases_;
  std::shared_ptr<fault::ShadowState> shadow_;
  std::shared_ptr<fault::ShadowKvFactory> factory_;
  GoldenImage golden_;
  bool golden_ready_ = false;
};

/// Shape of a sharded storm: N single-shard storms running concurrently,
/// laced with cross-shard (2PC) transactions, then one machine-wide power
/// failure. The injector arms on a seed-picked victim shard; every shard
/// crashes, recovers, and resolves in-doubt transactions together.
struct ShardedCrashStormOptions {
  /// Per-shard sizing; `base.workload.records` is the per-shard slice
  /// handed to ShadowKvFactory::Partition. Sabotage is not supported.
  CrashStormOptions base;
  uint32_t shards = 2;
  /// Cross-shard transactions interleaved into the armed body; each picks
  /// two distinct shards and updates one key on each under 2PC.
  uint32_t cross_shard_txns = 8;
};

/// Everything one sharded storm produced.
struct ShardedCrashStormResult {
  bool crashed_mid_body = false;
  uint32_t victim_shard = 0;        ///< shard the injector was armed on
  uint64_t cross_committed = 0;     ///< 2PC txns fully committed pre-crash
  /// The 2PC transaction cut mid-protocol, if any: its participants'
  /// post-recovery outcomes (from each shard's differential check) and the
  /// atomicity verdict — every participant that started a leg resolved the
  /// same way, matching whether the decision record survived.
  bool cross_cut_midway = false;
  bool atomicity_ok = true;
  std::vector<fault::PendingOutcome> cut_outcomes;  ///< one per started leg
  bool decision_recovered = false;  ///< cut txn's gtid in the decided union
  fault::DiffReport diff;           ///< merged across shards
  std::vector<RestartReport> restarts;

  std::string ToString() const;
};

/// Runs sharded storms; each storm builds a fresh ShardedTestbed (the
/// partitioned goldens are per-storm, built in parallel on the workers).
class ShardedCrashStormHarness {
 public:
  explicit ShardedCrashStormHarness(const ShardedCrashStormOptions& options);

  /// Run one full sharded storm; see ShardedCrashStormResult. Non-OK only
  /// for rig failures — divergences and atomicity violations are reported
  /// in the result.
  StatusOr<ShardedCrashStormResult> RunStorm(uint64_t seed);

  const ShardedCrashStormOptions& options() const { return opts_; }

 private:
  ShardedCrashStormOptions opts_;
};

}  // namespace face
