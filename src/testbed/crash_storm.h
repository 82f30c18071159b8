// Crash-storm harness: turns the testbed + fault injector + any workload
// into one repeatable experiment. One storm =
//
//   clone the golden image -> warm up (maybe checkpoint) -> strand a few
//   in-flight transactions -> arm the injector at a seeded-random crash
//   point -> run until power fails (checkpoints interleaved, so crashes
//   land inside them too) -> Crash() -> Recover() -> audit -> resume and
//   audit again.
//
// The oracle is Testbed::Audit: the workload's logical audit (YCSB's
// committed-version ledger, TPC-C's consistency conditions) plus the cache
// audit. Everything is derived deterministically from the storm seed, so a
// failing seed replays exactly. The harness works against any cache policy
// and any workload that can strand transactions; with Sabotage the
// recovery path is deliberately broken to demonstrate that the audit
// catches a recovery that silently loses data.
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

#include "common/histogram.h"
#include "common/status.h"
#include "fault/fault_injector.h"
#include "testbed/testbed.h"
#include "workload/ycsb_workload.h"

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

/// Deliberate recovery breakage, to prove the audit has teeth.
enum class Sabotage : uint8_t {
  kNone = 0,
  /// Wipe the flash-cache superblock after the crash: FaCE cold-formats
  /// instead of restoring its metadata, losing every page whose only
  /// current copy lived in flash — the audit must report divergences.
  kWipeFlashSuperblock,
};

/// The storms' KV workload: YCSB with uniform keys over `records` rows of
/// 160 bytes, a write-heavy 30/55/10/5 read/update/insert/scan mix (restart
/// work scales with writes), scans of up to 16 rows, loaded row by row.
workload::YcsbOptions StormKv(uint64_t records = 1200);

/// Shape of one storm campaign (shared by all seeds run through a harness).
struct CrashStormOptions {
  CachePolicy policy = CachePolicy::kFace;
  /// What the storm runs and audits. Its workload must strand transactions
  /// (Workload::InjectStranded): each storm strands two before its crash.
  std::shared_ptr<const workload::WorkloadFactory> workload =
      std::make_shared<workload::YcsbFactory>(StormKv());

  uint32_t clients = 8;
  uint32_t buffer_frames = 64;   ///< small on purpose: evictions drive flash
  uint64_t flash_pages = 512;
  uint32_t seg_entries = 256;    ///< small FaCE segments: more boundaries
  uint32_t group_size = 64;      ///< FaCE+GR/GSC pages per batch
  uint64_t warmup_ops = 250;
  uint64_t body_ops = 350;       ///< armed window the crash point lands in
  uint64_t post_ops = 60;        ///< post-recovery survivability run
  Sabotage sabotage = Sabotage::kNone;
  /// Percent of random storms that keep the injector armed *through*
  /// recovery, so power fails again while redo/undo is writing — the
  /// restart after that starts from the torn remains of the first restart.
  /// Each such storm first runs an uncut twin that counts its restart's
  /// page writes, and cuts at one of them, so every one double-faults. 0
  /// disables. A named restart crash point (RunStorm) overrides it.
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
  workload::AuditReport audit;    ///< after the restart and after resuming

  std::string ToString() const;
};

/// The harness; see file comment. Builds its golden image lazily on the
/// first storm and reuses it for every seed.
class CrashStormHarness {
 public:
  /// `golden`, if given, is a load of `options.workload` to clone instead
  /// (harnesses of one workload may share it); it must outlive the harness.
  explicit CrashStormHarness(const CrashStormOptions& options,
                             const GoldenImage* golden = nullptr);

  /// Run one full storm. Non-OK only for rig failures (a crash the
  /// injector did not cause, recovery erroring out); data divergences are
  /// reported in the result, not as errors. `crash_write` 0 picks a
  /// seeded-random crash point; k > 0 crashes at the k-th page write of
  /// one checkpoint interval (see file comment). After either kind of
  /// crash, `restart_write` r > 0 crashes the restart at its r-th page
  /// write. 0 leaves that to the seed: no crash during recovery after a
  /// named crash point, `double_fault_pct` of the storms after a random
  /// one. Every checkpoint a storm takes is timed (Testbed::TakeCheckpoint),
  /// so its crash points land inside the checkpoint's lane batches too.
  StatusOr<CrashStormResult> RunStorm(uint64_t seed, uint64_t crash_write = 0,
                                      uint64_t restart_write = 0);

  const CrashStormOptions& options() const { return opts_; }

  /// Per-phase recovery durations across every storm this harness ran.
  const RecoveryPhaseAggregate& phase_aggregate() const { return phases_; }

 private:
  Status EnsureGolden();
  /// One storm as RunStorm describes, recording no phases. `audit` false
  /// returns right after the restart (a twin that only counts its writes).
  StatusOr<CrashStormResult> Storm(uint64_t seed, uint64_t crash_write,
                                   uint64_t restart_write, bool audit);

  CrashStormOptions opts_;
  RecoveryPhaseAggregate phases_;
  const GoldenImage* golden_;
  GoldenImage own_golden_;
};

}  // namespace face
