#include "testbed/crash_storm.h"

#include <algorithm>
#include <sstream>

#include "testbed/sharded_testbed.h"

namespace face {

namespace {

/// Uncommitted transactions each storm strands before its crash, like the
/// backends the paper's kill -9 leaves mid-flight.
constexpr uint32_t kStrandedTxns = 2;

}  // namespace

void RecoveryPhaseAggregate::Record(const RestartReport& r) {
  attach_us.Add(r.attach_ns / 1000);
  meta_restore_us.Add(r.meta_restore_ns / 1000);
  analysis_us.Add(r.analysis_ns / 1000);
  redo_us.Add(r.redo_ns / 1000);
  undo_us.Add(r.undo_ns / 1000);
  checkpoint_us.Add(r.checkpoint_ns / 1000);
  total_us.Add(r.total_ns / 1000);
}

std::string RecoveryPhaseAggregate::ToString() const {
  std::ostringstream os;
  os << "recovery phases over " << restarts() << " restarts (us):";
  const struct {
    const char* name;
    const Histogram* h;
  } rows[] = {
      {"attach", &attach_us},   {"meta_restore", &meta_restore_us},
      {"analysis", &analysis_us}, {"redo", &redo_us},
      {"undo", &undo_us},       {"checkpoint", &checkpoint_us},
      {"total", &total_us},
  };
  for (const auto& row : rows) {
    os << "\n  " << row.name << ": " << row.h->ToString();
  }
  return os.str();
}

workload::YcsbOptions StormKv(uint64_t records) {
  workload::YcsbOptions o;
  o.records = records;
  o.value_bytes = 160;
  o.distribution = workload::YcsbOptions::Distribution::kUniform;
  o.pct_read = 30, o.pct_update = 55, o.pct_insert = 10, o.pct_scan = 5;
  o.max_scan_rows = 16;
  o.bulk_load = false;
  return o;
}

std::string CrashStormResult::ToString() const {
  std::ostringstream os;
  os << (crashed_mid_body ? site.ToString() : "crash: quiescent point")
     << (double_faulted ? " (+ crash during recovery)" : "")
     << "\n" << restart.ToString() << "\n" << audit.ToString();
  return os.str();
}

CrashStormHarness::CrashStormHarness(const CrashStormOptions& options,
                                     const GoldenImage* golden)
    : opts_(options), golden_(golden) {}

Status CrashStormHarness::EnsureGolden() {
  if (golden_ != nullptr) return Status::OK();
  FACE_ASSIGN_OR_RETURN(own_golden_, GoldenImage::BuildFor(opts_.workload));
  golden_ = &own_golden_;
  return Status::OK();
}

StatusOr<CrashStormResult> CrashStormHarness::RunStorm(
    uint64_t seed, uint64_t crash_write, uint64_t restart_write) {
  FACE_RETURN_IF_ERROR(EnsureGolden());
  const bool explicit_crash = crash_write != 0;

  Random rnd(seed * 0x9e3779b97f4a7c15ull + 0x5707 /* storm */);

  TestbedOptions to;
  to.clients = opts_.clients;
  to.seed = seed;
  to.workload = opts_.workload;
  to.buffer_frames = opts_.buffer_frames;
  to.flash_pages = opts_.flash_pages;
  to.seg_entries = opts_.seg_entries;
  to.group_size = opts_.group_size;
  to.policy = opts_.policy;
  Testbed tb(to, golden_);
  FACE_RETURN_IF_ERROR(tb.Start());

  FaultInjector inj;
  inj.AttachScheduler(tb.sched());
  // The data array is page-atomic (full-page-write protection, as the
  // paper's PostgreSQL substrate provides); the WAL and flash cache tear
  // at sector boundaries — their formats must cope.
  inj.SetTearGranularity(tb.db_dev()->id(), TearGranularity::kPageAtomic);
  tb.db_dev()->set_fault_injector(&inj);
  tb.log_dev()->set_fault_injector(&inj);
  if (tb.flash_dev() != nullptr) tb.flash_dev()->set_fault_injector(&inj);

  // --- warm up (committed work before the storm) ---------------------------
  const uint64_t writes0 = inj.writes_observed();
  {
    RunOptions warm;
    warm.txns = opts_.warmup_ops;
    FACE_RETURN_IF_ERROR(tb.Run(warm).status());
  }
  if (explicit_crash || rnd.PercentTrue(70)) {
    FACE_RETURN_IF_ERROR(tb.db()->TakeCheckpoint().status());
  }
  FACE_RETURN_IF_ERROR(tb.InjectInflightTransactions(kStrandedTxns));

  // --- arm the crash point -------------------------------------------------
  // WAL flushes dominate the raw write stream, so half the seeds target a
  // single device's writes — crash points then land on flash frames,
  // metadata segments, and data-array pages often enough to matter. The
  // countdown window is sized from that device's warmup write rate so
  // crash points spread across the whole armed body, whatever the policy's
  // I/O amplification is. A fraction of the untargeted seeds use the
  // virtual-time trigger instead, cutting at a clock deadline rather than
  // a write ordinal.
  std::string target;
  if (!explicit_crash && rnd.PercentTrue(50)) {
    const char* candidates[3] = {"flash", "db", "log"};
    // flash twice as likely as db/log: it is the subsystem under test.
    const uint32_t pick = static_cast<uint32_t>(rnd.Uniform(4));
    target = candidates[pick < 2 ? 0 : pick - 1];
    // A device with no warmup traffic (no flash under kNone, an idle disk
    // array under pure write-back) would turn the storm into a no-crash
    // run; fall back to the untargeted stream.
    if (inj.writes_observed_on(target) == 0) target.clear();
  }
  inj.TargetDevice(target);
  const uint64_t warm_writes = std::max<uint64_t>(
      1, target.empty() ? inj.writes_observed() - writes0
                        : inj.writes_observed_on(target));
  const uint64_t est_body_writes = std::max<uint64_t>(
      8, warm_writes * opts_.body_ops / std::max<uint64_t>(1, opts_.warmup_ops));
  if (explicit_crash) {
    inj.ArmAfterWrites(crash_write, seed);
  } else if (target.empty() && rnd.PercentTrue(25)) {
    const SimNanos now = tb.sched()->makespan();
    const SimNanos body_ns = std::max<SimNanos>(
        1, now * opts_.body_ops / std::max<uint64_t>(1, opts_.warmup_ops));
    inj.ArmAtTime(now + rnd.Uniform(body_ns), seed);
  } else {
    inj.ArmAfterWrites(1 + rnd.Uniform(est_body_writes), seed);
  }
  const uint64_t armed_at = inj.writes_observed();

  // --- run until power fails ----------------------------------------------
  // Warmup write rates overestimate steady-state rates (cold misses, cache
  // fills), so an un-tripped countdown gets up to 3x the nominal body to
  // fire before the storm settles for a quiescent-point crash. An explicit
  // crash point's interval is the body, then the checkpoint closing it.
  const uint64_t ckpt_at = explicit_crash || !rnd.PercentTrue(50)
                               ? UINT64_MAX
                               : rnd.Uniform(opts_.body_ops);
  const uint64_t op_cap = opts_.body_ops * (explicit_crash ? 1 : 3);
  Status body;
  for (uint64_t i = 0; i < op_cap && body.ok(); ++i) {
    if (i == ckpt_at) {
      body = tb.db()->TakeCheckpoint().status();
      if (!body.ok()) break;
    }
    RunOptions one;
    one.txns = 1;
    body = tb.Run(one).status();
  }
  if (explicit_crash && body.ok()) body = tb.db()->TakeCheckpoint().status();
  if (!body.ok() && !inj.tripped()) {
    return Status::Internal("storm body failed without an injected crash: " +
                            body.ToString());
  }

  CrashStormResult result;
  result.crashed_mid_body = inj.tripped();
  result.armed_writes = inj.writes_observed() - armed_at;
  result.site = inj.site();

  // --- crash, recover, check ----------------------------------------------
  FACE_RETURN_IF_ERROR(tb.Crash());
  inj.Disarm();
  if (opts_.sabotage == Sabotage::kWipeFlashSuperblock &&
      tb.flash_dev() != nullptr) {
    FACE_RETURN_IF_ERROR(
        FaultInjector::GarbleBlocks(tb.flash_dev(), 0, 1, '\0'));
  }

  // Crash during recovery: a named restart crash point, or a fraction of
  // the random storms, re-arm the injector before restart, so power fails
  // again while redo/undo/checkpoint I/O is in flight — the next attempt
  // must recover from the torn remains of the previous one (idempotent
  // redo, CLRs bounding re-undo). Untargeted countdown: recovery's write
  // stream is log + data, not flash-heavy.
  bool rearm = restart_write != 0 ||
               (!explicit_crash && opts_.double_fault_pct > 0 &&
                rnd.PercentTrue(opts_.double_fault_pct));
  if (rearm) inj.TargetDevice("");
  for (uint32_t attempt = 0;; ++attempt) {
    if (rearm) {
      // A random storm's window of 24 writes trips only the restarts that
      // write at least as many pages as it draws; a caller that needs
      // every restart cut names the point (CrashStormTest.
      // CrashDuringRecovery draws it from the uncut restart's count).
      inj.ArmAfterWrites(restart_write != 0 ? restart_write
                                            : 1 + rnd.Uniform(24),
                         seed ^ (0xD0B1EFA0u + attempt));
    }
    const uint64_t writes_before = inj.writes_observed();
    StatusOr<RestartReport> restart = tb.Recover();
    if (attempt == 0) {
      result.restart_writes = inj.writes_observed() - writes_before;
    }
    if (restart.ok()) {
      // The countdown may outlive a short recovery; never let it leak
      // into the audit or the post-run.
      inj.Disarm();
      result.restart = *std::move(restart);
      break;
    }
    // Only an attempt the injector was armed for can have been cut down;
    // any other failure is the recovery's own.
    if (!rearm || !inj.tripped()) return restart.status();
    result.double_faulted = true;
    FACE_RETURN_IF_ERROR(tb.Crash());
    inj.Disarm();
    // One double fault per storm: the retry must come up clean.
    rearm = false;
  }
  phases_.Record(result.restart);

  FACE_ASSIGN_OR_RETURN(result.audit, tb.Audit());

  // --- resume: the recovered system must keep working ----------------------
  if (result.audit.ok() && opts_.post_ops > 0) {
    RunOptions post;
    post.txns = opts_.post_ops;
    FACE_RETURN_IF_ERROR(tb.Run(post).status());
    FACE_ASSIGN_OR_RETURN(const workload::AuditReport again, tb.Audit());
    result.audit.Merge(again);
  }
  return result;
}

// --- sharded storms ----------------------------------------------------------

std::string ShardedCrashStormResult::ToString() const {
  std::ostringstream os;
  os << (crashed_mid_body ? "crash: injector tripped on shard " +
                                std::to_string(victim_shard)
                          : "crash: quiescent point")
     << ", " << cross_committed << " cross-shard txns committed";
  if (cross_cut_midway) {
    os << ", one cut mid-2PC (decision "
       << (decision_recovered ? "recovered" : "lost") << "; legs:";
    for (const workload::PendingOutcome o : cut_outcomes) {
      os << " " << workload::PendingOutcomeName(o);
    }
    os << "; atomicity " << (atomicity_ok ? "ok" : "VIOLATED") << ")";
  }
  os << "\n" << audit.ToString();
  return os.str();
}

ShardedCrashStormHarness::ShardedCrashStormHarness(
    const ShardedCrashStormOptions& options)
    : opts_(options) {}

StatusOr<ShardedCrashStormResult> ShardedCrashStormHarness::RunStorm(
    uint64_t seed) {
  const CrashStormOptions& b = opts_.base;
  const uint32_t n = opts_.shards;
  if (n == 0) return Status::InvalidArgument("sharded storm needs shards");
  Random rnd(seed * 0x9e3779b97f4a7c15ull + 0x54A2D /* sharded storm */);

  ShardedTestbedOptions so;
  so.shards = n;
  so.base.clients = b.clients;
  so.base.seed = seed;
  so.base.buffer_frames = b.buffer_frames;
  so.base.flash_pages = b.flash_pages;
  so.base.seg_entries = b.seg_entries;
  so.base.group_size = b.group_size;
  so.base.policy = b.policy;
  so.factory = b.workload;
  ShardedTestbed stb(so);
  FACE_RETURN_IF_ERROR(stb.Start());

  // The injector, wired to the victim's devices.
  ShardedCrashStormResult result;
  result.victim_shard = static_cast<uint32_t>(rnd.Uniform(n));
  FaultInjector inj;
  FACE_RETURN_IF_ERROR(stb.OnShard(result.victim_shard, [&](Testbed& t) {
    inj.AttachScheduler(t.sched());
    inj.SetTearGranularity(t.db_dev()->id(), TearGranularity::kPageAtomic);
    t.db_dev()->set_fault_injector(&inj);
    t.log_dev()->set_fault_injector(&inj);
    if (t.flash_dev() != nullptr) t.flash_dev()->set_fault_injector(&inj);
    return Status::OK();
  }));

  // --- warm up, checkpoint some shards, strand work on the victim ----------
  {
    RunOptions warm;
    warm.txns = b.warmup_ops;
    FACE_RETURN_IF_ERROR(stb.Run(warm).status());
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (rnd.PercentTrue(70)) {
      FACE_RETURN_IF_ERROR(stb.OnShard(
          i, [](Testbed& t) { return t.db()->TakeCheckpoint().status(); }));
    }
  }
  FACE_RETURN_IF_ERROR(stb.OnShard(result.victim_shard, [](Testbed& t) {
    return t.InjectInflightTransactions(kStrandedTxns);
  }));

  // --- arm the victim's countdown ------------------------------------------
  const uint64_t warm_writes = std::max<uint64_t>(1, inj.writes_observed());
  const uint64_t est_body_writes = std::max<uint64_t>(
      8, warm_writes * b.body_ops / std::max<uint64_t>(1, b.warmup_ops));
  inj.ArmAfterWrites(1 + rnd.Uniform(est_body_writes), seed);

  // --- run until power fails, lacing in cross-shard 2PC transactions ------
  const uint64_t spacing = std::max<uint64_t>(
      1, b.body_ops / (uint64_t{opts_.cross_shard_txns} + 1));
  const uint64_t op_cap = b.body_ops * 3;
  uint64_t gtid_counter = 0, cut_gtid = 0;
  std::vector<uint32_t> cut_parts;
  uint32_t cross_started = 0;
  Status body;
  for (uint64_t i = 0; i < op_cap && body.ok(); ++i) {
    if (n >= 2 && cross_started < opts_.cross_shard_txns &&
        i % spacing == spacing - 1) {
      const uint32_t a = static_cast<uint32_t>(rnd.Uniform(n));
      uint32_t c = static_cast<uint32_t>(rnd.Uniform(n - 1));
      if (c >= a) ++c;
      const uint64_t gtid = (seed << 20) + ++gtid_counter;
      ++cross_started;
      body = stb.RunCrossShardTxn(gtid, {a, c}, rnd);
      if (body.ok()) {
        ++result.cross_committed;
      } else {
        cut_gtid = gtid;
        cut_parts = {a, c};
      }
      continue;
    }
    RunOptions one;
    one.txns = 1;
    body = stb.Run(one).status();
  }
  if (!body.ok() && !inj.tripped()) {
    return Status::Internal(
        "sharded storm body failed without an injected crash: " +
        body.ToString());
  }
  result.crashed_mid_body = inj.tripped();
  result.cross_cut_midway = !body.ok() && cut_gtid != 0;

  // --- machine-wide crash, parallel recovery, in-doubt resolution ----------
  FACE_RETURN_IF_ERROR(stb.Crash());
  inj.Disarm();
  FACE_ASSIGN_OR_RETURN(result.restarts, stb.Recover());

  std::vector<uint64_t> decided;
  for (const RestartReport& r : result.restarts) {
    decided.insert(decided.end(), r.decided_gtids.begin(),
                   r.decided_gtids.end());
  }
  std::sort(decided.begin(), decided.end());
  decided.erase(std::unique(decided.begin(), decided.end()), decided.end());
  result.decision_recovered =
      cut_gtid != 0 &&
      std::binary_search(decided.begin(), decided.end(), cut_gtid);

  // --- per-shard audits ----------------------------------------------------
  std::vector<workload::AuditReport> reports(n);
  auto audit_all = [&]() -> Status {
    for (uint32_t i = 0; i < n; ++i) {
      FACE_RETURN_IF_ERROR(stb.OnShard(i, [&, i](Testbed& t) -> Status {
        FACE_ASSIGN_OR_RETURN(reports[i], t.Audit());
        return Status::OK();
      }));
    }
    for (const workload::AuditReport& r : reports) result.audit.Merge(r);
    return Status::OK();
  };
  FACE_RETURN_IF_ERROR(audit_all());

  // Atomicity of the cut transaction: every started leg must have resolved
  // the same way, and that way must match whether the decision survived.
  if (result.cross_cut_midway) {
    const workload::PendingOutcome expected =
        result.decision_recovered ? workload::PendingOutcome::kCommitted
                                  : workload::PendingOutcome::kRolledBack;
    for (const uint32_t p : cut_parts) {
      const workload::PendingOutcome o = reports[p].pending_outcome;
      if (o == workload::PendingOutcome::kNone) continue;
      result.cut_outcomes.push_back(o);
      if (o != expected) result.atomicity_ok = false;
    }
  }

  // --- resume: every shard must keep serving after resolution --------------
  if (result.audit.ok() && result.atomicity_ok && b.post_ops > 0) {
    RunOptions post;
    post.txns = b.post_ops;
    FACE_RETURN_IF_ERROR(stb.Run(post).status());
    FACE_RETURN_IF_ERROR(audit_all());
  }
  return result;
}

}  // namespace face
