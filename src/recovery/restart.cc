#include "recovery/restart.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"
#include "recovery/redo.h"
#include "storage/page.h"

namespace face {

namespace {

/// Phases recorded under "recovery.<phase>_ns"; the names match the trace
/// span names below and the RestartReport fields, so metrics / traces /
/// reports cross-reference directly.
enum RecoveryPhase {
  kAttach,
  kMetaRestore,
  kAnalysis,
  kRedo,
  kUndo,
  kCheckpoint,
  kTotal,
  kNumPhases,
};

/// recovery.* metric handles, resolved once per thread (the obs registries
/// are thread-local; record paths must not do string-keyed lookups).
struct RecoveryObs {
  obs::Hist* phase_ns[kNumPhases];
  obs::Counter* restarts;
  obs::Counter* writeback_batches;
  obs::Counter* writeback_pages;
};

RecoveryObs& GetRecoveryObs() {
  thread_local RecoveryObs o = [] {
    static constexpr const char* kPhaseMetric[kNumPhases] = {
        "recovery.attach_ns",   "recovery.meta_restore_ns",
        "recovery.analysis_ns", "recovery.redo_ns",
        "recovery.undo_ns",     "recovery.checkpoint_ns",
        "recovery.total_ns",
    };
    auto& reg = obs::MetricsRegistry::Instance();
    RecoveryObs r;
    for (int i = 0; i < kNumPhases; ++i) {
      r.phase_ns[i] = reg.GetHistogram(kPhaseMetric[i]);
    }
    r.restarts = reg.GetCounter("recovery.restarts");
    r.writeback_batches = reg.GetCounter("recovery.writeback_batches");
    r.writeback_pages = reg.GetCounter("recovery.writeback_pages");
    return r;
  }();
  return o;
}

/// Record one phase's virtual duration.
void RecordPhaseNs(RecoveryPhase phase, SimNanos ns) {
  if (!obs::Enabled()) return;
  GetRecoveryObs().phase_ns[phase]->Add(ns);
}

/// Count a restart checkpoint's lane-batched write-back.
void RecordWriteBack(const Checkpointer::Stats& ckpt, RestartReport* report) {
  report->writeback_batches += ckpt.writeback_batches;
  report->writeback_pages += ckpt.writeback_pages;
  report->serial_destages += ckpt.serial_destages;
  report->reclaimed_chains += ckpt.reclaimed_chains;
  if (!obs::Enabled()) return;
  RecoveryObs& o = GetRecoveryObs();
  o.writeback_batches->Add(ckpt.writeback_batches);
  o.writeback_pages->Add(ckpt.writeback_pages);
}

}  // namespace

std::string RestartReport::ToString() const {
  std::ostringstream os;
  os << "restart: total=" << ToSeconds(total_ns) << "s"
     << " (attach=" << ToSeconds(attach_ns)
     << " meta=" << ToSeconds(meta_restore_ns)
     << " analysis=" << ToSeconds(analysis_ns)
     << " redo=" << ToSeconds(redo_ns) << " undo=" << ToSeconds(undo_ns)
     << " ckpt=" << ToSeconds(checkpoint_ns) << ")"
     << " redo_applied=" << redo_applied << "/" << redo_records
     << " redo_skipped=" << redo_skipped
     << " losers=" << losers << " undone=" << undo_records
     << " fetches=" << pages_fetched << " (flash=" << pages_from_flash
     << " disk=" << pages_from_disk << ")"
     << " readahead=" << readahead_pages << "/" << readahead_batches
     << " writeback=" << writeback_pages << "/" << writeback_batches
     << " serial_destages=" << serial_destages
     << " reclaimed_chains=" << reclaimed_chains;
  if (degraded) os << " [degraded: flash untrusted, disk-only]";
  return os.str();
}

StatusOr<RestartReport> RestartManager::Run() {
  // Recovery runs on its own background token, starting no earlier than the
  // virtual instant the crash left the system at — no client runs meanwhile.
  if (sched_ != nullptr) {
    sched_->BeginBackground(bg_token_, sched_->makespan());
  }
  RestartReport report;
  const Status s = RunPhases(&report);
  if (sched_ != nullptr) sched_->EndBackground();
  if (!s.ok()) return s;
  return report;
}

Status RestartManager::RunPhases(RestartReport* report) {
  const SimNanos t0 = SpanTime();
  const BufferPool::Stats before = pool_->stats();

  // The control record decides how phases 1 and 3 run: a degraded marker
  // means the flash cache was lost before the crash, so its device contents
  // must not be trusted and redo may have to reach below the checkpoint to
  // rebuild pages whose newest version lived only on flash.
  FACE_ASSIGN_OR_RETURN(WalControlInfo ctrl, log_->ReadControlInfo());
  report->checkpoint_lsn = ctrl.checkpoint_lsn;
  report->degraded = ctrl.degraded;

  // Phases 0 and 1 read different devices, so they run as two lanes of one
  // batch. Phase 0 locates the valid end of the durable log, scanning
  // through reader_, which keeps the range for analysis, redo and undo.
  // Phase 1 restores the cache extension's metadata before any data page is
  // touched, so analysis/redo/undo fetches can hit flash (paper §4.2); the
  // rest of the restore continues this lane in redo's first batch.
  SimNanos meta_ns = 0;
  SimNanos meta_end = 0;  // where the metadata lane ended
  {
    ScopedIoBatch batch(sched_);
    batch.NextLane();
    {
      obs::ScopedSpan span("recovery", "attach");
      FACE_RETURN_IF_ERROR(log_->Attach(&reader_, ctrl.checkpoint_lsn));
    }
    batch.NextLane();
    const SimNanos lane_start = SpanTime();
    {
      obs::ScopedSpan span("recovery", "meta_restore");
      FACE_RETURN_IF_ERROR(RestoreCacheMetadata(ctrl));
    }
    meta_end = SpanTime();
    meta_ns = meta_end - lane_start;
  }
  const SimNanos t_meta = SpanTime();
  report->meta_restore_ns = meta_ns;
  report->attach_ns = t_meta - t0 - meta_ns;
  RecordPhaseNs(kAttach, report->attach_ns);
  RecordPhaseNs(kMetaRestore, report->meta_restore_ns);

  // Phase 2: analysis from the last complete checkpoint.
  std::map<TxnId, Lsn> losers;
  {
    obs::ScopedSpan span("recovery", "analysis");
    FACE_RETURN_IF_ERROR(Analysis(report, ctrl.checkpoint_lsn, &losers));
  }
  const SimNanos t_ana = SpanTime();
  report->analysis_ns = t_ana - t_meta;
  RecordPhaseNs(kAnalysis, report->analysis_ns);

  // Phase 3: redo history from the checkpoint's BEGIN (every page dirty at
  // BEGIN was synced before the control block named it, so no older update
  // can be missing) — or,
  // after a degraded crash, from the persisted rebuild floor if lower: the
  // flash versions the checkpoint relied on are gone, and only the WAL can
  // reconstruct them onto disk.
  Lsn redo_lsn = report->checkpoint_lsn == kInvalidLsn
                     ? LogManager::kLogStartLsn
                     : report->checkpoint_lsn;
  if (ctrl.degraded && ctrl.rebuild_floor != kInvalidLsn &&
      ctrl.rebuild_floor < redo_lsn) {
    redo_lsn = ctrl.rebuild_floor;
  }
  report->redo_lsn = redo_lsn;
  {
    obs::ScopedSpan span("recovery", "redo");
    // The cache finishes its restore as the first lane of redo's first
    // read-ahead batch, continuing the metadata lane: FaCE's delta-ring read
    // overlaps the attach scan and the batch's disk fetches
    // (recovery/redo.h). A degraded cache has nothing to finish, and its
    // redo may read log the attach scan did not.
    const IoLead lead{[&] { return FinishCacheRecovery(ctrl); }, meta_end};
    RedoStats redo;
    FACE_RETURN_IF_ERROR(RedoWithReadAhead(&reader_, pool_, storage_, sched_,
                                           redo_lsn, nullptr,
                                           ctrl.degraded ? nullptr : &lead,
                                           &redo));
    report->redo_records = redo.records;
    report->redo_applied = redo.applied;
    report->redo_skipped = redo.skipped;
    report->redo_skipped_pages = redo.skipped_pages;
    report->readahead_batches = redo.readahead_batches;
    report->readahead_pages = redo.readahead_pages;
  }
  const SimNanos t_redo = SpanTime();
  report->redo_ns = t_redo - t_ana;
  RecordPhaseNs(kRedo, report->redo_ns);

  // Phase 4: roll back losers, writing CLRs. Prepared (2PC) transactions
  // are withheld: their fate belongs to the coordinator's decision record,
  // which may live in another shard's log. They stay registered active (so
  // the phase-5 checkpoint's ATT carries them, gtid included — a crash
  // before resolution re-finds them even after the log is truncated) until
  // ResolveInDoubt() commits or rolls them back.
  for (const auto& [txn_id, gtid] : prepared_) {
    auto it = losers.find(txn_id);
    if (it == losers.end()) continue;  // completed after its prepare
    report->in_doubt.push_back({txn_id, gtid, it->second});
    txns_->AdoptRecovered(txn_id, it->second, gtid);
    losers.erase(it);
  }
  report->losers = losers.size();
  {
    obs::ScopedSpan span("recovery", "undo");
    FACE_RETURN_IF_ERROR(Undo(report, &losers));
  }
  const SimNanos t_undo = SpanTime();
  report->undo_ns = t_undo - t_redo;
  RecordPhaseNs(kUndo, report->undo_ns);

  // Phase 5: checkpoint, so a crash during normal operation never has to
  // redo the recovery work itself. Its write-back runs as lane batches.
  {
    obs::ScopedSpan span("recovery", "checkpoint");
    Checkpointer ckpt(log_, pool_, txns_, storage_, cache_);
    FACE_RETURN_IF_ERROR(ckpt.TakeCheckpoint(sched_).status());
    RecordWriteBack(ckpt.stats(), report);
  }
  const SimNanos t_ckpt = SpanTime();
  report->checkpoint_ns = t_ckpt - t_undo;
  RecordPhaseNs(kCheckpoint, report->checkpoint_ns);
  report->total_ns = t_ckpt - t0;
  RecordPhaseNs(kTotal, report->total_ns);
  if (obs::Enabled()) GetRecoveryObs().restarts->Increment();

  const BufferPool::Stats after = pool_->stats();
  report->pages_from_flash = after.flash_fetches - before.flash_fetches;
  report->pages_from_disk = after.disk_fetches - before.disk_fetches;
  report->pages_fetched = report->pages_from_flash + report->pages_from_disk;
  return Status::OK();
}

Status RestartManager::RestoreCacheMetadata(const WalControlInfo& ctrl) {
  if (ctrl.degraded) {
    cache_->EnterDegraded();  // the (possibly replaced) flash is untrusted
    return Status::OK();
  }
  return cache_->RecoverAfterCrash();
}

Status RestartManager::FinishCacheRecovery(const WalControlInfo& ctrl) {
  // The exact per-page rebuild floors died with the process; lower the
  // restored dirty entries to the persisted minimum. Pages admitted dirty
  // after the last checkpoint were clean at its sync, so the checkpoint LSN
  // bounds their exposure; min covers both.
  Lsn floor = ctrl.rebuild_floor;
  if (ctrl.checkpoint_lsn != kInvalidLsn &&
      (floor == kInvalidLsn || ctrl.checkpoint_lsn < floor)) {
    floor = ctrl.checkpoint_lsn;
  }
  if (floor == kInvalidLsn) floor = LogManager::kLogStartLsn;
  return cache_->FinishRecovery(floor);
}

Status RestartManager::Analysis(RestartReport* report, Lsn ckpt_lsn,
                                std::map<TxnId, Lsn>* losers) {
  const Lsn from = ckpt_lsn == kInvalidLsn ? LogManager::kLogStartLsn
                                           : ckpt_lsn;
  FACE_RETURN_IF_ERROR(reader_.Seek(from));
  while (true) {
    auto rec_or = reader_.Next();
    if (rec_or.status().IsNotFound()) break;  // end of the valid log
    FACE_RETURN_IF_ERROR(rec_or.status());
    const LogRecord& rec = rec_or.value();
    ++report->analysis_records;
    switch (rec.type) {
      case LogRecordType::kBegin:
        (*losers)[rec.txn_id] = rec.lsn;
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kClr:
        (*losers)[rec.txn_id] = rec.lsn;
        break;
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        losers->erase(rec.txn_id);
        prepared_.erase(rec.txn_id);
        break;
      case LogRecordType::kPrepare:
        // A durable vote: the transaction is in-doubt unless a completion
        // record follows. The vote is not part of the undo chain, so the
        // loser chain head is untouched.
        prepared_[rec.txn_id] = rec.gtid;
        break;
      case LogRecordType::kGlobalCommit:
        // The coordinator's decision: every participant of this global
        // transaction — on whatever shard — must commit.
        report->decided_gtids.push_back(rec.gtid);
        break;
      case LogRecordType::kCheckpointBegin:
        // The checkpoint we started from, or a later incomplete one: seed
        // the ATT with its snapshot and restore the allocator's high-water
        // mark (redo raises it further as it observes larger page ids).
        for (const AttEntry& att : rec.active_txns) {
          // A record after BEGIN supersedes the snapshot's last_lsn.
          auto [it, inserted] = losers->emplace(att.txn_id, att.last_lsn);
          if (!inserted) it->second = std::max(it->second, att.last_lsn);
          // A prepared transaction carried across a checkpoint keeps its
          // in-doubt status even though its Prepare record predates the
          // scan window.
          if (att.gtid != 0) prepared_.emplace(att.txn_id, att.gtid);
        }
        storage_->RestoreAllocator(
            std::max(storage_->next_page_id(), rec.next_page_id));
        break;
    }
  }
  // New transaction ids must never collide with pre-crash ones.
  for (const auto& [id, lsn] : *losers) {
    (void)lsn;
    txns_->ObserveTxnId(id);
  }
  // Normalize the decision list: sorted + deduplicated, so consumers can
  // binary-search and unions across shards stay deterministic.
  std::sort(report->decided_gtids.begin(), report->decided_gtids.end());
  report->decided_gtids.erase(
      std::unique(report->decided_gtids.begin(), report->decided_gtids.end()),
      report->decided_gtids.end());
  return Status::OK();
}

Status RestartManager::Undo(RestartReport* report,
                            std::map<TxnId, Lsn>* losers) {
  // Chain head per loser: where the next CLR links to. Starts at the last
  // record analysis saw for the transaction and advances with each CLR.
  std::map<TxnId, Lsn> chain_head = *losers;

  while (!losers->empty()) {
    // Undo strictly in reverse LSN order across all losers, like ARIES.
    auto max_it = losers->begin();
    for (auto it = std::next(losers->begin()); it != losers->end(); ++it) {
      if (it->second > max_it->second) max_it = it;
    }
    const TxnId txn_id = max_it->first;
    const Lsn lsn = max_it->second;
    if (lsn == kInvalidLsn) {
      // Nothing (left) to undo; close out the transaction.
      LogRecord abort;
      abort.type = LogRecordType::kAbort;
      abort.txn_id = txn_id;
      abort.prev_lsn = chain_head[txn_id];
      log_->Append(&abort);
      losers->erase(max_it);
      continue;
    }

    FACE_RETURN_IF_ERROR(reader_.Seek(lsn));
    auto rec_or = reader_.Next();
    if (!rec_or.ok()) {
      return Status::Corruption("undo chain points past end of log");
    }
    const LogRecord& rec = rec_or.value();

    switch (rec.type) {
      case LogRecordType::kUpdate: {
        // The range holds the after image (redo repeated history), so
        // XORing the record's image out of it restores the before image,
        // which the CLR then carries in full.
        FACE_ASSIGN_OR_RETURN(PageHandle page,
                              pool_->FetchPageForRedo(rec.page_id));
        rec.XorImageInto(page.data());
        const uint32_t n = static_cast<uint32_t>(rec.image.size());

        LogRecord clr;
        clr.type = LogRecordType::kClr;
        clr.txn_id = txn_id;
        clr.prev_lsn = chain_head[txn_id];
        clr.page_id = rec.page_id;
        clr.offset = rec.offset;
        clr.image.assign(page.data() + rec.offset, n);  // compensation image
        clr.undo_next_lsn = rec.prev_lsn;
        const Lsn clr_lsn = log_->Append(&clr);
        chain_head[txn_id] = clr_lsn;
        page.MarkDirtyRange(clr_lsn, rec.offset, n);
        ++report->undo_records;
        max_it->second = rec.prev_lsn;
        break;
      }
      case LogRecordType::kClr:
        // Already-compensated span: skip straight past it.
        max_it->second = rec.undo_next_lsn;
        break;
      case LogRecordType::kBegin: {
        LogRecord abort;
        abort.type = LogRecordType::kAbort;
        abort.txn_id = txn_id;
        abort.prev_lsn = chain_head[txn_id];
        log_->Append(&abort);
        losers->erase(max_it);
        break;
      }
      case LogRecordType::kCommit:
      case LogRecordType::kAbort:
        return Status::Internal("loser chain reached a completion record");
      case LogRecordType::kPrepare:
      case LogRecordType::kGlobalCommit:
        // Votes and decisions are logged outside every undo chain.
        return Status::Internal("loser chain reached a 2PC record");
      case LogRecordType::kCheckpointBegin:
        return Status::Internal("loser chain reached a checkpoint record");
    }
  }
  // No force here: the CLRs become durable with the checkpoint that follows
  // every Undo, or earlier under the WAL rule if a page they dirtied leaves
  // the pool.
  return Status::OK();
}

Status RestartManager::ResolveInDoubt(const std::vector<InDoubtTxn>& in_doubt,
                                      const std::vector<uint64_t>& decided,
                                      RestartReport* report) {
  if (in_doubt.empty()) return Status::OK();
  if (sched_ != nullptr) {
    sched_->BeginBackground(bg_token_, sched_->makespan());
  }
  auto resolve = [&]() -> Status {
    obs::ScopedSpan span("recovery", "resolve_in_doubt");
    for (const InDoubtTxn& t : in_doubt) {
      if (std::binary_search(decided.begin(), decided.end(), t.gtid)) {
        // Commit: the effects are already in place (redo replayed them);
        // only the local completion record is missing.
        FACE_RETURN_IF_ERROR(txns_->Commit(t.txn_id));
      } else {
        // Presumed abort: no decision record anywhere means the global
        // transaction never committed. Log-driven rollback, exactly the
        // loser path — CLRs, an Abort record, idempotent across crashes.
        std::map<TxnId, Lsn> loser{{t.txn_id, t.last_lsn}};
        FACE_RETURN_IF_ERROR(Undo(report, &loser));
        txns_->ForgetRecovered(t.txn_id);
      }
    }
    // Re-checkpoint: the resolved fates must not depend on the resolved
    // shard's log being replayed alongside its peers' forever after.
    Checkpointer ckpt(log_, pool_, txns_, storage_, cache_);
    FACE_RETURN_IF_ERROR(ckpt.TakeCheckpoint(sched_).status());
    RecordWriteBack(ckpt.stats(), report);
    return Status::OK();
  };
  const Status s = resolve();
  if (sched_ != nullptr) sched_->EndBackground();
  return s;
}

}  // namespace face
