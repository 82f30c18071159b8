#include "testbed/testbed.h"

#include <algorithm>

#include "core/face_cache.h"
#include "core/lc_cache.h"
#include "obs/trace.h"
#include "workload/tpcc_workload.h"

namespace face {

namespace {

/// Resolve one "testbed.txn_latency_ns.<type>" histogram handle per
/// transaction type of the bound workload. Registration is idempotent, so
/// re-binding after a crash just re-resolves the same handles.
void BindTxnLatencyHists(const workload::Workload& w,
                         std::vector<obs::Hist*>* out) {
  out->clear();
  auto& reg = obs::MetricsRegistry::Instance();
  for (uint32_t t = 0; t < w.num_txn_types(); ++t) {
    out->push_back(reg.GetHistogram(std::string("testbed.txn_latency_ns.") +
                                    w.txn_type_name(static_cast<uint8_t>(t))));
  }
}

/// Flash-loss supervision handles, resolved once per thread (the metrics
/// registry is thread-local; shard workers each resolve their own set).
struct FaultObs {
  obs::Gauge* degraded;
  obs::Counter* degradations;
  obs::Counter* scrub_frames_scanned;
  obs::Counter* scrub_clean_repaired;
  obs::Counter* scrub_lost_dirty;
};

FaultObs& GetFaultObs() {
  thread_local FaultObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    FaultObs f;
    f.degraded = reg.GetGauge("cache.degraded");
    f.degradations = reg.GetCounter("testbed.degradations");
    f.scrub_frames_scanned = reg.GetCounter("scrub.frames_scanned");
    f.scrub_clean_repaired = reg.GetCounter("scrub.clean_repaired");
    f.scrub_lost_dirty = reg.GetCounter("scrub.lost_dirty");
    return f;
  }();
  return o;
}

/// Occupied frames a background scrub pass verifies.
constexpr uint64_t kScrubFramesPerPass = 64;

}  // namespace

const char* CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNone: return "none";
    case CachePolicy::kFace: return "FaCE";
    case CachePolicy::kFaceGR: return "FaCE+GR";
    case CachePolicy::kFaceGSC: return "FaCE+GSC";
    case CachePolicy::kLc: return "LC";
  }
  return "?";
}

uint64_t GoldenImage::CapacityPages(uint32_t warehouses) {
  return workload::TpccFactory::CapacityPagesFor(warehouses);
}

StatusOr<GoldenImage> GoldenImage::Build(uint32_t warehouses, uint64_t seed) {
  FACE_ASSIGN_OR_RETURN(
      GoldenImage golden,
      BuildFor(std::make_shared<workload::TpccFactory>(warehouses), seed));
  golden.warehouses = warehouses;
  return golden;
}

StatusOr<GoldenImage> GoldenImage::BuildFor(
    std::shared_ptr<const workload::WorkloadFactory> factory, uint64_t seed) {
  GoldenImage golden;
  golden.factory = factory;
  golden.device = std::make_unique<SimDevice>(
      "golden", DeviceProfile::Seagate15k(), factory->CapacityPages());
  golden.device->set_timing_enabled(false);

  // Scratch WAL: the unlogged load only writes checkpoint records into it,
  // and the testbed starts every clone with a fresh log anyway.
  SimDevice log_dev("golden-log", DeviceProfile::Seagate15k(), 4096);
  log_dev.set_timing_enabled(false);

  DbStorage storage(golden.device.get());
  LogManager log(&log_dev);
  NullCache cache(&storage);
  DatabaseOptions db_opts;
  // The load writes the same image, byte for byte, at any pool size from
  // 256 frames up; 1024 frames (4 MB) keep the build's memory peak small.
  db_opts.buffer_frames = 1024;
  Database db(db_opts, &storage, &log, &cache);
  FACE_RETURN_IF_ERROR(db.Format());

  FACE_RETURN_IF_ERROR(factory->Load(db, seed));

  golden.next_page_id = storage.next_page_id();
  return golden;
}

Testbed::Testbed(const TestbedOptions& options, const GoldenImage* golden)
    : opts_(options), golden_(golden),
      factory_(options.workload != nullptr ? options.workload
                                           : golden->factory),
      sched_(options.clients), client_rnd_(options.seed),
      txn_seed_(options.seed) {
  buffer_frames_ = opts_.buffer_frames != 0
                       ? opts_.buffer_frames
                       : std::max<uint32_t>(
                             256, static_cast<uint32_t>(
                                      golden_->db_pages() * 4 / 1000));

  db_dev_ = std::make_unique<SimDevice>("db", opts_.db_profile,
                                        golden_->device->capacity_pages(),
                                        &sched_);
  // The WAL has its own spindle, as commodity deployments do.
  log_dev_ = std::make_unique<SimDevice>("log", DeviceProfile::Seagate15k(),
                                         uint64_t{1} << 24, &sched_);
  if (opts_.policy != CachePolicy::kNone) {
    flash_dev_ = std::make_unique<SimDevice>("flash", opts_.flash_profile,
                                             FlashDeviceBlocks(), &sched_);
  }
  ckpt_token_ = sched_.AddBackgroundToken();
  cleaner_token_ = sched_.AddBackgroundToken();
  recovery_token_ = sched_.AddBackgroundToken();
}

Testbed::~Testbed() {
  // Unhook the virtual clock if it points at this testbed's scheduler, so
  // later instrumentation never dereferences a destroyed object.
  if (obs::virtual_clock() == &sched_) obs::SetVirtualClock(nullptr);
}

uint32_t Testbed::EffectiveSegEntries() const {
  if (opts_.seg_entries != 0) return opts_.seg_entries;
  // One 4 KB metadata block per segment, never more than half the frames
  // (FaceCache::RecoverAfterCrash refuses a larger one).
  constexpr uint64_t kBlockEntries = kPageSize / FlashMetaEntry::kEncodedSize;
  return static_cast<uint32_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(kBlockEntries, opts_.flash_pages / 2)));
}

uint64_t Testbed::FlashDeviceBlocks() const {
  switch (opts_.policy) {
    case CachePolicy::kNone:
      return 0;
    case CachePolicy::kFace:
    case CachePolicy::kFaceGR:
    case CachePolicy::kFaceGSC:
      return FlashLayout::Compute(opts_.flash_pages, EffectiveSegEntries())
          .total_blocks;
    case CachePolicy::kLc:
      return LcCache::DeviceBlocksFor(opts_.flash_pages);
  }
  return 0;
}

StatusOr<std::unique_ptr<CacheExtension>> Testbed::MakeCache() {
  switch (opts_.policy) {
    case CachePolicy::kNone:
      return std::unique_ptr<CacheExtension>(
          std::make_unique<NullCache>(storage_.get()));
    case CachePolicy::kFace:
    case CachePolicy::kFaceGR:
    case CachePolicy::kFaceGSC: {
      FaceOptions fo = FaceOptions::Base(opts_.flash_pages);
      if (opts_.policy == CachePolicy::kFaceGR) {
        fo = FaceOptions::GroupReplace(opts_.flash_pages);
      } else if (opts_.policy == CachePolicy::kFaceGSC) {
        fo = FaceOptions::GroupSecondChance(opts_.flash_pages);
      }
      fo.group_size = opts_.group_size;
      fo.seg_entries = EffectiveSegEntries();
      fo.write_through = opts_.face_write_through;
      fo.cache_clean = opts_.face_cache_clean;
      fo.cache_dirty = opts_.face_cache_dirty;
      return std::unique_ptr<CacheExtension>(std::make_unique<FaceCache>(
          fo, flash_dev_.get(), storage_.get()));
    }
    case CachePolicy::kLc: {
      LcOptions lo;
      lo.n_frames = opts_.flash_pages;
      return std::unique_ptr<CacheExtension>(
          std::make_unique<LcCache>(lo, flash_dev_.get(), storage_.get()));
    }
  }
  return Status::InvalidArgument("unknown cache policy");
}

Status Testbed::BuildDramStack(bool after_crash) {
  storage_ = std::make_unique<DbStorage>(db_dev_.get());
  log_ = std::make_unique<LogManager>(log_dev_.get());
  FACE_ASSIGN_OR_RETURN(cache_, MakeCache());
  if (!after_crash) FACE_RETURN_IF_ERROR(cache_->Format());
  DatabaseOptions db_opts;
  db_opts.buffer_frames = buffer_frames_;
  db_ = std::make_unique<Database>(db_opts, storage_.get(), log_.get(),
                                   cache_.get());
  return Status::OK();
}

Status Testbed::Start() {
  if (factory_ == nullptr) {
    return Status::InvalidArgument(
        "no workload: neither the options nor the golden image carry a "
        "workload factory");
  }

  // Stamp metrics and trace spans with this testbed's virtual clock. The
  // single-threaded harness runs one testbed at a time; the most recently
  // started one owns the clock.
  obs::SetVirtualClock(&sched_);

  // Clone the golden image and wire the stack with timing disabled: setup
  // I/O (superblock formats, the anchoring checkpoint) is not measured.
  SetTiming(false);

  FACE_RETURN_IF_ERROR(db_dev_->CloneContentsFrom(*golden_->device));
  FACE_RETURN_IF_ERROR(BuildDramStack(/*after_crash=*/false));
  storage_->RestoreAllocator(golden_->next_page_id);
  FACE_RETURN_IF_ERROR(log_->Format());
  FACE_RETURN_IF_ERROR(db_->Open());
  FACE_RETURN_IF_ERROR(db_->TakeCheckpoint().status());

  workload_ = factory_->Create();
  FACE_RETURN_IF_ERROR(workload_->Setup(*db_, txn_seed_));
  client_rnd_ = Random(txn_seed_ ^ 0x5eed5eed);
  BindTxnLatencyHists(*workload_, &txn_lat_);

  SetTiming(true);
  return Status::OK();
}

void Testbed::SetTiming(bool on) {
  db_dev_->set_timing_enabled(on);
  log_dev_->set_timing_enabled(on);
  if (flash_dev_ != nullptr) flash_dev_->set_timing_enabled(on);
}

StatusOr<workload::AuditReport> Testbed::Audit() {
  SetTiming(false);
  workload::AuditReport report;
  Status s = workload_->Audit(*db_, &report);
  if (s.ok()) {
    const StatusOr<uint64_t> frames = cache_->AuditFrames();
    if (frames.ok()) {
      report.frames_audited += *frames;
    } else {
      report.AddViolation("cache audit: " + frames.status().ToString());
    }
  }
  SetTiming(true);
  FACE_RETURN_IF_ERROR(s);
  return report;
}

Status Testbed::RunBackgroundWork() {
  // LC's lazy cleaner: drain on its own token so cleaning overlaps clients.
  while (cache_->HasBackgroundWork()) {
    sched_.BeginBackground(cleaner_token_, sched_.now());
    const Status s = cache_->RunBackgroundWork();
    sched_.EndBackground();
    FACE_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

StatusOr<RunResult> Testbed::Run(const RunOptions& run) {
  const SimNanos start = sched_.makespan();
  const DeviceStats db0 = db_dev_->stats();
  const DeviceStats log0 = log_dev_->stats();
  const DeviceStats flash0 =
      flash_dev_ != nullptr ? flash_dev_->stats() : DeviceStats{};
  const CacheStats cache0 = cache_->stats();
  const BufferPool::Stats pool0 = db_->pool()->stats();
  const uint64_t primary0 = workload_->stats().primary;
  const uint64_t ab0 = workload_->stats().user_aborts;

  RunResult result;
  if (run.collect_completions) result.completions.reserve(run.txns);

  const FaultTelemetry fault0 = Telemetry();

  const bool obs_on = obs::Enabled();
  for (uint64_t i = 0; i < run.txns; ++i) {
    sched_.BeginTxn();
    const SimNanos t_begin = sched_.span_time();
    sched_.OnCpu(opts_.cpu_per_txn_ns);
    const auto type = workload_->NextTxn(*db_, client_rnd_);
    if (!type.ok()) {
      sched_.EndTxn();
      // Supervisor: a flash loss degrades to disk-only and the run keeps
      // going; every other error still fails the run. The stranded
      // transaction was rolled back, not completed — replay the slot.
      FACE_RETURN_IF_ERROR(InterceptFlashLoss(type.status()).status());
      --i;
      continue;
    }
    const SimNanos done = sched_.EndTxn();
    if (cache_->degraded()) ++fault_.degraded_txns;
    if (run.collect_completions) result.completions.emplace_back(done, *type);
    if (obs_on && *type < txn_lat_.size()) {
      txn_lat_[*type]->Add(done - t_begin);
    }

    FACE_RETURN_IF_ERROR(InterceptFlashLoss(RunBackgroundWork()).status());

    if (run.checkpoint_interval != 0 &&
        sched_.now() - last_ckpt_time_ >= run.checkpoint_interval) {
      obs::ScopedSpan ckpt_span("testbed", "checkpoint");
      sched_.BeginBackground(ckpt_token_, sched_.now());
      const auto ckpt = db_->TakeCheckpoint();
      sched_.EndBackground();
      FACE_RETURN_IF_ERROR(InterceptFlashLoss(ckpt.status()).status());
      last_ckpt_time_ = sched_.now();
      ++result.checkpoints;
    }

    if (opts_.scrub_interval != 0 && flash_dev_ != nullptr &&
        !cache_->degraded() &&
        sched_.now() - last_scrub_time_ >= opts_.scrub_interval) {
      FACE_RETURN_IF_ERROR(ScrubPass(kScrubFramesPerPass).status());
      last_scrub_time_ = sched_.now();
    }
  }

  result.txns = run.txns;
  result.primary_txns = workload_->stats().primary - primary0;
  result.user_aborts = workload_->stats().user_aborts - ab0;
  result.duration = sched_.makespan() - start;

  // Device, cache, pool and fault counters are cumulative; report
  // run-relative deltas, walking each struct's one field list.
  auto delta = [](auto now, const auto& then, const auto& fields) {
    for (auto f : fields) now.*f -= then.*f;
    return now;
  };
  result.fault = delta(Telemetry(), fault0, kFaultCounters);
  result.db_stats = delta(db_dev_->stats(), db0, kDeviceCounters);
  result.log_stats = delta(log_dev_->stats(), log0, kDeviceCounters);
  if (flash_dev_ != nullptr) {
    result.flash_stats = delta(flash_dev_->stats(), flash0, kDeviceCounters);
  }
  if (result.duration > 0) {
    result.db_utilization =
        static_cast<double>(result.db_stats.busy_ns) /
        (static_cast<double>(result.duration) * opts_.db_profile.stations);
    result.flash_utilization =
        flash_dev_ != nullptr
            ? static_cast<double>(result.flash_stats.busy_ns) /
                  static_cast<double>(result.duration)
            : 0.0;
  }

  result.cache_stats = delta(cache_->stats(), cache0, kCacheCounters);
  result.pool_stats = delta(db_->pool()->stats(), pool0, kPoolCounters);
  return result;
}

void Testbed::ResetAllStats() {
  sched_.Reset();
  db_dev_->ResetStats();
  log_dev_->ResetStats();
  if (flash_dev_ != nullptr) flash_dev_->ResetStats();
  cache_->ResetStats();
  db_->pool()->ResetStats();
  db_->txns()->ResetStats();
  workload_->ResetStats();
  last_ckpt_time_ = 0;
  last_scrub_time_ = 0;
  fault_ = FaultTelemetry();
  // The clock was just zeroed; an open degraded window restarts at 0.
  degraded_since_ = 0;
}

Status Testbed::RunToMidInterval(SimNanos interval, uint64_t checkpoints) {
  RunOptions run;
  run.txns = 200;
  run.checkpoint_interval = interval;
  for (uint64_t done = 0; done < checkpoints;) {
    FACE_ASSIGN_OR_RETURN(RunResult batch, Run(run));
    done += batch.checkpoints;
  }
  // The last batch ends anywhere in an interval (at 2 s one HDD-only batch
  // spans several), so step one transaction at a time: past the next
  // checkpoint first if it ended past the midpoint, then to the midpoint.
  run.txns = 1;
  const SimNanos ckpt0 = last_ckpt_time_;
  const bool past_mid = sched_.now() >= ckpt0 + interval / 2;
  while ((past_mid && last_ckpt_time_ == ckpt0) ||
         sched_.now() < last_ckpt_time_ + interval / 2) {
    FACE_RETURN_IF_ERROR(Run(run).status());
  }
  return Status::OK();
}

Status Testbed::Warmup(uint64_t txns) {
  RunOptions warm;
  warm.txns = txns;
  FACE_RETURN_IF_ERROR(Run(warm).status());
  ResetAllStats();
  return Status::OK();
}

Status Testbed::InjectInflightTransactions(uint32_t n) {
  Random r(txn_seed_ ^ 0xC0FFEE);
  for (uint32_t i = 0; i < n; ++i) {
    FACE_RETURN_IF_ERROR(workload_->InjectStranded(*db_, r));
  }
  // In a live system other backends' commits continuously force the log,
  // carrying these records to disk with them (group commit). Model that
  // co-flush so the crash strands durable evidence of unfinished work —
  // otherwise the in-flight transactions would vanish with the WAL tail.
  return log_->FlushAll();
}

Status Testbed::Crash() {
  sched_.AdvanceAllTokens(sched_.makespan());
  // DRAM dies: every in-memory structure is discarded, in dependency order.
  // The workload is the clients, on the host: it outlives the crash.
  db_.reset();
  cache_.reset();
  log_.reset();
  storage_.reset();
  return Status::OK();
}

StatusOr<RestartReport> Testbed::Recover() {
  if (db_ != nullptr) return Status::InvalidArgument("recover without crash");
  obs::ScopedSpan span("testbed", "recover");
  FACE_RETURN_IF_ERROR(BuildDramStack(/*after_crash=*/true));
  FACE_ASSIGN_OR_RETURN(RestartReport report,
                        db_->Recover(&sched_, recovery_token_));

  // Fresh request stream after the crash, like reconnecting clients.
  FACE_RETURN_IF_ERROR(workload_->Setup(*db_, ++txn_seed_));
  client_rnd_ = Random(txn_seed_ ^ 0x5eed5eed);
  BindTxnLatencyHists(*workload_, &txn_lat_);

  // Nobody runs during restart: clients resume where recovery left off.
  sched_.AdvanceAllTokens(sched_.makespan());

  // A degraded crash comes back up degraded: the supervisor's bookkeeping
  // must agree with the control block the restart honored.
  if (report.degraded) {
    degraded_since_ = sched_.makespan();
    if (obs::Enabled()) GetFaultObs().degraded->Set(1);
  }
  return report;
}

Status Testbed::ResolveInDoubt(const std::vector<InDoubtTxn>& in_doubt,
                               const std::vector<uint64_t>& decided,
                               RestartReport* report) {
  if (db_ == nullptr) return Status::InvalidArgument("resolve before recover");
  FACE_RETURN_IF_ERROR(
      db_->ResolveInDoubt(in_doubt, decided, report, &sched_, recovery_token_));
  sched_.AdvanceAllTokens(sched_.makespan());
  return Status::OK();
}

FaultTelemetry Testbed::Telemetry() const {
  FaultTelemetry t = fault_;
  if (cache_ != nullptr && cache_->degraded()) {
    t.degraded_ns += sched_.makespan() - degraded_since_;
  }
  return t;
}

StatusOr<bool> Testbed::InterceptFlashLoss(const Status& s) {
  if (s.ok()) return false;
  // Only a flash device whose retry budget was exhausted (or that an
  // injector killed) is survivable; every other failure propagates.
  if (flash_dev_ == nullptr || !flash_dev_->failed() || cache_->degraded()) {
    return s;
  }
  FACE_RETURN_IF_ERROR(DegradeToDiskOnly());
  return true;
}

Status Testbed::DegradeToDiskOnly() {
  if (cache_->degraded()) return Status::OK();
  obs::ScopedSpan span("testbed", "degrade_to_disk_only");
  sched_.BeginBackground(recovery_token_, sched_.now());
  auto body = [&]() -> Status {
    // 1. The flash-only dirty set and its WAL floor, while the policy's
    //    durability-exposure ledger still exists.
    std::vector<FlashOnlyPage> lost;
    cache_->CollectFlashOnlyDirty(&lost);
    const Lsn floor = cache_->FlashRedoFloor();

    // 2. Stop using flash: drop all cache state without touching the dead
    //    device. From here the buffer pool treats the policy as NullCache.
    cache_->EnterDegraded();

    // 3. Durable degraded marker + rebuild floor BEFORE reconstructing
    //    anything: a crash from here on restarts disk-only and redoes from
    //    the floor, so the lost versions can never slip away.
    FACE_RETURN_IF_ERROR(log_->FlushAll());
    FACE_ASSIGN_OR_RETURN(WalControlInfo info, log_->ReadControlInfo());
    info.degraded = true;
    info.rebuild_floor = floor;
    FACE_RETURN_IF_ERROR(log_->WriteControlInfo(info));
    if (mid_degrade_hook_ != nullptr) {
      FACE_RETURN_IF_ERROR(mid_degrade_hook_());
    }

    // 4. DRAM frames whose only redo protection was their flash copy go to
    //    disk now; every frame forgets its flash delta base.
    FACE_RETURN_IF_ERROR(db_->pool()->FlushUnprotectedFrames());

    // 5. Rebuild the lost dirty pages from the WAL onto disk.
    FlashRebuild rebuild(log_.get(), db_->pool(), storage_.get(), &sched_);
    FACE_ASSIGN_OR_RETURN(last_rebuild_,
                          rebuild.Rebuild(lost, info.checkpoint_lsn));

    // 6. Roll back transactions stranded mid-flight by the failure — with
    //    the page tips reconstructed, their before-images apply cleanly.
    //    Prepared (2PC) participants keep their in-doubt status.
    for (const AttEntry& att : db_->txns()->ActiveTxns()) {
      if (att.gtid != 0) continue;
      FACE_RETURN_IF_ERROR(db_->Abort(att.txn_id));
    }
    // Tell the driver its in-flight work was rolled back on the live
    // engine: a ledger-keeping workload records that its commit never
    // completed, for the next audit to check.
    if (workload_ != nullptr) {
      FACE_RETURN_IF_ERROR(workload_->OnInflightRolledBack(*db_));
    }

    // 7. Re-anchor: the checkpoint (degraded-aware) makes the rebuilt state
    //    the recovery floor and retires the rebuild_floor marker.
    return db_->TakeCheckpoint().status();
  }();
  sched_.EndBackground();
  FACE_RETURN_IF_ERROR(body);
  ++fault_.degradations;
  degraded_since_ = sched_.makespan();
  last_ckpt_time_ = sched_.now();
  if (obs::Enabled()) {
    GetFaultObs().degraded->Set(1);
    GetFaultObs().degradations->Increment();
  }
  return Status::OK();
}

Status Testbed::ReattachFlash() {
  if (flash_dev_ == nullptr) {
    return Status::InvalidArgument("no flash device to re-attach");
  }
  if (!cache_->degraded()) {
    return Status::InvalidArgument("re-attach while not degraded");
  }
  obs::ScopedSpan span("testbed", "reattach_flash");
  sched_.BeginBackground(recovery_token_, sched_.now());
  auto body = [&]() -> Status {
    // The replacement device is healthy and blank. The caller owns
    // disarming any fault injector; health reset models the swap.
    flash_dev_->ResetHealth();
    flash_dev_->Erase();
    FACE_RETURN_IF_ERROR(cache_->ReattachFlash());
    // Durable un-mark: restarts trust the (reformatted) flash again.
    FACE_ASSIGN_OR_RETURN(WalControlInfo info, log_->ReadControlInfo());
    info.degraded = false;
    info.rebuild_floor = kInvalidLsn;
    return log_->WriteControlInfo(info);
  }();
  sched_.EndBackground();
  FACE_RETURN_IF_ERROR(body);
  fault_.degraded_ns += sched_.makespan() - degraded_since_;
  degraded_since_ = 0;
  if (obs::Enabled()) GetFaultObs().degraded->Set(0);
  return Status::OK();
}

StatusOr<ScrubResult> Testbed::ScrubPass(uint64_t max_frames) {
  ScrubResult res;
  if (flash_dev_ == nullptr || cache_->degraded()) return res;
  obs::ScopedSpan span("testbed", "scrub");
  sched_.BeginBackground(cleaner_token_, sched_.now());
  const Status s = cache_->ScrubSome(max_frames, &res);
  sched_.EndBackground();
  // The scrub itself may be what exhausts a dying device's retry budget.
  FACE_RETURN_IF_ERROR(InterceptFlashLoss(s).status());
  fault_.scrub_frames_scanned += res.frames_scanned;
  fault_.scrub_clean_repaired += res.clean_repaired;
  fault_.scrub_lost_dirty += res.lost_dirty.size();
  if (obs::Enabled()) {
    FaultObs& fo = GetFaultObs();
    fo.scrub_frames_scanned->Add(res.frames_scanned);
    fo.scrub_clean_repaired->Add(res.clean_repaired);
    fo.scrub_lost_dirty->Add(res.lost_dirty.size());
  }
  // A rotten dirty frame lost the page's newest version: rebuild it from
  // the WAL right away, before anything reads the stale disk copy. This
  // runs even if the pass itself exhausted the device and degraded — the
  // scrub already erased these pages from the policy's ledger, so the
  // degrade-path rebuild cannot have covered them.
  if (!res.lost_dirty.empty()) {
    sched_.BeginBackground(recovery_token_, sched_.now());
    auto body = [&]() -> Status {
      FACE_ASSIGN_OR_RETURN(WalControlInfo info, log_->ReadControlInfo());
      FlashRebuild rebuild(log_.get(), db_->pool(), storage_.get(), &sched_);
      FACE_ASSIGN_OR_RETURN(
          last_rebuild_,
          rebuild.Rebuild(res.lost_dirty, info.checkpoint_lsn));
      return Status::OK();
    }();
    sched_.EndBackground();
    FACE_RETURN_IF_ERROR(body);
  }
  return res;
}

std::string Testbed::DumpStats(bool as_json) const {
  // Merged across threads: a sharded run's workers each hold their own
  // registry. Single-threaded this is the plain registry snapshot.
  return as_json ? obs::MetricsRegistry::MergedToJson()
                 : obs::MetricsRegistry::MergedToText();
}

}  // namespace face
