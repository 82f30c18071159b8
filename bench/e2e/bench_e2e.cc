// End-to-end benchmark of the FaCE reproduction: one closed-loop workload per
// process, measured from outside every layer, with a crash, an ARIES restart
// and a row-for-row durability check at the end.
//
//   bench_e2e --workload=<tpcc|tpcc-hdd|ycsb-b|ycsb-a-resident> --seed=S
//             [--seconds=T] [--trace=<file>]
//   bench_e2e --selftest
//
// Protocol (bench/e2e/README.md has the metric glossary):
//   1. set up: build the golden image fresh, Testbed::Start, Warmup;
//   2. measure a fixed number of transactions in equal Run batches;
//   3. 20 times: run to mid checkpoint interval, strand 50 in-flight
//      transactions, Crash, Recover;
//   repeat 1-3 until --seconds of host time have passed (at least three
//   times): host metrics come from all repetitions, and every repetition
//   must reproduce the first one's simulated metrics exactly;
//   4. verify the last repetition: digest the recovered database and a
//      twin that ran the same committed transactions without losing any
//      work (policy none, same seed), and count mismatching rows.
// --trace=<file> adds one repetition with the obs metrics and tracer on,
// checks it simulates bit-identically, emits the per-layer ledger and
// writes the Chrome trace to <file>.
//
// The last stdout line is one JSON object: attempted/failed operation
// counts, the mismatch count, and the "e2e" and "layer" metric maps.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "digest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe.h"
#include "self_time.h"
#include "testbed/testbed.h"
#include "workload/tpcc_workload.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace bench {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using workload::WorkloadFactory;
using workload::YcsbFactory;
using workload::YcsbOptions;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

constexpr SimNanos kCheckpointEvery = 3 * kNanosPerSecond;
constexpr uint32_t kStranded = 50;  // the paper's 50 client tokens
constexpr int kCrashes = 20;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 12;

/// One workload. Sizes are fixed here on purpose: the benchmark has no
/// knobs, so two runs of it always measure the same thing.
struct Plan {
  const char* name;
  std::function<std::shared_ptr<const WorkloadFactory>()> factory;
  CachePolicy policy;
  uint64_t flash_divisor;  ///< flash pages = db pages / divisor; 0 = none
  uint64_t warmup;
  uint64_t measured;
  uint32_t batches;
};

std::shared_ptr<const WorkloadFactory> Ycsb(YcsbOptions o, uint64_t records) {
  o.records = records;
  return std::make_shared<YcsbFactory>(o);
}

/// Measured sizes give every workload at least 40 update transactions
/// beyond its p99.9 latency.
///
/// The flash workloads run plain FaCE (mvFIFO, individual writes), not the
/// paper's group-write variants: FaCE+GSC and FaCE+GR both lose committed
/// updates at restart on some seeds, which the durability check catches
/// (README.md, "Known defects").
std::vector<Plan> Plans() {
  auto tpcc = [] { return std::make_shared<workload::TpccFactory>(1); };
  // 200k KV rows: at bench_workloads' 40k rows a 10% flash cache has fewer
  // frames than FaCE's 1024-entry metadata segment floor, a geometry on
  // which restart is known to fail (README.md, "Known defects").
  constexpr uint64_t kRows = 200000;
  return {
      {"tpcc", tpcc, CachePolicy::kFace, 10, 4000, 48000, 16},
      {"tpcc-hdd", tpcc, CachePolicy::kNone, 0, 4000, 48000, 16},
      {"ycsb-b", [] { return Ycsb(YcsbOptions::B(), kRows); },
       CachePolicy::kFace, 10, 100000, 832000, 16},
      {"ycsb-a-resident", [] { return Ycsb(YcsbOptions::A(), kRows); },
       CachePolicy::kFace, 1, 100000, 200000, 16},
  };
}

/// The self-test's small resident-flash KV geometry.
Plan SelftestPlan() {
  return {"selftest", [] { return Ycsb(YcsbOptions::A(), 20000); },
          CachePolicy::kFace, 1, 2000, 4000, 2};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double Ratio(double part, double whole) { return whole != 0 ? part / whole : 0; }
double Pct(double part, double whole) { return 100.0 * Ratio(part, whole); }

/// Linear-interpolated quantile of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<SimNanos>& v) {
  double sum = 0;
  for (SimNanos x : v) sum += static_cast<double>(x);
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile of sorted samples.
SimNanos Percentile(const std::vector<SimNanos>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

uint64_t PeakRssKb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) kb = strtoull(line + 6, nullptr, 10);
  }
  fclose(f);
  return kb;
}

/// Counts every operation the benchmark attempts and which of them failed.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Check(const Status& s, const char* what) {
    ++attempted;
    if (s.ok()) return true;
    ++failed;
    fprintf(stderr, "[e2e] %s failed: %s\n", what, s.ToString().c_str());
    return false;
  }
};

/// Public counters of every layer, read at the edges of the measured phase.
struct Counters {
  SimNanos makespan = 0;
  DeviceStats dev[kNumDevs];
  CacheStats cache;
  BufferPool::Stats pool;
  LogManager::Stats log;
  TransactionManager::Stats txn;
  workload::WorkloadStats work;

  static Counters Read(Testbed* tb) {
    Counters c;
    c.makespan = tb->sched()->makespan();
    const SimDevice* devs[kNumDevs] = {tb->db_dev(), tb->flash_dev(),
                                       tb->log_dev()};
    for (int d = 0; d < kNumDevs; ++d) {
      if (devs[d] != nullptr) c.dev[d] = devs[d]->stats();
    }
    c.cache = tb->cache()->stats();
    c.pool = tb->db()->pool()->stats();
    c.log = tb->db()->log()->stats();
    c.txn = tb->db()->txns()->stats();
    c.work = tb->workload()->stats();
    return c;
  }
};

/// One repetition: set-up, measured phase, crashes and restarts.
struct Rep {
  GoldenImage golden;
  Probe probe;
  std::unique_ptr<Testbed> tb;  // after golden and probe: destroyed first

  double golden_s = 0, start_s = 0, warmup_s = 0;
  std::vector<double> batch_rates;  ///< measured txns per host second
  double run_host_s = 0;
  /// Transactions completed per incarnation: from Start to the first
  /// crash, then between consecutive restarts. The twin replays them.
  std::vector<uint64_t> incarnations;

  // Simulated metrics must repeat exactly across repetitions.
  Metrics sim_e2e;    ///< end-to-end
  Metrics sim_layer;  ///< per-layer ledger
  Metrics host;       ///< host-time per-layer ledger
};

TestbedOptions OptionsFor(const Plan& plan, const GoldenImage& golden,
                          uint64_t seed) {
  TestbedOptions opts;
  opts.policy = plan.policy;
  opts.flash_pages =
      plan.flash_divisor != 0 ? golden.db_pages() / plan.flash_divisor : 0;
  opts.seed = seed;
  return opts;
}

bool SetUp(const Plan& plan, uint64_t seed, Rep* rep, Ops* ops) {
  const Clock::time_point t0 = Clock::now();
  const auto inner = plan.factory();
  // The load uses the repository's fixed golden seed, as bench_workloads
  // does; --seed drives the request streams. The same data under every seed
  // keeps the seed-to-seed spread down to what the requests cause.
  auto golden = GoldenImage::BuildFor(inner);
  if (!ops->Check(golden.status(), "golden build")) return false;
  rep->golden = std::move(golden.value());
  rep->golden_s = SecondsSince(t0);

  const Clock::time_point t1 = Clock::now();
  TestbedOptions opts = OptionsFor(plan, rep->golden, seed);
  opts.workload = std::make_shared<ProbeFactory>(inner, &rep->probe);
  rep->tb = std::make_unique<Testbed>(opts, &rep->golden);
  rep->probe.Bind(rep->tb.get());
  if (!ops->Check(rep->tb->Start(), "start")) return false;
  rep->start_s = SecondsSince(t1);
  fprintf(stderr, "[e2e] %s: %llu database pages, %u DRAM frames, %llu "
          "flash frames (%s)\n", plan.name,
          static_cast<unsigned long long>(rep->golden.db_pages()),
          rep->tb->buffer_frames(),
          static_cast<unsigned long long>(opts.flash_pages),
          CachePolicyName(plan.policy));

  const Clock::time_point t2 = Clock::now();
  if (!ops->Check(rep->tb->Warmup(plan.warmup), "warmup")) return false;
  rep->warmup_s = SecondsSince(t2);
  rep->incarnations = {plan.warmup};
  return true;
}

bool Measure(const Plan& plan, Rep* rep, Ops* ops) {
  Testbed* tb = rep->tb.get();
  const Counters c0 = Counters::Read(tb);
  rep->probe.ledger = TxnLedger();
  rep->probe.ledger.update_latency_ns.reserve(plan.measured);
  rep->probe.recording = true;
  uint64_t checkpoints = 0;
  RunOptions run;
  run.txns = plan.measured / plan.batches;
  run.checkpoint_interval = kCheckpointEvery;
  for (uint32_t b = 0; b < plan.batches; ++b) {
    const Clock::time_point h0 = Clock::now();
    auto r = tb->Run(run);
    const double secs = SecondsSince(h0);
    if (!ops->Check(r.status(), "measured batch")) return false;
    rep->run_host_s += secs;
    rep->batch_rates.push_back(static_cast<double>(run.txns) / secs);
    checkpoints += r->checkpoints;
    rep->incarnations.back() += run.txns;
  }
  rep->probe.recording = false;
  const Counters c1 = Counters::Read(tb);

  TxnLedger& led = rep->probe.ledger;
  const double n = static_cast<double>(led.txns);
  const double dur = static_cast<double>(c1.makespan - c0.makespan);
  std::vector<SimNanos>& updates = led.update_latency_ns;
  std::sort(updates.begin(), updates.end());
  DeviceStats d[kNumDevs];
  for (int i = 0; i < kNumDevs; ++i) {
    d[i].read_reqs = c1.dev[i].read_reqs - c0.dev[i].read_reqs;
    d[i].write_reqs = c1.dev[i].write_reqs - c0.dev[i].write_reqs;
    d[i].seq_write_reqs = c1.dev[i].seq_write_reqs - c0.dev[i].seq_write_reqs;
    d[i].pages_written = c1.dev[i].pages_written - c0.dev[i].pages_written;
    d[i].busy_ns = c1.dev[i].busy_ns - c0.dev[i].busy_ns;
    d[i].retries = c1.dev[i].retries - c0.dev[i].retries;
  }
  const double kb = kPageSize / 1024.0;
  const double primary =
      static_cast<double>(c1.work.primary - c0.work.primary);
  const SimNanos cpu = tb->options().cpu_per_txn_ns;
  const double latency_sum = static_cast<double>(led.latency_sum_ns);
  const SimNanos own = led.service_ns[kDb] + led.service_ns[kFlash] +
                       led.service_ns[kLog];
  auto cache = [&](uint64_t CacheStats::*f) {
    return static_cast<double>(c1.cache.*f - c0.cache.*f);
  };
  auto pool = [&](uint64_t BufferPool::Stats::*f) {
    return static_cast<double>(c1.pool.*f - c0.pool.*f);
  };
  const double delta_records = cache(&CacheStats::delta_records);
  const double flash_writes = cache(&CacheStats::flash_writes);
  const uint32_t stations[kNumDevs] = {
      tb->db_dev()->profile().stations,
      tb->flash_dev() != nullptr ? tb->flash_dev()->profile().stations : 1,
      tb->log_dev()->profile().stations};

  rep->sim_e2e = {
      {"tpmc", primary * 60e9 / dur, "txn/vmin"},
      {"update_mean_ms", Mean(updates) / 1e6, "vms"},
      {"update_p999_ms", Percentile(updates, 0.999) / 1e6, "vms"},
      {"write_kb_per_txn",
       static_cast<double>(d[kDb].pages_written + d[kFlash].pages_written) *
           kb / n,
       "KB/txn"},
  };
  Metrics& s = rep->sim_layer;
  s = {
      {"txn.update_samples", static_cast<double>(updates.size()), "count"},
      {"txn.update_share", Ratio(static_cast<double>(updates.size()), n),
       "fraction"},
      {"txn.mean_ms", latency_sum / n / 1e6, "vms"},
      // Where the mean latency went, as shares: queueing for a station,
      // each station's service of this transaction's own requests, and the
      // fixed CPU charge.
      {"txn.wait_share",
       Ratio(latency_sum - n * static_cast<double>(cpu) -
                 static_cast<double>(own),
             latency_sum),
       "fraction"},
  };
  for (int i = 0; i < kNumDevs; ++i) {
    const std::string dev = kDevName[i];
    s.push_back({"txn.service_" + dev + "_share",
                 Ratio(static_cast<double>(led.service_ns[i]), latency_sum),
                 "fraction"});
    s.push_back({"sim." + dev + ".util",
                 static_cast<double>(d[i].busy_ns) / (dur * stations[i]),
                 "fraction"});
  }
  s.insert(s.end(), {
      {"sim.db.read_reqs_per_txn", d[kDb].read_reqs / n, "count/txn"},
      {"sim.db.write_reqs_per_txn", d[kDb].write_reqs / n, "count/txn"},
      {"sim.flash.read_reqs_per_txn", d[kFlash].read_reqs / n, "count/txn"},
      {"sim.flash.write_reqs_per_txn", d[kFlash].write_reqs / n, "count/txn"},
      {"sim.log.write_reqs_per_txn", d[kLog].write_reqs / n, "count/txn"},
      {"sim.flash.kb_per_txn", d[kFlash].pages_written * kb / n, "KB/txn"},
      {"sim.flash.seq_write_pct",
       Pct(d[kFlash].seq_write_reqs, d[kFlash].write_reqs), "%"},
      {"sim.db.seq_write_pct", Pct(d[kDb].seq_write_reqs, d[kDb].write_reqs),
       "%"},
      {"sim.retries",
       static_cast<double>(d[kDb].retries + d[kFlash].retries +
                           d[kLog].retries),
       "count"},
      {"buffer.hit_pct",
       Pct(pool(&BufferPool::Stats::hits), pool(&BufferPool::Stats::fetches)),
       "%"},
      {"buffer.misses_per_txn", pool(&BufferPool::Stats::misses) / n,
       "count/txn"},
      {"buffer.flash_fetch_pct",
       Pct(pool(&BufferPool::Stats::flash_fetches),
           pool(&BufferPool::Stats::misses)),
       "%"},
      {"buffer.dirty_evictions_per_txn",
       pool(&BufferPool::Stats::dirty_evictions) / n, "count/txn"},
      {"core.hit_pct",
       Pct(cache(&CacheStats::hits), cache(&CacheStats::lookups)), "%"},
      {"core.enqueues_per_txn", cache(&CacheStats::enqueues) / n, "count/txn"},
      {"core.flash_writes_per_txn", flash_writes / n, "count/txn"},
      {"core.disk_writes_per_txn", cache(&CacheStats::disk_writes) / n,
       "count/txn"},
      {"core.second_chances_per_txn", cache(&CacheStats::second_chances) / n,
       "count/txn"},
      {"core.invalidations_per_txn", cache(&CacheStats::invalidations) / n,
       "count/txn"},
      {"core.meta_writes_per_txn", cache(&CacheStats::meta_flash_writes) / n,
       "count/txn"},
      {"core.delta_share", Ratio(delta_records, delta_records + flash_writes),
       "fraction"},
      {"core.delta_bytes_per_txn", cache(&CacheStats::delta_record_bytes) / n,
       "B/txn"},
      {"core.hits_per_flash_write",
       Ratio(cache(&CacheStats::hits), flash_writes + delta_records),
       "ratio"},
      {"wal.log_kb_per_txn", d[kLog].pages_written * kb / n, "KB/txn"},
      {"wal.appends_per_txn",
       static_cast<double>(c1.log.records_appended - c0.log.records_appended) /
           n,
       "count/txn"},
      {"wal.append_bytes_per_txn",
       static_cast<double>(c1.log.bytes_appended - c0.log.bytes_appended) / n,
       "B/txn"},
      {"wal.forces_per_txn",
       static_cast<double>(c1.log.flushes - c0.log.flushes) / n, "count/txn"},
      {"engine.rows_read_per_txn",
       static_cast<double>(c1.work.rows_read - c0.work.rows_read) / n,
       "count/txn"},
      {"engine.rows_written_per_txn",
       static_cast<double>(c1.work.rows_written - c0.work.rows_written) / n,
       "count/txn"},
      {"engine.page_refs_per_txn", pool(&BufferPool::Stats::fetches) / n,
       "count/txn"},
      {"engine.updates_per_txn",
       static_cast<double>(c1.txn.updates - c0.txn.updates) / n, "count/txn"},
      {"ckpt.per_vmin", static_cast<double>(checkpoints) * 60e9 / dur,
       "count/vmin"},
      {"bg.db_writes_per_txn",
       static_cast<double>(d[kDb].pages_written - led.fg_pages_written[kDb]) /
           n,
       "pages/txn"},
      {"bg.flash_writes_per_txn",
       static_cast<double>(d[kFlash].pages_written -
                           led.fg_pages_written[kFlash]) /
           n,
       "pages/txn"},
  });

  rep->host = {
      {"host.golden_s", rep->golden_s, "s"},
      {"host.start_s", rep->start_s, "s"},
      {"host.warmup_s", rep->warmup_s, "s"},
      {"host.txn_us", static_cast<double>(led.host_ns) / n / 1e3, "us"},
      {"host.background_us_per_txn",
       (rep->run_host_s * 1e9 - static_cast<double>(led.host_ns)) / n / 1e3,
       "us/txn"},
  };
  updates = {};  // free the samples before the next repetition
  return true;
}

/// Crash mid checkpoint interval (the paper's kill point) and restart,
/// kCrashes times in a row; the restart metrics are means over them. One
/// restart's time depends on which pages happen to be dirty at the kill
/// point and varies by tens of percent from seed to seed; the mean of many
/// is steady, and each costs only milliseconds of host time.
bool CrashAndRestart(Rep* rep, Ops* ops) {
  Testbed* tb = rep->tb.get();
  RestartReport sum;
  double host_s = 0;
  for (int k = 0; k < kCrashes; ++k) {
    // One transaction per Run call, past the next checkpoint and then to
    // the interval's midpoint, so the crash lands within one transaction
    // of that point. (100 TPC-C transactions span more virtual time than a
    // whole checkpoint interval.)
    RunOptions run;
    run.txns = 1;
    run.checkpoint_interval = kCheckpointEvery;
    const SimNanos ckpt0 = tb->last_checkpoint_time();
    Status s;
    while (s.ok() && (tb->last_checkpoint_time() == ckpt0 ||
                      tb->sched()->now() <
                          tb->last_checkpoint_time() + kCheckpointEvery / 2)) {
      s = tb->Run(run).status();
      if (s.ok()) ++rep->incarnations.back();
    }
    if (!ops->Check(s, "crash positioning") ||
        !ops->Check(tb->InjectInflightTransactions(kStranded), "inject") ||
        !ops->Check(tb->Crash(), "crash")) {
      return false;
    }
    const Clock::time_point h0 = Clock::now();
    auto report = tb->Recover();
    host_s += SecondsSince(h0);
    if (!ops->Check(report.status(), "restart")) return false;
    rep->incarnations.push_back(0);
    const RestartReport& r = *report;
    sum.attach_ns += r.attach_ns;
    sum.meta_restore_ns += r.meta_restore_ns;
    sum.analysis_ns += r.analysis_ns;
    sum.redo_ns += r.redo_ns;
    sum.undo_ns += r.undo_ns;
    sum.checkpoint_ns += r.checkpoint_ns;
    sum.total_ns += r.total_ns;
    sum.redo_applied += r.redo_applied;
    sum.pages_fetched += r.pages_fetched;
    sum.pages_from_flash += r.pages_from_flash;
  }
  const double k = kCrashes;
  // Phases as shares of the restart time: which step an optimization must
  // shorten to move restart_s.
  auto share = [&sum](SimNanos ns) {
    return Ratio(static_cast<double>(ns), static_cast<double>(sum.total_ns));
  };
  rep->sim_e2e.push_back({"restart_s", ToSeconds(sum.total_ns) / k, "vs"});
  rep->sim_layer.insert(rep->sim_layer.end(), {
      {"recovery.attach_share", share(sum.attach_ns), "fraction"},
      {"recovery.meta_restore_share", share(sum.meta_restore_ns), "fraction"},
      {"recovery.analysis_share", share(sum.analysis_ns), "fraction"},
      {"recovery.redo_share", share(sum.redo_ns), "fraction"},
      {"recovery.undo_share", share(sum.undo_ns), "fraction"},
      {"recovery.checkpoint_share", share(sum.checkpoint_ns), "fraction"},
      {"recovery.redo_applied", static_cast<double>(sum.redo_applied) / k,
       "count"},
      {"recovery.pages_fetched", static_cast<double>(sum.pages_fetched) / k,
       "count"},
      {"recovery.flash_fetch_pct", 100.0 * sum.FlashFetchFraction(), "%"},
  });
  rep->host.push_back({"host.recover_ms", host_s * 1e3 / k, "ms"});
  return true;
}

void SetTiming(Testbed* tb, bool on) {
  tb->db_dev()->set_timing_enabled(on);
  tb->log_dev()->set_timing_enabled(on);
  if (tb->flash_dev() != nullptr) tb->flash_dev()->set_timing_enabled(on);
}

/// Digest the recovered database, then replay the same committed
/// transactions on a policy-none twin and compare. Returns the mismatch
/// count (0 = the restarts lost and resurrected nothing).
///
/// The twin never crashes with work in flight: it runs each incarnation's
/// transactions, then checkpoints and restarts with nothing to redo or undo.
/// The restart only reseeds the request streams, exactly as each crash did
/// on the measured side.
uint64_t Verify(const Plan& plan, uint64_t seed, Rep* rep, bool corrupt_twin,
                Ops* ops, uint64_t* peak_rss_kb) {
  SetTiming(rep->tb.get(), false);
  auto recovered = TakeDigest(rep->tb->db());
  *peak_rss_kb = PeakRssKb();
  rep->tb.reset();
  if (!ops->Check(recovered.status(), "digest of the recovered database")) {
    return 0;
  }

  TestbedOptions opts = OptionsFor(plan, rep->golden, seed);
  opts.policy = CachePolicy::kNone;
  opts.flash_pages = 0;
  opts.workload = plan.factory();
  Testbed twin(opts, &rep->golden);
  Status s = twin.Start();
  SetTiming(&twin, false);
  for (size_t i = 0; s.ok() && i < rep->incarnations.size(); ++i) {
    RunOptions run;
    run.txns = rep->incarnations[i];
    if (run.txns != 0) s = twin.Run(run).status();
    if (s.ok() && i + 1 < rep->incarnations.size()) {
      s = twin.db()->TakeCheckpoint().status();
      if (s.ok()) s = twin.Crash();
      if (s.ok()) s = twin.Recover().status();
    }
  }
  if (s.ok() && corrupt_twin) s = CorruptOneRow(twin.db());
  if (!ops->Check(s, "twin replay")) return 0;
  auto expected = TakeDigest(twin.db());
  if (!ops->Check(expected.status(), "digest of the twin")) return 0;

  const uint64_t mismatches = CountMismatches(*recovered, *expected);
  for (const DigestObject& o : recovered->objects) {
    if (!o.audit.empty()) {
      fprintf(stderr, "[e2e] B+tree audit of %s after restart: %s\n",
              o.name.c_str(), o.audit.c_str());
    }
  }
  ++ops->attempted;
  if (mismatches != 0) ++ops->failed;
  fprintf(stderr, "[e2e] durability: %llu entries checked, %llu mismatches\n",
          static_cast<unsigned long long>(recovered->entry_count()),
          static_cast<unsigned long long>(mismatches));
  return mismatches;
}

bool SameSim(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value) return false;
  }
  return true;
}

void PrintMetricMap(const Metrics& ms) {
  printf("{");
  for (size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
           ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  printf("}");
}

struct Flags {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 15;
  std::string trace_path;
  bool selftest = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      f.workload = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      f.seed = strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--seconds=", 0) == 0) {
      f.seconds = atof(arg.c_str() + 10);
    } else if (arg.rfind("--trace=", 0) == 0) {
      f.trace_path = arg.substr(8);
    } else if (arg == "--selftest") {
      f.selftest = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      exit(2);
    }
  }
  return f;
}

/// Corrupt one row of the twin of a small crashed run: the durability
/// check must find exactly that row.
int Selftest() {
  const Plan plan = SelftestPlan();
  Ops ops;
  Rep rep;
  if (!SetUp(plan, 7, &rep, &ops) || !Measure(plan, &rep, &ops) ||
      !CrashAndRestart(&rep, &ops)) {
    return 1;
  }
  uint64_t rss = 0;
  const uint64_t mismatches =
      Verify(plan, 7, &rep, /*corrupt_twin=*/true, &ops, &rss);
  const bool ok = mismatches == 1 && ops.failed == 1;
  printf("selftest %s: corrupted twin row -> %llu mismatch(es), %llu of %llu "
         "ops failed (want exactly 1 and 1)\n",
         ok ? "OK" : "FAILED", static_cast<unsigned long long>(mismatches),
         static_cast<unsigned long long>(ops.failed),
         static_cast<unsigned long long>(ops.attempted));
  return ok ? 0 : 1;
}

int Main(const Flags& flags) {
  const std::vector<Plan> plans = Plans();
  const Plan* plan = nullptr;
  for (const Plan& p : plans) {
    if (flags.workload == p.name) plan = &p;
  }
  if (plan == nullptr) {
    fprintf(stderr, "unknown --workload=%s (tpcc, tpcc-hdd, ycsb-b, "
            "ycsb-a-resident)\n", flags.workload.c_str());
    return 2;
  }
  const bool traced = !flags.trace_path.empty();

  Ops ops;
  std::vector<std::unique_ptr<Rep>> reps;
  const Clock::time_point start = Clock::now();
  bool ok = true;
  double traced_window_s = 0;  ///< host time the tracer recorded over
  // Untraced repetitions until the time budget is spent, then (with
  // --trace) one traced repetition.
  for (int untraced = 0; ok; ++untraced) {
    const bool enough =
        untraced >= kMaxReps ||
        (untraced >= kMinReps && SecondsSince(start) >= flags.seconds);
    if (enough && !traced) break;
    const bool trace_this = enough;
    if (!reps.empty()) {  // only the last repetition keeps its database
      reps.back()->tb.reset();
      reps.back()->golden = GoldenImage();
    }
    reps.push_back(std::make_unique<Rep>());
    Rep* rep = reps.back().get();
    ok = SetUp(*plan, flags.seed, rep, &ops);
    if (ok && trace_this) {
      obs::MetricsRegistry::ClearAllThreads();
      obs::Tracer::Instance().Clear();
      obs::SetEnabled(true);
      obs::Tracer::Instance().SetEnabled(true);
    }
    const Clock::time_point window0 = Clock::now();
    ok = ok && Measure(*plan, rep, &ops) && CrashAndRestart(rep, &ops);
    if (trace_this) {
      obs::Tracer::Instance().SetEnabled(false);
      obs::SetEnabled(false);
      traced_window_s = SecondsSince(window0);
    }
    if (ok && reps.size() > 1) {
      // Every repetition simulates the same inputs; the traced one too.
      ++ops.attempted;
      if (!SameSim(rep->sim_e2e, reps.front()->sim_e2e) ||
          !SameSim(rep->sim_layer, reps.front()->sim_layer)) {
        ++ops.failed;
        ok = false;
        fprintf(stderr, "[e2e] repetition %zu%s: simulated metrics differ "
                "from repetition 0\n", reps.size() - 1,
                trace_this ? " (traced)" : "");
      }
    }
    if (trace_this) break;
  }

  uint64_t mismatches = 0, peak_rss_kb = 0;
  double verify_s = 0;
  if (ok) {
    const Clock::time_point v0 = Clock::now();
    mismatches = Verify(*plan, flags.seed, reps.back().get(),
                        /*corrupt_twin=*/false, &ops, &peak_rss_kb);
    verify_s = SecondsSince(v0);
  }

  Metrics e2e, layer;
  if (ok) {
    const size_t n_untraced = reps.size() - (traced ? 1 : 0);
    std::vector<double> rates, traced_rates, setup;
    for (size_t i = 0; i < reps.size(); ++i) {
      auto& dst = i < n_untraced ? rates : traced_rates;
      dst.insert(dst.end(), reps[i]->batch_rates.begin(),
                 reps[i]->batch_rates.end());
      if (i < n_untraced) {
        setup.push_back(reps[i]->golden_s + reps[i]->start_s +
                        reps[i]->warmup_s);
      }
    }
    // All repetitions simulated identically (checked above); take the last
    // so a traced process reports what its traced repetition simulated.
    e2e = reps.back()->sim_e2e;
    // Co-tenants on a shared machine only ever slow a batch down, for
    // seconds at a time, so the upper decile of the batch rates is the
    // steady estimate of how fast this code runs; the median stays in the
    // ledger.
    e2e.push_back({"host_txns_per_s", Quantile(rates, 0.9), "1/s"});
    e2e.push_back({"setup_s", Median(setup), "s"});
    e2e.push_back({"peak_rss_mb", peak_rss_kb / 1024.0, "MB"});

    layer = reps.back()->sim_layer;
    layer.push_back({"host.txns_per_s_median", Median(rates), "1/s"});
    // Host per-layer metrics: medians over the untraced repetitions.
    for (size_t m = 0; m < reps.front()->host.size(); ++m) {
      std::vector<double> v;
      for (size_t i = 0; i < n_untraced; ++i) {
        v.push_back(reps[i]->host[m].value);
      }
      layer.push_back({reps.front()->host[m].name, Median(v),
                       reps.front()->host[m].unit});
    }
    layer.push_back({"host.verify_s", verify_s, "s"});
    fprintf(stderr, "[e2e] %zu untraced repetitions in %.1f host s\n",
            n_untraced, SecondsSince(start));
    if (traced) {
      const obs::Tracer& tracer = obs::Tracer::Instance();
      // Shares of the traced window; the rest of the window is host time
      // outside every span (mostly the engine and the workload driver).
      const auto self = HostSelfNs(tracer.spans());
      for (const char* comp :
           {"sim", "wal", "core.face", "checkpoint", "recovery", "testbed"}) {
        const auto it = self.find(comp);
        layer.push_back(
            {std::string("host.self_share.") + comp,
             it != self.end() ? it->second / (traced_window_s * 1e9) : 0.0,
             "fraction"});
      }
      layer.push_back({"trace.overhead_pct",
                       100.0 * (1.0 - Median(traced_rates) / Median(rates)),
                       "%"});
      layer.push_back({"trace.spans", static_cast<double>(tracer.span_count()),
                       "count"});
      layer.push_back({"trace.dropped", static_cast<double>(tracer.dropped()),
                       "count"});
      const Status s = tracer.WriteChromeTrace(flags.trace_path);
      ops.Check(s, "trace write");
    }
  }

  printf("{\"workload\": \"%s\", \"seed\": %llu, \"attempted\": %llu, "
         "\"failed\": %llu, \"mismatches\": %llu, \"e2e\": ",
         plan->name, static_cast<unsigned long long>(flags.seed),
         static_cast<unsigned long long>(ops.attempted),
         static_cast<unsigned long long>(ops.failed),
         static_cast<unsigned long long>(mismatches));
  PrintMetricMap(e2e);
  printf(", \"layer\": ");
  PrintMetricMap(layer);
  printf("}\n");
  return ops.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace bench
}  // namespace face

int main(int argc, char** argv) {
  const auto flags = face::bench::e2e::ParseFlags(argc, argv);
  if (flags.selftest) return face::bench::e2e::Selftest();
  return face::bench::e2e::Main(flags);
}
