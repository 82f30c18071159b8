// Policy x workload matrix: every cache policy against TPC-C and the YCSB
// mixes (uniform / Zipfian / latest, the resident YCSB-A, and the
// scan-heavy pollutor). Workloads never read virtual time, so each row
// gives every policy the same page references. Reports throughput, flash
// hit rate, and the sequential-request shares that carry the paper's core
// claim (mvFIFO turns random cache-replacement writes into sequential
// ones) — per workload, where an LRU-style policy cannot.
//
//   bench_workloads [--warehouses=N] [--quick] [--txns=N] [--warmup=N]
//                   [--seed=S] [--json] [--shards=N]
//                   [--fault-profile=transient|flash-loss|bit-rot]
//
// --json additionally writes BENCH_workloads.json (schema in
// bench/README.md): the policy x workload matrix as machine-readable rows
// with throughput, simulated makespan, device utilization, and host
// wall-clock per cell. CI archives it per run.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/flash_layout.h"
#include "fault/fault_injector.h"
#include "testbed/sharded_testbed.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace bench {
namespace {

using workload::WorkloadFactory;
using workload::YcsbFactory;
using workload::YcsbOptions;

constexpr CachePolicy kPolicies[] = {
    CachePolicy::kNone,    CachePolicy::kFace, CachePolicy::kFaceGR,
    CachePolicy::kFaceGSC, CachePolicy::kLc,
};

/// A matrix cell's printed row.
TableRow MatrixRow(CachePolicy policy, const RunResult& r) {
  auto seq_pct = [](const DeviceStats& s) {
    return Fmt("%.1f", Pct(s.seq_write_reqs, s.write_reqs));
  };
  return {CachePolicyName(policy),
          {Fmt("%.0f", r.Tpm()),
           Fmt("%.1f", Pct(r.cache_stats.hits, r.cache_stats.lookups)),
           seq_pct(r.flash_stats), seq_pct(r.db_stats), seq_pct(r.log_stats)}};
}

void PrintWorkloadTable(const std::string& workload_name,
                        const std::vector<TableRow>& cells) {
  printf("\nworkload: %s\n", workload_name.c_str());
  PrintTable("policy", {"tpm", "hit%", "fseqW%", "dbseqW%", "logseqW%"},
             cells);
}

/// One workload of the matrix: a cell per policy (rows named `name`, flash
/// cache = the database / `flash_divisor`), then its table under `title`.
/// Returns the table's rows.
std::vector<TableRow> RunWorkload(
    const std::string& name, const std::string& title,
    const GoldenImage& golden, std::shared_ptr<const WorkloadFactory> factory,
    const BenchFlags& flags, uint64_t warmup, uint64_t txns,
    JsonReporter* json, uint64_t flash_divisor = 10) {
  std::vector<TableRow> cells;
  for (CachePolicy policy : kPolicies) {
    TestbedOptions opts;
    opts.policy = policy;
    opts.flash_pages = golden.db_pages() / flash_divisor;
    opts.seed = flags.seed;
    opts.workload = factory;
    Testbed tb(opts, &golden);
    const RunResult r = MeasureCell(&tb, warmup, txns, kCheckpointEvery, json,
                                    name, CachePolicyName(policy));
    if (json != nullptr) json->EndRow();
    cells.push_back(MatrixRow(policy, r));
  }
  PrintWorkloadTable(title, cells);
  return cells;
}

/// --shards=N section: the Zipfian YCSB cell on the sharded rig, every
/// policy, same total workload partitioned N ways. Rows are labelled
/// "ycsb-zipfian-xN" so they never collide with the unsharded matrix.
void RunShardedSection(const BenchFlags& flags, uint64_t warmup,
                       uint64_t txns, JsonReporter* json) {
  YcsbOptions yo;
  yo.records = 40000;
  yo.distribution = YcsbOptions::Distribution::kZipfian;
  const std::string name = "ycsb-zipfian-x" + std::to_string(flags.shards);

  std::vector<TableRow> cells;
  for (CachePolicy policy : kPolicies) {
    ShardedTestbedOptions so;
    so.shards = flags.shards;
    so.base.policy = policy;
    so.base.seed = flags.seed;
    so.factory = std::make_shared<YcsbFactory>(yo);
    so.flash_ratio = 0.1;  // the matrix's "10% of each database", per shard
    const RunResult r = MeasureShardedCell(so, warmup, txns, json, name,
                                           CachePolicyName(policy));
    if (json != nullptr) json->EndRow();
    cells.push_back(MatrixRow(policy, r));
  }
  PrintWorkloadTable(name, cells);
}

/// Resolve a --fault-profile preset name. `bit_rot` selects the planted
/// bit-rot + scrubber scenario (no transient faults armed).
bool MakeFaultProfile(const std::string& name, uint64_t seed,
                      TransientFaultProfile* out, bool* bit_rot) {
  *bit_rot = false;
  TransientFaultProfile p;
  p.seed = seed;
  if (name == "transient") {
    // Flaky but recovering: bursts of 2 consecutive failures stay inside
    // the 4-attempt retry budget, plus occasional 8x latency spikes.
    p.read_fail_permille = 8;
    p.write_fail_permille = 8;
    p.sticky_failures = 1;
    p.latency_spike_permille = 20;
    *out = p;
    return true;
  }
  if (name == "flash-loss") {
    // A sticky window longer than the retry budget: the first fault is
    // fatal, the supervisor degrades to disk-only mid-run, and the tail of
    // the run is served without flash.
    p.read_fail_permille = 25;
    p.write_fail_permille = 25;
    p.sticky_failures = 8;
    *out = p;
    return true;
  }
  if (name == "bit-rot") {
    *out = p;  // nothing armed; rot is planted directly in flash frames
    *bit_rot = true;
    return true;
  }
  return false;
}

/// --fault-profile=<name> section: the Zipfian YCSB cell with the flash
/// device under a named fault preset, armed after warmup so admission is
/// clean. Rows are labelled "ycsb-zipfian@<name>" and carry the fault
/// telemetry: degraded-window throughput, retry/backoff totals, and scrub
/// repairs. bit-rot runs FaCE only — the rot is planted through the FaCE
/// frame layout; the other presets run every degradable policy.
void RunFaultSection(const BenchFlags& flags, const GoldenImage& golden,
                     std::shared_ptr<const WorkloadFactory> factory,
                     uint64_t warmup, uint64_t txns, JsonReporter* json) {
  TransientFaultProfile profile;
  bool bit_rot = false;
  if (!MakeFaultProfile(flags.fault_profile, flags.seed, &profile,
                        &bit_rot)) {
    fprintf(stderr,
            "unknown --fault-profile=%s (presets: transient, flash-loss, "
            "bit-rot)\n",
            flags.fault_profile.c_str());
    exit(2);
  }
  const std::string name = "ycsb-zipfian@" + flags.fault_profile;
  std::vector<CachePolicy> policies;
  if (bit_rot) {
    policies = {CachePolicy::kFace};
  } else {
    policies = {CachePolicy::kFace, CachePolicy::kLc};
  }

  std::vector<TableRow> rows;
  for (const CachePolicy policy : policies) {
    TestbedOptions opts;
    opts.policy = policy;
    opts.flash_pages = golden.db_pages() / 10;
    opts.seed = flags.seed;
    opts.workload = factory;
    if (bit_rot) {
      // Fixed segment geometry so the bench and FlashLayout::Compute agree
      // on frame addresses, and a virtual-time background scrubber.
      opts.seg_entries = 256;
      opts.scrub_interval = 5 * kNanosPerMilli;
    }
    FaultInjector inj;
    ScrubResult planted;  // the repair sweep over freshly planted rot
    Testbed tb(opts, &golden);
    auto arm = [&] {
      if (!bit_rot) {
        tb.flash_dev()->set_fault_injector(&inj);
        inj.ArmTransient("flash", profile);
        return;
      }
      const FlashLayout lay =
          FlashLayout::Compute(opts.flash_pages, opts.seg_entries);
      for (uint64_t i = 0; i < lay.n_frames; i += 7) {
        OrDie(FaultInjector::FlipBitsInBlock(tb.flash_dev(), lay.FrameBlock(i),
                                             3, 0xB17D0 + i),
              "plant rot");
      }
      // Full repair pass before traffic resumes, so a rotten frame is never
      // served; the background scrubber keeps walking during the run.
      planted = OrDie(tb.ScrubPass(lay.n_frames), "scrub pass");
    };
    const RunResult r = MeasureCell(&tb, warmup, txns, kCheckpointEvery, json,
                                    name, CachePolicyName(policy), arm);

    const FaultTelemetry& f = r.fault;
    const uint64_t scrub_scanned =
        f.scrub_frames_scanned + planted.frames_scanned;
    const uint64_t scrub_repaired =
        f.scrub_clean_repaired + planted.clean_repaired;
    const uint64_t scrub_lost = f.scrub_lost_dirty + planted.lost_dirty.size();
    const double degraded_tpm =
        f.degraded_ns ? static_cast<double>(f.degraded_txns) * 60e9 /
                            static_cast<double>(f.degraded_ns)
                      : 0.0;
    if (json != nullptr) {
      json->Field("fault_profile", flags.fault_profile);
      json->Field("degradations", f.degradations);
      json->Field("degraded_txns", f.degraded_txns);
      json->Field("degraded_ns", static_cast<uint64_t>(f.degraded_ns));
      json->Field("degraded_tpm", degraded_tpm);
      json->Field("flash_retries", r.flash_stats.retries);
      json->Field("flash_backoff_ns",
                  static_cast<uint64_t>(r.flash_stats.backoff_ns));
      json->Field("scrub_frames_scanned", scrub_scanned);
      json->Field("scrub_clean_repaired", scrub_repaired);
      json->Field("scrub_lost_dirty", scrub_lost);
      json->EndRow();
    }
    rows.push_back(
        {CachePolicyName(policy),
         {Fmt("%.0f", r.Tpm()),
          Fmt("%.0f", static_cast<double>(f.degradations)),
          Fmt("%.0f", degraded_tpm),
          Fmt("%.0f", static_cast<double>(r.flash_stats.retries)),
          Fmt("%.0f", static_cast<double>(scrub_repaired + scrub_lost))}});
  }
  printf("\nworkload: %s\n", name.c_str());
  PrintTable("policy", {"tpm", "deg", "dtpm", "retries", "scrubRep"}, rows);
}

/// Chrome-trace showcase: a crash + ARIES restart on the Zipfian/FaCE+GSC
/// cell, so the emitted Chrome trace carries every recovery phase span
/// (attach / meta_restore / analysis / redo / undo / checkpoint) alongside
/// the steady-state matrix. Only runs when --trace is set — the matrix
/// itself never crashes anything.
void RunRecoveryShowcase(const BenchFlags& flags, const GoldenImage& golden,
                         std::shared_ptr<const WorkloadFactory> factory,
                         uint64_t txns) {
  TestbedOptions opts;
  opts.policy = CachePolicy::kFaceGSC;
  opts.flash_pages = golden.db_pages() / 10;
  opts.seed = flags.seed;
  opts.workload = std::move(factory);
  Testbed tb(opts, &golden);
  OrDie(tb.Start(), "showcase start");
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = kCheckpointEvery;
  OrDie(tb.Run(run).status(), "showcase run");
  OrDie(tb.InjectInflightTransactions(5), "showcase inject");
  OrDie(tb.Crash(), "showcase crash");
  const RestartReport report = OrDie(tb.Recover(), "showcase recover");
  fprintf(stderr, "[obs] recovery showcase: %s\n", report.ToString().c_str());
}

void RunMatrix(const BenchFlags& flags) {
  const uint64_t warmup = flags.WarmupOr(4000);
  const uint64_t txns = flags.TxnsOr(6000);
  JsonReporter json_reporter("workloads", flags);
  JsonReporter* json = flags.json ? &json_reporter : nullptr;

  PrintHeader(
      "Policy x workload matrix: throughput, flash hit rate, and "
      "sequential-request shares");
  printf("flash cache = 10%% of each database; checkpoints every %.0fs "
         "virtual\n", ToSeconds(kCheckpointEvery));

  // TPC-C (the paper's workload).
  RunWorkload("tpcc", "tpcc", GetGolden(flags), /*factory=*/nullptr, flags,
              warmup, txns, json);

  // The KV rows are YCSB mixes over one 40,000-row table, so they share one
  // golden image (every cell runs on its own clone).
  auto mix = [](YcsbOptions yo) {
    yo.records = 40000;
    return std::make_shared<YcsbFactory>(yo);
  };
  const GoldenImage kv_golden = BuildGolden(mix(YcsbOptions()));

  std::shared_ptr<const WorkloadFactory> zipf_factory;
  for (const YcsbOptions::Distribution dist :
       {YcsbOptions::Distribution::kUniform,
        YcsbOptions::Distribution::kZipfian,
        YcsbOptions::Distribution::kLatest}) {
    auto factory = mix(YcsbOptions::WithDistribution(dist));
    RunWorkload(factory->name(), factory->name(), kv_golden, factory, flags,
                warmup, txns, json);
    if (dist == YcsbOptions::Distribution::kZipfian) zipf_factory = factory;
  }

  // YCSB-A with a flash cache sized to the whole database ("resident"):
  // once warmup admits the working set, steady-state flash writes are pure
  // refreshes of already-cached pages. The 10%-flash cells above are
  // admission-dominated (the Zipfian tail churns through a small cache),
  // which masks the refresh path this cell isolates.
  RunWorkload("ycsb-a-resident", "ycsb-a-resident", kv_golden,
              mix(YcsbOptions::A()), flags, warmup, txns, json,
              /*flash_divisor=*/1);

  // Scan-heavy: long range scans, the FIFO-pollution stressor. Scans touch
  // hundreds of rows per txn: scale counts down to keep the cell cost
  // comparable.
  const std::vector<TableRow> scan_cells =
      RunWorkload("scan-heavy", "scan-heavy", kv_golden,
                  mix(YcsbOptions::LongScans()), flags, warmup / 10 + 1,
                  txns / 10 + 1, json);

  // Sharded execution: opt-in rows (the default matrix above is untouched,
  // so existing baselines stay byte-identical without the flag).
  if (flags.shards > 1) {
    RunShardedSection(flags, warmup, txns, json);
  }

  // Fault-tolerance rows: opt-in like the sharded section, so the default
  // matrix and its JSON baselines stay byte-identical without the flag.
  if (!flags.fault_profile.empty()) {
    RunFaultSection(flags, kv_golden, zipf_factory, warmup, txns, json);
  }

  if (!flags.trace_path.empty()) {
    RunRecoveryShowcase(flags, kv_golden, zipf_factory,
                        std::min<uint64_t>(txns, 500));
  }
  FinalizeObs(flags, json);
  if (json != nullptr && !json->WriteFile()) {
    fprintf(stderr, "failed to write BENCH_workloads.json\n");
    exit(1);
  }

  printf("\npaper shape: fseqW%% is the share of flash write requests that "
         "continue the\nlast one. FaCE's mvFIFO enqueues are one-page "
         "appends, so it reads near 100;\nFaCE+GR and FaCE+GSC write a "
         "whole group per request, so their fewer requests\nread lower. "
         "LC's LRU-2 overwrites frames in place, which reads random once "
         "its\nframes are full; a run too short to fill them (CI's smoke "
         "flags) takes free\nframes in block order and reads near 100.\n"
         "Scan-heavy flash hit rates:");
  const char* sep = " ";
  for (const TableRow& row : scan_cells) {
    printf("%s%s %s%%", sep, row.label.c_str(), row.cells[1].c_str());
    sep = ", ";
  }
  printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace face

int main(int argc, char** argv) {
  face::bench::RunMatrix(face::bench::ParseFlags(argc, argv));
  return 0;
}
