// Shared scaffolding for the bench drivers (bench_paper's presets and
// bench_workloads): flag parsing, golden-image builds (one TPC-C image
// shared process-wide), the measured cell (plain and sharded), the paper's
// crash-at-mid-interval protocol, fixed-width table printing, and the
// BENCH_*.json reporter. bench/README.md lists the flags every driver
// accepts.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "testbed/sharded_testbed.h"
#include "testbed/testbed.h"
#include "workload/tpcc_workload.h"

namespace face {
namespace bench {

/// Parsed common flags.
struct BenchFlags {
  uint32_t warehouses = 1;
  bool quick = false;
  bool json = false;         ///< write BENCH_<bench>.json
  uint64_t warmup_txns = 0;  ///< 0 = per-bench default
  uint64_t txns = 0;         ///< 0 = per-bench default
  uint64_t seed = 42;        ///< workload request-stream seed
  bool stats_json = false;   ///< embed an "obs" metrics block in the JSON
  std::string trace_path;    ///< Chrome trace output ("" = tracing off)
  uint32_t shards = 1;       ///< sharded execution (bench_workloads only)
  std::string fault_profile; ///< named transient-fault preset ("" = off)

  uint64_t WarmupOr(uint64_t dflt) const {
    if (warmup_txns != 0) return warmup_txns;
    return quick ? dflt / 4 : dflt;
  }
  uint64_t TxnsOr(uint64_t dflt) const {
    if (txns != 0) return txns;
    return quick ? dflt / 4 : dflt;
  }
};

/// The value of `--name=<digits>` in [lo, hi]. Anything else — a sign, a
/// non-digit, no digits, or a value out of range — names the flag and
/// exits 2.
inline uint64_t ParseNumber(const std::string& arg, uint64_t lo = 0,
                            uint64_t hi = UINT64_MAX) {
  const char* v = arg.c_str() + arg.find('=') + 1;
  char* end = nullptr;
  errno = 0;
  const uint64_t n = strtoull(v, &end, 10);
  if (!isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
      errno == ERANGE || n < lo || n > hi) {
    fprintf(stderr, "bad value: %s (want an integer in [%" PRIu64 ", %" PRIu64
                    "])\n", arg.c_str(), lo, hi);
    exit(2);
  }
  return n;
}

/// Parse the common flags. Arguments that are not flags go to `positional`
/// (bench_paper's preset names); without it they are rejected like an
/// unknown flag.
inline BenchFlags ParseFlags(int argc, char** argv,
                             std::vector<std::string>* positional = nullptr) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--json") {
      flags.json = true;
    } else if (arg.rfind("--warehouses=", 0) == 0) {
      flags.warehouses =
          static_cast<uint32_t>(ParseNumber(arg, 1, UINT32_MAX));
    } else if (arg.rfind("--warmup=", 0) == 0) {
      flags.warmup_txns = ParseNumber(arg);
    } else if (arg.rfind("--txns=", 0) == 0) {
      flags.txns = ParseNumber(arg);
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = ParseNumber(arg);
    } else if (arg == "--stats-json") {
      flags.stats_json = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      flags.trace_path = arg.substr(8);
    } else if (arg.rfind("--shards=", 0) == 0) {
      flags.shards = static_cast<uint32_t>(ParseNumber(arg, 0, UINT32_MAX));
      if (flags.shards == 0) flags.shards = 1;
    } else if (arg.rfind("--fault-profile=", 0) == 0) {
      flags.fault_profile = arg.substr(16);
    } else if (positional != nullptr && arg.rfind("--", 0) != 0) {
      positional->push_back(arg);
    } else {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      exit(2);
    }
  }
  if (flags.stats_json || !flags.trace_path.empty()) {
    if (!FACE_OBS_ENABLED) {
      fprintf(stderr,
              "[obs] warning: built with FACE_OBS=OFF; --stats-json/--trace "
              "produce empty output\n");
    }
    obs::SetEnabled(true);
    if (!flags.trace_path.empty()) obs::Tracer::Instance().SetEnabled(true);
  }
  return flags;
}

/// Exit with `what` and the error unless `s` is OK: benches have no
/// meaningful degraded mode.
inline void OrDie(const Status& s, const char* what) {
  if (s.ok()) return;
  fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
  exit(1);
}

template <typename T>
T OrDie(StatusOr<T> result, const char* what) {
  OrDie(result.status(), what);
  return std::move(result.value());
}

/// Build the golden image of any workload factory. Exits on failure —
/// benches have no meaningful degraded mode.
inline GoldenImage BuildGolden(
    std::shared_ptr<const workload::WorkloadFactory> factory) {
  fprintf(stderr, "[golden] loading %s...\n", factory->name());
  GoldenImage built =
      OrDie(GoldenImage::BuildFor(std::move(factory)), "golden build");
  fprintf(stderr, "[golden] built: %" PRIu64 " pages (%.1f MB)\n",
          built.db_pages(), built.db_pages() * 4.0 / 1024);
  return built;
}

/// The golden TPC-C image for `warehouses`, built once and shared
/// process-wide. Exits on failure.
inline const GoldenImage& GetGolden(const BenchFlags& flags) {
  static GoldenImage golden;
  static bool built = false;
  if (built) return golden;

  golden = BuildGolden(
      std::make_shared<workload::TpccFactory>(flags.warehouses));
  golden.warehouses = flags.warehouses;
  built = true;
  return golden;
}

/// Database checkpoint cadence during measured steady-state runs. The
/// paper's PostgreSQL checkpointed continuously during its hours-long
/// runs; checkpoint handling is a first-order cost difference between the
/// policies (FaCE absorbs checkpoints into flash, LC must flush its
/// flash-dirty pages to disk, §2.3). Scaled like Table 6's intervals
/// (bench_paper.cc).
inline constexpr SimNanos kCheckpointEvery = 3 * kNanosPerSecond;

/// Flash cache capacity for "X % of the database" (the paper's x axis).
inline uint64_t CachePagesForRatio(const GoldenImage& golden, double ratio) {
  return static_cast<uint64_t>(static_cast<double>(golden.db_pages()) *
                               ratio);
}

/// `part` as a percentage of `whole` (0 for an empty whole).
inline double Pct(uint64_t part, uint64_t whole) {
  return whole != 0 ? 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole)
                    : 0.0;
}

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline void PrintHeader(const std::string& title) {
  printf("\n=== %s ===\n", title.c_str());
}

/// One table row, and the paper's reference for it ("" = none).
struct TableRow {
  std::string label;
  std::vector<std::string> cells;
  std::string paper = {};
};

/// Print a fixed-width table: `corner` heads the label column, left-aligned
/// 14 wide or wider to fit the longest label; the cells are right-aligned 10
/// wide; each reference is printed under its row.
inline void PrintTable(const std::string& corner,
                       const std::vector<std::string>& cols,
                       const std::vector<TableRow>& rows) {
  int width = 14;
  for (const TableRow& row : rows) {
    width = std::max(width, static_cast<int>(row.label.size()) + 1);
  }
  auto print_row = [width](const std::string& head,
                           const std::vector<std::string>& cells) {
    printf("%-*s", width, head.c_str());
    for (const std::string& c : cells) printf(" %10s", c.c_str());
    printf("\n");
  };
  print_row(corner, cols);
  for (const TableRow& row : rows) {
    print_row(row.label, row.cells);
    if (!row.paper.empty()) printf("  paper: %s\n", row.paper.c_str());
  }
}

/// Accumulates one flat JSON document per bench run and writes it to
/// BENCH_<bench>.json: a `flags` object plus a `rows` array of
/// (workload x policy) measurement objects. CI uploads the file as an
/// artifact, so the perf trajectory of the reproduction is queryable
/// across commits. Schema in bench/README.md.
class JsonReporter {
 public:
  /// JSON string escaping per RFC 8259: quotes, backslashes, and control
  /// characters. Everything the reporter splices as a string value goes
  /// through here, so an arbitrary workload/policy/device label cannot
  /// produce an invalid document.
  static std::string Escape(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            snprintf(buf, sizeof(buf), "\\u%04x",
                     static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  JsonReporter(std::string bench, const BenchFlags& flags)
      : bench_(std::move(bench)) {
    body_ += "{\n  \"bench\": \"" + Escape(bench_) + "\",\n";
    body_ += "  \"flags\": {";
    body_ += "\"warehouses\": " + std::to_string(flags.warehouses);
    body_ += ", \"warmup\": " + std::to_string(flags.warmup_txns);
    body_ += ", \"txns\": " + std::to_string(flags.txns);
    body_ += ", \"seed\": " + std::to_string(flags.seed);
    body_ += ", \"quick\": ";
    body_ += flags.quick ? "true" : "false";
    // Only sharded runs record the shard count: default artifacts stay
    // byte-identical with baselines captured before the flag existed.
    if (flags.shards > 1) {
      body_ += ", \"shards\": " + std::to_string(flags.shards);
    }
    // Same rule for the fault preset: absent unless the flag is set.
    if (!flags.fault_profile.empty()) {
      body_ += ", \"fault_profile\": \"" + Escape(flags.fault_profile) + "\"";
    }
    body_ += "},\n  \"rows\": [";
  }

  /// Start a measurement row; follow with Field() calls.
  void BeginRow(const std::string& workload, const std::string& policy) {
    body_ += first_row_ ? "\n" : ",\n";
    first_row_ = false;
    body_ += "    {\"workload\": \"" + Escape(workload) +
             "\", \"policy\": \"" + Escape(policy) + "\"";
  }

  void Field(const char* key, uint64_t v) {
    body_ += ", \"" + std::string(key) + "\": " + std::to_string(v);
  }

  void Field(const char* key, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.10g", v);
    body_ += ", \"" + std::string(key) + "\": " + buf;
  }

  void Field(const char* key, const std::string& v) {
    body_ += ", \"" + std::string(key) + "\": \"" + Escape(v) + "\"";
  }

  /// Add the standard per-run metrics of one measured cell.
  void AddRunRow(const std::string& workload, const std::string& policy,
                 const RunResult& r, double wall_clock_sec) {
    BeginRow(workload, policy);
    Field("txns", r.txns);
    Field("primary_txns", r.primary_txns);
    Field("tpm", r.Tpm());
    Field("tpmc", r.TpmC());
    Field("txns_per_sec",
          r.duration ? static_cast<double>(r.txns) * 1e9 /
                           static_cast<double>(r.duration)
                     : 0.0);
    Field("makespan_ns", static_cast<uint64_t>(r.duration));
    Field("checkpoints", r.checkpoints);
    Field("hit_pct", 100.0 * r.cache_stats.HitRate());
    Field("db_utilization", r.db_utilization);
    Field("flash_utilization", r.flash_utilization);
    Field("flash_seq_write_pct",
          Pct(r.flash_stats.seq_write_reqs, r.flash_stats.write_reqs));
    Field("db_seq_write_pct",
          Pct(r.db_stats.seq_write_reqs, r.db_stats.write_reqs));
    // Flash write volume and the page-differential breakdown: how many
    // refreshes traveled as packed delta records instead of full 4 KB
    // frames, and what the device actually saw.
    Field("flash_pages_written", r.flash_stats.pages_written);
    Field("flash_bytes_written", r.flash_stats.pages_written * kPageSize);
    Field("delta_records", r.cache_stats.delta_records);
    Field("delta_record_bytes", r.cache_stats.delta_record_bytes);
    Field("delta_block_writes", r.cache_stats.delta_block_writes);
    Field("delta_consolidations", r.cache_stats.delta_consolidations);
    Field("delta_vs_full_ratio",
          r.cache_stats.delta_records + r.cache_stats.flash_writes
              ? static_cast<double>(r.cache_stats.delta_records) /
                    static_cast<double>(r.cache_stats.delta_records +
                                        r.cache_stats.flash_writes)
              : 0.0);
    Field("wall_clock_sec", wall_clock_sec);
  }

  /// Close the current row. (Kept explicit so callers may append extra
  /// fields after AddRunRow.)
  void EndRow() { body_ += "}"; }

  /// Raw-JSON field: `raw` is spliced into the row verbatim (for arrays /
  /// nested objects the typed Field overloads cannot express).
  void FieldRaw(const char* key, const std::string& raw) {
    body_ += ", \"" + std::string(key) + "\": " + raw;
  }

  /// Append a top-level block after "rows": `raw_json` must be one valid
  /// JSON value. Comparison tooling (bench/diff_trajectory.py) only reads
  /// "rows" and "flags", so extra blocks never affect trajectory diffs.
  void AddTopLevelBlock(const char* key, const std::string& raw_json) {
    extra_ += ",\n  \"" + std::string(key) + "\": " + raw_json;
  }

  /// Write BENCH_<bench>.json to the working directory; false on I/O error.
  bool WriteFile() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    FILE* f = fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::string doc = body_ + "\n  ]" + extra_ + "\n}\n";
    const bool ok = fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (fclose(f) != 0 || !ok) return false;
    fprintf(stderr, "[json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string body_;
  std::string extra_;
  bool first_row_ = true;
};

/// End-of-run observability output: embed the metrics snapshot as the
/// "obs" block (--stats-json) and write the Chrome trace (--trace=<file>).
/// Call once, after the measured work and before json->WriteFile().
inline void FinalizeObs(const BenchFlags& flags, JsonReporter* json) {
  if (flags.stats_json && json != nullptr) {
    // Merged across threads so sharded cells contribute their workers'
    // registries; identical to the plain snapshot when single-threaded.
    json->AddTopLevelBlock("obs", obs::MetricsRegistry::MergedToJson());
  }
  if (!flags.trace_path.empty()) {
    const Status s =
        obs::Tracer::Instance().WriteChromeTrace(flags.trace_path);
    if (s.ok()) {
      fprintf(stderr, "[obs] wrote %s (%zu spans, %zu dropped)\n",
              flags.trace_path.c_str(), obs::Tracer::Instance().span_count(),
              obs::Tracer::Instance().dropped());
    } else {
      fprintf(stderr, "[obs] trace write failed: %s\n",
              s.ToString().c_str());
    }
  }
}

/// Monotonic wall-clock seconds since `since` (host time, not simulated).
using WallClock = std::chrono::steady_clock;
inline double WallSecondsSince(WallClock::time_point since) {
  return std::chrono::duration<double>(WallClock::now() - since).count();
}

/// The measured cell: Start the testbed (a Testbed or a ShardedTestbed),
/// warm it up, run `after_warmup` if given, then run `txns` transactions
/// with a checkpoint every `checkpoint_interval` (0 = none). With `json`,
/// opens the cell's run row for (workload, policy); the caller adds its own
/// fields and closes it (EndRow). Exits on failure.
template <typename Bed>
RunResult MeasureCell(Bed* tb, uint64_t warmup, uint64_t txns,
                      SimNanos checkpoint_interval, JsonReporter* json,
                      const std::string& workload, const std::string& policy,
                      const std::function<void()>& after_warmup = {}) {
  const WallClock::time_point start = WallClock::now();
  OrDie(tb->Start(), "testbed start");
  OrDie(tb->Warmup(warmup), "warmup");
  if (after_warmup) after_warmup();
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = checkpoint_interval;
  RunResult r = OrDie(tb->Run(run), "measured run");
  if (json != nullptr) {
    json->AddRunRow(workload, policy, r, WallSecondsSince(start));
  }
  return r;
}

/// The measured cell on a sharded rig: the same total workload split
/// `so.shards` ways, each shard warming up and running its share (at least
/// one transaction), with checkpoints every kCheckpointEvery. The open row
/// also carries "shards".
inline RunResult MeasureShardedCell(const ShardedTestbedOptions& so,
                                    uint64_t warmup, uint64_t txns,
                                    JsonReporter* json,
                                    const std::string& workload,
                                    const std::string& policy) {
  ShardedTestbed stb(so);
  RunResult r = MeasureCell(&stb, std::max<uint64_t>(1, warmup / so.shards),
                            std::max<uint64_t>(1, txns / so.shards),
                            kCheckpointEvery, json, workload, policy);
  if (json != nullptr) json->Field("shards", uint64_t{so.shards});
  return r;
}

/// The paper's restart protocol (§5.5): Start, warm up, run to the middle
/// of a checkpoint interval after `checkpoints` checkpoints
/// (Testbed::RunToMidInterval) — the kill point. Crash there with 50
/// in-flight transactions (the paper's 50 backends) and restart.
/// `crash_time` (optional) receives the makespan at the kill. Exits on
/// failure.
inline RestartReport CrashAtMidInterval(Testbed* tb, uint64_t warmup,
                                        SimNanos interval,
                                        uint64_t checkpoints,
                                        SimNanos* crash_time = nullptr) {
  OrDie(tb->Start(), "start");
  OrDie(tb->Warmup(warmup), "warmup");
  OrDie(tb->RunToMidInterval(interval, checkpoints), "run");
  if (crash_time != nullptr) *crash_time = tb->sched()->makespan();
  OrDie(tb->InjectInflightTransactions(50), "inject");
  OrDie(tb->Crash(), "crash");
  return OrDie(tb->Recover(), "recover");
}

}  // namespace bench
}  // namespace face
