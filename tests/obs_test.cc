// The observability subsystem (src/obs): registry/tracer unit coverage and
// the perturbation-freedom guard — one timing-guard cell re-measured with
// metrics AND tracing fully enabled must reproduce the committed golden
// fingerprint bit-for-bit. Instrumentation reads the virtual clock; it must
// never advance it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/restart.h"
#include "testbed/testbed.h"
#include "tests/test_util.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

/// Every test in this binary toggles the process-wide obs switches; scope
/// them so one test's state never leaks into the next.
struct ObsGuard {
  ObsGuard() {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Instance().Clear();
    obs::Tracer::Instance().Clear();
    obs::Tracer::Instance().SetEnabled(true);
  }
  ~ObsGuard() {
    obs::Tracer::Instance().SetEnabled(false);
    obs::Tracer::Instance().Clear();
    obs::MetricsRegistry::Instance().Clear();
    obs::SetEnabled(false);
  }
};

#if FACE_OBS_ENABLED

TEST(MetricsRegistryTest, HandlesAreStableAcrossClear) {
  ObsGuard guard;
  auto& reg = obs::MetricsRegistry::Instance();
  obs::Counter* c = reg.GetCounter("test.counter");
  obs::Hist* h = reg.GetHistogram("test.hist");
  obs::Gauge* g = reg.GetGauge("test.gauge");
  c->Add(3);
  h->Add(100);
  g->Set(-7);
  EXPECT_EQ(c->value, 3u);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(g->value, -7);

  // Find-or-create returns the same pointer for the same name.
  EXPECT_EQ(reg.GetCounter("test.counter"), c);
  EXPECT_EQ(reg.GetHistogram("test.hist"), h);
  EXPECT_EQ(reg.GetGauge("test.gauge"), g);

  // Clear zeroes values but keeps every handle valid.
  reg.Clear();
  EXPECT_EQ(c->value, 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(g->value, 0);
  c->Increment();
  EXPECT_EQ(reg.GetCounter("test.counter")->value, 1u);
}

TEST(MetricsRegistryTest, JsonSnapshotOmitsZeroes) {
  ObsGuard guard;
  auto& reg = obs::MetricsRegistry::Instance();
  reg.GetCounter("test.zero");  // registered but never incremented
  reg.GetCounter("test.hits")->Add(12);
  reg.GetHistogram("test.lat_ns")->Add(4096);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.hits\": 12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.lat_ns\""), std::string::npos) << json;
  EXPECT_EQ(json.find("test.zero"), std::string::npos) << json;
}

TEST(TracerTest, RecordsAndExportsSpans) {
  ObsGuard guard;
  auto& tracer = obs::Tracer::Instance();
  {
    obs::ScopedSpan outer("unit", "outer");
    obs::ScopedSpan inner("unit", tracer.Intern(std::string("in") + "ner"));
  }
  obs::ScopedSpan disabled("unit", "skipped", /*enabled=*/false);
  disabled.End();
  ASSERT_EQ(tracer.span_count(), 2u);

  const std::string path = "obs_test_trace.json";
  FACE_ASSERT_OK(tracer.WriteChromeTrace(path));
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const size_t n = fread(buf, 1, sizeof(buf) - 1, f);
  fclose(f);
  std::remove(path.c_str());
  buf[n] = '\0';
  const std::string trace(buf);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":", 0), 0u) << trace;
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"name\": \"inner\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"cat\": \"unit\""), std::string::npos) << trace;
  EXPECT_EQ(trace.find("skipped"), std::string::npos);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  ObsGuard guard;
  obs::Tracer::Instance().SetEnabled(false);
  { obs::ScopedSpan span("unit", "invisible"); }
  EXPECT_EQ(obs::Tracer::Instance().span_count(), 0u);
}

class ReadAheadObsTest : public TimedEngineFixture {};

TEST_F(ReadAheadObsTest, BatchesAndLaneLatenciesAreRecorded) {
  // Restart redo over 200 on-disk pages: two read-ahead windows of half
  // the 256-frame pool. Each window is one recovery/readahead span and
  // bumps the readahead_* counters; every batched miss records its own
  // lane's latency — nonzero, even though the recovery token's clock only
  // moves when the batch ends.
  ObsGuard guard;
  Init();
  const std::vector<PageId> pages = NewPages(200);
  CommitToEach(pages, "observe");
  FACE_ASSERT_OK(db_->pool()->FlushAllToDisk());
  Crash();
  obs::SetVirtualClock(&sched_);
  auto& reg = obs::MetricsRegistry::Instance();
  reg.Clear();
  obs::Tracer::Instance().Clear();

  // The restart alone: Database::Recover's catalog load afterwards is a
  // miss outside any span.
  BuildStack(/*buffer_frames=*/256);
  RestartManager restart(log_.get(), db_->pool(), db_->txns(), storage_.get(),
                         cache_.get(), &sched_, recovery_token_);
  auto report = restart.Run();
  obs::SetVirtualClock(nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->readahead_batches, 2u);
  EXPECT_EQ(reg.GetCounter("recovery.readahead_batches")->value, 2u);
  EXPECT_EQ(reg.GetCounter("recovery.readahead_pages")->value, 200u);
  const obs::Hist* miss = reg.GetHistogram("buffer.miss_fetch_ns");
  EXPECT_EQ(miss->count(), 200u);
  EXPECT_GT(miss->min(), 0u);
  EXPECT_LE(miss->max(), static_cast<uint64_t>(report->redo_ns));

  uint64_t windows = 0;
  for (const obs::Tracer::Span& span : obs::Tracer::Instance().spans()) {
    if (std::string(span.name) != "readahead") continue;
    ++windows;
    EXPECT_GT(span.v_end_ns, span.v_start_ns);
  }
  EXPECT_EQ(windows, 2u);
}

TEST_F(ReadAheadObsTest, FinalCheckpointWriteBackIsRecorded) {
  // 100 pages whose newest version lives only in the WAL: the restart's
  // final checkpoint writes them back as one lane batch, traced as one
  // recovery/writeback span inside the recovery/checkpoint phase.
  ObsGuard guard;
  Init();
  const std::vector<PageId> pages = NewPages(100);
  CommitToEach(pages, "base");
  FACE_ASSERT_OK(db_->TakeCheckpoint().status());
  CommitToEach(pages, "redo");
  FACE_ASSERT_OK(log_->FlushAll());
  Crash();
  obs::SetVirtualClock(&sched_);
  auto& reg = obs::MetricsRegistry::Instance();
  reg.Clear();
  obs::Tracer::Instance().Clear();

  auto report = Recover();
  obs::SetVirtualClock(nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->writeback_batches, 1u);
  EXPECT_EQ(report->writeback_pages, 100u);
  EXPECT_EQ(reg.GetCounter("recovery.writeback_batches")->value, 1u);
  EXPECT_EQ(reg.GetCounter("recovery.writeback_pages")->value, 100u);

  std::vector<obs::Tracer::Span> batches;
  obs::Tracer::Span phase{};
  for (const obs::Tracer::Span& span : obs::Tracer::Instance().spans()) {
    if (std::string(span.component) != "recovery") continue;
    const std::string name(span.name);
    if (name == "writeback") batches.push_back(span);
    if (name == "checkpoint") phase = span;
  }
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_GT(batches[0].v_end_ns, batches[0].v_start_ns);
  EXPECT_GE(batches[0].v_start_ns, phase.v_start_ns);
  EXPECT_LE(batches[0].v_end_ns, phase.v_end_ns);
}

#endif  // FACE_OBS_ENABLED

TEST(ObsPerturbationTest, EnabledObsReproducesGoldenFingerprint) {
  // The ycsb-zipfian / FaCE+GSC timing-guard cell, byte-identical setup to
  // timing_guard_test.cc, but with metrics and tracing fully on. Any
  // simulated drift means instrumentation perturbed the experiment.
  ObsGuard guard;

  workload::YcsbOptions yo;
  yo.records = 8000;
  yo.bulk_load = false;
  auto factory = std::make_shared<workload::YcsbFactory>(yo);
  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden, GoldenImage::BuildFor(factory));

  TestbedOptions opts;
  opts.policy = CachePolicy::kFaceGSC;
  opts.flash_pages = golden.db_pages() / 10;
  opts.seed = 42;
  opts.workload = factory;
  Testbed tb(opts, &golden);
  FACE_ASSERT_OK(tb.Start());
  FACE_ASSERT_OK(tb.Warmup(250));
  RunOptions run;
  run.txns = 400;
  run.checkpoint_interval = 3 * kNanosPerSecond;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult r, tb.Run(run));

  // The committed golden row (timing_guard_test.cc kGolden, ycsb-zipfian /
  // FaCE+GSC) — no re-capture allowed.
  EXPECT_EQ(r.duration, 552427793u);
  EXPECT_EQ(r.txns, 400u);
  EXPECT_EQ(r.primary_txns, 400u);
  EXPECT_EQ(r.cache_stats.lookups, 193u);
  EXPECT_EQ(r.cache_stats.hits, 16u);
  EXPECT_EQ(r.db_stats.busy_ns, 609296931u);
  EXPECT_EQ(r.flash_stats.busy_ns, 3820016u);
  EXPECT_EQ(r.log_stats.busy_ns, 552163953u);
  EXPECT_EQ(r.db_stats.total_pages(), 199u);
  EXPECT_EQ(r.flash_stats.total_pages(), 201u);
  EXPECT_EQ(r.log_stats.total_pages(), 232u);

#if FACE_OBS_ENABLED
  // The run must also have actually observed something — a silently inert
  // subsystem would make this guard vacuous.
  auto& reg = obs::MetricsRegistry::Instance();
  EXPECT_GT(reg.GetCounter("buffer.fetches")->value, 0u);
  EXPECT_GT(reg.GetCounter("txn.committed")->value, 0u);
  EXPECT_GT(reg.GetCounter("wal.appends")->value, 0u);
  EXPECT_GT(reg.GetCounter("checkpoint.checkpoints")->value, 0u);
  EXPECT_GT(obs::Tracer::Instance().span_count(), 0u);
  const std::string text = tb.DumpStats();
  EXPECT_NE(text.find("buffer.fetches"), std::string::npos);
#endif
}

}  // namespace
}  // namespace face
