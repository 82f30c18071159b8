// Demonstrate the paper's Section 4: the flash cache as part of the
// persistent database. Runs the same crash at the same point twice — once
// with FaCE+GSC, once without any flash cache — and prints the restart
// breakdown side by side (Table 6 in miniature).
//
//   $ ./examples/crash_recovery
#include <cstdio>

#include "testbed/testbed.h"

using namespace face;

namespace {

RestartReport CrashOnce(const GoldenImage& golden, CachePolicy policy) {
  TestbedOptions opts;
  opts.policy = policy;
  opts.flash_pages = golden.db_pages() / 10;
  Testbed tb(opts, &golden);
  auto die = [](const Status& s) {
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      exit(1);
    }
  };
  die(tb.Start());
  die(tb.Warmup(3000));  // populate the flash cache (paper §5.2)
  // The paper's kill protocol: both systems crash at the *midpoint of a
  // checkpoint interval* in virtual time — not after an equal transaction
  // count, which would hand the faster system a longer redo tail.
  // Scaled checkpoint interval: see the table6_recovery preset in
  // bench/bench_paper.cc — the interval must sit inside one flash-cache
  // turnover, as the paper's did.
  constexpr SimNanos kInterval = 3 * kNanosPerSecond;
  RunOptions run;
  run.txns = 200;
  run.checkpoint_interval = kInterval;
  uint64_t checkpoints = 0;
  while (checkpoints < 2 ||
         tb.sched()->now() < tb.last_checkpoint_time() + kInterval / 2) {
    auto batch = tb.Run(run);
    die(batch.status());
    checkpoints += batch->checkpoints;
  }
  die(tb.InjectInflightTransactions(20));
  die(tb.Crash());
  auto report = tb.Recover();
  die(report.status());
  return std::move(report.value());
}

void Print(const char* name, const RestartReport& r) {
  printf("%-10s restart %7.2fs = attach %.2f + cache-meta %.2f + analysis "
         "%.2f + redo %.2f + undo %.2f + ckpt %.2f\n",
         name, ToSeconds(r.total_ns), ToSeconds(r.attach_ns),
         ToSeconds(r.meta_restore_ns), ToSeconds(r.analysis_ns),
         ToSeconds(r.redo_ns), ToSeconds(r.undo_ns),
         ToSeconds(r.checkpoint_ns));
  printf("           losers rolled back: %llu, redo applied %llu/%llu, "
         "page fetches %llu (%.0f%% from flash)\n",
         static_cast<unsigned long long>(r.losers),
         static_cast<unsigned long long>(r.redo_applied),
         static_cast<unsigned long long>(r.redo_records),
         static_cast<unsigned long long>(r.pages_fetched),
         r.FlashFetchFraction() * 100);
}

}  // namespace

int main() {
  printf("loading TPC-C (1 warehouse)...\n");
  auto golden = GoldenImage::Build(1);
  if (!golden.ok()) return 1;

  printf("\ncrashing mid-interval with 20 in-flight transactions...\n\n");
  const RestartReport face_report = CrashOnce(*golden, CachePolicy::kFaceGSC);
  const RestartReport hdd_report = CrashOnce(*golden, CachePolicy::kNone);
  Print("FaCE+GSC", face_report);
  Print("HDD-only", hdd_report);
  printf("\nFaCE restart is %.1fx faster (paper: 4x+ across checkpoint "
         "intervals)\n",
         ToSeconds(hdd_report.total_ns) / ToSeconds(face_report.total_ns));
  return 0;
}
