// Tour of the pluggable workload subsystem: drive the same testbed with
// YCSB-Zipfian under two cache policies, fingerprinting each run's page
// references through the buffer pool's PageTraceSink. Workloads never read
// virtual time, so both runs make the same logical accesses and differ only
// in what each policy does with them: a live run is already the controlled
// experiment. Exits non-zero if the two fingerprints differ.
//
//   $ ./examples/workload_plugins
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "testbed/testbed.h"
#include "workload/ycsb_workload.h"

using namespace face;

namespace {

void Die(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

/// Folds every logical page reference, in order, into one hash.
struct Fingerprint : PageTraceSink {
  void OnPageAccess(PageId page_id, bool write) override {
    hash = (hash ^ (page_id << 1 | (write ? 1 : 0))) * 0x100000001b3ull;
    ++refs;
  }

  uint64_t hash = 0xcbf29ce484222325ull;
  uint64_t refs = 0;
};

/// Warm up, then run `txns` transactions with `fingerprint` attached.
RunResult Measure(const GoldenImage& golden,
                  std::shared_ptr<const workload::WorkloadFactory> factory,
                  CachePolicy policy, uint64_t txns,
                  Fingerprint* fingerprint) {
  TestbedOptions opts;
  opts.policy = policy;
  opts.flash_pages = golden.db_pages() / 10;
  opts.workload = std::move(factory);
  Testbed tb(opts, &golden);
  Die(tb.Start(), "start");
  Die(tb.Warmup(txns / 2), "warmup");
  tb.db()->pool()->set_trace_sink(fingerprint);
  RunOptions run;
  run.txns = txns;
  auto result = tb.Run(run);
  tb.db()->pool()->set_trace_sink(nullptr);
  Die(result.status(), "run");
  return std::move(result.value());
}

}  // namespace

int main() {
  workload::YcsbOptions yo =
      workload::YcsbOptions::WithDistribution(
          workload::YcsbOptions::Distribution::kZipfian);
  yo.records = 20000;
  auto ycsb = std::make_shared<workload::YcsbFactory>(yo);

  printf("loading %s (%llu records)...\n", ycsb->name(),
         static_cast<unsigned long long>(yo.records));
  auto golden = GoldenImage::BuildFor(ycsb);
  if (!golden.ok()) {
    fprintf(stderr, "load failed: %s\n", golden.status().ToString().c_str());
    return 1;
  }
  printf("database: %llu pages\n\n",
         static_cast<unsigned long long>(golden->db_pages()));

  // The same live YCSB run under two policies.
  const CachePolicy policies[] = {CachePolicy::kFaceGSC, CachePolicy::kLc};
  Fingerprint fingerprints[2];
  for (int i = 0; i < 2; ++i) {
    const RunResult r =
        Measure(*golden, ycsb, policies[i], 3000, &fingerprints[i]);
    printf("%-8s: %7.0f tpm, hit rate %5.1f%%, flash seq-write share "
           "%5.1f%%; %llu page references, fingerprint %016llx\n",
           CachePolicyName(policies[i]), r.Tpm(),
           r.cache_stats.HitRate() * 100,
           r.flash_stats.write_reqs
               ? 100.0 * r.flash_stats.seq_write_reqs / r.flash_stats.write_reqs
               : 0.0,
           static_cast<unsigned long long>(fingerprints[i].refs),
           static_cast<unsigned long long>(fingerprints[i].hash));
  }
  if (fingerprints[0].refs != fingerprints[1].refs ||
      fingerprints[0].hash != fingerprints[1].hash) {
    fprintf(stderr, "the two policies saw different page references\n");
    return 1;
  }
  printf("\nsame logical accesses, different physical behavior: that "
         "difference is\nexactly the policy's contribution.\n");
  return 0;
}
