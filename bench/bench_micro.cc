// Micro-benchmarks (google-benchmark) of the hot operations under the
// experiment harnesses: device request pricing, WAL appends, B+tree and
// heap operations, cache-policy admissions, and the workload generators.
// These catch performance regressions in the simulator itself — wall-clock
// speed of the substrate bounds how much virtual experiment the harness
// can run per second.
#include <benchmark/benchmark.h>

#include "buffer/buffer_pool.h"
#include "common/random.h"
#include "core/face_cache.h"
#include "engine/btree.h"
#include "engine/database.h"
#include "engine/key_codec.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"
#include "tpcc/schema.h"
#include "wal/log_manager.h"

namespace face {
namespace {

void BM_DeviceRandomWrite(benchmark::State& state) {
  SimDevice dev("d", DeviceProfile::MlcSamsung470(), 1 << 16);
  std::string page(kPageSize, 'x');
  Random rnd(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dev.Write(rnd.Uniform(dev.capacity_pages()), page.data()));
  }
}
BENCHMARK(BM_DeviceRandomWrite);

void BM_DeviceBatchWrite64(benchmark::State& state) {
  SimDevice dev("d", DeviceProfile::MlcSamsung470(), 1 << 16);
  std::string buf(64 * kPageSize, 'x');
  uint64_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.WriteBatch(pos, 64, buf.data()));
    pos = (pos + 64) % (dev.capacity_pages() - 64);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                          kPageSize);
}
BENCHMARK(BM_DeviceBatchWrite64);

void BM_LogAppend(benchmark::State& state) {
  SimDevice dev("log", DeviceProfile::Seagate15k(), 1 << 20);
  LogManager log(&dev);
  (void)log.Format();
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = 1;
  rec.page_id = 42;
  rec.image.assign(64, static_cast<char>('b' ^ 'a'));  // a 64-byte range
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(&rec));
    if (log.next_lsn() > (1ull << 31)) {
      state.PauseTiming();
      (void)log.Format();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_LogAppend);

/// Self-contained engine stack for index/heap micro-benches.
struct MicroDb {
  SimDevice db_dev{"db", DeviceProfile::Seagate15k(), 1 << 18};
  SimDevice log_dev{"log", DeviceProfile::Seagate15k(), 1 << 20};
  DbStorage storage{&db_dev};
  LogManager log{&log_dev};
  NullCache cache{&storage};
  Database db{DatabaseOptions{.buffer_frames = 4096}, &storage, &log, &cache};

  MicroDb() {
    db_dev.set_timing_enabled(false);
    log_dev.set_timing_enabled(false);
    (void)db.Format();
  }
};

void BM_BtreeInsert(benchmark::State& state) {
  MicroDb m;
  PageWriter bulk = m.db.BulkWriter();
  auto tree = m.db.CreateIndex(&bulk, "t");
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->Insert(&bulk, KeyCodec().AppendU64(key++).Take(), "0123456789"));
  }
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeLookup(benchmark::State& state) {
  MicroDb m;
  PageWriter bulk = m.db.BulkWriter();
  auto tree = m.db.CreateIndex(&bulk, "t");
  constexpr uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    (void)tree->Insert(&bulk, KeyCodec().AppendU64(k).Take(), "0123456789");
  }
  Random rnd(3);
  std::string out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->Get(KeyCodec().AppendU64(rnd.Uniform(kKeys)).Take(), &out));
  }
}
BENCHMARK(BM_BtreeLookup);

void BM_HeapInsert(benchmark::State& state) {
  MicroDb m;
  PageWriter bulk = m.db.BulkWriter();
  auto heap = m.db.CreateTable(&bulk, "t");
  const std::string row(128, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap->Insert(&bulk, row));
  }
}
BENCHMARK(BM_HeapInsert);

void BM_FaceEnqueue(benchmark::State& state) {
  SimDevice db_dev("db", DeviceProfile::Raid0Seagate(8), 1 << 18);
  DbStorage storage(&db_dev);
  FaceOptions fo = FaceOptions::GroupSecondChance(8192);
  fo.seg_entries = 1024;
  SimDevice flash("flash", DeviceProfile::MlcSamsung470(),
                  FlashLayout::Compute(fo.n_frames, fo.seg_entries)
                      .total_blocks);
  FaceCache cache(fo, &flash, &storage);
  (void)cache.Format();
  std::string page(kPageSize, 'p');
  PageView(page.data()).Format(1);
  uint64_t page_id = 0;
  for (auto _ : state) {
    PageView(page.data()).set_page_id(page_id % 65536);
    benchmark::DoNotOptimize(
        cache.OnDramEvict(page_id % 65536, page.data(), true, true, 1));
    ++page_id;
  }
}
BENCHMARK(BM_FaceEnqueue);

void BM_NURand(benchmark::State& state) {
  TpccRandom rnd(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rnd.NURandCustomerId());
  }
}
BENCHMARK(BM_NURand);

void BM_CustomerRowCodec(benchmark::State& state) {
  tpcc::CustomerRow row;
  row.c_id = 7;
  row.c_first = "Aname";
  row.c_last = "BARBARBAR";
  row.c_data.assign(450, 'd');
  for (auto _ : state) {
    const std::string bytes = row.Encode();
    benchmark::DoNotOptimize(tpcc::CustomerRow::Decode(bytes));
  }
}
BENCHMARK(BM_CustomerRowCodec);

}  // namespace
}  // namespace face

BENCHMARK_MAIN();
