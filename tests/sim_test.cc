// Unit tests: device cost model, simulated devices (sequentiality
// detection, RAID striping, trim, shared clones), closed-loop scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/fault_injector.h"
#include "sim/device_model.h"
#include "sim/scheduler.h"
#include "sim/sim_device.h"
#include "tests/test_util.h"

namespace face {
namespace {

/// Page `block` of `dev`.
std::string PageAt(SimDevice& dev, uint64_t block) {
  std::string out(kPageSize, 'x');
  EXPECT_TRUE(dev.Read(block, out.data()).ok());
  return out;
}

std::string Fill(char c) { return std::string(kPageSize, c); }

TEST(DeviceProfileTest, Table1Calibration) {
  // Random service times must invert to the paper's IOPS figures.
  const DeviceProfile mlc = DeviceProfile::MlcSamsung470();
  EXPECT_NEAR(1e9 / mlc.random_read_ns, 28495, 30);
  EXPECT_NEAR(1e9 / mlc.random_write_ns, 6314, 10);
  // Sequential per-page transfer must invert to the bandwidth figures
  // (decimal MB/s, as device vendors and the paper quote them).
  EXPECT_NEAR(kPageSize / (mlc.seq_read_ns / 1e9) / 1e6, 251.33, 3.0);

  const DeviceProfile disk = DeviceProfile::Seagate15k();
  EXPECT_NEAR(1e9 / disk.random_read_ns, 409, 2);
  EXPECT_NEAR(1e9 / disk.random_write_ns, 343, 2);
}

TEST(DeviceProfileTest, RandomCostsDwarfSequentialOnFlash) {
  const DeviceProfile mlc = DeviceProfile::MlcSamsung470();
  // The property the whole paper rests on: random writes are ~10x
  // sequential writes on flash.
  EXPECT_GT(mlc.random_write_ns / mlc.seq_write_ns, 8.0);
  // Reads are much closer (paper: 48-60 % of sequential bandwidth).
  EXPECT_LT(mlc.random_read_ns / mlc.seq_read_ns, 3.0);
}

TEST(DeviceProfileTest, ServiceTimeComposition) {
  const DeviceProfile d = DeviceProfile::Seagate15k();
  const SimNanos seq4 = d.ServiceNs(IoOp::kRead, true, 4);
  const SimNanos rand1 = d.ServiceNs(IoOp::kRead, false, 1);
  const SimNanos rand4 = d.ServiceNs(IoOp::kRead, false, 4);
  EXPECT_NEAR(static_cast<double>(seq4), 4 * d.seq_read_ns, 2.0);
  // positioning + 4 transfers == (positioning + 1 transfer) + 3 transfers,
  // up to float->integer truncation.
  EXPECT_NEAR(static_cast<double>(rand4),
              static_cast<double>(rand1 + seq4) - d.seq_read_ns, 2.0);
}

TEST(SimDeviceTest, StoresAndReturnsBytes) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 128);
  std::string out(kPageSize, '\0');
  std::string in(kPageSize, 'z');
  FACE_ASSERT_OK(dev.Write(5, in.data()));
  FACE_ASSERT_OK(dev.Read(5, out.data()));
  EXPECT_EQ(in, out);
  // Unwritten blocks read back as zeroes.
  FACE_ASSERT_OK(dev.Read(6, out.data()));
  EXPECT_EQ(out, std::string(kPageSize, '\0'));
}

TEST(SimDeviceTest, RejectsOutOfRangeIo) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 16);
  std::string page(kPageSize, 'x');
  EXPECT_TRUE(dev.Write(16, page.data()).IsIOError());
  EXPECT_TRUE(dev.ReadBatch(10, 7, page.data()).IsIOError());
}

TEST(SimDeviceTest, DetectsSequentialityFromOffsets) {
  SimDevice dev("d", DeviceProfile::MlcSamsung470(), 4096);
  std::string page(kPageSize, 'x');
  // An append stream: first write random, rest sequential.
  for (uint64_t b = 100; b < 110; ++b) FACE_ASSERT_OK(dev.Write(b, page.data()));
  EXPECT_EQ(dev.stats().write_reqs, 10u);
  EXPECT_EQ(dev.stats().seq_write_reqs, 9u);
  // A jump breaks the run.
  FACE_ASSERT_OK(dev.Write(500, page.data()));
  EXPECT_EQ(dev.stats().seq_write_reqs, 9u);
}

TEST(SimDeviceTest, ReadAndWriteStreamsTrackedIndependently) {
  SimDevice dev("d", DeviceProfile::MlcSamsung470(), 4096);
  std::string page(kPageSize, 'x');
  // Interleave an append-write stream with a sequential read stream
  // (mvFIFO enqueue+dequeue): both must stay sequential.
  FACE_ASSERT_OK(dev.Write(100, page.data()));
  FACE_ASSERT_OK(dev.Read(200, page.data()));
  for (int i = 1; i < 8; ++i) {
    FACE_ASSERT_OK(dev.Write(100 + i, page.data()));
    FACE_ASSERT_OK(dev.Read(200 + i, page.data()));
  }
  EXPECT_EQ(dev.stats().seq_write_reqs, 7u);
  EXPECT_EQ(dev.stats().seq_read_reqs, 7u);
}

TEST(SimDeviceTest, SequentialIsFarCheaperThanRandomOnFlash) {
  std::string page(kPageSize, 'x');
  SimDevice seq("s", DeviceProfile::MlcSamsung470(), 1 << 16);
  for (uint64_t b = 0; b < 1000; ++b) (void)seq.Write(b, page.data());
  SimDevice rnd("r", DeviceProfile::MlcSamsung470(), 1 << 16);
  Random r(3);
  for (uint64_t i = 0; i < 1000; ++i) {
    (void)rnd.Write(r.Uniform(1 << 16), page.data());
  }
  EXPECT_GT(rnd.stats().busy_ns, 5 * seq.stats().busy_ns);
}

TEST(SimDeviceTest, RaidStripesAcrossStationsAndStaysSequential) {
  const DeviceProfile raid = DeviceProfile::Raid0Seagate(4);
  IoScheduler sched(1);
  SimDevice dev("raid", raid, 1 << 16, &sched);
  // One full-stripe-width sequential stream.
  std::string buf(64 * kPageSize, 'x');
  for (uint64_t b = 0; b + 64 <= 4096; b += 64) {
    FACE_ASSERT_OK(dev.WriteBatch(b, 64, buf.data()));
  }
  // Every spindle must have been busy (striping spreads load).
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(sched.station_busy_ns(s), 0u) << "station " << s;
  }
  // Spindle-local sequentiality: nearly all requests classify sequential.
  const DeviceStats& st = dev.stats();
  EXPECT_GT(st.seq_write_reqs, st.write_reqs * 9 / 10);
}

TEST(SimDeviceTest, TimingDisabledMovesBytesOnly) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 64);
  dev.set_timing_enabled(false);
  std::string page(kPageSize, 'q');
  FACE_ASSERT_OK(dev.Write(1, page.data()));
  EXPECT_EQ(dev.stats().write_reqs, 0u);
  EXPECT_EQ(dev.stats().busy_ns, 0u);
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(1, out.data()));
  EXPECT_EQ(out, page);
}

TEST(SimDeviceTest, CloneReadsSourceContents) {
  SimDevice a("a", DeviceProfile::Seagate15k(), 2048);
  std::string page(kPageSize, 'c');
  FACE_ASSERT_OK(a.Write(1500, page.data()));
  SimDevice b("b", DeviceProfile::MlcSamsung470(), 4096);
  FACE_ASSERT_OK(b.CloneContentsFrom(a));
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(b.Read(1500, out.data()));
  EXPECT_EQ(out, page);
}

TEST(SimDeviceTest, CloneWritesReachNeitherSourceNorSibling) {
  // A clone shares its source's pages until it writes them; its first
  // write to a page gives it a private copy.
  SimDevice src("src", DeviceProfile::Seagate15k(), 2048);
  FACE_ASSERT_OK(src.Write(5, Fill('o').data()));
  FACE_ASSERT_OK(src.Write(6, Fill('o').data()));
  SimDevice a("a", DeviceProfile::Seagate15k(), 2048);
  SimDevice b("b", DeviceProfile::Seagate15k(), 2048);
  FACE_ASSERT_OK(a.CloneContentsFrom(src));
  FACE_ASSERT_OK(b.CloneContentsFrom(src));

  FACE_ASSERT_OK(a.Write(5, Fill('a').data()));
  FACE_ASSERT_OK(a.Write(1500, Fill('a').data()));  // a chunk src never wrote
  EXPECT_EQ(PageAt(a, 5), Fill('a'));
  EXPECT_EQ(PageAt(a, 6), Fill('o')) << "an unwritten page reads the source";
  EXPECT_EQ(PageAt(a, 1500), Fill('a'));
  EXPECT_EQ(PageAt(src, 5), Fill('o'));
  EXPECT_EQ(PageAt(b, 5), Fill('o'));
  EXPECT_EQ(PageAt(src, 1500), Fill('\0'));
  EXPECT_EQ(PageAt(b, 1500), Fill('\0'));
}

TEST(SimDeviceTest, SourceWritesAfterCloningNeverReachTheClone) {
  SimDevice src("src", DeviceProfile::Seagate15k(), 2048);
  FACE_ASSERT_OK(src.Write(5, Fill('o').data()));
  SimDevice clone("c", DeviceProfile::Seagate15k(), 2048);
  FACE_ASSERT_OK(clone.CloneContentsFrom(src));

  FACE_ASSERT_OK(src.Write(5, Fill('n').data()));
  const std::string batch(8 * kPageSize, 'n');
  FACE_ASSERT_OK(src.WriteBatch(1020, 8, batch.data()));  // spans chunk 1
  EXPECT_EQ(PageAt(src, 5), Fill('n'));
  EXPECT_EQ(PageAt(clone, 5), Fill('o'));
  EXPECT_EQ(PageAt(clone, 1020), Fill('\0'));
  EXPECT_EQ(PageAt(clone, 1027), Fill('\0'));
}

TEST(SimDeviceTest, CloneOutlivesItsSource) {
  auto src = std::make_unique<SimDevice>("src", DeviceProfile::Seagate15k(),
                                         2048);
  FACE_ASSERT_OK(src->Write(5, Fill('o').data()));
  FACE_ASSERT_OK(src->Write(6, Fill('o').data()));
  SimDevice a("a", DeviceProfile::Seagate15k(), 2048);
  SimDevice b("b", DeviceProfile::Seagate15k(), 2048);
  FACE_ASSERT_OK(a.CloneContentsFrom(*src));
  FACE_ASSERT_OK(b.CloneContentsFrom(*src));
  FACE_ASSERT_OK(a.Write(5, Fill('a').data()));
  src.reset();

  EXPECT_EQ(PageAt(a, 5), Fill('a'));
  EXPECT_EQ(PageAt(a, 6), Fill('o'));
  EXPECT_EQ(PageAt(b, 5), Fill('o'));
  FACE_ASSERT_OK(b.Write(6, Fill('b').data()));
  EXPECT_EQ(PageAt(b, 6), Fill('b'));
  EXPECT_EQ(PageAt(a, 6), Fill('o'));
}

TEST(SimDeviceTest, TornWriteOnACloneKeepsSourceBytesPastTheCut) {
  SimDevice src("src", DeviceProfile::Seagate15k(), 128);
  FACE_ASSERT_OK(src.Write(7, Fill('o').data()));
  SimDevice clone("c", DeviceProfile::Seagate15k(), 128);
  FACE_ASSERT_OK(clone.CloneContentsFrom(src));

  FaultInjector inj;
  clone.set_fault_injector(&inj);
  inj.ArmAfterWrites(1, /*seed=*/9);
  EXPECT_TRUE(clone.Write(7, Fill('n').data()).IsIOError());
  ASSERT_TRUE(inj.tripped());
  inj.Disarm();

  const uint32_t cut = inj.site().sectors_persisted * kSectorSize;
  ASSERT_GT(cut, 0u) << "the seed must tear the page, not drop it";
  EXPECT_EQ(PageAt(clone, 7),
            std::string(cut, 'n') + std::string(kPageSize - cut, 'o'));
  EXPECT_EQ(PageAt(src, 7), Fill('o'));
}

TEST(SimDeviceTest, EraseAndTrimOnACloneReadZeros) {
  SimDevice src("src", DeviceProfile::Seagate15k(), 4096);
  for (uint64_t b : {0, 1030, 2050}) {
    FACE_ASSERT_OK(src.Write(b, Fill('o').data()));
  }
  SimDevice clone("c", DeviceProfile::Seagate15k(), 4096);
  FACE_ASSERT_OK(clone.CloneContentsFrom(src));

  // Chunk 1 holds a source page and a page the clone wrote; the trim drops
  // both from the clone alone.
  FACE_ASSERT_OK(clone.Write(1031, Fill('c').data()));
  clone.TrimBefore(/*block=*/2048, /*keep_below=*/1);
  EXPECT_EQ(PageAt(clone, 1030), Fill('\0'));
  EXPECT_EQ(PageAt(clone, 1031), Fill('\0'));
  EXPECT_EQ(PageAt(clone, 0), Fill('o'));
  EXPECT_EQ(PageAt(clone, 2050), Fill('o'));
  EXPECT_EQ(PageAt(src, 1030), Fill('o'));
  EXPECT_EQ(PageAt(src, 1031), Fill('\0'));

  FACE_ASSERT_OK(clone.Write(2051, Fill('c').data()));
  clone.Erase();
  for (uint64_t b : {0, 2050, 2051}) EXPECT_EQ(PageAt(clone, b), Fill('\0'));
  EXPECT_EQ(PageAt(src, 0), Fill('o'));
  EXPECT_EQ(PageAt(src, 2050), Fill('o'));
  EXPECT_EQ(PageAt(src, 2051), Fill('\0'));
}

TEST(SimDeviceTest, TrimReleasesOnlyWholeChunksOutsideKeep) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 4096);
  std::string page(kPageSize, 't');
  FACE_ASSERT_OK(dev.Write(0, page.data()));      // chunk 0 (protected)
  FACE_ASSERT_OK(dev.Write(1030, page.data()));   // chunk 1
  FACE_ASSERT_OK(dev.Write(2050, page.data()));   // chunk 2
  dev.TrimBefore(/*block=*/2048, /*keep_below=*/1);
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(0, out.data()));
  EXPECT_EQ(out, page) << "block 0 must survive (keep_below)";
  FACE_ASSERT_OK(dev.Read(1030, out.data()));
  EXPECT_EQ(out, std::string(kPageSize, '\0')) << "chunk 1 trimmed";
  FACE_ASSERT_OK(dev.Read(2050, out.data()));
  EXPECT_EQ(out, page) << "chunk 2 beyond trim point";
}

TEST(SimDeviceTest, BatchIoCrossesChunkBoundaries) {
  // Lazy chunks are 1024 pages; batch requests must span them seamlessly
  // (the span-copy fast path works chunk by chunk).
  SimDevice dev("d", DeviceProfile::Seagate15k(), 4096);
  std::string in(40 * kPageSize, '\0');
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<char>('a' + i % 23);
  }
  FACE_ASSERT_OK(dev.WriteBatch(1004, 40, in.data()));  // spans 1024
  std::string out(40 * kPageSize, '\0');
  FACE_ASSERT_OK(dev.ReadBatch(1004, 40, out.data()));
  EXPECT_EQ(in, out);
  // A batch read over written + never-written pages zero-fills the
  // unwritten span.
  std::string tail(8 * kPageSize, 'x');
  FACE_ASSERT_OK(dev.ReadBatch(1040, 8, tail.data()));
  EXPECT_EQ(tail.substr(0, 4 * kPageSize), in.substr(36 * kPageSize));
  EXPECT_EQ(tail.substr(4 * kPageSize), std::string(4 * kPageSize, '\0'));
}

TEST(SimDeviceTest, EraseKeepsStatsButResetsSequentiality) {
  // Erase models reformatting the media, not resetting the measurement:
  // counters survive, but the head-position history restarts with the
  // contents.
  SimDevice dev("d", DeviceProfile::MlcSamsung470(), 4096);
  std::string page(kPageSize, 'e');
  for (uint64_t b = 10; b < 14; ++b) FACE_ASSERT_OK(dev.Write(b, page.data()));
  EXPECT_EQ(dev.stats().write_reqs, 4u);
  EXPECT_EQ(dev.stats().seq_write_reqs, 3u);
  const uint64_t busy = dev.stats().busy_ns;
  EXPECT_GT(busy, 0u);

  dev.Erase();
  EXPECT_EQ(dev.stats().write_reqs, 4u) << "stats survive Erase";
  EXPECT_EQ(dev.stats().busy_ns, busy);
  std::string out(kPageSize, 'x');
  FACE_ASSERT_OK(dev.Read(10, out.data()));
  EXPECT_EQ(out, std::string(kPageSize, '\0')) << "contents wiped";
  // Block 14 would have continued the pre-Erase write run; it must now
  // classify random.
  FACE_ASSERT_OK(dev.Write(14, page.data()));
  EXPECT_EQ(dev.stats().seq_write_reqs, 3u);
  EXPECT_EQ(dev.stats().write_reqs, 5u);
}

TEST(SimDeviceTest, TrimRoundsInwardAtChunkBoundaries) {
  SimDevice dev("d", DeviceProfile::Seagate15k(), 8192);
  std::string page(kPageSize, 'r');
  FACE_ASSERT_OK(dev.Write(1023, page.data()));  // chunk 0 tail
  FACE_ASSERT_OK(dev.Write(1024, page.data()));  // chunk 1 head
  FACE_ASSERT_OK(dev.Write(2047, page.data()));  // chunk 1 tail
  FACE_ASSERT_OK(dev.Write(2048, page.data()));  // chunk 2 head

  // keep_below inside chunk 0 protects all of chunk 0 (rounded up);
  // block exactly on the chunk-2 boundary frees chunk 1 in full but
  // cannot touch chunk 2.
  dev.TrimBefore(/*block=*/2048, /*keep_below=*/1);
  std::string out(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(1023, out.data()));
  EXPECT_EQ(out, page) << "partially protected chunk kept in full";
  FACE_ASSERT_OK(dev.Read(1024, out.data()));
  EXPECT_EQ(out, std::string(kPageSize, '\0')) << "chunk 1 freed";
  FACE_ASSERT_OK(dev.Read(2048, out.data()));
  EXPECT_EQ(out, page) << "chunk at the trim point kept";

  // A trim point in the middle of a chunk keeps that whole chunk.
  SimDevice mid("m", DeviceProfile::Seagate15k(), 8192);
  FACE_ASSERT_OK(mid.Write(1024, page.data()));
  FACE_ASSERT_OK(mid.Write(1500, page.data()));
  mid.TrimBefore(/*block=*/1400, /*keep_below=*/1);
  FACE_ASSERT_OK(mid.Read(1024, out.data()));
  EXPECT_EQ(out, page) << "chunk straddling the trim point survives whole";
}

TEST(SchedulerTest, ClosedLoopAssignsEarliestFreeToken) {
  IoScheduler sched(2);
  const uint32_t st = sched.RegisterStations(1);
  // Two txns on two tokens, each 100us of I/O: they queue on the single
  // station, so completions land at 100 and 200us.
  sched.BeginTxn();
  sched.OnIo(st, 100 * kNanosPerMicro);
  EXPECT_EQ(sched.EndTxn(), 100 * kNanosPerMicro);
  sched.BeginTxn();
  sched.OnIo(st, 100 * kNanosPerMicro);
  EXPECT_EQ(sched.EndTxn(), 200 * kNanosPerMicro);
  // Third txn goes to the token that freed first (t=100), but still waits
  // for the station.
  sched.BeginTxn();
  sched.OnIo(st, 50 * kNanosPerMicro);
  EXPECT_EQ(sched.EndTxn(), 250 * kNanosPerMicro);
  EXPECT_EQ(sched.txns_completed(), 3u);
  EXPECT_EQ(sched.station_busy_ns(st), 250 * kNanosPerMicro);
}

TEST(SchedulerTest, CpuTimeDoesNotContend) {
  IoScheduler sched(2);
  sched.BeginTxn();
  sched.OnCpu(10 * kNanosPerMicro);
  EXPECT_EQ(sched.EndTxn(), 10 * kNanosPerMicro);
  sched.BeginTxn();
  sched.OnCpu(10 * kNanosPerMicro);
  // Second client token: starts at 0, no contention with the first.
  EXPECT_EQ(sched.EndTxn(), 10 * kNanosPerMicro);
}

TEST(SchedulerTest, BackgroundTokensRunIndependently) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(1);
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginTxn();
  sched.OnIo(st, 100);
  sched.EndTxn();
  sched.BeginBackground(bg, 1000);
  sched.OnIo(st, 50);
  const SimNanos done = sched.EndBackground();
  EXPECT_EQ(done, 1050u);  // started no earlier than 1000
  EXPECT_EQ(sched.txns_completed(), 1u);  // background is not a txn
}

TEST(SchedulerTest, AdvanceAllTokensActsAsBarrier) {
  IoScheduler sched(2);
  sched.BeginTxn();
  sched.OnCpu(10);
  sched.EndTxn();
  sched.AdvanceAllTokens(5000);
  sched.BeginTxn();
  sched.OnCpu(1);
  EXPECT_EQ(sched.EndTxn(), 5001u);
}

// --- I/O lane batches -------------------------------------------------------

TEST(SchedulerLaneTest, LanesOnDistinctStationsOverlap) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(2);
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginBackground(bg, 1000);
  sched.BeginBatch();
  sched.NextLane();
  sched.OnIo(st, 100);
  sched.NextLane();
  sched.OnIo(st + 1, 100);
  EXPECT_EQ(sched.EndBatch(), 1100u);  // both lanes ran in [1000, 1100)
  EXPECT_FALSE(sched.in_batch());
  EXPECT_EQ(sched.EndBackground(), 1100u);
}

TEST(SchedulerLaneTest, LanesOnOneStationSerializeFcfs) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(1);
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginBackground(bg, 0);
  sched.BeginBatch();
  sched.NextLane();
  sched.OnIo(st, 100);
  EXPECT_EQ(sched.span_time(), 100u);
  sched.NextLane();
  sched.OnIo(st, 30);
  EXPECT_EQ(sched.span_time(), 130u);  // queued behind the first lane
  EXPECT_EQ(sched.EndBatch(), 130u);
  sched.EndBackground();
  EXPECT_EQ(sched.station_busy_ns(st), 130u);
}

TEST(SchedulerLaneTest, ChainInsideOneLaneStaysOrdered) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(2);
  const uint32_t disk = st, flash = st + 1;
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginBackground(bg, 0);
  sched.BeginBatch();
  // Lane 1: a read, then the admission write it triggers.
  sched.NextLane();
  sched.OnIo(disk, 100);
  sched.OnIo(flash, 20);
  EXPECT_EQ(sched.span_time(), 120u);  // the write follows its own read
  // Lane 2 reaches flash at its batch-relative start but queues FCFS
  // behind lane 1's write, which was issued first.
  sched.NextLane();
  sched.OnIo(flash, 10);
  EXPECT_EQ(sched.span_time(), 130u);
  EXPECT_EQ(sched.EndBatch(), 130u);
  sched.EndBackground();
}

TEST(SchedulerLaneTest, BackoffDelaysOnlyItsOwnLane) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(2);
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginBackground(bg, 0);
  sched.BeginBatch();
  sched.NextLane();
  sched.OnCpu(1000);  // retry backoff before the read succeeds
  sched.OnIo(st, 100);
  EXPECT_EQ(sched.span_time(), 1100u);
  sched.NextLane();
  sched.OnIo(st + 1, 100);
  EXPECT_EQ(sched.span_time(), 100u);  // untouched by the other lane's wait
  EXPECT_EQ(sched.EndBatch(), 1100u);
  sched.EndBackground();
}

TEST(SchedulerLaneTest, ALaneMayStartBeforeItsBatch) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(2);
  const uint32_t flash = st, disk = st + 1;
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginBackground(bg, 0);
  sched.OnIo(flash, 40);
  sched.OnIo(disk, 100);  // the span's clock: 140
  sched.BeginBatch();
  sched.NextLaneAt(40);  // issued when flash freed, run by the host now
  sched.OnIo(flash, 200);
  EXPECT_EQ(sched.span_time(), 240u);  // [40, 240): flash idled from 40
  sched.NextLane();
  sched.OnIo(disk, 50);
  EXPECT_EQ(sched.span_time(), 190u);  // from the batch start
  sched.NextLane();
  sched.OnIo(flash, 10);
  EXPECT_EQ(sched.span_time(), 250u);  // queued behind the early lane
  EXPECT_EQ(sched.EndBatch(), 250u);
  EXPECT_EQ(sched.EndBackground(), 250u);
}

TEST(SchedulerLaneTest, ResetClearsBatchState) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(1);
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginBackground(bg, 500);
  sched.BeginBatch();
  sched.NextLane();
  sched.OnIo(st, 100);
  ASSERT_TRUE(sched.in_batch());
  sched.Reset();
  EXPECT_FALSE(sched.in_batch());
  EXPECT_FALSE(sched.in_span());
  // A fresh span and batch start from zero, not from the stale batch start.
  sched.BeginBackground(bg, 0);
  sched.BeginBatch();
  sched.NextLane();
  sched.OnIo(st, 10);
  EXPECT_EQ(sched.EndBatch(), 10u);
  EXPECT_EQ(sched.EndBackground(), 10u);
}

// --- group commit joins -----------------------------------------------------

TEST(SchedulerJoinTest, JoinsWhileTheLastRequestHasNotStarted) {
  IoScheduler sched(3);
  const uint32_t st = sched.RegisterStations(1);
  sched.BeginTxn();  // another request holds the station until 100
  sched.OnIo(st, 100);
  sched.EndTxn();
  sched.BeginTxn();  // a force arriving at 0 queues: its group starts at 100
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.EndTxn(), 200u);
  sched.BeginTxn();  // arrives at 0, before the group started: joins it
  EXPECT_TRUE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.EndTxn(), 210u);  // the group's end, grown by 10 alone
  EXPECT_EQ(sched.station_busy_ns(st), 210u);
}

TEST(SchedulerJoinTest, DoesNotJoinOnceTheGroupStarted) {
  IoScheduler sched(2);
  const uint32_t st = sched.RegisterStations(1);
  sched.BeginTxn();
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));  // group runs [0, 100)
  sched.EndTxn();
  sched.BeginTxn();
  sched.OnCpu(1);  // arrives at 1: the group's write has begun
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.EndTxn(), 200u);  // queued behind it, full service
}

TEST(SchedulerJoinTest, DoesNotJoinAfterAnotherRequestOnTheStation) {
  IoScheduler sched(4);
  const uint32_t st = sched.RegisterStations(1);
  sched.BeginTxn();  // holds the station until 100
  sched.OnIo(st, 100);
  sched.EndTxn();
  sched.BeginTxn();  // a force queued at [100, 200): its group starts at 100
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  sched.EndTxn();
  sched.BeginTxn();  // a plain request queues behind it and closes the group
  sched.OnIo(st, 50);
  EXPECT_EQ(sched.EndTxn(), 250u);
  sched.BeginTxn();  // at 0, before the group's start, but it is not last
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.EndTxn(), 350u);
}

TEST(SchedulerJoinTest, DoesNotJoinInsideALaneBatch) {
  IoScheduler sched(1);
  const uint32_t st = sched.RegisterStations(1);
  const uint32_t bg = sched.AddBackgroundToken();
  sched.BeginTxn();
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));  // group at [0, 100)
  sched.EndTxn();
  sched.BeginBackground(bg, 0);
  sched.BeginBatch();
  sched.NextLane();  // a lane starting at 0 does not join the group...
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.span_time(), 200u);
  sched.NextLane();  // ...and a lane's request opens none to join
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.span_time(), 300u);
  EXPECT_EQ(sched.EndBatch(), 300u);
  sched.EndBackground();
  EXPECT_EQ(sched.station_busy_ns(st), 300u);
}

TEST(SchedulerJoinTest, ResetClearsTheJoinState) {
  IoScheduler sched(2);
  const uint32_t st = sched.RegisterStations(1);
  sched.BeginTxn();
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));  // group at [0, 100)
  sched.Reset();
  sched.BeginTxn();  // at 0, the stale group's start: must not join
  EXPECT_FALSE(sched.OnJoinableIo(st, 100, 10));
  EXPECT_EQ(sched.EndTxn(), 100u);
  EXPECT_EQ(sched.station_busy_ns(st), 100u);
}

TEST(SimDeviceTest, GroupWriteJoinAddsOnlyItsNewPages) {
  // A log force queued behind another request opens a group; a force
  // rewriting the group's last block plus one more joins it as part of the
  // group's one request, adding one block's transfer and one page.
  IoScheduler sched(3);
  SimDevice dev("log", DeviceProfile::Seagate15k(), 1024, &sched);
  const DeviceProfile& p = dev.profile();
  std::string blocks(3 * kPageSize, 'w');
  bool joined = true;
  sched.BeginTxn();
  FACE_ASSERT_OK(dev.Write(500, blocks.data()));  // holds the station
  const SimNanos busy = sched.EndTxn();
  sched.BeginTxn();
  FACE_ASSERT_OK(dev.GroupWrite(1, 2, blocks.data(), &joined));  // [1, 3)
  EXPECT_FALSE(joined);
  const SimNanos group_end =
      busy + p.ServiceNs(IoOp::kWrite, /*sequential=*/false, 2);
  EXPECT_EQ(sched.EndTxn(), group_end);
  sched.BeginTxn();
  FACE_ASSERT_OK(dev.GroupWrite(2, 2, blocks.data(), &joined));  // [2, 4)
  EXPECT_TRUE(joined);
  EXPECT_EQ(sched.EndTxn(),
            group_end + p.ServiceNs(IoOp::kWrite, /*sequential=*/true, 1));
  EXPECT_EQ(dev.stats().write_reqs, 2u);
  EXPECT_EQ(dev.stats().pages_written, 1u + 2u + 1u);
  EXPECT_EQ(dev.stats().busy_ns, sched.station_busy_ns(0));
  // Bytes move exactly as an unjoined write would move them.
  std::string back(kPageSize, '\0');
  FACE_ASSERT_OK(dev.Read(3, back.data()));
  EXPECT_EQ(back, std::string(kPageSize, 'w'));
}

}  // namespace
}  // namespace face
