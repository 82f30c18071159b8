// Unit tests: Status/StatusOr, coding, CRC32-C, randoms, histogram.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "tests/test_util.h"

namespace face {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  const Status s = Status::NotFound("missing page");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "NotFound: missing page");
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::OutOfSpace().IsOutOfSpace());
  EXPECT_TRUE(Status::Internal().IsInternal());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());

  StatusOr<int> e = Status::NotFound("x");
  ASSERT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsNotFound());
}

TEST(StatusOrTest, MacroPropagatesErrors) {
  auto inner = [](bool fail) -> StatusOr<int> {
    if (fail) return Status::Busy("locked");
    return 7;
  };
  auto outer = [&](bool fail) -> StatusOr<int> {
    FACE_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_TRUE(outer(true).status().IsBusy());
}

TEST(CodingTest, FixedWidthRoundTrip) {
  char buf[8];
  EncodeFixed16(buf, 0xBEEF);
  EXPECT_EQ(DecodeFixed16(buf), 0xBEEF);
  EncodeFixed32(buf, 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed32(buf), 0xDEADBEEFu);
  EncodeFixed64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789ABCDEFull);

  std::string s;
  PutFixed16(&s, 1);
  PutFixed32(&s, 2);
  PutFixed64(&s, 3);
  EXPECT_EQ(s.size(), 14u);
  EXPECT_EQ(DecodeFixed16(s.data()), 1);
  EXPECT_EQ(DecodeFixed32(s.data() + 2), 2u);
  EXPECT_EQ(DecodeFixed64(s.data() + 6), 3u);
}

TEST(Crc32cTest, KnownProperties) {
  const std::string a = "hello crc world";
  const uint32_t crc = crc32c::Value(a.data(), a.size());
  EXPECT_EQ(crc, crc32c::Value(a.data(), a.size()));  // deterministic
  // Extend must equal one-shot over the concatenation.
  const uint32_t left = crc32c::Value(a.data(), 5);
  EXPECT_EQ(crc32c::Extend(left, a.data() + 5, a.size() - 5), crc);
  // Mask is reversible and different from the raw crc.
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(Crc32cTest, DetectsCorruption) {
  std::string a(512, 'a');
  const uint32_t crc = crc32c::Value(a.data(), a.size());
  a[100] ^= 1;
  EXPECT_NE(crc32c::Value(a.data(), a.size()), crc);
}

// Regression guard for the multi-lane large-input path: a one-shot crc of
// a large buffer must equal the crc composed from sub-lane-sized Extend
// chunks, which never enter the interleaved kernel. Covers the lane
// threshold (3 x 1344 = 4032), page-sized inputs (the checksum hot path),
// multi-tri-block inputs, and splits that land mid-lane — so a bug in the
// lane recombination cannot stay self-consistent.
TEST(Crc32cTest, LargeInputsMatchChunkedExtend) {
  std::string data(20000, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < data.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[i] = static_cast<char>(x);
  }
  auto chunked = [&](size_t n, size_t chunk) {
    uint32_t crc = crc32c::Value(data.data(), std::min(chunk, n));
    for (size_t off = chunk; off < n; off += chunk) {
      crc = crc32c::Extend(crc, data.data() + off,
                           std::min(chunk, n - off));
    }
    return crc;
  };
  for (size_t n : {4031u, 4032u, 4033u, 4076u, 4096u, 8064u, 20000u}) {
    const uint32_t one_shot = crc32c::Value(data.data(), n);
    EXPECT_EQ(chunked(n, 512), one_shot) << "n=" << n;
    EXPECT_EQ(chunked(n, 1000), one_shot) << "n=" << n;
  }
  // Splits at and around the lane boundaries of a page-sized input.
  for (size_t split : {1u, 1343u, 1344u, 1345u, 2688u, 4031u, 4032u}) {
    uint32_t crc = crc32c::Value(data.data(), split);
    crc = crc32c::Extend(crc, data.data() + split, 4096 - split);
    EXPECT_EQ(crc, crc32c::Value(data.data(), 4096)) << "split=" << split;
  }
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformRangeIsInclusive) {
  Random r(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = r.UniformRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values show up
}

TEST(RandomTest, AlphaAndNumStrings) {
  Random r(11);
  for (int i = 0; i < 50; ++i) {
    const std::string a = r.AlphaString(8, 16);
    EXPECT_GE(a.size(), 8u);
    EXPECT_LE(a.size(), 16u);
    const std::string n = r.NumString(9);
    EXPECT_EQ(n.size(), 9u);
    for (char c : n) EXPECT_TRUE(c >= '0' && c <= '9');
  }
}

TEST(ZipfTest, SkewsTowardLowValues) {
  ZipfGenerator zipf(1000, 0.99, 3);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (zipf.Next() < 100) ++low;  // lowest 10 % of the key space
  }
  // With theta=0.99 the head takes well over half the mass.
  EXPECT_GT(low, total / 2);
}

TEST(ZipfTest, ReseededGeneratorDrawsAsAFreshOne) {
  // YCSB builds its table once and reseeds it at every Setup.
  ZipfGenerator reseeded(200000, 0.99, 3);
  for (int i = 0; i < 100; ++i) reseeded.Next();
  reseeded.Reseed(42);
  ZipfGenerator fresh(200000, 0.99, 42);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(reseeded.Next(), fresh.Next()) << "draw " << i;
  }
}

TEST(ZipfTest, ZeroThetaIsRoughlyUniform) {
  ZipfGenerator zipf(10, 0.0, 3);
  std::map<uint64_t, uint64_t> counts;
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Next()];
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 10u);
    EXPECT_GT(c, 700u);
    EXPECT_LT(c, 1300u);
  }
}

TEST(TpccRandomTest, NURandStaysInRange) {
  TpccRandom r(5);
  for (int i = 0; i < 2000; ++i) {
    const int64_t c = r.NURandCustomerId();
    EXPECT_GE(c, 1);
    EXPECT_LE(c, 3000);
    const int64_t item = r.NURandItemId();
    EXPECT_GE(item, 1);
    EXPECT_LE(item, 100000);
    const int64_t name = r.NURandLastName();
    EXPECT_GE(name, 0);
    EXPECT_LE(name, 999);
  }
}

TEST(TpccRandomTest, NURandIsNonUniform) {
  TpccRandom r(5);
  std::map<int64_t, int> hist;
  for (int i = 0; i < 30000; ++i) ++hist[r.NURandCustomerId() / 300];
  // A uniform draw would put ~3000 in each decile; NURand concentrates.
  int max_bucket = 0;
  for (const auto& [b, c] : hist) max_bucket = std::max(max_bucket, c);
  EXPECT_GT(max_bucket, 3600);
}

TEST(TpccRandomTest, LastNameSyllables) {
  EXPECT_EQ(TpccRandom::LastName(0), "BARBARBAR");
  EXPECT_EQ(TpccRandom::LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(TpccRandom::LastName(999), "EINGEINGEING");
}

TEST(HistogramTest, PercentilesAndMean) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1.0);
  // Bucketed percentiles are approximate; allow generous slack.
  EXPECT_NEAR(h.Percentile(50), 500, 260);
  EXPECT_GT(h.Percentile(99), h.Percentile(50));
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.sum(), 500500u);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(100), 0.0);
}

TEST(HistogramTest, SingleSample) {
  // In-bucket interpolation must never report a value outside the observed
  // range: a single sample of 5 lands in bucket [4, 8), whose floor is 4.
  Histogram h;
  h.Add(5);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_EQ(h.Percentile(0), 5.0);
  EXPECT_EQ(h.Percentile(50), 5.0);
  EXPECT_EQ(h.Percentile(100), 5.0);
}

TEST(HistogramTest, PercentileBoundsAndMonotonicity) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Add(i);
  // The endpoints clamp to the observed extremes exactly.
  EXPECT_EQ(h.Percentile(0), 1.0);
  EXPECT_EQ(h.Percentile(100), 1000.0);
  double prev = h.Percentile(0);
  for (double p = 5; p <= 100; p += 5) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "percentile regressed at p=" << p;
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 1000.0);
    prev = v;
  }
}

TEST(HistogramTest, TopBucketInterpolatesToMax) {
  // Bucket 63 covers [2^62, inf): its ceiling is the observed max, not a
  // power of two. With samples straddling the 2^62 boundary, percentiles
  // must stay monotone and interpolate above the top bucket's floor
  // instead of collapsing onto it.
  const uint64_t kBoundary = 1ull << 62;
  Histogram h;
  h.Add(kBoundary / 2);      // bucket 62
  h.Add(kBoundary);          // bucket 63 floor
  h.Add(kBoundary + 1000);   // bucket 63
  h.Add(3 * kBoundary);      // bucket 63, above any 2^i ceiling <= 2^62
  EXPECT_EQ(h.Percentile(0), static_cast<double>(kBoundary / 2));
  EXPECT_EQ(h.Percentile(100), static_cast<double>(3 * kBoundary));
  // The top bucket holds 3 of 4 samples, so p90 lands inside it and must
  // interpolate strictly above the bucket floor (the old clamp pinned the
  // whole bucket to 2^62).
  EXPECT_GT(h.Percentile(90), static_cast<double>(kBoundary));
  double prev = h.Percentile(0);
  for (double p = 1; p <= 100; p += 1) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "percentile regressed at p=" << p;
    EXPECT_LE(v, static_cast<double>(3 * kBoundary));
    prev = v;
  }
}

TEST(HistogramTest, ZeroSamplesStayInRange) {
  Histogram h;
  h.Add(0);
  h.Add(0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(100), 0.0);
}

TEST(HistogramTest, MergeMatchesDirectBuild) {
  // Bucket contents are identical whether samples arrive via one histogram
  // or a merge of two, so every derived statistic must match exactly.
  Histogram a, b, direct;
  for (uint64_t i = 1; i <= 100; ++i) a.Add(i);
  for (uint64_t i = 101; i <= 200; ++i) b.Add(i);
  for (uint64_t i = 1; i <= 200; ++i) direct.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), direct.count());
  EXPECT_EQ(a.sum(), direct.sum());
  EXPECT_EQ(a.min(), direct.min());
  EXPECT_EQ(a.max(), direct.max());
  for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(a.Percentile(p), direct.Percentile(p)) << "p=" << p;
  }
}

TEST(HistogramTest, MergeWithEmpty) {
  Histogram a, empty;
  a.Add(7);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 7u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 7u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  for (uint64_t i = 1; i <= 50; ++i) h.Add(i);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
  // A cleared histogram accepts new samples as if freshly constructed.
  h.Add(3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.Percentile(50), 3.0);
}

}  // namespace
}  // namespace face
