// Deterministic pseudo-random generators for workloads and tests:
// xorshift64*, uniform helpers, Zipf, and the TPC-C NURand generator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace face {

/// Fast deterministic PRNG (xorshift64*). Not cryptographic; reproducible
/// across platforms, so a seed names one request stream everywhere.
class Random {
 public:
  explicit Random(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  /// Uniform integer in [lo, hi] inclusive (TPC-C convention).
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// True with probability pct/100.
  bool PercentTrue(int pct) { return static_cast<int>(Uniform(100)) < pct; }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  /// Random lowercase alphanumeric string of length in [min_len, max_len].
  std::string AlphaString(int min_len, int max_len);

  /// Random numeric string of exactly `len` digits.
  std::string NumString(int len);

 private:
  uint64_t state_;
};

/// Zipf-distributed generator over [0, n) with parameter `theta` (0 = uniform,
/// ~0.99 = heavily skewed). Uses the Gray et al. computation with cached zeta.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta, uint64_t seed);

  /// Next Zipf-distributed value in [0, n).
  uint64_t Next();

  /// Draw from here on exactly as a generator built with `seed` would,
  /// keeping the zeta sums (construction's cost: n `pow` terms).
  void Reseed(uint64_t seed) { rng_ = Random(seed); }

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Random rng_;
};

/// TPC-C NURand(A, x, y): non-uniform random over [x, y] (spec §2.1.6).
/// C constants are fixed at construction (the "C-load" values).
class TpccRandom {
 public:
  explicit TpccRandom(uint64_t seed)
      : rng_(seed),
        c_last_(rng_.UniformRange(0, 255)),
        c_id_(rng_.UniformRange(0, 1023)),
        ol_i_id_(rng_.UniformRange(0, 8191)) {}

  Random& rng() { return rng_; }

  /// Non-uniform customer id in [1, 3000].
  int64_t NURandCustomerId() { return NURand(1023, 1, 3000, c_id_); }
  /// Non-uniform item id in [1, 100000].
  int64_t NURandItemId() { return NURand(8191, 1, 100000, ol_i_id_); }
  /// Non-uniform customer last-name index in [0, 999].
  int64_t NURandLastName() { return NURand(255, 0, 999, c_last_); }

  /// TPC-C last-name syllable encoding of a number in [0, 999].
  static std::string LastName(int64_t num);

  /// Raw NURand formula, exposed for tests.
  int64_t NURand(int64_t a, int64_t x, int64_t y, int64_t c) {
    return (((rng_.UniformRange(0, a) | rng_.UniformRange(x, y)) + c) %
            (y - x + 1)) + x;
  }

 private:
  Random rng_;
  int64_t c_last_;
  int64_t c_id_;
  int64_t ol_i_id_;
};

}  // namespace face
