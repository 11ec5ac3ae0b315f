// Deterministic random-number generation for simulations.
//
// Every simulation run takes a single 64-bit master seed. Independent named
// substreams (arrivals, job sizes, service times, queue assignment, ...) are
// derived from it so that different scheduling policies can be compared under
// common random numbers: the k-th job is identical across policies.
//
// The generator is xoshiro256**, seeded via splitmix64 — self-contained,
// fast, and with well-understood statistical quality; we avoid
// std::mt19937_64 for speed and because its seeding from a single word is
// notoriously weak.
//
// The step and the draws live here, inline: the synthetic workload makes
// several draws per job, and a call per draw was a measurable share of a
// run. Their arithmetic is fixed — the sealed goldens depend on every
// stream bit for bit (util_rng_test records the first outputs).
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>

#include "util/assert.hpp"

namespace mcsim {

/// splitmix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed from a single 64-bit value (expanded through splitmix64).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random bits -> double in [0,1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    MCSIM_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t uniform_int(std::uint64_t n) {
    MCSIM_ASSERT(n > 0);
    // Lemire's nearly-divisionless method (128-bit multiply; the GCC/Clang
    // extension type is wrapped in __extension__ to stay -Wpedantic-clean).
    __extension__ using uint128 = unsigned __int128;
    std::uint64_t x = (*this)();
    uint128 m = static_cast<uint128>(x) * n;
    auto l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = (*this)();
        m = static_cast<uint128>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponential variate with the given mean (mean = 1/rate).
  double exponential_mean(double mean) {
    MCSIM_ASSERT(mean > 0.0);
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * factor;
    has_cached_normal_ = true;
    return u * factor;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Derive a substream seed from (master_seed, stream_name).
/// Uses FNV-1a over the name mixed through splitmix64, so streams with
/// different names are statistically independent.
std::uint64_t derive_stream_seed(std::uint64_t master_seed, std::string_view stream_name);

/// Convenience: an Rng positioned on the named substream.
Rng make_stream(std::uint64_t master_seed, std::string_view stream_name);

}  // namespace mcsim
