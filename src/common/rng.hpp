// Deterministic pseudo-random number generation.
//
// Everything in the simulator that needs randomness (workload inputs,
// scheduler tiebreaks in tests, property-test case generation) goes through
// this seeded generator so that every run is reproducible. xoshiro256**
// seeded via splitmix64, the standard recipe.
#pragma once

#include <cstdint>

#include "common/hash.hpp"

namespace dqemu {

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x1234ABCDULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  constexpr result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    // Multiply-shift reduction; bias is negligible for simulator purposes.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace dqemu
