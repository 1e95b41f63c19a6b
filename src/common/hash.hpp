// The repo's two hashes. 64-bit FNV-1a is the one content fingerprint:
// every checkpoint component (node memory and threads, directory shards,
// futex tables, the serving plane) folds through it, words least
// significant byte first — the order of le_bytes.hpp — so a digest is the
// same on any host. SplitMix64 is the one mixer: it seeds the Rng, draws
// every counter-based fault and load stream, and places hashed homes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dqemu {

[[nodiscard]] constexpr std::uint64_t fnv1a_seed() {
  return 0xCBF29CE484222325ULL;
}
[[nodiscard]] constexpr std::uint64_t fnv1a_prime() {
  return 0x00000100000001B3ULL;
}

/// Folds the `n` low bytes of `v` into `h`, least significant first.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t v,
                                                 std::size_t n,
                                                 std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * fnv1a_prime();
  }
  return h;
}

/// Folds `n` zero bytes into `h`, exactly as fnv1a() over them would. A
/// zero byte leaves the xor a no-op, so the run is one multiply by
/// prime^n, taken by squaring: an unbacked page digests in O(log n).
[[nodiscard]] constexpr std::uint64_t fnv1a_zeros(std::uint64_t n,
                                                  std::uint64_t h) {
  for (std::uint64_t power = fnv1a_prime(); n != 0; n >>= 1) {
    if ((n & 1) != 0) h *= power;
    power *= power;
  }
  return h;
}

[[nodiscard]] constexpr std::uint64_t fnv1a_u32(std::uint32_t v,
                                                std::uint64_t h) {
  return fnv1a_word(v, 4, h);
}
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t v,
                                                std::uint64_t h) {
  return fnv1a_word(v, 8, h);
}

[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes, std::uint64_t h = fnv1a_seed()) {
  for (const std::uint8_t b : bytes) h = fnv1a_word(b, 1, h);
  return h;
}

/// SplitMix64 step: advances `state` and returns its mixed value.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace dqemu
