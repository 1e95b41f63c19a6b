// The one little-endian byte codec for hand-packed payloads: crash-plane
// thread captures, directory and futex shard handoffs, lease waiter lists
// and the futex table's checkpoint serialization. Writers append to a
// byte vector; the Reader checks every read against the end of its span,
// so a short payload fails loudly instead of reading past it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dqemu::le {

/// Appends the `n` low bytes of `v`, least significant first.
inline void put(std::vector<std::uint8_t>& out, std::uint64_t v,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put(out, v, 4);
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put(out, v, 8);
}

/// Sequential reader over a span of little-endian fields.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(take(4));
  }
  [[nodiscard]] std::uint64_t u64() { return take(8); }

  /// The next `n` bytes, unparsed.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    assert(n <= data_.size() && "payload shorter than its fields");
    const std::span<const std::uint8_t> out = data_.first(n);
    data_ = data_.subspan(n);
    return out;
  }

  /// Bytes not read yet.
  [[nodiscard]] std::size_t remaining() const { return data_.size(); }

 private:
  std::uint64_t take(std::size_t n) {
    std::uint64_t v = 0;
    const std::span<const std::uint8_t> raw = bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
};

}  // namespace dqemu::le
