// DSM protocol message vocabulary (paper sections 4.2, 5.1, 5.2).
//
// Message-type space is partitioned across subsystems:
//   0x100-0x1FF  DSM coherence protocol (this file)
//   0x200-0x2FF  syscall delegation (sys/delegation.hpp)
//   0x300-0x3FF  thread management (core/node.hpp)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/message.hpp"

namespace dqemu::dsm {

enum class DsmMsg : std::uint32_t {
  // Slave -> master (manager thread).
  kReadReq = 0x100,   ///< a=page, b=faulting offset, c=tid
  kWriteReq = 0x101,  ///< a=page, b=faulting offset, c=tid
  kInvAck = 0x102,    ///< a=page, b=1 if dirty content attached (ex-owner)
  kDowngradeAck = 0x103,  ///< a=page, data=page content

  // Master -> slave (communicator thread).
  kPageData = 0x110,   ///< a=page, b=access (1=read, 2=rw), data=content
  kPageGrant = 0x111,  ///< a=page, b=access; no content (upgrade/re-grant)
  kRetry = 0x112,      ///< a=page: re-fault; the page was just split
  kInvalidate = 0x113, ///< a=page, b=1 if writeback of dirty content needed
  kDowngrade = 0x114,  ///< a=page: drop to read-only, send content back
  kShadowUpdate = 0x115,  ///< a=orig page, data=LE u32 shadow page numbers
  kForwardData = 0x116,   ///< a=page, data=content; unsolicited push (5.2)

  // Diff-encoded data plane (DESIGN.md §12). Payloads are the
  // mem/page_diff.hpp wire format: dirty-line bitmap + packed lines.
  kInvAckDiff = 0x117,       ///< a=page, b=1 (always dirty), data=diff
  kDowngradeAckDiff = 0x118, ///< a=page, data=diff vs the twin
  kPageDiff = 0x119,    ///< a=page, b=access, c=base epoch, d=new epoch,
                        ///< data=diff vs the requester's retained copy
  kForwardDiff = 0x11A, ///< a=page, c=base epoch, d=new epoch, data=diff
};

[[nodiscard]] constexpr bool is_dsm_message(std::uint32_t type) {
  return type >= 0x100 && type < 0x200;
}

/// Directory-addressed subset of the DSM vocabulary: requests and recall
/// acks. When a node hosts a home shard (DESIGN.md §17), these route to the
/// shard; everything else in the DSM range is client-addressed.
[[nodiscard]] constexpr bool is_directory_message(std::uint32_t type) {
  switch (static_cast<DsmMsg>(type)) {
    case DsmMsg::kReadReq:
    case DsmMsg::kWriteReq:
    case DsmMsg::kInvAck:
    case DsmMsg::kDowngradeAck:
    case DsmMsg::kInvAckDiff:
    case DsmMsg::kDowngradeAckDiff:
      return true;
    default:
      return false;
  }
}

/// Access codes carried in PageData/PageGrant `b` fields.
inline constexpr std::uint64_t kAccessRead = 1;
inline constexpr std::uint64_t kAccessWrite = 2;

/// Relay encoding for first-touch home handoff: see net/message.hpp
/// (relay_mark / relayed_requester) — shared with the sys plane.
using net::relay_mark;
using net::relayed_requester;

/// Sharer bitmask wide enough for 256 simulated nodes (the u32 mask the
/// directory used before home sharding capped the cluster at 32 nodes).
class NodeSet {
 public:
  static constexpr std::uint32_t kMaxNodes = 256;

  [[nodiscard]] static NodeSet single(NodeId n) {
    NodeSet s;
    s.add(n);
    return s;
  }

  void add(NodeId n) { bits_[word(n)] |= bit(n); }
  void remove(NodeId n) { bits_[word(n)] &= ~bit(n); }
  void clear() { bits_ = {}; }
  [[nodiscard]] bool contains(NodeId n) const {
    return (bits_[word(n)] & bit(n)) != 0;
  }
  [[nodiscard]] bool empty() const {
    for (const std::uint64_t w : bits_) {
      if (w != 0) return false;
    }
    return true;
  }
  [[nodiscard]] std::uint32_t count() const {
    std::uint32_t n = 0;
    for (std::uint64_t w : bits_) {
      while (w != 0) {
        w &= w - 1;
        ++n;
      }
    }
    return n;
  }
  [[nodiscard]] bool operator==(const NodeSet& other) const {
    return bits_ == other.bits_;
  }

 private:
  static constexpr std::size_t word(NodeId n) {
    return static_cast<std::size_t>(n) / 64;
  }
  static constexpr std::uint64_t bit(NodeId n) {
    return 1ULL << (static_cast<std::size_t>(n) % 64);
  }
  std::array<std::uint64_t, kMaxNodes / 64> bits_{};
};

/// Data-plane wire accounting: every DSM message that carries page content
/// (full or diff-encoded) is charged here so benches can assert transfer
/// volume from counters. `full_bytes` is the payload a full-page transfer
/// would have carried; the delta to the actual payload is the saving the
/// diff encoding bought. Loopback messages never touch the wire and are
/// not charged, matching the Network's own byte accounting.
inline void charge_data_plane(StatsRegistry& stats, const net::Message& msg,
                              std::uint64_t full_bytes) {
  if (msg.src == msg.dst) return;
  stats.add("dsm.bytes_on_wire", msg.wire_bytes());
  if (full_bytes > msg.data.size()) {
    stats.add("dsm.bytes_saved", full_bytes - msg.data.size());
  }
}

}  // namespace dqemu::dsm
