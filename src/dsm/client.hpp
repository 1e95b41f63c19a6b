// Node-side DSM cache controller.
//
// One per node (including the master, whose messages loop back). Sends
// page requests on guest faults, coalesces concurrent faults for the same
// page, installs granted pages, and complies with invalidate/downgrade/
// shadow-update traffic from the directory. Invalidation also snoops the
// node's LL/SC table (section 4.4's false-positive kill) and translation
// cache (guest code pages).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/translation.hpp"
#include "dsm/wire.hpp"
#include "dsm/placement.hpp"
#include "mem/address_space.hpp"
#include "mem/page_diff.hpp"
#include "mem/shadow_map.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/timer.hpp"
#include "trace/tracer.hpp"

namespace dqemu::dsm {

class DsmClient {
 public:
  /// `queue` is the node's own event queue: its clock stamps the trace and
  /// its timers run the request watchdogs. `wake_page` is invoked when a
  /// page request completes (grant or retry); the node layer unblocks the
  /// guest threads parked on it.
  /// `llsc` / `tcache` may be null in unit tests. `enable_diff_transfers`
  /// must match the directory's setting (cluster-wide DsmConfig).
  /// `request_timeout` > 0 arms a per-request watchdog (DESIGN.md §13) that
  /// re-issues a page request still outstanding after that long; it is only
  /// active when the network's fault path is (requests cannot get stuck on
  /// the reliable wire).
  DsmClient(NodeId self, net::Network& network, sim::EventQueue& queue,
            mem::AddressSpace& space, mem::ShadowMap& shadow,
            dbt::LlscTable* llsc, dbt::TranslationCache* tcache,
            StatsRegistry* stats,
            std::function<void(std::uint32_t page)> wake_page,
            trace::Tracer* tracer = nullptr,
            bool enable_diff_transfers = false,
            DurationPs request_timeout = 0, HomeView* homes = nullptr);

  /// Issues a read or write request for `page` unless one is already in
  /// flight (in which case the write intent is merged: a still-unsatisfied
  /// writer simply re-faults after the read grant lands). `offset` is the
  /// faulting byte offset within the page, feeding the master's
  /// false-sharing detector.
  void request_page(std::uint32_t page, std::uint32_t offset, bool write,
                    GuestTid tid);

  /// True while a request for `page` is outstanding.
  [[nodiscard]] bool pending(std::uint32_t page) const {
    return pending_.contains(page);
  }

  /// Crash last gasp (DESIGN.md §18): drops every in-flight request with
  /// its retransmission watchdog (the RAII timers cancel on destruction),
  /// so nothing fires into the dead node's freed thread state. The captured
  /// threads re-fault on their new node, which re-issues the requests.
  void crash_teardown() { pending_.clear(); }

  /// Dispatches an incoming DSM message addressed to this node.
  void handle_message(const net::Message& msg);

  [[nodiscard]] NodeId self() const { return self_; }

  /// True when the diff data plane is enabled for this run.
  [[nodiscard]] bool diff_enabled() const {
    return enable_diff_;
  }

  /// Twin (pristine writable-page copy) bookkeeping, for tests.
  [[nodiscard]] bool has_twin(std::uint32_t page) const {
    return twins_.has(page);
  }

 private:
  void on_page_data(const net::Message& msg, bool grant_only);
  void on_page_diff(const net::Message& msg);
  void on_retry(const net::Message& msg);
  void on_invalidate(const net::Message& msg);
  void on_downgrade(const net::Message& msg);
  void on_shadow_update(const net::Message& msg);
  void on_forward_data(const net::Message& msg);
  void on_forward_diff(const net::Message& msg);
  /// Grants/keeps access after an unsolicited push installed fresh content
  /// (shared logic of the full and diff forward paths).
  void finish_forward_install(const net::Message& msg);
  /// Snapshots the twin of `page` when a write grant lands (no-op unless
  /// the diff plane is on; never refreshes an existing twin).
  void capture_twin(std::uint32_t page);
  /// Diff-encodes the recalled page against its twin into `ack` (type
  /// kInvAckDiff/kDowngradeAckDiff) or falls back to attaching the full
  /// page (kInvAck/kDowngradeAck) when no twin exists.
  void encode_writeback(net::Message& ack, std::uint32_t page,
                        DsmMsg full_type, DsmMsg diff_type);
  void drop_page_locally(std::uint32_t page);
  /// Closes the fault's causal chain (grant installed or split retry).
  void end_fault_flow(std::uint32_t page, bool retried);
  /// (Re-)arms the request watchdog for a pending page.
  void arm_watchdog(std::uint32_t page);
  /// Watchdog fire: the request has been outstanding for its full timeout —
  /// re-issue it (the directory tolerates duplicates) and back off.
  void on_request_timeout(std::uint32_t page);
  /// Home of `page` (kMasterNode unless sharding is on), and the learn
  /// hook that records authoritative senders under first-touch placement.
  [[nodiscard]] NodeId home_of(std::uint32_t page) const {
    return homes_ != nullptr ? homes_->home_of(page) : kMasterNode;
  }
  void learn_home(std::uint32_t page, NodeId home) {
    if (homes_ != nullptr) homes_->learn(page, home);
  }

  NodeId self_;
  net::Network& network_;
  sim::EventQueue& queue_;
  mem::AddressSpace& space_;
  mem::ShadowMap& shadow_;
  dbt::LlscTable* llsc_;
  dbt::TranslationCache* tcache_;
  StatsRegistry* stats_;
  std::function<void(std::uint32_t)> wake_page_;
  trace::Site trace_;  ///< kDsm records on this node's track
  bool enable_diff_ = false;
  /// Pristine copies of writable pages (diff plane only): captured at
  /// write-grant time, diffed against at recall, dropped with the page.
  mem::TwinStore twins_;
  DurationPs request_timeout_ = 0;
  /// Outstanding request state for a page.
  struct Pending {
    bool write = false;
    std::uint64_t flow = 0;  ///< flight-recorder chain of this fault
    std::uint32_t offset = 0;  ///< original faulting offset, for re-issue
    GuestTid tid = 0;
    DurationPs timeout = 0;  ///< current watchdog period (backed off 2x)
    std::unique_ptr<sim::Timer> watchdog;  ///< cancelled by completion
  };
  std::unordered_map<std::uint32_t, Pending> pending_;
  /// Null in single-master mode; the node's placement view when sharded.
  HomeView* homes_ = nullptr;
};

}  // namespace dqemu::dsm
