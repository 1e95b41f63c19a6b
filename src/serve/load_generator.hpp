// Virtual-time load generator for the serving plane (DESIGN.md §14).
//
// Lives on the master beside the syscall engine. Guest worker threads
// (workloads::serve_pool) pull work with the kServeGet syscall: the
// generator either hands out a pending request immediately or parks the
// worker in a FIFO — exactly the deferred-response mechanism FUTEX_WAIT
// uses — and completes it with kServeDone. Request arrivals are events on
// the shared EventQueue; every random draw (inter-arrival gap, service
// class, work jitter, think time) is a counter-based SplitMix64 value
// keyed by (seed, counter), so a run's entire request schedule is a pure
// function of the config. Latencies (arrival -> first reply) land in the
// stats registry's log-bucketed histograms; each request carries a trace
// flow id from arrival to completion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "sim/event_queue.hpp"
#include "trace/tracer.hpp"

namespace dqemu::serve {

class LoadGenerator {
 public:
  /// Sends the kSyscallResp that unblocks (node, tid) with `result` in a0.
  /// The core layer binds this to home 0's FutexService::send_response, so
  /// every dispatch pays the same manager service delay as any other
  /// response.
  using Responder = std::function<void(NodeId dst, GuestTid tid,
                                       std::int64_t result,
                                       std::uint64_t flow)>;

  /// kServeGet result for "all requests issued, pool may exit".
  static constexpr std::int64_t kNoMoreWork = -1;
  /// Work-descriptor encoding: class in the top nibble's lower bits, work
  /// units below (positive in 32-bit, so the guest tests sign for EOF).
  static constexpr std::uint32_t kClassShift = 28;
  static constexpr std::uint32_t kWorkMask = (1u << kClassShift) - 1;

  /// Guest-side checksum contract: every service kernel accumulates
  /// i = 1..work in 32-bit wrap-around, so the master can verify replies.
  [[nodiscard]] static constexpr std::uint32_t expected_checksum(
      std::uint32_t work) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(work) * (work + 1ULL)) / 2);
  }

  LoadGenerator(sim::EventQueue& queue, const ServeConfig& config,
                StatsRegistry& stats, trace::Tracer* tracer,
                Responder responder);

  /// Schedules the first arrivals (open loop) or the first client issues
  /// (closed loop). Call once, after the cluster is wired.
  void start();

  /// A worker asked for work (delegated kServeGet reached the master).
  void on_get_request(NodeId src, GuestTid tid, std::uint64_t flow);

  /// A worker finished its assigned execution (kServeDone), reporting the
  /// service kernel's checksum.
  void on_done(NodeId src, GuestTid tid, std::uint32_t checksum,
               std::uint64_t flow);

  /// Whole-node fault plane (DESIGN.md §18): node `dead` crashed and its
  /// workers were re-homed to `replacement`. `serveget_tids` (sorted) are
  /// the captured threads that died inside a kServeGet — their checked-out
  /// executions (descriptor response lost with the node) go back on the
  /// pending queue and their stale parked entries are dropped; every other
  /// execution running on the dead node is re-keyed to the replacement,
  /// whose re-issued kServeDone then retires it. Makes on_done tolerant of
  /// the at-least-once duplicate a re-issued kServeDone can produce.
  void on_node_crash(NodeId dead, NodeId replacement,
                     std::span<const GuestTid> serveget_tids);

  // ---- introspection (tests / benches) ----------------------------------
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  /// Requests retired by their first reply.
  [[nodiscard]] std::uint64_t retired() const { return retired_; }
  /// Executions dispatched (requests x clones when fully drained).
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  /// Arrival time of every issued request, in issue order.
  [[nodiscard]] const std::vector<TimePs>& arrival_times() const {
    return arrivals_;
  }
  /// Latency of every retired request, in retirement order.
  [[nodiscard]] const std::vector<DurationPs>& latencies() const {
    return latencies_;
  }

  /// FNV-1a fingerprint of the serving plane's queues and tallies
  /// (checkpoint component, DESIGN.md §18).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct Request {
    TimePs arrival = 0;
    std::uint32_t cls = 0;       ///< 0 cheap / 1 medium / 2 heavy
    std::uint32_t work = 0;      ///< jittered work units
    std::uint32_t client = 0;    ///< closed-loop issuer
    std::uint32_t outstanding = 0;  ///< clone executions not yet replied
    bool retired = false;
    std::uint64_t flow = 0;      ///< trace causal chain arrival->completion
  };
  struct Parked {
    NodeId node = kInvalidNode;
    GuestTid tid = kInvalidTid;
    std::uint64_t flow = 0;
  };

  // Draw salts: distinct deterministic streams off the one seed.
  static constexpr std::uint64_t kSaltArrival = 1;
  static constexpr std::uint64_t kSaltClass = 2;
  static constexpr std::uint64_t kSaltWork = 3;
  static constexpr std::uint64_t kSaltThink = 4;

  [[nodiscard]] std::uint64_t draw(std::uint64_t counter,
                                   std::uint64_t salt) const;
  /// Uniform double in [0, 1) from the (counter, salt) stream.
  [[nodiscard]] double draw_unit(std::uint64_t counter,
                                 std::uint64_t salt) const;
  /// Exponential with the given mean, from the (counter, salt) stream.
  [[nodiscard]] DurationPs draw_exponential(std::uint64_t counter,
                                            std::uint64_t salt,
                                            double mean_ps) const;
  [[nodiscard]] bool done_issuing() const {
    return issued_ >= config_.requests;
  }

  void schedule_open_arrival(std::uint64_t n);
  /// Creates request `issued_`, enqueues its clone executions, dispatches
  /// to parked workers.
  void issue_request(std::uint32_t client);
  /// Closed loop: arm the client's next issue after a think-time draw.
  void schedule_client_issue(std::uint32_t client);
  void dispatch(std::uint32_t request_id, const Parked& worker);
  /// Once the last request is issued and the execution queue is empty, any
  /// parked worker can only be waiting forever — release it with EOF.
  void release_parked_if_drained();

  sim::EventQueue& queue_;
  ServeConfig config_;
  StatsRegistry& stats_;
  trace::Site trace_;  ///< kServe records on the master's manager track
  Responder responder_;

  std::vector<Request> requests_;   ///< indexed by request id
  std::deque<std::uint32_t> pending_;  ///< undispatched executions (req ids)
  std::deque<Parked> parked_;
  /// (node << 32 | tid) -> request id of the execution in flight there.
  std::unordered_map<std::uint64_t, std::uint32_t> running_;
  std::vector<TimePs> arrivals_;
  std::vector<DurationPs> latencies_;
  std::uint64_t issued_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t think_draws_ = 0;
  /// Set once a crash was recovered: an unknown kServeDone is then an
  /// at-least-once duplicate (acknowledged silently), not a guest bug.
  bool crash_tolerant_ = false;
};

}  // namespace dqemu::serve
