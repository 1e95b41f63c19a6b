#include "serve/load_generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hash.hpp"
#include "isa/syscall_abi.hpp"

namespace dqemu::serve {

namespace {

[[nodiscard]] std::uint64_t worker_key(NodeId node, GuestTid tid) {
  return (static_cast<std::uint64_t>(node) << 32) | tid;
}

}  // namespace

LoadGenerator::LoadGenerator(sim::EventQueue& queue, const ServeConfig& config,
                             StatsRegistry* stats, trace::Tracer* tracer,
                             Responder responder)
    : queue_(queue),
      config_(config),
      stats_(stats),
      trace_{tracer, trace::Cat::kServe, kMasterNode, trace::kTrackManager},
      responder_(std::move(responder)) {}

std::uint64_t LoadGenerator::draw(std::uint64_t counter,
                                  std::uint64_t salt) const {
  // Counter-based stream (same recipe as the fault injector): the value
  // depends only on (seed, salt, counter), never on call order.
  std::uint64_t state = config_.seed ^ (salt * 0xA24BAED4963EE407ULL) ^
                        (counter * 0x9FB21C651E98DF25ULL);
  return splitmix64(state);
}

double LoadGenerator::draw_unit(std::uint64_t counter,
                                std::uint64_t salt) const {
  return static_cast<double>(draw(counter, salt) >> 11) * 0x1.0p-53;
}

DurationPs LoadGenerator::draw_exponential(std::uint64_t counter,
                                           std::uint64_t salt,
                                           double mean_ps) const {
  // Inverse-CDF with u < 1 strictly, so the log is finite.
  const double u = draw_unit(counter, salt);
  return static_cast<DurationPs>(-std::log1p(-u) * mean_ps);
}

void LoadGenerator::start() {
  if (!config_.enabled || config_.requests == 0) return;
  if (config_.arrival == ArrivalProcess::kClosed) {
    // Every client's first issue is staggered by its own think draw, so a
    // client population never arrives as one thundering herd.
    for (std::uint32_t c = 0; c < config_.clients; ++c) {
      schedule_client_issue(c);
    }
  } else {
    schedule_open_arrival(0);
  }
}

void LoadGenerator::schedule_open_arrival(std::uint64_t n) {
  DurationPs gap = 0;
  if (config_.arrival == ArrivalProcess::kUniform) {
    gap = static_cast<DurationPs>(1e12 / config_.rate + 0.5);
  } else {
    gap = draw_exponential(n, kSaltArrival, 1e12 / config_.rate);
  }
  queue_.schedule_in(gap, [this] {
    issue_request(0);
    if (!done_issuing()) schedule_open_arrival(issued_);
  });
}

void LoadGenerator::schedule_client_issue(std::uint32_t client) {
  const DurationPs think = draw_exponential(
      think_draws_++, kSaltThink, static_cast<double>(config_.think_mean));
  queue_.schedule_in(think, [this, client] {
    // The issue target may have been reached while this think ran.
    if (done_issuing()) {
      release_parked_if_drained();
      return;
    }
    issue_request(client);
  });
}

void LoadGenerator::issue_request(std::uint32_t client) {
  assert(!done_issuing());
  const auto id = static_cast<std::uint32_t>(issued_);
  Request req;
  req.arrival = queue_.now();
  req.client = client;
  req.outstanding = config_.clones;

  // Service class + work units: keyed by the request number alone, so the
  // mix is identical across arrival processes and independent of timing.
  const std::uint64_t mix_total =
      config_.mix_cheap + config_.mix_medium + config_.mix_heavy;
  const std::uint64_t r = draw(id, kSaltClass) % mix_total;
  req.cls = r < config_.mix_cheap
                ? 0u
                : (r < config_.mix_cheap + config_.mix_medium ? 1u : 2u);
  const std::uint32_t base = req.cls == 0   ? config_.work_cheap
                             : req.cls == 1 ? config_.work_medium
                                            : config_.work_heavy;
  // Jitter in [base/2, 3*base/2): a mix of sizes inside each class.
  std::uint32_t work =
      base / 2 + static_cast<std::uint32_t>(draw(id, kSaltWork) % base);
  if (work == 0) work = 1;
  req.work = work & kWorkMask;

  if (trace_.on()) {
    req.flow = trace_.tracer->new_flow();
    trace_.record(queue_.now(), "serve.request", trace::Kind::kFlowBegin,
                  req.flow, id, req.cls);
  }

  requests_.push_back(req);
  arrivals_.push_back(req.arrival);
  ++issued_;
  if (stats_ != nullptr) stats_->add("serve.requests");

  for (std::uint32_t c = 0; c < config_.clones; ++c) {
    if (!parked_.empty()) {
      const Parked worker = parked_.front();
      parked_.pop_front();
      dispatch(id, worker);
    } else {
      pending_.push_back(id);
    }
  }
  // The last issue is the only transition of done_issuing(): any worker
  // still parked here could otherwise wait forever.
  release_parked_if_drained();
}

void LoadGenerator::dispatch(std::uint32_t request_id, const Parked& worker) {
  Request& req = requests_[request_id];
  running_[worker_key(worker.node, worker.tid)] = request_id;
  ++dispatched_;
  if (stats_ != nullptr) {
    stats_->add("serve.executions");
    stats_->histogram("serve.queue_ns")
        .record((queue_.now() - req.arrival) / time_literals::kNs);
  }
  trace_.emit(queue_.now(), "serve.dispatch", trace::Kind::kFlowStep, req.flow,
              request_id, worker.node);
  const std::uint32_t desc = (req.cls << kClassShift) | req.work;
  responder_(worker.node, worker.tid, static_cast<std::int64_t>(desc),
             worker.flow);
}

void LoadGenerator::on_get_request(NodeId src, GuestTid tid,
                                   std::uint64_t flow) {
  if (!pending_.empty()) {
    const std::uint32_t id = pending_.front();
    pending_.pop_front();
    dispatch(id, Parked{src, tid, flow});
    return;
  }
  if (done_issuing()) {
    if (stats_ != nullptr) stats_->add("serve.stop_signals");
    responder_(src, tid, kNoMoreWork, flow);
    return;
  }
  parked_.push_back(Parked{src, tid, flow});
  if (stats_ != nullptr) stats_->add("serve.parks");
}

void LoadGenerator::on_done(NodeId src, GuestTid tid, std::uint32_t checksum,
                            std::uint64_t flow) {
  const auto it = running_.find(worker_key(src, tid));
  if (it == running_.end()) {
    if (crash_tolerant_) {
      // At-least-once duplicate: the original kServeDone was processed but
      // its response died with the worker's old node, so the re-homed
      // thread re-issued the call. Acknowledge and move on.
      if (stats_ != nullptr) stats_->add("serve.dup_done_dropped");
      responder_(src, tid, 0, flow);
      return;
    }
    // kServeDone without an assigned execution: a guest bug.
    responder_(src, tid, -isa::kEINVAL, flow);
    return;
  }
  const std::uint32_t id = it->second;
  running_.erase(it);
  Request& req = requests_[id];
  assert(req.outstanding > 0);
  --req.outstanding;

  if (checksum != expected_checksum(req.work) && stats_ != nullptr) {
    stats_->add("serve.checksum_errors");
  }

  if (!req.retired) {
    // First reply wins: this execution's completion is the request's.
    req.retired = true;
    ++retired_;
    const DurationPs latency = queue_.now() - req.arrival;
    latencies_.push_back(latency);
    if (stats_ != nullptr) {
      stats_->add("serve.retired");
      stats_->histogram("serve.latency_ns")
          .record(latency / time_literals::kNs);
      if (config_.clones > 1) stats_->add("serve.clone_wins");
    }
    trace_.emit(queue_.now(), "serve.complete", trace::Kind::kFlowEnd,
                req.flow, id, latency / time_literals::kNs);
    if (config_.arrival == ArrivalProcess::kClosed) {
      schedule_client_issue(req.client);
    }
  } else if (stats_ != nullptr) {
    // A clone that lost the race; its work was redundant by design.
    stats_->add("serve.clone_wasted");
  }

  responder_(src, tid, 0, flow);
}

void LoadGenerator::on_node_crash(NodeId dead, NodeId replacement,
                                  std::span<const GuestTid> serveget_tids) {
  crash_tolerant_ = true;

  // Workers that died inside kServeGet: if an execution was checked out to
  // them, its descriptor response is gone — requeue it (the re-issued
  // kServeGet picks up fresh work, possibly this very request).
  for (const GuestTid tid : serveget_tids) {
    const auto it = running_.find(worker_key(dead, tid));
    if (it == running_.end()) continue;  // was parked, or never dispatched
    pending_.push_back(it->second);
    running_.erase(it);
    if (stats_ != nullptr) stats_->add("serve.requeued_executions");
  }

  // Every other execution on the dead node is mid-work on a re-homed
  // thread: re-key it so the kServeDone arriving from the replacement node
  // finds it. Keys are collected and sorted first (tids are cluster-unique,
  // so the new keys cannot collide) to keep map mutation order seeded only
  // by guest state, not by hash iteration.
  std::vector<std::uint64_t> stale;
  for (const auto& [key, id] : running_) {
    if ((key >> 32) == dead) stale.push_back(key);
  }
  std::sort(stale.begin(), stale.end());
  for (const std::uint64_t key : stale) {
    const std::uint32_t id = running_.at(key);
    running_.erase(key);
    running_[worker_key(replacement, static_cast<GuestTid>(key))] = id;
    if (stats_ != nullptr) stats_->add("serve.rekeyed_executions");
  }

  // Parked entries pointing at the dead node would dispatch work into the
  // void; the re-homed workers re-park from their new node.
  std::erase_if(parked_, [&](const Parked& p) { return p.node == dead; });
}

std::uint64_t LoadGenerator::digest() const {
  std::uint64_t h = fnv1a_seed();
  const auto fold = [&h](std::uint64_t v) { h = fnv1a_u64(v, h); };
  fold(issued_);
  fold(retired_);
  fold(dispatched_);
  for (const std::uint32_t id : pending_) fold(id);
  for (const Parked& p : parked_) {
    fold(p.node);
    fold(p.tid);
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(running_.size());
  for (const auto& [key, id] : running_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    fold(key);
    fold(running_.at(key));
  }
  for (const DurationPs latency : latencies_) fold(latency);
  return h;
}

void LoadGenerator::release_parked_if_drained() {
  if (!done_issuing() || !pending_.empty()) return;
  while (!parked_.empty()) {
    const Parked worker = parked_.front();
    parked_.pop_front();
    if (stats_ != nullptr) stats_->add("serve.stop_signals");
    responder_(worker.node, worker.tid, kNoMoreWork, worker.flow);
  }
}

}  // namespace dqemu::serve
