#include "dsm/directory.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/hash.hpp"
#include "common/le_bytes.hpp"
#include "common/log.hpp"

namespace dqemu::dsm {

Directory::Directory(net::Network& network, sim::EventQueue& queue,
                     mem::AddressSpace& home, Params params,
                     StatsRegistry* stats, trace::Tracer* tracer)
    : network_(network),
      queue_(queue),
      home_(home),
      params_(params),
      stats_(stats),
      trace_{tracer, trace::Cat::kDsm, params.self, trace::kTrackManager},
      entries_(home.num_pages()),
      shadow_of_(home.num_pages()),
      shadow_next_(params.shadow_pool_first_page) {
  assert(params_.node_count >= 1 && params_.node_count <= NodeSet::kMaxNodes);
  assert(params_.shadow_pool_first_page + params_.shadow_pool_page_count <=
         home.num_pages());
  streams_.resize(params_.node_count,
                  StreamDetector(params_.dsm.forward_streams));
  manager_free_.resize(params_.node_count, 0);
  home_msgs_counter_ = "dsm.home_msgs." + std::to_string(params_.self);
  if (!params_.sharded) {
    // The master boots owning everything (it loaded the program)...
    home_.set_all_access(mem::PageAccess::kReadWrite);
  } else {
    homed_.assign(home.num_pages(), false);
  }
  // The shadow pool (this instance's slice of it, when sharded) starts
  // kHome with no access anywhere: no application code may touch it.
  for (std::uint32_t i = 0; i < params_.shadow_pool_page_count; ++i) {
    const std::uint32_t page = params_.shadow_pool_first_page + i;
    entries_[page].state = PageState::kHome;
    entries_[page].owner = kInvalidNode;
    home_.set_access(page, mem::PageAccess::kNone);
  }
}

net::Message Directory::make(NodeId dst, DsmMsg type, std::uint64_t a,
                             std::uint64_t b) const {
  net::Message msg;
  msg.src = params_.self;
  msg.dst = dst;
  msg.type = static_cast<std::uint32_t>(type);
  msg.a = a;
  msg.b = b;
  return msg;
}

void Directory::send(net::Message msg) {
  // Each slave has a dedicated manager thread on the master (paper
  // Fig. 2); messages to that slave serialize on it. Directory state
  // machine work adds a small fixed cost; speculative pushes are batched
  // stream operations and much cheaper than demand handling.
  // Cheap messages: speculative pushes (batched stream work), no-payload
  // grants (no page preparation / fault hand-off), and loopback traffic to
  // the home's own client (a function call, not a manager wakeup).
  const bool cheap =
      msg.type == static_cast<std::uint32_t>(DsmMsg::kForwardData) ||
      msg.type == static_cast<std::uint32_t>(DsmMsg::kForwardDiff) ||
      msg.type == static_cast<std::uint32_t>(DsmMsg::kPageGrant) ||
      msg.dst == params_.self;
  const DurationPs service =
      params_.machine.cycles(params_.dsm.directory_cycles) +
      (cheap ? params_.dsm.forward_service : params_.dsm.manager_service);
  TimePs& manager_free = manager_free_[msg.dst];
  const TimePs start = std::max(queue_.now(), manager_free);
  manager_free = start + service;
  // Manager occupancy span: the per-slave manager thread is busy preparing
  // this message from `start` until it hands it to the NIC. Sequential per
  // manager track, so sync B/E nesting holds.
  if (trace_.on()) {
    const trace::Site manager{
        trace_.tracer, trace::Cat::kDsm, params_.self,
        static_cast<std::uint16_t>(trace::kTrackManagerBase + msg.dst)};
    manager.record(start, "dsm.manager", trace::Kind::kSpanBegin, msg.flow,
                   msg.a, msg.type);
    manager.record(manager_free, "dsm.manager", trace::Kind::kSpanEnd,
                   msg.flow, msg.a, msg.type);
  }
  queue_.schedule_at(manager_free, [this, m = std::move(msg)]() mutable {
    network_.send(std::move(m));
  });
}

void Directory::send_chained(net::Message msg, std::uint64_t flow) {
  msg.flow = flow;
  send(std::move(msg));
}

void Directory::handle_message(const net::Message& msg) {
  // Per-home protocol-load counter: the spread of these across homes is
  // the directory-load-evenness figure (EXPERIMENTS.md).
  if (stats_ != nullptr) stats_->add(home_msgs_counter_);
  switch (static_cast<DsmMsg>(msg.type)) {
    case DsmMsg::kReadReq: return on_request(msg, /*write=*/false);
    case DsmMsg::kWriteReq: return on_request(msg, /*write=*/true);
    case DsmMsg::kInvAck:
    case DsmMsg::kInvAckDiff: return on_inv_ack(msg);
    case DsmMsg::kDowngradeAck:
    case DsmMsg::kDowngradeAckDiff: return on_downgrade_ack(msg);
    default:
      assert(false && "non-directory DSM message routed to Directory");
  }
}

// ---- diff data plane (DESIGN.md §12) ---------------------------------------

std::uint64_t Directory::epoch(std::uint32_t page) const {
  const auto it = diff_.find(page);
  return it == diff_.end() ? 0 : it->second.epoch;
}

std::uint64_t Directory::node_epoch(std::uint32_t page, NodeId node) const {
  const auto it = diff_.find(page);
  return it == diff_.end() ? kNoEpoch : it->second.node_epoch[node];
}

Directory::DiffState& Directory::diff_state(std::uint32_t page) {
  auto [it, inserted] = diff_.try_emplace(page);
  if (inserted) {
    it->second.node_epoch.assign(params_.node_count, kNoEpoch);
  }
  return it->second;
}

void Directory::record_home_update(std::uint32_t page, std::uint64_t mask,
                                   bool known) {
  if (!diff_enabled()) return;
  DiffState& st = diff_state(page);
  if (known && mask == 0) return;  // byte-identical writeback: same version
  ++st.epoch;
  if (known) {
    st.history.push_back(mask);
    if (st.history.size() > params_.dsm.diff_history_depth) {
      st.history.erase(st.history.begin());
    }
  } else {
    // The changed lines are unknown (full-page writeback, or the master
    // mutated its owned home copy in place): every diff base that predates
    // this version is unusable, so the history restarts here.
    st.history.clear();
  }
}

void Directory::record_node_copy(std::uint32_t page, NodeId node) {
  if (!diff_enabled()) return;
  DiffState& st = diff_state(page);
  st.node_epoch[node] = st.epoch;
}

std::uint64_t Directory::apply_writeback_diff(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  assert(diff_enabled() && "diff writeback received with diff plane off");
  const std::uint64_t mask = mem::decode_diff_mask(msg.data);
  const bool applied = mem::apply_diff(msg.data, home_.page_data(page),
                                       mem::diff_line_bytes(home_.page_size()));
  assert(applied && "malformed writeback diff payload");
  (void)applied;
  record_home_update(page, mask, /*known=*/true);
  record_node_copy(page, msg.src);
  if (stats_ != nullptr) stats_->add("dsm.diff_writebacks_applied");
  trace_.step(queue_.now(), "dsm.diff_writeback", msg.flow, page, mask);
  return mask;
}

net::Message Directory::make_data_message(NodeId dst, std::uint32_t page,
                                          std::uint64_t access, bool forward) {
  net::Message msg = make(
      dst, forward ? DsmMsg::kForwardData : DsmMsg::kPageData, page, access);
  const auto data = home_.page_data(page);
  if (diff_enabled()) {
    DiffState& st = diff_state(page);
    const std::uint64_t held = st.node_epoch[dst];
    if (held != kNoEpoch && st.epoch - held <= st.history.size()) {
      // The requester's retained bytes are `st.epoch - held` versions old
      // and the history still covers every transition since: the union of
      // those masks is exactly the set of lines that differ.
      std::uint64_t mask = 0;
      for (std::uint64_t i = 0; i < st.epoch - held; ++i) {
        mask |= st.history[st.history.size() - 1 - i];
      }
      msg.type = static_cast<std::uint32_t>(forward ? DsmMsg::kForwardDiff
                                                    : DsmMsg::kPageDiff);
      msg.c = held;
      msg.d = st.epoch;
      msg.data =
          mem::encode_diff(mask, data, mem::diff_line_bytes(home_.page_size()));
      if (stats_ != nullptr) {
        stats_->add(forward ? "dsm.diff_forwards" : "dsm.diff_grants");
      }
      return msg;
    }
    if (stats_ != nullptr) {
      stats_->add(held == kNoEpoch ? "dsm.diff_fallback_unknown"
                                   : "dsm.diff_fallback_stale");
    }
  }
  msg.data.assign(data.begin(), data.end());
  return msg;
}

void Directory::note_write_pattern(Entry& entry, NodeId node,
                                   std::uint32_t offset) {
  const std::uint32_t shard_size = home_.page_size() / params_.dsm.split_shards;
  const auto shard = static_cast<std::uint8_t>(offset / shard_size);
  if (entry.fs_last_node != kInvalidNode && entry.fs_last_node != node &&
      entry.fs_last_shard != shard) {
    ++entry.fs_count;
  }
  entry.fs_last_node = node;
  entry.fs_last_shard = shard;
}

bool Directory::should_split(const Entry& entry, std::uint32_t page) const {
  return params_.dsm.enable_splitting &&
         entry.state != PageState::kSplit && !in_shadow_pool(page) &&
         entry.fs_count >= params_.dsm.split_threshold &&
         shadow_next_ + params_.dsm.split_shards <=
             params_.shadow_pool_first_page + params_.shadow_pool_page_count;
}

void Directory::on_request(const net::Message& msg, bool write) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  assert(page < entries_.size());
  Entry& entry = entries_[page];
  if (stats_ != nullptr) {
    stats_->add(write ? "dir.write_reqs" : "dir.read_reqs");
  }
  if (params_.sharded) homed_[page] = true;

  // The requester is the wire-level sender unless the master relayed the
  // request here on the sender's behalf (first-touch placement).
  const Request req{relayed_requester(msg, msg.c), write,
                    static_cast<std::uint32_t>(msg.b),
                    static_cast<GuestTid>(msg.c), msg.flow};
  trace_.step(queue_.now(), "dsm.dir.request", req.flow, page,
              (static_cast<std::uint64_t>(entry.state) << 1) | (write ? 1 : 0));

  // A request racing its sender's crash notification is dropped on the
  // floor: granting to a ghost would strand the page Modified-by-nobody.
  if (dead_nodes_.count(req.node) != 0) {
    if (stats_ != nullptr) stats_->add("dir.dead_reqs_dropped");
    return;
  }

  // A request that arrives after the page was split raced with the shadow
  // broadcast: tell the node to re-fault through its (by now updated) map.
  if (entry.state == PageState::kSplit) {
    net::Message retry = make(req.node, DsmMsg::kRetry, page);
    retry.flow = req.flow;
    send(std::move(retry));
    if (stats_ != nullptr) stats_->add("dir.retries");
    return;
  }

  if (write) note_write_pattern(entry, req.node, req.offset);

  if (entry.busy) {
    entry.queue.push_back(req);
    if (stats_ != nullptr) stats_->add("dir.queued_reqs");
    trace_.step(queue_.now(), "dsm.dir.queued", req.flow, page,
                entry.queue.size());
    return;
  }
  start_transaction(page, req);
}

void Directory::start_transaction(std::uint32_t page, const Request& req) {
  Entry& entry = entries_[page];
  assert(!entry.busy);
  entry.busy = true;
  entry.current = req;
  entry.splitting = false;
  entry.acks_outstanding = 0;

  if (should_split(entry, page)) {
    // Recall every cached copy, then split (complete_transaction).
    entry.splitting = true;
    if (entry.state == PageState::kModified) {
      if (entry.owner == params_.self) {
        // Home copy is the owned copy; nothing to recall.
        home_.set_access(page, mem::PageAccess::kNone);
      } else {
        send_chained(make(entry.owner, DsmMsg::kInvalidate, page, 1),
                     req.flow);
        ++entry.acks_outstanding;
      }
    } else if (entry.state == PageState::kShared) {
      for (NodeId n = 0; n < params_.node_count; ++n) {
        if (entry.sharers.contains(n)) {
          send_chained(make(n, DsmMsg::kInvalidate, page, 0), req.flow);
          ++entry.acks_outstanding;
        }
      }
    }
    if (entry.acks_outstanding == 0) complete_transaction(page);
    return;
  }

  if (req.write) {
    switch (entry.state) {
      case PageState::kModified:
        if (entry.owner == req.node) {
          grant_and_finish(page);  // benign re-grant
          return;
        }
        send_chained(make(entry.owner, DsmMsg::kInvalidate, page, 1),
                     req.flow);
        entry.acks_outstanding = 1;
        if (stats_ != nullptr) stats_->add("dir.owner_recalls");
        return;
      case PageState::kShared: {
        for (NodeId n = 0; n < params_.node_count; ++n) {
          if (n != req.node && entry.sharers.contains(n)) {
            send_chained(make(n, DsmMsg::kInvalidate, page, 0), req.flow);
            ++entry.acks_outstanding;
          }
        }
        if (stats_ != nullptr && entry.acks_outstanding > 0)
          stats_->add("dir.sharer_invalidations", entry.acks_outstanding);
        if (entry.acks_outstanding == 0) complete_transaction(page);
        return;
      }
      case PageState::kHome:
        complete_transaction(page);
        return;
      case PageState::kSplit:
        assert(false);
        return;
    }
  } else {
    switch (entry.state) {
      case PageState::kModified:
        if (entry.owner == req.node) {
          grant_and_finish(page);
          return;
        }
        send_chained(make(entry.owner, DsmMsg::kDowngrade, page), req.flow);
        entry.acks_outstanding = 1;
        if (stats_ != nullptr) stats_->add("dir.downgrades");
        return;
      case PageState::kShared:
      case PageState::kHome:
        complete_transaction(page);
        return;
      case PageState::kSplit:
        assert(false);
        return;
    }
  }
}

void Directory::on_inv_ack(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  Entry& entry = entries_[page];
  assert(entry.busy && entry.acks_outstanding > 0);
  if (static_cast<DsmMsg>(msg.type) == DsmMsg::kInvAckDiff) {
    assert(msg.b == 1);
    apply_writeback_diff(msg);
  } else if (msg.b == 1) {
    // Full-page writeback from the former owner: refresh home storage.
    // The changed lines are unknown (the owner had no twin — e.g. the
    // master's boot-time ownership), so the diff history restarts.
    assert(msg.data.size() == home_.page_size());
    std::memcpy(home_.page_data(page).data(), msg.data.data(),
                msg.data.size());
    record_home_update(page, 0, /*known=*/false);
    record_node_copy(page, msg.src);
  }
  if (--entry.acks_outstanding == 0) complete_transaction(page);
}

void Directory::on_downgrade_ack(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  Entry& entry = entries_[page];
  assert(entry.busy && entry.acks_outstanding > 0);
  if (static_cast<DsmMsg>(msg.type) == DsmMsg::kDowngradeAckDiff) {
    apply_writeback_diff(msg);
  } else {
    assert(msg.data.size() == home_.page_size());
    std::memcpy(home_.page_data(page).data(), msg.data.data(), msg.data.size());
    record_home_update(page, 0, /*known=*/false);
    record_node_copy(page, msg.src);
  }
  // The former owner keeps a read-only copy.
  entry.state = PageState::kShared;
  entry.sharers = NodeSet::single(entry.owner);
  entry.owner = kInvalidNode;
  if (--entry.acks_outstanding == 0) complete_transaction(page);
}

void Directory::complete_transaction(std::uint32_t page) {
  Entry& entry = entries_[page];
  if (entry.splitting) {
    perform_split(page);
    return;
  }
  grant_and_finish(page);
}

void Directory::grant_and_finish(std::uint32_t page) {
  Entry& entry = entries_[page];
  const Request& req = entry.current;
  const bool already_sharer = entry.sharers.contains(req.node);
  const bool already_owner =
      entry.state == PageState::kModified && entry.owner == req.node;

  // Never grant to a ghost: the requester died while its transaction was
  // in flight. For a write the recalls already ran — every cached copy is
  // invalidated and (unless the ghost was already the owner) the home
  // bytes are fresh — so the page parks kHome. A dead owner's entry is
  // left as-is for the crash flush / dead-node sweep to reclaim.
  if (dead_nodes_.count(req.node) != 0) {
    if (req.write && !already_owner) {
      entry.state = PageState::kHome;
      entry.owner = kInvalidNode;
      entry.sharers.clear();
    }
    if (stats_ != nullptr) stats_->add("dir.dead_grants_skipped");
    finish_entry(page);
    return;
  }

  // A request from the current owner (a duplicate/raced message: owners
  // never fault) must not demote the entry to Shared — the home copy may
  // be stale, and only the owner holds the fresh bytes. Re-grant in place.
  if (already_owner) {
    send_chained(make(req.node, DsmMsg::kPageGrant, page, kAccessWrite),
                 req.flow);
    if (stats_ != nullptr) stats_->add("dir.grants_no_data");
    finish_entry(page);
    return;
  }

  if (req.write) {
    entry.state = PageState::kModified;
    entry.owner = req.node;
    entry.sharers.clear();
  } else {
    entry.state = PageState::kShared;
    entry.sharers.add(req.node);
    entry.owner = kInvalidNode;
  }

  const std::uint64_t access = req.write ? kAccessWrite : kAccessRead;
  trace_.step(queue_.now(), "dsm.dir.grant", req.flow, page,
              (static_cast<std::uint64_t>(entry.state) << 1) | access);
  if (already_sharer || already_owner) {
    // Requester's copy is fresh: upgrade/re-grant without content.
    send_chained(make(req.node, DsmMsg::kPageGrant, page, access), req.flow);
    if (stats_ != nullptr) stats_->add("dir.grants_no_data");
  } else {
    net::Message msg =
        make_data_message(req.node, page, access, /*forward=*/false);
    charge_data_plane(stats_, msg, home_.page_size());
    record_node_copy(page, req.node);
    send_chained(std::move(msg), req.flow);
    if (stats_ != nullptr) stats_->add("dir.grants_with_data");
  }

  // A write grant makes the home copy stale, including the home node's own
  // mapping of it (unless the home is the new owner).
  if (req.write && req.node != params_.self) {
    home_.set_access(page, mem::PageAccess::kNone);
  }

  // Forwarding feeds on read streams only: pushing Shared copies into a
  // write stream would make every subsequent owner write pay an extra
  // invalidation round-trip.
  if (!req.write) maybe_forward(req.node, page);
  finish_entry(page);
}

void Directory::finish_entry(std::uint32_t page) {
  Entry& entry = entries_[page];
  entry.busy = false;
  entry.splitting = false;
  if (!entry.queue.empty()) {
    const Request next = entry.queue.front();
    entry.queue.pop_front();
    if (entry.state == PageState::kSplit) {
      send_chained(make(next.node, DsmMsg::kRetry, page), next.flow);
      if (stats_ != nullptr) stats_->add("dir.retries");
      finish_entry(page);
      return;
    }
    start_transaction(page, next);
  }
}

void Directory::perform_split(std::uint32_t page) {
  Entry& entry = entries_[page];
  const std::uint32_t shards = params_.dsm.split_shards;
  const std::uint32_t shard_size = home_.page_size() / shards;
  assert(shadow_next_ + shards <=
         params_.shadow_pool_first_page + params_.shadow_pool_page_count);

  // Allocate shadow pages and distribute the content: shard s keeps its
  // bytes at the *same page offset* in shadow page s (paper figure 4).
  std::vector<std::uint32_t> shadows(shards);
  const auto src = home_.page_data(page);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shadows[s] = shadow_next_++;
    auto dst = home_.page_data(shadows[s]);
    std::memset(dst.data(), 0, dst.size());
    std::memcpy(dst.data() + s * shard_size, src.data() + s * shard_size,
                shard_size);
    Entry& shadow_entry = entries_[shadows[s]];
    shadow_entry.state = PageState::kHome;
    shadow_entry.owner = kInvalidNode;
    shadow_entry.sharers.clear();
    if (params_.sharded) homed_[shadows[s]] = true;
  }
  shadow_of_[page] = shadows;
  entry.state = PageState::kSplit;
  entry.owner = kInvalidNode;
  entry.sharers.clear();
  // The original page is retired and the shadow pages start life as fresh
  // home content: no diff base survives the split on either side.
  diff_.erase(page);
  for (const std::uint32_t shadow : shadows) diff_.erase(shadow);
  home_.set_access(page, mem::PageAccess::kNone);
  ++splits_;
  if (stats_ != nullptr) stats_->add("dir.splits");
  trace_.step(queue_.now(), "dsm.split", entry.current.flow, page, shards);
  DQEMU_DEBUG("directory: split page %u into %u shadows starting at %u", page,
              shards, shadows[0]);

  // Broadcast the mapping-table update, then tell the requester (and any
  // queued requesters) to re-fault. Per-channel FIFO guarantees every node
  // updates its map before a retry reaches it.
  net::Message update = make(0, DsmMsg::kShadowUpdate, page);
  update.data.resize(shards * 4);
  std::memcpy(update.data.data(), shadows.data(), shards * 4);
  for (NodeId n = 0; n < params_.node_count; ++n) {
    net::Message m = update;
    m.dst = n;
    send(std::move(m));
  }
  send_chained(make(entry.current.node, DsmMsg::kRetry, page),
               entry.current.flow);
  while (!entry.queue.empty()) {
    send_chained(make(entry.queue.front().node, DsmMsg::kRetry, page),
                 entry.queue.front().flow);
    entry.queue.pop_front();
  }
  entry.fs_count = 0;
  entry.fs_last_node = kInvalidNode;
  entry.busy = false;
  entry.splitting = false;
}

void Directory::maybe_forward(NodeId requester, std::uint32_t page) {
  if (!params_.dsm.enable_forwarding) return;
  const std::uint32_t run = streams_[requester].on_request(page);
  if (run < params_.dsm.forward_trigger) return;

  // Back-pressure: when this home's egress link is already backed up,
  // speculative pushes would head-of-line-block demand grants. Skip; the
  // stream stays alive and resumes pushing once the NIC drains.
  using time_literals::kUs;
  if (network_.egress_free_at(params_.self) > queue_.now() + 2000 * kUs) {
    if (stats_ != nullptr) stats_->add("dir.forwards_skipped_backpressure");
    return;
  }

  // Readahead-style window: grows with the observed run length, capped at
  // forward_depth — short streams (a thread's partition) overshoot little,
  // long walks reach the full pipeline depth.
  const std::uint32_t window = std::min(run, params_.dsm.forward_depth);
  std::uint32_t last_pushed = page;
  for (std::uint32_t p = page + 1;
       p <= page + window && p < entries_.size(); ++p) {
    Entry& entry = entries_[p];
    // A shard may only speculate on pages it homes: anything it has not
    // already served belongs (or may belong) to another home.
    if (params_.sharded && !homed_[p]) continue;
    if (entry.busy || entry.state == PageState::kSplit ||
        in_shadow_pool(p)) {
      continue;
    }
    if (entry.sharers.contains(requester)) continue;  // already cached there
    // Never push a page some other node has been writing: the Shared copy
    // would tax every later write with an invalidation round-trip.
    if (entry.fs_last_node != kInvalidNode && entry.fs_last_node != requester) {
      continue;
    }
    if (entry.state == PageState::kModified) {
      if (entry.owner == params_.self) {
        // Home copy is the fresh copy: downgrade the home node in place so
        // the page becomes shareable without a recall round-trip. The home
        // node may have written the home copy while it owned the page, so
        // any recorded version label is stale: advance the epoch with an
        // unknown mask before handing the content out.
        record_home_update(p, 0, /*known=*/false);
        record_node_copy(p, params_.self);
        home_.set_access(p, mem::PageAccess::kRead);
        entry.state = PageState::kShared;
        entry.sharers = NodeSet::single(params_.self);
        entry.owner = kInvalidNode;
      } else {
        continue;  // fresh copy is remote; forwarding would need a recall
      }
    }
    entry.state = PageState::kShared;
    entry.sharers.add(requester);
    trace_.step(queue_.now(), "dsm.forward_push", 0, p, requester);
    net::Message msg = make_data_message(requester, p, 0, /*forward=*/true);
    charge_data_plane(stats_, msg, home_.page_size());
    record_node_copy(p, requester);
    send(std::move(msg));
    last_pushed = p;
    if (stats_ != nullptr) stats_->add("dir.forwards");
  }
  // The pushed pages will not generate requests; keep the stream alive
  // across the window so the next fault continues the run.
  if (last_pushed != page) {
    streams_[requester].retarget(page + 1, last_pushed + 1);
  }
}

// ---- whole-node fault plane (DESIGN.md §18) --------------------------------

void Directory::on_crash_flush(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  assert(page < entries_.size());
  // The flush is its sender's death certificate and travels one hop, so it
  // beats the master's two-hop kNodeDead broadcast: stop granting to the
  // sender now.
  dead_nodes_.insert(msg.src);
  Entry& entry = entries_[page];
  if (entry.state != PageState::kModified || entry.owner != msg.src) {
    // The protocol already moved on (a racing recall completed): stale.
    if (stats_ != nullptr) stats_->add("dsm.crash_flush_stale");
    return;
  }
  assert(msg.data.size() == home_.page_size());
  std::memcpy(home_.page_data(page).data(), msg.data.data(), msg.data.size());
  record_home_update(page, 0, /*known=*/false);
  if (stats_ != nullptr) stats_->add("dsm.crash_flushes");
  trace_.step(queue_.now(), "dsm.crash_flush", msg.flow, page, msg.src);
  if (entry.busy && entry.acks_outstanding > 0) {
    // Mid-recall of the dying owner's copy (a Modified entry recalls
    // exactly its owner): the ack will never come — this flush *is* the
    // writeback, so it completes the transaction.
    if (--entry.acks_outstanding == 0) complete_transaction(page);
    return;
  }
  entry.state = PageState::kHome;
  entry.owner = kInvalidNode;
  entry.sharers.clear();
}

void Directory::on_node_dead(NodeId dead) {
  dead_nodes_.insert(dead);
  std::uint64_t reclaimed = 0;
  for (std::uint32_t page = 0; page < entries_.size(); ++page) {
    Entry& entry = entries_[page];
    if (params_.sharded && !homed_[page]) continue;
    // Purge the dead node's queued requests before any completion below
    // can pop one of them.
    const auto dropped = std::erase_if(
        entry.queue, [dead](const Request& r) { return r.node == dead; });
    if (stats_ != nullptr && dropped > 0) {
      stats_->add("dir.dead_reqs_dropped", dropped);
    }
    if (entry.fs_last_node == dead) {
      entry.fs_last_node = kInvalidNode;
      entry.fs_last_shard = 0xFF;
    }
    const bool was_sharer = entry.sharers.contains(dead);
    if (was_sharer) entry.sharers.remove(dead);
    if (entry.busy && entry.acks_outstanding > 0) {
      if (entry.state == PageState::kModified && entry.owner == dead) {
        // The recall ack died with the owner; its last-gasp flush (if it
        // got one out) already refreshed the home bytes. Complete with
        // what home storage holds.
        entry.acks_outstanding = 0;
        complete_transaction(page);
      } else if (entry.state == PageState::kShared && was_sharer &&
                 (entry.splitting || entry.current.node != dead)) {
        // One of the outstanding invalidate acks was the dead sharer's
        // (a split recalls every sharer, a write upgrade all but the
        // requester).
        if (--entry.acks_outstanding == 0) complete_transaction(page);
      }
    }
    if (!entry.busy && entry.state == PageState::kModified &&
        entry.owner == dead) {
      // Reclaim home. Without a flush the home bytes are stale: a crash
      // with no last gasp loses unflushed writes, deterministically.
      entry.state = PageState::kHome;
      entry.owner = kInvalidNode;
      entry.sharers.clear();
      ++reclaimed;
    } else if (!entry.busy && entry.state == PageState::kShared &&
               entry.sharers.empty()) {
      // The dead node was the last sharer; the home copy is fresh.
      entry.state = PageState::kHome;
      entry.owner = kInvalidNode;
    }
  }
  if (stats_ != nullptr && reclaimed > 0) {
    stats_->add("dsm.pages_reclaimed", reclaimed);
  }
}

std::vector<std::uint32_t> Directory::handoff_pages() const {
  std::vector<std::uint32_t> pages;
  if (!params_.sharded) return pages;
  for (std::uint32_t page = 0; page < homed_.size(); ++page) {
    if (homed_[page]) pages.push_back(page);
  }
  return pages;
}

void Directory::serialize_entry(std::uint32_t page,
                                std::vector<std::uint8_t>& out) const {
  const Entry& entry = entries_[page];
  le::put_u32(out, static_cast<std::uint32_t>(entry.state));
  le::put_u32(out, entry.owner);
  std::vector<NodeId> sharers;
  for (NodeId n = 0; n < params_.node_count; ++n) {
    if (entry.sharers.contains(n)) sharers.push_back(n);
  }
  le::put_u32(out, static_cast<std::uint32_t>(sharers.size()));
  for (const NodeId n : sharers) le::put_u32(out, n);
  const auto& shadows = shadow_of_[page];
  le::put_u32(out, static_cast<std::uint32_t>(shadows.size()));
  for (const std::uint32_t s : shadows) le::put_u32(out, s);
  // Home bytes ship for everything but a split (retired) page. For a
  // Modified page the home copy is exactly the owner's grant-time bytes —
  // the diff base its eventual writeback is encoded against — so shipping
  // it keeps diff writebacks to the adopting home sound.
  const bool content = entry.state != PageState::kSplit;
  le::put_u32(out, content ? 1u : 0u);
  if (content) {
    const auto data = home_.page_data(page);
    out.insert(out.end(), data.begin(), data.end());
  }
}

void Directory::adopt_entry(std::uint32_t page,
                            std::span<const std::uint8_t> data) {
  assert(page < entries_.size());
  Entry& entry = entries_[page];
  assert(!entry.busy && "adopted a page the adopting home was servicing");
  le::Reader in(data);
  const auto state = static_cast<PageState>(in.u32());
  const auto owner = static_cast<NodeId>(in.u32());
  const std::uint32_t nsharers = in.u32();
  NodeSet sharers;
  for (std::uint32_t i = 0; i < nsharers; ++i) {
    sharers.add(static_cast<NodeId>(in.u32()));
  }
  const std::uint32_t nshadows = in.u32();
  std::vector<std::uint32_t> shadows(nshadows);
  for (std::uint32_t i = 0; i < nshadows; ++i) shadows[i] = in.u32();
  const bool content = in.u32() != 0;

  entry.state = state;
  entry.owner = owner;
  entry.sharers = sharers;
  entry.queue.clear();
  entry.acks_outstanding = 0;
  entry.splitting = false;
  entry.fs_last_node = kInvalidNode;
  entry.fs_last_shard = 0xFF;
  entry.fs_count = 0;
  if (!shadows.empty()) {
    shadow_of_[page] = shadows;
    for (const std::uint32_t s : shadows) foreign_shadow_.insert(s);
  }
  // When this home's own client is the Modified owner, its mapping *is*
  // the fresh copy — the shipped grant-time base must not clobber it.
  if (content && !(state == PageState::kModified && owner == params_.self)) {
    const auto bytes = in.bytes(home_.page_size());
    assert(in.remaining() == 0);
    std::memcpy(home_.page_data(page).data(), bytes.data(), bytes.size());
  }
  // The adopting home's client keeps only the rights the entry grants it;
  // anything else re-faults here.
  if (state == PageState::kModified && owner == params_.self) {
    home_.set_access(page, mem::PageAccess::kReadWrite);
  } else if (state == PageState::kShared && sharers.contains(params_.self)) {
    home_.set_access(page, mem::PageAccess::kRead);
  } else {
    home_.set_access(page, mem::PageAccess::kNone);
  }
  // No diff state survives adoption: the first transfer from here is a
  // full one and version tracking restarts with it.
  diff_.erase(page);
  if (params_.sharded) homed_[page] = true;
  if (stats_ != nullptr) stats_->add("dsm.home_handoffs_adopted");
}

std::uint64_t Directory::digest() const {
  std::uint64_t h = fnv1a_seed();
  const auto fold = [&h](std::uint64_t v) { h = fnv1a_u64(v, h); };
  for (std::uint32_t page = 0; page < entries_.size(); ++page) {
    if (params_.sharded && !homed_[page]) continue;
    const Entry& entry = entries_[page];
    // Skip pages still in their boot-default state so a quiet page costs
    // the same whether or not this shard ever touched it.
    const bool boot_default = entry.state == PageState::kModified &&
                              entry.owner == kMasterNode &&
                              entry.sharers.empty() && !entry.busy &&
                              entry.queue.empty();
    if (boot_default) continue;
    fold(page);
    fold(static_cast<std::uint64_t>(entry.state));
    fold(entry.owner);
    for (NodeId n = 0; n < params_.node_count; ++n) {
      if (entry.sharers.contains(n)) fold(n);
    }
    fold(entry.busy ? 1 : 0);
    fold(entry.queue.size());
  }
  return h;
}

bool Directory::check_invariants() const {
  for (std::uint32_t page = 0; page < entries_.size(); ++page) {
    const Entry& entry = entries_[page];
    if (entry.busy) continue;  // transitional states are exempt
    switch (entry.state) {
      case PageState::kModified:
        if (!entry.sharers.empty() || entry.owner == kInvalidNode ||
            entry.owner >= params_.node_count) {
          DQEMU_ERROR("invariant: modified page %u has sharers/bad owner", page);
          return false;
        }
        break;
      case PageState::kShared:
        if (entry.sharers.empty()) {
          DQEMU_ERROR("invariant: shared page %u has no sharers", page);
          return false;
        }
        break;
      case PageState::kSplit:
        if (!entry.sharers.empty() || shadow_of_[page].empty()) {
          DQEMU_ERROR("invariant: split page %u inconsistent", page);
          return false;
        }
        for (const std::uint32_t shadow : shadow_of_[page]) {
          if (!in_shadow_pool(shadow) && foreign_shadow_.count(shadow) == 0) {
            DQEMU_ERROR("invariant: shadow page %u outside pool", shadow);
            return false;
          }
        }
        break;
      case PageState::kHome:
        break;
    }
  }
  return true;
}

}  // namespace dqemu::dsm
