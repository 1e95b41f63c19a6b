#include "dsm/client.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/log.hpp"

namespace dqemu::dsm {

DsmClient::DsmClient(NodeId self, net::Network& network,
                     sim::EventQueue& queue, mem::AddressSpace& space,
                     mem::ShadowMap& shadow, dbt::LlscTable& llsc,
                     dbt::TranslationCache& tcache, HomeView& homes,
                     StatsRegistry& stats,
                     std::function<void(std::uint32_t)> wake_page,
                     trace::Tracer* tracer, bool enable_diff_transfers,
                     DurationPs request_timeout)
    : self_(self),
      network_(network),
      queue_(queue),
      space_(space),
      shadow_(shadow),
      llsc_(llsc),
      tcache_(tcache),
      homes_(homes),
      stats_(stats),
      wake_page_(std::move(wake_page)),
      trace_{tracer, trace::Cat::kDsm, self},
      enable_diff_(enable_diff_transfers),
      request_timeout_(request_timeout) {}

void DsmClient::request_page(std::uint32_t page, std::uint32_t offset,
                             bool write, GuestTid tid) {
  const auto [it, fresh] = pending_.try_emplace(page);
  if (!fresh) {
    // Coalesce: an outstanding request already covers this page. A writer
    // joining a read request re-faults after the read grant installs.
    stats_.add("dsm.coalesced_faults");
    return;
  }
  Pending& pending = it->second;
  pending.write = write;
  // Open the fault's causal chain: every send/deliver/directory edge of
  // this remote page fetch records against this id.
  if (trace_.on()) {
    pending.flow = trace_.tracer->new_flow();
    trace_.record(queue_.now(), "dsm.fault", trace::Kind::kFlowBegin,
                  pending.flow, page, write ? 1 : 0, tid);
  }
  pending.offset = offset;
  pending.tid = tid;
  stats_.add(write ? "dsm.write_requests" : "dsm.read_requests");
  send_request(page, pending);
  if (request_timeout_ > 0) {
    pending.timeout = request_timeout_;
    arm_watchdog(page);
  }
}

void DsmClient::send_request(std::uint32_t page, const Pending& p) {
  net::Message msg;
  msg.src = self_;
  msg.dst = homes_.home_of(page);
  msg.type = static_cast<std::uint32_t>(p.write ? DsmMsg::kWriteReq
                                                : DsmMsg::kReadReq);
  msg.a = page;
  msg.b = p.offset;
  msg.c = p.tid;
  msg.flow = p.flow;
  network_.send(std::move(msg));
}

void DsmClient::arm_watchdog(std::uint32_t page) {
  auto it = pending_.find(page);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.watchdog == nullptr) {
    p.watchdog = std::make_unique<sim::Timer>(queue_);
  }
  p.watchdog->arm(p.timeout, [this, page] { on_request_timeout(page); });
}

void DsmClient::on_request_timeout(std::uint32_t page) {
  const auto it = pending_.find(page);
  if (it == pending_.end()) return;  // completed; stale fire cannot happen
  Pending& p = it->second;
  stats_.add("dsm.timeouts");
  trace_.step(queue_.now(), "dsm.timeout", p.flow, page, p.write ? 1 : 0);
  DQEMU_DEBUG("node %u: page %u request timed out, re-issuing",
              unsigned(self_), page);
  // Re-issue verbatim. The directory tolerates the duplicate: a busy entry
  // queues it and an already-satisfied requester gets a benign re-grant.
  send_request(page, p);
  // Back off 2x, capped at 8x the base timeout (see FaultConfig).
  p.timeout = std::min<DurationPs>(p.timeout * 2, request_timeout_ * 8);
  arm_watchdog(page);
}

void DsmClient::end_fault_flow(std::uint32_t page, bool retried) {
  const auto it = pending_.find(page);
  if (it == pending_.end() || it->second.flow == 0) return;
  trace_.emit(queue_.now(), "dsm.fault", trace::Kind::kFlowEnd,
              it->second.flow, page, retried ? 1 : 0);
}

void DsmClient::handle_message(const net::Message& msg) {
  // Every directory-originated message is authoritative about which node
  // homes its page (first-touch placement learns routes from this).
  homes_.learn(static_cast<std::uint32_t>(msg.a), msg.src);
  switch (static_cast<DsmMsg>(msg.type)) {
    case DsmMsg::kPageData: return on_page_data(msg, /*grant_only=*/false);
    case DsmMsg::kPageGrant: return on_page_data(msg, /*grant_only=*/true);
    case DsmMsg::kPageDiff: return on_page_diff(msg);
    case DsmMsg::kRetry: return on_retry(msg);
    case DsmMsg::kInvalidate: return on_invalidate(msg);
    case DsmMsg::kDowngrade: return on_downgrade(msg);
    case DsmMsg::kShadowUpdate: return on_shadow_update(msg);
    case DsmMsg::kForwardData: return on_forward_data(msg);
    case DsmMsg::kForwardDiff: return on_forward_diff(msg);
    default:
      assert(false && "non-client DSM message routed to DsmClient");
  }
}

void DsmClient::capture_twin(std::uint32_t page) {
  if (!enable_diff_) return;
  twins_.capture(page, space_.page_data(page));
}

void DsmClient::on_page_data(const net::Message& msg, bool grant_only) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  if (!grant_only) {
    assert(msg.data.size() == space_.page_size());
    std::memcpy(space_.page_data(page).data(), msg.data.data(),
                msg.data.size());
  }
  space_.set_access(page, msg.b == kAccessWrite ? mem::PageAccess::kReadWrite
                                                : mem::PageAccess::kRead);
  // The twin snapshots the page exactly as granted: a later recall diffs
  // the guest's writes against it. Upgrades (grant_only) snapshot the
  // local read copy, which equals the home copy by the Shared invariant;
  // a re-grant to the current owner keeps the existing (older) twin.
  if (msg.b == kAccessWrite) capture_twin(page);
  // Content changed under any cached translations of this page.
  if (!grant_only) tcache_.invalidate_page(page);
  end_fault_flow(page, /*retried=*/false);
  pending_.erase(page);
  stats_.add("dsm.grants_received");
  wake_page_(page);
}

void DsmClient::on_page_diff(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  assert(diff_enabled() && "diff grant received with diff plane disabled");
  // The directory only serves a diff against a version this node provably
  // retains (node_epoch bookkeeping), so the local bytes must exist.
  assert(space_.page_materialized(page) || msg.data.size() == 8);
  const bool applied = mem::apply_diff(
      msg.data, space_.page_data(page),
      mem::diff_line_bytes(space_.page_size()));
  assert(applied && "malformed diff payload");
  (void)applied;
  space_.set_access(page, msg.b == kAccessWrite ? mem::PageAccess::kReadWrite
                                                : mem::PageAccess::kRead);
  if (msg.b == kAccessWrite) capture_twin(page);
  tcache_.invalidate_page(page);
  end_fault_flow(page, /*retried=*/false);
  pending_.erase(page);
  stats_.add("dsm.grants_received");
  stats_.add("dsm.diff_grants_received");
  trace_.step(queue_.now(), "dsm.diff_grant", msg.flow, page,
              mem::decode_diff_mask(msg.data));
  wake_page_(page);
}

void DsmClient::on_retry(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  end_fault_flow(page, /*retried=*/true);
  pending_.erase(page);
  stats_.add("dsm.retries");
  // Threads re-fault; the shadow map (updated by the preceding
  // kShadowUpdate on this FIFO channel) redirects them to shadow pages.
  wake_page_(page);
}

void DsmClient::drop_page_locally(std::uint32_t page) {
  space_.set_access(page, mem::PageAccess::kNone);
  twins_.drop(page);
  llsc_.on_page_invalidate(page, space_.page_shift());
  tcache_.invalidate_page(page);
}

void DsmClient::encode_writeback(net::Message& ack, std::uint32_t page,
                                 DsmMsg full_type, DsmMsg diff_type) {
  const auto data = space_.page_data(page);
  if (diff_enabled() && twins_.has(page)) {
    const std::uint32_t line_bytes =
        mem::diff_line_bytes(space_.page_size());
    const std::uint64_t mask =
        mem::diff_mask(twins_.twin(page), data, line_bytes);
    ack.type = static_cast<std::uint32_t>(diff_type);
    ack.data = mem::encode_diff(mask, data, line_bytes);
    stats_.add("dsm.diff_writebacks");
    return;
  }
  ack.type = static_cast<std::uint32_t>(full_type);
  ack.data.assign(data.begin(), data.end());
}

void DsmClient::on_invalidate(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  const bool writeback = msg.b == 1;
  net::Message ack;
  ack.src = self_;
  ack.dst = msg.src;
  ack.type = static_cast<std::uint32_t>(DsmMsg::kInvAck);
  ack.a = page;
  ack.b = 0;
  if (writeback) {
    // We were the owner: the directory needs our (only fresh) copy —
    // diff-encoded against the twin when the diff plane is on.
    ack.b = 1;
    encode_writeback(ack, page, DsmMsg::kInvAck, DsmMsg::kInvAckDiff);
    charge_data_plane(stats_, ack, space_.page_size());
  }
  drop_page_locally(page);
  stats_.add("dsm.invalidations_received");
  trace_.step(queue_.now(), "dsm.invalidate", msg.flow, page,
              writeback ? 1 : 0);
  ack.flow = msg.flow;  // the ack continues the recalling transaction
  network_.send(std::move(ack));
}

void DsmClient::on_downgrade(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  net::Message ack;
  ack.src = self_;
  ack.dst = msg.src;
  ack.a = page;
  encode_writeback(ack, page, DsmMsg::kDowngradeAck,
                   DsmMsg::kDowngradeAckDiff);
  charge_data_plane(stats_, ack, space_.page_size());
  space_.set_access(page, mem::PageAccess::kRead);
  // The page is read-only now; the retained copy equals the new home
  // version, so the twin has served its purpose.
  twins_.drop(page);
  stats_.add("dsm.downgrades_received");
  trace_.step(queue_.now(), "dsm.downgrade", msg.flow, page, 0);
  ack.flow = msg.flow;
  network_.send(std::move(ack));
}

void DsmClient::on_shadow_update(const net::Message& msg) {
  const auto orig = static_cast<std::uint32_t>(msg.a);
  assert(msg.data.size() % 4 == 0);
  std::vector<std::uint32_t> shadows(msg.data.size() / 4);
  std::memcpy(shadows.data(), msg.data.data(), msg.data.size());
  shadow_.add_split(orig, shadows);
  drop_page_locally(orig);
  stats_.add("dsm.shadow_updates");
  trace_.step(queue_.now(), "dsm.shadow_update", msg.flow, orig,
              shadows.size());
  DQEMU_DEBUG("node %u: page %u split into %zu shadows", unsigned(self_),
              orig, shadows.size());
}

void DsmClient::on_forward_data(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  assert(msg.data.size() == space_.page_size());
  // Content is authoritative (the directory marked us a sharer), so it is
  // always installed; access is granted only if no request is in flight.
  std::memcpy(space_.page_data(page).data(), msg.data.data(), msg.data.size());
  finish_forward_install(msg);
}

void DsmClient::on_forward_diff(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  assert(diff_enabled() && "diff forward received with diff plane disabled");
  // Same contract as a diff grant: the directory only diffs against a
  // version this node retains, so patching the local bytes reconstructs
  // the current home content exactly.
  const bool applied = mem::apply_diff(
      msg.data, space_.page_data(page),
      mem::diff_line_bytes(space_.page_size()));
  assert(applied && "malformed forward diff payload");
  (void)applied;
  stats_.add("dsm.diff_forwards_received");
  finish_forward_install(msg);
}

void DsmClient::finish_forward_install(const net::Message& msg) {
  const auto page = static_cast<std::uint32_t>(msg.a);
  tcache_.invalidate_page(page);
  const auto pending = pending_.find(page);
  if (pending == pending_.end()) {
    if (space_.access(page) == mem::PageAccess::kNone) {
      space_.set_access(page, mem::PageAccess::kRead);
      stats_.add("dsm.forwards_installed");
      trace_.step(queue_.now(), "dsm.forward_install", msg.flow, page, 0);
      wake_page_(page);  // benign if nobody waits
    } else {
      stats_.add("dsm.forwards_dropped");
    }
  } else if (!pending->second.write) {
    // A read request raced with this push: the pushed copy satisfies it
    // right now (the directory made us a sharer). The in-flight grant for
    // the queued request is redundant and harmless — per-channel FIFO
    // orders it before any subsequent invalidation.
    space_.set_access(page, mem::PageAccess::kRead);
    stats_.add("dsm.forwards_rescued_read");
    wake_page_(page);
  } else {
    stats_.add("dsm.forwards_dropped");
  }
}

}  // namespace dqemu::dsm
