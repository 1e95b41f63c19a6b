// Global LL/SC hash table (paper section 4.4).
//
// Guest LL/SC pairs are emulated on a CAS-style host without the ABA
// hazard by tracking open LL reservations per address. Each DQEMU
// instance (node) keeps one table:
//   * LL  records (address -> thread id).
//   * SC  succeeds only if the reservation at the address still belongs
//     to the storing thread; success consumes the entry.
//   * While the table is non-empty, every store snoops it and kills
//     reservations held by *other* threads on the stored address.
//   * When the DSM invalidates a page, all reservations on that page are
//     killed — the paper's deliberate false-positive: the SC retries, so
//     correctness is preserved even though the variable may be unchanged.
// on_ll/on_sc run once per guest LL/SC, so their counters (llsc.ll,
// llsc.sc_success, llsc.sc_fail) are kept by the caller, ExecEngine, in its
// per-quantum hot counters; this table counts only the rare kills.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace dqemu::dbt {

class LlscTable {
 public:
  explicit LlscTable(StatsRegistry& stats) : stats_(stats) {}

  /// Opens (or re-targets) a reservation for `tid` at `addr`.
  void on_ll(GuestAddr addr, GuestTid tid) {
    table_[addr] = tid;
    line_filter_ |= line_bit(addr);
  }

  /// Conservative store-snoop filter: false proves that NO reservation can
  /// match `addr`, so on_store may be skipped entirely (the DBT's LL/SC
  /// fast path). True means "maybe" — the caller must do the full probe.
  /// Invariant: every live reservation's line bit is set; bits are only
  /// cleared when the table drains to empty, so a clear bit can never hide
  /// a real reservation (false positives OK, false negatives impossible).
  [[nodiscard]] bool may_match(GuestAddr addr) const {
    return (line_filter_ & line_bit(addr)) != 0;
  }

  /// Attempts to commit a SC by `tid` at `addr`. On success the
  /// reservation is consumed. The caller performs the actual store only
  /// when this returns true.
  [[nodiscard]] bool on_sc(GuestAddr addr, GuestTid tid) {
    auto it = table_.find(addr);
    if (it == table_.end() || it->second != tid) return false;
    table_.erase(it);
    if (table_.empty()) line_filter_ = 0;
    return true;
  }

  /// Store snoop: a plain store by `tid` to `addr` kills another thread's
  /// reservation there. Cheap when the table is empty (the common case the
  /// paper relies on).
  void on_store(GuestAddr addr, GuestTid tid) {
    if (table_.empty()) return;
    auto it = table_.find(addr);
    if (it != table_.end() && it->second != tid) {
      table_.erase(it);
      if (table_.empty()) line_filter_ = 0;
      stats_.add("llsc.store_kill");
    }
  }

  /// DSM page invalidation: kill every reservation on the page
  /// (false-positive by design, see the header comment).
  void on_page_invalidate(std::uint32_t page, std::uint32_t page_shift) {
    if (table_.empty()) return;
    for (auto it = table_.begin(); it != table_.end();) {
      if ((it->first >> page_shift) == page) {
        it = table_.erase(it);
        stats_.add("llsc.page_inval_kill");
      } else {
        ++it;
      }
    }
    if (table_.empty()) line_filter_ = 0;
  }

  [[nodiscard]] bool has_reservation(GuestAddr addr) const {
    return table_.contains(addr);
  }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return table_.empty(); }

 private:
  /// One bit per 64-byte guest line (mod 64 lines). Set on LL, cleared
  /// only when the table drains to empty — see may_match.
  [[nodiscard]] static std::uint64_t line_bit(GuestAddr addr) {
    return 1ull << ((addr >> 6) & 63u);
  }

  std::unordered_map<GuestAddr, GuestTid> table_;
  std::uint64_t line_filter_ = 0;
  StatsRegistry& stats_;
};

}  // namespace dqemu::dbt
