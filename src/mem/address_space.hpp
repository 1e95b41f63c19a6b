// Per-node guest memory image.
//
// Every node in the cluster holds its own copy of the guest address space
// (paper Figure 2: a "guest memory region" per DQEMU instance). Only the
// DSM protocol moves bytes between copies, so coherence is enforced for
// real: a protocol bug yields wrong guest results, not just wrong stats.
//
// Pages, and the pointers to them (in chunks of 256, DESIGN.md section 2),
// are allocated lazily on first touch — a 256 MiB space costs nothing until
// the guest actually uses it. Each page carries a protection level
// derived from its MSI state (Invalid -> kNone, Shared -> kRead,
// Modified -> kReadWrite); the DBT's load/store path checks it and raises
// a page fault into the DSM layer, standing in for mprotect + SIGSEGV.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "isa/program.hpp"

namespace dqemu::mem {

/// Page protection level. Ordering matters: higher value = more access.
enum class PageAccess : std::uint8_t {
  kNone = 0,       ///< MSI Invalid: any access faults
  kRead = 1,       ///< MSI Shared: writes fault
  kReadWrite = 2,  ///< MSI Modified: full access
};

class AddressSpace {
 public:
  /// `size` and `page_size` must be powers of two, size a multiple of
  /// page_size.
  AddressSpace(GuestSize size, std::uint32_t page_size);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  AddressSpace(AddressSpace&&) = default;
  AddressSpace& operator=(AddressSpace&&) = default;

  [[nodiscard]] GuestSize size() const { return size_; }
  [[nodiscard]] std::uint32_t page_size() const { return page_size_; }
  [[nodiscard]] std::uint32_t page_shift() const { return page_shift_; }
  [[nodiscard]] std::uint32_t num_pages() const {
    return static_cast<std::uint32_t>(access_.size());
  }

  [[nodiscard]] std::uint32_t page_of(GuestAddr addr) const {
    return addr >> page_shift_;
  }
  [[nodiscard]] GuestAddr page_base(std::uint32_t page) const {
    return page << page_shift_;
  }
  [[nodiscard]] std::uint32_t offset_in_page(GuestAddr addr) const {
    return addr & (page_size_ - 1);
  }
  [[nodiscard]] bool contains(GuestAddr addr) const { return addr < size_; }

  // ---- typed scalar access (no protection check; protocol & DBT paths
  // ---- have already validated). Must be naturally aligned and must not
  // ---- cross a page boundary. Inline: this is the DBT's hottest path.
  [[nodiscard]] std::uint64_t load(GuestAddr addr, unsigned bytes) const {
    assert((addr & (bytes - 1)) == 0 && addr + bytes <= size_);
    const std::uint8_t* page = page_ptr(addr >> page_shift_);
    if (page == nullptr) return 0;  // untouched memory reads as zero
    std::uint64_t value = 0;
    std::memcpy(&value, page + (addr & (page_size_ - 1)), bytes);
    return value;
  }
  void store(GuestAddr addr, std::uint64_t value, unsigned bytes) {
    assert((addr & (bytes - 1)) == 0 && addr + bytes <= size_);
    const std::uint32_t index = addr >> page_shift_;
    std::uint8_t* page = page_ptr(index);
    if (page == nullptr) page = materialize(index);
    std::memcpy(page + (addr & (page_size_ - 1)), &value, bytes);
  }

  // ---- bulk access (may cross pages; used by the loader, syscall layer
  // ---- and page-transfer code).
  void read_bytes(GuestAddr addr, std::span<std::uint8_t> out) const;
  void write_bytes(GuestAddr addr, std::span<const std::uint8_t> in);
  /// Reads a NUL-terminated guest string (bounded by `max_len`).
  [[nodiscard]] std::string read_cstring(GuestAddr addr,
                                         std::uint32_t max_len = 4096) const;

  /// Mutable view of one whole page (materializes it). A reader that must
  /// not back untouched memory checks page_materialized() first: an
  /// unbacked page reads as zeros.
  [[nodiscard]] std::span<std::uint8_t> page_data(std::uint32_t page);
  /// True if the page has ever been touched (has backing storage).
  [[nodiscard]] bool page_materialized(std::uint32_t page) const {
    return page_ptr(page) != nullptr;
  }

  // ---- protection (driven by the DSM state machine).
  [[nodiscard]] PageAccess access(std::uint32_t page) const {
    return access_[page];
  }
  void set_access(std::uint32_t page, PageAccess access) {
    access_[page] = access;
    ++protection_generation_;
  }
  /// Sets every page to `access` (used when booting the master, which
  /// starts owning everything in Modified state).
  void set_all_access(PageAccess access);

  /// Bumped on every protection change. Consumers caching protection
  /// lookups (the DBT's software TLB) compare this against their snapshot
  /// and drop their cache on mismatch; DSM grants/invalidations/downgrades
  /// all funnel through set_access, so they are covered automatically.
  [[nodiscard]] std::uint64_t protection_generation() const {
    return protection_generation_;
  }

  /// Copies program sections into memory (no protection change).
  void load_program(const isa::Program& program);

 private:
  /// Page pointers come in chunks of kChunkPages, like dsm::Directory's
  /// entries: a chunk is allocated at the first materialization in its
  /// range, so a node that touches a few pages builds a few 2 KiB chunks,
  /// not a pointer for every page of the space. A page's storage never
  /// moves once allocated, so the DBT may cache a raw pointer to it.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkPages = 1u << kChunkShift;
  using Chunk = std::array<std::unique_ptr<std::uint8_t[]>, kChunkPages>;

  /// `page`'s storage, or null while the page is untouched.
  [[nodiscard]] std::uint8_t* page_ptr(std::uint32_t page) const {
    const Chunk* chunk = chunks_[page >> kChunkShift].get();
    return chunk == nullptr ? nullptr
                            : (*chunk)[page & (kChunkPages - 1)].get();
  }
  [[nodiscard]] std::uint8_t* materialize(std::uint32_t page);

  GuestSize size_ = 0;
  std::uint32_t page_size_ = 0;
  std::uint32_t page_shift_ = 0;
  /// Slot `page >> kChunkShift` holds that chunk, or null while no page of
  /// it has storage.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  /// Dense: the unsharded master sets every page's level at boot anyway.
  std::vector<PageAccess> access_;
  std::uint64_t protection_generation_ = 0;
};

}  // namespace dqemu::mem
