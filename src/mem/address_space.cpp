#include "mem/address_space.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <string>

namespace dqemu::mem {

AddressSpace::AddressSpace(GuestSize size, std::uint32_t page_size)
    : size_(size), page_size_(page_size) {
  assert(page_size != 0 && (page_size & (page_size - 1)) == 0);
  assert(size != 0 && (size % page_size) == 0);
  page_shift_ = static_cast<std::uint32_t>(std::countr_zero(page_size));
  pages_.resize(size / page_size);
  access_.resize(pages_.size(), PageAccess::kNone);
}

std::uint8_t* AddressSpace::materialize(std::uint32_t page) {
  assert(page < pages_.size());
  if (pages_[page] == nullptr) {
    pages_[page] = std::make_unique<std::uint8_t[]>(page_size_);
    std::memset(pages_[page].get(), 0, page_size_);
  }
  return pages_[page].get();
}

void AddressSpace::read_bytes(GuestAddr addr, std::span<std::uint8_t> out) const {
  assert(static_cast<std::uint64_t>(addr) + out.size() <= size_);
  std::size_t done = 0;
  while (done < out.size()) {
    const GuestAddr at = addr + static_cast<GuestAddr>(done);
    const std::uint32_t page = page_of(at);
    const std::uint32_t offset = offset_in_page(at);
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, page_size_ - offset);
    if (pages_[page] == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, pages_[page].get() + offset, chunk);
    }
    done += chunk;
  }
}

void AddressSpace::write_bytes(GuestAddr addr,
                               std::span<const std::uint8_t> in) {
  assert(static_cast<std::uint64_t>(addr) + in.size() <= size_);
  std::size_t done = 0;
  while (done < in.size()) {
    const GuestAddr at = addr + static_cast<GuestAddr>(done);
    const std::uint32_t page = page_of(at);
    const std::uint32_t offset = offset_in_page(at);
    const std::size_t chunk =
        std::min<std::size_t>(in.size() - done, page_size_ - offset);
    std::memcpy(materialize(page) + offset, in.data() + done, chunk);
    done += chunk;
  }
}

std::string AddressSpace::read_cstring(GuestAddr addr,
                                       std::uint32_t max_len) const {
  std::string out;
  for (std::uint32_t i = 0; i < max_len && addr + i < size_; ++i) {
    const auto c = static_cast<char>(load(addr + i, 1));
    if (c == '\0') break;
    out.push_back(c);
  }
  return out;
}

std::span<std::uint8_t> AddressSpace::page_data(std::uint32_t page) {
  return {materialize(page), page_size_};
}

void AddressSpace::set_all_access(PageAccess access) {
  std::fill(access_.begin(), access_.end(), access);
  ++protection_generation_;
}

void AddressSpace::load_program(const isa::Program& program) {
  for (const isa::Section& section : program.sections) {
    write_bytes(section.addr, section.bytes);
  }
}

}  // namespace dqemu::mem
