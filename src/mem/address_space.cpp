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
  const std::uint32_t pages = size / page_size;
  chunks_.resize((pages + kChunkPages - 1) >> kChunkShift);
  access_.resize(pages, PageAccess::kNone);
}

std::uint8_t* AddressSpace::materialize(std::uint32_t page) {
  assert(page < num_pages());
  std::unique_ptr<Chunk>& chunk = chunks_[page >> kChunkShift];
  if (chunk == nullptr) chunk = std::make_unique<Chunk>();
  std::unique_ptr<std::uint8_t[]>& data = (*chunk)[page & (kChunkPages - 1)];
  // make_unique<T[]> value-initializes: a new page reads as zeros.
  if (data == nullptr) data = std::make_unique<std::uint8_t[]>(page_size_);
  return data.get();
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
    if (const std::uint8_t* data = page_ptr(page); data == nullptr) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      std::memcpy(out.data() + done, data + offset, chunk);
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
