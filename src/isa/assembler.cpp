#include "isa/assembler.hpp"

#include <bit>
#include <cassert>
#include <cstring>

namespace dqemu::isa {
namespace {

constexpr std::uint32_t align_up(std::uint32_t v, std::uint32_t a) {
  return (v + a - 1) & ~(a - 1);
}

/// Data is placed on the page after the code so that code pages (which
/// every node reads while translating) never false-share with data.
constexpr std::uint32_t kDataAlignment = 4096;

}  // namespace

Assembler::Assembler(GuestAddr code_origin) : code_origin_(code_origin) {
  assert((code_origin % 4) == 0 && "code origin must be word aligned");
}

Assembler::Label Assembler::make_label(std::string name) {
  labels_.push_back(LabelInfo{std::move(name), false, false, 0});
  return Label{static_cast<std::uint32_t>(labels_.size() - 1)};
}

void Assembler::bind(Label label) {
  LabelInfo& info = labels_.at(label.id);
  if (info.bound && first_error_.is_ok()) {
    first_error_ = Status::already_exists("label bound twice: " + info.name);
    return;
  }
  info.bound = true;
  info.in_data = false;
  info.offset = static_cast<std::uint32_t>(code_.size());
}

void Assembler::bind_data(Label label) {
  LabelInfo& info = labels_.at(label.id);
  if (info.bound && first_error_.is_ok()) {
    first_error_ = Status::already_exists("label bound twice: " + info.name);
    return;
  }
  info.bound = true;
  info.in_data = true;
  info.offset = static_cast<std::uint32_t>(data_.size());
}

Assembler::Label Assembler::here(std::string name) {
  Label label = make_label(std::move(name));
  bind(label);
  return label;
}

void Assembler::emit(const Insn& insn) {
  const std::uint32_t word = encode(insn);
  const std::size_t at = code_.size();
  code_.resize(at + 4);
  std::memcpy(code_.data() + at, &word, 4);
}

void Assembler::emit(const Insn& insn, Label target) {
  const bool is_jal = insn.op == Opcode::kJal;
  assert(is_jal || insn_info(insn.op).format == Format::kB);
  fixups_.push_back(Fixup{static_cast<std::uint32_t>(code_.size()), target.id,
                          is_jal ? FixupKind::kJal20 : FixupKind::kBranch16});
  emit(insn);
}

void Assembler::emit_b(Opcode op, Reg rs1, Reg rs2, Label target) {
  emit({op, 0, std::uint8_t(rs1), std::uint8_t(rs2), 0}, target);
}

void Assembler::jal(Reg rd, Label target) {
  emit({Opcode::kJal, std::uint8_t(rd), 0, 0, 0}, target);
}

void Assembler::li(Reg rd, std::int64_t value) {
  const auto v32 = static_cast<std::int32_t>(value);
  if (fits_imm16(value)) {
    addi(rd, kZero, v32);
    return;
  }
  const std::int32_t hi20 =
      static_cast<std::int32_t>((static_cast<std::uint32_t>(v32) >> 12) & 0xFFFFF);
  const std::int32_t lo12 =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(v32) & 0xFFF);
  lui(rd, hi20);
  if (lo12 != 0) ori(rd, rd, lo12);
}

void Assembler::la(Reg rd, Label target) {
  fixups_.push_back(Fixup{static_cast<std::uint32_t>(code_.size()), target.id,
                          FixupKind::kLuiOriPair});
  lui(rd, 0);
  ori(rd, rd, 0);
}

void Assembler::la(Reg rd, GuestAddr addr) {
  lui(rd, static_cast<std::int32_t>((addr >> 12) & 0xFFFFF));
  ori(rd, rd, static_cast<std::int32_t>(addr & 0xFFF));
}

void Assembler::fli(FReg fd, double value, Reg scratch) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  auto it = literal_pool_.find(bits);
  Label lit;
  if (it == literal_pool_.end()) {
    lit = make_label();
    // Pool entries are appended to the data stream immediately; 8-byte
    // aligned so FLD is naturally aligned.
    d_align(8);
    bind_data(lit);
    d_double(value);
    literal_pool_.emplace(bits, lit);
  } else {
    lit = it->second;
  }
  la(scratch, lit);
  fld(fd, scratch, 0);
}

void Assembler::d_align(std::uint32_t alignment) {
  assert(alignment != 0 && (alignment & (alignment - 1)) == 0);
  const auto size = static_cast<std::uint32_t>(data_.size());
  data_.resize(align_up(size, alignment), 0);
}

void Assembler::d_byte(std::uint8_t v) { data_.push_back(v); }

void Assembler::d_half(std::uint16_t v) {
  const std::size_t at = data_.size();
  data_.resize(at + 2);
  std::memcpy(data_.data() + at, &v, 2);
}

void Assembler::d_word(std::uint32_t v) {
  const std::size_t at = data_.size();
  data_.resize(at + 4);
  std::memcpy(data_.data() + at, &v, 4);
}

void Assembler::d_double(double v) {
  const std::size_t at = data_.size();
  data_.resize(at + 8);
  std::memcpy(data_.data() + at, &v, 8);
}

void Assembler::d_space(std::uint32_t n) { data_.resize(data_.size() + n, 0); }

void Assembler::d_bytes(std::span<const std::uint8_t> bytes) {
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

void Assembler::d_asciz(std::string_view s) {
  data_.insert(data_.end(), s.begin(), s.end());
  data_.push_back(0);
}

void Assembler::set_entry(Label label) { entry_label_ = label.id; }

void Assembler::patch_word(std::uint32_t code_offset, std::uint32_t word) {
  assert(code_offset + 4 <= code_.size());
  std::memcpy(code_.data() + code_offset, &word, 4);
}

std::uint32_t Assembler::read_word(std::uint32_t code_offset) const {
  assert(code_offset + 4 <= code_.size());
  std::uint32_t word = 0;
  std::memcpy(&word, code_.data() + code_offset, 4);
  return word;
}

Result<Program> Assembler::finalize() {
  if (!first_error_.is_ok()) return first_error_;

  const GuestAddr data_origin = align_up(
      code_origin_ + static_cast<std::uint32_t>(code_.size()), kDataAlignment);

  auto label_addr = [&](std::uint32_t id) -> GuestAddr {
    const LabelInfo& info = labels_[id];
    return info.in_data ? data_origin + info.offset
                        : code_origin_ + info.offset;
  };

  for (std::uint32_t id = 0; id < labels_.size(); ++id) {
    if (!labels_[id].bound) {
      // Only labels that are actually referenced (by a fixup or as entry)
      // must be bound.
      for (const Fixup& fixup : fixups_) {
        if (fixup.label_id == id) {
          return Status::failed_precondition(
              "unbound label referenced: '" + labels_[id].name + "'");
        }
      }
      if (entry_label_ == id) {
        return Status::failed_precondition("entry label is unbound");
      }
    }
  }

  for (const Fixup& fixup : fixups_) {
    const GuestAddr target = label_addr(fixup.label_id);
    const GuestAddr insn_addr = code_origin_ + fixup.code_offset;
    switch (fixup.kind) {
      case FixupKind::kBranch16:
      case FixupKind::kJal20: {
        if (labels_[fixup.label_id].in_data) {
          return Status::invalid_argument("branch to a data label");
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(target) - (insn_addr + 4);
        assert((delta % 4) == 0);
        const std::int64_t words = delta / 4;
        const bool fits = fixup.kind == FixupKind::kBranch16
                              ? fits_imm16(words)
                              : fits_imm20(words);
        if (!fits) {
          return Status::out_of_range("branch offset out of range to '" +
                                      labels_[fixup.label_id].name + "'");
        }
        auto insn = decode(read_word(fixup.code_offset));
        assert(insn.has_value());
        insn->imm = static_cast<std::int32_t>(words);
        patch_word(fixup.code_offset, encode(*insn));
        break;
      }
      case FixupKind::kLuiOriPair: {
        auto lui_insn = decode(read_word(fixup.code_offset));
        auto ori_insn = decode(read_word(fixup.code_offset + 4));
        assert(lui_insn && lui_insn->op == Opcode::kLui);
        assert(ori_insn && ori_insn->op == Opcode::kOri);
        lui_insn->imm = static_cast<std::int32_t>((target >> 12) & 0xFFFFF);
        ori_insn->imm = static_cast<std::int32_t>(target & 0xFFF);
        patch_word(fixup.code_offset, encode(*lui_insn));
        patch_word(fixup.code_offset + 4, encode(*ori_insn));
        break;
      }
    }
  }

  Program program;
  program.sections.push_back(Section{code_origin_, code_});
  if (!data_.empty()) {
    program.sections.push_back(Section{data_origin, data_});
  }
  program.entry = entry_label_ == UINT32_MAX ? code_origin_
                                             : label_addr(entry_label_);
  program.brk_start = align_up(
      data_origin + static_cast<std::uint32_t>(data_.size()), kDataAlignment);
  for (std::uint32_t id = 0; id < labels_.size(); ++id) {
    const LabelInfo& info = labels_[id];
    if (info.bound && !info.name.empty()) {
      program.symbols[info.name] = label_addr(id);
    }
  }
  return program;
}

}  // namespace dqemu::isa
