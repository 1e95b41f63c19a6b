#include "isa/text_asm.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "isa/assembler.hpp"

namespace dqemu::isa {
namespace {

/// Opcode of each mnemonic, read off insn_info().
const std::map<std::string_view, Opcode>& mnemonic_index() {
  static const std::map<std::string_view, Opcode> index = [] {
    std::map<std::string_view, Opcode> out;
    for (unsigned raw = 0; raw < 256; ++raw) {
      if (is_valid_opcode(static_cast<std::uint8_t>(raw))) {
        const auto op = static_cast<Opcode>(raw);
        out.emplace(insn_info(op).mnemonic, op);
      }
    }
    return out;
  }();
  return index;
}

std::string_view strip(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

/// Characters of a label name.
bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// Decimal or 0x-hex integer with an optional sign.
std::optional<std::int64_t> parse_int(std::string_view text) {
  bool negative = false;
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  std::uint64_t value = 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc() || p != text.data() + text.size() || value > INT64_MAX)
    return std::nullopt;
  return negative ? -static_cast<std::int64_t>(value)
                  : static_cast<std::int64_t>(value);
}

/// `text` read whole by strtod.
std::optional<double> parse_double(std::string_view text) {
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

/// A floating-point literal as an operand: it has a '.' or an exponent.
std::optional<double> parse_float(std::string_view text) {
  if (text.find_first_of(".e") == std::string_view::npos) return std::nullopt;
  return parse_double(text);
}

/// An integer register (ABI name or rN) or, with `fp`, an FP register (fN).
std::optional<std::uint8_t> parse_reg(std::string_view name, bool fp) {
  if (!fp) {
    for (unsigned i = 0; i < kNumGpr; ++i) {
      if (name == gpr_name(i)) return static_cast<std::uint8_t>(i);
    }
  }
  if (name.size() >= 2 && name[0] == (fp ? 'f' : 'r')) {
    unsigned value = 0;
    auto [p, ec] = std::from_chars(name.data() + 1, name.data() + name.size(), value);
    if (ec == std::errc() && p == name.data() + name.size() &&
        value < (fp ? kNumFpr : kNumGpr))
      return static_cast<std::uint8_t>(value);
  }
  return std::nullopt;
}

/// Comma-separated fields, stripped. No operand or data value holds a
/// comma, so none is quoted or bracketed.
std::vector<std::string_view> split_commas(std::string_view s) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t comma = s.find(','); comma != std::string_view::npos;
       comma = s.find(',', start)) {
    parts.push_back(strip(s.substr(start, comma - start)));
    start = comma + 1;
  }
  if (start < s.size()) parts.push_back(strip(s.substr(start)));
  return parts;
}

/// Rewrites the dialect's short forms to their opcode's full operand list:
/// "jal label", "jalr rs", "ll rd, rs1" and the integer loads'
/// "lw rd, base, off".
void expand_short_form(Opcode op, std::vector<std::string>& ops) {
  if (op == Opcode::kJal && ops.size() == 1) {
    ops.insert(ops.begin(), "ra");
  } else if (op == Opcode::kJalr && ops.size() == 1) {
    ops = {"ra", ops[0], "0"};
  } else if (op == Opcode::kLl && ops.size() == 2 &&
             ops[1].find('(') == std::string::npos) {
    ops[1] = "(" + ops[1] + ")";
  } else if (op != Opcode::kLl && insn_info(op).syntax == Syntax::kRdMem &&
             ops.size() == 3) {
    ops = {ops[0], ops[2] + "(" + ops[1] + ")"};
  }
}

class Parser {
 public:
  explicit Parser(std::string_view source, GuestAddr code_origin)
      : source_(source), asm_(code_origin) {}

  Result<Program> run() {
    std::size_t line_start = 0;
    line_no_ = 0;
    while (line_start <= source_.size()) {
      ++line_no_;
      std::size_t line_end = source_.find('\n', line_start);
      if (line_end == std::string_view::npos) line_end = source_.size();
      Status status =
          parse_line(source_.substr(line_start, line_end - line_start));
      if (!status.is_ok()) return status;
      line_start = line_end + 1;
      if (line_end == source_.size()) break;
    }
    if (entry_sym_.has_value()) {
      auto it = labels_.find(*entry_sym_);
      if (it == labels_.end())
        return error("unknown .entry symbol '" + *entry_sym_ + "'");
      asm_.set_entry(it->second);
    }
    return asm_.finalize();
  }

 private:
  using Target = std::optional<Assembler::Label>;

  Status error(std::string message) const {
    return Status::invalid_argument("line " + std::to_string(line_no_) +
                                    ": " + std::move(message));
  }

  static std::string_view strip_comment(std::string_view line) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == ';' || c == '#') return line.substr(0, i);
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/')
        return line.substr(0, i);
      if (c == '"') {  // skip string literal
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') ++i;
          ++i;
        }
      }
    }
    return line;
  }

  Assembler::Label get_label(const std::string& name) {
    auto it = labels_.find(name);
    if (it != labels_.end()) return it->second;
    Assembler::Label label = asm_.make_label(name);
    labels_.emplace(name, label);
    return label;
  }

  /// Reads `text` as an integer in [lo, hi] into `out`.
  Status number(std::string_view text, std::int64_t lo, std::int64_t hi,
                std::int64_t& out) const {
    const auto value = parse_int(text);
    if (!value.has_value())
      return error("bad number '" + std::string(text) + "'");
    if (*value < lo || *value > hi) {
      return error(std::string(text) + " is out of range [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    out = *value;
    return Status::ok();
  }

  Status reg(std::string_view text, bool fp, std::uint8_t& field) const {
    const auto index = parse_reg(text, fp);
    if (!index.has_value())
      return error(std::string(fp ? "bad FP register '" : "bad register '") +
                   std::string(text) + "'");
    field = *index;
    return Status::ok();
  }

  /// A label reference: a name that a "name:" line can bind, and that
  /// does not read as a register or a number.
  Status label(std::string_view text, Target& target) {
    if (!std::all_of(text.begin(), text.end(), is_name_char) ||
        parse_reg(text, false) || parse_reg(text, true) || parse_int(text) ||
        parse_float(text))
      return error("bad label '" + std::string(text) + "'");
    target = get_label(std::string(text));
    return Status::ok();
  }

  /// Parses `text` as one `kind` operand of `insn`; a label reference
  /// lands in `target`.
  Status operand(Operand kind, std::string_view text, Insn& insn,
                 Target& target) {
    std::int64_t lo = INT16_MIN;  // the range of an immediate
    std::int64_t hi = INT16_MAX;
    switch (kind) {
      case Operand::kRd: return reg(text, false, insn.rd);
      case Operand::kRs1: return reg(text, false, insn.rs1);
      case Operand::kRs2: return reg(text, false, insn.rs2);
      case Operand::kFd: return reg(text, true, insn.rd);
      case Operand::kFs1: return reg(text, true, insn.rs1);
      case Operand::kFs2: return reg(text, true, insn.rs2);
      case Operand::kTarget: return label(text, target);
      case Operand::kImm16: break;
      case Operand::kUimm20:
        lo = 0;
        hi = 0xFFFFF;
        break;
      case Operand::kNum16: hi = UINT16_MAX; break;
      case Operand::kMem: {
        const std::size_t paren = text.find('(');
        if (paren == std::string_view::npos || text.back() != ')')
          return error("expected off(base), got '" + std::string(text) + "'");
        DQEMU_RETURN_IF_ERROR(reg(
            strip(text.substr(paren + 1, text.size() - paren - 2)), false,
            insn.rs1));
        text = strip(text.substr(0, paren));
        if (text.empty()) return Status::ok();  // "(base)" is offset 0
        break;
      }
    }
    std::int64_t value = 0;
    DQEMU_RETURN_IF_ERROR(number(text, lo, hi, value));
    insn.imm = static_cast<std::int32_t>(value);
    return Status::ok();
  }

  Status expect_count(const std::string& mnemonic,
                      const std::vector<std::string>& ops,
                      std::size_t n) const {
    if (ops.size() == n) return Status::ok();
    return error(mnemonic + " expects " + std::to_string(n) +
                 " operands, got " + std::to_string(ops.size()));
  }

  Status parse_operands(const std::string& mnemonic,
                        std::span<const Operand> kinds,
                        const std::vector<std::string>& ops, Insn& insn,
                        Target& target) {
    DQEMU_RETURN_IF_ERROR(expect_count(mnemonic, ops, kinds.size()));
    for (std::size_t i = 0; i < ops.size(); ++i)
      DQEMU_RETURN_IF_ERROR(operand(kinds[i], ops[i], insn, target));
    return Status::ok();
  }

  Status parse_line(std::string_view raw) {
    std::string_view line = strip(strip_comment(raw));
    if (line.empty()) return Status::ok();

    // Leading "label:" prefixes (possibly several).
    while (true) {
      std::size_t colon = std::string_view::npos;
      for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == ':') {
          colon = i;
          break;
        }
        if (!is_name_char(c)) break;
      }
      if (colon == std::string_view::npos || colon == 0) break;
      const std::string name(strip(line.substr(0, colon)));
      Assembler::Label label = get_label(name);
      if (in_data_) {
        asm_.bind_data(label);
      } else {
        asm_.bind(label);
      }
      line = strip(line.substr(colon + 1));
      if (line.empty()) return Status::ok();
    }

    // Mnemonic + operand list.
    std::size_t space = line.find_first_of(" \t");
    std::string mnemonic(line.substr(0, space));
    for (char& c : mnemonic)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    std::string_view rest =
        space == std::string_view::npos ? std::string_view{} : strip(line.substr(space));

    if (mnemonic[0] == '.') return parse_directive(mnemonic, rest);
    return parse_instruction(mnemonic, rest);
  }

  Status parse_directive(const std::string& name, std::string_view rest) {
    if (name == ".text") {
      in_data_ = false;
      return Status::ok();
    }
    if (name == ".data") {
      in_data_ = true;
      return Status::ok();
    }
    if (name == ".entry") {
      entry_sym_ = std::string(strip(rest));
      return Status::ok();
    }
    if (name == ".align") {
      std::int64_t value = 0;
      DQEMU_RETURN_IF_ERROR(number(rest, 1, UINT32_MAX, value));
      if ((value & (value - 1)) != 0)
        return error(".align needs a power-of-two argument");
      asm_.d_align(static_cast<std::uint32_t>(value));
      return Status::ok();
    }
    if (name == ".space") {
      std::int64_t size = 0;
      DQEMU_RETURN_IF_ERROR(number(rest, 0, UINT32_MAX, size));
      asm_.d_space(static_cast<std::uint32_t>(size));
      return Status::ok();
    }
    if (name == ".double") {
      for (const std::string_view part : split_commas(rest)) {
        const auto value = parse_double(part);
        if (!value.has_value())
          return error("bad .double literal '" + std::string(part) + "'");
        asm_.d_double(*value);
      }
      return Status::ok();
    }
    if (name == ".word" || name == ".half" || name == ".byte") {
      // A w-bit slot takes a signed or an unsigned w-bit value.
      const int bits = name == ".word" ? 32 : name == ".half" ? 16 : 8;
      for (const std::string_view part : split_commas(rest)) {
        std::int64_t value = 0;
        DQEMU_RETURN_IF_ERROR(number(part, -(std::int64_t{1} << (bits - 1)),
                                     (std::int64_t{1} << bits) - 1, value));
        if (bits == 32)
          asm_.d_word(static_cast<std::uint32_t>(value));
        else if (bits == 16)
          asm_.d_half(static_cast<std::uint16_t>(value));
        else
          asm_.d_byte(static_cast<std::uint8_t>(value));
      }
      return Status::ok();
    }
    if (name == ".asciz" || name == ".ascii") {
      const std::string_view s = strip(rest);
      if (s.size() < 2 || s.front() != '"' || s.back() != '"')
        return error(name + " needs a quoted string");
      std::string decoded;
      for (std::size_t i = 1; i + 1 < s.size(); ++i) {
        char c = s[i];
        if (c == '\\' && i + 2 < s.size()) {
          ++i;
          switch (s[i]) {
            case 'n': c = '\n'; break;
            case 't': c = '\t'; break;
            case '0': c = '\0'; break;
            case '\\': c = '\\'; break;
            case '"': c = '"'; break;
            default: c = s[i]; break;
          }
        }
        decoded.push_back(c);
      }
      if (name == ".asciz") {
        asm_.d_asciz(decoded);
      } else {
        asm_.d_bytes({reinterpret_cast<const std::uint8_t*>(decoded.data()),
                      decoded.size()});
      }
      return Status::ok();
    }
    return error("unknown directive '" + name + "'");
  }

  /// A machine instruction is parsed in the Syntax insn_info() gives its
  /// opcode; anything else must be a pseudo-instruction.
  Status parse_instruction(const std::string& mnemonic, std::string_view rest) {
    if (in_data_) return error("instruction in .data section");
    std::vector<std::string> ops;
    for (const std::string_view part : split_commas(rest)) {
      if (part.empty()) return error("empty operand");
      ops.emplace_back(part);
    }
    const auto it = mnemonic_index().find(mnemonic);
    if (it == mnemonic_index().end()) return parse_pseudo(mnemonic, ops);

    Insn insn;
    insn.op = it->second;
    Target target;
    expand_short_form(insn.op, ops);
    DQEMU_RETURN_IF_ERROR(parse_operands(
        mnemonic, operands(insn_info(insn.op).syntax), ops, insn, target));
    if (target.has_value()) {
      asm_.emit(insn, *target);
    } else {
      asm_.emit(insn);
    }
    return Status::ok();
  }

  /// The pseudo-instructions, each expanded by its Assembler method.
  Status parse_pseudo(const std::string& m, const std::vector<std::string>& ops) {
    using O = Operand;
    Insn insn;
    Target target;
    auto parse = [&](std::initializer_list<Operand> kinds) {
      return parse_operands(m, {kinds.begin(), kinds.size()}, ops, insn,
                            target);
    };
    const auto rd = [&] { return static_cast<Reg>(insn.rd); };
    if (m == "nop") {
      DQEMU_RETURN_IF_ERROR(parse({}));
      asm_.nop();
    } else if (m == "ret") {
      DQEMU_RETURN_IF_ERROR(parse({}));
      asm_.ret();
    } else if (m == "j") {
      DQEMU_RETURN_IF_ERROR(parse({O::kTarget}));
      asm_.j(*target);
    } else if (m == "call") {
      DQEMU_RETURN_IF_ERROR(parse({O::kTarget}));
      asm_.call(*target);
    } else if (m == "la") {
      DQEMU_RETURN_IF_ERROR(parse({O::kRd, O::kTarget}));
      asm_.la(rd(), *target);
    } else if (m == "mov" || m == "mv") {
      // Two FP registers make an fmov.
      if (!ops.empty() && parse_reg(ops[0], true).has_value()) {
        DQEMU_RETURN_IF_ERROR(parse({O::kFd, O::kFs1}));
        asm_.fmov(static_cast<FReg>(insn.rd), static_cast<FReg>(insn.rs1));
      } else {
        DQEMU_RETURN_IF_ERROR(parse({O::kRd, O::kRs1}));
        asm_.mov(rd(), static_cast<Reg>(insn.rs1));
      }
    } else if (m == "li") {
      std::int64_t value = 0;
      DQEMU_RETURN_IF_ERROR(expect_count(m, ops, 2));
      DQEMU_RETURN_IF_ERROR(operand(O::kRd, ops[0], insn, target));
      DQEMU_RETURN_IF_ERROR(number(ops[1], INT32_MIN, UINT32_MAX, value));
      asm_.li(rd(), value);
    } else if (m == "fli") {
      DQEMU_RETURN_IF_ERROR(expect_count(m, ops, 2));
      DQEMU_RETURN_IF_ERROR(operand(O::kFd, ops[0], insn, target));
      auto value = parse_float(ops[1]);
      if (const auto as_int = parse_int(ops[1])) value = static_cast<double>(*as_int);
      if (!value.has_value())
        return error("bad FP literal '" + ops[1] + "'");
      asm_.fli(static_cast<FReg>(insn.rd), *value);
    } else {
      return error("unknown mnemonic '" + m + "'");
    }
    return Status::ok();
  }

  std::string_view source_;
  Assembler asm_;
  std::map<std::string, Assembler::Label> labels_;
  std::optional<std::string> entry_sym_;
  bool in_data_ = false;
  std::uint64_t line_no_ = 0;
};

}  // namespace

Result<Program> assemble_text(std::string_view source, GuestAddr code_origin) {
  Parser parser(source, code_origin);
  return parser.run();
}

}  // namespace dqemu::isa
