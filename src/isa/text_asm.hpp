// Text front-end for the GA32 assembler.
//
// A classic two-section assembly dialect used by the examples and tests:
//
//     ; comment            # comment            // comment
//     .text                ; switch to the code stream (default)
//             li   a0, 42
//             la   a1, greeting
//     loop:   addi a0, a0, -1
//             bne  a0, zero, loop
//             syscall 1            ; exit(a0)
//     .data
//     greeting: .asciz "hello"
//     table:    .word 1, 2, 3
//               .space 64
//               .align 8
//     pi:       .double 3.141592653589793
//     .entry main          ; optional; defaults to the first instruction
//
// An instruction takes the operands its opcode's Syntax names (isa.hpp),
// which is also how disassemble() prints it: "lw a0, 4(sp)",
// "sw a1, -8(sp)", "jalr ra, a0, 0", "beq a0, a1, label". Registers accept
// ABI names (zero, a0..a3, t0..t4, s0..s2, tp, sp, ra), raw names
// (r0..r15) and FP names (f0..f15); "(base)" is offset 0. Short forms:
// "jal label" and "jalr rs" link through ra, "ll rd, rs1" has offset 0, and
// integer loads also take "lw a0, sp, 4". Pseudo-instructions: li, la,
// mov/mv, j, call, ret, nop, fli. Numbers are decimal or 0x hex; one that
// does not parse or does not fit its operand or data slot is an error.
#pragma once

#include <string_view>

#include "common/status.hpp"
#include "isa/program.hpp"

namespace dqemu::isa {

/// Assembles `source` into a program image. Errors carry line numbers.
[[nodiscard]] Result<Program> assemble_text(
    std::string_view source, GuestAddr code_origin = kDefaultCodeOrigin);

}  // namespace dqemu::isa
