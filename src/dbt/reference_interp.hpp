// Reference GA32 interpreter for differential testing.
//
// A deliberately boring, independent re-implementation of the ISA
// semantics: one instruction at a time, no translation cache, no traces,
// no cost model, straight off the decoder. The property tests
// run random programs through this and through the production ExecEngine
// and require bit-identical final states — catching semantic drift in
// either implementation.
#pragma once

#include <cstdint>
#include <string>

#include "dbt/cpu_context.hpp"
#include "mem/address_space.hpp"

namespace dqemu::dbt {

struct ReferenceResult {
  enum class Stop { kSyscall, kError, kLimit } stop = Stop::kLimit;
  std::uint64_t insns = 0;
  std::int32_t syscall_num = 0;
  std::string error;
};

/// Interprets from ctx.pc until a SYSCALL, an error, or `max_insns`.
/// Memory protection is NOT checked (reference semantics only). LL/SC is
/// modeled with a single thread-local reservation (sufficient for
/// single-threaded differential runs).
ReferenceResult reference_run(CpuContext& ctx, mem::AddressSpace& space,
                              std::uint64_t max_insns);

}  // namespace dqemu::dbt
