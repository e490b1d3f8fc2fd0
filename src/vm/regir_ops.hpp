// Structural helpers over the RegIR instruction set, shared by the register
// compiler (regcompile.cpp), the vector lowering pass (veccompile.cpp) and
// the archive validator (serialize.cpp). Each is derived from the op table
// in regir_ops.def, so the passes cannot disagree about an op.
#pragma once

#include <cstdint>
#include <type_traits>

#include "vm/regir.hpp"

namespace hpcnet::vm::regir {

inline bool is_branch(ROp op) {
  const Control c = info(op).control;
  return c == Control::Cond || c == Control::Jump;
}

inline bool is_block_end(ROp op) {
  return info(op).control != Control::Fall;
}

/// True when execution may continue at the next instruction.
inline bool falls_through(ROp op) {
  const Control c = info(op).control;
  return c == Control::Fall || c == Control::Cond;
}

/// Ops with no side effects whose result may be dead-code-eliminated.
inline bool is_pure(ROp op) { return info(op).value == Value::Pure; }

inline std::int32_t imm_lo_reg(const RInstr& in) {
  return static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask);
}
inline std::int32_t imm_hi_reg(const RInstr& in) {
  return static_cast<std::int32_t>((in.imm.i64 >> kRegFieldBits) &
                                   kRegFieldMask);
}

/// Calls `f` on every register `in` reads outside the args_pool window, in
/// the order a, b, d (a store's source), imm-low, imm-high. Absent
/// (negative) fields are skipped. With a non-const `in`, `f` receives each
/// register by reference and may rewrite it; registers packed into `imm`
/// are written back.
template <typename Instr, typename F>
void for_each_field_use(Instr& in, F&& f) {
  const std::uint16_t roles = info(in.op).roles;
  auto visit = [&](auto& r) {
    if (r >= 0) f(r);
  };
  if (roles & kUseA) visit(in.a);
  if (roles & kUseB) visit(in.b);
  if (roles & kUseD) visit(in.d);
  if (roles & (kUseLo | kUseHi)) {
    std::int32_t lo = imm_lo_reg(in);
    std::int32_t hi = imm_hi_reg(in);
    if (roles & kUseLo) visit(lo);
    if (roles & kUseHi) visit(hi);
    if constexpr (!std::is_const_v<Instr>) {
      constexpr std::int64_t kBoth =
          kRegFieldMask | (kRegFieldMask << kRegFieldBits);
      in.imm.i64 = (in.imm.i64 & ~kBoth) | lo |
                   (static_cast<std::int64_t>(hi) << kRegFieldBits);
    }
  }
}

/// for_each_field_use, then every register of the args_pool window.
template <typename Instr, typename Pool, typename F>
void for_each_use(Instr& in, Pool& pool, F&& f) {
  for_each_field_use(in, f);
  if (info(in.op).roles & kUsePool) {
    const auto argc = static_cast<std::int32_t>(in.imm.i64);
    for (std::int32_t k = 0; k < argc; ++k) {
      auto& r = pool[static_cast<std::size_t>(in.b + k)];
      if (r >= 0) f(r);
    }
  }
}

/// The defined register and the registers read outside the args_pool
/// window.
struct Operands {
  std::int32_t uses[4];
  int nuses = 0;
  std::int32_t def = -1;  // register defined, -1 if none
};

inline Operands operands_of(const RInstr& in) {
  Operands o{};
  if (info(in.op).roles & kDefD) o.def = in.d;
  for_each_field_use(in, [&](std::int32_t r) { o.uses[o.nuses++] = r; });
  return o;
}

}  // namespace hpcnet::vm::regir
