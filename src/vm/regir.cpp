#include "vm/regir.hpp"

#include <cmath>
#include <cstdio>

#include "vm/intrinsics.hpp"
#include "vm/veckernels.hpp"

namespace hpcnet::vm::regir {

Math1Fn math1_fn(std::int32_t intr_id) {
  switch (intr_id) {
    case I_SIN: return [](double x) { return std::sin(x); };
    case I_COS: return [](double x) { return std::cos(x); };
    case I_TAN: return [](double x) { return std::tan(x); };
    case I_ASIN: return [](double x) { return std::asin(x); };
    case I_ACOS: return [](double x) { return std::acos(x); };
    case I_ATAN: return [](double x) { return std::atan(x); };
    case I_FLOOR: return [](double x) { return std::floor(x); };
    case I_CEIL: return [](double x) { return std::ceil(x); };
    case I_SQRT: return [](double x) { return std::sqrt(x); };
    case I_EXP: return [](double x) { return std::exp(x); };
    case I_LOG: return [](double x) { return std::log(x); };
    case I_RINT: return [](double x) { return std::rint(x); };
    default: return nullptr;
  }
}

Math2Fn math2_fn(std::int32_t intr_id) {
  switch (intr_id) {
    case I_ATAN2: return [](double y, double x) { return std::atan2(y, x); };
    case I_POW: return [](double x, double y) { return std::pow(x, y); };
    default: return nullptr;
  }
}

std::string to_string(const RInstr& in) {
  char buf[160];
  const bool known = in.op < ROp::COUNT_;
  const char* name = known ? info(in.op).name : "?";
  if (known && info(in.op).imm == Imm::Operand) {
    std::snprintf(buf, sizeof buf, "%-12s r%d, r%d, #%lld", name, in.d, in.a,
                  static_cast<long long>(in.imm.i64));
  } else {
    std::snprintf(buf, sizeof buf, "%-12s r%d, r%d, r%d", name, in.d, in.a,
                  in.b);
  }
  std::string s = buf;
  if (in.pinned()) s += "  ; pinned";
  return s;
}

std::string to_string(const RInstr& in, const RCode& code) {
  if (in.op != ROp::VECLOOP || in.a < 0 ||
      static_cast<std::size_t>(in.a) >= code.vec_loops.size()) {
    return to_string(in);
  }
  // Render from the side table: kernel name, spans, induction/limit.
  const RCode::VecLoop& v = code.vec_loops[static_cast<std::size_t>(in.a)];
  std::string s;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-12s %s i=r%d", "vecloop",
                veckernels::kernel_name(v.kernel), v.ivar);
  s += buf;
  if (v.limit >= 0) {
    std::snprintf(buf, sizeof buf, " lim=r%d", v.limit);
  } else {
    std::snprintf(buf, sizeof buf, " lim=len(r%d)", v.limit_arr);
  }
  s += buf;
  const std::int32_t arrs[3] = {v.arr0, v.arr1, v.arr2};
  for (int k = 0; k < 3; ++k) {
    if (arrs[k] < 0) continue;
    std::snprintf(buf, sizeof buf, " a%d=r%d", k, arrs[k]);
    s += buf;
  }
  if (v.acc >= 0) {
    std::snprintf(buf, sizeof buf, " acc=r%d", v.acc);
    s += buf;
  }
  for (int k = 0; k < 2; ++k) {
    const std::int32_t sreg = k == 0 ? v.s0_reg : v.s1_reg;
    const std::int64_t bits = k == 0 ? v.s0_bits : v.s1_bits;
    if (sreg < 0 && bits == 0) continue;  // kernel takes no such scalar
    if (sreg >= 0) {
      std::snprintf(buf, sizeof buf, " s%d=r%d", k, sreg);
    } else {
      std::snprintf(buf, sizeof buf, " s%d=#%lld", k,
                    static_cast<long long>(bits));
    }
    s += buf;
  }
  if (in.pinned()) s += "  ; pinned";
  return s;
}

std::string to_string(const RCode& code) {
  std::string s;
  s += "; " + code.method->name + " — " +
       std::to_string(code.code.size()) + " register instructions, " +
       std::to_string(code.num_regs) + " registers (" +
       std::to_string(code.slot_regs) + " local slots)\n";
  char head[48];
  for (std::size_t i = 0; i < code.code.size(); ++i) {
    std::snprintf(head, sizeof head, "%4zu: ", i);
    s += head;
    s += to_string(code.code[i], code);
    s += "\n";
  }
  return s;
}

}  // namespace hpcnet::vm::regir
