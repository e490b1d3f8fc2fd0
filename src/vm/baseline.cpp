// Tier::Baseline — the Mono 0.23 stand-in. The verifier's type annotations
// let this engine drop all dynamic tag dispatch (each opcode switches on the
// statically-known operand type), but it still translates the stack IL
// literally: every value round-trips through the memory-resident operand
// stack and locals array, exactly the code shape the paper's Mono
// disassembly shows (Table 7: "uses two memory locations for each of the
// variables, loads those and stores the result again").
//
// GC maps: the frame records its current IL pc; roots are derived from the
// verifier's per-pc stack type map plus the static local/arg types.
#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/unwind.hpp"

namespace hpcnet::vm {

namespace {

constexpr std::uint8_t kTierIndex = static_cast<std::uint8_t>(Tier::Baseline);

using BaseFrame = ILFrame<Slot>;

// GC roots come from the verifier's maps: the static slot types, and the
// operand stack's ref layout at the frame's recorded pc.
void enumerate_mapped(const GcFrame* g, void (*visit)(ObjRef, void*),
                      void* arg) {
  const auto* f = reinterpret_cast<const BaseFrame*>(g);
  const MethodDef& m = *f->m;
  for (std::size_t i = 0; i < m.frame_slots(); ++i) {
    if (m.slot_type(i) == ValType::Ref && f->slots[i].ref != nullptr) {
      visit(f->slots[i].ref, arg);
    }
  }
  // The engine keeps sp consistent with stack_in[pc] at every GC point
  // (values being consumed by the current instruction are not popped until
  // it retires).
  const auto& types = m.stack_in[static_cast<std::size_t>(f->pc)];
  const std::int32_t n =
      std::min(f->sp, static_cast<std::int32_t>(types.size()));
  for (std::int32_t i = 0; i < n; ++i) {
    if (types[static_cast<std::size_t>(i)] == ValType::Ref &&
        f->stack[i].ref != nullptr) {
      visit(f->stack[i].ref, arg);
    }
  }
}

class BaselineBackend final : public TierBackend {
 public:
  BaselineBackend(VirtualMachine& vm, TieredEngine& engine)
      : vm_(vm), engine_(engine), tiered_(engine.tiered()) {}

  Slot execute(VMContext& ctx, const MethodDef& m,
               const Slot* args) override {
    return exec(ctx, m, args);
  }

 private:
  Slot exec(VMContext& ctx, const MethodDef& m, const Slot* args);

  VirtualMachine& vm_;
  TieredEngine& engine_;
  const bool tiered_;
};

#define BASE_THROW(cls, msg)                \
  do {                                      \
    frame.pc = pc;                          \
    vm_.throw_exception(ctx, (cls), (msg)); \
    goto dispatch_exception;                \
  } while (0)

Slot BaselineBackend::exec(VMContext& ctx, const MethodDef& m,
                           const Slot* args) {
  Module& mod = vm_.module();
  engine_.ensure_verified(m);
  if (meter_fault(vm_, ctx)) return Slot{};
  ILFrameRuntime<Slot> rt(ctx, engine_, m, kTierIndex);
  BaseFrame frame;
  rt.enter(frame, args, &enumerate_mapped);

  UnwindMachine uw;
  Slot* st = frame.stack;
  Slot* loc = frame.slots;
  std::int32_t pc = 0;
  Slot result;

  for (;;) {
    ++rt.bc;
    const Instr& in = m.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Op::NOP:
        break;
      case Op::LDC_I4:
        st[frame.sp++] = Slot::from_i32(static_cast<std::int32_t>(in.imm.i64));
        break;
      case Op::LDC_I8:
        st[frame.sp++] = Slot::from_i64(in.imm.i64);
        break;
      case Op::LDC_R4:
        st[frame.sp++] = Slot::from_f32(static_cast<float>(in.imm.f64));
        break;
      case Op::LDC_R8:
        st[frame.sp++] = Slot::from_f64(in.imm.f64);
        break;
      case Op::LDNULL:
        st[frame.sp++] = Slot::from_ref(nullptr);
        break;
      case Op::LDSTR: {
        frame.pc = pc;
        ObjRef s = vm_.heap().alloc_string(mod.string_at(in.a), &ctx.tlab);
        if (s == nullptr) {
          BASE_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        st[frame.sp++] = Slot::from_ref(s);
        break;
      }

      case Op::LDLOC:
        st[frame.sp++] = loc[m.num_args() + static_cast<std::size_t>(in.a)];
        break;
      case Op::STLOC:
        loc[m.num_args() + static_cast<std::size_t>(in.a)] = st[--frame.sp];
        break;
      case Op::LDARG:
        st[frame.sp++] = loc[static_cast<std::size_t>(in.a)];
        break;
      case Op::STARG:
        loc[static_cast<std::size_t>(in.a)] = st[--frame.sp];
        break;
      case Op::DUP:
        st[frame.sp] = st[frame.sp - 1];
        ++frame.sp;
        break;
      case Op::POP:
        --frame.sp;
        break;

      case Op::ADD: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        switch (in.type) {
          case ValType::I32: a.i32 = arith::add_i32(a.i32, b.i32); break;
          case ValType::I64: a.i64 = arith::add_i64(a.i64, b.i64); break;
          case ValType::F32: a.f32 = a.f32 + b.f32; break;
          default: a.f64 = a.f64 + b.f64; break;
        }
        break;
      }
      case Op::SUB: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        switch (in.type) {
          case ValType::I32: a.i32 = arith::sub_i32(a.i32, b.i32); break;
          case ValType::I64: a.i64 = arith::sub_i64(a.i64, b.i64); break;
          case ValType::F32: a.f32 = a.f32 - b.f32; break;
          default: a.f64 = a.f64 - b.f64; break;
        }
        break;
      }
      case Op::MUL: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        switch (in.type) {
          case ValType::I32: a.i32 = arith::mul_i32(a.i32, b.i32); break;
          case ValType::I64: a.i64 = arith::mul_i64(a.i64, b.i64); break;
          case ValType::F32: a.f32 = a.f32 * b.f32; break;
          default: a.f64 = a.f64 * b.f64; break;
        }
        break;
      }
      case Op::DIV: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        switch (in.type) {
          case ValType::I32: {
            std::int32_t out;
            const auto s = arith::div_i32(a.i32, b.i32, &out);
            if (s == arith::DivStatus::DivideByZero) {
              BASE_THROW(mod.divide_by_zero_class(), "division by zero");
            }
            if (s == arith::DivStatus::Overflow) {
              BASE_THROW(mod.arithmetic_class(), "integer overflow in division");
            }
            a.i32 = out;
            break;
          }
          case ValType::I64: {
            std::int64_t out;
            const auto s = arith::div_i64(a.i64, b.i64, &out);
            if (s == arith::DivStatus::DivideByZero) {
              BASE_THROW(mod.divide_by_zero_class(), "division by zero");
            }
            if (s == arith::DivStatus::Overflow) {
              BASE_THROW(mod.arithmetic_class(), "integer overflow in division");
            }
            a.i64 = out;
            break;
          }
          case ValType::F32: a.f32 = a.f32 / b.f32; break;
          default: a.f64 = a.f64 / b.f64; break;
        }
        break;
      }
      case Op::REM: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        switch (in.type) {
          case ValType::I32: {
            std::int32_t out;
            if (arith::rem_i32(a.i32, b.i32, &out) ==
                arith::DivStatus::DivideByZero) {
              BASE_THROW(mod.divide_by_zero_class(), "division by zero");
            }
            a.i32 = out;
            break;
          }
          case ValType::I64: {
            std::int64_t out;
            if (arith::rem_i64(a.i64, b.i64, &out) ==
                arith::DivStatus::DivideByZero) {
              BASE_THROW(mod.divide_by_zero_class(), "division by zero");
            }
            a.i64 = out;
            break;
          }
          case ValType::F32: a.f32 = std::fmod(a.f32, b.f32); break;
          default: a.f64 = std::fmod(a.f64, b.f64); break;
        }
        break;
      }
      case Op::NEG: {
        Slot& a = st[frame.sp - 1];
        switch (in.type) {
          case ValType::I32: a.i32 = arith::sub_i32(0, a.i32); break;
          case ValType::I64: a.i64 = arith::sub_i64(0, a.i64); break;
          case ValType::F32: a.f32 = -a.f32; break;
          default: a.f64 = -a.f64; break;
        }
        break;
      }

      case Op::AND: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 &= b.i32; else a.i64 &= b.i64;
        break;
      }
      case Op::OR: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 |= b.i32; else a.i64 |= b.i64;
        break;
      }
      case Op::XOR: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 ^= b.i32; else a.i64 ^= b.i64;
        break;
      }
      case Op::NOT: {
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 = ~a.i32; else a.i64 = ~a.i64;
        break;
      }
      case Op::SHL: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 = arith::shl_i32(a.i32, b.i32);
        else a.i64 = arith::shl_i64(a.i64, b.i32);
        break;
      }
      case Op::SHR: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 = arith::shr_i32(a.i32, b.i32);
        else a.i64 = arith::shr_i64(a.i64, b.i32);
        break;
      }
      case Op::SHR_UN: {
        Slot b = st[--frame.sp];
        Slot& a = st[frame.sp - 1];
        if (in.type == ValType::I32) a.i32 = arith::shru_i32(a.i32, b.i32);
        else a.i64 = arith::shru_i64(a.i64, b.i32);
        break;
      }

      case Op::CEQ:
      case Op::CGT:
      case Op::CLT: {
        Slot b = st[--frame.sp];
        Slot a = st[--frame.sp];
        bool r = false;
        switch (in.type) {
          case ValType::I32:
            r = in.op == Op::CEQ ? a.i32 == b.i32
                : in.op == Op::CGT ? a.i32 > b.i32 : a.i32 < b.i32;
            break;
          case ValType::I64:
            r = in.op == Op::CEQ ? a.i64 == b.i64
                : in.op == Op::CGT ? a.i64 > b.i64 : a.i64 < b.i64;
            break;
          case ValType::F32:
            r = in.op == Op::CEQ ? a.f32 == b.f32
                : in.op == Op::CGT ? a.f32 > b.f32 : a.f32 < b.f32;
            break;
          case ValType::F64:
            r = in.op == Op::CEQ ? a.f64 == b.f64
                : in.op == Op::CGT ? a.f64 > b.f64 : a.f64 < b.f64;
            break;
          default:
            r = in.op == Op::CEQ && a.ref == b.ref;
            break;
        }
        st[frame.sp++] = Slot::from_i32(r ? 1 : 0);
        break;
      }

      case Op::BR:
        if (in.a <= pc) {  // back-edge safepoint
          ++rt.backedges;
          frame.pc = in.a;
          vm_.safepoint_poll(ctx);
          if (rt.backedges == rt.pulse_next) {
            if (rt.pulse(frame, uw, in.a)) return rt.osr_result();
            if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
          }
        }
        pc = in.a;
        continue;
      case Op::BRTRUE:
      case Op::BRFALSE: {
        Slot a = st[--frame.sp];
        bool truth;
        switch (in.type) {
          case ValType::Ref: truth = a.ref != nullptr; break;
          case ValType::I64: truth = a.i64 != 0; break;
          default: truth = a.i32 != 0; break;
        }
        if (truth == (in.op == Op::BRTRUE)) {
          if (in.a <= pc) {
            ++rt.backedges;
            frame.pc = in.a;
            vm_.safepoint_poll(ctx);
            if (rt.backedges == rt.pulse_next) {
              if (rt.pulse(frame, uw, in.a)) return rt.osr_result();
              if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
            }
          }
          pc = in.a;
          continue;
        }
        break;
      }
      case Op::BEQ:
      case Op::BNE:
      case Op::BLT:
      case Op::BLE:
      case Op::BGT:
      case Op::BGE: {
        Slot b = st[--frame.sp];
        Slot a = st[--frame.sp];
        auto cmp = [&](auto x, auto y) {
          switch (in.op) {
            case Op::BEQ: return x == y;
            case Op::BNE: return x != y;
            case Op::BLT: return x < y;
            case Op::BLE: return x <= y;
            case Op::BGT: return x > y;
            default: return x >= y;
          }
        };
        bool taken;
        switch (in.type) {
          case ValType::I32: taken = cmp(a.i32, b.i32); break;
          case ValType::I64: taken = cmp(a.i64, b.i64); break;
          case ValType::F32: taken = cmp(a.f32, b.f32); break;
          case ValType::F64: taken = cmp(a.f64, b.f64); break;
          default:
            taken = in.op == Op::BEQ ? a.ref == b.ref : a.ref != b.ref;
            break;
        }
        if (taken) {
          if (in.a <= pc) {
            ++rt.backedges;
            frame.pc = in.a;
            vm_.safepoint_poll(ctx);
            if (rt.backedges == rt.pulse_next) {
              if (rt.pulse(frame, uw, in.a)) return rt.osr_result();
              if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
            }
          }
          pc = in.a;
          continue;
        }
        break;
      }

      case Op::CONV_I4:
      case Op::CONV_I8:
      case Op::CONV_R4:
      case Op::CONV_R8:
      case Op::CONV_I1:
      case Op::CONV_U1:
      case Op::CONV_I2:
      case Op::CONV_U2: {
        Slot& a = st[frame.sp - 1];
        const bool is_float = in.type == ValType::F32 || in.type == ValType::F64;
        double fv = 0;
        std::int64_t iv = 0;
        switch (in.type) {
          case ValType::I32: iv = a.i32; fv = a.i32; break;
          case ValType::I64: iv = a.i64; fv = static_cast<double>(a.i64); break;
          case ValType::F32: fv = a.f32; break;
          default: fv = a.f64; break;
        }
        switch (in.op) {
          case Op::CONV_I4:
            a = Slot::from_i32(is_float ? arith::f_to_i32(fv)
                                        : static_cast<std::int32_t>(iv));
            break;
          case Op::CONV_I8:
            a = Slot::from_i64(is_float ? arith::f_to_i64(fv) : iv);
            break;
          case Op::CONV_R4:
            a = Slot::from_f32(is_float ? static_cast<float>(fv)
                                        : static_cast<float>(iv));
            break;
          case Op::CONV_R8:
            a = Slot::from_f64(is_float ? fv : static_cast<double>(iv));
            break;
          case Op::CONV_I1: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            a = Slot::from_i32(static_cast<std::int8_t>(x));
            break;
          }
          case Op::CONV_U1: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            a = Slot::from_i32(static_cast<std::uint8_t>(x));
            break;
          }
          case Op::CONV_I2: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            a = Slot::from_i32(static_cast<std::int16_t>(x));
            break;
          }
          default: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            a = Slot::from_i32(static_cast<std::uint16_t>(x));
            break;
          }
        }
        break;
      }

      case Op::CALL: {
        frame.pc = pc;
        vm_.safepoint_poll(ctx);
        const MethodDef& callee = mod.method(in.a);
        const std::size_t argc = callee.sig.params.size();
        // Tiered mode routes calls through the engine so a hot callee runs
        // on its promoted tier; Single mode keeps the direct recursion.
        Slot* cargs = st + frame.sp - static_cast<std::int32_t>(argc);
        const Slot r = tiered_ ? engine_.call(ctx, in.a, cargs)
                               : exec(ctx, callee, cargs);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (callee.sig.ret != ValType::None) st[frame.sp++] = r;
        break;
      }
      case Op::CALLINTR: {
        frame.pc = pc;
        const IntrinsicDef& d = intrinsic(in.a);
        const std::size_t argc = d.sig.params.size();
        Slot r;
        d.fn(ctx, st + frame.sp - static_cast<std::int32_t>(argc), &r);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (d.sig.ret != ValType::None) st[frame.sp++] = r;
        break;
      }
      case Op::RET:
        if (m.sig.ret != ValType::None) result = st[frame.sp - 1];
        return result;

      case Op::NEWOBJ: {
        frame.pc = pc;
        ObjRef obj = vm_.heap().alloc_instance(in.a, &ctx.tlab);
        if (obj == nullptr) {
          BASE_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        st[frame.sp++] = Slot::from_ref(obj);
        break;
      }
      case Op::LDFLD: {
        ObjRef obj = st[frame.sp - 1].ref;
        if (obj == nullptr) BASE_THROW(mod.null_reference_class(), "ldfld");
        st[frame.sp - 1] = obj->fields()[in.a];
        break;
      }
      case Op::STFLD: {
        Slot v = st[--frame.sp];
        ObjRef obj = st[--frame.sp].ref;
        if (obj == nullptr) BASE_THROW(mod.null_reference_class(), "stfld");
        obj->fields()[in.a] = v;
        if (in.type == ValType::Ref) gc_write_barrier(obj);
        break;
      }
      case Op::LDSFLD:
        st[frame.sp++] = mod.statics(in.b)[in.a];
        break;
      case Op::STSFLD:
        mod.statics(in.b)[in.a] = st[--frame.sp];
        break;

      case Op::NEWARR: {
        frame.pc = pc;
        const std::int32_t len = st[frame.sp - 1].i32;
        if (len < 0) BASE_THROW(mod.index_range_class(), "negative array size");
        ObjRef arr = vm_.heap().alloc_array(in.type, len, &ctx.tlab);
        if (arr == nullptr) {
          BASE_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        st[frame.sp - 1] = Slot::from_ref(arr);
        break;
      }
      case Op::LDLEN: {
        ObjRef arr = st[frame.sp - 1].ref;
        if (arr == nullptr) BASE_THROW(mod.null_reference_class(), "ldlen");
        st[frame.sp - 1] = Slot::from_i32(arr->length);
        break;
      }
      case Op::LDELEM: {
        const std::int32_t idx = st[--frame.sp].i32;
        ObjRef arr = st[frame.sp - 1].ref;
        if (arr == nullptr) BASE_THROW(mod.null_reference_class(), "ldelem");
        if (idx < 0 || idx >= arr->length) {
          BASE_THROW(mod.index_range_class(), "index out of range");
        }
        Slot v;
        switch (in.type) {
          case ValType::I32: v = Slot::from_i32(arr->i32_data()[idx]); break;
          case ValType::I64: v = Slot::from_i64(arr->i64_data()[idx]); break;
          case ValType::F32: v = Slot::from_f32(arr->f32_data()[idx]); break;
          case ValType::F64: v = Slot::from_f64(arr->f64_data()[idx]); break;
          default: v = Slot::from_ref(arr->ref_data()[idx]); break;
        }
        st[frame.sp - 1] = v;
        break;
      }
      case Op::STELEM: {
        Slot v = st[--frame.sp];
        const std::int32_t idx = st[--frame.sp].i32;
        ObjRef arr = st[--frame.sp].ref;
        if (arr == nullptr) BASE_THROW(mod.null_reference_class(), "stelem");
        if (idx < 0 || idx >= arr->length) {
          BASE_THROW(mod.index_range_class(), "index out of range");
        }
        switch (in.type) {
          case ValType::I32: arr->i32_data()[idx] = v.i32; break;
          case ValType::I64: arr->i64_data()[idx] = v.i64; break;
          case ValType::F32: arr->f32_data()[idx] = v.f32; break;
          case ValType::F64: arr->f64_data()[idx] = v.f64; break;
          default:
            arr->ref_data()[idx] = v.ref;
            gc_write_barrier(arr);
            break;
        }
        break;
      }
      case Op::NEWMAT: {
        frame.pc = pc;
        const std::int32_t cols = st[frame.sp - 1].i32;
        const std::int32_t rows = st[frame.sp - 2].i32;
        if (rows < 0 || cols < 0) {
          BASE_THROW(mod.index_range_class(), "negative matrix size");
        }
        ObjRef mat = vm_.heap().alloc_matrix2(in.type, rows, cols, &ctx.tlab);
        if (mat == nullptr) {
          BASE_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        frame.sp -= 1;
        st[frame.sp - 1] = Slot::from_ref(mat);
        break;
      }
      case Op::LDELEM2: {
        const std::int32_t c = st[--frame.sp].i32;
        const std::int32_t r = st[--frame.sp].i32;
        ObjRef mat = st[frame.sp - 1].ref;
        if (mat == nullptr) BASE_THROW(mod.null_reference_class(), "ldelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          BASE_THROW(mod.index_range_class(), "matrix index out of range");
        }
        const std::int64_t i = static_cast<std::int64_t>(r) * mat->cols + c;
        Slot v;
        switch (in.type) {
          case ValType::I32: v = Slot::from_i32(mat->i32_data()[i]); break;
          case ValType::I64: v = Slot::from_i64(mat->i64_data()[i]); break;
          case ValType::F32: v = Slot::from_f32(mat->f32_data()[i]); break;
          case ValType::F64: v = Slot::from_f64(mat->f64_data()[i]); break;
          default: v = Slot::from_ref(mat->ref_data()[i]); break;
        }
        st[frame.sp - 1] = v;
        break;
      }
      case Op::STELEM2: {
        Slot v = st[--frame.sp];
        const std::int32_t c = st[--frame.sp].i32;
        const std::int32_t r = st[--frame.sp].i32;
        ObjRef mat = st[--frame.sp].ref;
        if (mat == nullptr) BASE_THROW(mod.null_reference_class(), "stelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          BASE_THROW(mod.index_range_class(), "matrix index out of range");
        }
        const std::int64_t i = static_cast<std::int64_t>(r) * mat->cols + c;
        switch (in.type) {
          case ValType::I32: mat->i32_data()[i] = v.i32; break;
          case ValType::I64: mat->i64_data()[i] = v.i64; break;
          case ValType::F32: mat->f32_data()[i] = v.f32; break;
          case ValType::F64: mat->f64_data()[i] = v.f64; break;
          default:
            mat->ref_data()[i] = v.ref;
            gc_write_barrier(mat);
            break;
        }
        break;
      }
      case Op::LDMATROWS:
      case Op::LDMATCOLS: {
        ObjRef mat = st[frame.sp - 1].ref;
        if (mat == nullptr) BASE_THROW(mod.null_reference_class(), "ldmat");
        st[frame.sp - 1] = Slot::from_i32(
            in.op == Op::LDMATROWS ? mat->length : mat->cols);
        break;
      }

      case Op::BOX: {
        frame.pc = pc;
        ObjRef box = vm_.heap().alloc_box(in.type, st[frame.sp - 1], &ctx.tlab);
        if (box == nullptr) {
          BASE_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        st[frame.sp - 1] = Slot::from_ref(box);
        break;
      }
      case Op::UNBOX: {
        ObjRef box = st[frame.sp - 1].ref;
        if (box == nullptr) BASE_THROW(mod.null_reference_class(), "unbox");
        if (box->kind != ObjKind::Boxed || box->elem != in.type) {
          BASE_THROW(mod.invalid_cast_class(), "unbox type mismatch");
        }
        st[frame.sp - 1] = box->fields()[0];
        break;
      }

      case Op::THROW: {
        ObjRef exc = st[--frame.sp].ref;
        if (exc == nullptr) BASE_THROW(mod.null_reference_class(), "throw null");
        frame.pc = pc;
        ctx.pending_exception = exc;
        goto dispatch_exception;
      }
      case Op::LEAVE:
        rt.unwind_to(frame, uw, uw.on_leave(m, pc, in.a), pc);
        continue;
      case Op::ENDFINALLY:
        if (!rt.unwind_to(frame, uw, uw.on_endfinally(mod, m), pc)) {
          return result;
        }
        continue;

      case Op::COUNT_:
        break;
    }
    ++pc;
    continue;

  dispatch_exception:
    if (!rt.dispatch_exception(frame, uw, pc)) return result;
  }
}

#undef BASE_THROW

}  // namespace

std::unique_ptr<TierBackend> make_baseline_backend(VirtualMachine& vm,
                                                   TieredEngine& engine) {
  return std::make_unique<BaselineBackend>(vm, engine);
}

}  // namespace hpcnet::vm
