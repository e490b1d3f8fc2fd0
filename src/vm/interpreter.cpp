// Tier::Interp — the SSCLI/Rotor stand-in. Portable by construction: every
// stack slot carries a dynamic type tag, every opcode re-checks its operand
// tags, the operand stack lives in memory and every instruction polls the
// safepoint flag. This is the "generic portability layer, no optimization"
// design the paper measures at 5-10x below the optimizing engines.
#include <cstring>

#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/unwind.hpp"

namespace hpcnet::vm {

namespace {

constexpr std::uint8_t kTierIndex = static_cast<std::uint8_t>(Tier::Interp);

// SSCLI funnels primitive operations through its portability layer rather
// than open-coding them; these out-of-line helpers model that call-per-
// operation design (and are the main reason this tier lands 4-10x behind
// the optimizing engines, as Rotor did).
using InterpFrame = ILFrame<TaggedSlot>;
[[gnu::noinline]] void push_portable(InterpFrame& f, ValType t, Slot v);
[[gnu::noinline]] TaggedSlot pop_portable(InterpFrame& f);

// GC roots come from the tags: every live ref-tagged slot or stack entry.
void enumerate_tagged(const GcFrame* g, void (*visit)(ObjRef, void*),
                      void* arg) {
  const auto* f = reinterpret_cast<const InterpFrame*>(g);
  const std::size_t nslots = f->m->frame_slots();
  for (std::size_t i = 0; i < nslots; ++i) {
    if (f->slots[i].tag == ValType::Ref && f->slots[i].v.ref != nullptr) {
      visit(f->slots[i].v.ref, arg);
    }
  }
  for (std::int32_t i = 0; i < f->sp; ++i) {
    if (f->stack[i].tag == ValType::Ref && f->stack[i].v.ref != nullptr) {
      visit(f->stack[i].v.ref, arg);
    }
  }
}

void push_portable(InterpFrame& f, ValType t, Slot v) {
  f.stack[f.sp].tag = t;
  f.stack[f.sp].v = v;
  ++f.sp;
}

TaggedSlot pop_portable(InterpFrame& f) { return f.stack[--f.sp]; }

class InterpBackend final : public TierBackend {
 public:
  InterpBackend(VirtualMachine& vm, TieredEngine& engine)
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

#define INTERP_THROW(cls, msg)                \
  do {                                        \
    vm_.throw_exception(ctx, (cls), (msg));   \
    goto dispatch_exception;                  \
  } while (0)

Slot InterpBackend::exec(VMContext& ctx, const MethodDef& m,
                         const Slot* args) {
  Module& mod = vm_.module();
  engine_.ensure_verified(m);
  if (meter_fault(vm_, ctx)) return Slot{};
  ILFrameRuntime<TaggedSlot> rt(ctx, engine_, m, kTierIndex);
  InterpFrame frame;
  rt.enter(frame, args, &enumerate_tagged);

  UnwindMachine uw;
  TaggedSlot* st = frame.stack;
  std::int32_t pc = 0;
  Slot result;

  auto push = [&](ValType t, Slot v) { push_portable(frame, t, v); };
  (void)st;

  for (;;) {
    vm_.safepoint_poll(ctx);  // per-instruction: the portable engine's tax
    // Defensive dispatch checks (pc range, operand stack bounds): the
    // portability layer re-validates state on every instruction instead of
    // trusting the verifier, exactly the SSCLI trade-off the paper measures.
    if (static_cast<std::uint32_t>(pc) >= m.code.size() ||
        static_cast<std::uint32_t>(frame.sp) >
            static_cast<std::uint32_t>(m.max_stack)) {
      INTERP_THROW(mod.exception_class(), "interpreter state corrupt");
    }
    {
    ++rt.bc;
    const Instr& in = m.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Op::NOP:
        break;
      case Op::LDC_I4:
        push(ValType::I32, Slot::from_i32(static_cast<std::int32_t>(in.imm.i64)));
        break;
      case Op::LDC_I8:
        push(ValType::I64, Slot::from_i64(in.imm.i64));
        break;
      case Op::LDC_R4:
        push(ValType::F32, Slot::from_f32(static_cast<float>(in.imm.f64)));
        break;
      case Op::LDC_R8:
        push(ValType::F64, Slot::from_f64(in.imm.f64));
        break;
      case Op::LDNULL:
        push(ValType::Ref, Slot::from_ref(nullptr));
        break;
      case Op::LDSTR: {
        ObjRef s = vm_.heap().alloc_string(mod.string_at(in.a), &ctx.tlab);
        if (s == nullptr) {
          INTERP_THROW(mod.out_of_memory_class(),
                       "allocation budget exhausted");
        }
        push(ValType::Ref, Slot::from_ref(s));
        break;
      }

      case Op::LDLOC: {
        const TaggedSlot& s = frame.slots[m.num_args() + static_cast<std::size_t>(in.a)];
        push(s.tag, s.v);
        break;
      }
      case Op::STLOC: {
        frame.slots[m.num_args() + static_cast<std::size_t>(in.a)] =
            pop_portable(frame);
        break;
      }
      case Op::LDARG: {
        const TaggedSlot& s = frame.slots[static_cast<std::size_t>(in.a)];
        push(s.tag, s.v);
        break;
      }
      case Op::STARG: {
        frame.slots[static_cast<std::size_t>(in.a)] = pop_portable(frame);
        break;
      }
      case Op::DUP:
        st[frame.sp] = st[frame.sp - 1];
        ++frame.sp;
        break;
      case Op::POP:
        --frame.sp;
        break;

      case Op::ADD:
      case Op::SUB:
      case Op::MUL: {
        TaggedSlot b = pop_portable(frame);
        TaggedSlot a = pop_portable(frame);
        if (a.tag != b.tag) {
          INTERP_THROW(mod.invalid_cast_class(), "operand tag mismatch");
        }
        Slot r;
        // Dynamic tag dispatch: the Rotor-style generic arithmetic path.
        switch (a.tag) {
          case ValType::I32:
            r = Slot::from_i32(in.op == Op::ADD ? arith::add_i32(a.v.i32, b.v.i32)
                               : in.op == Op::SUB ? arith::sub_i32(a.v.i32, b.v.i32)
                                                  : arith::mul_i32(a.v.i32, b.v.i32));
            break;
          case ValType::I64:
            r = Slot::from_i64(in.op == Op::ADD ? arith::add_i64(a.v.i64, b.v.i64)
                               : in.op == Op::SUB ? arith::sub_i64(a.v.i64, b.v.i64)
                                                  : arith::mul_i64(a.v.i64, b.v.i64));
            break;
          case ValType::F32:
            r = Slot::from_f32(in.op == Op::ADD ? a.v.f32 + b.v.f32
                               : in.op == Op::SUB ? a.v.f32 - b.v.f32
                                                  : a.v.f32 * b.v.f32);
            break;
          default:
            r = Slot::from_f64(in.op == Op::ADD ? a.v.f64 + b.v.f64
                               : in.op == Op::SUB ? a.v.f64 - b.v.f64
                                                  : a.v.f64 * b.v.f64);
            break;
        }
        push(a.tag, r);
        break;
      }
      case Op::DIV:
      case Op::REM: {
        TaggedSlot b = pop_portable(frame);
        TaggedSlot a = pop_portable(frame);
        if (a.tag != b.tag) {
          INTERP_THROW(mod.invalid_cast_class(), "operand tag mismatch");
        }
        switch (a.tag) {
          case ValType::I32: {
            std::int32_t out;
            const auto s = in.op == Op::DIV ? arith::div_i32(a.v.i32, b.v.i32, &out)
                                            : arith::rem_i32(a.v.i32, b.v.i32, &out);
            if (s == arith::DivStatus::DivideByZero) {
              INTERP_THROW(mod.divide_by_zero_class(), "division by zero");
            }
            if (s == arith::DivStatus::Overflow) {
              INTERP_THROW(mod.arithmetic_class(), "integer overflow in division");
            }
            push(ValType::I32, Slot::from_i32(out));
            break;
          }
          case ValType::I64: {
            std::int64_t out;
            const auto s = in.op == Op::DIV ? arith::div_i64(a.v.i64, b.v.i64, &out)
                                            : arith::rem_i64(a.v.i64, b.v.i64, &out);
            if (s == arith::DivStatus::DivideByZero) {
              INTERP_THROW(mod.divide_by_zero_class(), "division by zero");
            }
            if (s == arith::DivStatus::Overflow) {
              INTERP_THROW(mod.arithmetic_class(), "integer overflow in division");
            }
            push(ValType::I64, Slot::from_i64(out));
            break;
          }
          case ValType::F32:
            push(ValType::F32,
                 Slot::from_f32(in.op == Op::DIV ? a.v.f32 / b.v.f32
                                                 : std::fmod(a.v.f32, b.v.f32)));
            break;
          default:
            push(ValType::F64,
                 Slot::from_f64(in.op == Op::DIV ? a.v.f64 / b.v.f64
                                                 : std::fmod(a.v.f64, b.v.f64)));
            break;
        }
        break;
      }
      case Op::NEG: {
        TaggedSlot a = st[--frame.sp];
        switch (a.tag) {
          case ValType::I32: push(a.tag, Slot::from_i32(arith::sub_i32(0, a.v.i32))); break;
          case ValType::I64: push(a.tag, Slot::from_i64(arith::sub_i64(0, a.v.i64))); break;
          case ValType::F32: push(a.tag, Slot::from_f32(-a.v.f32)); break;
          default: push(a.tag, Slot::from_f64(-a.v.f64)); break;
        }
        break;
      }

      case Op::AND:
      case Op::OR:
      case Op::XOR: {
        TaggedSlot b = pop_portable(frame);
        TaggedSlot a = pop_portable(frame);
        if (a.tag == ValType::I32) {
          const std::int32_t r = in.op == Op::AND ? (a.v.i32 & b.v.i32)
                                 : in.op == Op::OR ? (a.v.i32 | b.v.i32)
                                                   : (a.v.i32 ^ b.v.i32);
          push(ValType::I32, Slot::from_i32(r));
        } else {
          const std::int64_t r = in.op == Op::AND ? (a.v.i64 & b.v.i64)
                                 : in.op == Op::OR ? (a.v.i64 | b.v.i64)
                                                   : (a.v.i64 ^ b.v.i64);
          push(ValType::I64, Slot::from_i64(r));
        }
        break;
      }
      case Op::NOT: {
        TaggedSlot a = st[--frame.sp];
        if (a.tag == ValType::I32) push(a.tag, Slot::from_i32(~a.v.i32));
        else push(a.tag, Slot::from_i64(~a.v.i64));
        break;
      }
      case Op::SHL:
      case Op::SHR:
      case Op::SHR_UN: {
        TaggedSlot n = pop_portable(frame);
        TaggedSlot a = pop_portable(frame);
        if (a.tag == ValType::I32) {
          const std::int32_t r = in.op == Op::SHL ? arith::shl_i32(a.v.i32, n.v.i32)
                                 : in.op == Op::SHR ? arith::shr_i32(a.v.i32, n.v.i32)
                                                    : arith::shru_i32(a.v.i32, n.v.i32);
          push(ValType::I32, Slot::from_i32(r));
        } else {
          const std::int64_t r = in.op == Op::SHL ? arith::shl_i64(a.v.i64, n.v.i32)
                                 : in.op == Op::SHR ? arith::shr_i64(a.v.i64, n.v.i32)
                                                    : arith::shru_i64(a.v.i64, n.v.i32);
          push(ValType::I64, Slot::from_i64(r));
        }
        break;
      }

      case Op::CEQ:
      case Op::CGT:
      case Op::CLT: {
        TaggedSlot b = pop_portable(frame);
        TaggedSlot a = pop_portable(frame);
        if (a.tag != b.tag) {
          INTERP_THROW(mod.invalid_cast_class(), "operand tag mismatch");
        }
        bool r = false;
        switch (a.tag) {
          case ValType::I32:
            r = in.op == Op::CEQ ? a.v.i32 == b.v.i32
                : in.op == Op::CGT ? a.v.i32 > b.v.i32 : a.v.i32 < b.v.i32;
            break;
          case ValType::I64:
            r = in.op == Op::CEQ ? a.v.i64 == b.v.i64
                : in.op == Op::CGT ? a.v.i64 > b.v.i64 : a.v.i64 < b.v.i64;
            break;
          case ValType::F32:
            r = in.op == Op::CEQ ? a.v.f32 == b.v.f32
                : in.op == Op::CGT ? a.v.f32 > b.v.f32 : a.v.f32 < b.v.f32;
            break;
          case ValType::F64:
            r = in.op == Op::CEQ ? a.v.f64 == b.v.f64
                : in.op == Op::CGT ? a.v.f64 > b.v.f64 : a.v.f64 < b.v.f64;
            break;
          case ValType::Ref:
            r = in.op == Op::CEQ && a.v.ref == b.v.ref;
            break;
          case ValType::None:
            break;
        }
        push(ValType::I32, Slot::from_i32(r ? 1 : 0));
        break;
      }

      case Op::BR:
        if (in.a <= pc && ++rt.backedges == rt.pulse_next) {
          if (rt.pulse(frame, uw, in.a)) return rt.osr_result();
          if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
        }
        pc = in.a;
        continue;
      case Op::BRTRUE:
      case Op::BRFALSE: {
        TaggedSlot a = st[--frame.sp];
        bool truth;
        switch (a.tag) {
          case ValType::Ref: truth = a.v.ref != nullptr; break;
          case ValType::I64: truth = a.v.i64 != 0; break;
          default: truth = a.v.i32 != 0; break;
        }
        if (truth == (in.op == Op::BRTRUE)) {
          if (in.a <= pc && ++rt.backedges == rt.pulse_next) {
            if (rt.pulse(frame, uw, in.a)) return rt.osr_result();
            if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
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
        TaggedSlot b = pop_portable(frame);
        TaggedSlot a = pop_portable(frame);
        if (a.tag != b.tag) {
          INTERP_THROW(mod.invalid_cast_class(), "operand tag mismatch");
        }
        bool taken = false;
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
        switch (a.tag) {
          case ValType::I32: taken = cmp(a.v.i32, b.v.i32); break;
          case ValType::I64: taken = cmp(a.v.i64, b.v.i64); break;
          case ValType::F32: taken = cmp(a.v.f32, b.v.f32); break;
          case ValType::F64: taken = cmp(a.v.f64, b.v.f64); break;
          case ValType::Ref:
            taken = in.op == Op::BEQ ? a.v.ref == b.v.ref : a.v.ref != b.v.ref;
            break;
          case ValType::None: break;
        }
        if (taken) {
          if (in.a <= pc && ++rt.backedges == rt.pulse_next) {
            if (rt.pulse(frame, uw, in.a)) return rt.osr_result();
            if (ctx.has_pending()) goto dispatch_exception;  // fuel fault
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
        TaggedSlot a = st[--frame.sp];
        double fv = 0;
        std::int64_t iv = 0;
        bool is_float = a.tag == ValType::F32 || a.tag == ValType::F64;
        switch (a.tag) {
          case ValType::I32: iv = a.v.i32; fv = a.v.i32; break;
          case ValType::I64: iv = a.v.i64; fv = static_cast<double>(a.v.i64); break;
          case ValType::F32: fv = a.v.f32; break;
          default: fv = a.v.f64; break;
        }
        switch (in.op) {
          case Op::CONV_I4:
            push(ValType::I32, Slot::from_i32(is_float ? arith::f_to_i32(fv)
                                                       : static_cast<std::int32_t>(iv)));
            break;
          case Op::CONV_I8:
            push(ValType::I64, Slot::from_i64(is_float ? arith::f_to_i64(fv) : iv));
            break;
          case Op::CONV_R4:
            push(ValType::F32, Slot::from_f32(is_float ? static_cast<float>(fv)
                                                       : static_cast<float>(iv)));
            break;
          case Op::CONV_R8:
            push(ValType::F64, Slot::from_f64(is_float ? fv : static_cast<double>(iv)));
            break;
          case Op::CONV_I1: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            push(ValType::I32, Slot::from_i32(static_cast<std::int8_t>(x)));
            break;
          }
          case Op::CONV_U1: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            push(ValType::I32, Slot::from_i32(static_cast<std::uint8_t>(x)));
            break;
          }
          case Op::CONV_I2: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            push(ValType::I32, Slot::from_i32(static_cast<std::int16_t>(x)));
            break;
          }
          default: {
            const auto x = is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
            push(ValType::I32, Slot::from_i32(static_cast<std::uint16_t>(x)));
            break;
          }
        }
        break;
      }

      case Op::CALL: {
        const MethodDef& callee = mod.method(in.a);
        const std::size_t argc = callee.sig.params.size();
        Slot argbuf[kMaxCallArgs];
        for (std::size_t i = 0; i < argc; ++i) {
          argbuf[i] = st[frame.sp - static_cast<std::int32_t>(argc - i)].v;
        }
        // Tiered mode routes calls through the engine so a hot callee runs
        // on its promoted tier; Single mode keeps the direct recursion.
        const Slot r = tiered_ ? engine_.call(ctx, in.a, argbuf)
                               : exec(ctx, callee, argbuf);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (callee.sig.ret != ValType::None) push(callee.sig.ret, r);
        break;
      }
      case Op::CALLINTR: {
        const IntrinsicDef& d = intrinsic(in.a);
        const std::size_t argc = d.sig.params.size();
        Slot argbuf[kMaxIntrinsicArgs];
        for (std::size_t i = 0; i < argc; ++i) {
          argbuf[i] = st[frame.sp - static_cast<std::int32_t>(argc - i)].v;
        }
        Slot r;
        d.fn(ctx, argbuf, &r);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (d.sig.ret != ValType::None) push(d.sig.ret, r);
        break;
      }
      case Op::RET:
        if (m.sig.ret != ValType::None) result = st[frame.sp - 1].v;
        return result;

      case Op::NEWOBJ: {
        ObjRef obj = vm_.heap().alloc_instance(in.a, &ctx.tlab);
        if (obj == nullptr) {
          INTERP_THROW(mod.out_of_memory_class(),
                       "allocation budget exhausted");
        }
        push(ValType::Ref, Slot::from_ref(obj));
        break;
      }
      case Op::LDFLD: {
        ObjRef obj = st[frame.sp - 1].v.ref;
        if (obj == nullptr) INTERP_THROW(mod.null_reference_class(), "ldfld");
        --frame.sp;
        const Slot v = obj->fields()[in.a];
        push(in.type, v);
        break;
      }
      case Op::STFLD: {
        TaggedSlot v = st[--frame.sp];
        ObjRef obj = st[--frame.sp].v.ref;
        if (obj == nullptr) INTERP_THROW(mod.null_reference_class(), "stfld");
        obj->fields()[in.a] = v.v;
        if (in.type == ValType::Ref) gc_write_barrier(obj);
        break;
      }
      case Op::LDSFLD:
        push(in.type, mod.statics(in.b)[in.a]);
        break;
      case Op::STSFLD:
        mod.statics(in.b)[in.a] = st[--frame.sp].v;
        break;

      case Op::NEWARR: {
        const std::int32_t len = st[frame.sp - 1].v.i32;
        if (len < 0) INTERP_THROW(mod.index_range_class(), "negative array size");
        ObjRef arr = vm_.heap().alloc_array(in.type, len, &ctx.tlab);
        if (arr == nullptr) {
          INTERP_THROW(mod.out_of_memory_class(),
                       "allocation budget exhausted");
        }
        st[frame.sp - 1] = {Slot::from_ref(arr), ValType::Ref};
        break;
      }
      case Op::LDLEN: {
        ObjRef arr = st[frame.sp - 1].v.ref;
        if (arr == nullptr) INTERP_THROW(mod.null_reference_class(), "ldlen");
        st[frame.sp - 1] = {Slot::from_i32(arr->length), ValType::I32};
        break;
      }
      case Op::LDELEM: {
        const std::int32_t idx = st[--frame.sp].v.i32;
        ObjRef arr = st[--frame.sp].v.ref;
        if (arr == nullptr) INTERP_THROW(mod.null_reference_class(), "ldelem");
        if (arr->kind != ObjKind::Array || arr->elem != in.type) {
          INTERP_THROW(mod.invalid_cast_class(), "ldelem element type");
        }
        if (idx < 0 || idx >= arr->length) {
          INTERP_THROW(mod.index_range_class(), "index out of range");
        }
        Slot v;
        switch (in.type) {
          case ValType::I32: v = Slot::from_i32(arr->i32_data()[idx]); break;
          case ValType::I64: v = Slot::from_i64(arr->i64_data()[idx]); break;
          case ValType::F32: v = Slot::from_f32(arr->f32_data()[idx]); break;
          case ValType::F64: v = Slot::from_f64(arr->f64_data()[idx]); break;
          default: v = Slot::from_ref(arr->ref_data()[idx]); break;
        }
        push(in.type, v);
        break;
      }
      case Op::STELEM: {
        TaggedSlot v = st[--frame.sp];
        const std::int32_t idx = st[--frame.sp].v.i32;
        ObjRef arr = st[--frame.sp].v.ref;
        if (arr == nullptr) INTERP_THROW(mod.null_reference_class(), "stelem");
        if (arr->kind != ObjKind::Array || arr->elem != in.type) {
          INTERP_THROW(mod.invalid_cast_class(), "stelem element type");
        }
        if (idx < 0 || idx >= arr->length) {
          INTERP_THROW(mod.index_range_class(), "index out of range");
        }
        switch (in.type) {
          case ValType::I32: arr->i32_data()[idx] = v.v.i32; break;
          case ValType::I64: arr->i64_data()[idx] = v.v.i64; break;
          case ValType::F32: arr->f32_data()[idx] = v.v.f32; break;
          case ValType::F64: arr->f64_data()[idx] = v.v.f64; break;
          default:
            arr->ref_data()[idx] = v.v.ref;
            gc_write_barrier(arr);
            break;
        }
        break;
      }
      case Op::NEWMAT: {
        const std::int32_t cols = st[frame.sp - 1].v.i32;
        const std::int32_t rows = st[frame.sp - 2].v.i32;
        if (rows < 0 || cols < 0) {
          INTERP_THROW(mod.index_range_class(), "negative matrix size");
        }
        ObjRef mat = vm_.heap().alloc_matrix2(in.type, rows, cols, &ctx.tlab);
        if (mat == nullptr) {
          INTERP_THROW(mod.out_of_memory_class(),
                       "allocation budget exhausted");
        }
        frame.sp -= 2;
        push(ValType::Ref, Slot::from_ref(mat));
        break;
      }
      case Op::LDELEM2: {
        const std::int32_t c = st[--frame.sp].v.i32;
        const std::int32_t r = st[--frame.sp].v.i32;
        ObjRef mat = st[--frame.sp].v.ref;
        if (mat == nullptr) INTERP_THROW(mod.null_reference_class(), "ldelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          INTERP_THROW(mod.index_range_class(), "matrix index out of range");
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
        push(in.type, v);
        break;
      }
      case Op::STELEM2: {
        TaggedSlot v = st[--frame.sp];
        const std::int32_t c = st[--frame.sp].v.i32;
        const std::int32_t r = st[--frame.sp].v.i32;
        ObjRef mat = st[--frame.sp].v.ref;
        if (mat == nullptr) INTERP_THROW(mod.null_reference_class(), "stelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          INTERP_THROW(mod.index_range_class(), "matrix index out of range");
        }
        const std::int64_t i = static_cast<std::int64_t>(r) * mat->cols + c;
        switch (in.type) {
          case ValType::I32: mat->i32_data()[i] = v.v.i32; break;
          case ValType::I64: mat->i64_data()[i] = v.v.i64; break;
          case ValType::F32: mat->f32_data()[i] = v.v.f32; break;
          case ValType::F64: mat->f64_data()[i] = v.v.f64; break;
          default:
            mat->ref_data()[i] = v.v.ref;
            gc_write_barrier(mat);
            break;
        }
        break;
      }
      case Op::LDMATROWS:
      case Op::LDMATCOLS: {
        ObjRef mat = st[frame.sp - 1].v.ref;
        if (mat == nullptr) INTERP_THROW(mod.null_reference_class(), "ldmat");
        st[frame.sp - 1] = {Slot::from_i32(in.op == Op::LDMATROWS ? mat->length
                                                                  : mat->cols),
                            ValType::I32};
        break;
      }

      case Op::BOX: {
        ObjRef box = vm_.heap().alloc_box(in.type, st[frame.sp - 1].v, &ctx.tlab);
        if (box == nullptr) {
          INTERP_THROW(mod.out_of_memory_class(),
                       "allocation budget exhausted");
        }
        st[frame.sp - 1] = {Slot::from_ref(box), ValType::Ref};
        break;
      }
      case Op::UNBOX: {
        ObjRef box = st[frame.sp - 1].v.ref;
        if (box == nullptr) INTERP_THROW(mod.null_reference_class(), "unbox");
        if (box->kind != ObjKind::Boxed || box->elem != in.type) {
          INTERP_THROW(mod.invalid_cast_class(), "unbox type mismatch");
        }
        --frame.sp;
        push(in.type, box->fields()[0]);
        break;
      }

      case Op::THROW: {
        ObjRef exc = st[--frame.sp].v.ref;
        if (exc == nullptr) INTERP_THROW(mod.null_reference_class(), "throw null");
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
    }
    ++pc;
    continue;

  dispatch_exception:
    if (!rt.dispatch_exception(frame, uw, pc)) return result;
  }
}

#undef INTERP_THROW

}  // namespace

std::unique_ptr<TierBackend> make_interp_backend(VirtualMachine& vm,
                                                 TieredEngine& engine) {
  return std::make_unique<InterpBackend>(vm, engine);
}

}  // namespace hpcnet::vm
