// Tier::Interp and Tier::Baseline — the SSCLI/Rotor and Mono 0.23
// stand-ins, as one IL executor. Both run the verified stack IL literally:
// every value round-trips through the memory-resident operand stack and
// the locals array (the code shape of the paper's Mono disassembly, Table 7:
// "uses two memory locations for each of the variables, loads those and
// stores the result again"). Each opcode's semantics is written once, in
// ILBackend<Traits>::exec; the two traits structs below hold everything
// the tiers do differently, and nothing else.
//
// GC maps: an instruction's operands stay on the operand stack until it
// retires, and frame.pc is current at every GC point, so the verifier's
// per-pc stack type map describes the live stack whenever a collection can
// run. The baseline derives its roots from that map; the interpreter reads
// its per-slot tags instead.
#include <algorithm>
#include <cmath>
#include <functional>

#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/unwind.hpp"

namespace hpcnet::vm {

namespace {

/// Tier::Interp: portable by construction. Every stack slot carries a
/// dynamic type tag and arithmetic dispatches on it, re-checking that both
/// operands agree; every instruction polls the safepoint flag and
/// re-validates the frame state instead of trusting the verifier. This is
/// the "generic portability layer, no optimization" design the paper
/// measures at 5-10x below the optimizing engines.
struct RotorTraits {
  using SlotT = TaggedSlot;
  using Frame = ILFrame<TaggedSlot>;
  static constexpr Tier kTier = Tier::Interp;

  /// GC roots come from the tags: every live ref-tagged slot or stack entry.
  static void enumerate(const GcFrame* g, void (*visit)(ObjRef, void*),
                        void* arg) {
    const auto* f = reinterpret_cast<const Frame*>(g);
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

  // SSCLI funnels primitive operations through its portability layer rather
  // than open-coding them; these out-of-line calls model that call-per-
  // operation design (and are the main reason this tier lands 4-10x behind
  // the optimizing engines, as Rotor did). Cache-line aligned like the
  // dispatch loops (see ILBackend::exec).
  [[gnu::noinline, gnu::aligned(64)]] static void push(Frame& f,
                                                       TaggedSlot* st,
                                                       ValType t, Slot v) {
    st[f.sp].tag = t;
    st[f.sp].v = v;
    ++f.sp;
  }
  [[gnu::noinline, gnu::aligned(64)]] static TaggedSlot pop(Frame& f,
                                                            TaggedSlot* st) {
    return st[--f.sp];
  }

  static ValType type_of(const Instr&, const TaggedSlot& s) { return s.tag; }
  static bool same_type(const TaggedSlot& a, const TaggedSlot& b) {
    return a.tag == b.tag;
  }
  static bool elem_ok(ObjRef arr, ValType t) {
    return arr->kind == ObjKind::Array && arr->elem == t;
  }

  /// Runs before every instruction: the safepoint poll (the portable
  /// engine's tax), then the defensive pc-range and stack-bound checks.
  static bool enter_instr(VirtualMachine& vm, VMContext& ctx,
                          const MethodDef& m, const Frame& f,
                          std::int32_t pc) {
    vm.safepoint_poll(ctx);
    return static_cast<std::uint32_t>(pc) < m.code.size() &&
           static_cast<std::uint32_t>(f.sp) <=
               static_cast<std::uint32_t>(m.max_stack);
  }

  /// Call arguments are copied out of the tagged stack into `buf`.
  static const Slot* call_args(const Frame& f, std::size_t argc, Slot* buf) {
    const TaggedSlot* base = f.stack + f.sp - static_cast<std::int32_t>(argc);
    for (std::size_t i = 0; i < argc; ++i) buf[i] = base[i].v;
    return buf;
  }
};

/// Tier::Baseline: the verifier's type annotations let this tier drop all
/// dynamic tag dispatch (each opcode switches on the statically known
/// operand type in `in.type`), and the stack is accessed inline.
struct MonoTraits {
  using SlotT = Slot;
  using Frame = ILFrame<Slot>;
  static constexpr Tier kTier = Tier::Baseline;

  /// GC roots come from the verifier's maps: the static slot types, and the
  /// operand stack's ref layout at the frame's recorded pc.
  static void enumerate(const GcFrame* g, void (*visit)(ObjRef, void*),
                        void* arg) {
    const auto* f = reinterpret_cast<const Frame*>(g);
    const MethodDef& m = *f->m;
    for (std::size_t i = 0; i < m.frame_slots(); ++i) {
      if (m.slot_type(i) == ValType::Ref && f->slots[i].ref != nullptr) {
        visit(f->slots[i].ref, arg);
      }
    }
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

  static void push(Frame& f, Slot* st, ValType, Slot v) { st[f.sp++] = v; }
  static Slot pop(Frame& f, Slot* st) { return st[--f.sp]; }

  static ValType type_of(const Instr& in, const Slot&) { return in.type; }
  static bool same_type(const Slot&, const Slot&) { return true; }
  static bool elem_ok(ObjRef, ValType) { return true; }

  static bool enter_instr(VirtualMachine&, VMContext&, const MethodDef&,
                          const Frame&, std::int32_t) {
    return true;
  }

  /// Callees read their arguments in place on the operand stack.
  static const Slot* call_args(const Frame& f, std::size_t argc, Slot*) {
    return f.stack + f.sp - static_cast<std::int32_t>(argc);
  }
};

// ---------------------------------------------------------------------------
// Typed operator helpers (arith.hpp holds the exact CIL wrap/NaN rules).

struct Add {
  std::int32_t operator()(std::int32_t x, std::int32_t y) const {
    return arith::add_i32(x, y);
  }
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    return arith::add_i64(x, y);
  }
  template <class F> F operator()(F x, F y) const { return x + y; }
};
struct Sub {
  std::int32_t operator()(std::int32_t x, std::int32_t y) const {
    return arith::sub_i32(x, y);
  }
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    return arith::sub_i64(x, y);
  }
  template <class F> F operator()(F x, F y) const { return x - y; }
};
struct Mul {
  std::int32_t operator()(std::int32_t x, std::int32_t y) const {
    return arith::mul_i32(x, y);
  }
  std::int64_t operator()(std::int64_t x, std::int64_t y) const {
    return arith::mul_i64(x, y);
  }
  template <class F> F operator()(F x, F y) const { return x * y; }
};
struct Shl {
  std::int32_t operator()(std::int32_t x, std::int32_t n) const {
    return arith::shl_i32(x, n);
  }
  std::int64_t operator()(std::int64_t x, std::int32_t n) const {
    return arith::shl_i64(x, n);
  }
};
struct Shr {
  std::int32_t operator()(std::int32_t x, std::int32_t n) const {
    return arith::shr_i32(x, n);
  }
  std::int64_t operator()(std::int64_t x, std::int32_t n) const {
    return arith::shr_i64(x, n);
  }
};
struct ShrUn {
  std::int32_t operator()(std::int32_t x, std::int32_t n) const {
    return arith::shru_i32(x, n);
  }
  std::int64_t operator()(std::int64_t x, std::int32_t n) const {
    return arith::shru_i64(x, n);
  }
};

/// The binary operator `F` applied over an operand type: every numeric
/// type, the integer types, or an integer type shifted by an I32 count.
template <class F>
struct Numeric {
  Slot operator()(ValType t, Slot a, Slot b) const {
    switch (t) {
      case ValType::I32: return Slot::from_i32(F{}(a.i32, b.i32));
      case ValType::I64: return Slot::from_i64(F{}(a.i64, b.i64));
      case ValType::F32: return Slot::from_f32(F{}(a.f32, b.f32));
      default: return Slot::from_f64(F{}(a.f64, b.f64));
    }
  }
};
template <class F>
struct Integer {
  Slot operator()(ValType t, Slot a, Slot b) const {
    return t == ValType::I32 ? Slot::from_i32(F{}(a.i32, b.i32))
                             : Slot::from_i64(F{}(a.i64, b.i64));
  }
};
template <class F>
struct Shift {
  Slot operator()(ValType t, Slot a, Slot n) const {
    return t == ValType::I32 ? Slot::from_i32(F{}(a.i32, n.i32))
                             : Slot::from_i64(F{}(a.i64, n.i32));
  }
};

template <class V>
bool relation(Op op, V x, V y) {
  switch (op) {
    case Op::CEQ:
    case Op::BEQ: return x == y;
    case Op::BNE: return x != y;
    case Op::CLT:
    case Op::BLT: return x < y;
    case Op::BLE: return x <= y;
    case Op::CGT:
    case Op::BGT: return x > y;
    default: return x >= y;
  }
}

// compare() and the element helpers sit on the hottest paths of both tiers.
// They are forced inline: out of line, each handler would pay a call and
// share one type-switch branch with every other site.

/// ceq/cgt/clt and the compare-and-branch ops. Refs only compare for
/// (in)equality: the verifier rejects ordered compares on them.
[[gnu::always_inline]] inline bool compare(Op op, ValType t, Slot a, Slot b) {
  switch (t) {
    case ValType::I32: return relation(op, a.i32, b.i32);
    case ValType::I64: return relation(op, a.i64, b.i64);
    case ValType::F32: return relation(op, a.f32, b.f32);
    case ValType::F64: return relation(op, a.f64, b.f64);
    default: return op == Op::BNE ? a.ref != b.ref : a.ref == b.ref;
  }
}

[[gnu::always_inline]] inline Slot load_elem(ObjRef arr, ValType t,
                                             std::int64_t i) {
  switch (t) {
    case ValType::I32: return Slot::from_i32(arr->i32_data()[i]);
    case ValType::I64: return Slot::from_i64(arr->i64_data()[i]);
    case ValType::F32: return Slot::from_f32(arr->f32_data()[i]);
    case ValType::F64: return Slot::from_f64(arr->f64_data()[i]);
    default: return Slot::from_ref(arr->ref_data()[i]);
  }
}

[[gnu::always_inline]] inline void store_elem(ObjRef arr, ValType t,
                                              std::int64_t i, Slot v) {
  switch (t) {
    case ValType::I32: arr->i32_data()[i] = v.i32; break;
    case ValType::I64: arr->i64_data()[i] = v.i64; break;
    case ValType::F32: arr->f32_data()[i] = v.f32; break;
    case ValType::F64: arr->f64_data()[i] = v.f64; break;
    default:
      arr->ref_data()[i] = v.ref;
      gc_write_barrier(arr);
      break;
  }
}

template <class T>
class ILBackend final : public TierBackend {
 public:
  ILBackend(VirtualMachine& vm, TieredEngine& engine)
      : vm_(vm), engine_(engine), tiered_(engine.tiered()) {}

  Slot execute(VMContext& ctx, const MethodDef& m,
               const Slot* args) override {
    return exec(ctx, m, args);
  }

 private:
  using SlotT = typename T::SlotT;
  using Frame = typename T::Frame;

  // The dispatch loops start on a cache line, so their speed does not move
  // with the size of unrelated code linked before them (a shifted start
  // moved the tiers' benchmark legs by 5-15%).
  [[gnu::aligned(64)]] Slot exec(VMContext& ctx, const MethodDef& m,
                                 const Slot* args);

  /// Pops b and a and pushes op(type, a, b) at a's type; false, with
  /// nothing pushed, when `checked` and the operand types disagree.
  template <class Eval>
  static bool binary(Frame& frame, SlotT* st, const Instr& in, bool checked,
                     Eval op) {
    const SlotT b = T::pop(frame, st);
    const SlotT a = T::pop(frame, st);
    if (checked && !T::same_type(a, b)) return false;
    const ValType t = T::type_of(in, a);
    T::push(frame, st, t, op(t, slot_value(a), slot_value(b)));
    return true;
  }

  VirtualMachine& vm_;
  TieredEngine& engine_;
  const bool tiered_;
};

#define IL_THROW(cls, msg)                  \
  do {                                      \
    frame.pc = pc;                          \
    vm_.throw_exception(ctx, (cls), (msg)); \
    goto dispatch_exception;                \
  } while (0)

template <class T>
Slot ILBackend<T>::exec(VMContext& ctx, const MethodDef& m,
                        const Slot* args) {
  Module& mod = vm_.module();
  engine_.ensure_verified(m);
  if (meter_fault(vm_, ctx)) return Slot{};
  ILFrameRuntime<SlotT> rt(ctx, engine_, m,
                           static_cast<std::uint8_t>(T::kTier));
  Frame frame;
  rt.enter(frame, args, &T::enumerate);

  UnwindMachine uw;
  SlotT* st = frame.stack;
  SlotT* loc = frame.slots;
  std::int32_t pc = 0;
  Slot result;

  for (;;) {
    if (!T::enter_instr(vm_, ctx, m, frame, pc)) {
      IL_THROW(mod.exception_class(), "interpreter state corrupt");
    }
    {
      ++rt.bc;
      const Instr& in = m.code[static_cast<std::size_t>(pc)];
      switch (in.op) {
        case Op::NOP:
          break;
        case Op::LDC_I4:
          T::push(frame, st, ValType::I32,
                  Slot::from_i32(static_cast<std::int32_t>(in.imm.i64)));
          break;
        case Op::LDC_I8:
          T::push(frame, st, ValType::I64, Slot::from_i64(in.imm.i64));
          break;
        case Op::LDC_R4:
          T::push(frame, st, ValType::F32,
                  Slot::from_f32(static_cast<float>(in.imm.f64)));
          break;
        case Op::LDC_R8:
          T::push(frame, st, ValType::F64, Slot::from_f64(in.imm.f64));
          break;
        case Op::LDNULL:
          T::push(frame, st, ValType::Ref, Slot::from_ref(nullptr));
          break;
        case Op::LDSTR: {
          frame.pc = pc;
          ObjRef s = vm_.heap().alloc_string(mod.string_at(in.a), &ctx.tlab);
          if (s == nullptr) {
            IL_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
          }
          T::push(frame, st, ValType::Ref, Slot::from_ref(s));
          break;
        }

        case Op::LDLOC: {
          const SlotT& s = loc[m.num_args() + static_cast<std::size_t>(in.a)];
          T::push(frame, st, T::type_of(in, s), slot_value(s));
          break;
        }
        case Op::STLOC:
          loc[m.num_args() + static_cast<std::size_t>(in.a)] =
              T::pop(frame, st);
          break;
        case Op::LDARG: {
          const SlotT& s = loc[static_cast<std::size_t>(in.a)];
          T::push(frame, st, T::type_of(in, s), slot_value(s));
          break;
        }
        case Op::STARG:
          loc[static_cast<std::size_t>(in.a)] = T::pop(frame, st);
          break;
        case Op::DUP:
          st[frame.sp] = st[frame.sp - 1];
          ++frame.sp;
          break;
        case Op::POP:
          --frame.sp;
          break;

        case Op::ADD:
          if (!binary(frame, st, in, true, Numeric<Add>{})) goto tag_mismatch;
          break;
        case Op::SUB:
          if (!binary(frame, st, in, true, Numeric<Sub>{})) goto tag_mismatch;
          break;
        case Op::MUL:
          if (!binary(frame, st, in, true, Numeric<Mul>{})) goto tag_mismatch;
          break;
        case Op::DIV:
        case Op::REM: {
          const SlotT b = T::pop(frame, st);
          const SlotT a = T::pop(frame, st);
          if (!T::same_type(a, b)) goto tag_mismatch;
          const ValType t = T::type_of(in, a);
          const Slot x = slot_value(a);
          const Slot y = slot_value(b);
          const bool div = in.op == Op::DIV;
          auto s = arith::DivStatus::Ok;
          Slot r;
          switch (t) {
            case ValType::I32: {
              std::int32_t out = 0;
              s = div ? arith::div_i32(x.i32, y.i32, &out)
                      : arith::rem_i32(x.i32, y.i32, &out);
              r = Slot::from_i32(out);
              break;
            }
            case ValType::I64: {
              std::int64_t out = 0;
              s = div ? arith::div_i64(x.i64, y.i64, &out)
                      : arith::rem_i64(x.i64, y.i64, &out);
              r = Slot::from_i64(out);
              break;
            }
            case ValType::F32:
              r = Slot::from_f32(div ? x.f32 / y.f32 : std::fmod(x.f32, y.f32));
              break;
            default:
              r = Slot::from_f64(div ? x.f64 / y.f64 : std::fmod(x.f64, y.f64));
              break;
          }
          if (s == arith::DivStatus::DivideByZero) {
            IL_THROW(mod.divide_by_zero_class(), "division by zero");
          }
          if (s == arith::DivStatus::Overflow) {
            IL_THROW(mod.arithmetic_class(), "integer overflow in division");
          }
          T::push(frame, st, t, r);
          break;
        }
        case Op::NEG: {
          const SlotT a = st[--frame.sp];
          const ValType t = T::type_of(in, a);
          const Slot x = slot_value(a);
          switch (t) {
            case ValType::I32:
              T::push(frame, st, t, Slot::from_i32(arith::sub_i32(0, x.i32)));
              break;
            case ValType::I64:
              T::push(frame, st, t, Slot::from_i64(arith::sub_i64(0, x.i64)));
              break;
            case ValType::F32:
              T::push(frame, st, t, Slot::from_f32(-x.f32));
              break;
            default: T::push(frame, st, t, Slot::from_f64(-x.f64)); break;
          }
          break;
        }

        case Op::AND:
          binary(frame, st, in, false, Integer<std::bit_and<>>{});
          break;
        case Op::OR:
          binary(frame, st, in, false, Integer<std::bit_or<>>{});
          break;
        case Op::XOR:
          binary(frame, st, in, false, Integer<std::bit_xor<>>{});
          break;
        case Op::NOT: {
          const SlotT a = st[--frame.sp];
          const ValType t = T::type_of(in, a);
          const Slot x = slot_value(a);
          T::push(frame, st, t,
                  t == ValType::I32 ? Slot::from_i32(~x.i32)
                                    : Slot::from_i64(~x.i64));
          break;
        }
        case Op::SHL:
          binary(frame, st, in, false, Shift<Shl>{});
          break;
        case Op::SHR:
          binary(frame, st, in, false, Shift<Shr>{});
          break;
        case Op::SHR_UN:
          binary(frame, st, in, false, Shift<ShrUn>{});
          break;

        case Op::CEQ:
        case Op::CGT:
        case Op::CLT: {
          const SlotT b = T::pop(frame, st);
          const SlotT a = T::pop(frame, st);
          if (!T::same_type(a, b)) goto tag_mismatch;
          const bool r = compare(in.op, T::type_of(in, a), slot_value(a),
                                 slot_value(b));
          T::push(frame, st, ValType::I32, Slot::from_i32(r ? 1 : 0));
          break;
        }

        case Op::BR:
          goto branch;
        case Op::BRTRUE:
        case Op::BRFALSE: {
          const SlotT a = st[--frame.sp];
          const ValType t = T::type_of(in, a);
          const Slot x = slot_value(a);
          const bool truth = t == ValType::Ref   ? x.ref != nullptr
                             : t == ValType::I64 ? x.i64 != 0
                                                 : x.i32 != 0;
          if (truth == (in.op == Op::BRTRUE)) goto branch;
          break;
        }
        case Op::BEQ:
        case Op::BNE:
        case Op::BLT:
        case Op::BLE:
        case Op::BGT:
        case Op::BGE: {
          const SlotT b = T::pop(frame, st);
          const SlotT a = T::pop(frame, st);
          if (!T::same_type(a, b)) goto tag_mismatch;
          if (compare(in.op, T::type_of(in, a), slot_value(a),
                      slot_value(b))) {
            goto branch;
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
          const SlotT a = st[--frame.sp];
          const ValType t = T::type_of(in, a);
          const Slot x = slot_value(a);
          const bool is_float = t == ValType::F32 || t == ValType::F64;
          double fv = 0;
          std::int64_t iv = 0;
          switch (t) {
            case ValType::I32: iv = x.i32; fv = x.i32; break;
            case ValType::I64:
              iv = x.i64;
              fv = static_cast<double>(x.i64);
              break;
            case ValType::F32: fv = x.f32; break;
            default: fv = x.f64; break;
          }
          const auto narrow = [&] {
            return is_float ? arith::f_to_i32(fv)
                            : static_cast<std::int32_t>(iv);
          };
          switch (in.op) {
            case Op::CONV_I4:
              T::push(frame, st, ValType::I32, Slot::from_i32(narrow()));
              break;
            case Op::CONV_I8:
              T::push(frame, st, ValType::I64,
                      Slot::from_i64(is_float ? arith::f_to_i64(fv) : iv));
              break;
            case Op::CONV_R4:
              T::push(frame, st, ValType::F32,
                      Slot::from_f32(is_float ? static_cast<float>(fv)
                                              : static_cast<float>(iv)));
              break;
            case Op::CONV_R8:
              T::push(frame, st, ValType::F64,
                      Slot::from_f64(is_float ? fv : static_cast<double>(iv)));
              break;
            case Op::CONV_I1:
              T::push(frame, st, ValType::I32,
                      Slot::from_i32(static_cast<std::int8_t>(narrow())));
              break;
            case Op::CONV_U1:
              T::push(frame, st, ValType::I32,
                      Slot::from_i32(static_cast<std::uint8_t>(narrow())));
              break;
            case Op::CONV_I2:
              T::push(frame, st, ValType::I32,
                      Slot::from_i32(static_cast<std::int16_t>(narrow())));
              break;
            default:
              T::push(frame, st, ValType::I32,
                      Slot::from_i32(static_cast<std::uint16_t>(narrow())));
              break;
          }
          break;
        }

        case Op::CALL: {
          frame.pc = pc;
          vm_.safepoint_poll(ctx);
          const MethodDef& callee = mod.method(in.a);
          const std::size_t argc = callee.sig.params.size();
          Slot buf[kMaxCallArgs];
          const Slot* cargs = T::call_args(frame, argc, buf);
          // Tiered mode routes calls through the engine so a hot callee runs
          // on its promoted tier; Single mode keeps the direct recursion.
          const Slot r = tiered_ ? engine_.call(ctx, in.a, cargs)
                                 : exec(ctx, callee, cargs);
          if (ctx.has_pending()) goto dispatch_exception;
          frame.sp -= static_cast<std::int32_t>(argc);
          if (callee.sig.ret != ValType::None) {
            T::push(frame, st, callee.sig.ret, r);
          }
          break;
        }
        case Op::CALLINTR: {
          frame.pc = pc;
          const IntrinsicDef& d = intrinsic(in.a);
          const std::size_t argc = d.sig.params.size();
          Slot buf[kMaxIntrinsicArgs];
          Slot r;
          d.fn(ctx, T::call_args(frame, argc, buf), &r);
          if (ctx.has_pending()) goto dispatch_exception;
          frame.sp -= static_cast<std::int32_t>(argc);
          if (d.sig.ret != ValType::None) T::push(frame, st, d.sig.ret, r);
          break;
        }
        case Op::RET:
          if (m.sig.ret != ValType::None) result = slot_value(st[frame.sp - 1]);
          return result;

        case Op::NEWOBJ: {
          frame.pc = pc;
          ObjRef obj = vm_.heap().alloc_instance(in.a, &ctx.tlab);
          if (obj == nullptr) {
            IL_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
          }
          T::push(frame, st, ValType::Ref, Slot::from_ref(obj));
          break;
        }
        case Op::LDFLD: {
          ObjRef obj = slot_value(st[frame.sp - 1]).ref;
          if (obj == nullptr) IL_THROW(mod.null_reference_class(), "ldfld");
          --frame.sp;
          T::push(frame, st, in.type, obj->fields()[in.a]);
          break;
        }
        case Op::STFLD: {
          const Slot v = slot_value(st[--frame.sp]);
          ObjRef obj = slot_value(st[--frame.sp]).ref;
          if (obj == nullptr) IL_THROW(mod.null_reference_class(), "stfld");
          obj->fields()[in.a] = v;
          if (in.type == ValType::Ref) gc_write_barrier(obj);
          break;
        }
        case Op::LDSFLD:
          T::push(frame, st, in.type, mod.statics(in.b)[in.a]);
          break;
        case Op::STSFLD:
          mod.statics(in.b)[in.a] = slot_value(st[--frame.sp]);
          break;

        case Op::NEWARR: {
          frame.pc = pc;
          const std::int32_t len = slot_value(st[frame.sp - 1]).i32;
          if (len < 0) IL_THROW(mod.index_range_class(), "negative array size");
          ObjRef arr = vm_.heap().alloc_array(in.type, len, &ctx.tlab);
          if (arr == nullptr) {
            IL_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
          }
          store_slot(st[frame.sp - 1], ValType::Ref, Slot::from_ref(arr));
          break;
        }
        case Op::LDLEN: {
          ObjRef arr = slot_value(st[frame.sp - 1]).ref;
          if (arr == nullptr) IL_THROW(mod.null_reference_class(), "ldlen");
          store_slot(st[frame.sp - 1], ValType::I32,
                     Slot::from_i32(arr->length));
          break;
        }
        case Op::LDELEM: {
          const std::int32_t idx = slot_value(st[--frame.sp]).i32;
          ObjRef arr = slot_value(st[--frame.sp]).ref;
          if (arr == nullptr) IL_THROW(mod.null_reference_class(), "ldelem");
          if (!T::elem_ok(arr, in.type)) {
            IL_THROW(mod.invalid_cast_class(), "ldelem element type");
          }
          if (idx < 0 || idx >= arr->length) {
            IL_THROW(mod.index_range_class(), "index out of range");
          }
          T::push(frame, st, in.type, load_elem(arr, in.type, idx));
          break;
        }
        case Op::STELEM: {
          const Slot v = slot_value(st[--frame.sp]);
          const std::int32_t idx = slot_value(st[--frame.sp]).i32;
          ObjRef arr = slot_value(st[--frame.sp]).ref;
          if (arr == nullptr) IL_THROW(mod.null_reference_class(), "stelem");
          if (!T::elem_ok(arr, in.type)) {
            IL_THROW(mod.invalid_cast_class(), "stelem element type");
          }
          if (idx < 0 || idx >= arr->length) {
            IL_THROW(mod.index_range_class(), "index out of range");
          }
          store_elem(arr, in.type, idx, v);
          break;
        }
        case Op::NEWMAT: {
          frame.pc = pc;
          const std::int32_t cols = slot_value(st[frame.sp - 1]).i32;
          const std::int32_t rows = slot_value(st[frame.sp - 2]).i32;
          if (rows < 0 || cols < 0) {
            IL_THROW(mod.index_range_class(), "negative matrix size");
          }
          ObjRef mat = vm_.heap().alloc_matrix2(in.type, rows, cols, &ctx.tlab);
          if (mat == nullptr) {
            IL_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
          }
          frame.sp -= 2;
          T::push(frame, st, ValType::Ref, Slot::from_ref(mat));
          break;
        }
        case Op::LDELEM2: {
          const std::int32_t c = slot_value(st[--frame.sp]).i32;
          const std::int32_t r = slot_value(st[--frame.sp]).i32;
          ObjRef mat = slot_value(st[--frame.sp]).ref;
          if (mat == nullptr) IL_THROW(mod.null_reference_class(), "ldelem2");
          if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
            IL_THROW(mod.index_range_class(), "matrix index out of range");
          }
          T::push(frame, st, in.type,
                  load_elem(mat, in.type,
                            static_cast<std::int64_t>(r) * mat->cols + c));
          break;
        }
        case Op::STELEM2: {
          const Slot v = slot_value(st[--frame.sp]);
          const std::int32_t c = slot_value(st[--frame.sp]).i32;
          const std::int32_t r = slot_value(st[--frame.sp]).i32;
          ObjRef mat = slot_value(st[--frame.sp]).ref;
          if (mat == nullptr) IL_THROW(mod.null_reference_class(), "stelem2");
          if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
            IL_THROW(mod.index_range_class(), "matrix index out of range");
          }
          store_elem(mat, in.type, static_cast<std::int64_t>(r) * mat->cols + c,
                     v);
          break;
        }
        case Op::LDMATROWS:
        case Op::LDMATCOLS: {
          ObjRef mat = slot_value(st[frame.sp - 1]).ref;
          if (mat == nullptr) IL_THROW(mod.null_reference_class(), "ldmat");
          store_slot(st[frame.sp - 1], ValType::I32,
                     Slot::from_i32(in.op == Op::LDMATROWS ? mat->length
                                                           : mat->cols));
          break;
        }

        case Op::BOX: {
          frame.pc = pc;
          ObjRef box = vm_.heap().alloc_box(
              in.type, slot_value(st[frame.sp - 1]), &ctx.tlab);
          if (box == nullptr) {
            IL_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
          }
          store_slot(st[frame.sp - 1], ValType::Ref, Slot::from_ref(box));
          break;
        }
        case Op::UNBOX: {
          ObjRef box = slot_value(st[frame.sp - 1]).ref;
          if (box == nullptr) IL_THROW(mod.null_reference_class(), "unbox");
          if (box->kind != ObjKind::Boxed || box->elem != in.type) {
            IL_THROW(mod.invalid_cast_class(), "unbox type mismatch");
          }
          --frame.sp;
          T::push(frame, st, in.type, box->fields()[0]);
          break;
        }

        case Op::THROW: {
          ObjRef exc = slot_value(st[--frame.sp]).ref;
          if (exc == nullptr) {
            IL_THROW(mod.null_reference_class(), "throw null");
          }
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

    branch:
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

    tag_mismatch:
      IL_THROW(mod.invalid_cast_class(), "operand tag mismatch");
    }

  dispatch_exception:
    if (!rt.dispatch_exception(frame, uw, pc)) return result;
  }
}

#undef IL_THROW

}  // namespace

std::unique_ptr<TierBackend> make_interp_backend(VirtualMachine& vm,
                                                 TieredEngine& engine) {
  return std::make_unique<ILBackend<RotorTraits>>(vm, engine);
}

std::unique_ptr<TierBackend> make_baseline_backend(VirtualMachine& vm,
                                                   TieredEngine& engine) {
  return std::make_unique<ILBackend<MonoTraits>>(vm, engine);
}

}  // namespace hpcnet::vm
