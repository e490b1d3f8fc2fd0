#include "vm/regcompile.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "support/timer.hpp"
#include "vm/intrinsics.hpp"
#include "vm/regir_ops.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/veccompile.hpp"
#include "vm/verifier.hpp"

namespace hpcnet::vm::regir {

namespace {

struct ConstVal {
  std::uint64_t raw;
  ValType type;
};

class Compiler {
 public:
  Compiler(Module& mod, const MethodDef& m, const EngineFlags& flags,
           const PassObserver* obs = nullptr)
      : mod_(mod), m_(m), mp_(&m), flags_(flags), obs_(obs) {}

  RCode run() {
    // Per-pass timing feeds the paper's JIT-quality analysis (Tables 5-8):
    // a profile's pass mix is exactly what differentiates the engines.
    const bool timed = telemetry::enabled();
    std::int64_t t = timed ? support::now_ns() : 0;
    auto mark = [&](telemetry::JitPass pass) {
      if (!timed) return;
      const std::int64_t now = support::now_ns();
      telemetry::record_jit_pass(m_.id, pass, now - t);
      t = now;
    };
    auto trace = [&](const char* pass) {
      if (obs_ != nullptr) (*obs_)(pass, dump_rcode());
    };
    if (flags_.inline_calls) {
      inline_methods();
      mark(telemetry::JitPass::Inline);
      if (obs_ != nullptr && inlined_) (*obs_)("inline", dump_il());
    }
    alloc_slot_regs();
    find_labels();
    translate();
    mark(telemetry::JitPass::Translate);
    trace("translate");
    if (flags_.copy_propagation) {
      optimize_blocks();
      optimize_blocks();  // second round cleans copies exposed by DCE
    }
    mark(telemetry::JitPass::Optimize);
    trace("copyprop+dce");
    if (flags_.cse) {
      // Two rounds: the copy propagation between them forwards the MOVs the
      // first round left behind, exposing cascaded duplicates (a repeated
      // subtree matches only after its repeated leaves were unified).
      for (int i = 0; i < 2; ++i) {
        cse_blocks();
        if (flags_.copy_propagation) optimize_blocks();
      }
    }
    mark(telemetry::JitPass::Cse);
    if (flags_.cse) trace("cse");
    if (flags_.bounds_check_elim) eliminate_bounds_checks();
    mark(telemetry::JitPass::BoundsCheckElim);
    if (flags_.bounds_check_elim) trace("bce");
    if (flags_.vectorize) {
      regir::VecLowerInput vin;
      vin.code = &out_;
      vin.il_start = &il_start_;
      vin.labels = &labels_;
      vin.method = mp_;
      vin.rc = &rc_;
      regir::lower_vector_loops(vin);
    }
    mark(telemetry::JitPass::VecLower);
    if (flags_.vectorize) trace("veclower");
    compact();
    mark(telemetry::JitPass::Compact);
    finalize();
    mark(telemetry::JitPass::Finalize);
    trace("final");
    return std::move(rc_);
  }

 private:
  // ---- register allocation ----
  std::int32_t new_reg(ValType t) {
    rc_.reg_types.push_back(t);
    return static_cast<std::int32_t>(rc_.reg_types.size()) - 1;
  }

  void alloc_slot_regs() {
    for (std::size_t i = 0; i < mp_->frame_slots(); ++i) {
      new_reg(mp_->slot_type(i));
    }
    rc_.slot_regs = static_cast<std::int32_t>(mp_->frame_slots());
  }

  std::int32_t sreg(std::int32_t depth, ValType t) {
    const auto key = (static_cast<std::int64_t>(depth) << 4) |
                     static_cast<std::int64_t>(t);
    auto it = stack_regs_.find(key);
    if (it != stack_regs_.end()) return it->second;
    const std::int32_t r = new_reg(t);
    stack_regs_.emplace(key, r);
    return r;
  }

  std::int32_t slot_reg(std::int32_t slot) { return slot; }
  bool spilled(std::int32_t slot) const {
    return slot >= flags_.enregister_limit;
  }

  // ---- emission ----
  RInstr& emit(ROp op, std::int32_t d = -1, std::int32_t a = -1,
               std::int32_t b = -1) {
    RInstr in;
    in.op = op;
    in.d = d;
    in.a = a;
    in.b = b;
    in.il_pc = cur_il_;
    out_.push_back(in);
    return out_.back();
  }

  void find_labels() {
    labels_.assign(mp_->code.size() + 1, false);
    for (const Instr& in : mp_->code) {
      switch (in.op) {
        case Op::BR: case Op::BRTRUE: case Op::BRFALSE:
        case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BLE:
        case Op::BGT: case Op::BGE: case Op::LEAVE:
          labels_[static_cast<std::size_t>(in.a)] = true;
          break;
        default:
          break;
      }
    }
    for (const ExHandler& h : mp_->handlers) {
      labels_[static_cast<std::size_t>(h.handler)] = true;
    }
  }

  // ---- constant tracking (per stack depth, reset at labels) ----
  std::optional<ConstVal> const_at(std::size_t depth) const {
    return depth < consts_.size() ? consts_[depth] : std::nullopt;
  }
  void set_const(std::size_t depth, std::optional<ConstVal> v) {
    if (consts_.size() <= depth) consts_.resize(depth + 1);
    consts_[depth] = v;
  }
  void reset_consts() { consts_.clear(); }

  // ---- main translation loop ----
  void translate();
  void translate_one(std::int32_t pc, const Instr& in);

  // ---- passes ----
  void inline_methods();
  bool inlinable(const MethodDef& callee) const;
  static void splice(MethodDef& work, std::size_t c, const MethodDef& callee);
  void optimize_blocks();
  void cse_blocks();
  void eliminate_bounds_checks();
  void compact();
  void finalize();

  std::vector<std::int32_t> block_leaders() const;
  std::vector<std::int32_t> live_out_stack_regs(std::size_t block_end) const;

  std::string dump_rcode() const;
  std::string dump_il() const;

  Module& mod_;
  const MethodDef& m_;        // the module's method (identity, telemetry)
  const MethodDef* mp_;       // body actually compiled (== &m_ or inlined_)
  std::shared_ptr<MethodDef> inlined_;  // expanded copy when inlining fired
  EngineFlags flags_;
  const PassObserver* obs_ = nullptr;
  RCode rc_;

  std::vector<RInstr> out_;
  std::vector<std::int32_t> il_start_;  // IL pc -> out_ index (pre-compaction)
  std::map<std::int64_t, std::int32_t> stack_regs_;
  std::vector<bool> labels_;
  std::vector<std::optional<ConstVal>> consts_;
  std::int32_t cur_il_ = 0;
  bool skip_next_ = false;  // fused compare+branch consumed the next IL op
};

// --------------------------------------------------------------------------

void Compiler::translate() {
  il_start_.assign(mp_->code.size() + 1, -1);
  for (std::size_t pc = 0; pc < mp_->code.size(); ++pc) {
    il_start_[pc] = static_cast<std::int32_t>(out_.size());
    cur_il_ = static_cast<std::int32_t>(pc);
    if (labels_[pc]) reset_consts();
    if (skip_next_) {
      skip_next_ = false;
      continue;
    }
    if (!mp_->reachable.empty() && !mp_->reachable[pc]) continue;
    translate_one(static_cast<std::int32_t>(pc), mp_->code[pc]);
  }
  il_start_[mp_->code.size()] = static_cast<std::int32_t>(out_.size());
}

void Compiler::translate_one(std::int32_t pc, const Instr& in) {
  const auto& st = mp_->stack_in[static_cast<std::size_t>(pc)];
  const auto d = static_cast<std::int32_t>(st.size());
  auto stk = [&](std::int32_t i) { return st[static_cast<std::size_t>(i)]; };

  switch (in.op) {
    case Op::NOP:
      break;

    case Op::LDC_I4: {
      Slot s = Slot::from_i32(static_cast<std::int32_t>(in.imm.i64));
      RInstr& r = emit(ROp::LDI, sreg(d, ValType::I32));
      r.imm.i64 = static_cast<std::int64_t>(s.raw);
      set_const(static_cast<std::size_t>(d), ConstVal{s.raw, ValType::I32});
      break;
    }
    case Op::LDC_I8: {
      RInstr& r = emit(ROp::LDI, sreg(d, ValType::I64));
      r.imm.i64 = in.imm.i64;
      set_const(static_cast<std::size_t>(d),
                ConstVal{static_cast<std::uint64_t>(in.imm.i64), ValType::I64});
      break;
    }
    case Op::LDC_R4: {
      Slot s = Slot::from_f32(static_cast<float>(in.imm.f64));
      RInstr& r = emit(ROp::LDI, sreg(d, ValType::F32));
      r.imm.i64 = static_cast<std::int64_t>(s.raw);
      set_const(static_cast<std::size_t>(d), ConstVal{s.raw, ValType::F32});
      break;
    }
    case Op::LDC_R8: {
      Slot s = Slot::from_f64(in.imm.f64);
      RInstr& r = emit(ROp::LDI, sreg(d, ValType::F64));
      r.imm.i64 = static_cast<std::int64_t>(s.raw);
      set_const(static_cast<std::size_t>(d), ConstVal{s.raw, ValType::F64});
      break;
    }
    case Op::LDNULL: {
      RInstr& r = emit(ROp::LDI, sreg(d, ValType::Ref));
      r.imm.i64 = 0;
      set_const(static_cast<std::size_t>(d), std::nullopt);
      break;
    }
    case Op::LDSTR:
      emit(ROp::LDSTR_R, sreg(d, ValType::Ref), in.a);
      set_const(static_cast<std::size_t>(d), std::nullopt);
      break;

    case Op::LDLOC:
    case Op::LDARG: {
      const std::int32_t slot =
          in.op == Op::LDLOC ? in.a + static_cast<std::int32_t>(mp_->num_args())
                             : in.a;
      emit(spilled(slot) ? ROp::MEMLD : ROp::MOV, sreg(d, in.type),
           slot_reg(slot))
          .flags = spilled(slot) ? RInstr::kPinned : 0;
      set_const(static_cast<std::size_t>(d), std::nullopt);
      break;
    }
    case Op::STLOC:
    case Op::STARG: {
      const std::int32_t slot =
          in.op == Op::STLOC ? in.a + static_cast<std::int32_t>(mp_->num_args())
                             : in.a;
      emit(spilled(slot) ? ROp::MEMST : ROp::MOV, slot_reg(slot),
           sreg(d - 1, in.type))
          .flags = spilled(slot) ? RInstr::kPinned : 0;
      break;
    }
    case Op::DUP:
      emit(ROp::MOV, sreg(d, in.type), sreg(d - 1, in.type));
      set_const(static_cast<std::size_t>(d),
                const_at(static_cast<std::size_t>(d - 1)));
      break;
    case Op::POP:
      break;

    case Op::ADD:
    case Op::SUB:
    case Op::MUL:
    case Op::DIV:
    case Op::REM: {
      const ValType t = in.type;
      const std::int32_t ra = sreg(d - 2, t);
      const std::int32_t rb = sreg(d - 1, t);
      const std::int32_t rd = sreg(d - 2, t);
      const auto cb = const_at(static_cast<std::size_t>(d - 1));
      const bool is_int = t == ValType::I32 || t == ValType::I64;

      auto base3 = [&](ROp i4, ROp i8, ROp r4, ROp r8) {
        return t == ValType::I32 ? i4 : t == ValType::I64 ? i8
               : t == ValType::F32 ? r4 : r8;
      };

      bool emitted = false;
      if (cb.has_value() && flags_.imm_operands) {
        // Immediate-operand instruction selection, gated per-op by the
        // profile (the "different JITs optimize different operations"
        // result in the paper's §5).
        ROp iop = ROp::NOP_R;
        if (t == ValType::I32 || t == ValType::I64) {
          const bool i4 = t == ValType::I32;
          switch (in.op) {
            case Op::ADD: iop = i4 ? ROp::ADDI_I4 : ROp::ADDI_I8; break;
            case Op::SUB: iop = i4 ? ROp::SUBI_I4 : ROp::SUBI_I8; break;
            case Op::MUL:
              if (flags_.mul_imm_fusion) iop = i4 ? ROp::MULI_I4 : ROp::MULI_I8;
              break;
            case Op::DIV:
              if (flags_.div_imm_fusion) iop = i4 ? ROp::DIVI_I4 : ROp::DIVI_I8;
              break;
            case Op::REM:
              if (flags_.div_imm_fusion) iop = i4 ? ROp::REMI_I4 : ROp::REMI_I8;
              break;
            default: break;
          }
        } else if (t == ValType::F64) {
          if (in.op == Op::ADD) iop = ROp::ADDI_R8;
          if (in.op == Op::MUL && flags_.mul_imm_fusion) iop = ROp::MULI_R8;
        }
        if (iop != ROp::NOP_R) {
          RInstr& r = emit(iop, rd, ra);
          r.imm.i64 = static_cast<std::int64_t>(cb->raw);
          emitted = true;
        } else if (is_int && (in.op == Op::DIV || in.op == Op::REM) &&
                   flags_.redundant_const_store) {
          // The CLR 1.1 quirk from Table 6: the divisor constant takes a
          // round trip through a temporary before the divide.
          const std::int32_t t1 = new_reg(t);
          const std::int32_t t2 = new_reg(t);
          RInstr& l = emit(ROp::LDI, t1);
          l.imm.i64 = static_cast<std::int64_t>(cb->raw);
          l.flags = RInstr::kPinned;
          emit(ROp::MOV, t2, t1).flags = RInstr::kPinned;
          emit(in.op == Op::DIV ? base3(ROp::DIV_I4, ROp::DIV_I8, ROp::DIV_R4,
                                        ROp::DIV_R8)
                                : base3(ROp::REM_I4, ROp::REM_I8, ROp::REM_R4,
                                        ROp::REM_R8),
               rd, ra, t2);
          emitted = true;
        }
      }
      if (!emitted) {
        ROp op3;
        switch (in.op) {
          case Op::ADD: op3 = base3(ROp::ADD_I4, ROp::ADD_I8, ROp::ADD_R4, ROp::ADD_R8); break;
          case Op::SUB: op3 = base3(ROp::SUB_I4, ROp::SUB_I8, ROp::SUB_R4, ROp::SUB_R8); break;
          case Op::MUL: op3 = base3(ROp::MUL_I4, ROp::MUL_I8, ROp::MUL_R4, ROp::MUL_R8); break;
          case Op::DIV: op3 = base3(ROp::DIV_I4, ROp::DIV_I8, ROp::DIV_R4, ROp::DIV_R8); break;
          default: op3 = base3(ROp::REM_I4, ROp::REM_I8, ROp::REM_R4, ROp::REM_R8); break;
        }
        emit(op3, rd, ra, rb);
      }
      set_const(static_cast<std::size_t>(d - 2), std::nullopt);
      break;
    }
    case Op::NEG: {
      const ValType t = in.type;
      const ROp op = t == ValType::I32 ? ROp::NEG_I4
                     : t == ValType::I64 ? ROp::NEG_I8
                     : t == ValType::F32 ? ROp::NEG_R4 : ROp::NEG_R8;
      emit(op, sreg(d - 1, t), sreg(d - 1, t));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    }

    case Op::AND:
    case Op::OR:
    case Op::XOR: {
      const bool i4 = in.type == ValType::I32;
      const auto ca = const_at(static_cast<std::size_t>(d - 1));
      if (in.op == Op::AND && i4 && ca.has_value() && flags_.imm_operands) {
        RInstr& r = emit(ROp::ANDI_I4, sreg(d - 2, in.type), sreg(d - 2, in.type));
        r.imm.i64 = static_cast<std::int64_t>(ca->raw);
      } else {
        ROp op = in.op == Op::AND ? (i4 ? ROp::AND_I4 : ROp::AND_I8)
                 : in.op == Op::OR ? (i4 ? ROp::OR_I4 : ROp::OR_I8)
                                   : (i4 ? ROp::XOR_I4 : ROp::XOR_I8);
        emit(op, sreg(d - 2, in.type), sreg(d - 2, in.type), sreg(d - 1, in.type));
      }
      set_const(static_cast<std::size_t>(d - 2), std::nullopt);
      break;
    }
    case Op::NOT: {
      const bool i4 = in.type == ValType::I32;
      emit(i4 ? ROp::NOT_I4 : ROp::NOT_I8, sreg(d - 1, in.type),
           sreg(d - 1, in.type));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    }
    case Op::SHL:
    case Op::SHR:
    case Op::SHR_UN: {
      const bool i4 = in.type == ValType::I32;
      const auto ca = const_at(static_cast<std::size_t>(d - 1));
      if (ca.has_value() && flags_.imm_operands && in.op != Op::SHR_UN) {
        const ROp iop = in.op == Op::SHL ? (i4 ? ROp::SHLI_I4 : ROp::SHLI_I8)
                                         : (i4 ? ROp::SHRI_I4 : ROp::SHRI_I8);
        RInstr& r = emit(iop, sreg(d - 2, in.type), sreg(d - 2, in.type));
        r.imm.i64 = static_cast<std::int64_t>(ca->raw);
      } else {
        ROp op = in.op == Op::SHL ? (i4 ? ROp::SHL_I4 : ROp::SHL_I8)
                 : in.op == Op::SHR ? (i4 ? ROp::SHR_I4 : ROp::SHR_I8)
                                    : (i4 ? ROp::SHRU_I4 : ROp::SHRU_I8);
        emit(op, sreg(d - 2, in.type), sreg(d - 2, in.type),
             sreg(d - 1, ValType::I32));
      }
      set_const(static_cast<std::size_t>(d - 2), std::nullopt);
      break;
    }

    case Op::CEQ:
    case Op::CGT:
    case Op::CLT: {
      const ValType t = in.type;
      auto pick = [&](ROp i4, ROp i8, ROp r4, ROp r8) {
        return t == ValType::I32 ? i4 : t == ValType::I64 ? i8
               : t == ValType::F32 ? r4
               : t == ValType::F64 ? r8 : ROp::CEQ_REF;
      };
      ROp op = in.op == Op::CEQ
                   ? pick(ROp::CEQ_I4, ROp::CEQ_I8, ROp::CEQ_R4, ROp::CEQ_R8)
               : in.op == Op::CGT
                   ? pick(ROp::CGT_I4, ROp::CGT_I8, ROp::CGT_R4, ROp::CGT_R8)
                   : pick(ROp::CLT_I4, ROp::CLT_I8, ROp::CLT_R4, ROp::CLT_R8);
      emit(op, sreg(d - 2, ValType::I32), sreg(d - 2, t), sreg(d - 1, t));
      set_const(static_cast<std::size_t>(d - 2), std::nullopt);
      break;
    }

    case Op::BR:
      emit(ROp::JMP, in.a);
      reset_consts();
      break;
    case Op::BRTRUE:
    case Op::BRFALSE: {
      const ValType t = in.type;
      const ROp op = in.op == Op::BRTRUE
                         ? (t == ValType::Ref ? ROp::JNZ_REF
                            : t == ValType::I64 ? ROp::JNZ_I8 : ROp::JNZ_I4)
                         : (t == ValType::Ref ? ROp::JZ_REF
                            : t == ValType::I64 ? ROp::JZ_I8 : ROp::JZ_I4);
      emit(op, in.a, sreg(d - 1, t));
      reset_consts();
      break;
    }
    case Op::BEQ:
    case Op::BNE:
    case Op::BLT:
    case Op::BLE:
    case Op::BGT:
    case Op::BGE: {
      const ValType t = in.type;
      const std::int32_t ra = sreg(d - 2, t);
      const std::int32_t rb = sreg(d - 1, t);
      const auto cb = const_at(static_cast<std::size_t>(d - 1));
      if (flags_.fuse_cmp_branch) {
        if (t == ValType::I32 && cb.has_value() && flags_.imm_operands) {
          ROp op;
          switch (in.op) {
            case Op::BEQ: op = ROp::JEQI_I4; break;
            case Op::BNE: op = ROp::JNEI_I4; break;
            case Op::BLT: op = ROp::JLTI_I4; break;
            case Op::BLE: op = ROp::JLEI_I4; break;
            case Op::BGT: op = ROp::JGTI_I4; break;
            default: op = ROp::JGEI_I4; break;
          }
          RInstr& r = emit(op, in.a, ra);
          r.imm.i64 = static_cast<std::int64_t>(cb->raw);
        } else {
          auto pick = [&](ROp i4, ROp i8, ROp r4, ROp r8, ROp ref) {
            return t == ValType::I32 ? i4 : t == ValType::I64 ? i8
                   : t == ValType::F32 ? r4
                   : t == ValType::F64 ? r8 : ref;
          };
          ROp op;
          switch (in.op) {
            case Op::BEQ: op = pick(ROp::JEQ_I4, ROp::JEQ_I8, ROp::JEQ_R4, ROp::JEQ_R8, ROp::JEQ_REF); break;
            case Op::BNE: op = pick(ROp::JNE_I4, ROp::JNE_I8, ROp::JNE_R4, ROp::JNE_R8, ROp::JNE_REF); break;
            case Op::BLT: op = pick(ROp::JLT_I4, ROp::JLT_I8, ROp::JLT_R4, ROp::JLT_R8, ROp::JEQ_REF); break;
            case Op::BLE: op = pick(ROp::JLE_I4, ROp::JLE_I8, ROp::JLE_R4, ROp::JLE_R8, ROp::JEQ_REF); break;
            case Op::BGT: op = pick(ROp::JGT_I4, ROp::JGT_I8, ROp::JGT_R4, ROp::JGT_R8, ROp::JEQ_REF); break;
            default: op = pick(ROp::JGE_I4, ROp::JGE_I8, ROp::JGE_R4, ROp::JGE_R8, ROp::JEQ_REF); break;
          }
          emit(op, in.a, ra, rb);
        }
      } else {
        // Two-instruction sequence (the "fewer passes" profiles): materialize
        // the comparison, then branch on the flag. NaN note: BLE/BGE are
        // emulated via the negated strict compare; this differs from the
        // fused form only for NaN operands, which no benchmark exercises.
        const std::int32_t flag = new_reg(ValType::I32);
        auto pick = [&](ROp i4, ROp i8, ROp r4, ROp r8) {
          return t == ValType::I32 ? i4 : t == ValType::I64 ? i8
                 : t == ValType::F32 ? r4
                 : t == ValType::F64 ? r8 : ROp::CEQ_REF;
        };
        ROp cmp;
        bool jump_if_true;
        switch (in.op) {
          case Op::BEQ: cmp = pick(ROp::CEQ_I4, ROp::CEQ_I8, ROp::CEQ_R4, ROp::CEQ_R8); jump_if_true = true; break;
          case Op::BNE: cmp = pick(ROp::CEQ_I4, ROp::CEQ_I8, ROp::CEQ_R4, ROp::CEQ_R8); jump_if_true = false; break;
          case Op::BLT: cmp = pick(ROp::CLT_I4, ROp::CLT_I8, ROp::CLT_R4, ROp::CLT_R8); jump_if_true = true; break;
          case Op::BLE: cmp = pick(ROp::CGT_I4, ROp::CGT_I8, ROp::CGT_R4, ROp::CGT_R8); jump_if_true = false; break;
          case Op::BGT: cmp = pick(ROp::CGT_I4, ROp::CGT_I8, ROp::CGT_R4, ROp::CGT_R8); jump_if_true = true; break;
          default: cmp = pick(ROp::CLT_I4, ROp::CLT_I8, ROp::CLT_R4, ROp::CLT_R8); jump_if_true = false; break;
        }
        emit(cmp, flag, ra, rb).flags = RInstr::kPinned;
        emit(jump_if_true ? ROp::JNZ_I4 : ROp::JZ_I4, in.a, flag);
      }
      reset_consts();
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
      const ValType src = in.type;
      ValType dst;
      switch (in.op) {
        case Op::CONV_I8: dst = ValType::I64; break;
        case Op::CONV_R4: dst = ValType::F32; break;
        case Op::CONV_R8: dst = ValType::F64; break;
        default: dst = ValType::I32; break;
      }
      const std::int32_t rs = sreg(d - 1, src);
      const std::int32_t rd = sreg(d - 1, dst);
      auto cv = [&](ValType s, ValType t2) -> ROp {
        if (s == ValType::I32) {
          return t2 == ValType::I64 ? ROp::CV_I4_I8
                 : t2 == ValType::F32 ? ROp::CV_I4_R4 : ROp::CV_I4_R8;
        }
        if (s == ValType::I64) {
          return t2 == ValType::I32 ? ROp::CV_I8_I4
                 : t2 == ValType::F32 ? ROp::CV_I8_R4 : ROp::CV_I8_R8;
        }
        if (s == ValType::F32) {
          return t2 == ValType::I32 ? ROp::CV_R4_I4
                 : t2 == ValType::I64 ? ROp::CV_R4_I8 : ROp::CV_R4_R8;
        }
        return t2 == ValType::I32 ? ROp::CV_R8_I4
               : t2 == ValType::I64 ? ROp::CV_R8_I8 : ROp::CV_R8_R4;
      };
      std::int32_t cur = rs;
      if (src != dst) {
        emit(cv(src, dst), rd, rs);
        cur = rd;
      }
      switch (in.op) {
        case Op::CONV_I1: emit(ROp::SEXT8, rd, cur); break;
        case Op::CONV_U1: emit(ROp::ZEXT8, rd, cur); break;
        case Op::CONV_I2: emit(ROp::SEXT16, rd, cur); break;
        case Op::CONV_U2: emit(ROp::ZEXT16, rd, cur); break;
        default:
          if (src == dst && cur != rd) emit(ROp::MOV, rd, cur);
          break;
      }
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    }

    case Op::CALL: {
      const MethodDef& callee = mod_.method(in.a);
      const auto argc = static_cast<std::int32_t>(callee.sig.params.size());
      const auto pool_at = static_cast<std::int32_t>(rc_.args_pool.size());
      for (std::int32_t i = 0; i < argc; ++i) {
        rc_.args_pool.push_back(sreg(d - argc + i, callee.sig.params[static_cast<std::size_t>(i)]));
      }
      const std::int32_t rd =
          callee.sig.ret == ValType::None ? -1 : sreg(d - argc, callee.sig.ret);
      RInstr& r = emit(ROp::CALL_R, rd, in.a, pool_at);
      r.imm.i64 = argc;
      reset_consts();
      break;
    }
    case Op::CALLINTR: {
      const IntrinsicDef& def = intrinsic(in.a);
      const auto argc = static_cast<std::int32_t>(def.sig.params.size());
      bool emitted = false;
      if (flags_.fast_math && def.pure_math && in.a != I_ROUND_R4 &&
          in.a != I_ROUND_R8) {
        const std::int32_t a0 = argc >= 1 ? sreg(d - argc, def.sig.params[0]) : -1;
        const std::int32_t a1 = argc >= 2 ? sreg(d - argc + 1, def.sig.params[1]) : -1;
        const std::int32_t rd = sreg(d - argc, def.sig.ret);
        ROp dedicated = ROp::NOP_R;
        switch (in.a) {
          case I_ABS_I4: dedicated = ROp::ABS_I4_R; break;
          case I_ABS_I8: dedicated = ROp::ABS_I8_R; break;
          case I_ABS_R4: dedicated = ROp::ABS_R4_R; break;
          case I_ABS_R8: dedicated = ROp::ABS_R8_R; break;
          case I_MAX_I4: dedicated = ROp::MAX_I4_R; break;
          case I_MAX_I8: dedicated = ROp::MAX_I8_R; break;
          case I_MAX_R4: dedicated = ROp::MAX_R4_R; break;
          case I_MAX_R8: dedicated = ROp::MAX_R8_R; break;
          case I_MIN_I4: dedicated = ROp::MIN_I4_R; break;
          case I_MIN_I8: dedicated = ROp::MIN_I8_R; break;
          case I_MIN_R4: dedicated = ROp::MIN_R4_R; break;
          case I_MIN_R8: dedicated = ROp::MIN_R8_R; break;
          default: break;
        }
        // The immediate carries the intrinsic ID (position-independent; the
        // dispatch loop resolves it via math1_fn/math2_fn), so same id =>
        // same value and CSE keying is unchanged.
        if (regir::math1_fn(in.a) != nullptr) {
          RInstr& r = emit(ROp::MATH1_R8, rd, a0);
          r.imm.i64 = in.a;
          emitted = true;
        } else if (regir::math2_fn(in.a) != nullptr) {
          RInstr& r = emit(ROp::MATH2_R8, rd, a0, a1);
          r.imm.i64 = in.a;
          emitted = true;
        } else if (dedicated != ROp::NOP_R) {
          emit(dedicated, rd, a0, a1);
          emitted = true;
        }
      }
      if (!emitted) {
        const auto pool_at = static_cast<std::int32_t>(rc_.args_pool.size());
        for (std::int32_t i = 0; i < argc; ++i) {
          rc_.args_pool.push_back(sreg(d - argc + i, def.sig.params[static_cast<std::size_t>(i)]));
        }
        const std::int32_t rd =
            def.sig.ret == ValType::None ? -1 : sreg(d - argc, def.sig.ret);
        RInstr& r = emit(ROp::CALLINTR_R, rd, in.a, pool_at);
        r.imm.i64 = argc;
      }
      reset_consts();
      break;
    }
    case Op::RET:
      emit(ROp::RET_R, -1,
           mp_->sig.ret == ValType::None ? -1 : sreg(d - 1, mp_->sig.ret));
      reset_consts();
      break;

    case Op::NEWOBJ:
      emit(ROp::NEWOBJ_R, sreg(d, ValType::Ref), in.a);
      set_const(static_cast<std::size_t>(d), std::nullopt);
      break;
    case Op::LDFLD:
      emit(ROp::LDFLD_R, sreg(d - 1, in.type), sreg(d - 1, ValType::Ref), in.a);
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    case Op::STFLD:
      emit(ROp::STFLD_R, sreg(d - 1, in.type), sreg(d - 2, ValType::Ref), in.a);
      if (in.type == ValType::Ref) {
        emit(ROp::CARDMARK, -1, sreg(d - 2, ValType::Ref));
      }
      break;
    case Op::LDSFLD:
      emit(ROp::LDSFLD_R, sreg(d, in.type), in.b, in.a);
      set_const(static_cast<std::size_t>(d), std::nullopt);
      break;
    case Op::STSFLD:
      emit(ROp::STSFLD_R, sreg(d - 1, in.type), in.b, in.a);
      break;

    case Op::NEWARR:
      emit(ROp::NEWARR_R, sreg(d - 1, ValType::Ref), sreg(d - 1, ValType::I32),
           static_cast<std::int32_t>(in.type));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    case Op::LDLEN:
      emit(ROp::LDLEN_R, sreg(d - 1, ValType::I32), sreg(d - 1, ValType::Ref));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    case Op::LDELEM: {
      auto pick = [&](ROp i4, ROp i8, ROp r4, ROp r8, ROp ref) {
        switch (in.type) {
          case ValType::I32: return i4;
          case ValType::I64: return i8;
          case ValType::F32: return r4;
          case ValType::F64: return r8;
          default: return ref;
        }
      };
      // Explicit range-check node + unchecked access: the shape real JIT IRs
      // use, and what lets the BCE pass delete exactly the check.
      emit(ROp::CHK_BOUNDS, -1, sreg(d - 2, ValType::Ref),
           sreg(d - 1, ValType::I32));
      emit(pick(ROp::LDELEMU_I4, ROp::LDELEMU_I8, ROp::LDELEMU_R4,
                ROp::LDELEMU_R8, ROp::LDELEMU_REF),
           sreg(d - 2, in.type), sreg(d - 2, ValType::Ref),
           sreg(d - 1, ValType::I32));
      set_const(static_cast<std::size_t>(d - 2), std::nullopt);
      break;
    }
    case Op::STELEM: {
      auto pick = [&](ROp i4, ROp i8, ROp r4, ROp r8, ROp ref) {
        switch (in.type) {
          case ValType::I32: return i4;
          case ValType::I64: return i8;
          case ValType::F32: return r4;
          case ValType::F64: return r8;
          default: return ref;
        }
      };
      emit(ROp::CHK_BOUNDS, -1, sreg(d - 3, ValType::Ref),
           sreg(d - 2, ValType::I32));
      emit(pick(ROp::STELEMU_I4, ROp::STELEMU_I8, ROp::STELEMU_R4,
                ROp::STELEMU_R8, ROp::STELEMU_REF),
           sreg(d - 1, in.type), sreg(d - 3, ValType::Ref),
           sreg(d - 2, ValType::I32));
      if (in.type != ValType::I32 && in.type != ValType::I64 &&
          in.type != ValType::F32 && in.type != ValType::F64) {
        emit(ROp::CARDMARK, -1, sreg(d - 3, ValType::Ref));
      }
      break;
    }
    case Op::NEWMAT: {
      RInstr& r = emit(ROp::NEWMAT_R, sreg(d - 2, ValType::Ref),
                       sreg(d - 2, ValType::I32), sreg(d - 1, ValType::I32));
      r.imm.i64 = static_cast<std::int64_t>(in.type);
      set_const(static_cast<std::size_t>(d - 2), std::nullopt);
      break;
    }
    case Op::LDELEM2: {
      const std::int32_t creg = sreg(d - 1, ValType::I32);
      if (flags_.fast_multidim) {
        auto pick = [&] {
          switch (in.type) {
            case ValType::I32: return ROp::LDEL2_I4;
            case ValType::I64: return ROp::LDEL2_I8;
            case ValType::F32: return ROp::LDEL2_R4;
            case ValType::F64: return ROp::LDEL2_R8;
            default: return ROp::LDEL2_REF;
          }
        };
        RInstr& r = emit(pick(), sreg(d - 3, in.type),
                         sreg(d - 3, ValType::Ref), sreg(d - 2, ValType::I32));
        r.imm.i64 = creg;
      } else {
        RInstr& r = emit(ROp::LDEL2_SLOW, sreg(d - 3, in.type),
                         sreg(d - 3, ValType::Ref), sreg(d - 2, ValType::I32));
        r.imm.i64 = creg | (static_cast<std::int64_t>(in.type) << 40);
      }
      set_const(static_cast<std::size_t>(d - 3), std::nullopt);
      break;
    }
    case Op::STELEM2: {
      const std::int32_t creg = sreg(d - 2, ValType::I32);
      const std::int32_t vreg = sreg(d - 1, in.type);
      const std::int64_t packed =
          creg | (static_cast<std::int64_t>(vreg) << kRegFieldBits);
      if (flags_.fast_multidim) {
        auto pick = [&] {
          switch (in.type) {
            case ValType::I32: return ROp::STEL2_I4;
            case ValType::I64: return ROp::STEL2_I8;
            case ValType::F32: return ROp::STEL2_R4;
            case ValType::F64: return ROp::STEL2_R8;
            default: return ROp::STEL2_REF;
          }
        };
        RInstr& r = emit(pick(), -1, sreg(d - 4, ValType::Ref),
                         sreg(d - 3, ValType::I32));
        r.imm.i64 = packed;
      } else {
        RInstr& r = emit(ROp::STEL2_SLOW, -1, sreg(d - 4, ValType::Ref),
                         sreg(d - 3, ValType::I32));
        r.imm.i64 = packed | (static_cast<std::int64_t>(in.type) << 40);
      }
      if (in.type != ValType::I32 && in.type != ValType::I64 &&
          in.type != ValType::F32 && in.type != ValType::F64) {
        emit(ROp::CARDMARK, -1, sreg(d - 4, ValType::Ref));
      }
      break;
    }
    case Op::LDMATROWS:
      emit(ROp::LDMROWS_R, sreg(d - 1, ValType::I32), sreg(d - 1, ValType::Ref));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    case Op::LDMATCOLS:
      emit(ROp::LDMCOLS_R, sreg(d - 1, ValType::I32), sreg(d - 1, ValType::Ref));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;

    case Op::BOX:
      emit(ROp::BOX_R, sreg(d - 1, ValType::Ref), sreg(d - 1, in.type),
           static_cast<std::int32_t>(in.type));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;
    case Op::UNBOX:
      emit(ROp::UNBOX_R, sreg(d - 1, in.type), sreg(d - 1, ValType::Ref),
           static_cast<std::int32_t>(in.type));
      set_const(static_cast<std::size_t>(d - 1), std::nullopt);
      break;

    case Op::THROW:
      emit(ROp::THROW_R, -1, sreg(d - 1, ValType::Ref));
      reset_consts();
      break;
    case Op::LEAVE:
      emit(ROp::LEAVE_R, -1, in.a);
      reset_consts();
      break;
    case Op::ENDFINALLY:
      emit(ROp::ENDFINALLY_R);
      reset_consts();
      break;

    case Op::COUNT_:
      throw std::logic_error("bad opcode reached translator");
  }
}

// --------------------------------------------------------------------------
// Copy propagation + dead-move elimination, per basic block.

std::vector<std::int32_t> Compiler::block_leaders() const {
  std::vector<bool> lead(out_.size() + 1, false);
  lead[0] = true;
  for (std::size_t i = 0; i < out_.size(); ++i) {
    if (is_block_end(out_[i].op) && i + 1 < out_.size()) lead[i + 1] = true;
  }
  // IL label positions (branch targets, handler starts, leave targets).
  for (std::size_t il = 0; il < labels_.size(); ++il) {
    if (labels_[il] && il < il_start_.size() && il_start_[il] >= 0 &&
        static_cast<std::size_t>(il_start_[il]) < out_.size()) {
      lead[static_cast<std::size_t>(il_start_[il])] = true;
    }
  }
  std::vector<std::int32_t> leaders;
  for (std::size_t i = 0; i < out_.size(); ++i) {
    if (lead[i]) leaders.push_back(static_cast<std::int32_t>(i));
  }
  leaders.push_back(static_cast<std::int32_t>(out_.size()));
  return leaders;
}

std::vector<std::int32_t> Compiler::live_out_stack_regs(
    std::size_t block_end) const {
  // Registers carrying stack values into successors of the block whose last
  // instruction is at block_end-1.
  std::vector<std::int32_t> live;
  auto add_entry_stack = [&](std::int32_t il) {
    if (il < 0 || static_cast<std::size_t>(il) >= mp_->stack_in.size()) return;
    const auto& st = mp_->stack_in[static_cast<std::size_t>(il)];
    for (std::size_t depth = 0; depth < st.size(); ++depth) {
      const auto key =
          (static_cast<std::int64_t>(depth) << 4) | static_cast<std::int64_t>(st[depth]);
      auto it = stack_regs_.find(key);
      if (it != stack_regs_.end()) live.push_back(it->second);
    }
  };
  if (block_end == 0) return live;
  const RInstr& last = out_[block_end - 1];
  const std::int32_t fall_il = block_end < out_.size()
                                   ? out_[block_end].il_pc
                                   : -1;  // next block's first instruction
  if (is_branch(last.op)) {
    add_entry_stack(last.d);  // branch target (IL pc pre-compaction)
    if (last.op != ROp::JMP && last.op != ROp::JMPB) {
      add_entry_stack(fall_il);
    }
  } else if (last.op == ROp::RET_R || last.op == ROp::THROW_R ||
             last.op == ROp::LEAVE_R || last.op == ROp::ENDFINALLY_R) {
    // No stack values survive these exits.
  } else {
    add_entry_stack(fall_il);
  }
  return live;
}

void Compiler::optimize_blocks() {
  const auto leaders = block_leaders();
  const std::int32_t nregs = static_cast<std::int32_t>(rc_.reg_types.size());

  for (std::size_t bi = 0; bi + 1 < leaders.size(); ++bi) {
    const auto lo = static_cast<std::size_t>(leaders[bi]);
    const auto hi = static_cast<std::size_t>(leaders[bi + 1]);
    if (lo >= hi) continue;

    // ---- forward copy propagation ----
    std::vector<std::int32_t> copy_of(static_cast<std::size_t>(nregs), -1);
    auto root = [&](std::int32_t r) {
      while (r >= 0 && copy_of[static_cast<std::size_t>(r)] >= 0) {
        r = copy_of[static_cast<std::size_t>(r)];
      }
      return r;
    };
    auto invalidate = [&](std::int32_t r) {
      copy_of[static_cast<std::size_t>(r)] = -1;
      for (auto& c : copy_of) {
        if (c == r) c = -1;
      }
    };
    for (std::size_t i = lo; i < hi; ++i) {
      RInstr& in = out_[i];
      if (in.op == ROp::NOP_R) continue;
      // Rewrite uses through the copy map.
      if (!in.pinned()) {
        auto rewrite = [&](std::int32_t& r) {
          if (r >= 0) r = root(r);
        };
        switch (in.op) {
          case ROp::MOV:
          case ROp::MEMLD:
          case ROp::MEMST:
            rewrite(in.a);
            break;
          case ROp::STFLD_R:
            rewrite(in.a);
            rewrite(in.d);
            break;
          case ROp::STSFLD_R:
            rewrite(in.d);
            break;
          case ROp::STELEM_I4: case ROp::STELEM_I8: case ROp::STELEM_R4:
          case ROp::STELEM_R8: case ROp::STELEM_REF:
            rewrite(in.a);
            rewrite(in.b);
            rewrite(in.d);
            break;
          case ROp::LDEL2_I4: case ROp::LDEL2_I8: case ROp::LDEL2_R4:
          case ROp::LDEL2_R8: case ROp::LDEL2_REF: case ROp::LDEL2_SLOW: {
            rewrite(in.a);
            rewrite(in.b);
            std::int32_t c = static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask);
            const std::int64_t rest = in.imm.i64 & ~kRegFieldMask;
            rewrite(c);
            in.imm.i64 = rest | c;
            break;
          }
          case ROp::STEL2_I4: case ROp::STEL2_I8: case ROp::STEL2_R4:
          case ROp::STEL2_R8: case ROp::STEL2_REF: case ROp::STEL2_SLOW: {
            rewrite(in.a);
            rewrite(in.b);
            std::int32_t c = static_cast<std::int32_t>(in.imm.i64 & kRegFieldMask);
            std::int32_t v = static_cast<std::int32_t>((in.imm.i64 >> kRegFieldBits) & kRegFieldMask);
            const std::int64_t rest =
                in.imm.i64 & ~(kRegFieldMask | (kRegFieldMask << kRegFieldBits));
            rewrite(c);
            rewrite(v);
            in.imm.i64 = rest | c | (static_cast<std::int64_t>(v) << kRegFieldBits);
            break;
          }
          case ROp::CALL_R:
          case ROp::CALLINTR_R: {
            const auto argc = static_cast<std::int32_t>(in.imm.i64);
            for (std::int32_t k = 0; k < argc; ++k) {
              std::int32_t& r = rc_.args_pool[static_cast<std::size_t>(in.b + k)];
              r = root(r);
            }
            break;
          }
          case ROp::RET_R:
          case ROp::THROW_R:
          case ROp::CARDMARK:
          case ROp::JZ_I4: case ROp::JNZ_I4: case ROp::JZ_I8:
          case ROp::JNZ_I8: case ROp::JZ_REF: case ROp::JNZ_REF:
            rewrite(in.a);
            break;
          case ROp::JEQI_I4: case ROp::JNEI_I4: case ROp::JLTI_I4:
          case ROp::JLEI_I4: case ROp::JGTI_I4: case ROp::JGEI_I4:
            rewrite(in.a);
            break;
          case ROp::JEQ_I4: case ROp::JNE_I4: case ROp::JLT_I4:
          case ROp::JLE_I4: case ROp::JGT_I4: case ROp::JGE_I4:
          case ROp::JEQ_I8: case ROp::JNE_I8: case ROp::JLT_I8:
          case ROp::JLE_I8: case ROp::JGT_I8: case ROp::JGE_I8:
          case ROp::JEQ_R4: case ROp::JNE_R4: case ROp::JLT_R4:
          case ROp::JLE_R4: case ROp::JGT_R4: case ROp::JGE_R4:
          case ROp::JEQ_R8: case ROp::JNE_R8: case ROp::JLT_R8:
          case ROp::JLE_R8: case ROp::JGT_R8: case ROp::JGE_R8:
          case ROp::JEQ_REF: case ROp::JNE_REF:
            rewrite(in.a);
            rewrite(in.b);
            break;
          case ROp::JMP:
          case ROp::JMPB:
          case ROp::LEAVE_R:
          case ROp::ENDFINALLY_R:
          case ROp::SAFEPOINT:
          case ROp::LDI:
          case ROp::LDSTR_R:
          case ROp::NEWOBJ_R:
          case ROp::LDSFLD_R:
            break;
          default:
            rewrite(in.a);
            if (in.b >= 0 && in.op != ROp::NEWARR_R && in.op != ROp::LDFLD_R &&
                in.op != ROp::BOX_R && in.op != ROp::UNBOX_R) {
              rewrite(in.b);
            }
            break;
        }
      }
      // Update the copy map.
      const Operands ops = operands_of(in, rc_.args_pool);
      if (ops.def >= 0) {
        invalidate(ops.def);
        if (in.op == ROp::MOV && !in.pinned() && in.a != in.d) {
          copy_of[static_cast<std::size_t>(in.d)] = in.a;
        }
      }
    }

    // ---- backward dead-move/dead-value elimination ----
    std::vector<bool> live(static_cast<std::size_t>(nregs), false);
    for (std::int32_t r = 0; r < rc_.slot_regs; ++r) {
      live[static_cast<std::size_t>(r)] = true;  // locals conservatively live
    }
    for (std::int32_t r : live_out_stack_regs(hi)) {
      live[static_cast<std::size_t>(r)] = true;
    }
    for (std::size_t i = hi; i-- > lo;) {
      RInstr& in = out_[i];
      if (in.op == ROp::NOP_R) continue;
      Operands ops = operands_of(in, rc_.args_pool);
      const bool removable = is_pure(in.op) && !in.pinned() && ops.def >= 0 &&
                             !live[static_cast<std::size_t>(ops.def)];
      if (removable) {
        in.op = ROp::NOP_R;
        continue;
      }
      if (ops.def >= 0) live[static_cast<std::size_t>(ops.def)] = false;
      for (int k = 0; k < ops.nuses; ++k) {
        live[static_cast<std::size_t>(ops.uses[k])] = true;
      }
      if (in.op == ROp::CALL_R || in.op == ROp::CALLINTR_R) {
        const auto argc = static_cast<std::int32_t>(in.imm.i64);
        for (std::int32_t k = 0; k < argc; ++k) {
          live[static_cast<std::size_t>(
              rc_.args_pool[static_cast<std::size_t>(in.b + k)])] = true;
        }
      }
    }
    // Drop self-moves exposed by propagation.
    for (std::size_t i = lo; i < hi; ++i) {
      if (out_[i].op == ROp::MOV && out_[i].d == out_[i].a &&
          !out_[i].pinned()) {
        out_[i].op = ROp::NOP_R;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Method inlining (IL level, before translation).
//
// Small, handler-free, non-synchronized callees are spliced into the caller:
// arguments become fresh caller locals (stored in reverse pop order), callee
// locals are renumbered after them, branch targets are rebased, and every RET
// becomes a branch past the splice (the return value composes through the
// operand stack). A directly recursive callee unrolls one level per round —
// the HotSpot MaxRecursiveInlineLevel idea — bounded by inline_depth and the
// total growth budget. The expanded body is re-verified and kept alive via
// RCode::body so handler tables, stack maps and il_pc ranges all
// describe the code that was actually compiled.

bool Compiler::inlinable(const MethodDef& callee) const {
  if (callee.code.empty() ||
      static_cast<int>(callee.code.size()) > flags_.inline_max_il) {
    return false;
  }
  if (!callee.handlers.empty()) return false;
  for (const Instr& in : callee.code) {
    switch (in.op) {
      case Op::LEAVE:
      case Op::ENDFINALLY:
        return false;  // handler machinery needs its own frame
      case Op::CALLINTR:
        // Synchronized bodies keep their frame identity (Monitor semantics).
        if (in.a == I_MON_ENTER || in.a == I_MON_EXIT || in.a == I_MON_WAIT ||
            in.a == I_MON_PULSE || in.a == I_MON_PULSEALL) {
          return false;
        }
        break;
      default:
        break;
    }
  }
  return true;
}

void Compiler::splice(MethodDef& work, std::size_t c, const MethodDef& callee) {
  const auto argc = static_cast<std::int32_t>(callee.sig.params.size());
  const auto len = static_cast<std::int32_t>(callee.code.size());
  const std::int32_t shift = argc + len - 1;
  const auto cpos = static_cast<std::int32_t>(c);
  const auto arg_base = static_cast<std::int32_t>(work.locals.size());

  // Fresh caller locals: callee arguments first, then callee locals.
  for (ValType t : callee.sig.params) work.locals.push_back(t);
  for (ValType t : callee.locals) work.locals.push_back(t);

  // Rebase the surrounding body's branch targets and handler ranges. A
  // target/boundary equal to the call site keeps pointing at the splice
  // start; anything past it moves by the size delta (an exclusive try_end of
  // c+1 therefore stretches over the whole splice).
  auto rebase = [&](std::int32_t& target) {
    if (target > cpos) target += shift;
  };
  for (Instr& in : work.code) {
    switch (in.op) {
      case Op::BR: case Op::BRTRUE: case Op::BRFALSE:
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BLE:
      case Op::BGT: case Op::BGE: case Op::LEAVE:
        rebase(in.a);
        break;
      default:
        break;
    }
  }
  for (ExHandler& h : work.handlers) {
    rebase(h.try_begin);
    rebase(h.try_end);
    rebase(h.handler);
  }

  std::vector<Instr> body;
  body.reserve(static_cast<std::size_t>(argc + len));
  for (std::int32_t i = argc; i-- > 0;) {
    body.push_back(Instr::make(Op::STLOC, arg_base + i));
  }
  for (std::int32_t k = 0; k < len; ++k) {
    Instr in = callee.code[k];
    switch (in.op) {
      case Op::LDARG: in.op = Op::LDLOC; in.a += arg_base; break;
      case Op::STARG: in.op = Op::STLOC; in.a += arg_base; break;
      case Op::LDLOC: in.a += arg_base + argc; break;
      case Op::STLOC: in.a += arg_base + argc; break;
      case Op::BR: case Op::BRTRUE: case Op::BRFALSE:
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BLE:
      case Op::BGT: case Op::BGE:
        in.a = cpos + argc + in.a;
        break;
      case Op::RET:
        // The return value (if any) is already on the stack; fall past the
        // splice into the caller's continuation.
        in = Instr::make(Op::BR, cpos + argc + len);
        break;
      default:
        break;
    }
    body.push_back(in);
  }
  work.code.erase(work.code.begin() + static_cast<std::ptrdiff_t>(c));
  work.code.insert(work.code.begin() + static_cast<std::ptrdiff_t>(c),
                   body.begin(), body.end());
}

void Compiler::inline_methods() {
  // Quick reject without copying the method.
  bool candidate = false;
  for (const Instr& in : m_.code) {
    if (in.op == Op::CALL && inlinable(mod_.method(in.a))) {
      candidate = true;
      break;
    }
  }
  if (!candidate) return;

  auto work = std::make_shared<MethodDef>(m_);
  const std::size_t growth_cap =
      m_.code.size() + static_cast<std::size_t>(flags_.inline_total_il);
  bool changed_any = false;
  for (int round = 0; round < flags_.inline_depth; ++round) {
    bool changed = false;
    for (std::size_t pc = 0; pc < work->code.size(); ++pc) {
      if (work->code.size() >= growth_cap) break;
      const Instr in = work->code[pc];
      if (in.op != Op::CALL) continue;
      const MethodDef& callee = mod_.method(in.a);
      if (!inlinable(callee)) continue;
      // The callee must itself be valid IL before its body is trusted.
      verify(mod_, in.a);
      splice(*work, pc, callee);
      // Skip over the spliced body this round; calls inside it (including a
      // recursive self-call) are considered in the next round.
      pc += callee.sig.params.size() + callee.code.size() - 1;
      changed = true;
      changed_any = true;
    }
    if (!changed) break;
  }
  if (!changed_any) return;

  work->verified = false;
  work->stack_in.clear();
  work->reachable.clear();
  work->max_stack = 0;
  // Re-verify the expanded body: fills types, stack shapes and reachability.
  // Failure here would be an inliner bug, not a user error — splicing a
  // verified callee into a verified caller preserves well-formedness.
  verify_body(mod_, *work);
  inlined_ = std::move(work);
  mp_ = inlined_.get();
}

// --------------------------------------------------------------------------
// Common-subexpression elimination: block-local value numbering.
//
// Pure computations plus memory loads (ldlen, field loads, unchecked and
// rank-2 element loads) are keyed on (op, a, b, imm); a repeat of an
// available value becomes a MOV from the first result (cleaned up by the
// copy-propagation round that follows). Entries die when any register they
// mention is redefined, and load entries die at the stores/calls that could
// alias them. Duplicate CHK_BOUNDS nodes on the same (array, index) pair are
// dropped outright. Scope is a single basic block on purpose: the DCE in
// optimize_blocks reasons per-block, so a value reused across block
// boundaries could lose its defining instruction.

namespace {

bool cse_value_op(ROp op) {
  // MOV is the pass's own rewrite form and copy-propagation's domain; LDI is
  // value-numbered too (the key is then (LDI, -1, -1, imm)) so repeated
  // constants — array indexes especially — unify, which is what lets the
  // CHK_BOUNDS dedup below see identical (array, index) pairs.
  if (op == ROp::MOV) return false;
  if (is_pure(op)) return true;
  switch (op) {
    case ROp::LDLEN_R:
    case ROp::LDFLD_R:
    case ROp::LDELEMU_I4: case ROp::LDELEMU_I8: case ROp::LDELEMU_R4:
    case ROp::LDELEMU_R8: case ROp::LDELEMU_REF:
    case ROp::LDEL2_I4: case ROp::LDEL2_I8: case ROp::LDEL2_R4:
    case ROp::LDEL2_R8: case ROp::LDEL2_REF: case ROp::LDEL2_SLOW:
    case ROp::MATH1_R8: case ROp::MATH2_R8:
    case ROp::ABS_I4_R: case ROp::ABS_I8_R: case ROp::ABS_R4_R:
    case ROp::ABS_R8_R:
    case ROp::MAX_I4_R: case ROp::MAX_I8_R: case ROp::MAX_R4_R:
    case ROp::MAX_R8_R:
    case ROp::MIN_I4_R: case ROp::MIN_I8_R: case ROp::MIN_R4_R:
    case ROp::MIN_R8_R:
      return true;
    default:
      return false;
  }
}

bool is_field_load(ROp op) { return op == ROp::LDFLD_R; }

bool is_elem_load(ROp op) {
  switch (op) {
    case ROp::LDELEMU_I4: case ROp::LDELEMU_I8: case ROp::LDELEMU_R4:
    case ROp::LDELEMU_R8: case ROp::LDELEMU_REF:
    case ROp::LDEL2_I4: case ROp::LDEL2_I8: case ROp::LDEL2_R4:
    case ROp::LDEL2_R8: case ROp::LDEL2_REF: case ROp::LDEL2_SLOW:
      return true;
    default:
      return false;
  }
}

bool is_elem_store(ROp op) {
  switch (op) {
    case ROp::STELEM_I4: case ROp::STELEM_I8: case ROp::STELEM_R4:
    case ROp::STELEM_R8: case ROp::STELEM_REF:
    case ROp::STELEMU_I4: case ROp::STELEMU_I8: case ROp::STELEMU_R4:
    case ROp::STELEMU_R8: case ROp::STELEMU_REF:
    case ROp::STEL2_I4: case ROp::STEL2_I8: case ROp::STEL2_R4:
    case ROp::STEL2_R8: case ROp::STEL2_REF: case ROp::STEL2_SLOW:
      return true;
    default:
      return false;
  }
}

}  // namespace

void Compiler::cse_blocks() {
  const auto leaders = block_leaders();

  struct Entry {
    std::int32_t reg;     // register holding the value
    std::int32_t u[3];    // operand registers (-1 = unused)
    ROp op;
  };
  using Key = std::tuple<int, std::int32_t, std::int32_t, std::int64_t>;

  // Blocks are processed back to front: preserving a value may grow a block
  // (see shadow registers below), which shifts every later position.
  for (std::size_t bi = leaders.size() - 1; bi-- > 0;) {
    const auto lo = static_cast<std::size_t>(leaders[bi]);
    const auto hi = static_cast<std::size_t>(leaders[bi + 1]);

    std::map<Key, Entry> avail;
    std::set<std::pair<std::int32_t, std::int32_t>> checked;
    // Objects (canonical regs) already card-marked since the last point a GC
    // could have run in this block; a repeat CARDMARK on one is redundant.
    std::set<std::int32_t> carded;
    // Alias map: reg -> another reg currently holding the same value (the
    // shadow of its defining expression). Keys are built over canonicalized
    // operands so second-order duplicates match even after the stack
    // allocator reuses the original registers: in `(x*x+3) ^ ((x*x+3)>>1)`
    // both ADDIs key on the shadow of the (single) multiply. Shadows have
    // exactly one definition per block, so an alias stays truthful until its
    // source register is redefined (erased below).
    std::map<std::int32_t, std::int32_t> canon;
    auto canon_of = [&](std::int32_t r) {
      const auto it = canon.find(r);
      return it == canon.end() ? r : it->second;
    };
    auto erase_aliases_of = [&](std::int32_t r) {
      canon.erase(r);
      for (auto it = canon.begin(); it != canon.end();) {
        it = it->second == r ? canon.erase(it) : std::next(it);
      }
    };
    // Rank-2 accesses keep raw keys: their column register is encoded in
    // imm, which the alias map cannot rewrite consistently.
    auto imm_encodes_reg = [](ROp op) {
      switch (op) {
        case ROp::LDEL2_I4: case ROp::LDEL2_I8: case ROp::LDEL2_R4:
        case ROp::LDEL2_R8: case ROp::LDEL2_REF: case ROp::LDEL2_SLOW:
          return true;
        default:
          return false;
      }
    };
    // Values are preserved in fresh "shadow" registers (a MOV inserted right
    // after the defining instruction) because the stack-register allocator
    // reuses destination registers aggressively — by the time a duplicate
    // shows up, the original register usually holds something else. Shadows
    // that never serve a duplicate are dead moves; the copy-propagation/DCE
    // round that follows this pass deletes them.
    std::vector<std::pair<std::size_t, RInstr>> shadows;  // insert-after pos

    auto kill_reg = [&](std::int32_t r) {
      for (auto it = avail.begin(); it != avail.end();) {
        const Entry& e = it->second;
        if (e.reg == r || e.u[0] == r || e.u[1] == r || e.u[2] == r) {
          it = avail.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = checked.begin(); it != checked.end();) {
        if (it->first == r || it->second == r) {
          it = checked.erase(it);
        } else {
          ++it;
        }
      }
      carded.erase(r);
    };
    auto kill_loads = [&](bool fields, bool elems) {
      for (auto it = avail.begin(); it != avail.end();) {
        const ROp op = it->second.op;
        if ((fields && is_field_load(op)) || (elems && is_elem_load(op))) {
          it = avail.erase(it);
        } else {
          ++it;
        }
      }
    };

    for (std::size_t i = lo; i < hi; ++i) {
      RInstr& in = out_[i];
      if (in.op == ROp::NOP_R) continue;

      // Canonicalized operand view, taken before this instruction's own
      // definition invalidates anything. `b` is a register for every
      // candidate op except ldfld (field index), which stays raw.
      const bool raw_key = in.pinned() || imm_encodes_reg(in.op);
      const std::int32_t ca = raw_key ? in.a : canon_of(in.a);
      const std::int32_t cb = raw_key || in.op == ROp::LDFLD_R
                                  ? in.b
                                  : canon_of(in.b);
      bool rewritten = false;
      if (!in.pinned() && cse_value_op(in.op)) {
        const Key key{static_cast<int>(in.op), ca, cb, in.imm.i64};
        auto it = avail.find(key);
        if (it != avail.end()) {
          const std::int32_t prev = it->second.reg;
          if (prev == in.d) {
            in.op = ROp::NOP_R;
            continue;
          }
          in.op = ROp::MOV;
          in.a = prev;
          in.b = -1;
          in.imm.i64 = 0;
          rewritten = true;
        }
      } else if (in.op == ROp::CHK_BOUNDS && !in.pinned()) {
        const auto key = std::make_pair(ca, cb);
        if (checked.count(key) != 0) {
          in.op = ROp::NOP_R;
          continue;
        }
        checked.insert(key);
      } else if (in.op == ROp::CARDMARK && !in.pinned()) {
        if (carded.count(ca) != 0) {
          in.op = ROp::NOP_R;
          continue;
        }
        carded.insert(ca);
      }

      // Stores and calls may write memory that load entries describe.
      if (in.op == ROp::CALL_R || in.op == ROp::CALLINTR_R) {
        kill_loads(true, true);
      } else if (in.op == ROp::STFLD_R || in.op == ROp::STSFLD_R) {
        kill_loads(true, false);
      } else if (is_elem_store(in.op)) {
        kill_loads(false, true);
      }

      // Anything that can allocate — and so trigger a minor GC that clears
      // cards — ends card-mark redundancy: the next store to the same object
      // must mark again. SAFEPOINT parks for someone else's collection.
      switch (in.op) {
        case ROp::CALL_R: case ROp::CALLINTR_R:
        case ROp::NEWOBJ_R: case ROp::NEWARR_R: case ROp::NEWMAT_R:
        case ROp::BOX_R: case ROp::LDSTR_R:
        case ROp::SAFEPOINT:
          carded.clear();
          break;
        default:
          break;
      }

      const Operands ops = operands_of(in, rc_.args_pool);
      if (ops.def >= 0) {
        kill_reg(ops.def);
        erase_aliases_of(ops.def);
      }

      if (rewritten) {
        // The rewrite turned this into `MOV d, shadow`: d now aliases the
        // shadow, so downstream keys over d unify with keys over it.
        canon[in.d] = in.a;
      } else if (in.op == ROp::MOV && !in.pinned() && in.d != in.a) {
        canon[in.d] = canon_of(in.a);
      }

      if (!rewritten && !in.pinned() && cse_value_op(in.op) && ops.def >= 0) {
        // Don't record values whose key mentions the register being defined:
        // the key (canonicalized before the definition) would describe the
        // pre-instruction contents.
        const bool def_is_use =
            ca == ops.def || cb == ops.def ||
            (ops.nuses > 2 && ops.uses[2] == ops.def);
        if (!def_is_use) {
          Entry e{-1, {-1, -1, -1}, in.op};
          // Record the canonical operand names: kill_reg then only drops the
          // entry when a register the key actually depends on is redefined.
          if (raw_key) {
            for (int u = 0; u < ops.nuses && u < 3; ++u) e.u[u] = ops.uses[u];
          } else {
            e.u[0] = ca;
            e.u[1] = in.op == ROp::LDFLD_R ? -1 : cb;
          }
          const std::int32_t shadow =
              new_reg(rc_.reg_types[static_cast<std::size_t>(ops.def)]);
          e.reg = shadow;
          RInstr mv;
          mv.op = ROp::MOV;
          mv.d = shadow;
          mv.a = ops.def;
          mv.il_pc = in.il_pc;
          shadows.emplace_back(i, mv);
          avail[Key{static_cast<int>(in.op), ca, cb, in.imm.i64}] = e;
          canon[ops.def] = shadow;
        }
      }
    }

    if (shadows.empty()) continue;
    // Splice the shadow moves into the block and remap il_start_: positions
    // inside the block move to their new offsets (a shadow belongs to the IL
    // group of its defining instruction, so an IL boundary right after it
    // lands past the shadow), later positions shift by the block's growth.
    std::vector<RInstr> blockvec;
    blockvec.reserve(hi - lo + shadows.size());
    std::vector<std::int32_t> npos(hi - lo);
    std::size_t next_shadow = 0;
    for (std::size_t q = lo; q < hi; ++q) {
      npos[q - lo] = static_cast<std::int32_t>(blockvec.size());
      blockvec.push_back(out_[q]);
      while (next_shadow < shadows.size() &&
             shadows[next_shadow].first == q) {
        blockvec.push_back(shadows[next_shadow].second);
        ++next_shadow;
      }
    }
    const auto delta = static_cast<std::int32_t>(blockvec.size() - (hi - lo));
    out_.erase(out_.begin() + static_cast<std::ptrdiff_t>(lo),
               out_.begin() + static_cast<std::ptrdiff_t>(hi));
    out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(lo),
                blockvec.begin(), blockvec.end());
    for (auto& v : il_start_) {
      if (v >= static_cast<std::int32_t>(hi)) {
        v += delta;
      } else if (v > static_cast<std::int32_t>(lo)) {
        v = static_cast<std::int32_t>(lo) +
            npos[static_cast<std::size_t>(v) - lo];
      }
    }
  }
}

// --------------------------------------------------------------------------
// Bounds-check elimination for counted loops whose bound is ldlen.

void Compiler::eliminate_bounds_checks() {
  // Def counts per register across the whole method (spotting single-def
  // array registers; arguments count as zero-def).
  const std::int32_t nregs = static_cast<std::int32_t>(rc_.reg_types.size());
  std::vector<std::int32_t> defs(static_cast<std::size_t>(nregs), 0);
  for (std::size_t i = 0; i < out_.size(); ++i) {
    const Operands ops = operands_of(out_[i], rc_.args_pool);
    if (ops.def >= 0) ++defs[static_cast<std::size_t>(ops.def)];
  }

  // A register's last definition strictly before position `at`.
  auto last_def_before = [&](std::int32_t reg, std::size_t at) -> std::int32_t {
    for (std::size_t k = at; k-- > 0;) {
      if (operands_of(out_[k], rc_.args_pool).def == reg) {
        return static_cast<std::int32_t>(k);
      }
    }
    return -1;
  };
  // True if `reg` is initialized to the constant 0 reaching `at` (directly
  // by LDI 0, or through one MOV from an LDI-0 register).
  auto init_is_zero = [&](std::int32_t reg, std::size_t at) {
    std::int32_t d = last_def_before(reg, at);
    if (d < 0) return false;
    const RInstr& in = out_[static_cast<std::size_t>(d)];
    if (in.op == ROp::LDI) return in.imm.i64 == 0;
    if (in.op == ROp::MOV) {
      const std::int32_t d2 = last_def_before(in.a, static_cast<std::size_t>(d));
      if (d2 < 0) return false;
      const RInstr& in2 = out_[static_cast<std::size_t>(d2)];
      return in2.op == ROp::LDI && in2.imm.i64 == 0;
    }
    return false;
  };

  // Candidate back-edges: JLT_I4 i, len, body with body earlier in the code
  // (the canonical `br cond; body: ...; i++; cond: ldlen; blt body` shape).
  for (std::size_t j = 0; j < out_.size(); ++j) {
    const RInstr& br = out_[j];
    if (br.op != ROp::JLT_I4) continue;
    const std::int32_t til = br.d;  // still an IL pc pre-compaction
    if (til < 0 || static_cast<std::size_t>(til) >= il_start_.size()) continue;
    const std::int32_t body = il_start_[static_cast<std::size_t>(til)];
    if (body < 0 || static_cast<std::size_t>(body) >= j) continue;
    const std::int32_t ireg = br.a;
    const std::int32_t lenreg = br.b;

    // The reaching definition of len at the branch must be LDLEN of a
    // single-def array register, with no other defs of len inside the loop.
    std::int32_t lendef = -1;
    bool bad = false;
    for (std::size_t k = static_cast<std::size_t>(body); k < j; ++k) {
      if (operands_of(out_[k], rc_.args_pool).def == lenreg) {
        if (lendef >= 0) bad = true;
        lendef = static_cast<std::int32_t>(k);
      }
    }
    if (bad) continue;
    if (lendef < 0) {
      lendef = last_def_before(lenreg, static_cast<std::size_t>(body));
    }
    if (lendef < 0 || out_[static_cast<std::size_t>(lendef)].op != ROp::LDLEN_R) {
      continue;
    }
    const std::int32_t arrreg = out_[static_cast<std::size_t>(lendef)].a;
    if (defs[static_cast<std::size_t>(arrreg)] > 1) continue;

    // Induction variable: inside [body, j) the defs of i must be either a
    // single `ADDI i, i, 1` or the pair `ADDI t, i, 1; ...; MOV i, t` where
    // the ADDI is t's only in-loop def. No other defs of arr in the loop.
    std::int32_t incr_at = -1;
    for (std::size_t k = static_cast<std::size_t>(body); k < j && !bad; ++k) {
      const Operands ops = operands_of(out_[k], rc_.args_pool);
      if (ops.def == ireg) {
        if (incr_at >= 0) {
          bad = true;
        } else if (out_[k].op == ROp::ADDI_I4 && out_[k].a == ireg &&
                   out_[k].imm.i64 == 1) {
          incr_at = static_cast<std::int32_t>(k);
        } else if (out_[k].op == ROp::MOV) {
          const std::int32_t t = out_[k].a;
          const std::int32_t td = last_def_before(t, k);
          if (td >= static_cast<std::int32_t>(body) &&
              out_[static_cast<std::size_t>(td)].op == ROp::ADDI_I4 &&
              out_[static_cast<std::size_t>(td)].a == ireg &&
              out_[static_cast<std::size_t>(td)].imm.i64 == 1) {
            // The temp must not be redefined between the ADDI and the MOV.
            bool clean = true;
            for (std::size_t x = static_cast<std::size_t>(td) + 1; x < k; ++x) {
              if (operands_of(out_[x], rc_.args_pool).def == t) clean = false;
            }
            if (clean) {
              incr_at = static_cast<std::int32_t>(td);
            } else {
              bad = true;
            }
          } else {
            bad = true;
          }
        } else {
          bad = true;
        }
      }
      if (ops.def == arrreg) bad = true;
    }
    if (bad || incr_at < 0) continue;
    if (!init_is_zero(ireg, static_cast<std::size_t>(body))) continue;

    // Delete the range-check nodes for a[i] on the bounded array, positioned
    // before the increment (where i < arr.Length is guaranteed by the guard).
    for (std::size_t k = static_cast<std::size_t>(body);
         k < static_cast<std::size_t>(incr_at); ++k) {
      RInstr& in = out_[k];
      if (in.op == ROp::CHK_BOUNDS && in.a == arrreg && in.b == ireg) {
        in.op = ROp::NOP_R;
      }
    }
    // If the in-loop ldlen feeds only the loop guard, fuse the guard into a
    // compare-against-length branch and drop the ldlen (instruction
    // selection: cmp idx, [arr+len]).
    if (lendef >= static_cast<std::int32_t>(body)) {
      bool len_only_guard = true;
      for (std::size_t k = static_cast<std::size_t>(body); k <= j; ++k) {
        if (k == j || static_cast<std::int32_t>(k) == lendef) continue;
        const Operands ops = operands_of(out_[k], rc_.args_pool);
        for (int u = 0; u < ops.nuses; ++u) {
          if (ops.uses[u] == lenreg) len_only_guard = false;
        }
      }
      if (len_only_guard) {
        out_[static_cast<std::size_t>(lendef)].op = ROp::NOP_R;
        out_[j].op = ROp::JLT_LEN;
        out_[j].b = arrreg;
      }
    }
  }
}

// --------------------------------------------------------------------------

void Compiler::compact() {
  std::vector<std::int32_t> newpos(out_.size() + 1, 0);
  std::vector<RInstr> packed;
  packed.reserve(out_.size());
  for (std::size_t i = 0; i < out_.size(); ++i) {
    newpos[i] = static_cast<std::int32_t>(packed.size());
    if (out_[i].op != ROp::NOP_R) packed.push_back(out_[i]);
  }
  newpos[out_.size()] = static_cast<std::int32_t>(packed.size());

  // IL -> rpc map.
  rc_.il2rpc.assign(mp_->code.size() + 1, 0);
  for (std::size_t il = 0; il <= mp_->code.size(); ++il) {
    const std::int32_t orig = il_start_[il];
    rc_.il2rpc[il] = newpos[static_cast<std::size_t>(orig)];
  }
  // Re-target branches (their d fields hold IL pcs). Backward branches are
  // also (a) canonicalized JMP -> JMPB and (b) recorded in the deopt side
  // table: at a taken back edge the register file holds exactly the IL frame
  // state of the loop header — slot registers mirror the locals in place,
  // and the header's entry operand stack lives in the (depth, type) stack
  // registers DCE kept live across the edge — so the table only has to name
  // those stack registers. If any header's entry stack has no register
  // (cannot happen for translated code, but stay conservative) the WHOLE
  // table is dropped: deopt support is all-or-nothing per body, which is
  // what lets the runtime bail at ANY taken back edge without probing.
  bool deopt_ok = true;
  for (std::size_t i = 0; i < packed.size(); ++i) {
    RInstr& in = packed[i];
    if (!is_branch(in.op)) continue;
    const std::int32_t il_target = in.d;
    in.d = rc_.il2rpc[static_cast<std::size_t>(il_target)];
    if (in.d > static_cast<std::int32_t>(i)) continue;  // forward
    if (in.op == ROp::JMP) in.op = ROp::JMPB;
    if (!deopt_ok) continue;
    RCode::DeoptPoint dp;
    dp.rpc = static_cast<std::int32_t>(i);
    dp.il_pc = il_target;
    const auto& entry_stack = mp_->stack_in[static_cast<std::size_t>(il_target)];
    for (std::size_t depth = 0; depth < entry_stack.size(); ++depth) {
      const auto key = (static_cast<std::int64_t>(depth) << 4) |
                       static_cast<std::int64_t>(entry_stack[depth]);
      const auto it = stack_regs_.find(key);
      if (it == stack_regs_.end()) {
        deopt_ok = false;
        break;
      }
      dp.stack_regs.push_back(it->second);
    }
    if (deopt_ok) rc_.deopt_points.push_back(std::move(dp));
  }
  if (!deopt_ok) rc_.deopt_points.clear();
  rc_.code = std::move(packed);
}

std::string Compiler::dump_rcode() const {
  // Pre-compaction listings keep original indices (NOP placeholders are
  // skipped but not renumbered) so per-pass diffs line up.
  const std::vector<RInstr>& code = rc_.code.empty() ? out_ : rc_.code;
  std::string s;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].op == ROp::NOP_R) continue;
    s += std::to_string(i);
    s += ": ";
    s += to_string(code[i], rc_);  // side-table-aware: VECLOOP shows kernel
    s += '\n';
  }
  return s;
}

std::string Compiler::dump_il() const {
  std::string s;
  for (std::size_t pc = 0; pc < mp_->code.size(); ++pc) {
    s += std::to_string(pc);
    s += ": ";
    s += vm::to_string(mp_->code[pc]);
    s += '\n';
  }
  return s;
}

void Compiler::finalize() {
  // Position independence: the RCode owns a copy of the body it compiled
  // (the inline pass's expanded copy when inlining fired, otherwise the
  // module method's verified state), so nothing in the published artifact
  // points into the module of the VM that happened to drive this compile.
  // The copy is taken post-verification: stack_in/reachable ride along for
  // the OSR/deopt continuation builder.
  if (inlined_ == nullptr) inlined_ = std::make_shared<MethodDef>(*mp_);
  rc_.body = inlined_;
  rc_.method = rc_.body.get();
  // Catch handlers receive the exception in the stack register for
  // (depth 0, Ref) — the verifier seeds handler entry stacks with [Ref].
  // Resolve these before the ref scan so any register created here is seen.
  for (const ExHandler& h : mp_->handlers) {
    rc_.handler_exc_reg.push_back(
        h.kind == HandlerKind::Catch ? sreg(0, ValType::Ref) : -1);
  }
  rc_.num_regs = static_cast<std::int32_t>(rc_.reg_types.size());
  for (std::int32_t r = 0; r < rc_.num_regs; ++r) {
    if (rc_.reg_types[static_cast<std::size_t>(r)] == ValType::Ref) {
      rc_.ref_regs.push_back(r);
    }
  }
  if (rc_.code.empty()) {
    // Defensive: an empty body cannot be verified, but never execute off the
    // end regardless.
    RInstr ret;
    ret.op = ROp::RET_R;
    ret.a = -1;
    rc_.code.push_back(ret);
  }
}

}  // namespace

RCode compile(Module& module, const MethodDef& m, const EngineFlags& flags) {
  if (!m.verified) {
    throw std::logic_error("compile of unverified method: " + m.name);
  }
  return Compiler(module, m, flags).run();
}

RCode compile_traced(Module& module, const MethodDef& m,
                     const EngineFlags& flags, const PassObserver& observe) {
  if (!m.verified) {
    throw std::logic_error("compile of unverified method: " + m.name);
  }
  return Compiler(module, m, flags, &observe).run();
}

}  // namespace hpcnet::vm::regir
