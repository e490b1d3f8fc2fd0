#include "vm/veccompile.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "vm/regir_ops.hpp"
#include "vm/veckernels.hpp"

namespace hpcnet::vm::regir {

namespace {

namespace vk = veckernels;

// Symbolic per-iteration value: the recognizer executes the loop body once,
// abstractly, and template-matches the resulting expression DAG. Anything it
// cannot model (calls, allocations, ref stores, division, extra branches,
// non-unit strides) rejects the loop — the scalar code is always correct.
struct Expr {
  enum class Kind { Idx, Imm, Inv, Load, Add, Sub, Mul };
  Kind kind = Kind::Imm;
  ValType type = ValType::I32;
  std::int32_t reg = -1;     // Inv: the invariant register read
  bool carried = false;      // Inv: reg IS defined later in the region — a
                             // loop-carried read of the iteration-entry
                             // value, legal only as a reduction accumulator
  std::int64_t bits = 0;     // Imm: raw slot bits; Idx: offset from ivar
  std::int32_t arr = -1;     // Load: array register
  std::int32_t gather = -1;  // Load: i32 index array (index = gather[ivar]);
                             // -1 means the index is ivar + bits
  int l = -1, r = -1;        // Add/Sub/Mul children
};

/// A guard interval the chosen kernel's runtime checks must cover: every
/// in-loop CHK_BOUNDS the superinstruction subsumes becomes one of these.
struct BoundReq {
  std::int32_t arr;
  std::int32_t off;   // index = ivar + off, or ignored when gather
  std::int32_t gather = -1;  // per-element check: arr[gather[ivar]]
};

struct Match {
  std::int32_t kernel = -1;
  std::int32_t arr0 = -1, arr1 = -1, arr2 = -1;
  std::int32_t s0_reg = -1, s1_reg = -1;
  std::int64_t s0_bits = 0, s1_bits = 0;
};

class Lowerer {
 public:
  explicit Lowerer(const VecLowerInput& in)
      : code_(*in.code),
        il_start_(*in.il_start),
        labels_(*in.labels),
        method_(*in.method),
        rc_(*in.rc) {}

  int run() {
    int lowered = 0;
    // Each insertion shifts positions; rescan from scratch.
    for (int round = 0; round < 32; ++round) {
      if (!round_once()) break;
      ++lowered;
    }
    return lowered;
  }

 private:
  bool round_once() {
    struct Cand {
      std::size_t j;
      std::int32_t body;
    };
    std::vector<Cand> cands;
    for (std::size_t j = 0; j < code_.size(); ++j) {
      const RInstr& br = code_[j];
      if (br.op != ROp::JLT_I4 && br.op != ROp::JLT_LEN && br.op != ROp::JMP) {
        continue;
      }
      const std::int32_t til = br.d;  // IL pc pre-compaction
      if (til < 0 || static_cast<std::size_t>(til) >= il_start_.size()) {
        continue;
      }
      const std::int32_t body = il_start_[static_cast<std::size_t>(til)];
      if (body < 0 || static_cast<std::size_t>(body) >= j) continue;
      cands.push_back({j, body});
    }
    // Innermost first: smaller regions cannot contain other loops.
    std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) {
      return (static_cast<std::int32_t>(x.j) - x.body) <
             (static_cast<std::int32_t>(y.j) - y.body);
    });
    for (const Cand& c : cands) {
      if (try_lower(c.body, static_cast<std::int32_t>(c.j))) return true;
    }
    return false;
  }

  // ---- shared region analysis -----------------------------------------

  bool handler_starts_inside(std::int32_t body, std::int32_t j) const {
    for (const ExHandler& h : method_.handlers) {
      const std::int32_t hs = il_start_[static_cast<std::size_t>(h.handler)];
      if (hs >= body && hs <= j) return true;
    }
    return false;
  }

  /// Entry analysis: every control transfer into [body, j] from outside the
  /// region.
  void analyze_entries(std::int32_t body, std::int32_t j, std::int32_t* count,
                       std::int32_t* entry_jmp, std::int32_t* entry_target,
                       bool* entry_uncond, bool* fall_in) const {
    *count = 0;
    *entry_jmp = -1;
    *entry_target = -1;
    *entry_uncond = false;
    for (std::size_t p = 0; p < code_.size(); ++p) {
      const RInstr& in = code_[p];
      std::int32_t til;
      if (is_branch(in.op)) {
        til = in.d;
      } else if (in.op == ROp::LEAVE_R) {
        til = in.a;
      } else {
        continue;
      }
      if (til < 0 || static_cast<std::size_t>(til) >= il_start_.size()) {
        continue;
      }
      const std::int32_t t = il_start_[static_cast<std::size_t>(til)];
      if (t < body || t > j) continue;
      const auto pos = static_cast<std::int32_t>(p);
      if (pos >= body && pos <= j) continue;  // internal edge
      ++*count;
      *entry_jmp = pos;
      *entry_target = t;
      *entry_uncond = in.op == ROp::JMP || in.op == ROp::JMPB;
    }
    *fall_in = true;
    std::int32_t p = body - 1;
    while (p >= 0 && code_[static_cast<std::size_t>(p)].op == ROp::NOP_R) --p;
    if (p >= 0) {
      const ROp op = code_[static_cast<std::size_t>(p)].op;
      if (op == ROp::JMP || op == ROp::JMPB || op == ROp::RET_R ||
          op == ROp::THROW_R || op == ROp::LEAVE_R ||
          op == ROp::ENDFINALLY_R) {
        *fall_in = false;
      }
    }
  }

  bool uses_reg(const RInstr& in, std::int32_t r) const {
    const Operands ops = operands_of(in, rc_.args_pool);
    for (int k = 0; k < ops.nuses; ++k) {
      if (ops.uses[k] == r) return true;
    }
    if (in.op == ROp::CALL_R || in.op == ROp::CALLINTR_R) {
      const auto argc = static_cast<std::int32_t>(in.imm.i64);
      for (std::int32_t k = 0; k < argc; ++k) {
        if (rc_.args_pool[static_cast<std::size_t>(in.b + k)] == r) {
          return true;
        }
      }
    }
    return false;
  }

  // ---- expression pool -------------------------------------------------

  int add(Expr e) {
    pool_.push_back(e);
    return static_cast<int>(pool_.size()) - 1;
  }
  int idx_node(std::int64_t off) {
    Expr e;
    e.kind = Expr::Kind::Idx;
    e.type = ValType::I32;
    e.bits = off;
    return add(e);
  }
  int bin(Expr::Kind k, ValType t, int l, int r) {
    Expr e;
    e.kind = k;
    e.type = t;
    e.l = l;
    e.r = r;
    return add(e);
  }

  const Expr& at(int e) const { return pool_[static_cast<std::size_t>(e)]; }

  bool subtree_has_carried(int e) const {
    const Expr& x = at(e);
    if (x.kind == Expr::Kind::Inv) return x.carried;
    if (x.l >= 0 && subtree_has_carried(x.l)) return true;
    if (x.r >= 0 && subtree_has_carried(x.r)) return true;
    return false;
  }

  // ---- the lowering attempt -------------------------------------------

  bool try_lower(std::int32_t body, std::int32_t j) {
    const RInstr& br = code_[static_cast<std::size_t>(j)];
    const bool rotated = br.op != ROp::JMP;  // JLT_I4 / JLT_LEN back edge

    if (handler_starts_inside(body, j)) return false;

    std::int32_t entries, entry_jmp, entry_target;
    bool entry_uncond, fall_in;
    analyze_entries(body, j, &entries, &entry_jmp, &entry_target,
                    &entry_uncond, &fall_in);

    std::int32_t insert_at;
    std::int32_t ivar, limit = -1, limit_arr = -1;
    std::int32_t work_begin;  // body evaluation range [work_begin, work_end)
    std::int32_t work_end;
    if (rotated) {
      // Form A — `br cond; top: body; i++; cond: jlt top` (counted_loop /
      // ldlen_loop). Loop entered only through one unconditional jump to the
      // guard; the VECLOOP goes right before that jump.
      if (entries != 1 || fall_in || !entry_uncond) return false;
      insert_at = entry_jmp;
      ivar = br.a;
      if (br.op == ROp::JLT_I4) {
        limit = br.b;
      } else {
        limit_arr = br.b;
      }
      // The entry must land on the guard: everything from the landing point
      // to the back edge has to be NOPs, or the post-kernel hand-off (entry
      // jump -> guard -> exit) would re-execute body work. One exception:
      // when BCE could not fuse a JLT_LEN (length register shared with body
      // scratch) the guard block recomputes `t = ldlen arr; jlt i, t`. That
      // ldlen re-executes after the kernel commits, so it needs no
      // modelling — the loop is simply length-bounded on `arr`.
      for (std::int32_t k = entry_target; k < j; ++k) {
        const RInstr& gi = code_[static_cast<std::size_t>(k)];
        if (gi.op == ROp::NOP_R) continue;
        if (gi.op == ROp::LDLEN_R && br.op == ROp::JLT_I4 && gi.d == br.b &&
            limit == br.b && limit_arr < 0) {
          limit = -1;
          limit_arr = gi.a;
          continue;
        }
        return false;
      }
      work_begin = body;
      work_end = entry_target;
    } else {
      // Form B — `head: jge exit; body; i++; jmp head` (top-tested loops:
      // the SOR j-loop, the sparse gather loop). Entered by fall-in only;
      // the VECLOOP goes at the head. The il_start shift then re-points
      // every branch to the head PAST the superinstruction, so only the
      // fall-in path runs it — once.
      if (entries != 0 || !fall_in) return false;
      insert_at = body;
      // First non-NOP must be the exit guard `jge ivar, limit -> after j`.
      std::int32_t g = body;
      while (g < j && code_[static_cast<std::size_t>(g)].op == ROp::NOP_R) {
        ++g;
      }
      const RInstr& guard = code_[static_cast<std::size_t>(g)];
      if (guard.op != ROp::JGE_I4) return false;
      const std::int32_t gtil = guard.d;
      if (gtil < 0 || static_cast<std::size_t>(gtil) >= il_start_.size()) {
        return false;
      }
      if (il_start_[static_cast<std::size_t>(gtil)] <= j) return false;
      ivar = guard.a;
      limit = guard.b;
      work_begin = g + 1;
      work_end = j;
    }

    // Don't re-lower a loop that already has its VECLOOP.
    if (insert_at > 0 &&
        code_[static_cast<std::size_t>(insert_at) - 1].op == ROp::VECLOOP) {
      return false;
    }

    // Region def counts + first def position (for carried-read legality).
    const auto nregs = static_cast<std::int32_t>(rc_.reg_types.size());
    std::vector<std::int32_t> region_defs(static_cast<std::size_t>(nregs), 0);
    std::vector<std::int32_t> first_def(static_cast<std::size_t>(nregs), -1);
    for (std::int32_t p = body; p <= j; ++p) {
      const Operands ops = operands_of(code_[static_cast<std::size_t>(p)],
                                       rc_.args_pool);
      if (ops.def >= 0) {
        ++region_defs[static_cast<std::size_t>(ops.def)];
        if (first_def[static_cast<std::size_t>(ops.def)] < 0) {
          first_def[static_cast<std::size_t>(ops.def)] = p;
        }
      }
    }
    auto invariant = [&](std::int32_t r) {
      return r >= 0 && region_defs[static_cast<std::size_t>(r)] == 0;
    };
    if (limit >= 0 && !invariant(limit)) return false;
    if (limit_arr >= 0 && !invariant(limit_arr)) return false;
    if (region_defs[static_cast<std::size_t>(ivar)] != 1) return false;

    // ---- abstract execution of one iteration --------------------------
    // The induction step is recognized through the expression DAG rather
    // than by instruction shape: the single def of ivar must assign the
    // value Idx(+1) (so `addi i, i, 1`, `addi t, i, 1; … mov i, t`, and the
    // CSE'd form where t doubles as an `a[i+1]` address all match), and
    // nothing but NOPs may follow it before the back edge.
    pool_.clear();
    std::vector<int> val(static_cast<std::size_t>(nregs), -1);
    val[static_cast<std::size_t>(ivar)] = idx_node(0);

    std::vector<BoundReq> reqs;
    std::int32_t store_arr = -1;
    int store_expr = -1;
    std::int32_t acc = -1;
    std::vector<std::int32_t> scratch_defs;

    auto eval = [&](std::int32_t r, std::int32_t pos) -> int {
      if (val[static_cast<std::size_t>(r)] >= 0) {
        return val[static_cast<std::size_t>(r)];
      }
      Expr e;
      e.kind = Expr::Kind::Inv;
      e.type = rc_.reg_types[static_cast<std::size_t>(r)];
      e.reg = r;
      if (region_defs[static_cast<std::size_t>(r)] != 0) {
        // Use-before-def inside the region: a read of the iteration-entry
        // value. Legal only for the reduction accumulator; flag it.
        if (first_def[static_cast<std::size_t>(r)] <= pos) return -1;
        e.carried = true;
      }
      return add(e);
    };

    bool past_incr = false;
    for (std::int32_t k = work_begin; k < work_end; ++k) {
      const RInstr& in = code_[static_cast<std::size_t>(k)];
      if (in.op == ROp::NOP_R) continue;
      // Work after the increment would see a shifted index.
      if (past_incr) return false;

      auto def = [&](std::int32_t d, int v) -> bool {
        if (v < 0) return false;
        if (d == ivar) {
          // The induction step: must assign i+1, and nothing but NOPs may
          // run between it and the back edge.
          const Expr& e = at(v);
          if (e.kind != Expr::Kind::Idx || e.bits != 1) return false;
          past_incr = true;
          return true;
        }
        val[static_cast<std::size_t>(d)] = v;
        if (d < rc_.slot_regs) {
          if (acc >= 0 && acc != d) return false;  // one accumulator max
          acc = d;
        } else {
          scratch_defs.push_back(d);
        }
        return true;
      };

      switch (in.op) {
        case ROp::MOV:
          if (!def(in.d, eval(in.a, k))) return false;
          break;
        case ROp::LDI: {
          Expr e;
          e.kind = Expr::Kind::Imm;
          e.type = rc_.reg_types[static_cast<std::size_t>(in.d)];
          e.bits = in.imm.i64;
          if (!def(in.d, add(e))) return false;
          break;
        }
        case ROp::ADDI_I4:
        case ROp::SUBI_I4: {
          const int a = eval(in.a, k);
          if (a < 0) return false;
          const std::int64_t c =
              in.op == ROp::ADDI_I4 ? in.imm.i64 : -in.imm.i64;
          int v;
          if (at(a).kind == Expr::Kind::Idx) {
            v = idx_node(at(a).bits + c);
          } else if (at(a).kind == Expr::Kind::Imm) {
            Expr e;
            e.kind = Expr::Kind::Imm;
            e.type = ValType::I32;
            e.bits = static_cast<std::int32_t>(at(a).bits + c);
            v = add(e);
          } else {
            Expr imm;
            imm.kind = Expr::Kind::Imm;
            imm.type = ValType::I32;
            imm.bits = in.imm.i64;
            v = bin(in.op == ROp::ADDI_I4 ? Expr::Kind::Add : Expr::Kind::Sub,
                    ValType::I32, a, add(imm));
          }
          if (!def(in.d, v)) return false;
          break;
        }
        case ROp::ADD_I4:
        case ROp::SUB_I4: {
          const int a = eval(in.a, k), b = eval(in.b, k);
          if (a < 0 || b < 0) return false;
          const bool isadd = in.op == ROp::ADD_I4;
          int v = -1;
          if (at(a).kind == Expr::Kind::Idx &&
              at(b).kind == Expr::Kind::Imm) {
            v = idx_node(at(a).bits + (isadd ? at(b).bits : -at(b).bits));
          } else if (isadd && at(a).kind == Expr::Kind::Imm &&
                     at(b).kind == Expr::Kind::Idx) {
            v = idx_node(at(a).bits + at(b).bits);
          } else {
            v = bin(isadd ? Expr::Kind::Add : Expr::Kind::Sub, ValType::I32,
                    a, b);
          }
          if (!def(in.d, v)) return false;
          break;
        }
        case ROp::MUL_I4:
        case ROp::MULI_I4: {
          const int a = eval(in.a, k);
          if (a < 0) return false;
          int b;
          if (in.op == ROp::MUL_I4) {
            b = eval(in.b, k);
            if (b < 0) return false;
          } else {
            Expr imm;
            imm.kind = Expr::Kind::Imm;
            imm.type = ValType::I32;
            imm.bits = in.imm.i64;
            b = add(imm);
          }
          if (!def(in.d, bin(Expr::Kind::Mul, ValType::I32, a, b))) {
            return false;
          }
          break;
        }
        case ROp::ADD_R8:
        case ROp::SUB_R8:
        case ROp::MUL_R8: {
          const int a = eval(in.a, k), b = eval(in.b, k);
          if (a < 0 || b < 0) return false;
          const Expr::Kind kk = in.op == ROp::ADD_R8 ? Expr::Kind::Add
                                : in.op == ROp::SUB_R8 ? Expr::Kind::Sub
                                                       : Expr::Kind::Mul;
          if (!def(in.d, bin(kk, ValType::F64, a, b))) return false;
          break;
        }
        case ROp::ADDI_R8:
        case ROp::MULI_R8: {
          const int a = eval(in.a, k);
          if (a < 0) return false;
          Expr imm;
          imm.kind = Expr::Kind::Imm;
          imm.type = ValType::F64;
          imm.bits = in.imm.i64;  // raw double bits
          const Expr::Kind kk =
              in.op == ROp::ADDI_R8 ? Expr::Kind::Add : Expr::Kind::Mul;
          if (!def(in.d, bin(kk, ValType::F64, a, add(imm)))) return false;
          break;
        }
        case ROp::CHK_BOUNDS: {
          if (store_expr >= 0) return false;  // no memory ops after store
          if (!invariant(in.a)) return false;
          const int vi = eval(in.b, k);
          if (vi < 0) return false;
          const Expr& ix = at(vi);
          if (ix.kind == Expr::Kind::Idx) {
            if (ix.bits < -1 || ix.bits > 1) return false;
            reqs.push_back({in.a, static_cast<std::int32_t>(ix.bits), -1});
          } else if (ix.kind == Expr::Kind::Load && ix.gather < 0 &&
                     ix.bits == 0 && ix.type == ValType::I32) {
            reqs.push_back({in.a, 0, ix.arr});  // checked per element
          } else {
            return false;
          }
          break;
        }
        case ROp::LDELEMU_I4:
        case ROp::LDELEMU_R8: {
          if (store_expr >= 0) return false;  // load could see the store
          if (!invariant(in.a)) return false;
          const int vi = eval(in.b, k);
          if (vi < 0) return false;
          const Expr& ix = at(vi);
          Expr e;
          e.kind = Expr::Kind::Load;
          e.type = in.op == ROp::LDELEMU_R8 ? ValType::F64 : ValType::I32;
          e.arr = in.a;
          if (ix.kind == Expr::Kind::Idx && ix.bits >= -1 && ix.bits <= 1) {
            e.bits = ix.bits;
          } else if (ix.kind == Expr::Kind::Load && ix.gather < 0 &&
                     ix.bits == 0 && ix.type == ValType::I32) {
            e.gather = ix.arr;
          } else {
            return false;
          }
          if (!def(in.d, add(e))) return false;
          break;
        }
        case ROp::STELEMU_I4:
        case ROp::STELEMU_R8: {
          if (store_expr >= 0) return false;  // single store per iteration
          if (!invariant(in.a)) return false;
          const int vi = eval(in.b, k);
          if (vi < 0 || at(vi).kind != Expr::Kind::Idx || at(vi).bits != 0) {
            return false;
          }
          const int src = eval(in.d, k);
          if (src < 0) return false;
          const ValType t =
              in.op == ROp::STELEMU_R8 ? ValType::F64 : ValType::I32;
          if (at(src).type != t) return false;
          store_arr = in.a;
          store_expr = src;
          break;
        }
        default:
          return false;  // calls, allocs, ref stores, division, branches, …
      }
    }

    // Classify: exactly one of {map store, reduction accumulator}.
    if ((store_expr >= 0) == (acc >= 0)) return false;
    Match m;
    if (store_expr >= 0) {
      if (subtree_has_carried(store_expr)) return false;
      if (!match_map(store_arr, store_expr, &m)) return false;
    } else {
      if (!match_reduction(acc, val[static_cast<std::size_t>(acc)], &m)) {
        return false;
      }
    }

    // Every bounds check the kernel subsumes must fall inside its guards.
    for (const BoundReq& r : reqs) {
      if (!covered(m, r)) return false;
    }

    // Scratch staleness: when the kernel runs, the body's scratch registers
    // keep whatever they held before the loop. Any read of one after the
    // loop (before a redefinition) would observe that stale value — reject.
    for (const std::int32_t r : scratch_defs) {
      for (std::size_t p = static_cast<std::size_t>(j) + 1; p < code_.size();
           ++p) {
        if (operands_of(code_[p], rc_.args_pool).def == r) break;
        if (uses_reg(code_[p], r)) return false;
      }
    }

    // ---- plant the superinstruction ------------------------------------
    RCode::VecLoop vl;
    vl.kernel = m.kernel;
    vl.ivar = ivar;
    vl.limit = limit;
    vl.limit_arr = limit_arr;
    vl.arr0 = m.arr0;
    vl.arr1 = m.arr1;
    vl.arr2 = m.arr2;
    vl.acc = acc;
    vl.s0_reg = m.s0_reg;
    vl.s1_reg = m.s1_reg;
    vl.s0_bits = m.s0_bits;
    vl.s1_bits = m.s1_bits;

    RInstr v;
    v.op = ROp::VECLOOP;
    v.flags = RInstr::kPinned;
    v.a = static_cast<std::int32_t>(rc_.vec_loops.size());
    v.il_pc = code_[static_cast<std::size_t>(insert_at)].il_pc;
    rc_.vec_loops.push_back(vl);
    code_.insert(code_.begin() + insert_at, v);
    for (auto& p : il_start_) {
      if (p >= insert_at) p += 1;
    }
    return true;
  }

  // ---- template matching ----------------------------------------------

  bool load_at(int e, ValType t, std::int64_t off, std::int32_t* arr) const {
    const Expr& x = at(e);
    if (x.kind != Expr::Kind::Load || x.type != t || x.gather >= 0 ||
        x.bits != off) {
      return false;
    }
    *arr = x.arr;
    return true;
  }

  bool scalar_opnd(int e, ValType t, std::int32_t* sreg,
                   std::int64_t* sbits) const {
    const Expr& x = at(e);
    if (x.type != t) return false;
    if (x.kind == Expr::Kind::Inv && !x.carried) {
      *sreg = x.reg;
      return true;
    }
    if (x.kind == Expr::Kind::Imm) {
      *sbits = x.bits;
      return true;
    }
    return false;
  }

  bool match_map(std::int32_t dst, int e, Match* m) const {
    const Expr& x = at(e);
    const ValType t = x.type;
    const bool f64 = t == ValType::F64;
    std::int32_t a = -1, b = -1;
    // a[i] = a[i] * s  (scalar on either side; both-NaN payload caveat is
    // documented in DESIGN.md §12).
    if (x.kind == Expr::Kind::Mul) {
      for (int flip = 0; flip < 2; ++flip) {
        const int le = flip == 0 ? x.l : x.r;
        const int re = flip == 0 ? x.r : x.l;
        if (load_at(le, t, 0, &a) && a == dst &&
            scalar_opnd(re, t, &m->s0_reg, &m->s0_bits)) {
          m->kernel = f64 ? vk::kMapScaleF64 : vk::kMapScaleI4;
          m->arr0 = dst;
          return true;
        }
      }
    }
    if (x.kind == Expr::Kind::Add) {
      // a[i] = a[i] + b[i]
      if (load_at(x.l, t, 0, &a) && a == dst && load_at(x.r, t, 0, &b)) {
        m->kernel = f64 ? vk::kMapAddF64 : vk::kMapAddI4;
        m->arr0 = dst;
        m->arr1 = b;
        return true;
      }
      // y[i] = y[i] + s * x[i]  (daxpy; scalar on either side of the mul)
      if (load_at(x.l, t, 0, &a) && a == dst &&
          at(x.r).kind == Expr::Kind::Mul) {
        const Expr& mm = at(x.r);
        for (int flip = 0; flip < 2; ++flip) {
          const int le = flip == 0 ? mm.l : mm.r;
          const int re = flip == 0 ? mm.r : mm.l;
          std::int32_t xarr = -1;
          if (load_at(re, t, 0, &xarr) &&
              scalar_opnd(le, t, &m->s0_reg, &m->s0_bits)) {
            m->kernel = f64 ? vk::kDaxpyF64 : vk::kDaxpyI4;
            m->arr0 = dst;
            m->arr1 = xarr;
            return true;
          }
        }
      }
      // SOR 5-point: g[i] = s0*(((up[i]+down[i])+g[i-1])+g[i+1]) + s1*g[i]
      if (f64 && at(x.l).kind == Expr::Kind::Mul &&
          at(x.r).kind == Expr::Kind::Mul) {
        const Expr& l = at(x.l);
        const Expr& r = at(x.r);
        std::int32_t g = -1, up = -1, down = -1, gm = -1, gp = -1;
        Match probe;
        if (scalar_opnd(l.l, t, &probe.s0_reg, &probe.s0_bits) &&
            scalar_opnd(r.l, t, &probe.s1_reg, &probe.s1_bits) &&
            load_at(r.r, t, 0, &g) && g == dst &&
            at(l.r).kind == Expr::Kind::Add) {
          const Expr& t3 = at(l.r);  // ((up+down)+g[-1]) + g[+1]
          if (load_at(t3.r, t, 1, &gp) && gp == dst &&
              at(t3.l).kind == Expr::Kind::Add) {
            const Expr& t2 = at(t3.l);  // (up+down) + g[-1]
            if (load_at(t2.r, t, -1, &gm) && gm == dst &&
                at(t2.l).kind == Expr::Kind::Add) {
              const Expr& t1 = at(t2.l);  // up + down
              if (load_at(t1.l, t, 0, &up) && load_at(t1.r, t, 0, &down)) {
                m->kernel = vk::kSor5F64;
                m->arr0 = dst;
                m->arr1 = up;
                m->arr2 = down;
                m->s0_reg = probe.s0_reg;
                m->s0_bits = probe.s0_bits;
                m->s1_reg = probe.s1_reg;
                m->s1_bits = probe.s1_bits;
                return true;
              }
            }
          }
        }
      }
    }
    return false;
  }

  bool match_reduction(std::int32_t acc, int e, Match* m) const {
    if (e < 0) return false;
    const Expr& x = at(e);
    if (x.kind != Expr::Kind::Add) return false;
    // acc = acc + T, with the carried read on the LEFT (matching the
    // `sum = sum + …` idiom; keeping the operand order fixed preserves
    // bit-identical NaN propagation).
    const Expr& l = at(x.l);
    if (l.kind != Expr::Kind::Inv || l.reg != acc) return false;
    const int te = x.r;
    if (subtree_has_carried(te)) return false;
    const Expr& term = at(te);
    const ValType t = term.type;
    const bool f64 = t == ValType::F64;
    std::int32_t a = -1, b = -1;
    if (load_at(te, t, 0, &a)) {
      m->kernel = f64 ? vk::kSumF64 : vk::kSumI4;
      m->arr0 = a;
      return true;
    }
    if (term.kind == Expr::Kind::Mul) {
      if (load_at(term.l, t, 0, &a) && load_at(term.r, t, 0, &b)) {
        m->kernel = f64 ? vk::kDotF64 : vk::kDotI4;
        m->arr0 = a;
        m->arr1 = b;
        return true;
      }
      // acc += x[col[i]] * val[i]  (sparse gather; f64 only)
      const Expr& gl = at(term.l);
      if (f64 && gl.kind == Expr::Kind::Load && gl.gather >= 0 &&
          load_at(term.r, t, 0, &b)) {
        m->kernel = vk::kGatherDotF64;
        m->arr0 = gl.arr;
        m->arr1 = gl.gather;
        m->arr2 = b;
        return true;
      }
    }
    return false;
  }

  /// Is one in-loop CHK_BOUNDS requirement subsumed by the kernel's runtime
  /// span guards (optimizing.cpp dispatch)?
  bool covered(const Match& m, const BoundReq& r) const {
    if (r.gather >= 0) {
      // Per-element gather check: only GatherDot performs it, on x via col.
      return m.kernel == vk::kGatherDotF64 && r.arr == m.arr0 &&
             r.gather == m.arr1;
    }
    auto in_span = [&](std::int32_t arr, std::int32_t lo, std::int32_t hi) {
      return r.arr == arr && r.off >= lo && r.off <= hi;
    };
    switch (m.kernel) {
      case vk::kMapScaleF64:
      case vk::kMapScaleI4:
      case vk::kSumF64:
      case vk::kSumI4:
        return in_span(m.arr0, 0, 0);
      case vk::kMapAddF64:
      case vk::kMapAddI4:
      case vk::kDaxpyF64:
      case vk::kDaxpyI4:
      case vk::kDotF64:
      case vk::kDotI4:
        return in_span(m.arr0, 0, 0) || in_span(m.arr1, 0, 0);
      case vk::kGatherDotF64:
        return in_span(m.arr1, 0, 0) || in_span(m.arr2, 0, 0);
      case vk::kSor5F64:
        return in_span(m.arr0, -1, 1) || in_span(m.arr1, 0, 0) ||
               in_span(m.arr2, 0, 0);
      default:
        return false;
    }
  }

  std::vector<RInstr>& code_;
  std::vector<std::int32_t>& il_start_;
  const std::vector<bool>& labels_;
  const MethodDef& method_;
  RCode& rc_;
  std::vector<Expr> pool_;
};

}  // namespace

int lower_vector_loops(const VecLowerInput& in) {
  return Lowerer(in).run();
}

}  // namespace hpcnet::vm::regir
