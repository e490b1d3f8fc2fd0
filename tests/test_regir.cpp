// Register-IR compiler: the optimization passes and profile quirks behind
// the paper's §5 findings, checked structurally (what code is emitted) and
// behaviourally (every flag combination computes the interpreter's answer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "cil/jg.hpp"
#include "cil/sm.hpp"
#include "vm/regcompile.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

using regir::RCode;
using regir::RInstr;
using regir::ROp;

std::size_t count_op(const RCode& rc, ROp op) {
  return static_cast<std::size_t>(
      std::count_if(rc.code.begin(), rc.code.end(),
                    [&](const RInstr& in) { return in.op == op; }));
}

/// The Table 5 division loop.
std::int32_t build_div_loop(Module& mod) {
  ILBuilder b(mod, "t_divloop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto x = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(2147483647).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(x).ldc_i4(3).div().stloc(x);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(x).ret();
  return b.finish();
}

TEST(RegIr, CopyPropagationShrinksCode) {
  // Copy propagation runs on every optimizing profile; its listing has
  // fewer instructions than the translation it starts from.
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  std::map<std::string, std::size_t> lines;
  regir::compile_traced(
      vm.module(), vm.module().method(m), profiles::clr11().flags,
      [&](const char* pass, const std::string& listing) {
        lines[pass] = static_cast<std::size_t>(
            std::count(listing.begin(), listing.end(), '\n'));
      });
  ASSERT_TRUE(lines.count("translate") && lines.count("copyprop+dce"));
  EXPECT_LT(lines["copyprop+dce"], lines["translate"]);
}

TEST(RegIr, EveryOpHasItsOwnMnemonic) {
  std::map<std::string, ROp> seen;
  for (std::size_t i = 0; i < static_cast<std::size_t>(ROp::COUNT_); ++i) {
    const ROp op = static_cast<ROp>(i);
    const std::string name = regir::info(op).name;
    EXPECT_FALSE(name.empty() || name == "?") << "op " << i;
    const auto [it, fresh] = seen.emplace(name, op);
    EXPECT_TRUE(fresh) << "ops " << static_cast<int>(it->second) << " and "
                       << i << " share the mnemonic " << name;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(ROp::COUNT_));
}

TEST(RegIr, Ibm131FusesImmediateDivide) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::ibm131().flags);
  EXPECT_EQ(count_op(rc, ROp::DIVI_I4), 1u);
  EXPECT_EQ(count_op(rc, ROp::DIV_I4), 0u);
}

TEST(RegIr, Clr11SpillsDivisorConstant) {
  // The paper's Table 6 quirk: the CLR stores the divisor in a temporary.
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EXPECT_EQ(count_op(rc, ROp::DIV_I4), 1u);   // real divide
  EXPECT_EQ(count_op(rc, ROp::DIVI_I4), 0u);  // no immediate form
  // The redundant pinned constant round-trip is present.
  std::size_t pinned = 0;
  for (const RInstr& in : rc.code) {
    if (in.pinned()) ++pinned;
  }
  EXPECT_GE(pinned, 2u);
}

TEST(RegIr, FusedCompareBranchIsProfileGated) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode fused = regir::compile(vm.module(), vm.module().method(m),
                                     profiles::clr11().flags);
  const RCode split = regir::compile(vm.module(), vm.module().method(m),
                                     profiles::sun14().flags);
  EXPECT_GE(count_op(fused, ROp::JLT_I4), 1u);
  EXPECT_EQ(count_op(split, ROp::JLT_I4), 0u);
  EXPECT_GE(count_op(split, ROp::CLT_I4), 1u);
  EXPECT_LE(fused.code.size(), split.code.size());
}

TEST(RegIr, EnregistrationLimitSpillsToMemoryOps) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "t_spill", {{}, ValType::I32});
  std::vector<std::int32_t> locs;
  for (int i = 0; i < 70; ++i) locs.push_back(b.add_local(ValType::I32));
  for (int i = 0; i < 70; ++i) b.ldc_i4(i).stloc(locs[static_cast<std::size_t>(i)]);
  b.ldloc(locs[69]).ldloc(locs[68]).add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode limited = regir::compile(vm.module(), vm.module().method(m),
                                       profiles::clr11().flags);  // limit 64
  const RCode unlimited = regir::compile(vm.module(), vm.module().method(m),
                                         profiles::ibm131().flags);
  EXPECT_GT(count_op(limited, ROp::MEMLD) + count_op(limited, ROp::MEMST), 0u);
  EXPECT_EQ(count_op(unlimited, ROp::MEMLD) + count_op(unlimited, ROp::MEMST),
            0u);
}

TEST(RegIr, BceRemovesRangeChecksOnlyWhenEnabled) {
  VirtualMachine vm;
  // for (i = 0; i < a.Length; i++) a[i] = i;
  ILBuilder b(vm.module(), "t_bce", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(arr).ldlen().blt(top);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(vm.module(), m);

  const RCode on = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EngineFlags off_flags = profiles::clr11().flags;
  off_flags.bounds_check_elim = false;
  const RCode off = regir::compile(vm.module(), vm.module().method(m),
                                   off_flags);
  // With BCE the in-loop store's range check is gone and the guard fused.
  EXPECT_LT(count_op(on, ROp::CHK_BOUNDS), count_op(off, ROp::CHK_BOUNDS));
  EXPECT_EQ(count_op(on, ROp::JLT_LEN), 1u);
  EXPECT_EQ(count_op(off, ROp::JLT_LEN), 0u);
}

TEST(RegIr, BceDoesNotFireOnVariableBound) {
  VirtualMachine vm;
  // Same loop but bounded by a separate local: checks must remain.
  ILBuilder b(vm.module(), "t_nobce", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto n = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).stloc(n);
  b.ldloc(n).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(n).blt(top);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EXPECT_EQ(count_op(rc, ROp::CHK_BOUNDS), 2u);  // in-loop store + final load
  EXPECT_EQ(count_op(rc, ROp::JLT_LEN), 0u);
}

TEST(RegIr, RefRegistersAreExactlyTheRefTyped) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "t_refs", {{ValType::Ref}, ValType::I32});
  const auto l = b.add_local(ValType::Ref);
  b.ldarg(0).stloc(l);
  b.ldloc(l).ldlen().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  for (std::int32_t r : rc.ref_regs) {
    EXPECT_EQ(rc.reg_types[static_cast<std::size_t>(r)], ValType::Ref);
  }
  std::size_t ref_typed = 0;
  for (ValType t : rc.reg_types) {
    if (t == ValType::Ref) ++ref_typed;
  }
  EXPECT_EQ(rc.ref_regs.size(), ref_typed);
}

TEST(RegIr, DisassemblyIsNonEmptyAndNamed) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  const std::string text = regir::to_string(rc);
  EXPECT_NE(text.find("t_divloop"), std::string::npos);
  EXPECT_NE(text.find("div.i4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Inlining / CSE: the structural effects the §5 disassembly study
// would show for the pass mixes of DESIGN.md §5.

/// Caller looping `x = sq(x)` over a one-expression callee.
std::int32_t build_call_loop(Module& mod, std::int32_t* callee_out) {
  ILBuilder sq(mod, "t_sq", {{ValType::I32}, ValType::I32});
  sq.ldarg(0).ldarg(0).mul().ldc_i4(1).add().ret();
  const auto sq_m = sq.finish();
  if (callee_out != nullptr) *callee_out = sq_m;
  ILBuilder b(mod, "t_callloop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto x = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(3).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(x).call(sq_m).stloc(x);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(x).ret();
  return b.finish();
}

TEST(RegIr, InliningRemovesCallSites) {
  VirtualMachine vm;
  const auto m = build_call_loop(vm.module(), nullptr);
  verify(vm.module(), m);
  const RCode on = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);  // inline_calls
  const RCode off = regir::compile(vm.module(), vm.module().method(m),
                                   profiles::sun14().flags);  // no inlining
  EXPECT_EQ(count_op(on, ROp::CALL_R), 0u);
  EXPECT_EQ(count_op(off, ROp::CALL_R), 1u);
  // The callee body is spliced in: the multiply now appears in the caller.
  EXPECT_GE(count_op(on, ROp::MUL_I4), 1u);
  // Every RCode owns its body; only the inlined one was actually expanded.
  ASSERT_NE(on.body, nullptr);
  ASSERT_NE(off.body, nullptr);
  EXPECT_GT(on.body->il_size(), vm.module().method(m).il_size());
  EXPECT_EQ(off.body->il_size(), vm.module().method(m).il_size());
}

TEST(RegIr, InliningRespectsSizeBudget) {
  VirtualMachine vm;
  // A callee bigger than inline_max_il must stay a call.
  ILBuilder big(vm.module(), "t_big", {{ValType::I32}, ValType::I32});
  big.ldarg(0);
  for (int i = 0; i < 40; ++i) big.ldc_i4(i).add();
  big.ret();
  const auto big_m = big.finish();
  ILBuilder b(vm.module(), "t_bigcall", {{ValType::I32}, ValType::I32});
  b.ldarg(0).call(big_m).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags f = profiles::clr11().flags;
  f.inline_max_il = 24;
  const RCode rc = regir::compile(vm.module(), vm.module().method(m), f);
  EXPECT_EQ(count_op(rc, ROp::CALL_R), 1u);
  ASSERT_NE(rc.body, nullptr);
  EXPECT_EQ(rc.body->il_size(), vm.module().method(m).il_size());
}

TEST(RegIr, RecursiveInlineIsBoundedByDepth) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto fib_id = static_cast<std::int32_t>(mod.method_count());
  ILBuilder b(mod, "t_fib", {{ValType::I32}, ValType::I32});
  auto rec = b.new_label();
  b.ldarg(0).ldc_i4(2).bge(rec);
  b.ldarg(0).ret();
  b.bind(rec);
  b.ldarg(0).ldc_i4(1).sub().call(fib_id);
  b.ldarg(0).ldc_i4(2).sub().call(fib_id);
  b.add().ret();
  const auto m = b.finish();
  ASSERT_EQ(m, fib_id);
  verify(mod, m);
  const RCode rc = regir::compile(mod, mod.method(m), profiles::clr11().flags);
  // One level unrolled per round (kInlineDepth rounds): calls remain (the
  // recursion cannot disappear), but the body grew past the original and
  // stays bounded.
  EXPECT_GE(count_op(rc, ROp::CALL_R), 2u);
  EXPECT_LE(rc.code.size(), static_cast<std::size_t>(regir::kInlineTotalIl) * 4u);
}

TEST(RegIr, CseEliminatesDuplicateSubexpressions) {
  VirtualMachine vm;
  // x = (x*x + 3) ^ ((x*x + 3) >> 1): two mul/addi pairs fold to one.
  ILBuilder b(vm.module(), "t_cse", {{ValType::I32}, ValType::I32});
  const auto x = b.add_local(ValType::I32);
  b.ldarg(0).stloc(x);
  b.ldloc(x).ldloc(x).mul().ldc_i4(3).add();
  b.ldloc(x).ldloc(x).mul().ldc_i4(3).add().ldc_i4(1).shr();
  b.xor_().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  EngineFlags off = on;
  off.cse = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  EXPECT_EQ(count_op(a, ROp::MUL_I4), 1u);
  EXPECT_EQ(count_op(c, ROp::MUL_I4), 2u);
  EXPECT_LT(count_op(a, ROp::ADDI_I4), count_op(c, ROp::ADDI_I4));
}

TEST(RegIr, CseDedupsRepeatedElementLoads) {
  VirtualMachine vm;
  // a[0] + a[0]: one checked load feeds both uses under CSE.
  ILBuilder b(vm.module(), "t_cseelem", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32);
  b.add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  on.bounds_check_elim = false;  // isolate CSE's CHK_BOUNDS dedup
  EngineFlags off = on;
  off.cse = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  EXPECT_LT(count_op(a, ROp::CHK_BOUNDS), count_op(c, ROp::CHK_BOUNDS));
  EXPECT_LT(count_op(a, ROp::LDELEM_I4) + count_op(a, ROp::LDELEMU_I4),
            count_op(c, ROp::LDELEM_I4) + count_op(c, ROp::LDELEMU_I4));
}

// ---------------------------------------------------------------------------
// CSE kill semantics: each program repeats an expression after something
// that invalidates the first result, so the repeat must be computed again.
// With `kill` false the invalidating step is left out and the repeat is
// redundant: RegIr.CseRecomputesEveryRepeatAfterItsKill checks CSE tells the
// two apart, and the flag matrix below runs the `kill` forms on every flag
// combination.

/// a = arr[0]; arr[0] = a + 1; return a * 1000 + arr[0]. The store to the
/// same element kills the first load.
std::int32_t build_kill_elem(Module& mod, bool kill) {
  ILBuilder b(mod, "kill_elem", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  const auto a = b.add_local(ValType::I32);
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldloc(arr).ldc_i4(0).ldarg(0).stelem(ValType::I32);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).stloc(a);
  if (kill) {
    b.ldloc(arr).ldc_i4(0).ldloc(a).ldc_i4(1).add().stelem(ValType::I32);
  }
  b.ldloc(a).ldc_i4(1000).mul();
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).add().ret();
  return b.finish();
}

/// a = o.v; set(o, a + 1); return a * 1000 + o.v. The call may write any
/// field, so the second load stays.
std::int32_t build_kill_field_call(Module& mod, bool kill) {
  const auto cls = mod.define_class("kill.Box", {{"v", ValType::I32}});
  ILBuilder set(mod, "kill_box_set",
                {{ValType::Ref, ValType::I32}, ValType::I32});
  set.ldarg(0).ldarg(1).stfld(cls, "v");
  set.ldarg(1).ret();
  const auto setter = set.finish();
  verify(mod, setter);
  ILBuilder b(mod, "kill_field_call", {{ValType::I32}, ValType::I32});
  const auto o = b.add_local(ValType::Ref);
  const auto a = b.add_local(ValType::I32);
  b.newobj(cls).stloc(o);
  b.ldloc(o).ldarg(0).stfld(cls, "v");
  b.ldloc(o).ldfld(cls, "v").stloc(a);
  if (kill) b.ldloc(o).ldloc(a).ldc_i4(1).add().call(setter).pop();
  b.ldloc(a).ldc_i4(1000).mul();
  b.ldloc(o).ldfld(cls, "v").add().ret();
  return b.finish();
}

/// t = h(n) stays on the stack; a = t * 3; t = t + 1 (in place); c = t * 3.
/// The call result has no other name, so the in-place add redefines the
/// very register the first product's key mentions.
std::int32_t build_kill_operand(Module& mod, bool kill) {
  ILBuilder h(mod, "kill_h", {{ValType::I32}, ValType::I32});
  h.ldarg(0).ldc_i4(7).mul().ret();
  const auto hm = h.finish();
  verify(mod, hm);
  ILBuilder b(mod, "kill_operand", {{ValType::I32}, ValType::I32});
  const auto a = b.add_local(ValType::I32);
  const auto c = b.add_local(ValType::I32);
  b.ldarg(0).call(hm);
  b.dup().ldc_i4(3).mul().stloc(a);
  if (kill) b.ldc_i4(1).add();
  b.dup().ldc_i4(3).mul().stloc(c);
  b.pop();
  b.ldloc(a).ldc_i4(10000).mul().ldloc(c).add().ret();
  return b.finish();
}

/// arr = new int[n]; t = last(n) (= n - 1) stays on the stack; r = arr[t];
/// t = t + 1 (in place); r = arr[t], which is out of range: the handler
/// returns -1. The in-place add redefines the register the first check's
/// index names (reached through the local i), so the second check stays.
std::int32_t build_kill_chk(Module& mod, bool kill) {
  ILBuilder last(mod, "kill_last", {{ValType::I32}, ValType::I32});
  last.ldarg(0).ldc_i4(1).sub().ret();
  const auto lm = last.finish();
  verify(mod, lm);
  ILBuilder b(mod, "kill_chk", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  const auto i = b.add_local(ValType::I32);
  const auto r = b.add_local(ValType::I32);
  auto t0 = b.new_label();
  auto t1 = b.new_label();
  auto h = b.new_label();
  auto out = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.bind(t0);
  b.ldarg(0).call(lm);
  b.dup().stloc(i);
  b.ldloc(arr).ldloc(i).ldelem(ValType::I32).stloc(r);
  if (kill) b.ldc_i4(1).add();
  b.dup().stloc(i);
  b.ldloc(arr).ldloc(i).ldelem(ValType::I32).stloc(r);
  b.pop().leave(out);
  b.bind(t1);
  b.add_catch(t0, t1, h, mod.index_range_class());
  b.bind(h);
  b.pop().ldc_i4(-1).stloc(r).leave(out);
  b.bind(out);
  b.ldloc(r).ret();
  return b.finish();
}

/// o.r = o; o.r = new Node; o.r.v = n; return o.r.v. The allocation between
/// the two reference stores may run a GC that clears o's card, so both card
/// marks stay.
std::int32_t build_kill_card(Module& mod, bool kill) {
  const auto cls = mod.define_class(
      "kill.Node", {{"r", ValType::Ref}, {"v", ValType::I32}});
  ILBuilder b(mod, "kill_card", {{ValType::I32}, ValType::I32});
  const auto o = b.add_local(ValType::Ref);
  b.newobj(cls).stloc(o);
  b.ldloc(o).ldloc(o).stfld(cls, "r");
  if (kill) {
    b.ldloc(o).newobj(cls).stfld(cls, "r");
  } else {
    b.ldloc(o).ldloc(o).stfld(cls, "r");
  }
  b.ldloc(o).ldfld(cls, "r").ldarg(0).stfld(cls, "v");
  b.ldloc(o).ldfld(cls, "r").ldfld(cls, "v").ret();
  return b.finish();
}

struct KillCase {
  const char* name;
  std::int32_t (*build)(Module&, bool);
  std::vector<ROp> ops;       // the repeated operation's forms
  std::size_t kept_no_kill;   // how many of `ops` CSE keeps without the kill
  std::int32_t value;         // the `kill` form's result for n = 50
};

const std::vector<KillCase>& kill_cases() {
  static const std::vector<KillCase> cases = {
      {"elem", build_kill_elem, {ROp::LDELEM_I4, ROp::LDELEMU_I4}, 1, 50051},
      {"field_call", build_kill_field_call, {ROp::LDFLD_R}, 1, 50051},
      // The final a * 10000 is one more multiply in both forms.
      {"operand", build_kill_operand, {ROp::MUL_I4, ROp::MULI_I4}, 2,
       10501053},
      {"chk", build_kill_chk, {ROp::CHK_BOUNDS}, 1, -1},
      {"card", build_kill_card, {ROp::CARDMARK}, 1, 50},
  };
  return cases;
}

TEST(RegIr, CseRecomputesEveryRepeatAfterItsKill) {
  // clr11 with BCE off (it would hoist or fuse checks) and inlining off (the
  // calls are the point of two of the programs).
  EngineFlags f = profiles::clr11().flags;
  f.bounds_check_elim = false;
  f.inline_calls = false;
  for (const KillCase& kc : kill_cases()) {
    for (const bool kill : {false, true}) {
      VirtualMachine vm;
      const auto m = kc.build(vm.module(), kill);
      verify(vm.module(), m);
      const RCode rc = regir::compile(vm.module(), vm.module().method(m), f);
      std::size_t kept = 0;
      for (ROp op : kc.ops) kept += count_op(rc, op);
      EXPECT_EQ(kept, kc.kept_no_kill + (kill ? 1 : 0))
          << kc.name << (kill ? " with" : " without") << " the kill";
    }
  }
}

TEST(RegIr, CseKillProgramsComputeTheirValueOnEveryTier) {
  for (const KillCase& kc : kill_cases()) {
    VMFixture f;
    const auto m = kc.build(f.vm.module(), true);
    EXPECT_EQ(f.run_all(m, {Slot::from_i32(50)}).i32, kc.value) << kc.name;
  }
}

// ---------------------------------------------------------------------------
// Pinned IR: a digest of everything the compiler emits for each method of
// the SciMark/JGF boot set under each optimizing profile. A compile-time
// optimization of the passes must leave every digest unchanged; an intended
// IR change re-blesses the table from the failure message.

/// FNV-1a over 64-bit words (fixed width, so the table is host-independent
/// on any two's-complement little- or big-endian machine).
struct IrHash {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(std::int32_t v) { add(static_cast<std::int64_t>(v)); }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) add(static_cast<std::int64_t>(x));
  }
};

std::uint64_t ir_digest(const RCode& rc) {
  IrHash h;
  h.add(static_cast<std::uint64_t>(rc.code.size()));
  for (const RInstr& in : rc.code) {
    h.add(static_cast<std::int32_t>(in.op));
    h.add(static_cast<std::int32_t>(in.flags));
    h.add(in.d);
    h.add(in.a);
    h.add(in.b);
    h.add(in.il_pc);
    h.add(in.imm.i64);
  }
  h.add_all(rc.args_pool);
  h.add_all(rc.ref_regs);
  h.add_all(rc.reg_types);
  h.add_all(rc.il2rpc);
  h.add_all(rc.handler_exc_reg);
  h.add(static_cast<std::uint64_t>(rc.deopt_points.size()));
  for (const RCode::DeoptPoint& dp : rc.deopt_points) {
    h.add(dp.rpc);
    h.add(dp.il_pc);
    h.add_all(dp.stack_regs);
  }
  h.add(static_cast<std::uint64_t>(rc.vec_loops.size()));
  for (const RCode::VecLoop& vl : rc.vec_loops) {
    for (std::int32_t r : {vl.kernel, vl.ivar, vl.limit, vl.limit_arr, vl.arr0,
                           vl.arr1, vl.arr2, vl.acc, vl.s0_reg, vl.s1_reg}) {
      h.add(r);
    }
    h.add(vl.s0_bits);
    h.add(vl.s1_bits);
  }
  h.add(rc.num_regs);
  h.add(rc.slot_regs);
  return h.h;
}

struct PinnedIr {
  const char* profile;
  const char* method;
  std::uint64_t digest;
};

constexpr PinnedIr kPinnedIr[] = {
#include "regir_digests.inc"
};

TEST(RegIr, BootSetIrMatchesPinnedDigests) {
  // The kernels' IL does not depend on the problem size (sizes are call
  // arguments), so one build covers every model the benchmarks run.
  VirtualMachine vm;
  cil::build_sm_fft(vm);
  cil::build_sm_sor(vm);
  cil::build_sm_montecarlo(vm);
  cil::build_sm_sparse(vm);
  cil::build_sm_lu(vm);
  cil::build_jg_fib(vm);
  cil::build_jg_sieve(vm);
  cil::build_jg_hanoi(vm);
  cil::build_jg_heapsort(vm);
  cil::build_jg_crypt(vm);
  Module& mod = vm.module();

  std::map<std::pair<std::string, std::string>, std::uint64_t> want;
  for (const PinnedIr& p : kPinnedIr) want[{p.profile, p.method}] = p.digest;

  std::ostringstream table;
  std::size_t compiled = 0;
  std::size_t mismatched = 0;
  for (const char* base :
       {"clr11", "ibm131", "sun14", "bea81", "jsharp11"}) {
    for (const std::string& name :
         {std::string(base), std::string(base) + ".vec"}) {
      const EngineFlags flags = profiles::by_name(name).flags;
      for (std::size_t i = 0; i < mod.method_count(); ++i) {
        const MethodDef& m = mod.method(static_cast<std::int32_t>(i));
        if (!m.verified) continue;
        const std::uint64_t got =
            ir_digest(regir::compile(mod, m, flags));
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxull",
                      static_cast<unsigned long long>(got));
        table << "{\"" << name << "\", \"" << m.name << "\", " << hex
              << "},\n";
        ++compiled;
        const auto it = want.find({name, m.name});
        if (it == want.end() || it->second != got) {
          ++mismatched;
          ADD_FAILURE() << name << " " << m.name << ": digest " << hex
                        << (it == want.end() ? " (not pinned)" : " changed");
        }
      }
    }
  }
  EXPECT_EQ(compiled, want.size()) << "pinned entries without a method";
  if (mismatched != 0 || compiled != want.size()) {
    ADD_FAILURE() << "If the IR change is intended, replace "
                     "tests/regir_digests.inc with:\n"
                  << table.str();
  }
}

// The same boot set, pinned through the disassembler: one FNV-1a digest of
// `regir::to_string` over every method per profile, so a change to any
// mnemonic, immediate form or operand rendering shows up even when the IR
// bits stay equal.
TEST(RegIr, BootSetDisassemblyMatchesPinnedDigests) {
  VirtualMachine vm;
  cil::build_sm_fft(vm);
  cil::build_sm_sor(vm);
  cil::build_sm_montecarlo(vm);
  cil::build_sm_sparse(vm);
  cil::build_sm_lu(vm);
  cil::build_jg_fib(vm);
  cil::build_jg_sieve(vm);
  cil::build_jg_hanoi(vm);
  cil::build_jg_heapsort(vm);
  cil::build_jg_crypt(vm);
  Module& mod = vm.module();

  const std::map<std::string, std::uint64_t> want = {
      {"clr11", 0xdf5e5176497210c6ull},
      {"clr11.vec", 0x2e12b03c932a501full},
      {"ibm131", 0xfd89625fe033842cull},
      {"ibm131.vec", 0xab90894bb2a16de1ull},
      {"sun14", 0x467270f93a6bd0f6ull},
      {"sun14.vec", 0x467270f93a6bd0f6ull},
      {"bea81", 0x588ec97b8bf952e7ull},
      {"bea81.vec", 0x0755c1f59ca56f7eull},
      {"jsharp11", 0x3d13bc33b045f916ull},
      {"jsharp11.vec", 0x3d13bc33b045f916ull},
  };
  for (const auto& [name, digest] : want) {
    const EngineFlags flags = profiles::by_name(name).flags;
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < mod.method_count(); ++i) {
      const MethodDef& m = mod.method(static_cast<std::int32_t>(i));
      if (!m.verified) continue;
      for (const char c : regir::to_string(regir::compile(mod, m, flags))) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(h));
    EXPECT_EQ(h, digest) << name << ": disassembly digest " << hex;
  }
}

// ---------------------------------------------------------------------------
// Behavioural equivalence: every optimizing flag combination must compute
// exactly what the interpreter computes, over a program mixing arithmetic,
// arrays, calls and branches.

struct FlagCase {
  const char* name;
  EngineFlags flags;
};

std::vector<FlagCase> flag_matrix() {
  std::vector<FlagCase> cases;
  const EngineFlags base = profiles::clr11().flags;
  auto add = [&](const char* name, auto mutate) {
    EngineFlags f = base;
    mutate(f);
    cases.push_back({name, f});
  };
  add("all_on", [](EngineFlags&) {});
  add("no_fusion", [](EngineFlags& f) { f.fuse_cmp_branch = false; });
  add("no_bce", [](EngineFlags& f) { f.bounds_check_elim = false; });
  add("divfuse", [](EngineFlags& f) {
    f.div_imm_fusion = true;
    f.redundant_const_store = false;
  });
  add("limit1", [](EngineFlags& f) { f.enregister_limit = 1; });
  add("limit0_slow_all", [](EngineFlags& f) {
    f.enregister_limit = 0;
    f.fuse_cmp_branch = false;
    f.bounds_check_elim = false;
    f.fast_multidim = false;
    f.fast_math = false;
    f.inline_calls = false;
    f.cse = false;
  });
  add("no_inline", [](EngineFlags& f) { f.inline_calls = false; });
  add("no_cse", [](EngineFlags& f) { f.cse = false; });
  add("vec", [](EngineFlags& f) { f.vectorize = true; });
  add("vec_no_cse", [](EngineFlags& f) {
    f.vectorize = true;
    f.cse = false;
  });
  return cases;
}

class RegIrFlags : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegIrFlags, EveryFlagComboMatchesInterpreter) {
  const FlagCase fc = flag_matrix()[GetParam()];
  VMFixture f;
  Module& mod = f.vm.module();
  // mix(n): arrays, division by constants, shifts, compares, a call.
  ILBuilder helper(mod, "flags_helper", {{ValType::I32}, ValType::I32});
  helper.ldarg(0).ldc_i4(7).mul().ldc_i4(3).div().ret();
  const auto hm = helper.finish();

  ILBuilder b(mod, "flags_mix", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).ldc_i4(5).mul().call(hm).stelem(ValType::I32);
  b.ldloc(acc).ldloc(arr).ldloc(i).ldelem(ValType::I32).add()
      .ldc_i4(3).shl().ldc_i4(2).shr().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(arr).ldlen().blt(top);
  b.ldloc(acc).ret();
  const auto m = b.finish();
  verify(mod, m);

  // Reference result from the interpreter tier.
  const Slot want = f.run_on(2, m, {Slot::from_i32(50)});

  EngineProfile p;
  p.name = std::string("flags.") + fc.name;
  p.tier = Tier::Optimizing;
  p.flags = fc.flags;
  auto engine = make_engine(f.vm, p);
  VMContext& ctx = f.vm.main_context();
  Slot arg = Slot::from_i32(50);
  const Slot got = engine->invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(got.raw, want.raw) << fc.name;

  // Tiered row: same flags under hotness promotion. Every invocation must be
  // bit-identical to the single-tier answer no matter which tier the method
  // (or its callee) happens to run on — including the ones that straddle the
  // interp->baseline and baseline->opt transitions.
  EngineProfile tp = profiles::tiered(p);
  auto tiered_engine = make_engine(f.vm, tp);
  for (int round = 0; round < 80; ++round) {
    const Slot r = tiered_engine->invoke(ctx, m, std::span<const Slot>(&arg, 1));
    EXPECT_EQ(r.raw, want.raw) << fc.name << " tiered round " << round;
  }

  // The CSE kill programs: each repeat after an invalidation must be
  // recomputed, whatever else the flags turn on.
  for (const KillCase& kc : kill_cases()) {
    const auto km = kc.build(mod, true);
    verify(mod, km);
    const Slot kwant = f.run_on(2, km, {Slot::from_i32(50)});
    const Slot kgot = engine->invoke(ctx, km, std::span<const Slot>(&arg, 1));
    EXPECT_EQ(kgot.raw, kwant.raw) << fc.name << " kill_" << kc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RegIrFlags,
    ::testing::Range<std::size_t>(0, flag_matrix().size()));

}  // namespace
}  // namespace hpcnet::test
