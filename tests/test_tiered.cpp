// Tiered execution pipeline: hotness-driven promotion through the
// interp -> baseline -> optimizing tiers, the shared per-profile CodeCache,
// and the per-method compile latch. The Concurrent* and Osr* tests are the
// TSan targets for the tier-up path: many threads hitting the first (cold)
// call of the same and of different methods at once, and racing the OSR
// compile of the same loop header.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "vm/engines.hpp"
#include "vm/intrinsics.hpp"
#include "vm/regir.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

/// Straight-line body, long enough (> tiny_method_il) to start in the
/// interpreter: f(x) = ((x*7 + 3) * 5 - x) ^ 2.
std::int32_t build_straightline(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32}, ValType::I32});
  b.ldarg(0).ldc_i4(7).mul().ldc_i4(3).add();
  b.ldc_i4(5).mul().ldarg(0).sub();
  b.ldc_i4(2).xor_().ret();
  return b.finish();
}

/// Loop with `n` back edges: sum of i*i for i in [0, n).
std::int32_t build_loop(Module& mod, const std::string& name) {
  ILBuilder b(mod, name, {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(acc).ldloc(i).ldloc(i).mul().add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(acc).ret();
  return b.finish();
}

/// What build_loop(n) computes, with i32 wrap-around semantics (uint32
/// arithmetic is bit-identical to the VM's two's-complement overflow).
std::int32_t sum_squares(std::int32_t n) {
  std::uint32_t acc = 0;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n); ++i) {
    acc += i * i;
  }
  return static_cast<std::int32_t>(acc);
}

TEST(Tiered, PromotesThroughAllTiersAtThresholds) {
  VirtualMachine vm;
  const auto m = build_straightline(vm.module(), "tier_straight");
  ASSERT_GT(vm.module().method(m).il_size(), std::size_t{8});

  const EngineProfile p = profiles::tiered(profiles::clr11());
  EXPECT_EQ(p.name, "clr11.tiered");
  TieredEngine eng(vm, p);
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(11);
  const std::int32_t want = ((11 * 7 + 3) * 5 - 11) ^ 2;

  for (int call = 1; call <= 70; ++call) {
    const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
    EXPECT_EQ(r.i32, want) << "call " << call;
    const Tier t = eng.method_tier(m);
    if (call < 8) {
      EXPECT_EQ(t, Tier::Interp) << "call " << call;
    } else if (call < 64) {
      EXPECT_EQ(t, Tier::Baseline) << "call " << call;
    } else {
      EXPECT_EQ(t, Tier::Optimizing) << "call " << call;
    }
  }
}

TEST(Tiered, LoopHeavyMethodPromotesAfterOneInvocation) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_loop");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(100);  // 100 back edges >> opt_threshold

  const Slot first = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  // Frame-exit back-edge flush: 1 invocation + capped credit crosses the
  // optimizing threshold, so the SECOND call already runs compiled code.
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
  const Slot second = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(first.raw, second.raw);
  EXPECT_EQ(first.i32, 328350);  // sum i^2, i<100
}

TEST(Tiered, TinyMethodSkipsStraightToBaseline) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "tier_tiny", {{ValType::I32}, ValType::I32});
  b.ldarg(0).ldc_i4(1).add().ret();  // 4 instructions <= tiny_method_il
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(41);
  EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 42);
  EXPECT_EQ(eng.method_tier(m), Tier::Baseline);
}

TEST(Tiered, InterpOnlyPolicyNeverPromotes) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_rotor");
  const EngineProfile p = profiles::tiered(profiles::rotor10());
  EXPECT_EQ(p.tiering.max_tier, Tier::Interp);
  TieredEngine eng(vm, p);
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(50);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 40425);
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Interp);
}

TEST(Tiered, BaselinePolicyCapsBelowOptimizing) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_mono");
  const EngineProfile p = profiles::tiered(profiles::mono023());
  EXPECT_EQ(p.tiering.max_tier, Tier::Baseline);
  TieredEngine eng(vm, p);
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(50);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 40425);
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Baseline);
}

TEST(Tiered, SingleModeRunsProfileTierImmediately) {
  VirtualMachine vm;
  const auto m = build_straightline(vm.module(), "tier_single");
  TieredEngine eng(vm, profiles::clr11());  // TierMode::Single
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(11);
  eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);  // compiled on first call
}

TEST(Tiered, ExceptionsPropagateAcrossPromotionBoundaries) {
  VirtualMachine vm;
  Module& mod = vm.module();
  // throws_on_zero(x): x == 0 ? throw : 1000 / x.
  ILBuilder b(mod, "tier_thrower", {{ValType::I32}, ValType::I32});
  auto ok = b.new_label();
  b.ldarg(0).ldc_i4(0).bne(ok);
  b.newobj(mod.exception_class()).throw_();
  b.bind(ok);
  b.ldc_i4(1000).ldarg(0).div().ret();
  const auto m = b.finish();

  TieredEngine single(vm, profiles::clr11());
  TieredEngine tiered(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot good = Slot::from_i32(8);
  Slot bad = Slot::from_i32(0);

  const Slot want = single.invoke(ctx, m, std::span<const Slot>(&good, 1));
  // Interleave throwing and normal calls through every tier transition; the
  // hotness counter keeps advancing on throwing frames too, so promotion
  // happens mid-sequence while exceptional control flow is in play.
  for (int call = 1; call <= 80; ++call) {
    if (call % 3 == 0) {
      EXPECT_THROW(tiered.invoke(ctx, m, std::span<const Slot>(&bad, 1)),
                   ManagedException)
          << "call " << call;
    } else {
      const Slot r = tiered.invoke(ctx, m, std::span<const Slot>(&good, 1));
      EXPECT_EQ(r.raw, want.raw) << "call " << call;
    }
  }
  EXPECT_EQ(tiered.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, ConcurrentFirstCallsSameMethod) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_race_same");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));

  // Every thread races through the cold -> hot window of ONE method: the
  // promotions and the optimizing compile must happen exactly once each and
  // publish safely to readers that never take the latch.
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(60);
      for (int i = 0; i < 100; ++i) {
        const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
        if (r.i32 != 70210) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, ConcurrentFirstCallsDifferentMethods) {
  VirtualMachine vm;
  // One method per thread, all cold: distinct methods must verify and
  // compile concurrently (per-method latches, no cache-wide serialization).
  constexpr int kThreads = 8;
  std::vector<std::int32_t> methods;
  methods.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    methods.push_back(
        build_loop(vm.module(), "tier_race_" + std::to_string(t)));
  }
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(60);
      for (int i = 0; i < 100; ++i) {
        const Slot r =
            eng.invoke(*ctx, methods[static_cast<std::size_t>(t)],
                       std::span<const Slot>(&arg, 1));
        if (r.i32 != 70210) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  for (std::int32_t m : methods) {
    EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
  }
}

TEST(Tiered, ConcurrentEnginesShareOnlyTheVerifyCache) {
  // Two engines (different profiles -> different code caches) exercising the
  // same cold methods: verification state is VM-shared, compiled code is
  // not, and neither may race on the MethodDef.
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_two_engines");
  TieredEngine a(vm, profiles::tiered(profiles::clr11()));
  TieredEngine b(vm, profiles::tiered(profiles::ibm131()));

  std::atomic<int> wrong{0};
  auto hammer = [&](TieredEngine& eng) {
    auto ctx = vm.attach_thread(&eng);
    Slot arg = Slot::from_i32(60);
    for (int i = 0; i < 100; ++i) {
      const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
      if (r.i32 != 70210) wrong.fetch_add(1);
    }
    vm.detach_thread(*ctx);
  };
  std::thread t1([&] { hammer(a); });
  std::thread t2([&] { hammer(b); });
  t1.join();
  t2.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Tiered, ManagedThreadOnPartiallyPromotedMethod) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const std::int32_t cls = mod.define_class("tier.Cell", {{"v", ValType::I32}});

  // Worker runs a loop (promotes fast) and stores the result in the cell.
  ILBuilder w(mod, "tier_t_worker", {{ValType::Ref}, ValType::I32});
  const auto i = w.add_local(ValType::I32);
  const auto acc = w.add_local(ValType::I32);
  auto cond = w.new_label();
  auto top = w.new_label();
  w.ldc_i4(0).stloc(i).br(cond);
  w.bind(top);
  w.ldloc(acc).ldloc(i).add().stloc(acc);
  w.ldloc(i).ldc_i4(1).add().stloc(i);
  w.bind(cond);
  w.ldloc(i).ldc_i4(100).blt(top);
  w.ldarg(0).ldloc(acc).stfld(cls, "v");
  w.ldc_i4(0).ret();
  const auto worker = w.finish();

  ILBuilder b(mod, "tier_t_main", {{}, ValType::I32});
  const auto cell = b.add_local(ValType::Ref);
  const auto h = b.add_local(ValType::Ref);
  b.newobj(cls).stloc(cell);
  b.ldc_i4(worker).ldloc(cell).call_intr(vm::I_THREAD_START).stloc(h);
  b.ldloc(h).call_intr(vm::I_THREAD_JOIN);
  b.ldloc(cell).ldfld(cls, "v").ret();
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  // Each round spawns a managed thread onto the engine while the worker (and
  // the spawner) sit at a different point of the promotion ladder.
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(eng.invoke(ctx, m, {}).i32, 4950) << "round " << round;
  }
  EXPECT_EQ(eng.method_tier(worker), Tier::Optimizing);
}

TEST(Tiered, TelemetryCountsTierUpsAndZeroDeopts) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  if (!telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "tier_telemetry");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();

  telemetry::set_enabled(true);
  telemetry::reset();
  Slot arg = Slot::from_i32(100);
  for (int i = 0; i < 4; ++i) {
    eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  }
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  // interp (cold call) -> optimizing via back-edge credit: one promotion and
  // no deopt. 100 back edges per frame stays below the OSR trigger and
  // nothing requests a deoptimization here, so Deopts must read zero — the
  // counter is live (see the Osr* tests), not structurally dead.
  EXPECT_GE(snap.counter(telemetry::Counter::TierUps), 1u);
  EXPECT_EQ(snap.counter(telemetry::Counter::Deopts), 0u);

  const telemetry::MethodProfile* prof = snap.method(m);
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->invocations, 4u);
  EXPECT_EQ(prof->tier_invocations[0], 1u);  // the cold interp call
  EXPECT_EQ(prof->tier_invocations[2], 3u);  // the rest ran compiled
  bool saw_tier_event = false;
  for (const auto& ev : snap.events) {
    if (std::string(ev.cat) == "tier") saw_tier_event = true;
  }
  EXPECT_TRUE(saw_tier_event);
}

// ---------------------------------------------------------------------------
// On-stack replacement and deoptimization.

TEST(Tiered, OsrPromotesWithinSingleInvocation) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  if (!telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "osr_single_shot");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();

  telemetry::reset();
  // One cold call whose frame alone crosses osr_backedge_trigger many times
  // over: promotion may not wait for the invocation boundary.
  Slot arg = Slot::from_i32(200'000);
  const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_EQ(r.i32, sum_squares(200'000));
  EXPECT_GE(snap.counter(telemetry::Counter::OsrEntries), 1u);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
  const telemetry::MethodProfile* prof = snap.method(m);
  ASSERT_NE(prof, nullptr);
  // The OSR continuation runs on the optimizing backend within the same
  // logical call, so the compiled tier shows an invocation too.
  EXPECT_GE(prof->tier_invocations[2], 1u);
}

TEST(Tiered, OsrWithLiveOperandStack) {
  namespace telemetry = hpcnet::vm::telemetry;
  VirtualMachine vm;
  // sum i for i in [0, n) with the accumulator LIVE ON THE OPERAND STACK
  // across the back edge — OSR must carry the stack, not just the locals.
  ILBuilder b(vm.module(), "osr_stack_loop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  auto top = b.new_label();
  b.ldc_i4(0);  // the accumulator; never touches a local
  b.bind(top);
  b.ldloc(i).add();
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.ldloc(i).ldarg(0).blt(top);
  b.ret();
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  telemetry::set_enabled(true);
  const bool have_telemetry = telemetry::enabled();
  telemetry::reset();
  Slot arg = Slot::from_i32(20'000);
  const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_EQ(r.i32, 20'000 * 19'999 / 2);
  if (have_telemetry) {
    EXPECT_GE(snap.counter(telemetry::Counter::OsrEntries), 1u);
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, OsrInsideTryFinally) {
  VirtualMachine vm;
  // The hot loop lives inside a protected region whose finally adjusts the
  // result on the way out: the OSR continuation must keep the handler table
  // (shifted to the new pcs) so the compiled code still runs the finally.
  ILBuilder b(vm.module(), "osr_finally_loop",
              {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto try_begin = b.new_label();
  auto try_end = b.new_label();
  auto handler = b.new_label();
  auto done = b.new_label();
  auto top = b.new_label();
  b.bind(try_begin);
  b.bind(top);
  b.ldloc(acc).ldloc(i).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.ldloc(i).ldarg(0).blt(top);
  b.leave(done);
  b.bind(try_end);
  b.bind(handler);
  b.ldloc(acc).ldc_i4(1'000'000).add().stloc(acc);
  b.endfinally();
  b.bind(done);
  b.ldloc(acc).ret();
  b.add_finally(try_begin, try_end, handler);
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(20'000);
  const Slot r = eng.invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(r.i32, 20'000 * 19'999 / 2 + 1'000'000);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, HotLoopExitingViaThrowStillPromotes) {
  VirtualMachine vm;
  Module& mod = vm.module();
  // The frame NEVER returns normally: it loops `arg` times and then throws.
  // Its back-edge credit must survive the unwind, or the method stays cold
  // forever no matter how hot the loop is.
  ILBuilder b(mod, "osr_throw_exit", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(acc).ldloc(i).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.newobj(mod.exception_class()).throw_();
  const auto m = b.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  Slot arg = Slot::from_i32(100);  // 100 back edges >> opt_threshold credit
  for (int call = 0; call < 3; ++call) {
    EXPECT_THROW(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)),
                 ManagedException)
        << "call " << call;
  }
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, SaturatingHotnessAtWrapBoundary) {
  VirtualMachine vm;
  const auto m = build_straightline(vm.module(), "osr_hot_wrap");
  TieredEngine eng(vm, profiles::tiered(profiles::mono023()));
  VMContext& ctx = vm.main_context();

  // Pre-cook the counter to the top of the u32 range: the next bump must
  // saturate, not wrap to zero (which would reset the method to ice cold).
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  eng.code_entry(m).hotness.store(kMax);
  Slot arg = Slot::from_i32(11);
  const std::int32_t want = ((11 * 7 + 3) * 5 - 11) ^ 2;
  EXPECT_EQ(eng.invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, want);
  EXPECT_EQ(eng.code_entry(m).hotness.load(), kMax);
  EXPECT_EQ(eng.method_tier(m), Tier::Baseline);  // mono caps at baseline
}

TEST(Tiered, SingleModeConcurrentFirstCall) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  if (!telemetry::enabled()) {
    GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  }
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "single_mode_race");
  TieredEngine eng(vm, profiles::clr11());  // TierMode::Single
  telemetry::reset();

  // Single mode compiles on first call; when eight threads deliver that
  // first call at once, the per-method latch must admit exactly one compile
  // and everyone else must wait for the published code — never run a
  // half-built body and never compile twice.
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(60);
      for (int i = 0; i < 10; ++i) {
        const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
        if (r.i32 != 70210) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_EQ(wrong.load(), 0);
  const telemetry::EngineJitTimes* jit = snap.engine_jit("clr11");
  ASSERT_NE(jit, nullptr);
  EXPECT_EQ(jit->methods_compiled, 1u);
}

TEST(Tiered, ConcurrentOsrSameLoop) {
  VirtualMachine vm;
  const auto m = build_loop(vm.module(), "osr_race");
  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));

  // Two cold frames cross the OSR trigger at the same loop header at nearly
  // the same moment: the continuation build + compile must be latched like
  // any other compile, and both frames must resume with the right state.
  constexpr int kThreads = 2;
  const std::int32_t want = sum_squares(20'000);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto ctx = vm.attach_thread(&eng);
      Slot arg = Slot::from_i32(20'000);
      for (int i = 0; i < 3; ++i) {
        const Slot r = eng.invoke(*ctx, m, std::span<const Slot>(&arg, 1));
        if (r.i32 != want) wrong.fetch_add(1);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing);
}

TEST(Tiered, DeoptThenReOsrRoundTrip) {
  namespace telemetry = hpcnet::vm::telemetry;
  telemetry::set_enabled(true);
  // Progress is observed through code-cache atomics, so the round trip runs
  // even in HPCNET_TELEMETRY=OFF builds; only the counter cross-check at the
  // end needs the sinks.
  const bool have_telemetry = telemetry::enabled();
  VirtualMachine vm;
  Module& mod = vm.module();
  const std::int32_t cls = mod.define_class("osr.Flag", {{"stop", ValType::I32}});

  // Worker: spin until flag.stop != 0, counting iterations. The loop is
  // unbounded, so the TEST decides how long each execution tier stays
  // resident — no timing-dependent trip counts. The flag is read and
  // written under the cell's monitor to keep the test TSan-clean.
  ILBuilder w(mod, "osr_deopt_worker", {{ValType::Ref}, ValType::I32});
  const auto n = w.add_local(ValType::I32);
  auto top = w.new_label();
  w.bind(top);
  w.ldloc(n).ldc_i4(1).add().stloc(n);
  w.ldarg(0).call_intr(I_MON_ENTER);
  w.ldarg(0).ldfld(cls, "stop");
  w.ldarg(0).call_intr(I_MON_EXIT);
  w.brfalse(top);
  w.ldloc(n).ret();
  const auto worker = w.finish();

  ILBuilder s(mod, "osr_deopt_stop", {{ValType::Ref}, ValType::I32});
  s.ldarg(0).call_intr(I_MON_ENTER);
  s.ldarg(0).ldc_i4(1).stfld(cls, "stop");
  s.ldarg(0).call_intr(I_MON_EXIT);
  s.ldc_i4(0).ret();
  const auto stop = s.finish();

  ILBuilder c(mod, "osr_deopt_cell", {{}, ValType::Ref});
  c.newobj(cls).ret();
  const auto make_cell = c.finish();

  TieredEngine eng(vm, profiles::tiered(profiles::clr11()));
  VMContext& ctx = vm.main_context();
  telemetry::reset();
  const Slot cell = eng.invoke(ctx, make_cell, {});

  Slot result = Slot::from_i32(0);
  std::thread t([&] {
    auto wctx = vm.attach_thread(&eng);
    Slot a = cell;
    result = eng.invoke(*wctx, worker, std::span<const Slot>(&a, 1));
    vm.detach_thread(*wctx);
  });

  // Mid-run progress is observed through the code-cache entry's atomic
  // osr_entries/deopts counters; the thread-local telemetry sinks only merge
  // safely once the worker quiesces, so the snapshot waits for the join.
  CodeCache::Entry& entry = eng.code_entry(worker);
  auto wait_for = [](std::atomic<std::uint32_t>& ctr, std::uint32_t min) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      if (ctr.load(std::memory_order_relaxed) >= min) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  // 1. The spinning frame crosses the trigger and OSR-enters compiled code.
  const bool osr1 = wait_for(entry.osr_entries, 1);
  bool deopted = false;
  bool osr2 = false;
  if (osr1) {
    // 2. Invalidate: the running compiled frame must bail to the
    //    interpreter at its next back-edge safepoint. A request that lands
    //    in the sliver between the osr_entries bump and the frame snapping
    //    its generation at entry is invisible to that frame, so keep
    //    re-requesting until a bail is observed.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      eng.request_deopt(worker);
      if (entry.deopts.load(std::memory_order_relaxed) >= 1) {
        deopted = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // 3. The interpreter continuation is the same hot loop, so it re-arms and
  //    OSR-enters freshly compiled code again — the full round trip.
  if (deopted) osr2 = wait_for(entry.osr_entries, 2);

  Slot a = cell;
  eng.invoke(ctx, stop, std::span<const Slot>(&a, 1));
  t.join();
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::set_enabled(false);

  EXPECT_TRUE(osr1) << "hot loop never OSR-promoted";
  EXPECT_TRUE(deopted) << "compiled frame never bailed after request_deopt";
  EXPECT_TRUE(osr2) << "deopted loop never re-entered compiled code";
  if (have_telemetry) {
    EXPECT_GE(snap.counter(telemetry::Counter::OsrEntries), 2u);
    EXPECT_GE(snap.counter(telemetry::Counter::Deopts), 1u);
  }
  EXPECT_GE(result.i32, 1);
  // The deopt zeroed the hotness, but the frame-exit back-edge flush from
  // the interpreter continuation re-promotes the method.
  EXPECT_EQ(eng.method_tier(worker), Tier::Optimizing);
}

// The optimizing tier's rarely taken dispatch paths, all in one method: a
// caught throw out of a checked ldelem, a leave through a finally, fused
// JLT_LEN back edges under a fuel budget that runs out mid-loop and, under
// the tiered pipeline, a request_deopt bailout at a back edge. The result,
// the exception class and the fuel spent must match the interpreter.
struct DispatchPaths {
  std::int32_t paths = -1;       // paths(len, cell) -> i32
  std::int32_t make_cell = -1;   // () -> cell
  std::int32_t wait_ready = -1;  // (cell): blocks until paths holds the cell
  std::int32_t release = -1;     // (cell): lets paths continue

  /// paths(len, cell):
  ///   arr = new int[len]; for (i = 0; i < arr.Length; ++i) arr[i] = i * 7;
  ///   try { acc += arr[len]; } catch (IndexOutOfRange) { acc += 100; }
  ///   try { acc += 1; } finally { acc *= 2; }
  ///   if (cell != null) lock (cell) {
  ///     cell.ready = 1; PulseAll(cell); while (cell.go == 0) Wait(cell);
  ///   }
  ///   for (i = 0; i < arr.Length; ++i) acc += arr[i] ^ i;
  ///   return acc;
  explicit DispatchPaths(Module& mod) {
    const std::int32_t cls = mod.define_class(
        "paths.Cell", {{"ready", ValType::I32}, {"go", ValType::I32}});
    ILBuilder b(mod, "paths", {{ValType::I32, ValType::Ref}, ValType::I32});
    const auto arr = b.add_local(ValType::Ref);
    const auto i = b.add_local(ValType::I32);
    const auto acc = b.add_local(ValType::I32);
    auto fill_top = b.new_label();
    auto fill_cond = b.new_label();
    b.ldarg(0).newarr(ValType::I32).stloc(arr);
    b.ldc_i4(0).stloc(i).br(fill_cond);
    b.bind(fill_top);
    b.ldloc(arr).ldloc(i).ldloc(i).ldc_i4(7).mul().stelem(ValType::I32);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(fill_cond);
    b.ldloc(i).ldloc(arr).ldlen().blt(fill_top);

    auto c0 = b.new_label();
    auto c1 = b.new_label();
    auto catch_h = b.new_label();
    auto after_catch = b.new_label();
    b.bind(c0);
    b.ldloc(acc).ldloc(arr).ldarg(0).ldelem(ValType::I32).add().stloc(acc);
    b.leave(after_catch);
    b.bind(c1);
    b.bind(catch_h);
    b.pop().ldloc(acc).ldc_i4(100).add().stloc(acc).leave(after_catch);
    b.add_catch(c0, c1, catch_h, mod.index_range_class());
    b.bind(after_catch);

    auto f0 = b.new_label();
    auto f1 = b.new_label();
    auto fin = b.new_label();
    auto after_finally = b.new_label();
    b.bind(f0);
    b.ldloc(acc).ldc_i4(1).add().stloc(acc).leave(after_finally);
    b.bind(f1);
    b.bind(fin);
    b.ldloc(acc).ldc_i4(2).mul().stloc(acc).endfinally();
    b.add_finally(f0, f1, fin);
    b.bind(after_finally);

    auto no_cell = b.new_label();
    auto wait_top = b.new_label();
    auto wait_cond = b.new_label();
    b.ldarg(1).brfalse(no_cell);
    b.ldarg(1).call_intr(I_MON_ENTER);
    b.ldarg(1).ldc_i4(1).stfld(cls, "ready");
    b.ldarg(1).call_intr(I_MON_PULSEALL);
    b.br(wait_cond);
    b.bind(wait_top);
    b.ldarg(1).call_intr(I_MON_WAIT);
    b.bind(wait_cond);
    b.ldarg(1).ldfld(cls, "go").brfalse(wait_top);
    b.ldarg(1).call_intr(I_MON_EXIT);
    b.bind(no_cell);

    auto sum_top = b.new_label();
    auto sum_cond = b.new_label();
    b.ldc_i4(0).stloc(i).br(sum_cond);
    b.bind(sum_top);
    b.ldloc(acc).ldloc(arr).ldloc(i).ldelem(ValType::I32).ldloc(i).xor_();
    b.add().stloc(acc);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(sum_cond);
    b.ldloc(i).ldloc(arr).ldlen().blt(sum_top);
    b.ldloc(acc).ret();
    paths = b.finish();

    ILBuilder c(mod, "paths.cell", {{}, ValType::Ref});
    c.newobj(cls).ret();
    make_cell = c.finish();

    ILBuilder w(mod, "paths.wait_ready", {{ValType::Ref}, ValType::I32});
    auto w_top = w.new_label();
    auto w_cond = w.new_label();
    w.ldarg(0).call_intr(I_MON_ENTER).br(w_cond);
    w.bind(w_top);
    w.ldarg(0).call_intr(I_MON_WAIT);
    w.bind(w_cond);
    w.ldarg(0).ldfld(cls, "ready").brfalse(w_top);
    w.ldarg(0).call_intr(I_MON_EXIT);
    w.ldc_i4(0).ret();
    wait_ready = w.finish();

    ILBuilder r(mod, "paths.release", {{ValType::Ref}, ValType::I32});
    r.ldarg(0).call_intr(I_MON_ENTER);
    r.ldarg(0).ldc_i4(1).stfld(cls, "go");
    r.ldarg(0).call_intr(I_MON_PULSEALL);
    r.ldarg(0).call_intr(I_MON_EXIT);
    r.ldc_i4(0).ret();
    release = r.finish();
  }
};

/// What paths(len, cell) returns, with i32 wrap-around semantics.
std::int32_t dispatch_paths_result(std::int32_t len) {
  std::uint32_t acc = (100u + 1u) * 2u;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(len); ++i) {
    acc += (i * 7u) ^ i;
  }
  return static_cast<std::int32_t>(acc);
}

struct PathsOutcome {
  std::int32_t plain = 0;       // warmed call, no cell, no budget
  std::string fuel_exception;   // class of the budgeted call's exception
  std::uint64_t fuel_spent = 0;
  std::int32_t handshake = 0;   // call that waits on the cell mid-frame
  std::uint32_t deopts = 0;     // bailouts recorded for `paths`
  std::vector<regir::ROp> ops;  // the compiled body (optimizing tier only)
};

PathsOutcome run_dispatch_paths(const char* profile) {
  constexpr std::int32_t kLen = 4000;
  // Runs out in the second JLT_LEN loop: the fill loop takes kLen - 1 back
  // edges, and the budget lands mid-way through the sum loop.
  constexpr std::int64_t kFuel = 6000;
  VirtualMachine vm;
  const DispatchPaths ids(vm.module());
  TieredEngine eng(vm, profiles::by_name(profile));
  VMContext& ctx = vm.main_context();
  PathsOutcome out;
  auto call = [&](std::int32_t len, Slot cell) {
    const Slot args[] = {Slot::from_i32(len), cell};
    return eng.invoke(ctx, ids.paths, args).i32;
  };

  // Warm past the tiering thresholds so the rest runs published code.
  for (int k = 0; k < 100; ++k) out.plain = call(16, Slot::from_ref(nullptr));
  if (profiles::by_name(profile).tier != Tier::Interp) {
    EXPECT_EQ(eng.method_tier(ids.paths), Tier::Optimizing) << profile;
    const regir::RCode* rc = eng.opt_code_for_call(ids.paths);
    if (rc != nullptr) {
      for (const regir::RInstr& in : rc->code) out.ops.push_back(in.op);
    }
  }

  ctx.fuel.active = true;
  ctx.fuel.remaining = kFuel;
  ctx.fuel.spent = 0;
  try {
    call(kLen, Slot::from_ref(nullptr));
  } catch (const ManagedException& e) {
    out.fuel_exception = e.class_name();
  }
  out.fuel_spent = ctx.fuel.spent;
  ctx.fuel = FuelMeter{};

  // The frame takes the cell's monitor, announces itself and waits; the
  // helper sees it waiting, requests the deopt (tiered only: a Single-mode
  // frame has no side table to bail through) and lets it go. The next taken
  // back edge then bails out to the interpreter.
  const Slot cell = eng.invoke(ctx, ids.make_cell, {});
  std::thread helper([&] {
    auto hctx = vm.attach_thread(&eng);
    Slot a = cell;
    eng.invoke(*hctx, ids.wait_ready, std::span<const Slot>(&a, 1));
    if (eng.tiered()) eng.request_deopt(ids.paths);
    eng.invoke(*hctx, ids.release, std::span<const Slot>(&a, 1));
    vm.detach_thread(*hctx);
  });
  out.handshake = call(kLen, cell);
  helper.join();
  out.deopts = eng.code_entry(ids.paths).deopts.load();
  return out;
}

class OptimizingDispatchPaths : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizingDispatchPaths, MatchInterpreter) {
  const PathsOutcome want = run_dispatch_paths("rotor10");
  EXPECT_EQ(want.plain, dispatch_paths_result(16));
  EXPECT_EQ(want.handshake, dispatch_paths_result(4000));
  EXPECT_EQ(want.fuel_exception, "HPCNet.FuelExhaustedException");

  const PathsOutcome got = run_dispatch_paths(GetParam());
  EXPECT_EQ(got.plain, want.plain);
  EXPECT_EQ(got.fuel_exception, want.fuel_exception);
  EXPECT_EQ(got.fuel_spent, want.fuel_spent);
  EXPECT_EQ(got.handshake, want.handshake);
  // The compiled body really contains the paths under test. A checked
  // ldelem compiles to CHK_BOUNDS plus an unchecked load; the throw comes
  // out of the CHK_BOUNDS handler.
  auto has = [&](regir::ROp op) {
    return std::find(got.ops.begin(), got.ops.end(), op) != got.ops.end();
  };
  EXPECT_TRUE(has(regir::ROp::CHK_BOUNDS));
  EXPECT_TRUE(has(regir::ROp::LEAVE_R));
  EXPECT_TRUE(has(regir::ROp::ENDFINALLY_R));
  EXPECT_TRUE(has(regir::ROp::JLT_LEN));
  if (profiles::by_name(GetParam()).tiering.mode == TierMode::Tiered) {
    EXPECT_GE(got.deopts, 1u) << "the compiled frame never bailed out";
  } else {
    EXPECT_EQ(got.deopts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Clr11, OptimizingDispatchPaths,
                         ::testing::Values("clr11", "clr11.tiered"));

TEST(Tiered, TieredProfileNamesResolveViaByName) {
  const EngineProfile p = profiles::by_name("mono023.tiered");
  EXPECT_EQ(p.name, "mono023.tiered");
  EXPECT_EQ(p.tiering.mode, TierMode::Tiered);
  EXPECT_EQ(p.tiering.max_tier, Tier::Baseline);
  EXPECT_THROW(profiles::by_name("nosuch.tiered"), std::invalid_argument);
}

}  // namespace
}  // namespace hpcnet::test
