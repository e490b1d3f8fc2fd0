// Garbage collector: allocation-triggered collections, liveness through
// locals / fields / statics / arrays, pinning, collection during deep call
// stacks, and GC while multiple managed threads are running.
#include <gtest/gtest.h>

#include "vm/intrinsics.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

TEST(VmGc, AllocationPressureTriggersCollection) {
  VMFixture f;
  f.vm.heap().set_threshold(1 << 16);  // 64 KiB: collect early and often
  Module& mod = f.vm.module();
  // Allocate `n` garbage arrays; keep only the last.
  ILBuilder b(mod, "churn", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto keep = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldc_i4(256).newarr(ValType::F64).stloc(keep);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(keep).ldlen().ret();
  const auto m = b.finish();

  const auto before = f.vm.gc_count();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(5000)}).i32, 256);
  EXPECT_GT(f.vm.gc_count(), before);
  // The garbage must actually have been reclaimed.
  const auto stats = f.vm.heap().stats();
  EXPECT_GT(stats.swept_objects, 1000u);
}

TEST(VmGc, LiveObjectsSurviveThroughLocals) {
  VMFixture f;
  f.vm.heap().set_threshold(1 << 14);
  Module& mod = f.vm.module();
  // Build an array, fill it, churn garbage, then read the array back.
  ILBuilder b(mod, "survive", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  b.ldc_i4(64).newarr(ValType::I32).stloc(arr);
  {
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(0).stloc(i).br(cond);
    b.bind(top);
    b.ldloc(arr).ldloc(i).ldloc(i).ldc_i4(3).mul().stelem(ValType::I32);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldc_i4(64).blt(top);
  }
  {
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(0).stloc(i).br(cond);
    b.bind(top);
    b.ldc_i4(128).newarr(ValType::F64).pop();  // pure garbage
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldarg(0).blt(top);
  }
  b.ldloc(arr).ldc_i4(21).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(3000)}).i32, 63);
}

TEST(VmGc, ReachabilityThroughObjectGraphAndStatics) {
  VMFixture f;
  f.vm.heap().set_threshold(1 << 14);
  Module& mod = f.vm.module();
  const std::int32_t node = mod.define_class(
      "gc.Node", {{"v", ValType::I32}, {"next", ValType::Ref}}, -1,
      {{"root", ValType::Ref}});
  // Build a 50-node list anchored in a static, churn, then walk it.
  ILBuilder b(mod, "gc_static_graph", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto cur = b.add_local(ValType::Ref);
  const auto sum = b.add_local(ValType::I32);
  {
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldnull().stsfld(node, "root");
    b.ldc_i4(0).stloc(i).br(cond);
    b.bind(top);
    b.newobj(node).stloc(cur);
    b.ldloc(cur).ldloc(i).stfld(node, "v");
    b.ldloc(cur).ldsfld(node, "root").stfld(node, "next");
    b.ldloc(cur).stsfld(node, "root");
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldc_i4(50).blt(top);
  }
  {
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(0).stloc(i).br(cond);
    b.bind(top);
    b.ldc_i4(64).newarr(ValType::Ref).pop();
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldarg(0).blt(top);
  }
  {
    auto walk = b.new_label();
    auto done = b.new_label();
    b.ldc_i4(0).stloc(sum);
    b.ldsfld(node, "root").stloc(cur);
    b.bind(walk);
    b.ldloc(cur).brfalse(done);
    b.ldloc(sum).ldloc(cur).ldfld(node, "v").add().stloc(sum);
    b.ldloc(cur).ldfld(node, "next").stloc(cur);
    b.br(walk);
    b.bind(done);
  }
  b.ldloc(sum).ret();
  const auto m = b.finish();
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(4000)}).i32, 49 * 50 / 2);
}

TEST(VmGc, SurvivesCollectionInDeepRecursion) {
  VMFixture f;
  f.vm.heap().set_threshold(1 << 14);
  Module& mod = f.vm.module();
  // rec(n): if n == 0 return 0; a = new i32[8]; a[0] = n;
  //          r = rec(n-1); garbage; return a[0] + r;
  const auto self_id = static_cast<std::int32_t>(mod.method_count());
  ILBuilder b(mod, "gc_rec", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  const auto r = b.add_local(ValType::I32);
  auto nonzero = b.new_label();
  b.ldarg(0).ldc_i4(0).bgt(nonzero);
  b.ldc_i4(0).ret();
  b.bind(nonzero);
  b.ldc_i4(8).newarr(ValType::I32).stloc(arr);
  b.ldloc(arr).ldc_i4(0).ldarg(0).stelem(ValType::I32);
  b.ldarg(0).ldc_i4(1).sub().call(self_id).stloc(r);
  b.ldc_i4(512).newarr(ValType::F64).pop();  // garbage at every level
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ldloc(r).add().ret();
  const auto m = b.finish();
  ASSERT_EQ(m, self_id);
  EXPECT_EQ(f.run_all(m, {Slot::from_i32(300)}).i32, 300 * 301 / 2);
  EXPECT_GT(f.vm.gc_count(), 0u);
}

TEST(VmGc, PinKeepsNativeHeldObjectAlive) {
  VMFixture f;
  f.vm.heap().set_threshold(1 << 14);
  ObjRef s = f.vm.heap().alloc_string("pinned payload");
  f.vm.pin(s);
  // Churn from managed code until several GCs have happened.
  Module& mod = f.vm.module();
  ILBuilder b(mod, "pin_churn", {{}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldc_i4(64).newarr(ValType::I64).pop();
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldc_i4(4000).blt(top);
  b.ldc_i4(0).ret();
  const auto m = b.finish();
  f.run_all(m);
  EXPECT_GT(f.vm.gc_count(), 0u);
  EXPECT_EQ(string_value(s), "pinned payload");
  f.vm.unpin(s);
}

TEST(VmGc, ExplicitCollectViaIntrinsic) {
  VMFixture f;
  Module& mod = f.vm.module();
  ILBuilder b(mod, "gc_explicit", {{}, ValType::I32});
  b.ldc_i4(16).newarr(ValType::I32).pop();
  b.call_intr(vm::I_GC_COLLECT);
  b.ldc_i4(1).ret();
  const auto m = b.finish();
  const auto before = f.vm.gc_count();
  EXPECT_EQ(f.run_all(m).i32, 1);
  EXPECT_GE(f.vm.gc_count(), before + 3);  // one per engine
}

TEST(VmGc, CollectionDuringMultithreadedAllocation) {
  VMFixture f;
  f.vm.heap().set_threshold(1 << 15);
  Module& mod = f.vm.module();
  const std::int32_t box_cls = mod.define_class(
      "gc.MtBox", {{"hits", ValType::I32}});
  // Worker: allocate in a loop, bump arg.hits under the monitor at the end.
  ILBuilder w(mod, "gc_mt_worker", {{ValType::Ref}, ValType::I32});
  {
    const auto i = w.add_local(ValType::I32);
    auto cond = w.new_label();
    auto top = w.new_label();
    w.ldc_i4(0).stloc(i).br(cond);
    w.bind(top);
    w.ldc_i4(128).newarr(ValType::F64).pop();
    w.ldloc(i).ldc_i4(1).add().stloc(i);
    w.bind(cond);
    w.ldloc(i).ldc_i4(2000).blt(top);
    w.ldarg(0).call_intr(vm::I_MON_ENTER);
    w.ldarg(0).ldarg(0).ldfld(box_cls, "hits").ldc_i4(1).add()
        .stfld(box_cls, "hits");
    w.ldarg(0).call_intr(vm::I_MON_EXIT);
    w.ldc_i4(0).ret();
  }
  const auto worker = w.finish();

  ILBuilder b(mod, "gc_mt_main", {{ValType::I32}, ValType::I32});
  {
    const auto t = b.add_local(ValType::I32);
    const auto box = b.add_local(ValType::Ref);
    const auto handles = b.add_local(ValType::Ref);
    b.newobj(box_cls).stloc(box);
    b.ldarg(0).newarr(ValType::Ref).stloc(handles);
    auto c1 = b.new_label();
    auto t1 = b.new_label();
    b.ldc_i4(0).stloc(t).br(c1);
    b.bind(t1);
    b.ldloc(handles).ldloc(t);
    b.ldc_i4(worker).ldloc(box).call_intr(vm::I_THREAD_START);
    b.stelem(ValType::Ref);
    b.ldloc(t).ldc_i4(1).add().stloc(t);
    b.bind(c1);
    b.ldloc(t).ldarg(0).blt(t1);
    auto c2 = b.new_label();
    auto t2 = b.new_label();
    b.ldc_i4(0).stloc(t).br(c2);
    b.bind(t2);
    b.ldloc(handles).ldloc(t).ldelem(ValType::Ref).call_intr(vm::I_THREAD_JOIN);
    b.ldloc(t).ldc_i4(1).add().stloc(t);
    b.bind(c2);
    b.ldloc(t).ldarg(0).blt(t2);
    b.ldloc(box).ldfld(box_cls, "hits").ret();
  }
  const auto m = b.finish();
  verify(mod, m);
  VMContext& ctx = f.vm.main_context();
  for (auto& e : f.engines) {
    ctx.engine = e.get();
    Slot arg = Slot::from_i32(4);
    EXPECT_EQ(e->invoke(ctx, m, std::span<const Slot>(&arg, 1)).i32, 4)
        << e->name();
  }
  EXPECT_GT(f.vm.gc_count(), 0u);
}

// N native threads bump-allocate through their own TLABs across many GC
// cycles; after the threads are joined the heap's census must be *exact*:
// every allocation is accounted, and allocations partition into swept +
// live. This is the structural check that per-thread accounting folds
// correctly at refill, rendezvous and detach.
TEST(VmGc, MultithreadedTlabAllocationCensusStaysExact) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  heap.set_threshold(1 << 16);  // 64 KiB: many collections under the run
  constexpr int kThreads = 8;
  constexpr int kAllocs = 4000;
  constexpr int kPinEvery = 1000;  // 4 survivors per thread
  const auto before = heap.stats();

  std::vector<std::thread> threads;
  std::mutex pinned_mu;
  std::vector<ObjRef> pinned;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&vm, t, &pinned_mu, &pinned] {
      auto ctx = vm.attach_thread(nullptr);
      for (int i = 0; i < kAllocs; ++i) {
        const std::int32_t len = 8 + (i % 57);
        ObjRef a = vm.heap().alloc_array(ValType::I32, len, &ctx->tlab);
        a->i32_data()[0] = t * kAllocs + i;
        if (i % kPinEvery == 0) {
          vm.pin(a);
          std::lock_guard<std::mutex> lock(pinned_mu);
          pinned.push_back(a);
        }
        // Mid-loop safepoint so this thread also parks for others' GCs.
        vm.safepoint_poll(*ctx);
      }
      vm.detach_thread(*ctx);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(vm.gc_count(), 0u);

  vm.collect();  // final collection: only the pinned survivors stay
  const auto after = heap.stats();
  EXPECT_EQ(after.total_allocations - before.total_allocations,
            static_cast<std::size_t>(kThreads) * kAllocs);
  // Allocations partition exactly into swept and live.
  EXPECT_EQ(after.total_allocations - after.swept_objects,
            after.live_objects);
  EXPECT_EQ(after.live_objects,
            static_cast<std::size_t>(kThreads) * (kAllocs / kPinEvery));
  // Survivors' payloads were not clobbered by segment reuse.
  for (ObjRef a : pinned) {
    EXPECT_EQ(a->kind, ObjKind::Array);
    EXPECT_GE(a->length, 8);
    vm.unpin(a);
  }
  vm.collect();
  EXPECT_EQ(heap.stats().live_objects, 0u);
  EXPECT_EQ(heap.stats().total_allocations, heap.stats().swept_objects);
}

// Oversized blocks (> 1/4 segment) bypass TLABs for the large-object list
// and are swept individually; fully-dead segments return to the pool and
// get reused by later refills.
TEST(VmGc, LargeObjectPathAndSegmentPoolReuse) {
  VirtualMachine vm;
  Heap& heap = vm.heap();
  // 4096 doubles = 32 KiB payload: larger than the 16 KiB large threshold.
  ObjRef big = heap.alloc_array(ValType::F64, 4096);
  big->f64_data()[4095] = 2003.0315;
  vm.pin(big);
  EXPECT_EQ(heap.stats().large_objects, 1u);

  // Churn a few segments' worth of small garbage, then collect: the dead
  // segments must be pooled, the pinned large object must survive intact.
  for (int i = 0; i < 2000; ++i) heap.alloc_array(ValType::F64, 32);
  const auto grown = heap.stats();
  EXPECT_GT(grown.segments, 0u);
  vm.collect();
  const auto swept = heap.stats();
  EXPECT_GT(swept.pooled_segments, 0u);
  EXPECT_LT(swept.segments, grown.segments);
  EXPECT_EQ(big->f64_data()[4095], 2003.0315);

  // Refill after the collection reuses pooled segments rather than growing.
  for (int i = 0; i < 2000; ++i) heap.alloc_array(ValType::F64, 32);
  EXPECT_LE(heap.stats().segments + heap.stats().pooled_segments,
            grown.segments + swept.pooled_segments + 1);

  vm.unpin(big);
  vm.collect();
  EXPECT_EQ(heap.stats().large_objects, 0u);
}

// The IL tiers' GC-map rule: an instruction's operands stay on the operand
// stack until it retires, and a ref held below them stays a root while the
// instruction allocates. Each iteration parks a fresh array on the operand
// stack only, under each of the four allocating instructions that consume
// operands (newarr, newmat, an allocating call, box), then files it in a
// result array. With a zero GC threshold every slow-path allocation
// collects. The parked arrays and the newarr/newmat/callee allocations are
// large objects, which always take the slow path; box refills the TLAB that
// the collection at the parked array's own allocation retired. So a
// collection fires at each of the four instructions while the parked array
// is young. Survivors promote, so both minor and major collections run. A
// missed root frees the parked array: the value read back through it and
// the exact census after a final major collection catch that. The second
// call runs clr11.tiered in its promoted tier.
TEST(VmGc, OperandStackRefsSurviveCollectionAtConsumingInstruction) {
  constexpr std::int32_t kIters = 64;
  constexpr std::int32_t kKinds = 4;  // newarr, newmat, call, box
  constexpr std::int32_t kBig = 4096;  // elements: a 16-32 KiB large object
  constexpr int kCalls = 2;
  static const char* const kKindName[kKinds] = {"newarr", "newmat", "call",
                                                "box"};
  std::vector<std::string> names;
  for (const EngineProfile& p : profiles::all()) names.push_back(p.name);
  names.push_back("clr11.tiered");

  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    VirtualMachine vm;
    Module& mod = vm.module();
    ILBuilder a(mod, "gcmap_alloc", {{ValType::I32}, ValType::Ref});
    a.ldarg(0).newarr(ValType::F64).ret();
    const auto alloc = a.finish();

    ILBuilder b(mod, "gcmap", {{}, ValType::Ref});
    const auto i = b.add_local(ValType::I32);
    const auto out = b.add_local(ValType::Ref);
    const auto tmp = b.add_local(ValType::Ref);
    b.ldc_i4(kIters * kKinds).newarr(ValType::Ref).stloc(out);
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(0).stloc(i).br(cond);
    b.bind(top);
    for (std::int32_t k = 0; k < kKinds; ++k) {
      // Stack: [held] with held[0] = i * kKinds + k.
      b.ldc_i4(kBig).newarr(ValType::I32).dup().ldc_i4(0);
      b.ldloc(i).ldc_i4(kKinds).mul().ldc_i4(k).add().stelem(ValType::I32);
      switch (k) {
        case 0: b.ldc_i4(kBig).newarr(ValType::F64); break;
        case 1: b.ldc_i4(64).ldc_i4(64).newmat(ValType::F64); break;
        case 2: b.ldc_i4(kBig).call(alloc); break;
        default: b.ldloc(i).box(ValType::I32); break;
      }
      b.pop().stloc(tmp);
      b.ldloc(out).ldloc(i).ldc_i4(kKinds).mul().ldc_i4(k).add();
      b.ldloc(tmp).stelem(ValType::Ref);
    }
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldc_i4(kIters).blt(top);
    b.ldloc(out).ret();
    const auto m = b.finish();
    verify(mod, m);

    Heap& heap = vm.heap();
    vm.collect();
    const HeapStats before = heap.stats();
    heap.set_threshold(0);
    auto engine = make_engine(vm, profiles::by_name(name));
    VMContext& ctx = vm.main_context();
    ctx.engine = engine.get();
    std::vector<ObjRef> results;
    for (int call = 0; call < kCalls; ++call) {
      ObjRef res = engine->invoke(ctx, m, {}).ref;
      ASSERT_FALSE(ctx.has_pending());
      ASSERT_NE(res, nullptr);
      vm.pin(res);
      results.push_back(res);
    }
    heap.set_threshold(std::size_t{1} << 30);
    const HeapStats during = heap.stats();
    EXPECT_GE(during.collections - before.collections,
              static_cast<std::size_t>(kCalls * kIters * kKinds));
    EXPECT_GT(during.minor_collections, before.minor_collections);
    EXPECT_GT(during.major_collections, before.major_collections);

    for (ObjRef res : results) {
      ASSERT_EQ(res->length, kIters * kKinds);
      for (std::int32_t j = 0; j < kIters * kKinds; ++j) {
        ObjRef held = res->ref_data()[j];
        ASSERT_NE(held, nullptr) << kKindName[j % kKinds] << " #" << j;
        ASSERT_EQ(held->kind, ObjKind::Array)
            << kKindName[j % kKinds] << " #" << j;
        EXPECT_EQ(held->i32_data()[0], j)
            << kKindName[j % kKinds] << " #" << j;
      }
    }
    vm.collect();
    const HeapStats after = heap.stats();
    EXPECT_EQ(after.live_objects,
              before.live_objects + kCalls * (1 + kIters * kKinds));
    EXPECT_EQ(after.total_allocations - after.swept_objects,
              after.live_objects);
    for (ObjRef res : results) vm.unpin(res);
  }
}

TEST(VmGc, HeapStatsTrackLiveBytes) {
  VMFixture f;
  const auto before = f.vm.heap().stats();
  ObjRef a = f.vm.heap().alloc_array(ValType::F64, 1000);
  f.vm.pin(a);
  f.vm.collect();
  const auto after = f.vm.heap().stats();
  EXPECT_GE(after.live_bytes, before.live_bytes + 8000);
  f.vm.unpin(a);
  f.vm.collect();
  EXPECT_LT(f.vm.heap().stats().live_bytes, after.live_bytes);
}

}  // namespace
}  // namespace hpcnet::test
