// Shared helpers for VM tests: run the same IL on every engine tier and
// check the results agree — the paper's core invariant (one compiler output,
// many runtimes, identical results).
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "vm/execution.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/verifier.hpp"

namespace hpcnet::test {

using namespace hpcnet::vm;

/// The three tiers under their flagship profiles.
inline std::vector<EngineProfile> tier_profiles() {
  return {profiles::clr11(), profiles::mono023(), profiles::rotor10()};
}

/// A VM plus one engine of each tier, with a context for the calling thread.
struct VMFixture {
  VirtualMachine vm;
  std::vector<std::unique_ptr<Engine>> engines;

  VMFixture() {
    for (const auto& p : tier_profiles()) {
      engines.push_back(make_engine(vm, p));
    }
  }

  /// Invokes `method` with `args` on every engine and requires identical raw
  /// results; returns the common result.
  Slot run_all(std::int32_t method, std::vector<Slot> args = {}) {
    verify(vm.module(), method);
    VMContext& ctx = vm.main_context();
    bool first = true;
    Slot out;
    for (auto& e : engines) {
      ctx.engine = e.get();
      Slot r = e->invoke(ctx, method, args);
      if (first) {
        out = r;
        first = false;
      } else {
        EXPECT_EQ(out.raw, r.raw)
            << "engine " << e->name() << " disagrees on "
            << vm.module().method(method).name;
      }
    }
    return out;
  }

  /// Invokes on one engine by tier index (0=opt, 1=baseline, 2=interp).
  Slot run_on(std::size_t engine_idx, std::int32_t method,
              std::vector<Slot> args = {}) {
    verify(vm.module(), method);
    VMContext& ctx = vm.main_context();
    ctx.engine = engines[engine_idx].get();
    return engines[engine_idx]->invoke(ctx, method, args);
  }
};

/// depth(n) = n == 0 ? 0 : depth(n - 1) + 1 over a 30000-local frame: a
/// deep call exhausts the 16 MB frame arena a few dozen frames down (well
/// before the native stack, even in sanitizer builds), which throws
/// std::runtime_error("managed stack overflow") — a native C++ unwind
/// through every managed frame on the way.
inline std::int32_t build_deep_recursion(Module& mod) {
  ILBuilder b(mod, "deep_recursion", {{ValType::I32}, ValType::I32});
  const auto self = static_cast<std::int32_t>(mod.method_count());
  for (int i = 0; i < 30000; ++i) b.add_local(ValType::I32);
  auto recurse = b.new_label();
  b.ldarg(0).brtrue(recurse);
  b.ldc_i4(0).ret();
  b.bind(recurse);
  b.ldarg(0).ldc_i4(1).sub().call(self).ldc_i4(1).add().ret();
  return b.finish();
}

}  // namespace hpcnet::test
