#include "programs.hpp"

#include <map>

#include "cil/jg.hpp"
#include "cil/sm.hpp"
#include "cil/suite.hpp"
#include "kernels/jgf.hpp"
#include "kernels/scimark.hpp"
#include "vm/regcompile.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/verifier.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
namespace kn = hpcnet::kernels;
using vm::Slot;
using vm::ValType;

namespace {

struct JgfSizes {
  int fib, sieve, hanoi, heapsort, crypt;
};

void add_scimark(std::vector<Kernel>& out, const hpcnet::cil::ScimarkSizes& s,
                 const char* suffix) {
  const std::string sfx = suffix;
  out.push_back({"fft" + sfx, true, hpcnet::cil::build_sm_fft,
                 {Slot::from_i32(s.fft_n), Slot::from_i32(s.fft_cycles)},
                 2.0 * kn::fft::num_flops(s.fft_n) * s.fft_cycles, ValType::F64,
                 [s] { return Slot::from_f64(kn::fft::roundtrip_checksum(
                           s.fft_n, s.fft_cycles)); },
                 {}});
  out.push_back({"sor" + sfx, true, hpcnet::cil::build_sm_sor,
                 {Slot::from_i32(s.sor_n), Slot::from_i32(s.sor_iters)},
                 kn::sor::num_flops(s.sor_n, s.sor_n, s.sor_iters),
                 ValType::F64,
                 [s] { return Slot::from_f64(
                           kn::sor::checksum(s.sor_n, s.sor_iters)); },
                 {}});
  out.push_back({"mc" + sfx, true, hpcnet::cil::build_sm_montecarlo,
                 {Slot::from_i32(s.mc_samples)},
                 kn::montecarlo::num_flops(s.mc_samples), ValType::F64,
                 [s] { return Slot::from_f64(
                           kn::montecarlo::integrate(s.mc_samples)); },
                 {}});
  out.push_back({"sparse" + sfx, true, hpcnet::cil::build_sm_sparse,
                 {Slot::from_i32(s.sparse_n), Slot::from_i32(s.sparse_nz),
                  Slot::from_i32(s.sparse_iters)},
                 kn::sparse::num_flops(s.sparse_n, s.sparse_nz, s.sparse_iters),
                 ValType::F64,
                 [s] { return Slot::from_f64(kn::sparse::checksum(
                           s.sparse_n, s.sparse_nz, s.sparse_iters)); },
                 {}});
  out.push_back({"lu" + sfx, true, hpcnet::cil::build_sm_lu,
                 {Slot::from_i32(s.lu_n)}, kn::lu::num_flops(s.lu_n),
                 ValType::F64,
                 [s] { return Slot::from_f64(kn::lu::checksum(s.lu_n)); },
                 {}});
}

void add_jgf(std::vector<Kernel>& out, const JgfSizes& j) {
  // Work units follow bench_jgf: calls, elements, moves, keys, bytes.
  out.push_back({"fib", false, hpcnet::cil::build_jg_fib,
                 {Slot::from_i32(j.fib)}, kn::fib::num_calls(j.fib),
                 ValType::I64,
                 [j] { return Slot::from_i64(kn::fib::compute(j.fib)); },
                 {}});
  out.push_back({"sieve", false, hpcnet::cil::build_jg_sieve,
                 {Slot::from_i32(j.sieve)}, static_cast<double>(j.sieve),
                 ValType::I32,
                 [j] {
                   return Slot::from_i32(kn::sieve::count_primes(j.sieve));
                 },
                 {}});
  out.push_back({"hanoi", false, hpcnet::cil::build_jg_hanoi,
                 {Slot::from_i32(j.hanoi)},
                 static_cast<double>((std::int64_t{1} << j.hanoi) - 1),
                 ValType::I64,
                 [j] { return Slot::from_i64(kn::hanoi::solve(j.hanoi)); },
                 {}});
  out.push_back({"heapsort", false, hpcnet::cil::build_jg_heapsort,
                 {Slot::from_i32(j.heapsort)}, static_cast<double>(j.heapsort),
                 ValType::I64,
                 [j] { return Slot::from_i64(kn::heapsort::run(j.heapsort)); },
                 {}});
  out.push_back({"crypt", false, hpcnet::cil::build_jg_crypt,
                 {Slot::from_i32(j.crypt)}, static_cast<double>(j.crypt),
                 ValType::I64,
                 [j] { return Slot::from_i64(kn::crypt::run(j.crypt)); },
                 {}});
}

constexpr JgfSizes kSteadyJgf{20, 60000, 14, 20000, 16384};
constexpr JgfSizes kBootJgf{10, 1000, 6, 500, 1024};

}  // namespace

std::vector<Kernel> make_kernels(SizeSet sizes, bool corrupt) {
  using hpcnet::cil::ScimarkSizes;
  std::vector<Kernel> out;
  switch (sizes) {
    case SizeSet::Steady:
      add_scimark(out, ScimarkSizes::small_model(), "-s");
      add_scimark(out, ScimarkSizes::large_model(), "-l");
      add_jgf(out, kSteadyJgf);
      break;
    case SizeSet::Boot:
      add_scimark(out, ScimarkSizes::test_model(), "");
      add_jgf(out, kBootJgf);
      break;
    case SizeSet::Tiny:
      add_scimark(out, ScimarkSizes::test_model(), "-s");
      add_scimark(out, ScimarkSizes::test_model(), "-l");
      add_jgf(out, kBootJgf);
      break;
  }
  for (Kernel& k : out) k.expect = k.native();
  if (corrupt) out.front().expect.f64 += 1.0;  // kernel 0 is FFT (f64)
  return out;
}

std::vector<std::int32_t> build_kernels(vm::VirtualMachine& v,
                                        const std::vector<Kernel>& kernels) {
  std::vector<std::int32_t> ids;
  ids.reserve(kernels.size());
  for (const Kernel& k : kernels) ids.push_back(k.build(v));
  return ids;
}

namespace {

/// Calls `fn` with the stack lowered by (slot % 64) * 64 bytes. Where the
/// stack sits modulo 4 KiB moved kernel times by up to ~30% in measurement
/// (likely 4K aliasing against the VM's frame arena and heap), and ASLR
/// draws that offset once per process; cycling it per call averages a run
/// over the offsets instead of letting one random draw bias the whole run.
[[gnu::noinline]] void at_stack_offset(std::size_t slot,
                                       const std::function<void()>& fn) {
  volatile char* pad =
      static_cast<volatile char*>(__builtin_alloca((slot % 64) * 64 + 1));
  pad[0] = 0;
  fn();
}

}  // namespace

std::int64_t run_checked(vm::VirtualMachine& v, vm::Engine& engine,
                         std::int32_t method, const Kernel& k, Report& r,
                         std::size_t slot) {
  std::int64_t ns = 0;
  at_stack_offset(slot, [&] {
    const std::int64_t t0 = now_ns();
    try {
      const Slot got = engine.invoke(v.main_context(), method, k.args);
      ns = now_ns() - t0;
      r.check(same_result(k.ret, got, k.expect),
              k.key + " @ " + engine.name() + ": result differs from native");
    } catch (const std::exception& e) {
      ns = now_ns() - t0;
      r.check(false, k.key + " @ " + engine.name() + ": " + e.what());
    }
  });
  return ns;
}

std::int64_t run_native_checked(const Kernel& k, Report& r, std::size_t slot) {
  std::int64_t ns = 0;
  at_stack_offset(slot, [&] {
    const std::int64_t t0 = now_ns();
    const Slot got = k.native();
    ns = now_ns() - t0;
    r.check(same_result(k.ret, got, k.expect), k.key + " @ native");
  });
  return ns;
}

double reverify_ms(vm::Module& module) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < module.method_count(); ++i) {
    const vm::MethodDef& m = module.method(static_cast<std::int32_t>(i));
    if (!m.verified) continue;
    vm::MethodDef copy = m;
    copy.verified = false;
    copy.max_stack = 0;
    copy.stack_in.clear();
    copy.reachable.clear();
    const std::int64_t t0 = now_ns();
    vm::verify_body(module, copy);
    total += now_ns() - t0;
  }
  return static_cast<double>(total) * 1e-6;
}

IrCount count_ir(vm::Module& module, const vm::EngineFlags& flags) {
  IrCount c;
  for (std::size_t i = 0; i < module.method_count(); ++i) {
    const vm::MethodDef& m = module.method(static_cast<std::int32_t>(i));
    if (!m.verified) continue;
    const vm::regir::RCode rc = vm::regir::compile(module, m, flags);
    c.instrs += static_cast<double>(rc.code.size());
    c.vec_loops += static_cast<double>(rc.vec_loops.size());
  }
  return c;
}

void sample_jit(Samples& s, const std::string& engine) {
  namespace tel = vm::telemetry;
  static const std::map<std::string, std::string> kPassNames = {
      {"inline", "inline"},          {"translate", "translate"},
      {"copyprop+dce", "optimize"},  {"cse", "cse"},
      {"licm", "licm"},              {"bounds-check-elim", "bce"},
      {"vec-lower", "veclower"},     {"compact", "compact"},
      {"finalize", "finalize"},
  };
  const tel::Snapshot snap = tel::snapshot();
  const tel::EngineJitTimes* jt = snap.engine_jit(engine);
  s.add("regcompile.compile_ms",
        jt ? static_cast<double>(jt->compile_ns) * 1e-6 : 0.0);
  s.add("regcompile.methods",
        jt ? static_cast<double>(jt->methods_compiled) : 0.0);
  for (std::size_t p = 0; p < tel::kNumJitPasses; ++p) {
    const auto it =
        kPassNames.find(tel::jit_pass_name(static_cast<tel::JitPass>(p)));
    if (it == kPassNames.end()) continue;
    s.add("regcompile." + it->second + "_ms",
          jt ? static_cast<double>(jt->pass_ns[p]) * 1e-6 : 0.0);
  }
}

}  // namespace perfbench
