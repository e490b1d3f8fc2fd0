// §5 pass attribution: how much of the optimizing tier's advantage comes
// from each JIT pass. The clr11 flag set is re-run with inlining and CSE
// toggled individually (and all off / all on), plus the vector tier's
// VECLOOP lowering alone and on top of the full set, over the benchmarks
// each pass targets: the method-call micro (inlining), Fibonacci (recursive
// inlining), and the SciMark SOR / SparseMatmul / MonteCarlo kernels
// (CSE on array-heavy loops). Scores are best-of-5 work-units/sec,
// the noise-robust protocol bench_bce uses.
//
// A second table is the other side of the trade: what each pass costs at
// compile time. Every method of the SciMark/JGF boot set (the programs a
// cold VM boot compiles) is compiled N times under clr11, outside any
// engine; each cell is the minimum over the N compiles, in microseconds.
// Per-pass cells come from the telemetry pass timers (zero in a
// HPCNET_TELEMETRY=OFF build); "compile" is the wall time of the whole call.
//
//   bench_passes [--quick] [--json FILE]
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>

#include "cil/jg.hpp"
#include "cil/micro.hpp"
#include "cil/sm.hpp"
#include "cil/suite.hpp"
#include "kernels/jgf.hpp"
#include "support/reporter.hpp"
#include "support/timer.hpp"
#include "vm/regcompile.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace {

using namespace hpcnet;
using vm::Slot;

struct Variant {
  const char* name;
  vm::EngineFlags flags;
};

std::vector<Variant> variants() {
  vm::EngineFlags base = vm::profiles::clr11().flags;
  base.inline_calls = false;
  base.cse = false;
  std::vector<Variant> out;
  out.push_back({"passes off", base});
  vm::EngineFlags f = base;
  f.inline_calls = true;
  f.inline_max_il = 64;
  out.push_back({"+inline", f});
  f = base;
  f.cse = true;
  out.push_back({"+cse", f});
  f = base;
  f.vectorize = true;
  out.push_back({"+vec", f});
  out.push_back({"all on (clr11)", vm::profiles::clr11().flags});
  out.push_back(
      {"all on +vec (clr11.vec)", vm::profiles::vec(vm::profiles::clr11()).flags});
  return out;
}

support::ResultTable compile_table(int compiles) {
  namespace tel = vm::telemetry;
  using namespace hpcnet::cil;
  vm::VirtualMachine v;
  build_sm_fft(v);
  build_sm_sor(v);
  build_sm_montecarlo(v);
  build_sm_sparse(v);
  build_sm_lu(v);
  build_jg_fib(v);
  build_jg_sieve(v);
  build_jg_hanoi(v);
  build_jg_heapsort(v);
  build_jg_crypt(v);
  vm::Module& mod = v.module();
  const vm::EngineFlags flags = vm::profiles::clr11().flags;

  const char* const engine = "bench_passes.compile";
  const bool was_enabled = tel::enabled();
  tel::set_enabled(true);
  const tel::CompileContext scope(engine);
  auto pass_ns = [&] {
    std::vector<std::int64_t> ns(tel::kNumJitPasses, 0);
    const tel::Snapshot s = tel::snapshot();
    if (const tel::EngineJitTimes* jt = s.engine_jit(engine)) {
      std::copy(std::begin(jt->pass_ns), std::end(jt->pass_ns), ns.begin());
    }
    return ns;
  };

  support::ResultTable t("JIT compile time per pass, clr11, boot set [us, min of " +
                         std::to_string(compiles) + " compiles]");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> total(tel::kNumJitPasses + 1, 0.0);
  for (std::size_t i = 0; i < mod.method_count(); ++i) {
    const vm::MethodDef& m = mod.method(static_cast<std::int32_t>(i));
    if (!m.verified) continue;
    std::vector<double> best(tel::kNumJitPasses + 1, kInf);
    for (int rep = 0; rep < compiles; ++rep) {
      const std::vector<std::int64_t> before = pass_ns();
      const std::int64_t t0 = support::now_ns();
      const vm::regir::RCode rc = vm::regir::compile(mod, m, flags);
      const std::int64_t t1 = support::now_ns();
      const std::vector<std::int64_t> after = pass_ns();
      for (std::size_t p = 0; p < tel::kNumJitPasses; ++p) {
        best[p] = std::min(best[p], static_cast<double>(after[p] - before[p]));
      }
      best.back() = std::min(best.back(), static_cast<double>(t1 - t0));
    }
    for (std::size_t p = 0; p <= tel::kNumJitPasses; ++p) {
      const char* col =
          p < tel::kNumJitPasses
              ? tel::jit_pass_name(static_cast<tel::JitPass>(p))
              : "compile";
      t.set(m.name, col, best[p] * 1e-3);
      total[p] += best[p] * 1e-3;
    }
  }
  for (std::size_t p = 0; p <= tel::kNumJitPasses; ++p) {
    t.set("total", t.columns()[p], total[p]);
  }
  tel::set_enabled(was_enabled);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hpcnet::cil;
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_passes [--quick] [--json FILE]\n";
      return 1;
    }
  }

  std::vector<support::ResultTable> tables;
  tables.push_back(compile_table(quick ? 10 : 30));

  BenchContext bc;
  auto& v = bc.vm();

  struct Row {
    const char* name;
    std::int32_t method;
    std::vector<Slot> args;
    double work;
  };
  const std::int32_t call_iters = quick ? 200000 : 2000000;
  const std::int32_t fib_n = quick ? 18 : 24;
  const ScimarkSizes sz =
      quick ? ScimarkSizes::test_model() : ScimarkSizes::small_model();
  const std::vector<Row> rows = {
      {"Method static(args)", build_method_static_args(v),
       {Slot::from_i32(call_iters)}, static_cast<double>(call_iters)},
      {"Fibonacci", build_jg_fib(v), {Slot::from_i32(fib_n)},
       kernels::fib::num_calls(fib_n)},
      {"SOR", build_sm_sor(v),
       {Slot::from_i32(sz.sor_n), Slot::from_i32(sz.sor_iters)},
       6.0 * (sz.sor_n - 1) * (sz.sor_n - 1) * sz.sor_iters},
      {"SparseMatmul", build_sm_sparse(v),
       {Slot::from_i32(sz.sparse_n), Slot::from_i32(sz.sparse_nz),
        Slot::from_i32(sz.sparse_iters)},
       2.0 * sz.sparse_nz * sz.sparse_iters},
      {"MonteCarlo", build_sm_montecarlo(v),
       {Slot::from_i32(sz.mc_samples)}, 4.0 * sz.mc_samples},
  };

  support::ResultTable t(
      "JIT pass attribution, clr11 flag set [work units/sec, best of 5]");
  vm::VMContext& ctx = v.main_context();
  for (const Variant& var : variants()) {
    vm::EngineProfile p;
    p.name = var.name;
    p.tier = vm::Tier::Optimizing;
    p.flags = var.flags;
    auto engine = vm::make_engine(v, p);
    ctx.engine = engine.get();
    for (const Row& r : rows) {
      // Warm-up (compiles under this flag set), then best-of-5.
      engine->invoke(ctx, r.method,
                     std::span<const Slot>(r.args.data(), r.args.size()));
      double best = 0;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = support::now_ns();
        engine->invoke(ctx, r.method,
                       std::span<const Slot>(r.args.data(), r.args.size()));
        const double secs =
            support::elapsed_seconds(t0, support::now_ns());
        best = std::max(best, r.work / secs);
      }
      t.set(r.name, var.name, best);
    }
  }
  ctx.engine = nullptr;

  support::ResultTable speedup =
      t.normalized_to("passes off", "Speedup over passes-off");
  tables.push_back(std::move(t));
  tables.push_back(std::move(speedup));
  for (const auto& table : tables) {
    table.print(std::cout);
    std::cout << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "[";
    for (std::size_t i = 0; i < tables.size(); ++i) {
      if (i != 0) out << ",\n";
      tables[i].print_json(out);
    }
    out << "]\n";
    std::cout << "JSON written to " << json_path << "\n";
  }
  return 0;
}
