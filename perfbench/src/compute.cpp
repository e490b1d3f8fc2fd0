// compute: steady-state kernel speed of each tier. Setup builds the SciMark
// and JGF programs into one VM, creates one Single-mode engine per tier and
// warms (compiles) every kernel at test sizes; the timed region then runs
// rounds of every (profile, kernel) pair at the small/large SciMark models
// and the JGF timing sizes, plus each kernel's native twin, in an order that
// rotates every round. Round 0 only warms caches and is not kept.
#include <algorithm>
#include <memory>

#include "programs.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
namespace tel = hpcnet::vm::telemetry;

namespace {

struct Tier {
  const char* profile;  // engine profile
  const char* layer;    // repo module whose dispatch loop runs the kernels
  const char* headline; // suffix of the mflops./jgf_ops. headline metrics
};
constexpr Tier kTiers[] = {
    {"rotor10", "interpreter", "rotor10"},
    {"mono023", "baseline", "mono023"},
    {"clr11", "optimizing", "clr11"},
    {"clr11.vec", "veckernels", "clr11-vec"},
};
constexpr std::size_t kNumTiers = std::size(kTiers);
constexpr std::size_t kNative = kNumTiers;  // sample column of the native twin

// samples[tier][kernel] = per-call ns
using PairSamples = std::vector<std::vector<std::vector<double>>>;

/// Per-kernel ms of one sample column: the median of its calls, or with
/// `best` the fastest one. The gated legs use the fastest call: on a shared
/// host interference only ever adds time, so the minimum is the estimator
/// that least depends on what else the machine was doing (Chen and Revels,
/// "Robust benchmarking in noisy environments", 2016).
std::vector<double> per_kernel_ms(const std::vector<std::vector<double>>& s,
                                  bool best) {
  std::vector<double> out;
  for (const auto& v : s) {
    out.push_back((best ? *std::min_element(v.begin(), v.end()) : median(v)) *
                  1e-6);
  }
  return out;
}

struct Rates {
  double mflops = 0;   // geomean over the SciMark kernels
  double jgf_ops = 0;  // geomean over the JGF kernels, work units/s
};
Rates rates(const std::vector<Kernel>& kernels, const std::vector<double>& ms) {
  std::vector<double> mflops;
  std::vector<double> jgf;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const double per_s = kernels[k].work / (ms[k] * 1e-3);
    if (kernels[k].scimark) {
      mflops.push_back(per_s * 1e-6);
    } else {
      jgf.push_back(per_s);
    }
  }
  return {geomean(mflops), geomean(jgf)};
}

}  // namespace

void run_compute(const Options& o, Report& r) {
  std::unique_ptr<vm::VirtualMachine> machine;
  std::vector<std::unique_ptr<vm::Engine>> engines;
  std::vector<Kernel> kernels;
  std::vector<std::int32_t> ids;
  Samples layer;

  const double setup_s = median_setup_seconds([&] {
    engines.clear();
    machine.reset();
    if (o.trace) set_tracing(true);
    kernels = make_kernels(o.tiny ? SizeSet::Tiny : SizeSet::Steady, o.corrupt);
    const std::vector<Kernel> warm = make_kernels(SizeSet::Boot, false);
    machine = std::make_unique<vm::VirtualMachine>();
    for (const Tier& t : kTiers) {
      engines.push_back(
          vm::make_engine(*machine, vm::profiles::by_name(t.profile)));
    }
    const std::int64_t b0 = now_ns();
    ids = build_kernels(*machine, kernels);
    const std::vector<std::int32_t> warm_ids = build_kernels(*machine, warm);
    const std::int64_t b1 = now_ns();
    for (auto& e : engines) {
      for (std::size_t k = 0; k < warm.size(); ++k) {
        run_checked(*machine, *e, warm_ids[k], warm[k], r);
      }
    }
    if (o.trace) {
      sample_jit(layer, "clr11");
      set_tracing(false);
      const double verify = reverify_ms(machine->module());
      layer.add("verifier.verify_ms", verify);
      layer.add("cil.build_ms", ms_between(b0, b1) - verify);
    }
  });

  // Timed rounds. With --trace 1, odd rounds run with telemetry on and
  // even rounds off, so both halves see the same mix of machine states.
  const std::size_t nk = kernels.size();
  PairSamples off(kNumTiers + 1, std::vector<std::vector<double>>(nk));
  PairSamples on = off;
  const int skip = o.trace ? 2 : 1;      // warm-cache rounds, not kept
  const int min_rounds = skip + (o.trace ? 4 : 3);
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  int round = 0;
  int traced_rounds = 0;
  bool first_traced = true;
  for (;; ++round) {
    const bool traced = o.trace && round % 2 == 1;
    if (traced && round >= skip) {
      // Telemetry accumulates over kept traced rounds only.
      if (first_traced) set_tracing(true);
      first_traced = false;
      ++traced_rounds;
    }
    tel::set_enabled(traced && round >= skip);
    const std::size_t tier_rot =
        (o.seed + static_cast<std::size_t>(round)) % (kNumTiers + 1);
    const std::size_t kernel_rot =
        (o.seed * 7 + static_cast<std::size_t>(round) * 4) % nk;
    for (std::size_t ti = 0; ti <= kNumTiers; ++ti) {
      const std::size_t t = (ti + tier_rot) % (kNumTiers + 1);
      for (std::size_t ki = 0; ki < nk; ++ki) {
        const std::size_t k = (ki + kernel_rot) % nk;
        const std::int64_t t0 = now_ns();
        const std::size_t slot =
            static_cast<std::size_t>(round) * 37 + t * 13 + k;
        const std::int64_t ns =
            t == kNative ? run_native_checked(kernels[k], r, slot)
                         : run_checked(*machine, *engines[t], ids[k],
                                       kernels[k], r, slot);
        if (round < skip) continue;
        (traced ? on : off)[t][k].push_back(static_cast<double>(ns));
        if (traced && t != kNative) {
          span(kTiers[t].layer, kernels[k].key, t0, t0 + ns,
               static_cast<std::uint64_t>(round), "round");
        }
      }
    }
    if (round + 1 >= min_rounds && now_ns() - start >= budget_ns) break;
  }
  const tel::Snapshot timed = tel::snapshot();
  tel::set_enabled(false);

  // Untraced samples: the gated legs and the headline rates.
  r.set("setup_s", setup_s);
  std::vector<double> legs_off;
  for (std::size_t t = 0; t < kNumTiers; ++t) {
    legs_off.push_back(geomean(per_kernel_ms(off[t], true)));
    r.set("leg" + std::to_string(t + 1) + "_ms", legs_off[t]);
    const Rates rt = rates(kernels, per_kernel_ms(off[t], false));
    r.set(std::string("mflops.") + kTiers[t].headline, rt.mflops);
    if (t + 1 < kNumTiers) {  // the vector tier does not apply to JGF
      r.set(std::string("jgf_ops.") + kTiers[t].headline, rt.jgf_ops);
    }
  }
  if (!o.trace) return;

  // Traced samples: per-kernel medians of each tier backend.
  std::vector<double> sum_ns(kNumTiers, 0.0);
  std::vector<double> overhead;
  for (std::size_t t = 0; t < kNumTiers; ++t) {
    const std::vector<double> ms = per_kernel_ms(on[t], false);
    for (std::size_t k = 0; k < nk; ++k) {
      r.set(std::string(kTiers[t].layer) + "." + kernels[k].key + "_ms", ms[k]);
      sum_ns[t] += ms[k] * 1e6;
    }
    overhead.push_back(
        (geomean(per_kernel_ms(on[t], true)) / legs_off[t] - 1.0) * 100.0);
  }
  r.set("trace_overhead_pct", median(overhead));
  // The native twins (src/kernels) ran in the same rounds: the paper's
  // "fraction of C" reference.
  const Rates native = rates(kernels, per_kernel_ms(on[kNative], false));
  r.set("kernels.native_mflops", native.mflops);
  r.set("kernels.native_jgf_ops", native.jgf_ops);

  const double rounds = std::max(1, traced_rounds);
  r.set("heap.gcs", static_cast<double>(timed.gc.collections) / rounds);
  r.set("heap.minor_gcs",
        static_cast<double>(timed.gc.minor_collections) / rounds);
  r.set("heap.major_gcs",
        static_cast<double>(timed.gc.major_collections) / rounds);
  r.set("heap.gc_pause_ms",
        static_cast<double>(timed.gc_pause_ns.total()) * 1e-6 / rounds);
  r.set("heap.gc_pause_ms.p99",
        static_cast<double>(timed.gc_pause_ns.percentile(99)) * 1e-6);
  r.set("heap.safepoint_stall_ms.p99",
        static_cast<double>(timed.safepoint_stall_ns.percentile(99)) * 1e-6);
  r.set("heap.alloc_mb",
        static_cast<double>(timed.counter(tel::Counter::BytesAllocated)) /
            1e6 / rounds);
  r.set("regcompile.timed_compile_ms",
        static_cast<double>(timed.jit_total_ns()) * 1e-6 / rounds);

  // One counting pass per IL tier: exact IL ops retired for one call of
  // every kernel; ns per op divides the traced per-call medians by it.
  for (std::size_t t = 0; t < 2; ++t) {
    set_tracing(true);
    for (std::size_t k = 0; k < nk; ++k) {
      run_checked(*machine, *engines[t], ids[k], kernels[k], r);
    }
    const tel::Snapshot s = tel::snapshot();
    double ops = 0;
    for (const tel::MethodProfile& m : s.methods) {
      ops += static_cast<double>(m.bytecodes);
    }
    const std::string layer_name = kTiers[t].layer;
    r.set(layer_name + ".il_ops", ops);
    r.set(layer_name + ".ns_per_il_op", ops > 0 ? sum_ns[t] / ops : 0.0);
  }
  set_tracing(true);
  for (std::size_t k = 0; k < nk; ++k) {
    run_checked(*machine, *engines[3], ids[k], kernels[k], r);
  }
  r.set("veckernels.loops_entered",
        static_cast<double>(
            tel::snapshot().counter(tel::Counter::VecLoopsEntered)));
  set_tracing(false);

  r.set("regcompile.ir_instrs",
        count_ir(machine->module(), vm::profiles::by_name("clr11").flags)
            .instrs);
  r.set("veccompile.loops_lowered",
        count_ir(machine->module(), vm::profiles::by_name("clr11.vec").flags)
            .vec_loops);

  layer.emit(r);
}

}  // namespace perfbench
