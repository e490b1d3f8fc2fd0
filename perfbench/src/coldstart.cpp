// coldstart: time from a fresh VirtualMachine to the first validated result
// of every SciMark and JGF kernel at test-model sizes. Each boot builds the
// programs (cil builders, which verify them) and runs every kernel once on
// one of four legs:
//   cold     — clr11, every method compiled on its first call;
//   snapshot — clr11, warm-started from a code archive that setup captured
//              and serialized once (deserialize_archives + attach_archive);
//   tiered   — clr11.tiered: interpreter start, promotion and OSR;
//   interp   — rotor10: builder, verifier and interpreter only, the control
//              leg that bypasses both the JIT and the archive.
// Rounds boot every leg once, in an order that rotates every round.
#include <algorithm>
#include <memory>

#include "programs.hpp"
#include "vm/archive.hpp"
#include "vm/serialize.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
namespace tel = hpcnet::vm::telemetry;

namespace {

struct Leg {
  const char* name;
  const char* profile;
  bool snapshot;
};
constexpr Leg kLegs[] = {
    {"cold", "clr11", false},
    {"snapshot", "clr11", true},
    {"tiered", "clr11.tiered", false},
    {"interp", "rotor10", false},
};
constexpr std::size_t kNumLegs = std::size(kLegs);
constexpr double kLegPercentile = 25;  // the gated statistic of a leg's boots

}  // namespace

void run_coldstart(const Options& o, Report& r) {
  std::vector<Kernel> kernels;
  std::vector<char> archive;
  Samples layer;

  // Setup: native references and the archive the snapshot leg boots from.
  // It takes ~8 ms, and a few seconds of load at process start moved a
  // median of setups made back to back by 40%. So setup runs once before
  // the rounds and once more after every round, into throwaway state, and
  // setup_s is the median over the whole run, like the legs.
  std::vector<double> setup_secs;
  const auto setup = [&](std::vector<Kernel>& ks, std::vector<char>& arc) {
    const std::int64_t t0 = now_ns();
    ks = make_kernels(SizeSet::Boot, o.corrupt);
    vm::VirtualMachine machine;
    const std::unique_ptr<vm::Engine> engine =
        vm::make_engine(machine, vm::profiles::by_name("clr11"));
    const std::vector<std::int32_t> ids = build_kernels(machine, ks);
    for (std::size_t k = 0; k < ks.size(); ++k) {
      run_checked(machine, *engine, ids[k], ks[k], r);
    }
    arc = vm::serialize_archives({vm::capture_archive(machine, "clr11")});
    setup_secs.push_back(ms_between(t0, now_ns()) * 1e-3);
  };
  setup(kernels, archive);

  // One boot; returns ms from VM construction to the last validated result.
  // With `traced`, also samples the leg's layer facts (outside the timed
  // region).
  const auto boot = [&](const Leg& leg, bool traced, std::uint64_t id) {
    if (traced) set_tracing(true);
    const vm::EngineProfile profile = vm::profiles::by_name(leg.profile);
    const std::int64_t t0 = now_ns();
    auto machine = std::make_unique<vm::VirtualMachine>();
    const std::int64_t b0 = now_ns();
    const std::vector<std::int32_t> ids = build_kernels(*machine, kernels);
    const std::int64_t b1 = now_ns();
    std::int64_t a1 = b1;
    if (leg.snapshot) {
      for (const auto& a : vm::deserialize_archives(
               machine->module(), archive.data(), archive.size())) {
        vm::attach_archive(*machine, a);
      }
      a1 = now_ns();
    }
    const std::unique_ptr<vm::Engine> engine =
        vm::make_engine(*machine, profile);
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const std::int64_t c0 = now_ns();
      const std::int64_t ns =
          run_checked(*machine, *engine, ids[k], kernels[k], r);
      span("execution", kernels[k].key, c0, c0 + ns, id, "boot");
    }
    const std::int64_t t1 = now_ns();
    if (!traced) return ms_between(t0, t1);

    span("execution", std::string("boot ") + leg.name, t0, t1, id, "");
    span("cil+verifier", "build", b0, b1, id, "boot");
    if (leg.snapshot) span("archive", "load", b1, a1, id, "boot");
    const tel::Snapshot s = tel::snapshot();
    set_tracing(false);
    const std::string name = leg.name;
    if (name == "cold") {
      sample_jit(layer, "clr11");
      const double verify = reverify_ms(machine->module());
      layer.add("verifier.verify_ms", verify);
      layer.add("cil.build_ms", ms_between(b0, b1) - verify);
    } else if (name == "snapshot") {
      layer.add("archive.load_ms", ms_between(b1, a1));
      layer.add("archive.methods_restored",
                static_cast<double>(
                    s.counter(tel::Counter::SnapshotMethodsRestored)));
      layer.add("archive.misses",
                static_cast<double>(s.counter(tel::Counter::SnapshotMisses)));
    } else if (name == "tiered") {
      layer.add("tiered.tier_ups",
                static_cast<double>(s.counter(tel::Counter::TierUps)));
      layer.add("tiered.osr_entries",
                static_cast<double>(s.counter(tel::Counter::OsrEntries)));
    }
    return ms_between(t0, t1);
  };

  std::vector<std::vector<double>> off(kNumLegs);
  std::vector<std::vector<double>> on(kNumLegs);
  const int skip = o.trace ? 2 : 1;
  const int min_rounds = skip + 3;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  for (int round = 0;; ++round) {
    const bool traced = o.trace && round % 2 == 1;
    const std::size_t rot =
        (o.seed + static_cast<std::size_t>(round)) % kNumLegs;
    for (std::size_t li = 0; li < kNumLegs; ++li) {
      const std::size_t l = (li + rot) % kNumLegs;
      const double ms = boot(kLegs[l], traced && round >= skip,
                             static_cast<std::uint64_t>(round) * kNumLegs + l);
      if (round >= skip) (traced ? on : off)[l].push_back(ms);
    }
    {
      std::vector<Kernel> ks;
      std::vector<char> arc;
      setup(ks, arc);
    }
    if (round + 1 >= min_rounds && now_ns() - start >= budget_ns) break;
  }

  r.set("setup_s", median(setup_secs));
  std::vector<double> overhead;
  // The gated legs take a low percentile of each leg's boots. A run has
  // hundreds of boots per leg: their fastest quarter is steadier across runs
  // than the median (bursts of load from other tenants of a shared host only
  // add time), yet a regression that hits a share of the boots (a GC during
  // boot, some archive misses) still moves it. boot_ms.* keep the median.
  for (std::size_t l = 0; l < kNumLegs; ++l) {
    const double leg = percentile(off[l], kLegPercentile);
    r.set("leg" + std::to_string(l + 1) + "_ms", leg);
    r.set(std::string("boot_ms.") + kLegs[l].name, median(off[l]));
    if (o.trace) {
      overhead.push_back((percentile(on[l], kLegPercentile) / leg - 1.0) * 100.0);
    }
  }
  if (!o.trace) return;

  r.set("trace_overhead_pct", median(overhead));
  r.set("archive.bytes", static_cast<double>(archive.size()));
  {
    vm::VirtualMachine machine;
    build_kernels(machine, kernels);
    r.set("regcompile.ir_instrs",
          count_ir(machine.module(), vm::profiles::by_name("clr11").flags)
              .instrs);
  }
  layer.emit(r);
}

}  // namespace perfbench
