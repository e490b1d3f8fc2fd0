// The programs the workloads run: the SciMark and JGF kernels with their
// sizes, work units and native reference results, plus the layer probes the
// traced run uses to split a VM boot into builder, verifier and JIT time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"
#include "vm/execution.hpp"

namespace perfbench {

struct Kernel {
  std::string key;  // "fft-s", ..., "crypt" — the per-layer metric infix
  bool scimark = false;  // work in flops (MFlops) or JGF work units
  std::int32_t (*build)(hpcnet::vm::VirtualMachine&) = nullptr;
  std::vector<hpcnet::vm::Slot> args;
  double work = 0;  // flops or JGF work units per call
  hpcnet::vm::ValType ret = hpcnet::vm::ValType::None;
  std::function<hpcnet::vm::Slot()> native;  // the native twin (src/kernels)
  hpcnet::vm::Slot expect;                   // native() result
};

enum class SizeSet {
  Steady,  // SciMark small + large model, JGF at timing sizes (15 kernels)
  Boot,    // SciMark test model + small JGF sizes (10 kernels)
  Tiny,    // Steady's 15 keys at Boot sizes (the benchmark's own tests)
};

/// The kernels of a size set, each with its native reference computed.
/// `corrupt` perturbs the first kernel's expected value (smoke check that
/// a wrong result is counted as failed).
std::vector<Kernel> make_kernels(SizeSet sizes, bool corrupt);

/// Builds every kernel's program into `vm` (the cil::build_* entry points,
/// which verify what they build); returns the method ids in kernel order.
std::vector<std::int32_t> build_kernels(hpcnet::vm::VirtualMachine& vm,
                                        const std::vector<Kernel>& kernels);

/// Invokes a kernel on `engine` and checks it against its native twin.
/// A managed exception counts as a failed check. Returns the call's wall
/// time in ns. `slot` picks the call's stack offset (see programs.cpp):
/// callers cycle it so a run samples every offset.
std::int64_t run_checked(hpcnet::vm::VirtualMachine& vm,
                         hpcnet::vm::Engine& engine, std::int32_t method,
                         const Kernel& k, Report& r, std::size_t slot = 0);

/// Runs a kernel's native twin and checks it; returns its wall time in ns.
std::int64_t run_native_checked(const Kernel& k, Report& r,
                                std::size_t slot = 0);

// --- layer probes (traced run) ----------------------------------------------

/// Verifier time for the module's methods: each verified body is copied,
/// reset and verified again through vm::verify_body, outside any timed
/// region. Returns ms.
double reverify_ms(hpcnet::vm::Module& module);

/// Static JIT facts: compiles every verified method with `flags` through
/// regir::compile and sums the emitted register-IR instructions and the
/// VECLOOPs lowered.
struct IrCount {
  double instrs = 0;
  double vec_loops = 0;
};
IrCount count_ir(hpcnet::vm::Module& module,
                 const hpcnet::vm::EngineFlags& flags);

/// Adds one sample per JIT fact of `engine` from the telemetry snapshot:
/// regcompile.compile_ms, regcompile.methods and regcompile.<pass>_ms.
void sample_jit(Samples& s, const std::string& engine);

}  // namespace perfbench
