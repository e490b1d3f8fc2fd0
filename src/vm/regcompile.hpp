// Stack IL -> register IR compilation for Tier::Optimizing.
#pragma once

#include <functional>
#include <string>

#include "vm/execution.hpp"
#include "vm/regir.hpp"

namespace hpcnet::vm::regir {

/// Inlining bounds shared by every profile: rounds of call-site expansion
/// (a directly recursive callee unrolls one level per round, the HotSpot
/// MaxRecursiveInlineLevel idea) and the caller growth budget in IL
/// instructions past which no more call sites expand.
inline constexpr int kInlineDepth = 2;
inline constexpr int kInlineTotalIl = 256;

/// Compiles a verified method under the profile's optimization flags.
RCode compile(Module& module, const MethodDef& m, const EngineFlags& flags);

/// Observer for jit_explorer and tests: invoked after each enabled pass with
/// the pass name and the current IR listing. Listings before "compact" are
/// pre-compaction (NOP placeholders still present, branch targets still in
/// IL-pc space); the "inline" listing is the expanded stack IL, not register
/// IR, since inlining runs before translation.
using PassObserver =
    std::function<void(const char* pass, const std::string& listing)>;

/// As compile(), additionally reporting the IR after every pass.
RCode compile_traced(Module& module, const MethodDef& m,
                     const EngineFlags& flags, const PassObserver& observe);

}  // namespace hpcnet::vm::regir
