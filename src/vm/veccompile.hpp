// Vector lowering pass (DESIGN.md §12): recognizes innermost counted loops
// with map/daxpy, reduction, and SOR-stencil bodies in pre-compaction RegIR
// and plants a VECLOOP superinstruction in each loop's preheader. The scalar
// loop is always retained as the slow path — VECLOOP is a guarded fast path,
// never a replacement — so deopt, OSR and exception semantics are untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/regir.hpp"

namespace hpcnet::vm::regir {

/// Borrowed views of the register compiler's pre-compaction state. Branch
/// `d` fields still hold IL pcs; `il_start` maps IL pc -> code index and is
/// shifted past every preheader insertion the pass makes.
struct VecLowerInput {
  std::vector<RInstr>* code = nullptr;
  std::vector<std::int32_t>* il_start = nullptr;
  const std::vector<bool>* labels = nullptr;  // IL pcs that are branch targets
  const MethodDef* method = nullptr;          // handler table (region checks)
  RCode* rc = nullptr;  // reg_types / args_pool / slot_regs / vec_loops
};

/// Runs the recognizer to fixpoint; returns the number of loops lowered.
int lower_vector_loops(const VecLowerInput& in);

}  // namespace hpcnet::vm::regir
