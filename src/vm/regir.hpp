// Register IR for Tier::Optimizing — the CLR-1.1/JVM-class JIT stand-in.
//
// The stack-to-register translator assigns every (stack depth, type) pair and
// every local/argument slot a virtual register with a FIXED type for the
// whole method. That invariant is what makes GC precise and cheap here: the
// set of ref-typed registers is a compile-time constant per method, and any
// bit pattern in a ref register is (inductively) either null or a pointer to
// an object this very register has kept alive — so frames need no per-pc
// maps at all, matching how generational JITs batch their root scans.
//
// Optimization passes (profile differences in EngineFlags, see DESIGN.md
// §5): constant operand folding (immediate instruction forms),
// compare+branch fusion, copy propagation + dead-move elimination (the
// "enregistration" the paper's disassembly shows for CLR/IBM but not
// Mono/Rotor), the CLR's redundant-constant-store quirk, the 64-local
// enregistration limit, and array bounds-check elimination for counted
// loops bounded by ldlen. Every op is one row of regir_ops.def.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vm/module.hpp"
#include "vm/value.hpp"

namespace hpcnet::vm::regir {

enum class ROp : std::uint8_t {
#define ROP(op, ...) op,
#include "vm/regir_ops.def"
#undef ROP
  COUNT_,
};

/// Immediate form: whether `imm` is an operand value, disassembled as #imm.
/// Other ops may still use `imm` for ids, counts or packed registers.
enum class Imm : std::uint8_t { None, Operand };

/// Control class: how execution leaves the instruction.
enum class Control : std::uint8_t {
  Fall,  // falls through to the next instruction
  Cond,  // conditional branch to `d`, else falls through
  Jump,  // unconditional branch to `d`
  Exit,  // leaves the method or the handler (ret, throw, leave, endfinally)
};

/// Value class: what the optimizer may assume about an op's effects.
enum class Value : std::uint8_t {
  None,        // traps or has effects: never removed, never value-numbered
  Pure,        // no effects: dead results are removed, CSE value-numbers it
  Cse,         // CSE value-numbers it; kept even when dead (may trap)
  FieldLoad,   // CSE value; reads an instance field
  ElemLoad,    // CSE value; reads an array element
  FieldStore,  // writes an instance or static field
  ElemStore,   // writes an array element
  Alloc,       // may allocate or park for a collection (GC point)
  Call,        // calls out: may write any memory, GC point
};

/// Operand shape: which fields hold registers, and whether each is defined
/// or read. A stored value travels in `d` (S = d read as the source).
enum class Shape : std::uint8_t {
  None,     // no register operands
  D,        // d defined
  DA,       // d defined; a read
  DAB,      // d defined; a, b read
  A,        // a read
  Ret,      // a read, or -1 (void)
  AB,       // a, b read
  SA,       // a, d read
  S,        // d read
  SAB,      // a, b, d read
  SABKeep,  // as SAB, but copy propagation leaves d in place (the unchecked
            // stores; forwarding their source would change the emitted IR)
  DABC,     // d defined; a, b and the imm-low column register read
  ABCV,     // a, b, imm-low column and imm-high source registers read
  Call,     // d defined, or -1 (void); args_pool[b, b + imm) read
};

/// Registers packed into `imm` by the rank-2 ops: imm-low is bits
/// [0, kRegFieldBits), imm-high the next kRegFieldBits.
inline constexpr std::int64_t kRegFieldBits = 20;
inline constexpr std::int64_t kRegFieldMask = (1 << kRegFieldBits) - 1;

/// Role bits of a shape: which register fields are defined or read, and
/// two modifiers.
enum Role : std::uint16_t {
  kDefD = 1 << 0,     // d is defined
  kUseD = 1 << 1,     // d is read (a store's source)
  kUseA = 1 << 2,
  kUseB = 1 << 3,
  kUseLo = 1 << 4,    // imm-low register
  kUseHi = 1 << 5,    // imm-high register
  kUsePool = 1 << 6,  // args_pool[b, b + imm)
  kVoid = 1 << 7,     // the d (Call) or a (Ret) role may be -1
  kKeepD = 1 << 8,    // copy propagation does not rewrite d
};

constexpr std::uint16_t roles_of(Shape s) {
  switch (s) {
    case Shape::None: return 0;
    case Shape::D: return kDefD;
    case Shape::DA: return kDefD | kUseA;
    case Shape::DAB: return kDefD | kUseA | kUseB;
    case Shape::A: return kUseA;
    case Shape::Ret: return kUseA | kVoid;
    case Shape::AB: return kUseA | kUseB;
    case Shape::SA: return kUseA | kUseD;
    case Shape::S: return kUseD;
    case Shape::SAB: return kUseA | kUseB | kUseD;
    case Shape::SABKeep: return kUseA | kUseB | kUseD | kKeepD;
    case Shape::DABC: return kDefD | kUseA | kUseB | kUseLo;
    case Shape::ABCV: return kUseA | kUseB | kUseLo | kUseHi;
    case Shape::Call: return kDefD | kUsePool | kVoid;
  }
  return 0;
}

/// One row of regir_ops.def.
struct OpInfo {
  const char* name;
  Imm imm;
  Control control;
  Value value;
  Shape shape;
  std::uint16_t roles;
};

inline constexpr OpInfo kOpInfo[] = {
#define ROP(op, name, imm, control, value, shape)                 \
  {name, Imm::imm, Control::control, Value::value, Shape::shape, \
   roles_of(Shape::shape)},
#include "vm/regir_ops.def"
#undef ROP
};
static_assert(sizeof kOpInfo / sizeof kOpInfo[0] ==
              static_cast<std::size_t>(ROp::COUNT_));

constexpr const OpInfo& info(ROp op) {
  return kOpInfo[static_cast<std::size_t>(op)];
}

/// One register instruction. `flags` bit 0 = pinned (exempt from
/// optimization); `il_pc` maps back to the stack IL for exception ranges and
/// the disassembly study (Tables 5-8).
struct RInstr {
  ROp op = ROp::NOP_R;
  std::uint8_t flags = 0;
  std::int32_t d = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t il_pc = -1;
  union {
    std::int64_t i64;
    double f64;
  } imm{};

  static constexpr std::uint8_t kPinned = 1;
  bool pinned() const { return (flags & kPinned) != 0; }
};

/// A compiled method.
struct RCode {
  /// Deopt side table: one record per backward branch (JMPB and the fused
  /// conditional back edges), sorted by `rpc`. At the recorded register pc
  /// the register file holds the IL frame state of the branch TARGET (the
  /// loop header): registers [0, slot_regs) mirror the locals/arguments and
  /// `stack_regs` (bottom-up) hold the header's entry operand stack — the
  /// invariant DCE maintains by keeping slot registers and successor-entry
  /// stack registers live across block boundaries. Empty when the body has
  /// no recoverable back edges; deopt is then disabled for the whole body.
  struct DeoptPoint {
    std::int32_t rpc = -1;    // register pc of the backward branch
    std::int32_t il_pc = -1;  // IL pc of the loop header (branch target)
    std::vector<std::int32_t> stack_regs;  // header entry stack, bottom-up
  };
  std::vector<DeoptPoint> deopt_points;

  /// Vector-loop side table: one record per VECLOOP superinstruction
  /// (indexed by the instruction's `a` field). All fields are register ids
  /// except the kernel id and the spilled scalar immediates. `limit` is the
  /// trip bound register, or -1 when the bound is `limit_arr.length`
  /// (BCE-fused JLT_LEN loops). `s0_reg`/`s1_reg` name scalar operand
  /// registers, or -1 when the operand is the constant in `s0_bits`/
  /// `s1_bits` (raw slot bits, i32 or f64 per kernel).
  struct VecLoop {
    std::int32_t kernel = -1;     // veckernels::VecKernel
    std::int32_t ivar = -1;       // induction variable register
    std::int32_t limit = -1;      // trip bound register (-1: use limit_arr)
    std::int32_t limit_arr = -1;  // array whose length bounds the loop
    std::int32_t arr0 = -1;       // kernel span registers (meaning per
    std::int32_t arr1 = -1;       // kernel; see veckernels.hpp)
    std::int32_t arr2 = -1;
    std::int32_t acc = -1;        // reduction accumulator register
    std::int32_t s0_reg = -1;
    std::int32_t s1_reg = -1;
    std::int64_t s0_bits = 0;
    std::int64_t s1_bits = 0;
  };
  std::vector<VecLoop> vec_loops;

  /// Always points at `body` below — never into the module that happened to
  /// drive the compile. Compiled code must be position-independent: an RCode
  /// published into a CodeArchive outlives (and precedes) any particular VM,
  /// so it carries its own verified copy of the method it implements.
  const MethodDef* method = nullptr;
  /// The owned body `method` points at: the module method's verified state
  /// as of compilation, or — when the inlining pass expanded call sites —
  /// the expanded, re-verified copy (same name/id/signature), so handler
  /// tables, stack maps and il_pc ranges always describe the code that was
  /// actually compiled.
  std::shared_ptr<const MethodDef> body;
  std::vector<RInstr> code;
  std::vector<std::int32_t> args_pool;  // flattened call argument registers
  std::vector<std::int32_t> ref_regs;   // ref-typed registers (GC roots)
  std::vector<ValType> reg_types;       // per-register static type
  std::vector<std::int32_t> il2rpc;     // IL pc -> first register pc
  std::vector<std::int32_t> handler_exc_reg;  // per handler: catch dest reg
  std::int32_t num_regs = 0;

  /// Registers = [slots][stack depth x type][scratch].
  std::int32_t slot_regs = 0;
};

/// Resolution of the fast-math superinstruction immediates: the native
/// routine for a vm::Intr id, or nullptr when the id is not a one-argument
/// (respectively two-argument) pure-math entry. Shared by the emitter, the
/// dispatch loop and the archive deserializer (which validates restored
/// immediates through the same tables).
using Math1Fn = double (*)(double);
using Math2Fn = double (*)(double, double);
Math1Fn math1_fn(std::int32_t intr_id);
Math2Fn math2_fn(std::int32_t intr_id);

/// One-line disassembly of a register instruction (jit_explorer, tests).
std::string to_string(const RInstr& in);

/// Side-table-aware variant: VECLOOP renders its kernel name, span and
/// scalar operands from `code.vec_loops` (other ops defer to the one-line
/// form). Used by the full disassembly and the per-pass trace listings.
std::string to_string(const RInstr& in, const RCode& code);

/// Full method disassembly.
std::string to_string(const RCode& code);

}  // namespace hpcnet::vm::regir
