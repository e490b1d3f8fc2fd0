// Internal: the tiered execution pipeline. The three engines the paper
// compares are tier backends behind one TieredEngine: the interpreter and
// baseline tiers are the two instantiations of one IL executor
// (ilexecutor.cpp), the optimizing tier runs register IR (optimizing.cpp).
// Public code uses make_engine().
//
// Dispatch (tiered.cpp): every call funnels through TieredEngine::call(),
// which consults the method's CodeCache entry. Methods at Tier::Optimizing
// run their published register-IR body directly; colder methods bump the
// hotness counter, may promote at the call boundary, and run on their
// current tier's backend. A frame that gets hot while ALREADY running enters
// compiled code mid-loop via on-stack replacement (osr_code/osr_enter), and
// compiled frames can bail back to the interpreter through the deopt side
// table (request_deopt/deopt_bailout). In TierMode::Single the profile's
// tier runs unconditionally, preserving the paper's per-engine measurement
// mode.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "vm/codecache.hpp"
#include "vm/execution.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/unwind.hpp"

namespace hpcnet::vm {

class TieredEngine;

/// One execution tier. execute() runs `m` on the calling thread; `args`
/// points at m.num_args() Slots (copied into the frame; never mutated). On
/// managed exception the backend sets ctx.pending_exception and returns.
class TierBackend {
 public:
  virtual ~TierBackend() = default;
  virtual Slot execute(VMContext& ctx, const MethodDef& m,
                       const Slot* args) = 0;
};

/// The optimizing tier also dispatches directly on compiled bodies (the
/// hot-to-hot CALL_R fast path skips the CodeCache entry entirely).
class OptBackend : public TierBackend {
 public:
  virtual Slot run_compiled(VMContext& ctx, const regir::RCode& rc,
                            const Slot* args) = 0;
};

std::unique_ptr<TierBackend> make_interp_backend(VirtualMachine& vm,
                                                 TieredEngine& engine);
std::unique_ptr<TierBackend> make_baseline_backend(VirtualMachine& vm,
                                                   TieredEngine& engine);
std::unique_ptr<OptBackend> make_optimizing_backend(VirtualMachine& vm,
                                                    TieredEngine& engine);

/// The engine: owns one backend per tier and drives per-method tier
/// selection through the profile's CodeCache.
class TieredEngine final : public Engine {
 public:
  TieredEngine(VirtualMachine& vm, EngineProfile profile);
  ~TieredEngine() override;

  const EngineProfile& profile() const override { return profile_; }
  VirtualMachine& vm() { return vm_; }
  bool tiered() const { return tiered_; }

  /// Dispatches one call: straight into published optimized code when the
  /// method is hot, otherwise hotness bookkeeping + the current tier.
  Slot call(VMContext& ctx, std::int32_t method_id, const Slot* args);

  /// Frame-entry verification gate used by the IL tiers: one acquire load
  /// once the method is verified. Verification state is shared VM-wide (the
  /// "<verify>" cache), so concurrent engines never race on MethodDef.
  void ensure_verified(const MethodDef& m) {
    CodeCache::Entry& e = vcache_.entry(m.id);
    if (!e.verified.load(std::memory_order_acquire)) verify_slow(e, m);
  }

  /// Optimized code for a CALL_R site. Single mode compiles on demand and
  /// never returns null; tiered mode returns the published body or null
  /// (the caller routes the cold callee back through call()).
  const regir::RCode* opt_code_for_call(std::int32_t method_id);

  /// Frame-exit flush of taken-backward-branch counts from the IL tiers;
  /// may promote the method for its next invocation (loop-heavy methods
  /// tier up after one or two calls even if rarely invoked). Never throws:
  /// it runs in frame teardown, possibly during another unwind.
  void note_backedges(std::int32_t method_id, std::uint32_t taken) noexcept;

  /// The method's current dispatch tier (telemetry, tests, benches).
  Tier method_tier(std::int32_t method_id) {
    return static_cast<Tier>(
        cache_.entry(method_id).tier.load(std::memory_order_acquire));
  }

  // --- On-stack replacement / deoptimization (DESIGN.md §10) ---------------

  /// Per-frame taken-back-edge count at which the IL tiers attempt OSR;
  /// 0 when this engine can never OSR (Single mode, or the policy caps
  /// below the optimizing tier).
  std::uint32_t osr_step() const { return osr_step_; }

  /// Compiled OSR continuation of `body` at loop header `header_pc` — the
  /// published one, or compiled on the spot (also promotes the method itself
  /// so future calls run fully compiled). `body` is the method the frame is
  /// executing: the module's method, or a continuation from an earlier
  /// OSR/deopt of this same invocation (re-OSR keys off that body pointer).
  /// Returns nullptr when the continuation cannot be built; callers then
  /// stop trying for the rest of the frame.
  const regir::RCode* osr_code(const MethodDef& body, std::int32_t header_pc);

  /// Enters a compiled OSR continuation with the live frame state (`args` =
  /// frame slots then operand stack, matching the continuation signature).
  /// The return value is the original invocation's result; a managed
  /// exception propagates via ctx.pending_exception as usual.
  Slot osr_enter(VMContext& ctx, const regir::RCode& rc,
                 std::int32_t header_pc, const Slot* args);

  /// Invalidates the method's compiled assumptions: bumps the entry's deopt
  /// generation (running compiled frames bail out at their next back-edge
  /// safepoint), drops the dispatch tier below Optimizing and zeroes hotness
  /// so the method re-profiles. The compiled body stays cached — a re-warm
  /// republishes it without recompiling.
  void request_deopt(std::int32_t method_id);

  /// Bails a compiled frame out at the back-edge safepoint `rpc`: maps the
  /// register file back to IL frame state through the deopt side table and
  /// finishes the invocation in an interpreter continuation. Returns the
  /// invocation's result (exceptions via ctx.pending_exception).
  Slot deopt_bailout(VMContext& ctx, const regir::RCode& rc, std::int32_t rpc,
                     const Slot* regs);

  /// The per-method cache entry (the optimizing backend snapshots
  /// deopt_generation at frame entry).
  CodeCache::Entry& code_entry(std::int32_t method_id) {
    return cache_.entry(method_id);
  }

 protected:
  Slot do_invoke(VMContext& ctx, const MethodDef& m, Slot* args) override;

 private:
  Tier maybe_promote(CodeCache::Entry& e, const MethodDef& m,
                     std::uint32_t hotness);
  const regir::RCode& compile_optimizing(CodeCache::Entry& e,
                                         const MethodDef& m);
  /// Under `e`'s latch, compiles `body` unless a racing thread already
  /// published it, then publishes the code and the tier byte (both
  /// release), unlocks and records the compile. `body` is a method or an
  /// OSR continuation (whose id is its method's). Returns the code and the
  /// tier byte it replaced (Optimizing when the race was lost).
  std::pair<const regir::RCode*, std::uint8_t> compile_and_publish(
      CodeCache::Entry& e, const MethodDef& body);
  void pre_verify_callees(const MethodDef& root);
  void verify_slow(CodeCache::Entry& e, const MethodDef& m);
  /// The continuation MethodDef for (body, header), built+verified once and
  /// cached for the VM's lifetime (nullptr is cached too: an unbuildable
  /// header is never retried). Shared by the OSR-up and deopt directions.
  std::shared_ptr<const MethodDef> continuation_for(const MethodDef& body,
                                                    std::int32_t header_pc);

  VirtualMachine& vm_;
  EngineProfile profile_;
  const bool tiered_;
  std::uint32_t osr_step_ = 0;
  CodeCache& cache_;   // this profile's compiled code + tier state
  CodeCache& vcache_;  // VM-shared verification latches/flags
  std::unique_ptr<TierBackend> interp_;
  std::unique_ptr<TierBackend> baseline_;
  std::unique_ptr<OptBackend> opt_;
  // OSR/deopt continuations are rare (once per hot loop header) and live as
  // long as the engine; a plain mutex-guarded map is plenty.
  std::mutex osr_mu_;
  std::map<std::pair<const void*, std::int32_t>,
           std::shared_ptr<const MethodDef>>
      continuations_;
};

// ---------------------------------------------------------------------------
// The frame runtime all three tier backends share (DESIGN.md §10): the
// call-boundary meter check, the metered back-edge pulse and the frame
// teardown. The IL tiers also share OSR entry and the unwind transfers
// through ILFrameRuntime, templated on the slot type — the interpreter's
// TaggedSlot carries a dynamic type tag per value (Rotor), the baseline's
// bare Slot relies on the verifier's static types (Mono).

/// Raises the job's meter fault via ctx.pending_exception: a catchable
/// FuelExhausted once the budget ran dry, else DeadlineExceeded.
[[gnu::cold]] void raise_meter_fault(VirtualMachine& vm, VMContext& ctx);

/// True, with the fault raised, once the job's fuel budget has run dry or
/// its wall-clock deadline has passed. Polled at every call boundary (a
/// frame entered after the budget ran dry faults at once, so loop-free
/// callees cannot extend a dead job) and at every back-edge pulse.
inline bool meter_fault(VirtualMachine& vm, VMContext& ctx) {
  if (!ctx.fuel.exhausted() && !ctx.fuel.past_deadline()) return false;
  raise_meter_fault(vm, ctx);
  return true;
}

/// One activation's bookkeeping, on the C++ stack beside the GC-visible
/// frame. Teardown is RAII so it runs on EVERY exit: normal
/// returns, managed exceptions propagating out, and native C++ exceptions
/// (frame-arena exhaustion, a compile failure inside a nested call)
/// unwinding through the dispatch loop. A native unwind therefore never
/// leaves ctx.top_frame pointing at a dead frame, leaks the frame's arena
/// block or drops its fuel and back-edge credit.
class FrameRuntime {
 public:
  /// Takes the arena mark. `credit` (tiered IL frames only) receives the
  /// frame's taken back edges at exit.
  FrameRuntime(VMContext& ctx, std::int32_t method_id, std::uint8_t tier,
               TieredEngine* credit)
      : ctx_(ctx),
        tel_(method_id, tier),
        parent_(ctx.top_frame),
        mark_(ctx.arena.mark()),
        credit_(credit),
        method_id_(method_id),
        fuel_on_(ctx.fuel.active) {}
  FrameRuntime(const FrameRuntime&) = delete;
  FrameRuntime& operator=(const FrameRuntime&) = delete;

  ~FrameRuntime() {
    tel_.bytecodes = bc;
    ctx_.top_frame = parent_;
    ctx_.arena.release(mark_);
    // Residual fuel: back edges taken since the last pulse are charged at
    // frame exit (no kill check here — the next pulse or call boundary
    // catches an overdraw), so short loops in callees are still metered.
    if (fuel_on_ && backedges != fuel_charged) {
      ctx_.fuel.charge(backedges - fuel_charged);
    }
    if (credit_ != nullptr && backedges != 0) {
      credit_->note_backedges(method_id_, backedges);
    }
  }

  /// Makes `gc` ctx's innermost GC frame until teardown.
  void link(GcFrame& gc) {
    gc.parent = parent_;
    ctx_.top_frame = &gc;
  }

  bool fuel_on() const { return fuel_on_; }

  /// A pulse's fuel charge: bills the back edges taken since the last
  /// charge, then polls the meter. True when the job was faulted.
  bool charge_pulse(VirtualMachine& vm) {
    ctx_.fuel.charge(backedges - fuel_charged);
    fuel_charged = backedges;
    return meter_fault(vm, ctx_);
  }

  std::uint64_t bc = 0;            // retired bytecodes (IL tiers)
  std::uint32_t backedges = 0;     // taken backward branches
  std::uint32_t fuel_charged = 0;  // back edges already charged to ctx.fuel
  std::uint32_t pulse_next = 0;    // backedges value of the next pulse

 protected:
  VMContext& ctx_;

 private:
  telemetry::InvocationScope tel_;  // flushed after bc is stored
  GcFrame* parent_;
  FrameArena::Mark mark_;
  TieredEngine* credit_;
  std::int32_t method_id_;
  bool fuel_on_;
};

/// An IL tier's GC-visible frame: arguments + locals, then the operand
/// stack.
template <class SlotT>
struct ILFrame {
  GcFrame gc;  // must be first (enumerate casts back)
  const MethodDef* m = nullptr;
  SlotT* slots = nullptr;  // args + locals
  SlotT* stack = nullptr;
  std::int32_t sp = 0;
  // Current at every GC point. The baseline's stack maps are per pc; the
  // interpreter's tags do not need it.
  std::int32_t pc = 0;
};

inline void store_slot(Slot& s, ValType, Slot v) { s = v; }
inline void store_slot(TaggedSlot& s, ValType t, Slot v) {
  s.tag = t;
  s.v = v;
}
inline Slot slot_value(const Slot& s) { return s; }
inline Slot slot_value(const TaggedSlot& s) { return s.v; }

template <class SlotT>
class ILFrameRuntime : public FrameRuntime {
 public:
  // The OSR counter doubles as the fuel-metering counter: both ride one
  // `++backedges == pulse_next` compare in the dispatch loop, so arming fuel
  // adds no second branch to the hot path (DESIGN.md §11). With OSR armed
  // the pulse cadence is the OSR trigger; fuel alone pulses every
  // kFuelPulseBackedges; with neither, pulse_next parks at 0 and only
  // matches on 32-bit wrap (a harmless no-op pulse).
  ILFrameRuntime(VMContext& ctx, TieredEngine& engine, const MethodDef& m,
                 std::uint8_t tier)
      : FrameRuntime(ctx, m.id, tier, engine.tiered() ? &engine : nullptr),
        engine_(engine),
        m_(m),
        osr_armed_(engine.osr_step() != 0) {
    pulse_step_ = osr_armed_ ? engine.osr_step()
                             : (fuel_on() ? kFuelPulseBackedges : 0);
    pulse_next = pulse_step_;
  }

  /// Carves the frame's slots and operand stack out of the arena, stores
  /// the arguments (slots take their static types) and links the frame.
  void enter(ILFrame<SlotT>& f, const Slot* args,
             decltype(GcFrame::enumerate) enumerate) {
    f.m = &m_;
    const std::size_t nslots = m_.frame_slots();
    f.slots = static_cast<SlotT*>(ctx_.arena.alloc(nslots * sizeof(SlotT)));
    f.stack = static_cast<SlotT*>(ctx_.arena.alloc(
        static_cast<std::size_t>(m_.max_stack + 1) * sizeof(SlotT)));
    for (std::size_t i = 0; i < nslots; ++i) {
      store_slot(f.slots[i], m_.slot_type(i),
                 i < m_.num_args() ? args[i] : Slot{});
    }
    f.gc.enumerate = enumerate;
    link(f.gc);
  }

  /// Fires when backedges reaches pulse_next at a back edge to `header`.
  /// Charges the pulse window's fuel (a meter fault is reported via
  /// ctx.pending_exception), then attempts on-stack replacement: once THIS
  /// frame's taken back edges cross the trigger, the invocation finishes in
  /// a compiled continuation at the loop header. Re-arms after every firing
  /// so transient OSR failures retry and an exhausted-but-caught job is
  /// re-killed a pulse later. True when the invocation finished in compiled
  /// code; its result is then osr_result(). Kept out of line: it runs once
  /// per pulse window, so a dispatch loop carries one call per back-edge
  /// site rather than a copy of the OSR transfer.
  [[gnu::noinline]] bool pulse(const ILFrame<SlotT>& f,
                               const UnwindMachine& uw, std::int32_t header) {
    pulse_next += pulse_step_;
    if (fuel_on() && charge_pulse(engine_.vm())) return false;
    if (!osr_armed_ || !uw.idle()) return false;
    const auto& entry_stack = m_.stack_in[static_cast<std::size_t>(header)];
    if (static_cast<std::size_t>(f.sp) != entry_stack.size()) return false;
    const regir::RCode* rc = engine_.osr_code(m_, header);
    if (rc == nullptr) {
      // Unbuildable continuation: stop trying in this frame. Fuel still
      // needs pulses, so only park the counter when it has no other client.
      osr_armed_ = false;
      if (!fuel_on()) pulse_next = 0;
      return false;
    }
    // Live frame state -> continuation arguments: slots, then the operand
    // stack bottom-up (the continuation signature orders them the same).
    const std::size_t nslots = m_.frame_slots();
    std::vector<Slot> a(nslots + entry_stack.size());
    for (std::size_t i = 0; i < nslots; ++i) a[i] = slot_value(f.slots[i]);
    for (std::int32_t k = 0; k < f.sp; ++k) {
      a[nslots + static_cast<std::size_t>(k)] = slot_value(f.stack[k]);
    }
    osr_result_ = engine_.osr_enter(ctx_, *rc, header, a.data());
    return true;
  }
  Slot osr_result() const { return osr_result_; }

  /// Applies an unwind step to the frame: a handler or leave target clears
  /// the operand stack (a catch also receives the exception on it) and moves
  /// `pc`. False on Propagate: the in-flight exception is left pending and
  /// the frame must return.
  bool unwind_to(ILFrame<SlotT>& f, const UnwindMachine& uw,
                 const UnwindAction& a, std::int32_t& pc) {
    if (a.kind == UnwindAction::Kind::Propagate) {
      ctx_.pending_exception = uw.exception();
      return false;
    }
    f.sp = 0;
    if (a.kind == UnwindAction::Kind::EnterCatch) {
      store_slot(f.stack[f.sp++], ValType::Ref,
                 Slot::from_ref(uw.exception()));
    }
    pc = a.pc;
    return true;
  }

  /// The dispatch_exception tail: routes ctx.pending_exception, raised at
  /// `pc`, to a handler in this frame (see unwind_to).
  bool dispatch_exception(ILFrame<SlotT>& f, UnwindMachine& uw,
                          std::int32_t& pc) {
    ObjRef exc = ctx_.pending_exception;
    ctx_.pending_exception = nullptr;
    return unwind_to(f, uw, uw.on_throw(engine_.vm().module(), m_, pc, exc),
                     pc);
  }

 private:
  TieredEngine& engine_;
  const MethodDef& m_;
  bool osr_armed_;
  std::uint32_t pulse_step_ = 0;
  Slot osr_result_;
};

}  // namespace hpcnet::vm
