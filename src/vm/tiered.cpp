// TieredEngine: hotness-driven dispatch across the three tier backends.
//
// The CodeEntry state machine (DESIGN.md "Tiered execution"):
//
//   unverified --verify--> Interp --h >= baseline_threshold--> Baseline
//              (tiny bodies skip straight to Baseline on their first call)
//       Baseline/Interp --h >= opt_threshold--> Optimizing (compiled)
//
// Hotness h = invocations + per-frame-capped back-edge credit. Methods
// promote at call boundaries; a frame still RUNNING when its loop gets hot
// enters compiled code mid-loop via on-stack replacement (osr_code /
// osr_enter below), and compiled frames can bail back out through the deopt
// side table (request_deopt / deopt_bailout). Both directions move frame
// state through the same device — a verified continuation method whose
// arguments are the live frame (src/vm/osr.hpp) — so WHERE a frame runs
// still can never change WHAT it computes.
//
// Locking: verification takes the VM-shared per-method verify latch;
// compilation takes this profile's per-method latch (OSR continuations get
// their own entry, keyed (body, header pc)). Neither is ever held while
// acquiring another method's latch — the inline pass's callees are verified
// (transitively) up front, and osr_code promotes the root method BEFORE
// taking the continuation's latch — and regir::compile runs outside any
// cache-wide lock, so distinct methods compile concurrently.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "support/timer.hpp"
#include "vm/engines.hpp"
#include "vm/osr.hpp"
#include "vm/regcompile.hpp"
#include "vm/regir.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/verifier.hpp"

namespace hpcnet::vm {

namespace {
constexpr std::uint8_t kOpt = static_cast<std::uint8_t>(Tier::Optimizing);

/// Saturating hotness bump: interp-capped policies (rotor/mono `.tiered`)
/// never stop counting via the max-tier early-out alone on methods below
/// their threshold, and an unchecked u32 fetch_add would eventually wrap a
/// hot method back below threshold. Returns the post-add value.
std::uint32_t bump_hotness(std::atomic<std::uint32_t>& h,
                           std::uint32_t delta) {
  std::uint32_t cur = h.load(std::memory_order_relaxed);
  while (true) {
    const std::uint32_t next =
        cur > UINT32_MAX - delta ? UINT32_MAX : cur + delta;
    if (next == cur) return cur;  // already saturated
    if (h.compare_exchange_weak(cur, next, std::memory_order_relaxed,
                                std::memory_order_relaxed)) {
      return next;
    }
  }
}
}  // namespace

TieredEngine::TieredEngine(VirtualMachine& vm, EngineProfile profile)
    : vm_(vm),
      profile_(std::move(profile)),
      tiered_(profile_.tiering.mode == TierMode::Tiered),
      osr_step_(tiered_ && profile_.tiering.max_tier == Tier::Optimizing
                    ? profile_.tiering.osr_backedge_trigger
                    : 0),
      cache_(vm.code_cache(profile_.name)),
      vcache_(vm.code_cache("<verify>")),
      interp_(make_interp_backend(vm, *this)),
      baseline_(make_baseline_backend(vm, *this)),
      opt_(make_optimizing_backend(vm, *this)) {}

TieredEngine::~TieredEngine() = default;

Slot TieredEngine::do_invoke(VMContext& ctx, const MethodDef& m, Slot* args) {
  return call(ctx, m.id, args);
}

Slot TieredEngine::call(VMContext& ctx, std::int32_t method_id,
                        const Slot* args) {
  CodeCache::Entry& e = cache_.entry(method_id);
  // Hot path: the method reached the optimizing tier (or Single mode already
  // compiled it) — the acquire load of `tier` makes the relaxed code load
  // safe, see CodeCache::Entry.
  if (e.tier.load(std::memory_order_acquire) == kOpt) {
    return opt_->run_compiled(
        ctx, *e.code[kOpt].load(std::memory_order_relaxed), args);
  }
  const MethodDef& m = vm_.module().method(method_id);
  if (!tiered_) {
    switch (profile_.tier) {
      case Tier::Interp: return interp_->execute(ctx, m, args);
      case Tier::Baseline: return baseline_->execute(ctx, m, args);
      case Tier::Optimizing:
        // Same latch-protected lookup the CALL_R fast path and the tiered
        // promoter use (compile_optimizing double-checks under the method's
        // latch), so Single mode and tiered mode share one compile path.
        return opt_->run_compiled(ctx, *opt_code_for_call(method_id), args);
    }
  }
  // Tiered slow path: count the invocation and maybe promote. Once a method
  // sits at the policy's max tier the counters stop (no steady-state cost
  // for interp-only / baseline-capped shapes).
  const TierPolicy& pol = profile_.tiering;
  Tier t = static_cast<Tier>(e.tier.load(std::memory_order_relaxed));
  if (t < pol.max_tier) {
    const std::uint32_t h = bump_hotness(e.hotness, 1);
    t = maybe_promote(e, m, h);
    if (t == Tier::Optimizing) {
      return opt_->run_compiled(
          ctx, *e.code[kOpt].load(std::memory_order_acquire), args);
    }
  }
  return t == Tier::Baseline ? baseline_->execute(ctx, m, args)
                             : interp_->execute(ctx, m, args);
}

Tier TieredEngine::maybe_promote(CodeCache::Entry& e, const MethodDef& m,
                                 std::uint32_t hotness) {
  const TierPolicy& pol = profile_.tiering;
  Tier cur = static_cast<Tier>(e.tier.load(std::memory_order_relaxed));
  Tier want = cur;
  if (cur == Tier::Interp && (hotness >= pol.baseline_threshold ||
                              m.il_size() <= pol.tiny_method_il)) {
    want = Tier::Baseline;
  }
  if (hotness >= pol.opt_threshold) want = Tier::Optimizing;
  if (want > pol.max_tier) want = pol.max_tier;
  if (want <= cur) return cur;
  if (want == Tier::Optimizing) {
    compile_optimizing(e, m);  // publishes code + raises tier
    return Tier::Optimizing;
  }
  // Interp -> Baseline needs no compiled artifact: a monotonic max on the
  // tier byte. Only the winning CAS records the transition.
  std::uint8_t prev = e.tier.load(std::memory_order_relaxed);
  while (prev < static_cast<std::uint8_t>(want)) {
    if (e.tier.compare_exchange_weak(prev, static_cast<std::uint8_t>(want),
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
      telemetry::record_tier_up(m.id, m.name, prev,
                                static_cast<std::uint8_t>(want));
      return want;
    }
  }
  return static_cast<Tier>(prev);
}

const regir::RCode& TieredEngine::compile_optimizing(CodeCache::Entry& e,
                                                     const MethodDef& m) {
  if (const regir::RCode* rc = e.code[kOpt].load(std::memory_order_acquire)) {
    // Fast path doubles as the re-warm after a deopt: request_deopt drops
    // the tier byte but keeps the compiled artifact, so re-promotion just
    // republishes it. The tier byte is a monotonic max here (kOpt is top).
    const std::uint8_t prev = e.tier.exchange(kOpt, std::memory_order_release);
    if (tiered_ && prev != kOpt) {
      telemetry::record_tier_up(m.id, m.name, prev, kOpt);
    }
    return *rc;
  }
  // All verification happens BEFORE this method's latch is taken: the inline
  // pass verifies callees, and holding latch(A) while waiting on latch(B)
  // would deadlock two threads compiling mutually-inlining methods.
  ensure_verified(m);
  if (profile_.flags.inline_calls) pre_verify_callees(m);
  std::unique_lock<std::mutex> latch(e.latch);
  if (const regir::RCode* rc = e.code[kOpt].load(std::memory_order_relaxed)) {
    return *rc;  // lost the race; the winner already published tier + code
  }
  const telemetry::CompileContext tel_engine(profile_.name.c_str());
  const std::int64_t compile_begin = support::now_ns();
  auto compiled = std::make_shared<const regir::RCode>(
      regir::compile(vm_.module(), m, profile_.flags));
  const regir::RCode* rc = cache_.adopt(std::move(compiled));
  e.code[kOpt].store(rc, std::memory_order_release);
  const std::uint8_t prev =
      e.tier.exchange(kOpt, std::memory_order_release);
  latch.unlock();
  telemetry::record_compile(m.id, m.name, compile_begin, support::now_ns());
  if (tiered_ && prev != kOpt) {
    telemetry::record_tier_up(m.id, m.name, prev, kOpt);
  }
  return *rc;
}

const regir::RCode* TieredEngine::opt_code_for_call(std::int32_t method_id) {
  CodeCache::Entry& e = cache_.entry(method_id);
  if (e.tier.load(std::memory_order_acquire) == kOpt) {
    return e.code[kOpt].load(std::memory_order_relaxed);
  }
  if (tiered_) return nullptr;
  return &compile_optimizing(e, vm_.module().method(method_id));
}

void TieredEngine::note_backedges(std::int32_t method_id,
                                  std::uint32_t taken) noexcept {
  try {
    CodeCache::Entry& e = cache_.entry(method_id);
    const TierPolicy& pol = profile_.tiering;
    if (static_cast<Tier>(e.tier.load(std::memory_order_relaxed)) >=
        pol.max_tier) {
      return;
    }
    const std::uint32_t credit = std::min(taken, pol.backedge_credit);
    const std::uint32_t h = bump_hotness(e.hotness, credit);
    maybe_promote(e, vm_.module().method(method_id), h);
  } catch (...) {
    // A failed promotion (code-cache exhaustion) must not terminate the
    // process when this flush runs during another unwind; the credit is
    // simply dropped.
  }
}

std::shared_ptr<const MethodDef> TieredEngine::continuation_for(
    const MethodDef& body, std::int32_t header_pc) {
  std::lock_guard<std::mutex> lock(osr_mu_);
  auto [it, fresh] = continuations_.try_emplace({&body, header_pc});
  if (fresh) it->second = osr::build_continuation(vm_.module(), body,
                                                  header_pc);
  return it->second;  // nullptr stays cached: unbuildable headers don't retry
}

const regir::RCode* TieredEngine::osr_code(const MethodDef& body,
                                           std::int32_t header_pc) {
  if (osr_step_ == 0) return nullptr;
  CodeCache::Entry& e = cache_.osr_entry(&body, header_pc);
  if (e.tier.load(std::memory_order_acquire) == kOpt) {
    return e.code[kOpt].load(std::memory_order_relaxed);
  }
  // Promote the method itself first (under ITS latch, released before the
  // continuation's latch below — never two latches at once) so future calls
  // skip the IL tiers entirely; for a deopt continuation's re-OSR the root
  // is already compiled and this just resolves the verify/callee state.
  const MethodDef& root = vm_.module().method(body.id);
  if (&body == &root) {
    compile_optimizing(cache_.entry(body.id), root);
  } else {
    ensure_verified(root);
    if (profile_.flags.inline_calls) pre_verify_callees(root);
  }
  std::shared_ptr<const MethodDef> cont = continuation_for(body, header_pc);
  if (cont == nullptr) return nullptr;
  std::unique_lock<std::mutex> latch(e.latch);
  if (const regir::RCode* rc = e.code[kOpt].load(std::memory_order_relaxed)) {
    return rc;  // lost the race; the winner already published
  }
  const telemetry::CompileContext tel_engine(profile_.name.c_str());
  const std::int64_t compile_begin = support::now_ns();
  // No lifetime knot here anymore: compile() always hands the RCode its own
  // body copy, so the detached continuation's shared_ptr map entry is not
  // load-bearing for the published code.
  auto compiled = std::make_shared<const regir::RCode>(
      regir::compile(vm_.module(), *cont, profile_.flags));
  const regir::RCode* rc = cache_.adopt(std::move(compiled));
  e.code[kOpt].store(rc, std::memory_order_release);
  e.tier.store(kOpt, std::memory_order_release);
  latch.unlock();
  telemetry::record_compile(body.id, cont->name, compile_begin,
                            support::now_ns());
  return rc;
}

Slot TieredEngine::osr_enter(VMContext& ctx, const regir::RCode& rc,
                             std::int32_t header_pc, const Slot* args) {
  cache_.entry(rc.method->id).osr_entries.fetch_add(
      1, std::memory_order_relaxed);
  telemetry::record_osr_entry(rc.method->id, rc.method->name, header_pc);
  return opt_->run_compiled(ctx, rc, args);
}

void TieredEngine::request_deopt(std::int32_t method_id) {
  CodeCache::Entry& e = cache_.entry(method_id);
  e.deopt_generation.fetch_add(1, std::memory_order_relaxed);
  // Demote the dispatch tier and restart profiling from cold. The compiled
  // body stays adopted in the cache; once the method re-warms, the compile
  // latch path finds and republishes it without recompiling.
  e.hotness.store(0, std::memory_order_relaxed);
  std::uint8_t cur = e.tier.load(std::memory_order_relaxed);
  while (cur == kOpt) {
    if (e.tier.compare_exchange_weak(
            cur, static_cast<std::uint8_t>(Tier::Interp),
            std::memory_order_release, std::memory_order_relaxed)) {
      break;
    }
  }
}

Slot TieredEngine::deopt_bailout(VMContext& ctx, const regir::RCode& rc,
                                 std::int32_t rpc, const Slot* regs) {
  // The side table is sorted by rpc and covers every backward branch of a
  // deopt-enabled body, so the lookup cannot miss.
  const auto it = std::lower_bound(
      rc.deopt_points.begin(), rc.deopt_points.end(), rpc,
      [](const regir::RCode::DeoptPoint& p, std::int32_t key) {
        return p.rpc < key;
      });
  if (it == rc.deopt_points.end() || it->rpc != rpc) {
    throw std::logic_error("deopt: no side-table record at safepoint");
  }
  const regir::RCode::DeoptPoint& dp = *it;
  const MethodDef& body = *rc.method;  // the body the registers mirror
  std::shared_ptr<const MethodDef> cont = continuation_for(body, dp.il_pc);
  if (cont == nullptr) {
    // Unreachable by construction: deopt_points is only non-empty when every
    // point's continuation shape is expressible (compact() clears the table
    // otherwise).
    throw std::logic_error("deopt: continuation unbuildable");
  }
  cache_.entry(body.id).deopts.fetch_add(1, std::memory_order_relaxed);
  telemetry::record_deopt(body.id, body.name, dp.il_pc);
  // Register file -> continuation arguments: slot registers mirror the
  // frame's locals/arguments in place, then the header's operand stack from
  // the side table's stack registers (bottom-up).
  std::vector<Slot> args;
  args.reserve(static_cast<std::size_t>(rc.slot_regs) +
               dp.stack_regs.size());
  for (std::int32_t i = 0; i < rc.slot_regs; ++i) args.push_back(regs[i]);
  for (std::int32_t r : dp.stack_regs) args.push_back(regs[r]);
  return interp_->execute(ctx, *cont, args.data());
}

void TieredEngine::verify_slow(CodeCache::Entry& e, const MethodDef& m) {
  std::lock_guard<std::mutex> latch(e.latch);
  if (e.verified.load(std::memory_order_relaxed)) return;
  verify(vm_.module(), m.id);
  e.verified.store(true, std::memory_order_release);
}

void TieredEngine::pre_verify_callees(const MethodDef& root) {
  // The transitive CALL-target set (a superset of what the inline pass will
  // actually expand). Each callee is verified under its own latch, one at a
  // time; by the time regir::compile's inline pass calls verify() on a
  // callee it is a synchronized no-op.
  std::vector<std::int32_t> work{root.id};
  std::vector<bool> visited(vm_.module().method_count(), false);
  visited[static_cast<std::size_t>(root.id)] = true;
  while (!work.empty()) {
    const std::int32_t id = work.back();
    work.pop_back();
    const MethodDef& m = vm_.module().method(id);
    if (id != root.id) ensure_verified(m);
    for (const Instr& in : m.code) {
      if (in.op != Op::CALL) continue;
      const auto callee = static_cast<std::size_t>(in.a);
      if (callee < visited.size() && !visited[callee]) {
        visited[callee] = true;
        work.push_back(in.a);
      }
    }
  }
}

void raise_meter_fault(VirtualMachine& vm, VMContext& ctx) {
  Module& mod = vm.module();
  if (ctx.fuel.exhausted()) {
    vm.throw_exception(ctx, mod.fuel_exhausted_class(),
                       "fuel budget exhausted");
  } else {
    vm.throw_exception(ctx, mod.deadline_exceeded_class(),
                       "wall-clock deadline exceeded");
  }
}

std::unique_ptr<Engine> make_engine(VirtualMachine& vm,
                                    const EngineProfile& profile) {
  return std::make_unique<TieredEngine>(vm, profile);
}

}  // namespace hpcnet::vm
