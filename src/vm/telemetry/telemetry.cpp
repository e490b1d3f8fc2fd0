#include "vm/telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "support/timer.hpp"

namespace hpcnet::vm::telemetry {

namespace {

constexpr std::size_t kMaxTraceEvents = 1u << 20;

bool env_default() {
  const char* e = std::getenv("HPCNET_TELEMETRY");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}

// High-frequency counters live here: one sink per OS thread, plain (non-
// atomic) increments by the owning thread. The sink mutex guards only vector
// growth and snapshot merges; the increment fast path never takes it.
struct ThreadSink {
  std::mutex mu;
  std::vector<std::uint64_t> invocations;  // indexed by method id
  std::vector<std::uint64_t> bytecodes;
  std::vector<std::uint64_t> tier_invocations[kNumTiers];
  std::uint64_t counters[kNumCounters] = {};
  std::uint32_t tid = 0;          // managed thread id, if attached
  std::int64_t attach_ns = 0;

  void ensure_method(std::size_t id) {
    if (id < invocations.size()) return;
    std::lock_guard<std::mutex> lock(mu);
    invocations.resize(id + 1, 0);
    bytecodes.resize(id + 1, 0);
    for (auto& t : tier_invocations) t.resize(id + 1, 0);
  }
};

struct Hub {
  std::mutex mu;  // guards everything below
  std::vector<std::unique_ptr<ThreadSink>> sinks;

  support::Histogram gc_pause_ns;
  support::Histogram minor_pause_ns;
  support::Histogram major_pause_ns;
  support::Histogram safepoint_stall_ns;
  support::Histogram monitor_wait_ns;
  support::Histogram archive_load_ns;
  GcTelemetry gc;
  // Sweep facts for the in-progress collection, consumed by record_gc_pause.
  std::uint64_t pending_gc_allocated = 0;
  std::uint64_t pending_gc_freed = 0;
  std::uint64_t pending_gc_swept = 0;

  std::map<std::string, EngineJitTimes> jit;  // by engine name
  std::map<std::int32_t, std::int64_t> method_jit_ns;
  std::map<std::string, TenantTelemetry> tenants;  // by tenant name
  std::map<std::string, support::Histogram> vec_trips;  // by kernel name

  std::vector<TraceEvent> events;

  void add_event(TraceEvent ev) {
    if (events.size() < kMaxTraceEvents) events.push_back(std::move(ev));
  }
};

Hub& hub() {
  static Hub h;
  return h;
}

thread_local ThreadSink* tl_sink = nullptr;
thread_local std::uint32_t tl_tid = 0;
thread_local const char* tl_engine = nullptr;

ThreadSink& sink() {
  if (tl_sink == nullptr) {
    auto owned = std::make_unique<ThreadSink>();
    tl_sink = owned.get();
    std::lock_guard<std::mutex> lock(hub().mu);
    hub().sinks.push_back(std::move(owned));
  }
  return *tl_sink;
}

EngineJitTimes& jit_for_current_engine(Hub& h) {
  const std::string name = tl_engine != nullptr ? tl_engine : "<unknown>";
  EngineJitTimes& j = h.jit[name];
  if (j.engine.empty()) j.engine = name;
  return j;
}

}  // namespace

#if HPCNET_TELEMETRY_ENABLED
namespace detail {
std::atomic<bool> g_enabled{env_default()};
}
#endif

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::Allocations: return "allocations";
    case Counter::BytesAllocated: return "bytes_allocated";
    case Counter::MonitorAcquires: return "monitor_acquires";
    case Counter::MonitorContended: return "monitor_contended";
    case Counter::MonitorWaits: return "monitor_waits";
    case Counter::TlabRefills: return "tlab_refills";
    case Counter::TlabWasteBytes: return "tlab_waste_bytes";
    case Counter::LargeAllocs: return "large_allocs";
    case Counter::TierUps: return "tier_ups";
    case Counter::OsrEntries: return "osr_entries";
    case Counter::Deopts: return "deopts";
    case Counter::CardsScanned: return "cards_scanned";
    case Counter::PromotedBytes: return "promoted_bytes";
    case Counter::VecLoopsEntered: return "vec_loops_entered";
    case Counter::SnapshotMethodsRestored: return "snapshot_methods_restored";
    case Counter::SnapshotMisses: return "snapshot_misses";
    case Counter::kCount: break;
  }
  return "?";
}

const char* jit_pass_name(JitPass p) {
  switch (p) {
    case JitPass::Inline: return "inline";
    case JitPass::Translate: return "translate";
    case JitPass::Optimize: return "copyprop+dce";
    case JitPass::Cse: return "cse";
    case JitPass::BoundsCheckElim: return "bounds-check-elim";
    case JitPass::VecLower: return "vec-lower";
    case JitPass::Compact: return "compact";
    case JitPass::Finalize: return "finalize";
    case JitPass::kCount: break;
  }
  return "?";
}

void set_enabled(bool on) {
#if HPCNET_TELEMETRY_ENABLED
  detail::g_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void reset() {
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  for (auto& s : h.sinks) {
    std::lock_guard<std::mutex> slock(s->mu);
    std::fill(s->invocations.begin(), s->invocations.end(), 0);
    std::fill(s->bytecodes.begin(), s->bytecodes.end(), 0);
    for (auto& t : s->tier_invocations) std::fill(t.begin(), t.end(), 0);
    std::fill(std::begin(s->counters), std::end(s->counters), 0);
  }
  h.gc_pause_ns.reset();
  h.minor_pause_ns.reset();
  h.major_pause_ns.reset();
  h.safepoint_stall_ns.reset();
  h.monitor_wait_ns.reset();
  h.archive_load_ns.reset();
  h.gc = GcTelemetry{};
  h.pending_gc_allocated = h.pending_gc_freed = h.pending_gc_swept = 0;
  h.jit.clear();
  h.method_jit_ns.clear();
  h.tenants.clear();
  h.vec_trips.clear();
  h.events.clear();
}

Snapshot snapshot() {
  Snapshot out;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);

  std::map<std::int32_t, MethodProfile> methods;
  for (auto& s : h.sinks) {
    std::lock_guard<std::mutex> slock(s->mu);
    for (std::size_t id = 0; id < s->invocations.size(); ++id) {
      if (s->invocations[id] == 0 && s->bytecodes[id] == 0) continue;
      MethodProfile& m = methods[static_cast<std::int32_t>(id)];
      m.method_id = static_cast<std::int32_t>(id);
      m.invocations += s->invocations[id];
      m.bytecodes += s->bytecodes[id];
      for (std::size_t t = 0; t < kNumTiers; ++t) {
        m.tier_invocations[t] += s->tier_invocations[t][id];
      }
    }
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      out.counters[c] += s->counters[c];
    }
  }
  for (const auto& [id, ns] : h.method_jit_ns) {
    MethodProfile& m = methods[id];
    m.method_id = id;
    m.jit_ns += ns;
  }
  out.methods.reserve(methods.size());
  for (auto& [id, m] : methods) out.methods.push_back(m);

  out.gc_pause_ns = h.gc_pause_ns;
  out.minor_pause_ns = h.minor_pause_ns;
  out.major_pause_ns = h.major_pause_ns;
  out.safepoint_stall_ns = h.safepoint_stall_ns;
  out.monitor_wait_ns = h.monitor_wait_ns;
  out.archive_load_ns = h.archive_load_ns;
  out.gc = h.gc;
  for (const auto& [name, j] : h.jit) out.jit.push_back(j);
  for (const auto& [name, t] : h.tenants) out.tenants.push_back(t);
  for (const auto& [name, hist] : h.vec_trips) {
    out.vec_kernels.push_back(VecKernelTelemetry{name, hist});
  }
  out.events = h.events;
  return out;
}

const MethodProfile* Snapshot::method(std::int32_t id) const {
  for (const MethodProfile& m : methods) {
    if (m.method_id == id) return &m;
  }
  return nullptr;
}

const EngineJitTimes* Snapshot::engine_jit(const std::string& engine) const {
  for (const EngineJitTimes& j : jit) {
    if (j.engine == engine) return &j;
  }
  return nullptr;
}

const TenantTelemetry* Snapshot::tenant(const std::string& name) const {
  for (const TenantTelemetry& t : tenants) {
    if (t.tenant == name) return &t;
  }
  return nullptr;
}

std::int64_t Snapshot::jit_total_ns() const {
  std::int64_t t = 0;
  for (const EngineJitTimes& j : jit) t += j.compile_ns;
  return t;
}

// ---------------------------------------------------------------------------
// Hot-path slow halves.

namespace detail {

void record_invocation_slow(std::int32_t method_id, std::uint64_t bytecodes,
                            std::uint8_t tier) {
  if (method_id < 0) return;
  ThreadSink& s = sink();
  s.ensure_method(static_cast<std::size_t>(method_id));
  s.invocations[static_cast<std::size_t>(method_id)] += 1;
  s.bytecodes[static_cast<std::size_t>(method_id)] += bytecodes;
  if (tier < kNumTiers) {
    s.tier_invocations[tier][static_cast<std::size_t>(method_id)] += 1;
  }
}

void count_slow(Counter c, std::uint64_t delta) {
  sink().counters[static_cast<std::size_t>(c)] += delta;
}

void record_allocation_slow(std::uint64_t bytes) {
  ThreadSink& s = sink();
  s.counters[static_cast<std::size_t>(Counter::Allocations)] += 1;
  s.counters[static_cast<std::size_t>(Counter::BytesAllocated)] += bytes;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Low-frequency hooks.

CompileContext::CompileContext(const char* engine_name) : prev_(tl_engine) {
  tl_engine = engine_name;
}
CompileContext::~CompileContext() { tl_engine = prev_; }

void record_jit_pass(std::int32_t method_id, JitPass pass, std::int64_t ns) {
  if (!enabled()) return;
  (void)method_id;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  jit_for_current_engine(h).pass_ns[static_cast<std::size_t>(pass)] += ns;
}

void record_compile(std::int32_t method_id, const std::string& method_name,
                    std::int64_t begin_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  EngineJitTimes& j = jit_for_current_engine(h);
  j.compile_ns += end_ns - begin_ns;
  j.methods_compiled += 1;
  h.method_jit_ns[method_id] += end_ns - begin_ns;
  TraceEvent ev;
  ev.name = "jit " + method_name;
  ev.cat = "jit";
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  ev.tid = tl_tid;
  ev.args_json = "\"engine\":\"" + j.engine + "\"";
  h.add_event(std::move(ev));
}

void record_tier_up(std::int32_t method_id, const std::string& method_name,
                    std::uint8_t from_tier, std::uint8_t to_tier) {
  if (!enabled()) return;
  count(Counter::TierUps);
  auto tier_name = [](std::uint8_t t) {
    return t == 0 ? "interp" : t == 1 ? "baseline" : "opt";
  };
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  TraceEvent ev;
  ev.name = "tier-up " + method_name;
  ev.cat = "tier";
  ev.begin_ns = support::now_ns();
  ev.end_ns = ev.begin_ns;  // instant event
  ev.tid = tl_tid;
  ev.args_json = std::string("\"method_id\":") + std::to_string(method_id) +
                 ",\"from\":\"" + tier_name(from_tier) + "\",\"to\":\"" +
                 tier_name(to_tier) + "\"";
  h.add_event(std::move(ev));
}

namespace {
// Shared shape of the OSR/deopt instant events (both land in cat "tier"
// next to the tier-up markers so the trace shows the whole promotion story).
void record_tier_instant(const char* verb, Counter counter,
                         std::int32_t method_id,
                         const std::string& method_name, std::int32_t il_pc) {
  if (!enabled()) return;
  count(counter);
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  TraceEvent ev;
  ev.name = std::string(verb) + " " + method_name;
  ev.cat = "tier";
  ev.begin_ns = support::now_ns();
  ev.end_ns = ev.begin_ns;  // instant event
  ev.tid = tl_tid;
  ev.args_json = std::string("\"method_id\":") + std::to_string(method_id) +
                 ",\"il_pc\":" + std::to_string(il_pc);
  h.add_event(std::move(ev));
}
}  // namespace

void record_osr_entry(std::int32_t method_id, const std::string& method_name,
                      std::int32_t il_pc) {
  record_tier_instant("osr-enter", Counter::OsrEntries, method_id,
                      method_name, il_pc);
}

void record_deopt(std::int32_t method_id, const std::string& method_name,
                  std::int32_t il_pc) {
  record_tier_instant("deopt", Counter::Deopts, method_id, method_name,
                      il_pc);
}

void record_gc_sweep(bool major, std::uint64_t bytes_allocated,
                     std::uint64_t bytes_freed, std::uint64_t objects_swept,
                     std::uint64_t segments, std::int64_t mark_ns,
                     std::int64_t sweep_ns) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  (void)major;  // the pause hook splits per kind; sweep facts are combined
  h.pending_gc_allocated = bytes_allocated;
  h.pending_gc_freed = bytes_freed;
  h.pending_gc_swept = objects_swept;
  h.gc.heap_segments = segments;
  h.gc.mark_ns += mark_ns;
  h.gc.sweep_ns += sweep_ns;
}

void record_gc_pause(bool major, std::int64_t begin_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  const auto pause = static_cast<std::uint64_t>(end_ns - begin_ns);
  h.gc_pause_ns.record(pause);
  if (major) {
    h.major_pause_ns.record(pause);
    h.gc.major_collections += 1;
  } else {
    h.minor_pause_ns.record(pause);
    h.gc.minor_collections += 1;
  }
  h.gc.collections += 1;
  h.gc.bytes_allocated += h.pending_gc_allocated;
  h.gc.bytes_freed += h.pending_gc_freed;
  h.gc.objects_swept += h.pending_gc_swept;
  TraceEvent ev;
  ev.name = major ? "GC pause (major)" : "GC pause (minor)";
  ev.cat = "gc";
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  ev.tid = tl_tid;
  ev.args_json = "\"bytes_freed\":" + std::to_string(h.pending_gc_freed) +
                 ",\"objects_swept\":" + std::to_string(h.pending_gc_swept);
  h.pending_gc_allocated = h.pending_gc_freed = h.pending_gc_swept = 0;
  h.add_event(std::move(ev));
}

void record_safepoint_stall(std::int64_t ns) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  h.safepoint_stall_ns.record(static_cast<std::uint64_t>(ns));
}

void record_monitor_contention_begin() {
  count(Counter::MonitorContended);
}

void record_monitor_contention_end(std::int64_t wait_ns) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  h.monitor_wait_ns.record(static_cast<std::uint64_t>(wait_ns));
}

void record_service_job(const std::string& tenant, std::uint8_t outcome,
                        std::uint64_t fuel_spent, std::uint64_t bytes_charged,
                        std::int64_t queue_ns, std::int64_t run_ns) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  TenantTelemetry& t = h.tenants[tenant];
  if (t.tenant.empty()) t.tenant = tenant;
  switch (outcome) {
    case 0: t.jobs_completed += 1; break;
    case 1: t.jobs_killed_fuel += 1; break;
    case 2: t.jobs_killed_memory += 1; break;
    case 3: t.jobs_faulted += 1; break;
    case 5: t.jobs_killed_deadline += 1; break;
    default: t.jobs_rejected += 1; break;
  }
  t.fuel_spent += fuel_spent;
  t.bytes_charged += bytes_charged;
  t.queue_ns += queue_ns;
  t.run_ns += run_ns;
}

void record_vec_loop(const char* kernel, std::uint64_t trips) {
  if (!enabled()) return;
  count(Counter::VecLoopsEntered);
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  h.vec_trips[kernel].record(trips);
}

void record_archive_load(std::uint64_t restored, std::uint64_t missed,
                         std::int64_t ns) {
  if (!enabled()) return;
  if (restored != 0) count(Counter::SnapshotMethodsRestored, restored);
  if (missed != 0) count(Counter::SnapshotMisses, missed);
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  h.archive_load_ns.record(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
}

void record_span(const char* cat, std::string name, std::int64_t begin_ns,
                 std::int64_t end_ns, std::string args_json) {
  if (!enabled()) return;
  Hub& h = hub();
  std::lock_guard<std::mutex> lock(h.mu);
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.begin_ns = begin_ns;
  ev.end_ns = end_ns;
  ev.tid = tl_tid;
  ev.args_json = std::move(args_json);
  h.add_event(std::move(ev));
}

void on_thread_attach(std::uint32_t thread_id) {
  tl_tid = thread_id;
  if (!enabled()) return;
  ThreadSink& s = sink();
  s.tid = thread_id;
  s.attach_ns = support::now_ns();
}

void on_thread_detach(std::uint32_t thread_id) {
  if (!enabled()) return;
  if (tl_sink == nullptr || tl_tid != thread_id || tl_sink->attach_ns == 0) {
    return;
  }
  record_span("thread", "thread-" + std::to_string(thread_id) + " run",
              tl_sink->attach_ns, support::now_ns());
}

}  // namespace hpcnet::vm::telemetry
