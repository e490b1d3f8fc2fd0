#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "vm/telemetry/telemetry.hpp"
#include "vm/telemetry/trace_writer.hpp"

namespace perfbench {

namespace telemetry = hpcnet::vm::telemetry;

const std::vector<MetricDef>& end_to_end_metrics() {
  // Each workload times four legs (README.md "End-to-end metrics"):
  //   compute   — per-call ms, geomean over the 15 kernels, on rotor10,
  //               mono023, clr11 and clr11.vec;
  //   coldstart — boot ms (p25 of the run's boots): cold, snapshot,
  //               tiered, interp;
  //   serve     — open-loop p50 and p99, closed-loop ms per job
  //               (1000 / saturated jobs/s) and closed-loop p99.
  // Compute legs take the run's fastest call (compute.cpp), coldstart legs
  // the p25 boot (coldstart.cpp); serve legs are whole-phase statistics.
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},    {"peak_rss_mb", "MB"}, {"leg1_ms", "ms"},
      {"leg2_ms", "ms"},   {"leg3_ms", "ms"},     {"leg4_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& headline_metrics() {
  static const std::vector<MetricDef> defs = {
      {"mflops.rotor10", "MFlops"},   {"mflops.mono023", "MFlops"},
      {"mflops.clr11", "MFlops"},     {"mflops.clr11-vec", "MFlops"},
      {"jgf_ops.rotor10", "1/s"},     {"jgf_ops.mono023", "1/s"},
      {"jgf_ops.clr11", "1/s"},       {"boot_ms.cold", "ms"},
      {"boot_ms.snapshot", "ms"},     {"boot_ms.tiered", "ms"},
      {"boot_ms.interp", "ms"},       {"job_p50_ms", "ms"},
      {"job_p99_ms", "ms"},           {"job_samples", "count"},
      {"saturated_jobs_per_s", "1/s"}, {"failed_frac", "frac"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  // Generated names live here so the MetricDefs can point into them.
  static const std::vector<std::string> kernel_names = [] {
    std::vector<std::string> n;
    for (const char* tier :
         {"interpreter", "baseline", "optimizing", "veckernels"}) {
      for (const char* k :
           {"fft-s", "sor-s", "mc-s", "sparse-s", "lu-s", "fft-l", "sor-l",
            "mc-l", "sparse-l", "lu-l", "fib", "sieve", "hanoi", "heapsort",
            "crypt"}) {
        n.push_back(std::string(tier) + "." + k + "_ms");
      }
    }
    return n;
  }();
  static const std::vector<std::string> pass_names = [] {
    std::vector<std::string> n;
    for (const char* p : {"inline", "translate", "optimize", "cse", "licm",
                          "bce", "veclower", "compact", "finalize"}) {
      n.push_back(std::string("regcompile.") + p + "_ms");
    }
    return n;
  }();
  static const std::vector<MetricDef> defs = [] {
    // The headline values come from the untraced half of the traced run.
    std::vector<MetricDef> d = headline_metrics();
    for (const std::string& n : kernel_names) d.push_back({n.c_str(), "ms"});
    d.insert(d.end(), {
        {"interpreter.il_ops", "count"},
        {"baseline.il_ops", "count"},
        {"interpreter.ns_per_il_op", "ns"},
        {"baseline.ns_per_il_op", "ns"},
        {"veckernels.loops_entered", "count"},
        {"veccompile.loops_lowered", "count"},
        {"kernels.native_mflops", "MFlops"},
        {"kernels.native_jgf_ops", "1/s"},
        {"heap.gcs", "count"},
        {"heap.gc_pause_ms", "ms"},
        {"regcompile.timed_compile_ms", "ms"},
        {"cil.build_ms", "ms"},
        {"verifier.verify_ms", "ms"},
        {"regcompile.compile_ms", "ms"},
        {"regcompile.methods", "count"},
        {"regcompile.ir_instrs", "count"},
    });
    for (const std::string& n : pass_names) d.push_back({n.c_str(), "ms"});
    d.insert(d.end(), {
        {"tiered.tier_ups", "count"},
        {"tiered.osr_entries", "count"},
        {"archive.bytes", "bytes"},
        {"archive.load_ms", "ms"},
        {"archive.methods_restored", "count"},
        {"archive.misses", "count"},
        {"net.overhead_ms.p50", "ms"},
        {"net.overhead_ms.p99", "ms"},
        {"service.queue_ms.p50", "ms"},
        {"service.queue_ms.p99", "ms"},
        {"service.run_ms.short", "ms"},
        {"service.run_ms.alloc", "ms"},
        {"service.run_ms.long", "ms"},
        {"service.fuel_per_job.short", "count"},
        {"service.fuel_per_job.alloc", "count"},
        {"service.fuel_per_job.long", "count"},
        {"service.time_share_pct.short", "%"},
        {"service.time_share_pct.alloc", "%"},
        {"service.time_share_pct.long", "%"},
        {"heap.minor_gcs", "count"},
        {"heap.major_gcs", "count"},
        {"heap.gc_pause_ms.p99", "ms"},
        {"heap.safepoint_stall_ms.p99", "ms"},
        {"heap.alloc_mb", "MB"},
        {"generator.late_ms.p99", "ms"},
        {"saturated.job_p99_ms", "ms"},
        {"trace_overhead_pct", "%"},
    });
    return d;
  }();
  return defs;
}

// --- Report ------------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (first_failures_.size() < 5) first_failures_.push_back(what);
  }
  values_["failed_frac"] =
      static_cast<double>(failed_) / static_cast<double>(attempted_);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(std::ostream& os, const std::vector<MetricDef>& defs) const {
  for (const std::string& f : first_failures_) {
    os << "# FAILED: " << f << "\n";
  }
  os << "# " << std::left << std::setw(34) << "metric" << std::right
     << std::setw(16) << "value"
     << "  unit\n";
  for (const MetricDef& d : defs) {
    if (std::string(d.name) == "failed_frac") continue;
    os << "# " << std::left << std::setw(34) << d.name << std::right
       << std::setw(16) << std::setprecision(6) << get(d.name) << "  "
       << d.unit << "\n";
  }
  if (&defs != &per_layer_metrics()) {
    for (const MetricDef& d : headline_metrics()) {
      if (!has(d.name) || std::string(d.name) == "failed_frac") continue;
      os << "# " << std::left << std::setw(34) << d.name << std::right
         << std::setw(16) << get(d.name) << "  " << d.unit << "\n";
    }
  }
  os << "# " << std::left << std::setw(34) << "failed_frac" << std::right
     << std::setw(16) << get("failed_frac") << "  frac (" << failed_ << " of "
     << attempted_ << " checked results)\n";

  std::string line = "{\"correct\": ";
  line += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  line += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + std::string(d.name) + "\": {\"value\": " +
            json_number(get(d.name)) + ", \"unit\": \"" + d.unit + "\"}";
  }
  line += "}}";
  os << line << std::endl;
}

void Samples::emit(Report& r) const {
  for (const auto& [name, v] : s_) r.set(name, perfbench::median(v));
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// --- checks ----------------------------------------------------------------

bool same_result(hpcnet::vm::ValType type, hpcnet::vm::Slot got,
                 hpcnet::vm::Slot want) {
  using hpcnet::vm::ValType;
  switch (type) {
    case ValType::I32:
      return got.i32 == want.i32;
    case ValType::I64:
      return got.i64 == want.i64;
    case ValType::F64: {
      const double denom = std::max(std::fabs(want.f64), 1e-30);
      return std::fabs(got.f64 - want.f64) / denom <= 1e-9;
    }
    default:
      return got.raw == want.raw;
  }
}

// --- timing and process facts ----------------------------------------------

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median_setup_seconds(const std::function<void()>& fn) {
  std::vector<double> secs;
  const std::int64_t start = now_ns();
  const auto min_ns = static_cast<std::int64_t>(kSetupMinSeconds * 1e9);
  while (secs.size() < static_cast<std::size_t>(kSetupMinReps) ||
         now_ns() - start < min_ns) {
    const std::int64_t t0 = now_ns();
    fn();
    secs.push_back(ms_between(t0, now_ns()) * 1e-3);
  }
  std::cout << "# setup: median of " << secs.size() << " repetitions\n";
  return median(secs);
}

// --- traced run --------------------------------------------------------------

namespace {
// Span events of earlier collection windows (set_tracing(true) clears the
// telemetry hub, which holds only the current window).
std::vector<telemetry::TraceEvent>& kept_events() {
  static std::vector<telemetry::TraceEvent> events;
  return events;
}

void keep_current_events() {
  std::vector<telemetry::TraceEvent> ev = telemetry::snapshot().events;
  std::vector<telemetry::TraceEvent>& kept = kept_events();
  kept.insert(kept.end(), std::make_move_iterator(ev.begin()),
              std::make_move_iterator(ev.end()));
}
}  // namespace

void set_tracing(bool on) {
  if (on) {
    keep_current_events();
    telemetry::reset();
  }
  telemetry::set_enabled(on);
}

void span(const char* layer, const std::string& name, std::int64_t t0,
          std::int64_t t1, std::uint64_t trace_id, const char* parent) {
  if (!telemetry::enabled()) return;
  telemetry::record_span("bench", name, t0, t1,
                         std::string("\"layer\":\"") + layer +
                             "\",\"trace_id\":" + std::to_string(trace_id) +
                             ",\"parent\":\"" + parent + "\"");
}

void write_trace(const std::string& path) {
  if (path.empty()) return;
  keep_current_events();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace file " << path << "\n";
    return;
  }
  telemetry::Snapshot all;
  all.events = std::move(kept_events());
  telemetry::write_chrome_trace(out, all);
}

namespace {
// Values clear_vm_env() found ("" when unset).
std::string env_gc_threads;
std::string env_gc_lazy_sweep;

std::string take_env(const char* name) {
  const char* v = std::getenv(name);
  std::string out = v ? v : "";
  unsetenv(name);
  return out;
}
}  // namespace

void clear_vm_env() {
  env_gc_threads = take_env("HPCNET_GC_THREADS");
  env_gc_lazy_sweep = take_env("HPCNET_GC_LAZY_SWEEP");
}

void print_stamp(std::ostream& os, const Options& o) {
  const char* env_tel = std::getenv("HPCNET_TELEMETRY");
  os << "# stamp {\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"tiny\": " << (o.tiny ? 1 : 0)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"HPCNET_TELEMETRY_build\": " << PERFBENCH_TELEMETRY_BUILD
     << ", \"HPCNET_SIMD_build\": " << PERFBENCH_SIMD_BUILD
     << ", \"HPCNET_TELEMETRY_env\": \"" << (env_tel ? env_tel : "") << "\""
     << ", \"telemetry_forced_off_in_untraced_legs\": true"
     << ", \"HPCNET_GC_THREADS_env\": \"" << env_gc_threads << "\""
     << ", \"HPCNET_GC_LAZY_SWEEP_env\": \"" << env_gc_lazy_sweep << "\""
     << ", \"gc_env_cleared\": true"
     << ", \"setup_min_reps\": " << kSetupMinReps
     << ", \"setup_min_s\": " << kSetupMinSeconds
     << ", \"offered_rate_per_s\": " << kServeOfferedRatePerS << "}\n";
}

}  // namespace perfbench
