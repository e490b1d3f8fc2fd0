// Shared plumbing of the perfbench binary: run options, the metric report
// (the JSON object that ends stdout), result checks, small statistics
// helpers, and the traced run's spans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/timer.hpp"
#include "vm/value.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;           // test-model sizes: the benchmark's own tests
  bool corrupt = false;        // perturb one expected value (smoke check)
  std::string trace_file;      // traced run: chrome trace written here
};

/// Names and units of every metric the benchmark reports. The lists mirror
/// BENCHMARK.json; every workload emits every name of the list its mode
/// prints (a layer the workload does not load reports 0).
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();
/// The leading entries of per_layer_metrics(): each workload's headline
/// values under their own names (mflops.*, boot_ms.*, job_p50_ms, ...),
/// also listed in the human-readable table of an untraced run.
const std::vector<MetricDef>& headline_metrics();

/// Collects metric values and the correctness tally of one run.
class Report {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;

  /// One checked result: counted as attempted, and as failed unless `ok`
  /// (failed_frac follows).
  void check(bool ok, const std::string& what);

  /// Human-readable table of `defs`, of the headline metrics this run set
  /// and of failed_frac, then the result JSON object (`defs` only) as the
  /// last line.
  void print(std::ostream& os, const std::vector<MetricDef>& defs) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> first_failures_;
};

/// Per-name sample lists; a metric is the median of its samples.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  /// Sets every sampled name on `r` to its median.
  void emit(Report& r) const;

 private:
  std::map<std::string, std::vector<double>> s_;
};

// --- statistics ------------------------------------------------------------
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty input.
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

// --- checks ----------------------------------------------------------------
/// True when `got` equals `want` for a method returning `type`: integers
/// exactly, f64 to 1e-9 relative (the suite's cross-engine tolerance).
bool same_result(hpcnet::vm::ValType type, hpcnet::vm::Slot got,
                 hpcnet::vm::Slot want);

// --- timing and process facts ----------------------------------------------
using hpcnet::support::now_ns;
double ms_between(std::int64_t t0, std::int64_t t1);
double peak_rss_mb();

/// Setup is repeated at least kSetupMinReps times and for at least
/// kSetupMinSeconds. One setup takes 10-60 ms, so a few repetitions fall
/// inside one short burst of load on a shared host, and the median moves
/// with it.
constexpr int kSetupMinReps = 31;
constexpr double kSetupMinSeconds = 2.0;
/// Repeats `fn` as above; returns the median wall time in seconds. The last
/// repetition's side effects are kept (setup keeps its final state).
double median_setup_seconds(const std::function<void()>& fn);

// --- traced run --------------------------------------------------------------
/// Switches VM telemetry on or off (telemetry::set_enabled). Switching on
/// starts a fresh collection window: the events of the previous window are
/// kept for write_trace, everything else is cleared.
void set_tracing(bool on);
/// Records a benchmark span in the telemetry trace ("bench" category) when
/// tracing is on: `layer` names the repo module the call went into, spans
/// of one unit of work share `trace_id`, and `parent` names the enclosing
/// span ("" at the top).
void span(const char* layer, const std::string& name, std::int64_t t0,
          std::int64_t t1, std::uint64_t trace_id, const char* parent);
/// Writes the collected telemetry (benchmark spans, JIT compiles, GC
/// pauses) as a chrome://tracing file; no-op for an empty path.
void write_trace(const std::string& path);

/// Run-time switches of the VM that change what the benchmark measures.
/// clear_vm_env() unsets them before any VM exists (the heap reads the GC
/// ones when it is constructed) and remembers the values it found for the
/// stamp; telemetry is forced off separately.
void clear_vm_env();

/// Setup stamp printed before the result: host, build and run settings.
void print_stamp(std::ostream& os, const Options& o);

// --- workloads ---------------------------------------------------------------
void run_compute(const Options& o, Report& r);
void run_coldstart(const Options& o, Report& r);
void run_serve(const Options& o, Report& r);

/// serve's open-loop offered rate, jobs/s. Fixed, never derived at run time.
/// The closed-loop saturated rate of clr11 with 2 workers was 6500-7400
/// jobs/s (medians of sets of runs on a 4-core Xeon VM), so this is 36-42%. At half of
/// it (3700) the open-loop p99 spread 17% across seeds against 6% here.
constexpr double kServeOfferedRatePerS = 2700;

}  // namespace perfbench
