// Monotonic wall-clock timing helpers shared by the VM's telemetry and the
// benchmark harnesses. The paper keeps support code (timers, RNG) identical
// across the Java and C# versions of every benchmark; we mirror that by
// funnelling all measurement through this one clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace hpcnet::support {

/// Nanoseconds since an arbitrary (per-process) steady epoch.
std::int64_t now_ns();

/// Seconds between two now_ns() readings.
double elapsed_seconds(std::int64_t start_ns, std::int64_t end_ns);

/// A simple start/stop accumulating stopwatch, modelled on the JGF timer:
/// repeated start()/stop() pairs accumulate into time(); reset() clears.
class Stopwatch {
 public:
  void start() { start_ns_ = now_ns(); running_ = true; }
  void stop() {
    if (running_) { accum_ns_ += now_ns() - start_ns_; running_ = false; }
  }
  void reset() { accum_ns_ = 0; running_ = false; }

  /// Accumulated time in seconds (excludes a currently-running interval).
  double seconds() const { return static_cast<double>(accum_ns_) * 1e-9; }
  std::int64_t nanos() const { return accum_ns_; }
  bool running() const { return running_; }

 private:
  std::int64_t start_ns_ = 0;
  std::int64_t accum_ns_ = 0;
  bool running_ = false;
};

}  // namespace hpcnet::support
