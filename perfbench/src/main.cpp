// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload compute|coldstart|serve --seed N --seconds S
//             --trace 0|1 [--trace-file PATH]
//             [--tiny] [--corrupt-expected]
//
// Prints a setup stamp and a metric table as '#' lines, then one JSON object
// as the last stdout line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics with VM telemetry forced off;
// --trace 1 reports the per-layer metrics of a run that is half untraced
// and half traced. Exit code 0 means the run completed (check "correct"
// for result validity); any other code means it could not run.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload compute|coldstart|serve --seed N"
               " --seconds S --trace 0|1 [--trace-file PATH] [--tiny]"
               " [--corrupt-expected]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--trace-file") {
        o.trace_file = value();
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--corrupt-expected") {
        o.corrupt = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload != "compute" && o.workload != "coldstart" &&
      o.workload != "serve") {
    usage("--workload must be compute, coldstart or serve");
  }
  if (!(o.seconds > 0)) usage("bad --seconds");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options o = parse(argc, argv);
  perfbench::clear_vm_env();
  // Untraced runs measure with telemetry off whatever the environment says
  // (HPCNET_TELEMETRY=1 would otherwise switch it on at process start).
  hpcnet::vm::telemetry::set_enabled(false);
  perfbench::print_stamp(std::cout, o);

  perfbench::Report r;
  try {
    if (o.workload == "compute") {
      perfbench::run_compute(o, r);
    } else if (o.workload == "coldstart") {
      perfbench::run_coldstart(o, r);
    } else {
      perfbench::run_serve(o, r);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  r.set("peak_rss_mb", perfbench::peak_rss_mb());
  if (o.trace) perfbench::write_trace(o.trace_file);
  r.print(std::cout, o.trace ? perfbench::per_layer_metrics()
                             : perfbench::end_to_end_metrics());
  return 0;
}
