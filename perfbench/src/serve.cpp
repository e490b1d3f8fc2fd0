// serve: a VmServer on loopback in front of an ExecutionService (clr11, 2
// workers). Two tenants — "open" unmetered, "metered" with a fuel budget no
// job reaches — each submit over one VmClient connection. The seeded job mix
// is mostly short kernels (tens of µs), some allocation loops that make the
// workers collect concurrently, and a few ms-long SciMark jobs. Every RESULT
// is checked against the native twin computed in-process.
//
// The timed region is kRounds rounds. Each round boots a fresh stack (new
// heap, new service and server threads, new connections) and runs two phases
// of equal length:
//   open loop   — each connection sends on its own seeded Poisson schedule
//                 (half the offered rate each); latency is timed from the
//                 job's scheduled send time, and generator lateness is kept;
//   closed loop — each connection keeps kDepth jobs in flight; completions
//                 per second stand in for the saturated rate.
// The p50 and rate legs are medians over the rounds; the p99 legs pool the
// jobs of every round.
#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cil/jg.hpp"
#include "cil/micro.hpp"
#include "cil/sm.hpp"
#include "kernels/jgf.hpp"
#include "kernels/scimark.hpp"
#include "programs.hpp"
#include "vm/net/client.hpp"
#include "vm/net/server.hpp"
#include "vm/service/service.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace perfbench {

namespace vm = hpcnet::vm;
namespace kn = hpcnet::kernels;
namespace net = hpcnet::vm::net;
namespace svc = hpcnet::vm::service;
namespace tel = hpcnet::vm::telemetry;
using vm::Slot;
using vm::ValType;

namespace {

enum JobClass : int { kShort = 0, kAlloc = 1, kLong = 2 };
constexpr const char* kClassNames[] = {"short", "alloc", "long"};
// Shares of the job mix. An assumption, not measured traffic: short jobs are
// the majority and long jobs a few, and the shares are set so that each class
// carries a quarter to a half of worker time (the traced run reports it).
constexpr double kClassShare[] = {0.78, 0.17, 0.05};
constexpr int kDepth = 4;  // closed loop: jobs in flight per connection
// Stacks differ (thread placement, heap layout): within one run, a round's
// open-loop p50 ranged up to 2x that of the round before. The median over
// this many fresh stacks absorbs such a round.
constexpr int kRounds = 10;

struct JobSpec {
  JobClass cls;
  std::string label;
  std::int32_t method;
  std::vector<std::int32_t> args;
  ValType ret;
  std::function<Slot()> native;  // in-process reference
  Slot expect{};
};

/// Builds the job programs into `v` (timed by the caller as cil builder +
/// verifier work); expected values are filled in separately.
std::vector<JobSpec> build_specs(vm::VirtualMachine& v, bool tiny) {
  namespace cil = hpcnet::cil;
  std::vector<JobSpec> s;
  for (int n : {12, 14, 16}) {
    s.push_back({kShort, "fib", cil::build_jg_fib(v), {n}, ValType::I64,
                 [n] { return Slot::from_i64(kn::fib::compute(n)); }});
  }
  for (int n : {1000, 2000, 4000}) {
    s.push_back({kShort, "sieve", cil::build_jg_sieve(v), {n}, ValType::I32,
                 [n] { return Slot::from_i32(kn::sieve::count_primes(n)); }});
  }
  for (int n : {8, 10, 12}) {
    s.push_back({kShort, "hanoi", cil::build_jg_hanoi(v), {n}, ValType::I64,
                 [n] { return Slot::from_i64(kn::hanoi::solve(n)); }});
  }
  for (int it : {2, 4}) {
    s.push_back({kShort, "sor", cil::build_sm_sor(v), {16, it}, ValType::F64,
                 [it] { return Slot::from_f64(kn::sor::checksum(16, it)); }});
  }
  // Allocation loops return the last object's field, the array length or
  // the last boxed value.
  const int scale = tiny ? 4 : 1;
  for (int n : {5000 / scale, 10000 / scale}) {
    s.push_back({kAlloc, "create-object", cil::build_create_object(v), {n},
                 ValType::I32, [n] { return Slot::from_i32(n - 1); }});
    s.push_back({kAlloc, "create-array", cil::build_create_array(v, 16), {n},
                 ValType::I32, [] { return Slot::from_i32(16); }});
    s.push_back({kAlloc, "create-box", cil::build_create_box(v), {n},
                 ValType::I32, [n] { return Slot::from_i32(n - 1); }});
  }
  const int lu_n = tiny ? 24 : 80;
  const int fft_n = tiny ? 64 : 512;
  const int sp_n = tiny ? 50 : 500;
  s.push_back({kLong, "lu", cil::build_sm_lu(v), {lu_n}, ValType::F64,
               [lu_n] { return Slot::from_f64(kn::lu::checksum(lu_n)); }});
  s.push_back({kLong, "fft", cil::build_sm_fft(v), {fft_n, 2}, ValType::F64,
               [fft_n] {
                 return Slot::from_f64(kn::fft::roundtrip_checksum(fft_n, 2));
               }});
  s.push_back({kLong, "sparse", cil::build_sm_sparse(v), {sp_n, sp_n * 5, 5},
               ValType::F64, [sp_n] {
                 return Slot::from_f64(kn::sparse::checksum(sp_n, sp_n * 5, 5));
               }});
  return s;
}

std::vector<net::WireValue> wire_args(const JobSpec& j) {
  std::vector<net::WireValue> out;
  for (std::int32_t a : j.args) out.push_back(net::WireValue::from_i32(a));
  return out;
}

bool result_ok(const JobSpec& j, const net::WireResult& w) {
  if (w.outcome != static_cast<std::uint8_t>(svc::JobOutcome::Completed)) {
    return false;
  }
  Slot got;
  got.raw = w.value.raw;
  return same_result(j.ret, got, j.expect);
}

/// Seeded draws from the class mix, then uniformly within the class.
class MixDraw {
 public:
  MixDraw(const std::vector<JobSpec>& specs, std::uint64_t seed) : rng_(seed) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      by_class_[specs[i].cls].push_back(i);
    }
  }
  std::size_t next() {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    int cls = kShort;
    double acc = kClassShare[kShort];
    while (u >= acc && cls < kLong) acc += kClassShare[++cls];
    const std::vector<std::size_t>& pool = by_class_[cls];
    return pool[std::uniform_int_distribution<std::size_t>(
        0, pool.size() - 1)(rng_)];
  }
  double gap_s(double rate) {
    return std::exponential_distribution<double>(rate)(rng_);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::size_t> by_class_[3];
};

/// One tenant connection. `sent` counts its submits: VmClient numbers
/// requests from 1, so the next request id is sent + 1.
struct Conn {
  std::string tenant;
  net::VmClient client;
  std::uint64_t sent = 0;
};

/// One job as the client saw it. The sender thread writes sent_ns, the
/// receiver thread the result fields (distinct members, read after join).
struct Done {
  std::size_t spec = 0;
  bool metered = false;
  std::int64_t due_ns = 0;   // scheduled send time (open loop) or send time
  std::int64_t sent_ns = 0;  // when send_submit started
  std::int64_t recv_ns = 0;  // when the RESULT frame was read
  std::int64_t queue_ns = 0;
  std::int64_t run_ns = 0;
  std::uint64_t fuel = 0;
  bool ok = false;
};

struct Phase {
  std::vector<Done> jobs;
  double wall_s = 0;
};

/// Runs one thread per callable and rethrows the first failure after all
/// have been joined.
void run_threads(const std::vector<std::function<void()>>& fns) {
  std::mutex mu;
  std::exception_ptr failure;
  std::vector<std::thread> threads;
  for (const auto& fn : fns) {
    threads.emplace_back([&fn, &mu, &failure] {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

Phase open_loop(std::vector<Conn>& conns, const std::vector<JobSpec>& specs,
                double rate, double seconds, std::uint64_t seed) {
  const std::int64_t start = now_ns() + 5'000'000;  // let the threads start
  std::vector<std::vector<Done>> per(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    MixDraw mix(specs, seed * 1000 + c);
    const double conn_rate = rate / static_cast<double>(conns.size());
    for (double t = mix.gap_s(conn_rate); t < seconds;
         t += mix.gap_s(conn_rate)) {
      Done d;
      d.spec = mix.next();
      d.metered = conns[c].tenant == "metered";
      d.due_ns = start + static_cast<std::int64_t>(t * 1e9);
      per[c].push_back(d);
    }
  }
  std::vector<std::function<void()>> fns;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    Conn& conn = conns[c];
    std::vector<Done>& jobs = per[c];
    const std::uint64_t base = conn.sent + 1;
    conn.sent += jobs.size();
    fns.push_back([&conn, &jobs, &specs] {
      for (Done& d : jobs) {
        // Sleep to ~100 µs before the due time, then spin.
        for (std::int64_t left = d.due_ns - now_ns(); left > 0;
             left = d.due_ns - now_ns()) {
          if (left > 150'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - 100'000));
          }
        }
        d.sent_ns = now_ns();
        conn.client.send_submit(specs[d.spec].method, wire_args(specs[d.spec]));
      }
    });
    fns.push_back([&conn, &jobs, &specs, base] {
      for (std::size_t n = 0; n < jobs.size(); ++n) {
        const net::WireResult w = conn.client.recv_result();
        const std::int64_t t = now_ns();
        Done& d = jobs.at(w.request_id - base);
        d.recv_ns = t;
        d.queue_ns = w.queue_ns;
        d.run_ns = w.run_ns;
        d.fuel = w.fuel_spent;
        d.ok = result_ok(specs[d.spec], w);
      }
    });
  }
  run_threads(fns);
  Phase p;
  for (auto& jobs : per) p.jobs.insert(p.jobs.end(), jobs.begin(), jobs.end());
  p.wall_s = ms_between(start, now_ns()) * 1e-3;
  return p;
}

Phase closed_loop(std::vector<Conn>& conns, const std::vector<JobSpec>& specs,
                  double seconds, std::uint64_t seed) {
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::vector<Done>> per(conns.size());
  std::vector<std::function<void()>> fns;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    fns.push_back([&, c] {
      Conn& conn = conns[c];
      MixDraw mix(specs, seed * 1000 + 500 + c);
      std::map<std::uint64_t, Done> inflight;
      const auto send = [&] {
        Done d;
        d.spec = mix.next();
        d.metered = conn.tenant == "metered";
        d.due_ns = d.sent_ns = now_ns();
        inflight[conn.client.send_submit(specs[d.spec].method,
                                         wire_args(specs[d.spec]))] = d;
        ++conn.sent;
      };
      for (int i = 0; i < kDepth; ++i) send();
      while (!inflight.empty()) {
        const net::WireResult w = conn.client.recv_result();
        const std::int64_t t = now_ns();
        const auto it = inflight.find(w.request_id);
        if (it == inflight.end()) {
          throw std::runtime_error("unknown request id");
        }
        Done d = it->second;
        inflight.erase(it);
        d.recv_ns = t;
        d.queue_ns = w.queue_ns;
        d.run_ns = w.run_ns;
        d.fuel = w.fuel_spent;
        d.ok = result_ok(specs[d.spec], w);
        per[c].push_back(d);
        if (t < end) send();
      }
    });
  }
  run_threads(fns);
  Phase p;
  p.wall_s = ms_between(start, now_ns()) * 1e-3;
  for (auto& jobs : per) p.jobs.insert(p.jobs.end(), jobs.begin(), jobs.end());
  return p;
}

std::vector<double> latency_ms(const Phase& p) {
  std::vector<double> out;
  for (const Done& d : p.jobs) out.push_back(ms_between(d.due_ns, d.recv_ns));
  return out;
}

/// The VM, service, server and client connections, torn down client-first.
/// Teardown hands the freed heap back to the OS, so every round starts from
/// the same resident set and the process peak is one stack's, not the sum of
/// whatever earlier stacks left in the allocator.
struct Stack {
  std::unique_ptr<vm::VirtualMachine> machine;
  std::vector<JobSpec> specs;
  std::unique_ptr<svc::ExecutionService> service;
  std::unique_ptr<net::VmServer> server;
  std::vector<Conn> conns;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { teardown(); }

  void teardown() {
    conns.clear();
    if (server) server->stop();
    server.reset();
    service.reset();
    specs.clear();
    machine.reset();
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
  }
};

}  // namespace

void run_serve(const Options& o, Report& r) {
  Stack st;
  Samples layer;

  // Boots the whole stack and warms every job program; `sample` records the
  // builder, verifier and JIT layers (traced runs, during setup).
  const auto boot = [&](bool sample) {
    st.teardown();
    if (sample) set_tracing(true);
    st.machine = std::make_unique<vm::VirtualMachine>();
    const std::int64_t b0 = now_ns();
    st.specs = build_specs(*st.machine, o.tiny);
    const std::int64_t b1 = now_ns();
    for (JobSpec& j : st.specs) j.expect = j.native();
    if (o.corrupt) st.specs.front().expect.i64 += 1;
    svc::ServiceOptions opts;
    opts.workers = 2;
    st.service = std::make_unique<svc::ExecutionService>(
        *st.machine, vm::profiles::by_name("clr11"), opts);
    st.service->add_tenant({.name = "open"});
    st.service->add_tenant({.name = "metered", .fuel_per_job = 1ull << 50});
    net::ServerOptions so;
    so.open_tenants = true;
    st.server = std::make_unique<net::VmServer>(*st.machine, *st.service, so);
    st.server->start();
    for (const char* tenant : {"open", "metered"}) {
      Conn c;
      c.tenant = tenant;
      c.client.connect("127.0.0.1", st.server->port());
      c.client.hello(tenant, "");
      st.conns.push_back(std::move(c));
    }
    // Warm every job program on both tenants (the workers share one code
    // cache, so this compiles everything the timed phases run).
    for (Conn& c : st.conns) {
      for (const JobSpec& j : st.specs) {
        const net::WireResult w = c.client.call(j.method, wire_args(j));
        ++c.sent;
        r.check(result_ok(j, w), "warmup " + j.label + " @ " + c.tenant);
      }
    }
    if (sample) {
      sample_jit(layer, "clr11");
      set_tracing(false);
      const double verify = reverify_ms(st.machine->module());
      layer.add("verifier.verify_ms", verify);
      layer.add("cil.build_ms", ms_between(b0, b1) - verify);
    }
  };
  const double setup_s = median_setup_seconds([&] { boot(o.trace); });

  const auto check_all = [&](const Phase& p, const char* phase) {
    for (const Done& d : p.jobs) {
      r.check(d.ok, std::string(phase) + " job " + st.specs[d.spec].label +
                        ": wrong result or not Completed");
    }
  };
  // The open and the closed loop get half of a round's time each. `stream`
  // seeds the open loop's schedule and mix, stream + 1 the closed loop's.
  const auto run_round = [&](double seconds, std::uint64_t stream,
                             Phase& open, Phase& closed) {
    open = open_loop(st.conns, st.specs, kServeOfferedRatePerS, 0.5 * seconds,
                     stream);
    closed = closed_loop(st.conns, st.specs, 0.5 * seconds, stream + 1);
    check_all(open, "open-loop");
    check_all(closed, "closed-loop");
  };
  // leg1..leg4: open-loop p50, open-loop p99, closed-loop ms per job and
  // closed-loop p99. The p50 and the rate are medians of per-round values;
  // the p99s pool every round's jobs (a round has only ~40 past its p99).
  const auto legs_of = [](const std::vector<Phase>& opens,
                          const std::vector<Phase>& closeds) {
    std::vector<double> p50, ms_per_job, open_lat, closed_lat;
    for (const Phase& p : opens) {
      const std::vector<double> lat = latency_ms(p);
      p50.push_back(median(lat));
      open_lat.insert(open_lat.end(), lat.begin(), lat.end());
    }
    for (const Phase& p : closeds) {
      ms_per_job.push_back(1000.0 * p.wall_s /
                           static_cast<double>(p.jobs.size()));
      const std::vector<double> lat = latency_ms(p);
      closed_lat.insert(closed_lat.end(), lat.begin(), lat.end());
    }
    return std::vector<double>{median(p50), percentile(open_lat, 99),
                               median(ms_per_job), percentile(closed_lat, 99)};
  };

  const double half = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<Phase> opens(kRounds);
  std::vector<Phase> closeds(kRounds);
  std::size_t open_jobs = 0;
  std::size_t closed_jobs = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) boot(false);
    run_round(half / kRounds,
              (o.seed * 64 + static_cast<std::uint64_t>(round)) * 2,
              opens[round], closeds[round]);
    open_jobs += opens[round].jobs.size();
    closed_jobs += closeds[round].jobs.size();
  }
  r.check(o.tiny || open_jobs >= 1000,
          "open loop ran fewer than 1000 jobs; raise the rate");
  const std::vector<double> legs_off = legs_of(opens, closeds);
  r.set("setup_s", setup_s);
  for (std::size_t i = 0; i < legs_off.size(); ++i) {
    r.set("leg" + std::to_string(i + 1) + "_ms", legs_off[i]);
  }
  r.set("job_p50_ms", legs_off[0]);
  r.set("job_p99_ms", legs_off[1]);
  r.set("job_samples", static_cast<double>(open_jobs));
  r.set("saturated_jobs_per_s", 1000.0 / legs_off[2]);
  std::cout << "# serve: " << kRounds << " rounds; open loop " << open_jobs
            << " jobs at " << kServeOfferedRatePerS
            << "/s offered; closed loop " << closed_jobs << " jobs at depth "
            << kDepth << " per connection\n";
  std::cout << "# serve: per-round open-loop p50 ms:";
  for (const Phase& p : opens) std::cout << " " << median(latency_ms(p));
  std::cout << "\n";
  opens.clear();
  closeds.clear();
  if (!o.trace) return;

  // The traced half runs one round on the last stack.
  set_tracing(true);
  std::vector<Phase> open_on(1);
  std::vector<Phase> closed_on(1);
  run_round(half, (o.seed * 64 + kRounds) * 2, open_on[0], closed_on[0]);
  const std::vector<double> legs_on = legs_of(open_on, closed_on);
  const tel::Snapshot snap = tel::snapshot();
  std::uint64_t job_id = 0;
  for (const Phase* p : {&open_on[0], &closed_on[0]}) {
    for (const Done& d : p->jobs) {
      span("net", st.specs[d.spec].label, d.sent_ns, d.recv_ns, ++job_id, "");
    }
  }
  set_tracing(false);

  std::vector<double> overhead;
  for (std::size_t i = 0; i < legs_on.size(); ++i) {
    overhead.push_back((legs_on[i] / legs_off[i] - 1.0) * 100.0);
  }
  r.set("trace_overhead_pct", median(overhead));

  // Client latency split from outside: RESULT carries queue and run time,
  // the rest (encode, loopback, event loop, decode) is the net layer's.
  std::vector<double> client_ms, net_ms, queue_ms, all_run_ms, late_ms;
  std::vector<double> run_ms[3], fuel[3];
  for (const Done& d : open_on[0].jobs) {
    const double client = ms_between(d.sent_ns, d.recv_ns);
    const double q = static_cast<double>(d.queue_ns) * 1e-6;
    const double run = static_cast<double>(d.run_ns) * 1e-6;
    client_ms.push_back(client);
    net_ms.push_back(client - q - run);
    queue_ms.push_back(q);
    all_run_ms.push_back(run);
    late_ms.push_back(ms_between(d.due_ns, d.sent_ns));
    const JobClass cls = st.specs[d.spec].cls;
    run_ms[cls].push_back(run);
    if (d.metered) fuel[cls].push_back(static_cast<double>(d.fuel));
  }
  r.set("net.overhead_ms.p50", median(net_ms));
  r.set("net.overhead_ms.p99", percentile(net_ms, 99));
  r.set("service.queue_ms.p50", median(queue_ms));
  r.set("service.queue_ms.p99", percentile(queue_ms, 99));
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  // The mix is an assumption (README.md "serve"); its stated target is that
  // every class carries a fair share of worker time. Report what it did.
  double run_total = 0;
  for (double x : all_run_ms) run_total += x;
  std::cout << "# serve: traced open loop, per class (count share, worker-time share):";
  for (int c = 0; c < 3; ++c) {
    r.set(std::string("service.run_ms.") + kClassNames[c], median(run_ms[c]));
    r.set(std::string("service.fuel_per_job.") + kClassNames[c], mean(fuel[c]));
    const double time_pct =
        run_total > 0 ? 100.0 * mean(run_ms[c]) *
                            static_cast<double>(run_ms[c].size()) / run_total
                      : 0.0;
    r.set(std::string("service.time_share_pct.") + kClassNames[c], time_pct);
    std::cout << " " << kClassNames[c] << " "
              << 100.0 * static_cast<double>(run_ms[c].size()) /
                     static_cast<double>(std::max<std::size_t>(open_on[0].jobs.size(), 1))
              << "% / " << time_pct << "%";
  }
  std::cout << "\n";
  r.set("generator.late_ms.p99", percentile(late_ms, 99));
  r.set("saturated.job_p99_ms", legs_on[3]);
  // Net is measured as the remainder, so the stage means add up to the
  // client mean exactly; medians of skewed stages need not.
  std::cout << "# serve: traced open loop, client latency from send: mean "
            << mean(client_ms) << " ms = net " << mean(net_ms) << " + queue "
            << mean(queue_ms) << " + run " << mean(all_run_ms)
            << "; p50 " << median(client_ms) << " ms vs p50 sum "
            << median(net_ms) + median(queue_ms) + median(all_run_ms)
            << " ms\n";

  // How much of the time the collector stopped the service: the stalls that
  // set both p99s.
  std::cout << "# serve: traced half: " << snap.gc.collections
            << " collections paused the service for "
            << 100.0 * static_cast<double>(snap.gc_pause_ns.total()) * 1e-9 /
                   (open_on[0].wall_s + closed_on[0].wall_s)
            << "% of the time\n";
  r.set("heap.gcs", static_cast<double>(snap.gc.collections));
  r.set("heap.minor_gcs", static_cast<double>(snap.gc.minor_collections));
  r.set("heap.major_gcs", static_cast<double>(snap.gc.major_collections));
  r.set("heap.gc_pause_ms",
        static_cast<double>(snap.gc_pause_ns.total()) * 1e-6);
  r.set("heap.gc_pause_ms.p99",
        static_cast<double>(snap.gc_pause_ns.percentile(99)) * 1e-6);
  r.set("heap.safepoint_stall_ms.p99",
        static_cast<double>(snap.safepoint_stall_ns.percentile(99)) * 1e-6);
  r.set("heap.alloc_mb",
        static_cast<double>(snap.counter(tel::Counter::BytesAllocated)) / 1e6);
  r.set("regcompile.timed_compile_ms",
        static_cast<double>(snap.jit_total_ns()) * 1e-6);
  r.set("regcompile.ir_instrs",
        count_ir(st.machine->module(), vm::profiles::by_name("clr11").flags)
            .instrs);
  layer.emit(r);
}

}  // namespace perfbench
