// Snapshot warm start (DESIGN.md §13): capture a warmed CodeCache into an
// immutable CodeArchive, round-trip it through the 'HPCA' wire format, and
// boot fresh VMs from it — first invocation bit-identical to the donor with
// zero recompilation, across every paper profile, from many threads sharing
// one archive, through the ExecutionService, and via snapshot files.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cil/jg.hpp"
#include "cil/sm.hpp"
#include "vm/engines.hpp"
#include "vm/serialize.hpp"
#include "vm/service/service.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

namespace telemetry = hpcnet::vm::telemetry;
namespace service = hpcnet::vm::service;

constexpr std::int32_t kSorN = 16;
constexpr std::int32_t kSorSweeps = 2;

std::vector<Slot> sor_args() {
  return {Slot::from_i32(kSorN), Slot::from_i32(kSorSweeps)};
}

/// Warms SOR in a throwaway VM under `profile` (`invocations` calls) and
/// returns {serialized archive stream, final result bits}.
std::pair<std::vector<char>, std::uint64_t> donor_blob(
    const std::string& profile, int invocations) {
  VirtualMachine donor;
  const std::int32_t m = cil::build_sm_sor(donor);
  auto eng = make_engine(donor, profiles::by_name(profile));
  VMContext& ctx = donor.main_context();
  Slot last = Slot::from_i32(0);
  for (int i = 0; i < invocations; ++i) last = eng->invoke(ctx, m, sor_args());
  return {serialize_archives({capture_archive(donor, profile)}), last.raw};
}

/// Parses a blob against a fresh VM that already holds the SOR program;
/// returns {vm-ready archive, that VM's SOR method id} via out-params.
std::shared_ptr<const CodeArchive> parse_against(
    VirtualMachine& v, const std::vector<char>& blob) {
  const auto as = deserialize_archives(v.module(), blob.data(), blob.size());
  EXPECT_EQ(as.size(), 1u);
  return as.at(0);
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset();
  }

  /// methods_compiled for `engine`, or 0 when nothing was recorded (the
  /// EngineJitTimes row only exists once a compile happens) or telemetry is
  /// compiled out (then the check degrades to vacuous, by design).
  static std::uint64_t compiles(const std::string& engine) {
    if (!telemetry::enabled()) return 0;
    const telemetry::Snapshot s = telemetry::snapshot();
    const telemetry::EngineJitTimes* j = s.engine_jit(engine);
    return j != nullptr ? j->methods_compiled : 0;
  }
};

// Every paper profile plus the vector tier: capture from a warmed donor,
// round-trip the bytes, attach to a fresh VM, and require the very first
// invocation to reproduce the donor's result bit for bit. For profiles that
// reach the optimizing tier the restored VM must also compile nothing.
TEST_F(SnapshotTest, RoundTripBitIdenticalAcrossProfiles) {
  const std::vector<std::string> names = {"ibm131", "clr11",  "bea81",
                                          "jsharp11", "sun14", "mono023",
                                          "rotor10", "clr11.vec"};
  for (const std::string& prof : names) {
    SCOPED_TRACE(prof);
    const auto [blob, want_raw] = donor_blob(prof, 3);

    VirtualMachine v;
    const std::int32_t m = cil::build_sm_sor(v);
    const auto archive = parse_against(v, blob);
    EXPECT_EQ(archive->profile(), prof);
    const ArchiveStats st = attach_archive(v, archive);
    const bool optimizing =
        profiles::by_name(prof).tier == Tier::Optimizing;
    if (optimizing) {
      // SOR plus every transitive callee the donor compiled.
      EXPECT_GE(st.restored, 1u);
      EXPECT_EQ(st.missed, 0u);
    }

    telemetry::reset();  // isolate the restored VM's own compiles
    auto eng = make_engine(v, profiles::by_name(prof));
    const Slot first = eng->invoke(v.main_context(), m, sor_args());
    EXPECT_EQ(first.raw, want_raw) << "first invocation differs from donor";
    if (optimizing) {
      EXPECT_EQ(compiles(prof), 0u);
    }
  }
}

// A warm-booted method starts at its snapshotted tier: the donor drives SOR
// through the tiered pipeline to Tier::Optimizing; after attach, a fresh
// TieredEngine dispatches it as Optimizing before a single local call.
TEST_F(SnapshotTest, WarmBootRestoresSnapshottedTier) {
  const std::string prof = "clr11.tiered";
  const auto [blob, want_raw] = donor_blob(prof, 96);

  VirtualMachine v;
  const std::int32_t m = cil::build_sm_sor(v);
  const ArchiveStats st = attach_archive(v, parse_against(v, blob));
  EXPECT_GE(st.restored, 1u);

  telemetry::reset();
  TieredEngine eng(v, profiles::by_name(prof));
  EXPECT_EQ(eng.method_tier(m), Tier::Optimizing)
      << "tier not restored from the snapshot";
  const Slot first = eng.invoke(v.main_context(), m, sor_args());
  EXPECT_EQ(first.raw, want_raw);
  EXPECT_EQ(compiles(prof), 0u);

  // Re-attaching is a no-op: every matching entry is already warm, so the
  // second pass neither restores nor mis-counts anything.
  const ArchiveStats again = attach_archive(v, parse_against(v, blob));
  EXPECT_EQ(again.restored, 0u);
  EXPECT_EQ(again.missed, 0u);
}

// One immutable archive, eight VMs cold-booting against it concurrently —
// the multi-instance story of DESIGN.md §13 (and the TSan target for the
// attach path): shared refcounted RCode bodies, per-VM mutable tier state,
// zero compiles anywhere.
TEST_F(SnapshotTest, EightThreadsShareOneArchiveWithoutRecompiling) {
  const std::string prof = "clr11";
  const auto [blob, want_raw] = donor_blob(prof, 2);

  // Deserialize ONCE against a scratch VM; the resulting archive is the
  // single shared object every thread attaches.
  VirtualMachine scratch;
  cil::build_sm_sor(scratch);
  const auto archive = parse_against(scratch, blob);
  ASSERT_FALSE(archive->records().empty());

  telemetry::reset();
  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      VirtualMachine v;
      const std::int32_t m = cil::build_sm_sor(v);
      const ArchiveStats st = attach_archive(v, archive);
      if (st.restored == 0 || st.missed != 0) return;
      auto eng = make_engine(v, profiles::by_name(prof));
      const Slot first = eng->invoke(v.main_context(), m, sor_args());
      if (first.raw == want_raw) ok.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(compiles(prof), 0u);  // merged across all eight threads
}

// ExecutionService end to end: a service booted with Options::warm_start
// runs its first job on archived code, and capture_snapshot round-trips the
// warmed cache back out (the quiesced explicit-save operation).
TEST_F(SnapshotTest, ServiceWarmStartAndCaptureSnapshot) {
  const std::string prof = "clr11";
  const auto [blob, want_raw] = donor_blob(prof, 2);

  VirtualMachine v;
  const std::int32_t m = cil::build_sm_sor(v);
  const auto archive = parse_against(v, blob);

  telemetry::reset();
  service::ExecutionService svc(v, profiles::by_name(prof),
                                {.workers = 2, .warm_start = archive});
  svc.add_tenant({.name = "t0"});
  service::JobHandle h = svc.submit("t0", m, sor_args());
  const service::JobResult r = h.wait();
  ASSERT_EQ(r.outcome, service::JobOutcome::Completed);
  EXPECT_EQ(r.value.raw, want_raw);
  EXPECT_EQ(compiles(prof), 0u);

  const auto recaptured = svc.capture_snapshot();
  ASSERT_NE(recaptured, nullptr);
  EXPECT_EQ(recaptured->profile(), prof);
  bool has_code = false;
  for (const auto& rec : recaptured->records()) {
    if (rec.code != nullptr) has_code = true;
  }
  EXPECT_TRUE(has_code);

  // A warm_start whose profile differs from the service's is ignored: the
  // mono023 service boots cold and still computes the right answer.
  service::ExecutionService other(v, profiles::by_name("mono023"),
                                  {.workers = 1, .warm_start = archive});
  other.add_tenant({.name = "t0"});
  const service::JobResult r2 = other.submit("t0", m, sor_args()).wait();
  ASSERT_EQ(r2.outcome, service::JobOutcome::Completed);
  EXPECT_EQ(r2.value.raw, want_raw);
}

// save_snapshot / load_snapshot: the file-based path the CLI flags use.
TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string path = "/tmp/hpcnet_snapshot_test.hpca";
  std::uint64_t want_raw = 0;
  {
    VirtualMachine donor;
    const std::int32_t m = cil::build_sm_sor(donor);
    auto eng = make_engine(donor, profiles::by_name("clr11"));
    VMContext& ctx = donor.main_context();
    for (int i = 0; i < 2; ++i) {
      want_raw = eng->invoke(ctx, m, sor_args()).raw;
    }
    save_snapshot(donor, path);
  }
  VirtualMachine v;
  const std::int32_t m = cil::build_sm_sor(v);
  const ArchiveStats st = load_snapshot(v, path);
  EXPECT_GE(st.restored, 1u);
  auto eng = make_engine(v, profiles::by_name("clr11"));
  EXPECT_EQ(eng->invoke(v.main_context(), m, sor_args()).raw, want_raw);
  std::remove(path.c_str());

  EXPECT_THROW(load_snapshot(v, "/nonexistent/dir/no_such_snapshot.hpca"),
               SerializeError);
}

// The telemetry surface of an attach: restored/missed counters and exactly
// one archive-load timing sample.
TEST_F(SnapshotTest, AttachRecordsTelemetry) {
  if (!telemetry::enabled()) GTEST_SKIP() << "built with HPCNET_TELEMETRY=OFF";
  const auto [blob, want_raw] = donor_blob("clr11", 2);
  (void)want_raw;

  VirtualMachine v;
  cil::build_sm_sor(v);
  const auto archive = parse_against(v, blob);
  telemetry::reset();
  const ArchiveStats st = attach_archive(v, archive);
  const telemetry::Snapshot s = telemetry::snapshot();
  EXPECT_EQ(s.counter(telemetry::Counter::SnapshotMethodsRestored),
            st.restored);
  EXPECT_EQ(s.counter(telemetry::Counter::SnapshotMisses), st.missed);
  EXPECT_EQ(s.archive_load_ns.count(), 1u);
}

// The 'HPCA' bytes of one warmed clr11.vec VM over the SciMark/JGF boot set,
// pinned as an FNV-1a digest: the op bytes and every operand field of the
// compiled bodies are part of the archive format, so a change to the
// register instruction set or to what the passes emit shows up here.
TEST_F(SnapshotTest, WarmedBootSetArchiveBytesArePinned) {
  VirtualMachine v;
  const std::int32_t fft = cil::build_sm_fft(v);
  const std::int32_t sor = cil::build_sm_sor(v);
  const std::int32_t mc = cil::build_sm_montecarlo(v);
  const std::int32_t sparse = cil::build_sm_sparse(v);
  const std::int32_t lu = cil::build_sm_lu(v);
  const std::int32_t fib = cil::build_jg_fib(v);
  const std::int32_t sieve = cil::build_jg_sieve(v);
  const std::int32_t hanoi = cil::build_jg_hanoi(v);
  const std::int32_t heapsort = cil::build_jg_heapsort(v);
  const std::int32_t crypt = cil::build_jg_crypt(v);
  auto eng = make_engine(v, profiles::by_name("clr11.vec"));
  VMContext& ctx = v.main_context();
  auto i32 = [](std::int32_t x) { return Slot::from_i32(x); };
  const std::pair<std::int32_t, std::vector<Slot>> calls[] = {
      {fft, {i32(16), i32(1)}},  {sor, {i32(16), i32(2)}},
      {mc, {i32(1000)}},         {sparse, {i32(20), i32(60), i32(2)}},
      {lu, {i32(8)}},            {fib, {i32(10)}},
      {sieve, {i32(100)}},       {hanoi, {i32(5)}},
      {heapsort, {i32(50)}},     {crypt, {i32(64)}},
  };
  for (const auto& [m, args] : calls) eng->invoke(ctx, m, args);

  const std::vector<char> bytes =
      serialize_archives({capture_archive(v, "clr11.vec")});
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxull",
                static_cast<unsigned long long>(h));
  EXPECT_EQ(h, 0x50b2b76ff7d37c01ull) << "archive digest " << hex << " over "
                       << bytes.size() << " bytes";
}

}  // namespace
}  // namespace hpcnet::test
