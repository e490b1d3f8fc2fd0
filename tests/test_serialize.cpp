// Serialization substrate: object-graph round trips (lists, cycles, shared
// references, every object kind), error handling on malformed streams, and
// the file-based variant the JGF Serial benchmark exercises.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "vm/intrinsics.hpp"
#include "vm/regir.hpp"
#include "vm/serialize.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  VirtualMachine vm;
  std::int32_t node = -1;

  void SetUp() override {
    node = vm.module().define_class(
        "s.Node", {{"v", ValType::I32}, {"next", ValType::Ref}});
    vm.main_context();  // attach the host thread
  }

  ObjRef make_node(std::int32_t v, ObjRef next) {
    ObjRef o = vm.heap().alloc_instance(node);
    o->fields()[0] = Slot::from_i32(v);
    o->fields()[1] = Slot::from_ref(next);
    return o;
  }
};

TEST_F(SerializeTest, NullRoot) {
  const auto bytes = serialize_graph(vm, nullptr);
  EXPECT_EQ(deserialize_graph(vm, vm.main_context(), bytes.data(),
                              bytes.size()),
            nullptr);
}

TEST_F(SerializeTest, LinkedListRoundTrip) {
  ObjRef head = nullptr;
  for (int i = 0; i < 20; ++i) head = make_node(i, head);
  Pinned pin(vm, head);

  const auto bytes = serialize_graph(vm, head);
  ObjRef copy = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                  bytes.size());
  Pinned pin2(vm, copy);
  int n = 0;
  for (ObjRef p = copy; p != nullptr; p = p->fields()[1].ref) {
    EXPECT_EQ(p->fields()[0].i32, 19 - n);
    ++n;
  }
  EXPECT_EQ(n, 20);
  EXPECT_NE(copy, head);  // a genuine deep copy
}

TEST_F(SerializeTest, CycleRoundTrip) {
  ObjRef a = make_node(1, nullptr);
  Pinned pin(vm, a);
  ObjRef b = make_node(2, a);
  a->fields()[1] = Slot::from_ref(b);  // a -> b -> a

  const auto bytes = serialize_graph(vm, a);
  ObjRef ca = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                bytes.size());
  ObjRef cb = ca->fields()[1].ref;
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->fields()[1].ref, ca);  // cycle preserved
  EXPECT_EQ(ca->fields()[0].i32, 1);
  EXPECT_EQ(cb->fields()[0].i32, 2);
}

TEST_F(SerializeTest, SharedReferencePreserved) {
  ObjRef shared = make_node(99, nullptr);
  Pinned pin(vm, shared);
  ObjRef x = make_node(1, shared);
  Pinned pinx(vm, x);
  ObjRef y = make_node(2, shared);
  // Carrier array holding both heads.
  ObjRef arr = vm.heap().alloc_array(ValType::Ref, 2);
  arr->ref_data()[0] = x;
  arr->ref_data()[1] = y;
  Pinned pina(vm, arr);

  const auto bytes = serialize_graph(vm, arr);
  ObjRef carr = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                  bytes.size());
  ObjRef cx = carr->ref_data()[0];
  ObjRef cy = carr->ref_data()[1];
  EXPECT_EQ(cx->fields()[1].ref, cy->fields()[1].ref);  // still shared
  EXPECT_EQ(cx->fields()[1].ref->fields()[0].i32, 99);
}

TEST_F(SerializeTest, EveryObjectKindRoundTrips) {
  ObjRef carrier = vm.heap().alloc_array(ValType::Ref, 5);
  Pinned pin(vm, carrier);
  {
    ObjRef ints = vm.heap().alloc_array(ValType::I32, 3);
    ints->i32_data()[0] = -7;
    ints->i32_data()[2] = 123;
    carrier->ref_data()[0] = ints;
    ObjRef mat = vm.heap().alloc_matrix2(ValType::F64, 2, 3);
    mat->f64_data()[5] = 2.5;
    carrier->ref_data()[1] = mat;
    carrier->ref_data()[2] = vm.heap().alloc_box(ValType::F64,
                                                 Slot::from_f64(6.25));
    carrier->ref_data()[3] = vm.heap().alloc_string("hello");
    carrier->ref_data()[4] = make_node(5, nullptr);
  }
  const auto bytes = serialize_graph(vm, carrier);
  ObjRef c = deserialize_graph(vm, vm.main_context(), bytes.data(),
                               bytes.size());
  EXPECT_EQ(c->ref_data()[0]->i32_data()[0], -7);
  EXPECT_EQ(c->ref_data()[0]->i32_data()[2], 123);
  EXPECT_EQ(c->ref_data()[1]->length, 2);
  EXPECT_EQ(c->ref_data()[1]->cols, 3);
  EXPECT_DOUBLE_EQ(c->ref_data()[1]->f64_data()[5], 2.5);
  EXPECT_DOUBLE_EQ(c->ref_data()[2]->fields()[0].f64, 6.25);
  EXPECT_EQ(string_value(c->ref_data()[3]), "hello");
  EXPECT_EQ(c->ref_data()[4]->fields()[0].i32, 5);
}

TEST_F(SerializeTest, RejectsTruncatedStream) {
  ObjRef head = make_node(1, nullptr);
  Pinned pin(vm, head);
  auto bytes = serialize_graph(vm, head);
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2}) {
    EXPECT_THROW(
        deserialize_graph(vm, vm.main_context(), bytes.data(), cut),
        SerializeError)
        << cut;
  }
}

TEST_F(SerializeTest, RejectsBadMagic) {
  std::vector<char> junk = {'X', 'Y', 'Z', 'W', 0, 0, 0, 0};
  EXPECT_THROW(
      deserialize_graph(vm, vm.main_context(), junk.data(), junk.size()),
      SerializeError);
}

TEST_F(SerializeTest, FileRoundTrip) {
  ObjRef head = nullptr;
  for (int i = 0; i < 5; ++i) head = make_node(i * 10, head);
  Pinned pin(vm, head);
  const std::string path = "/tmp/hpcnet_serial_test.bin";
  serialize_to_file(vm, head, path);
  ObjRef copy = deserialize_from_file(vm, vm.main_context(), path);
  int n = 0;
  for (ObjRef p = copy; p != nullptr; p = p->fields()[1].ref) ++n;
  EXPECT_EQ(n, 5);
  std::remove(path.c_str());
}

TEST_F(SerializeTest, SurvivesGcPressureDuringDeserialize) {
  // Build the list under the default threshold (native locals are not GC
  // roots — the head must be pinned before any allocation can collect), then
  // tighten the threshold so the deserializer itself runs under constant
  // collection pressure.
  ObjRef head = nullptr;
  for (int i = 0; i < 200; ++i) head = make_node(i, head);
  Pinned pin(vm, head);
  vm.heap().set_threshold(1 << 12);  // collect constantly from here on
  const auto bytes = serialize_graph(vm, head);
  ObjRef copy = deserialize_graph(vm, vm.main_context(), bytes.data(),
                                  bytes.size());
  Pinned pin2(vm, copy);
  int n = 0;
  for (ObjRef p = copy; p != nullptr; p = p->fields()[1].ref) ++n;
  EXPECT_EQ(n, 200);
}

// ---------------------------------------------------------------------------
// Code-archive ('HPCA') wire format: hostile-input hardening. Round-trip
// correctness (bit-identical results, warm tiers, shared archives) lives in
// test_snapshot.cpp; here every test feeds the deserializer damaged bytes
// and asserts SerializeError or clean degradation — never UB.

// Mirrors the stream's own FNV-1a 64 so tests can re-seal a deliberately
// corrupted payload and reach the validation layers behind the checksum.
std::uint64_t fnv1a64(const char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Stream layout: [u32 magic][u32 version][u64 checksum of bytes 16..end].
void reseal(std::vector<char>& b) {
  const std::uint64_t h = fnv1a64(b.data() + 16, b.size() - 16);
  std::memcpy(b.data() + 8, &h, sizeof h);
}

class ArchiveTest : public ::testing::Test {
 protected:
  VirtualMachine vm;
  std::int32_t method = -1;
  std::vector<char> blob;  // valid archive of `method` warmed under clr11

  void SetUp() override {
    method = build_sum_squares(vm, "arch.sum");
    auto eng = make_engine(vm, profiles::by_name("clr11"));
    VMContext& ctx = vm.main_context();
    const std::vector<Slot> args = {Slot::from_i32(10)};
    const Slot r = eng->invoke(ctx, method, args);
    ASSERT_EQ(r.i32, 285);  // sum of i*i, i in [0,10)
    blob = serialize_archives({capture_archive(vm, "clr11")});
    ASSERT_GT(blob.size(), 16u);
  }

  /// (n: I32) -> I32: sum of i*i — a counted loop so the compiled body has
  /// branches, an il2rpc table and deopt points for the fuzzer to chew on.
  static std::int32_t build_sum_squares(VirtualMachine& v,
                                        const std::string& name) {
    ILBuilder b(v.module(), name, {{ValType::I32}, ValType::I32});
    const auto i = b.add_local(ValType::I32);
    const auto acc = b.add_local(ValType::I32);
    auto cond = b.new_label();
    auto top = b.new_label();
    b.ldc_i4(0).stloc(i).ldc_i4(0).stloc(acc).br(cond);
    b.bind(top);
    b.ldloc(acc).ldloc(i).ldloc(i).mul().add().stloc(acc);
    b.ldloc(i).ldc_i4(1).add().stloc(i);
    b.bind(cond);
    b.ldloc(i).ldarg(0).blt(top);
    b.ldloc(acc).ret();
    return b.finish();
  }

  /// The blob's single archive, parsed back (it is valid by construction).
  std::shared_ptr<const CodeArchive> parse() {
    auto as = deserialize_archives(vm.module(), blob.data(), blob.size());
    EXPECT_EQ(as.size(), 1u);
    return as.at(0);
  }

  /// Re-wraps one record (possibly with a mutated compiled body) and
  /// serializes it, resealing nothing — serialize_archives seals itself.
  static std::vector<char> wrap(const CodeArchive::MethodRecord& rec) {
    auto a = std::make_shared<const CodeArchive>(
        "clr11", std::vector<CodeArchive::MethodRecord>{rec});
    return serialize_archives({a});
  }
};

TEST_F(ArchiveTest, RoundTripsWarmRecord) {
  const auto a = parse();
  EXPECT_EQ(a->profile(), "clr11");
  ASSERT_FALSE(a->records().empty());
  bool found = false;
  for (const auto& rec : a->records()) {
    if (rec.method_id != method) continue;
    found = true;
    EXPECT_EQ(rec.name, "arch.sum");
    EXPECT_NE(rec.code, nullptr);
    EXPECT_EQ(rec.il_hash, il_content_hash(vm.module(), method));
  }
  EXPECT_TRUE(found);
}

TEST_F(ArchiveTest, RejectsTruncation) {
  // Every proper prefix must throw: header cuts die on magic/version/
  // checksum reads, payload cuts on the checksum (it covers to the end).
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                          std::size_t{15}, std::size_t{17}, blob.size() / 2,
                          blob.size() - 1}) {
    EXPECT_THROW(deserialize_archives(vm.module(), blob.data(), cut),
                 SerializeError)
        << "cut=" << cut;
  }
}

TEST_F(ArchiveTest, RejectsBadMagic) {
  auto b = blob;
  b[0] = 'X';
  EXPECT_THROW(deserialize_archives(vm.module(), b.data(), b.size()),
               SerializeError);
}

TEST_F(ArchiveTest, RejectsBadVersion) {
  auto b = blob;
  b[4] = static_cast<char>(0x7f);
  EXPECT_THROW(deserialize_archives(vm.module(), b.data(), b.size()),
               SerializeError);
}

TEST_F(ArchiveTest, RejectsChecksumMismatch) {
  auto b = blob;
  b[b.size() / 2] ^= 0x01;  // payload damage, seal left stale
  EXPECT_THROW(deserialize_archives(vm.module(), b.data(), b.size()),
               SerializeError);
}

TEST_F(ArchiveTest, ByteFlipFuzzNeverFaults) {
  // Flip one payload byte at a time and RE-SEAL, so the damage reaches the
  // structural validators and the re-verifier behind the checksum. Each
  // variant must either throw SerializeError or parse into records that
  // attach cleanly (possibly as misses) into a fresh VM — never crash.
  std::size_t threw = 0, parsed = 0;
  for (std::size_t off = 16; off < blob.size();
       off += (off < 96 ? 1 : 7)) {
    auto b = blob;
    b[off] ^= 0xff;
    reseal(b);
    VirtualMachine fresh;
    build_sum_squares(fresh, "arch.sum");
    try {
      const auto as = deserialize_archives(fresh.module(), b.data(), b.size());
      for (const auto& a : as) attach_archive(fresh, a);
      ++parsed;
    } catch (const SerializeError&) {
      ++threw;
    }
  }
  // Both outcomes must actually occur: some flips are structural damage,
  // some land in hash/hotness fields and degrade to misses or benign skews.
  EXPECT_GT(threw, 0u);
  EXPECT_GT(parsed, 0u);
}

TEST_F(ArchiveTest, OutOfRangeMethodIdIsAMiss) {
  // An id beyond the local module parses fine (the wire format is module-
  // agnostic) but can never match at attach time.
  CodeArchive::MethodRecord rec;
  rec.method_id = 9999;
  rec.name = "arch.sum";
  rec.il_hash = 0xdeadbeefull;
  rec.tier = 1;
  rec.hotness = 5;
  const auto bytes = wrap(rec);
  const auto as = deserialize_archives(vm.module(), bytes.data(), bytes.size());
  ASSERT_EQ(as.size(), 1u);
  VirtualMachine fresh;
  build_sum_squares(fresh, "arch.sum");
  const ArchiveStats st = attach_archive(fresh, as[0]);
  EXPECT_EQ(st.restored, 0u);
  EXPECT_EQ(st.missed, 1u);
}

TEST_F(ArchiveTest, RejectsSideTableLengthMismatch) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  // il2rpc must map every IL pc (plus the end sentinel); drop one entry.
  auto mutated = std::make_shared<regir::RCode>(*warm->code);
  mutated->il2rpc.pop_back();
  CodeArchive::MethodRecord rec = *warm;
  rec.code = mutated;
  const auto bytes = wrap(rec);
  EXPECT_THROW(deserialize_archives(vm.module(), bytes.data(), bytes.size()),
               SerializeError);
}

TEST_F(ArchiveTest, RejectsOutOfRangeRegister) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  auto mutated = std::make_shared<regir::RCode>(*warm->code);
  ASSERT_FALSE(mutated->code.empty());
  mutated->code[0].d = mutated->num_regs + 10;
  CodeArchive::MethodRecord rec = *warm;
  rec.code = mutated;
  const auto bytes = wrap(rec);
  EXPECT_THROW(deserialize_archives(vm.module(), bytes.data(), bytes.size()),
               SerializeError);
}

// Every operand shape of the op table, through the archive validator: one
// well-formed instruction of that shape is accepted, and moving any one of
// its register roles (d, a, b, the rank-2 registers packed into imm, the
// args_pool window and its entries) out of range makes the archive refuse.
TEST_F(ArchiveTest, RejectsEveryOutOfRangeRegisterRole) {
  using regir::RInstr;
  using regir::ROp;
  using regir::Shape;
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  const std::int32_t statics = vm.module().define_class(
      "arch.Statics", {}, -1, {{"s", ValType::I32}});
  const std::int32_t nregs = warm->code->num_regs;
  const std::int32_t far = nregs + 5;

  struct Case {
    Shape shape;
    ROp op;
    std::int32_t d, a, b;
    std::int64_t imm;
  };
  const std::int64_t mine = static_cast<std::int64_t>(
      vm.module().method(method).num_args());
  const Case cases[] = {
      {Shape::None, ROp::NOP_R, -1, -1, -1, 0},
      {Shape::D, ROp::LDI, 0, -1, -1, 7},
      {Shape::DA, ROp::MOV, 0, 0, -1, 0},
      {Shape::DAB, ROp::ADD_I4, 0, 0, 0, 0},
      {Shape::A, ROp::CARDMARK, -1, 0, -1, 0},
      {Shape::Ret, ROp::RET_R, -1, 0, -1, 0},
      {Shape::AB, ROp::CHK_BOUNDS, -1, 0, 0, 0},
      {Shape::SA, ROp::STFLD_R, 0, 0, 0, 0},
      {Shape::S, ROp::STSFLD_R, 0, statics, 0, 0},
      {Shape::SAB, ROp::STELEM_I4, 0, 0, 0, 0},
      {Shape::SABKeep, ROp::STELEMU_I4, 0, 0, 0, 0},
      {Shape::DABC, ROp::LDEL2_I4, 0, 0, 0, 0},
      {Shape::ABCV, ROp::STEL2_I4, -1, 0, 0, 0},
      {Shape::Call, ROp::CALL_R, 0, method, 0, mine},
  };
  std::size_t shapes = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(regir::info(c.op).name);
    ASSERT_EQ(regir::info(c.op).shape, c.shape);
    EXPECT_EQ(static_cast<std::size_t>(c.shape), shapes++);
    auto mutated_with = [&](auto mutate) {
      auto rc = std::make_shared<regir::RCode>(*warm->code);
      rc->args_pool.assign(static_cast<std::size_t>(mine), 0);
      RInstr& in = rc->code[0];
      in.op = c.op;
      in.flags = 0;
      in.d = c.d;
      in.a = c.a;
      in.b = c.b;
      in.imm.i64 = c.imm;
      mutate(*rc, in);
      CodeArchive::MethodRecord rec = *warm;
      rec.code = rc;
      return wrap(rec);
    };
    auto loads = [&](const std::vector<char>& bytes) {
      try {
        (void)deserialize_archives(vm.module(), bytes.data(), bytes.size());
        return true;
      } catch (const SerializeError&) {
        return false;
      }
    };
    EXPECT_TRUE(loads(mutated_with([](regir::RCode&, RInstr&) {})));
    const std::uint16_t roles = regir::info(c.op).roles;
    std::vector<std::pair<const char*, std::function<void(regir::RCode&, RInstr&)>>>
        breaks;
    if (roles & (regir::kDefD | regir::kUseD)) {
      breaks.push_back({"d", [&](regir::RCode&, RInstr& in) { in.d = far; }});
      breaks.push_back({"d<0", [&](regir::RCode&, RInstr& in) { in.d = -2; }});
    }
    if (roles & regir::kUseA) {
      breaks.push_back({"a", [&](regir::RCode&, RInstr& in) { in.a = far; }});
      breaks.push_back({"a<0", [&](regir::RCode&, RInstr& in) { in.a = -2; }});
    }
    if (roles & regir::kUseB) {
      breaks.push_back({"b", [&](regir::RCode&, RInstr& in) { in.b = far; }});
      breaks.push_back({"b<0", [&](regir::RCode&, RInstr& in) { in.b = -2; }});
    }
    if (roles & regir::kUseLo) {
      breaks.push_back({"imm-low", [&](regir::RCode&, RInstr& in) {
                          in.imm.i64 |= far;
                        }});
    }
    if (roles & regir::kUseHi) {
      breaks.push_back({"imm-high", [&](regir::RCode&, RInstr& in) {
                          in.imm.i64 |= std::int64_t{far} << regir::kRegFieldBits;
                        }});
    }
    if (roles & regir::kUsePool) {
      breaks.push_back({"pool window", [&](regir::RCode&, RInstr& in) {
                          in.b = static_cast<std::int32_t>(mine);
                        }});
      breaks.push_back({"pool entry", [&](regir::RCode& rc, RInstr&) {
                          rc.args_pool.assign(rc.args_pool.size(), far);
                        }});
    }
    EXPECT_EQ(breaks.empty(), roles == 0);
    for (const auto& [role, mutate] : breaks) {
      EXPECT_FALSE(loads(mutated_with(mutate))) << "role " << role;
    }
  }
  EXPECT_EQ(shapes, static_cast<std::size_t>(Shape::Call) + 1);
}

// An intrinsic call's argument count must match the intrinsic's signature:
// the dispatch loop copies the arguments into a fixed kMaxIntrinsicArgs
// buffer.
TEST_F(ArchiveTest, RejectsIntrinsicArityMismatch) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  auto mutated = std::make_shared<regir::RCode>(*warm->code);
  mutated->args_pool.assign(64, 0);
  regir::RInstr& in = mutated->code[0];
  in.op = regir::ROp::CALLINTR_R;
  in.d = -1;
  in.a = I_SQRT;
  in.b = 0;
  in.imm.i64 = 64;
  CodeArchive::MethodRecord rec = *warm;
  rec.code = mutated;
  const auto bytes = wrap(rec);
  EXPECT_THROW(deserialize_archives(vm.module(), bytes.data(), bytes.size()),
               SerializeError);
}

// The optimizing tier dispatches through a handler table with no range
// check, so running past the last instruction would be a wild jump. A body
// whose last instruction can fall through (a plain op or a conditional
// branch) is refused.
TEST_F(ArchiveTest, RejectsBodyThatFallsOffItsEnd) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(warm->code->code.back().op, regir::ROp::RET_R);
  auto with_last = [&](regir::ROp op, std::int32_t d, std::int32_t a) {
    auto rc = std::make_shared<regir::RCode>(*warm->code);
    regir::RInstr& in = rc->code.back();
    in.op = op;
    in.d = d;
    in.a = a;
    in.b = -1;
    CodeArchive::MethodRecord rec = *warm;
    rec.code = rc;
    return wrap(rec);
  };
  const auto fall = with_last(regir::ROp::NOP_R, -1, -1);
  EXPECT_THROW(deserialize_archives(vm.module(), fall.data(), fall.size()),
               SerializeError);
  const auto cond = with_last(regir::ROp::JZ_I4, 0, 0);
  EXPECT_THROW(deserialize_archives(vm.module(), cond.data(), cond.size()),
               SerializeError);
  // An unconditional branch in the same place is a legal ending.
  const auto jump = with_last(regir::ROp::JMPB, 0, -1);
  EXPECT_NO_THROW(deserialize_archives(vm.module(), jump.data(), jump.size()));
}

// The unwinder resumes at il2rpc[leave target] and il2rpc[handler start];
// il2rpc may hold code.size() (the end sentinel), which must never be one
// of those resume points.
TEST_F(ArchiveTest, RejectsResumePointPastTheCode) {
  const auto a = parse();
  const CodeArchive::MethodRecord* warm = nullptr;
  for (const auto& rec : a->records()) {
    if (rec.method_id == method && rec.code != nullptr) warm = &rec;
  }
  ASSERT_NE(warm, nullptr);
  const auto ncode = static_cast<std::int32_t>(warm->code->code.size());
  constexpr std::int32_t kTarget = 1;  // an IL pc inside the body
  auto loads = [&](const std::shared_ptr<regir::RCode>& rc) {
    CodeArchive::MethodRecord rec = *warm;
    rec.code = rc;
    const auto bytes = wrap(rec);
    try {
      (void)deserialize_archives(vm.module(), bytes.data(), bytes.size());
      return true;
    } catch (const SerializeError&) {
      return false;
    }
  };

  // LEAVE_R: the target is a legal IL pc, but it maps to code.size().
  auto leave_to = [&](std::int32_t rpc) {
    auto rc = std::make_shared<regir::RCode>(*warm->code);
    regir::RInstr& in = rc->code[0];
    in.op = regir::ROp::LEAVE_R;
    in.d = -1;
    in.a = kTarget;
    in.b = -1;
    rc->il2rpc[kTarget] = rpc;
    return rc;
  };
  EXPECT_TRUE(loads(leave_to(0)));
  EXPECT_FALSE(loads(leave_to(ncode)));

  // Handler start: a catch handler at kTarget whose entry maps to
  // code.size().
  auto handler_at = [&](std::int32_t rpc) {
    auto rc = std::make_shared<regir::RCode>(*warm->code);
    auto body = std::make_shared<MethodDef>(*rc->body);
    body->handlers.push_back({HandlerKind::Catch, 0, kTarget, kTarget,
                              vm.module().exception_class()});
    rc->body = body;
    rc->method = body.get();
    rc->handler_exc_reg.push_back(-1);
    rc->il2rpc[kTarget] = rpc;
    return rc;
  };
  EXPECT_TRUE(loads(handler_at(0)));
  EXPECT_FALSE(loads(handler_at(ncode)));
}

TEST_F(ArchiveTest, StaleHashDegradesToMiss) {
  // Same method name and id, different body in the attaching VM: the
  // verified-IL hash no longer matches, so the record is skipped and the
  // method stays cold (it will compile normally on first call).
  VirtualMachine other;
  std::int32_t local;
  {
    ILBuilder b(other.module(), "arch.sum", {{ValType::I32}, ValType::I32});
    b.ldarg(0).ldc_i4(7).add().ret();  // different semantics entirely
    local = b.finish();
  }
  ASSERT_EQ(local, method);  // same id, same name, different body
  const auto as = deserialize_archives(other.module(), blob.data(),
                                       blob.size());
  ASSERT_EQ(as.size(), 1u);
  const ArchiveStats st = attach_archive(other, as[0]);
  EXPECT_EQ(st.restored, 0u);
  EXPECT_GE(st.missed, 1u);
  // And the local semantics win at execution time.
  auto eng = make_engine(other, profiles::by_name("clr11"));
  const std::vector<Slot> args = {Slot::from_i32(10)};
  EXPECT_EQ(eng->invoke(other.main_context(), local, args).i32, 17);
}

}  // namespace
}  // namespace hpcnet::test
