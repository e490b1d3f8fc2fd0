// Graph 5: exception handling — rethrowing an existing object ("Throw"),
// constructing a new exception per iteration ("New"), and an exception
// raised one call level down ("Method"). The paper found every CLI engine
// paying far more per exception than the JVMs. Here every optimizing
// profile, CLI or JVM, runs the same throw path, so the rows order by tier
// and the JVM profiles do not lead (EXPERIMENTS.md claim 6).
#include <stdexcept>

#include "cil/micro.hpp"
#include "paper_bench.hpp"

namespace {

using namespace hpcnet;
using namespace hpcnet::bench;

constexpr std::int32_t kSize = 1 << 12;

void native_throw_catch(std::int32_t size) {
  int count = 0;
  for (std::int32_t i = 0; i < size; ++i) {
    try {
      throw std::runtime_error("x");
    } catch (const std::runtime_error&) {
      ++count;
    }
  }
  benchmark::DoNotOptimize(count);
}

}  // namespace

int main(int argc, char** argv) {
  auto& v = ctx().vm();
  register_sized("Throw", cil::build_exception_throw(v), 1, kSize);
  register_sized("New", cil::build_exception_new(v), 1, kSize);
  register_sized("Method", cil::build_exception_method(v), 1, kSize);
  register_native("New", native_throw_catch, 1, kSize);
  return run_main(argc, argv, "Graph 5: exception handling");
}
