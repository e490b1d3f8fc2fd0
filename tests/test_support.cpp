// Support library: the bit-exact java.util.Random port (golden values
// generated from the Java LCG specification), the SciMark RNG, statistics
// and the result-table reporter.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/java_random.hpp"
#include "support/reporter.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace hpcnet::test {
namespace {

using namespace hpcnet::support;

// ---------------------------------------------------------------------------
// JavaRandom golden values (computed from the java.util.Random spec LCG).

struct GoldenCase {
  std::int64_t seed;
  std::int32_t ints[3];
  double first_double;
  std::int64_t first_long;
};

class JavaRandomGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(JavaRandomGolden, MatchesSpecification) {
  const GoldenCase& g = GetParam();
  {
    JavaRandom r(g.seed);
    for (std::int32_t want : g.ints) EXPECT_EQ(r.next_int(), want);
  }
  {
    JavaRandom r(g.seed);
    EXPECT_DOUBLE_EQ(r.next_double(), g.first_double);
  }
  {
    JavaRandom r(g.seed);
    EXPECT_EQ(r.next_long(), g.first_long);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, JavaRandomGolden,
    ::testing::Values(
        GoldenCase{0, {-1155484576, -723955400, 1033096058},
                   0.730967787376657, -4962768465676381896LL},
        GoldenCase{42, {-1170105035, 234785527, -1360544799},
                   0.7275636800328681, -5025562857975149833LL},
        GoldenCase{1966, {-1614874763, 240126280, -1389226175},
                   0.6240076580034011, -6935834293980624568LL},
        GoldenCase{123456789, {-1442945365, -1016548095, 1962592967},
                   0.664038103272266, -6197403153606331135LL}));

TEST(JavaRandom, BoundedIntsInRange) {
  JavaRandom r(7);
  for (std::int32_t bound : {1, 2, 7, 16, 100, 1 << 20}) {
    for (int i = 0; i < 200; ++i) {
      const std::int32_t v = r.next_int(bound);
      ASSERT_GE(v, 0);
      ASSERT_LT(v, bound);
    }
  }
}

TEST(JavaRandom, PowerOfTwoBoundUsesFastPath) {
  // Spec behaviour for power-of-2 bounds: (bound * next(31)) >> 31.
  JavaRandom a(99), b(99);
  const std::int32_t v = a.next_int(8);
  const std::int32_t bits = b.next(31);
  EXPECT_EQ(v, static_cast<std::int32_t>((8LL * bits) >> 31));
}

TEST(JavaRandom, FloatsAndBoolsDeterministic) {
  JavaRandom a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_float(), b.next_float());
    EXPECT_EQ(a.next_boolean(), b.next_boolean());
  }
}

TEST(JavaRandom, GaussianMomentsReasonable) {
  JavaRandom r(12345);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(JavaRandom, ReseedResetsState) {
  JavaRandom r(1);
  (void)r.next_int();
  r.set_seed(1);
  JavaRandom fresh(1);
  EXPECT_EQ(r.next_int(), fresh.next_int());
}

// ---------------------------------------------------------------------------
// SciMarkRandom.

TEST(SciMarkRandom, RangeAndDeterminism) {
  SciMarkRandom a(101010), b(101010);
  double mean = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = a.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    ASSERT_EQ(v, b.next_double());
    mean += v;
  }
  EXPECT_NEAR(mean / 10000, 0.5, 0.02);
}

TEST(SciMarkRandom, DistinctSeedsDiverge) {
  // Note: even/odd seed pairs like (1, 2) collide by design (the generator
  // forces jseed odd); pick genuinely distinct odd seeds.
  SciMarkRandom a(101010), b(31415);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_double() == b.next_double()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(SciMarkRandom, FillMatchesSequentialCalls) {
  SciMarkRandom a(7), b(7);
  double buf[32];
  a.next_doubles(buf, 32);
  for (double v : buf) EXPECT_EQ(v, b.next_double());
}

// ---------------------------------------------------------------------------
// Statistics.

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({1, 100}), 10);
  EXPECT_DOUBLE_EQ(geometric_mean({5}), 5);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0);
}

// ---------------------------------------------------------------------------
// Histogram (power-of-two buckets; exact count/total/min/max).

TEST(Histogram, ExactStatistics) {
  Histogram h;
  for (std::uint64_t v : {1ull, 2ull, 3ull, 1000ull}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.total(), 1006u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 4.0);
}

TEST(Histogram, BucketBoundaries) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  EXPECT_EQ(h.bucket(0), 1u);  // value 0
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 1]
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 3]
  EXPECT_EQ(h.bucket(3), 1u);  // [4, 7]
  EXPECT_EQ(h.bucket_floor(2), 2u);
  EXPECT_EQ(h.bucket_ceil(2), 3u);
}

TEST(Histogram, PercentilesBracketedByBuckets) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(10);
  h.record(1000);
  // p50 falls in 10's bucket [8, 15]; p100 is capped at the exact max.
  EXPECT_GE(h.percentile(50), 8u);
  EXPECT_LE(h.percentile(50), 15u);
  EXPECT_EQ(h.percentile(100), 1000u);
}

TEST(Histogram, MergeAndReset) {
  Histogram a, b;
  a.record(5);
  b.record(7);
  b.record(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.total(), 112u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 100u);
  a.merge(Histogram{});  // merging an empty histogram changes nothing
  EXPECT_EQ(a.count(), 3u);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.total(), 0u);
}

// ---------------------------------------------------------------------------
// ResultTable.

TEST(ResultTable, SetGetAndMissing) {
  ResultTable t("x");
  t.set("r1", "c1", 1.5);
  t.set("r1", "c2", 3.0);
  t.set("r2", "c1", 2.0);
  EXPECT_DOUBLE_EQ(t.get("r1", "c2"), 3.0);
  EXPECT_TRUE(t.has("r2", "c1"));
  EXPECT_FALSE(t.has("r2", "c2"));
  EXPECT_TRUE(std::isnan(t.get("nope", "c1")));
}

TEST(ResultTable, NormalizedTo) {
  ResultTable t("x");
  t.set("r", "native", 100);
  t.set("r", "vm", 25);
  const ResultTable n = t.normalized_to("native", "rel");
  EXPECT_DOUBLE_EQ(n.get("r", "vm"), 0.25);
  EXPECT_DOUBLE_EQ(n.get("r", "native"), 1.0);
}

TEST(ResultTable, CsvShape) {
  ResultTable t("title");
  t.set("row", "col", 2.0);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "# title\nbenchmark,col\nrow,2\n");
}

TEST(ResultTable, SciFormat) {
  EXPECT_EQ(sci(2.5e8), "2.50E+08");
  EXPECT_EQ(sci(1), "1.00E+00");
}

TEST(ResultTable, JsonShape) {
  ResultTable t("t");
  t.set("row", "a", 2.0);
  t.set("row", "b", 0.5);
  std::ostringstream os;
  t.print_json(os);
  EXPECT_EQ(os.str(),
            "{\"title\":\"t\",\"columns\":[\"a\",\"b\"],\"rows\":[\"row\"],"
            "\"cells\":[[2,0.5]]}\n");
}

TEST(ResultTable, JsonEscapesAndNulls) {
  ResultTable t("quote\" tab\t");
  t.set("r\\1", "c", std::nan(""));
  std::ostringstream os;
  t.print_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"quote\\\" tab\\t\""), std::string::npos);
  EXPECT_NE(s.find("\"r\\\\1\""), std::string::npos);
  EXPECT_NE(s.find("[[null]]"), std::string::npos);
}

TEST(ResultTable, JsonEscapeHelper) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ---------------------------------------------------------------------------
// Timer.

TEST(Timer, StopwatchAccumulates) {
  Stopwatch w;
  w.start();
  w.stop();
  const double first = w.seconds();
  w.start();
  w.stop();
  EXPECT_GE(w.seconds(), first);
  w.reset();
  EXPECT_DOUBLE_EQ(w.seconds(), 0);
}

TEST(Timer, MonotonicClock) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace hpcnet::test
