#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/parse_number.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace lifting {
namespace {

// ---------------------------------------------------------- strong ids

TEST(StrongId, DistinctTypesDoNotMix) {
  static_assert(!std::is_convertible_v<NodeId, ChunkId>);
  static_assert(!std::is_convertible_v<std::uint32_t, NodeId>);
  const NodeId a{3};
  const NodeId b{4};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(NodeId{3}, a);
}

TEST(StrongId, HashableInUnorderedContainers) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId{1});
  set.insert(NodeId{1});
  set.insert(NodeId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, IncrementForDenseGeneration) {
  ChunkId id{10};
  ++id;
  EXPECT_EQ(id, ChunkId{11});
}

// ---------------------------------------------------------------- time

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(milliseconds(500).count(), 500'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  const TimePoint t = kSimEpoch + seconds(1.0);
  EXPECT_DOUBLE_EQ(to_seconds(t), 1.0);
}

TEST(SimTime, PeriodArithmetic) {
  const Duration tg = milliseconds(500);
  EXPECT_EQ(seconds(25.0) / tg, 50);  // n_h = h / Tg
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Pcg32 a{123, 7};
  Pcg32 b{123, 7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentStreamsDiffer) {
  Pcg32 a{123, 1};
  Pcg32 b{123, 2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Pcg32 rng{99};
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Pcg32 rng{5};
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Pcg32 rng{17};
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.07)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.07, 0.005);
}

TEST(Rng, BernoulliEdgeCases) {
  Pcg32 rng{17};
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BinomialMoments) {
  Pcg32 rng{31};
  const int trials = 20000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto k = rng.binomial(12, 0.3);
    ASSERT_LE(k, 12u);
    sum += k;
    sum2 += static_cast<double>(k) * k;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(mean, 12 * 0.3, 0.05);
  EXPECT_NEAR(var, 12 * 0.3 * 0.7, 0.1);
}

TEST(Rng, PoissonMoments) {
  Pcg32 rng{41};
  const int trials = 30000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto k = rng.poisson(7.0);
    sum += k;
    sum2 += static_cast<double>(k) * k;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(mean, 7.0, 0.1);
  EXPECT_NEAR(var, 7.0, 0.25);
}

TEST(Rng, SampleKDistinctProducesDistinctInRange) {
  Pcg32 rng{55};
  for (int trial = 0; trial < 50; ++trial) {
    const auto picks = sample_k_distinct(rng, 20, 12);
    ASSERT_EQ(picks.size(), 12u);
    std::set<std::uint32_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 12u);
    for (const auto p : picks) EXPECT_LT(p, 20u);
  }
}

TEST(Rng, SampleKDistinctFullRange) {
  Pcg32 rng{56};
  const auto picks = sample_k_distinct(rng, 5, 5);
  std::set<std::uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleKDistinctIsApproximatelyUniform) {
  Pcg32 rng{57};
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (const auto p : sample_k_distinct(rng, 10, 3)) ++counts[p];
  }
  // Each element is chosen with probability 3/10.
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(Rng, RoundRandomizedIsUnbiased) {
  Pcg32 rng{58};
  const double x = 3.7;
  double sum = 0.0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const auto v = round_randomized(rng, x);
    ASSERT_TRUE(v == 3 || v == 4);
    sum += v;
  }
  EXPECT_NEAR(sum / trials, x, 0.02);
}

TEST(Rng, DeriveRngIndependentStreams) {
  auto a = derive_rng(1234, 1);
  auto b = derive_rng(1234, 2);
  auto a2 = derive_rng(1234, 1);
  EXPECT_EQ(a.next(), a2.next());
  EXPECT_NE(a.next(), b.next());
}

// ------------------------------------------------------ unique function

TEST(UniqueFunction, CallsMoveOnlyLambda) {
  auto ptr = std::make_unique<int>(41);
  UniqueFunction<int()> fn = [p = std::move(ptr)] { return *p + 1; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  UniqueFunction<int(int)> fn = [](int x) { return x * 2; };
  UniqueFunction<int(int)> other = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(other(21), 42);
}

TEST(UniqueFunction, EmptyByDefault) {
  UniqueFunction<void()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

// --------------------------------------------------------------- table

TEST(TextTable, RendersAlignedRows) {
  TextTable table({"a", "bbbb"});
  table.add_row({"1", "2"});
  table.add_row({TextTable::num(3.14159, 2), "x"});
  std::ostringstream os;
  table.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // 3 separator lines + header + 2 rows = 6 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Require, ThrowsOnViolation) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "bad config"), std::invalid_argument);
}

TEST(ParseNumber, TakesWholeInRangeValuesOnly) {
  std::uint32_t u = 0;
  EXPECT_TRUE(parse_number("4294967295", u));
  EXPECT_EQ(u, 4294967295u);
  for (const char* bad : {"4294967296", "4294967299", "-1", "+5", " 5", "5 ",
                          "5x", "", "0x10"}) {
    EXPECT_FALSE(parse_number(bad, u)) << "'" << bad << "'";
  }
  std::int64_t i = 0;
  EXPECT_TRUE(parse_number("-5", i));
  EXPECT_EQ(i, -5);
  double d = 0.0;
  EXPECT_TRUE(parse_number("-2.5", d));
  EXPECT_EQ(d, -2.5);
  EXPECT_TRUE(parse_number("1e3", d));
  EXPECT_EQ(d, 1000.0);
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "1.5.", ".", ""}) {
    EXPECT_FALSE(parse_number(bad, d)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace lifting
