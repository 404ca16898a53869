// Unit tests for the deterministic PRNG, samplers, and online statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace soda::sim {
namespace {

// ---------- Rng ----------

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 6.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntExtremeRangeNoOverflow) {
  // hi - lo overflows int64 for the full range; the span math must wrap
  // through uint64 instead of invoking signed-overflow UB.
  Rng rng(21);
  bool neg = false, pos = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v =
        rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max());
    neg |= v < 0;
    pos |= v > 0;
  }
  EXPECT_TRUE(neg);
  EXPECT_TRUE(pos);
}

TEST(Rng, ExponentialAlwaysFiniteNonNegative) {
  // Samples from 1-u: u == 0 now yields a zero gap, not the distribution's
  // largest representable gap, and log1p(-u) is finite for every u in [0,1).
  Rng rng(22);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.exponential(1.0);
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_GE(x, 0.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(6);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.bounded_pareto(1.2, 100, 10000);
    EXPECT_GE(x, 100.0 * (1 - 1e-9));
    EXPECT_LE(x, 10000.0 * (1 + 1e-9));
  }
}

TEST(Rng, BernoulliEdgesAndRate) {
  Rng rng(9);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(11);
  Rng child1 = a.fork();
  Rng b(11);
  Rng child2 = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1(), child2());
}

// ---------- ZipfSampler ----------

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(12);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, ZeroSkewIsUniformish) {
  Rng rng(13);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Zipf, SingleElement) {
  Rng rng(14);
  ZipfSampler zipf(1, 2.0);
  EXPECT_EQ(zipf.sample(rng), 0u);
}

// ---------- RunningStats ----------

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MeanIsTheInOrderSumOverCount) {
  // Bit for bit what summing the samples in arrival order gives, which is
  // what the per-node response-time means of Figures 3, 4 and 6 print.
  // Welford's running mean lands on 0.2 here; the in-order sum does not.
  RunningStats stats;
  double sum = 0;
  for (double x : {0.1, 0.2, 0.3}) {
    stats.add(x);
    sum += x;
  }
  EXPECT_EQ(stats.mean(), sum / 3.0);
  EXPECT_NE(stats.mean(), 0.2);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 1.0);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
}

TEST(RunningStats, MergeSingleSampleVariance) {
  // Two singletons carry zero m2 each; the merged variance must come
  // entirely from the Chan cross term.
  RunningStats a, b;
  a.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 2.0);  // ((2-3)^2 + (4-3)^2) / (2-1)
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

// ---------- TimeSeries ----------

TEST(TimeSeries, MeanAndDeviation) {
  TimeSeries series;
  series.add(SimTime::seconds(1), 0.30);
  series.add(SimTime::seconds(2), 0.35);
  series.add(SimTime::seconds(3), 0.40);
  EXPECT_EQ(series.size(), 3u);
  EXPECT_NEAR(series.mean_value(), 0.35, 1e-12);
  EXPECT_NEAR(series.max_abs_deviation(1.0 / 3), 0.4 - 1.0 / 3, 1e-9);
}

TEST(TimeSeries, EmptyDefaults) {
  TimeSeries series;
  EXPECT_DOUBLE_EQ(series.mean_value(), 0.0);
  EXPECT_DOUBLE_EQ(series.time_weighted_mean(), 0.0);
  EXPECT_DOUBLE_EQ(series.max_abs_deviation(0.5), 0.0);
}

TEST(TimeSeries, TimeWeightedMeanIrregularSpacing) {
  TimeSeries series;
  series.add(SimTime::seconds(0), 1.0);   // holds for 1 s
  series.add(SimTime::seconds(1), 10.0);  // holds for 9 s
  series.add(SimTime::seconds(10), 0.0);  // zero weight without a horizon
  // The unweighted mean treats the short-lived first point like the
  // long-lived second — that's the bug for irregular sampling.
  EXPECT_NEAR(series.mean_value(), 11.0 / 3, 1e-12);
  // Sample-and-hold: (1*1 + 10*9) / 10.
  EXPECT_NEAR(series.time_weighted_mean(), 9.1, 1e-12);
}

TEST(TimeSeries, TimeWeightedMeanWithHorizon) {
  TimeSeries series;
  series.add(SimTime::seconds(0), 2.0);
  series.add(SimTime::seconds(1), 4.0);
  // The final value holds from t=1 to the horizon t=4: (2*1 + 4*3) / 4.
  EXPECT_NEAR(series.time_weighted_mean(SimTime::seconds(4)), 3.5, 1e-12);
}

TEST(TimeSeries, TimeWeightedMeanZeroSpanFallsBack) {
  TimeSeries series;
  series.add(SimTime::seconds(3), 5.0);
  series.add(SimTime::seconds(3), 7.0);
  // All points at one instant: no span to weight by, use the plain mean.
  EXPECT_DOUBLE_EQ(series.time_weighted_mean(), 6.0);
}

}  // namespace
}  // namespace soda::sim
