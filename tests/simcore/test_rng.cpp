#include "simcore/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace spothost::sim {
namespace {

double sample_mean(std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

TEST(Rng, SameSeedSameSequence) {
  RngStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  RngStream a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  RngStream r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  RngStream r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo |= (x == 1);
    saw_hi |= (x == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  RngStream r(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(r.exponential(5.0));
  EXPECT_NEAR(sample_mean(xs), 5.0, 0.2);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  RngStream r(1);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalZeroStddevReturnsMeanAndConsumesOneDraw) {
  // stddev 0 is a legal degenerate normal: it returns the mean exactly and
  // advances the stream exactly as a draw with stddev 1 does, so a caller
  // that zeroes a jitter sigma keeps every later draw where it was.
  RngStream zero(29), unit(29);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
    (void)unit.normal(3.5, 1.0);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zero.uniform(0, 1), unit.uniform(0, 1));
  }
}

TEST(Rng, NormalScalesAUnitDraw) {
  RngStream a(31), b(31);
  for (int i = 0; i < 100; ++i) {
    const double z = a.normal(0.0, 1.0);
    EXPECT_EQ(b.normal(-2.0, 0.25), z * 0.25 + -2.0);
  }
}

TEST(Rng, NormalRejectsNegativeStddev) {
  RngStream r(1);
  EXPECT_THROW(r.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, LognormalMeanCvMatchesTargets) {
  RngStream r(13);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(r.lognormal_mean_cv(100.0, 0.3));
  const double m = sample_mean(xs);
  EXPECT_NEAR(m, 100.0, 1.5);
  double ss = 0;
  for (double x : xs) ss += (x - m) * (x - m);
  const double cv = std::sqrt(ss / static_cast<double>(xs.size())) / m;
  EXPECT_NEAR(cv, 0.3, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  RngStream r(13);
  EXPECT_DOUBLE_EQ(r.lognormal_mean_cv(42.0, 0.0), 42.0);
}

TEST(Rng, LognormalRejectsBadParams) {
  RngStream r(1);
  EXPECT_THROW(r.lognormal_mean_cv(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(r.lognormal_mean_cv(1.0, -0.5), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScaleAndTail) {
  RngStream r(17);
  int above_double = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.pareto(2.0, 1.5);
    EXPECT_GE(x, 2.0);
    if (x > 4.0) ++above_double;
  }
  // P(X > 2*x_m) = 2^-alpha = 2^-1.5 ~ 0.3536
  EXPECT_NEAR(static_cast<double>(above_double) / n, 0.3536, 0.02);
}

TEST(Rng, ParetoRejectsBadParams) {
  RngStream r(1);
  EXPECT_THROW(r.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, ChanceRespectsProbability) {
  RngStream r(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngFactory, NamedStreamsAreIndependent) {
  RngFactory f(42);
  auto a = f.stream("alpha");
  auto b = f.stream("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngFactory, SameNameReproduces) {
  RngFactory f(42);
  auto a = f.stream("alpha");
  auto b = f.stream("alpha");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(RngFactory, IndexedStreamsDiffer) {
  RngFactory f(42);
  auto a = f.stream("runs", 0);
  auto b = f.stream("runs", 1);
  EXPECT_NE(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngFactory, DifferentMasterSeedsDecorrelate) {
  RngFactory f1(1), f2(2);
  auto a = f1.stream("x");
  auto b = f2.stream("x");
  EXPECT_NE(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Hashing, Fnv1aStableKnownValue) {
  // FNV-1a("") is the offset basis; "a" is a published vector.
  EXPECT_EQ(fnv1a(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xAF63DC4C8601EC8CULL);
}

TEST(Hashing, SplitMixAdvancesState) {
  std::uint64_t s = 0;
  const auto v1 = splitmix64(s);
  const auto v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
}


// --- CompactMt19937_64 against std::mt19937_64 ------------------------------
// The compact engine keeps two seeding words for draws 0..155 and switches
// to a heap std::mt19937_64 at draw 156; every output, on both sides of the
// switch and in copies taken on either side, must equal the standard
// engine's.

constexpr std::uint64_t kSeeds[] = {0,
                                    1,
                                    5489,  // std::mt19937_64::default_seed
                                    20150615,
                                    std::uint64_t{1} << 32,
                                    0x9E3779B97F4A7C15ULL,
                                    std::uint64_t{1} << 63,
                                    ~std::uint64_t{0}};
constexpr int kDraws = 1000;  // crosses draws 156 and 312

TEST(CompactMt, MatchesStdEngineForEverySeed) {
  static_assert(std::uniform_random_bit_generator<CompactMt19937_64>);
  static_assert(CompactMt19937_64::min() == std::mt19937_64::min());
  static_assert(CompactMt19937_64::max() == std::mt19937_64::max());
  for (const std::uint64_t seed : kSeeds) {
    CompactMt19937_64 compact(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(compact(), reference()) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(CompactMt, CopiesOnBothSidesOfTheSwitchContinueAlike) {
  for (const std::uint64_t seed : kSeeds) {
    for (const int at : {0, 1, 100, 155, 156, 157, 312, 500}) {
      CompactMt19937_64 original(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < at; ++i) ASSERT_EQ(original(), reference());
      CompactMt19937_64 copy(original);
      CompactMt19937_64 assigned(~seed);
      (void)assigned();
      assigned = original;
      std::mt19937_64 expected = reference;
      for (int i = at; i < kDraws; ++i) {
        const auto want = reference();
        ASSERT_EQ(original(), want) << "seed " << seed << ", copied at " << at;
        ASSERT_EQ(copy(), want) << "seed " << seed << ", copied at " << at;
        ASSERT_EQ(assigned(), want) << "seed " << seed << ", assigned at " << at;
      }
      // Drawing from the original and its copies in turn showed the copies
      // are deep; a moved-to engine continues where the source stopped.
      CompactMt19937_64 late(seed);
      for (int i = 0; i < at; ++i) (void)late();
      CompactMt19937_64 moved(std::move(late));
      for (int i = at; i < kDraws; ++i) ASSERT_EQ(moved(), expected());
    }
  }
}

/// RngStream's distributions as written over std::mt19937_64 before the
/// compact engine: the simple path the stream must still match bit for bit.
class ReferenceStream {
 public:
  explicit ReferenceStream(std::uint64_t seed) : engine_(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev + mean;
  }
  double lognormal_mean_cv(double mean, double cv) {
    if (cv == 0) return mean;
    const double sigma2 = std::log1p(cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::lognormal_distribution<double>(mu, std::sqrt(sigma2))(engine_);
  }
  double pareto(double x_m, double alpha) {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    if (u < 1e-12) u = 1e-12;
    return x_m / std::pow(u, 1.0 / alpha);
  }
  bool chance(double p) { return std::bernoulli_distribution(p)(engine_); }

 private:
  std::mt19937_64 engine_;
};

/// Draws one value from each side with the distribution `pick` names.
template <typename Stream>
double draw(Stream& s, int pick) {
  switch (pick) {
    case 0: return s.uniform(-3.0, 7.5);
    case 1: return static_cast<double>(s.uniform_int(0, 6));  // rejection path
    case 2: return static_cast<double>(s.uniform_int(-1000000, 1000000000000));
    case 3: return s.exponential(42.0);
    case 4: return s.normal(5.0, 2.0);  // polar method: a variable draw count
    case 5: return s.normal(1.0, 0.0);
    case 6: return s.lognormal_mean_cv(120.0, 0.3);
    case 7: return s.lognormal_mean_cv(120.0, 0.0);  // draws nothing
    case 8: return s.pareto(2.0, 1.5);
    default: return s.chance(0.3) ? 1.0 : 0.0;
  }
}

TEST(RngDifferential, EveryDistributionMatchesTheStdEngineStream) {
  for (const std::uint64_t seed : kSeeds) {
    // One stream per distribution, and one that interleaves them all so
    // the switch lands inside every kind of multi-draw sample.
    for (int only = -1; only < 10; ++only) {
      RngStream stream(seed);
      ReferenceStream reference(seed);
      std::minstd_rand order(static_cast<std::uint32_t>(seed ^ (seed >> 32)) + 1);
      for (int i = 0; i < kDraws; ++i) {
        const int pick = only >= 0 ? only : static_cast<int>(order() % 10);
        const double got = draw(stream, pick);
        const double want = draw(reference, pick);
        ASSERT_EQ(got, want) << "seed " << seed << ", call " << i << ", kind " << pick;
      }
    }
  }
}

TEST(RngDifferential, FactoryStreamsMatchTheStdEngine) {
  const RngFactory factory(20150615);
  for (std::uint64_t index = 0; index < 16; ++index) {
    RngStream stream = factory.stream("fleet-timing", index);
    RngStream copy = stream;
    std::uint64_t state = 20150615 ^ fnv1a("fleet-timing") ^ (index * 0x9E3779B97F4A7C15ULL);
    (void)splitmix64(state);
    ReferenceStream reference(splitmix64(state));
    for (int i = 0; i < 400; ++i) {
      const double want = reference.lognormal_mean_cv(30.0, 0.25);
      ASSERT_EQ(stream.lognormal_mean_cv(30.0, 0.25), want);
      ASSERT_EQ(copy.lognormal_mean_cv(30.0, 0.25), want);
    }
  }
}

}  // namespace
}  // namespace spothost::sim
