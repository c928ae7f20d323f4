#include "simcore/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace spothost::sim {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

namespace {

// std::mt19937_64's parameters ([rand.predef]).
constexpr std::uint64_t kHalf = 156;  // m; n = 2m
constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kTwistMatrix = 0xB5026F5AA96619E9ULL;

/// The seeding step: x[j] from x[j-1].
constexpr std::uint64_t seed_step(std::uint64_t prev, std::uint64_t j) noexcept {
  return kSeedMultiplier * (prev ^ (prev >> 62)) + j;
}

constexpr std::uint64_t temper(std::uint64_t y) noexcept {
  y ^= (y >> 29) & 0x5555555555555555ULL;
  y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
  y ^= (y << 37) & 0xFFF7EEE000000000ULL;
  return y ^ (y >> 43);
}

}  // namespace

CompactMt19937_64::CompactMt19937_64(const CompactMt19937_64& other)
    : seed_(other.seed_),
      lo_(other.lo_),
      hi_(other.hi_),
      drawn_(other.drawn_),
      full_(other.full_ ? std::make_unique<std::mt19937_64>(*other.full_) : nullptr) {}

CompactMt19937_64& CompactMt19937_64::operator=(const CompactMt19937_64& other) {
  if (this != &other) *this = CompactMt19937_64(other);
  return *this;
}

CompactMt19937_64::result_type CompactMt19937_64::draw_compact() {
  if (drawn_ == kHalf) {
    full_ = std::make_unique<std::mt19937_64>(seed_);
    full_->discard(kHalf);
    return (*full_)();
  }
  if (drawn_ == 0) {
    hi_ = seed_;
    for (std::uint64_t j = 1; j <= kHalf; ++j) hi_ = seed_step(hi_, j);
  }
  const std::uint64_t i = drawn_++;
  const std::uint64_t next = seed_step(lo_, i + 1);  // x[i + 1]
  const std::uint64_t y = (lo_ & kUpperMask) | (next & kLowerMask);
  const std::uint64_t x = hi_ ^ (y >> 1) ^ ((y & 1) != 0 ? kTwistMatrix : 0);
  lo_ = next;
  hi_ = seed_step(hi_, i + kHalf + 1);
  return temper(x);
}

double RngStream::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return engine_.visit(d);
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return engine_.visit(d);
}

double RngStream::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
  std::exponential_distribution<double> d(1.0 / mean);
  return engine_.visit(d);
}

double RngStream::normal(double mean, double stddev) {
  if (stddev < 0) throw std::invalid_argument("normal: stddev must be >= 0");
  // Scale a unit draw by hand: std::normal_distribution requires stddev > 0.
  // The engine advances exactly as it would for a (mean, stddev) draw.
  std::normal_distribution<double> d(0.0, 1.0);
  const double z = engine_.visit(d);
  return z * stddev + mean;
}

double RngStream::lognormal_mean_cv(double mean, double cv) {
  if (mean <= 0 || cv < 0) {
    throw std::invalid_argument("lognormal_mean_cv: mean must be > 0 and cv >= 0");
  }
  if (cv == 0) return mean;
  // If X ~ LogNormal(mu, sigma): E[X] = exp(mu + sigma^2/2),
  // CV[X]^2 = exp(sigma^2) - 1. Invert for (mu, sigma).
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  std::lognormal_distribution<double> d(mu, std::sqrt(sigma2));
  return engine_.visit(d);
}

double RngStream::pareto(double x_m, double alpha) {
  if (x_m <= 0 || alpha <= 0) {
    throw std::invalid_argument("pareto: x_m and alpha must be > 0");
  }
  // Inverse-CDF sampling; guard u away from 0 to avoid infinity.
  std::uniform_real_distribution<double> d(0.0, 1.0);
  double u = engine_.visit(d);
  if (u < 1e-12) u = 1e-12;
  return x_m / std::pow(u, 1.0 / alpha);
}

bool RngStream::chance(double p) {
  std::bernoulli_distribution d(p);
  return engine_.visit(d);
}

RngStream RngFactory::stream(std::string_view name) const {
  std::uint64_t state = master_seed_ ^ fnv1a(name);
  // Two warm-up steps decorrelate nearby master seeds.
  (void)splitmix64(state);
  return RngStream(splitmix64(state));
}

RngStream RngFactory::stream(std::string_view name, std::uint64_t index) const {
  std::uint64_t state = master_seed_ ^ fnv1a(name) ^ (index * 0x9E3779B97F4A7C15ULL);
  (void)splitmix64(state);
  return RngStream(splitmix64(state));
}

}  // namespace spothost::sim
