// Deterministic random-number streams.
//
// Every stochastic component draws from its own named stream derived from the
// experiment's master seed, so adding a component (or reordering draws inside
// one) never perturbs the numbers another component sees. Stream derivation
// uses SplitMix64 over (master_seed, fnv1a(name)).
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>

namespace spothost::sim {

/// SplitMix64 step — used for seed derivation, also handy in tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a 64-bit hash of a string (stream names).
std::uint64_t fnv1a(std::string_view s) noexcept;

/// std::mt19937_64, bit for bit, that holds 40 bytes for its first 156
/// draws.
///
/// The standard seeding sets x[0] = seed and
/// x[j] = 6364136223846793005 * (x[j-1] ^ (x[j-1] >> 62)) + j, and the first
/// twist sets x'[i] = x[i+156] ^ twist(x[i], x[i+1]) for i < 156; output i
/// is temper(x'[i]). So draws 0..155 need only the two running seeding
/// words x[i] and x[i+156], each advanced one seeding step per draw. The
/// 157th draw needs x'[0], so the engine then builds a full std::mt19937_64
/// on the heap, discards 156 outputs and forwards every later draw to it.
/// A scheduler draws a few dozen numbers in a month and never holds the
/// 2.5 kB state; heavy streams (trace synthesis, faults) switch once.
class CompactMt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit CompactMt19937_64(result_type seed) noexcept : seed_(seed), lo_(seed) {}
  CompactMt19937_64(const CompactMt19937_64& other);
  CompactMt19937_64& operator=(const CompactMt19937_64& other);
  CompactMt19937_64(CompactMt19937_64&&) noexcept = default;
  CompactMt19937_64& operator=(CompactMt19937_64&&) noexcept = default;

  static constexpr result_type min() noexcept { return std::mt19937_64::min(); }
  static constexpr result_type max() noexcept { return std::mt19937_64::max(); }

  result_type operator()() { return full_ ? (*full_)() : draw_compact(); }

 private:
  friend class RngStream;

  /// `sample(engine)` on the engine that makes the next outputs: the heap
  /// std::mt19937_64 once switched, so every draw of a sample skips the
  /// check in operator(); else this engine, which may switch mid-sample.
  template <typename Sample>
  decltype(auto) visit(Sample&& sample) {
    return full_ ? sample(*full_) : sample(*this);
  }

  result_type draw_compact();

  std::uint64_t seed_;
  std::uint64_t lo_;       ///< x[drawn_]
  std::uint64_t hi_ = 0;   ///< x[drawn_ + 156]; computed on the first draw
  std::uint64_t drawn_ = 0;
  std::unique_ptr<std::mt19937_64> full_;  ///< set from the 157th draw on
};

/// A single random stream with the distributions the simulator needs.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal with the given mean and standard deviation (>= 0). Every
  /// stddev advances the stream alike; 0 returns `mean` exactly.
  double normal(double mean, double stddev);

  /// Log-normal parameterised by the *target* mean and coefficient of
  /// variation (cv = stddev/mean) of the resulting distribution — far easier
  /// to calibrate from measured latency tables than (mu, sigma).
  double lognormal_mean_cv(double mean, double cv);

  /// Pareto with scale x_m > 0 and shape alpha > 0 (heavy-tailed spikes).
  double pareto(double x_m, double alpha);

  /// Bernoulli.
  bool chance(double p);

  /// Raw engine access (for std:: distributions in tests).
  CompactMt19937_64& engine() noexcept { return engine_; }

 private:
  CompactMt19937_64 engine_;
};

/// Derives independent named streams from one master seed.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t master_seed) : master_seed_(master_seed) {}

  /// Stream for a named component, e.g. "market/us-east-1a/small".
  [[nodiscard]] RngStream stream(std::string_view name) const;

  /// Stream for a named component plus an index (per-run, per-instance, ...).
  [[nodiscard]] RngStream stream(std::string_view name, std::uint64_t index) const;

  [[nodiscard]] std::uint64_t master_seed() const noexcept { return master_seed_; }

 private:
  std::uint64_t master_seed_;
};

}  // namespace spothost::sim
