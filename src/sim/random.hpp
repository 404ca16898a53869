// Deterministic random number generation for workloads. xoshiro256** with
// splitmix64 seeding: fast, high quality, and — unlike std::default_random_
// engine / std distributions — identical streams on every platform, which
// keeps experiment output reproducible byte-for-byte.
#pragma once

#include <cstdint>
#include <vector>

namespace soda::sim {

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x5eed50DAULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return UINT64_MAX; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Exponential with the given mean (> 0); used for Poisson arrivals.
  double exponential(double mean) noexcept;

  /// Bounded Pareto sample in [lo, hi] with shape `alpha`; heavy-tailed
  /// service demands.
  double bounded_pareto(double alpha, double lo, double hi) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Forks an independent deterministic child stream (for per-client RNGs).
  Rng fork() noexcept;

  /// Snapshot walk over the raw state words. The all-zero state is
  /// degenerate (it only ever yields zero) and never produced by seeding.
  template <class Ar>
  void serialize(Ar& ar) {
    for (std::uint64_t& word : state_) ar.u64(word);
    ar.check((state_[0] | state_[1] | state_[2] | state_[3]) != 0,
             "degenerate rng state");
  }

 private:
  std::uint64_t state_[4];
};

/// Zipf(s) sampler over ranks {0, .., n-1}; used to pick which file of a web
/// dataset each request fetches. Precomputes the CDF at construction.
class ZipfSampler {
 public:
  /// n must be >= 1; s >= 0 (s = 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  /// Draws a rank in [0, n).
  std::size_t sample(Rng& rng) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace soda::sim
