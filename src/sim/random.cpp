#include "sim/random.hpp"

#include <cmath>

#include "util/contract.hpp"

namespace soda::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  SODA_EXPECTS(lo <= hi);
  // Subtract in uint64: hi - lo in signed arithmetic overflows for extreme
  // ranges (e.g. lo near INT64_MIN, hi near INT64_MAX); two's-complement
  // wraparound makes the unsigned difference exact. Identical results to the
  // old code for every non-overflowing range, so seeded sequences hold.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Modulo bias is negligible for span << 2^64 (all our uses).
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   (*this)() % span);
}

double Rng::exponential(double mean) noexcept {
  SODA_EXPECTS(mean > 0);
  // Inverse CDF on 1-u: uniform() returns [0, 1), so 1-u lies in (0, 1] and
  // log1p(-u) is always finite. The old -log(u) form clamped u == 0 to
  // 2^-53, mapping the *bottom* of the uniform range to the *largest*
  // representable gap — a spurious ~36.7x-mean outlier corrupting tails.
  // Seeded gap sequences change (log(u) vs log(1-u)); no golden trace pins
  // them — arrival-driven tests assert rates/counts with tolerances.
  return -mean * std::log1p(-uniform());
}

double Rng::bounded_pareto(double alpha, double lo, double hi) noexcept {
  SODA_EXPECTS(alpha > 0 && lo > 0 && hi > lo);
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform() < p;
}

Rng Rng::fork() noexcept { return Rng((*this)()); }

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  SODA_EXPECTS(n >= 1 && s >= 0);
  cdf_.resize(n);
  double total = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_[rank] = total;
  }
  for (auto& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.uniform();
  // Binary search for the first cdf entry >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace soda::sim
