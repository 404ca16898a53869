#include "sim/streaming_stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"

namespace soda::sim {

using util::fnv1a_word;

// ---------- LogHistogram ----------

LogHistogram::LogHistogram(double lo, double hi, std::size_t sub_buckets)
    : lo_(lo), hi_(hi), sub_buckets_(sub_buckets) {
  SODA_EXPECTS(lo > 0 && hi > lo && sub_buckets > 0);
  // Octaves needed to cover [lo, hi): ceil(log2(hi/lo)), computed with
  // frexp-style integer math so the geometry is platform-exact.
  std::size_t octaves = 0;
  for (double edge = lo_; edge < hi_; edge *= 2.0) ++octaves;
  counts_.assign(octaves * sub_buckets_, 0);
}

std::size_t LogHistogram::index_for(double x) const noexcept {
  // x in [lo, hi). Write x/lo = m * 2^e with m in [0.5, 1): the octave is
  // e-1 and the sub-bucket is linear in (2m - 1). frexp is exact — no
  // platform-dependent transcendental on the record path.
  int e = 0;
  const double m = std::frexp(x / lo_, &e);
  const std::size_t octave = static_cast<std::size_t>(e - 1);
  auto sub = static_cast<std::size_t>((m * 2.0 - 1.0) *
                                      static_cast<double>(sub_buckets_));
  if (sub >= sub_buckets_) sub = sub_buckets_ - 1;
  std::size_t idx = octave * sub_buckets_ + sub;
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  return idx;
}

double LogHistogram::bucket_high(std::size_t i) const noexcept {
  const std::size_t octave = i / sub_buckets_;
  const std::size_t sub = i % sub_buckets_;
  const double base = lo_ * std::ldexp(1.0, static_cast<int>(octave));
  return base * (1.0 + static_cast<double>(sub + 1) /
                           static_cast<double>(sub_buckets_));
}

void LogHistogram::add(double x) noexcept {
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  ++counts_[index_for(x)];
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  SODA_EXPECTS(counts_.size() == other.counts_.size() &&
               sub_buckets_ == other.sub_buckets_);
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void LogHistogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = underflow_ = overflow_ = 0;
  min_ = max_ = 0;
}

double LogHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total_ - 1);
  if (rank < static_cast<double>(underflow_)) return lo_;
  double cum = static_cast<double>(underflow_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (rank < cum) return std::min(bucket_high(i), max_);
  }
  return max_;  // overflow mass: the exact max is all we know
}

std::uint64_t LogHistogram::digest() const noexcept {
  std::uint64_t hash =
      fnv1a_word(fnv1a_word(util::kFnvBasis, total_), underflow_);
  hash = fnv1a_word(hash, overflow_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    hash = fnv1a_word(fnv1a_word(hash, i), counts_[i]);
  }
  return hash;
}

// ---------- StreamingStats ----------

StreamingStats::StreamingStats(StreamingStatsConfig config)
    : config_(config),
      cumulative_(config.hist_lo, config.hist_hi, config.sub_buckets),
      scratch_(config.hist_lo, config.hist_hi, config.sub_buckets) {
  SODA_EXPECTS(config_.window > SimTime::zero() && config_.ring_windows >= 1);
  ring_.reserve(config_.ring_windows);
  for (std::size_t i = 0; i < config_.ring_windows; ++i) {
    ring_.emplace_back(config_.hist_lo, config_.hist_hi, config_.sub_buckets);
  }
}

void StreamingStats::reserve_duration(SimTime horizon) {
  SODA_EXPECTS(horizon >= SimTime::zero());
  const auto windows =
      static_cast<std::size_t>(horizon.ns() / config_.window.ns()) + 2;
  closed_.reserve(closed_.size() + windows);
}

void StreamingStats::establish_origin(SimTime at) noexcept {
  if (origin_set_) return;
  origin_ = at;
  origin_set_ = true;
}

void StreamingStats::rotate_once() noexcept {
  // Close the open window: summarize it, then recycle the ring slot that
  // falls out of the rolling horizon.
  LogHistogram& open = ring_[head_];
  WindowSummary summary;
  summary.start = origin_;
  summary.completed = open.total();
  summary.errors = open_errors_;
  summary.p50 = open.p50();
  summary.p99 = open.p99();
  summary.max = open.max();
  closed_.push_back(summary);
  head_ = (head_ + 1) % ring_.size();
  ring_[head_].clear();  // evict the oldest closed window from the ring
  open_errors_ = 0;
  origin_ += config_.window;
}

void StreamingStats::advance_to(SimTime now) noexcept {
  establish_origin(now);
  while (now - origin_ >= config_.window) rotate_once();
}

void StreamingStats::record_latency(SimTime at, double seconds) noexcept {
  advance_to(at);
  open_window().add(seconds);
  cumulative_.add(seconds);
  moments_.add(seconds);
  ++completed_;
}

void StreamingStats::record_error(SimTime at) noexcept {
  advance_to(at);
  ++open_errors_;
  ++errors_;
}

double StreamingStats::error_rate() const noexcept {
  const std::uint64_t attempts = completed_ + errors_;
  return attempts ? static_cast<double>(errors_) / static_cast<double>(attempts)
                  : 0.0;
}

double StreamingStats::quantile(double q) const noexcept {
  return cumulative_.quantile(q);
}

double StreamingStats::max_latency() const noexcept { return cumulative_.max(); }

double StreamingStats::rolling_quantile(double q) const noexcept {
  scratch_.clear();
  for (const auto& window : ring_) scratch_.merge(window);
  return scratch_.quantile(q);
}

TimeSeries StreamingStats::error_rate_series() const {
  TimeSeries series;
  for (const auto& window : closed_) {
    const std::uint64_t attempts = window.completed + window.errors;
    series.add(window.start, attempts ? static_cast<double>(window.errors) /
                                            static_cast<double>(attempts)
                                      : 0.0);
  }
  return series;
}

template <class Ar>
void StreamingStats::serialize(Ar& ar) {
  ar.begin_section("streaming_stats");
  ar.expect("streaming-stats ring size mismatch").u64(ring_.size());
  ar.u64(head_, snapshot::Below{ring_.size()});
  for (LogHistogram& window : ring_) ar.walk(window);
  ar.walk(cumulative_);
  ar.walk(moments_);
  ar.seq(closed_, [&ar](auto& window) {
    ar.time(window.start);
    ar.u64(window.completed);
    ar.u64(window.errors);
    ar.f64(window.p50);
    ar.f64(window.p99);
    ar.f64(window.max);
  });
  ar.time(origin_);
  ar.boolean(origin_set_);
  ar.u64(open_errors_);
  ar.u64(completed_);
  ar.u64(errors_);
  ar.end_section();
}
template void StreamingStats::serialize(snapshot::Writer&);
template void StreamingStats::serialize(snapshot::Reader&);

std::uint64_t StreamingStats::digest() const noexcept {
  std::uint64_t hash =
      fnv1a_word(fnv1a_word(util::kFnvBasis, completed_), errors_);
  hash = fnv1a_word(hash, cumulative_.digest());
  for (const auto& window : closed_) {
    hash = fnv1a_word(hash, static_cast<std::uint64_t>(window.start.ns()));
    hash = fnv1a_word(fnv1a_word(hash, window.completed), window.errors);
    hash = fnv1a_word(hash, std::bit_cast<std::uint64_t>(window.p99));
  }
  return hash;
}

}  // namespace soda::sim
