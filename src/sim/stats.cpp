#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace soda::sim {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double TimeSeries::mean_value() const noexcept {
  if (points_.empty()) return 0.0;
  double sum = 0;
  for (const auto& p : points_) sum += p.value;
  return sum / static_cast<double>(points_.size());
}

double TimeSeries::time_weighted_mean(SimTime until) const noexcept {
  if (points_.empty()) return 0.0;
  double weighted = 0;
  double span_total = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const SimTime end = i + 1 < points_.size() ? points_[i + 1].time : until;
    const double span = std::max(0.0, (end - points_[i].time).to_seconds());
    weighted += points_[i].value * span;
    span_total += span;
  }
  if (span_total <= 0) return mean_value();  // zero-span series: no weighting
  return weighted / span_total;
}

double TimeSeries::time_weighted_mean() const noexcept {
  if (points_.empty()) return 0.0;
  return time_weighted_mean(points_.back().time);
}

double TimeSeries::max_abs_deviation(double target) const noexcept {
  double worst = 0;
  for (const auto& p : points_) worst = std::max(worst, std::abs(p.value - target));
  return worst;
}

}  // namespace soda::sim
