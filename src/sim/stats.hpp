// Online statistics used by the measurement harness: running moments
// (count, sum, mean, Welford variance) and time-weighted series for
// CPU-share plots (Figure 5). Latency distributions go through the one
// recorder, sim::StreamingStats (sim/streaming_stats.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace soda::sim {

/// Running count / sum / mean / variance / min / max. The variance is
/// Welford's (numerically stable); the mean is the plain sum over count.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// sum() / count(): the samples summed in the order they were added.
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Sample variance (n-1); zero for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.u64(count_);
    ar.f64(mean_);
    ar.f64(m2_);
    ar.f64(sum_);
    ar.f64(min_);
    ar.f64(max_);
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// A (time, value) series sampled at fixed intervals — e.g. a node's CPU
/// share over one-second windows for Figure 5.
class TimeSeries {
 public:
  struct Point {
    SimTime time;
    double value;
  };

  void add(SimTime time, double value) { points_.push_back({time, value}); }

  [[nodiscard]] const std::vector<Point>& points() const noexcept { return points_; }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

  /// Mean of the values (each point weighted equally). Only honest for
  /// series sampled at a fixed interval; irregularly sampled series should
  /// use time_weighted_mean().
  [[nodiscard]] double mean_value() const noexcept;

  /// Mean of the values weighted by how long each was in effect
  /// (sample-and-hold: point i's value holds from its timestamp until the
  /// next point's; the final value holds until `until`). Falls back to the
  /// unweighted mean when the series spans zero time.
  [[nodiscard]] double time_weighted_mean(SimTime until) const noexcept;
  /// As above with `until` = the last point's timestamp (the final value
  /// receives zero weight).
  [[nodiscard]] double time_weighted_mean() const noexcept;

  /// Max |value - target| across points; convergence metric for share plots.
  [[nodiscard]] double max_abs_deviation(double target) const noexcept;

 private:
  std::vector<Point> points_;
};

}  // namespace soda::sim
