// The simulator's one latency recorder: a fixed-size log-bucketed latency
// histogram (HDR-style: bounded relative error, exact merge) and a
// rolling-window aggregator built from a ring of them. The open-loop
// TrafficEngine measures each stream with one, and a closed-loop
// SiegeClient measures its run with one. Memory is O(windows), never
// O(requests), so a bench can drive millions of requests and still read
// honest p50/p99/p999, per-window counters, and an error-rate-over-time
// series at the end. Everything is deterministic (integer bucket math via
// frexp, no platform-dependent transcendentals on the hot path) so serial
// and ParallelRunner replicas digest bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace soda::sim {

/// Log-bucketed histogram over [lo, hi): each power-of-two octave is split
/// into `sub_buckets` linear sub-buckets, bounding the relative quantile
/// error by 1/sub_buckets. Out-of-range samples are counted separately
/// (underflow/overflow), never clamped. Fixed memory; mergeable.
class LogHistogram {
 public:
  /// `lo` > 0 (log buckets need a positive origin); `hi` > lo.
  LogHistogram(double lo, double hi, std::size_t sub_buckets = 32);

  void add(double x) noexcept;
  /// Adds every count of `other`, which must share this histogram's
  /// geometry (lo/hi/sub_buckets).
  void merge(const LogHistogram& other) noexcept;
  /// Resets all counts; geometry (and allocation) is retained.
  void clear() noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] double min() const noexcept { return total_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return total_ ? max_ : 0.0; }

  /// Quantile estimate over all samples (q in [0,1]): returns the upper
  /// edge of the bucket holding the rank (pessimistic by at most one
  /// sub-bucket width). Underflow ranks report lo, overflow ranks report
  /// the largest sample seen. Empty histogram -> 0.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }

  [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return counts_[i];
  }
  /// Upper edge of bucket i (samples in i are <= this value's bucket edge).
  [[nodiscard]] double bucket_high(std::size_t i) const noexcept;

  /// FNV-1a over the counts — the determinism-gate fingerprint.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Snapshot walk over the counts; the geometry travels too, and a load
  /// into a histogram built with other lo/hi/sub_buckets fails.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("hist");
    auto&& geometry = ar.expect("histogram geometry mismatch");
    geometry.f64(lo_);
    geometry.f64(hi_);
    geometry.u64(sub_buckets_);
    geometry.u64(counts_.size());
    for (std::uint64_t& count : counts_) ar.u64(count);
    ar.u64(total_);
    ar.u64(underflow_);
    ar.u64(overflow_);
    ar.f64(min_);
    ar.f64(max_);
    ar.end_section();
  }

 private:
  [[nodiscard]] std::size_t index_for(double x) const noexcept;

  double lo_;
  double hi_;
  std::size_t sub_buckets_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Configuration for one StreamingStats pipeline.
struct StreamingStatsConfig {
  /// Width of one aggregation window.
  SimTime window = SimTime::seconds(1.0);
  /// Windows retained at full histogram fidelity for rolling quantiles
  /// (the ring); older windows collapse into the cumulative histogram plus
  /// a compact per-window summary.
  std::size_t ring_windows = 8;
  /// Histogram geometry (seconds): 1 us .. ~2.8 h, 32 sub-buckets/octave.
  double hist_lo = 1e-6;
  double hist_hi = 1e4;
  std::size_t sub_buckets = 32;
};

/// Rolling-window ingest -> aggregate pipeline. Events arrive in
/// nondecreasing simulated time (the engine guarantees it); window rotation
/// happens lazily as timestamps advance. After construction (plus an
/// optional reserve_duration) the record path performs zero heap
/// allocations — gated in bench/fig_traffic via alloc_counter.
class StreamingStats {
 public:
  /// Compact record of one closed window.
  struct WindowSummary {
    SimTime start;
    std::uint64_t completed = 0;
    std::uint64_t errors = 0;
    double p50 = 0;
    double p99 = 0;
    double max = 0;
  };

  explicit StreamingStats(StreamingStatsConfig config = {});

  /// Pre-allocates the closed-window series for a run of `horizon` so the
  /// record path stays allocation-free end to end.
  void reserve_duration(SimTime horizon);

  /// A request completed at `at` with end-to-end latency `seconds`: from
  /// its *scheduled* arrival in an open loop (coordinated-omission-free),
  /// from its issue in a closed loop.
  void record_latency(SimTime at, double seconds) noexcept;
  /// A request was refused/errored at `at`.
  void record_error(SimTime at) noexcept;
  /// Rotates windows up to `now` without recording (closes idle windows).
  void advance_to(SimTime now) noexcept;

  // ---- cumulative (whole run; includes the still-open window) ----
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  [[nodiscard]] double error_rate() const noexcept;
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] double p999() const noexcept { return quantile(0.999); }
  [[nodiscard]] double max_latency() const noexcept;
  [[nodiscard]] const RunningStats& latency_moments() const noexcept {
    return moments_;
  }

  // ---- rolling (the ring: last ring_windows windows incl. the open one) ----
  [[nodiscard]] double rolling_quantile(double q) const noexcept;
  [[nodiscard]] double rolling_p99() const noexcept {
    return rolling_quantile(0.99);
  }

  // ---- per-window series (closed windows, in time order) ----
  [[nodiscard]] const std::vector<WindowSummary>& windows() const noexcept {
    return closed_;
  }
  /// (window start, errors / (completed + errors)) per closed window —
  /// error-rate-over-time. Sampled per window, i.e. regularly; downstream
  /// consumers mixing in irregular points should use time_weighted_mean.
  [[nodiscard]] TimeSeries error_rate_series() const;

  [[nodiscard]] SimTime window_width() const noexcept { return config_.window; }
  /// True once at least one event or advance_to established the origin.
  [[nodiscard]] bool started() const noexcept { return origin_set_; }

  /// FNV-1a fingerprint over every counter, bucket, and window summary —
  /// what the serial == ParallelRunner bench gate compares.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Snapshot walk over the ring, cumulative histogram, moments, and
  /// closed-window series. A load needs a pipeline built with the same
  /// config.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  void rotate_once() noexcept;
  void establish_origin(SimTime at) noexcept;
  [[nodiscard]] LogHistogram& open_window() noexcept { return ring_[head_]; }

  StreamingStatsConfig config_;
  std::vector<LogHistogram> ring_;  // ring_[head_] is the open window
  std::size_t head_ = 0;
  LogHistogram cumulative_;       // everything, including the open ring
  mutable LogHistogram scratch_;  // rolling-quantile merge target
  RunningStats moments_;
  std::vector<WindowSummary> closed_;
  SimTime origin_;                    // start of the open window
  bool origin_set_ = false;
  std::uint64_t open_errors_ = 0;     // errors in the open window
  std::uint64_t completed_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace soda::sim
