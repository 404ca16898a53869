// Shared plumbing of the end-to-end benchmark: wall clocks, percentile
// samples, FNV digests, the span recorder of the traced build, and the
// result record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Heap allocations since process start. Counts only in the traced binary,
/// which links counting_alloc.cpp; the untraced binary links no_alloc_count.cpp
/// and reads 0, so its end-to-end numbers pay nothing for the counter.
std::uint64_t allocation_count() noexcept;

/// Wall-time samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  /// Appends `other`'s samples, each divided by `divisor`.
  void append(const Samples& other, double divisor = 1.0) {
    for (const double v : other.values_) values_.push_back(v / divisor);
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double percentile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
  [[nodiscard]] double median() const { return percentile(0.5); }

 private:
  std::vector<double> values_;
};

/// A run's figure from its per-round values: the typical undisturbed
/// round. Interference on a shared machine only ever slows a round down,
/// so rates take the upper quartile over timed rounds and times the lower.
inline double steady_rate(const Samples& per_round) {
  return per_round.percentile(0.75);
}
inline double steady_time(const Samples& per_round) {
  return per_round.percentile(0.25);
}

/// Incremental FNV-1a over the simulated outcome of a run.
struct Digest {
  std::uint64_t hash = 1469598103934665603ULL;
  void add(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  void add(std::string_view text) noexcept {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash *= 1099511628211ULL;  // delimiter: "ab"+"c" != "a"+"bc"
  }
};

/// In-memory span recorder. A span is one call into a layer, made by the
/// benchmark itself: name, operation id, parent span, start and end. Spans
/// of one operation (an admission, a churn step, a traffic slice, a chaos
/// seed) share the id. Disabled in the untraced run, where Span is a no-op.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;  // index of the enclosing span, -1 for a root
    double start_us;
    double end_us;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  std::int64_t open(const char* name, std::uint64_t id) {
    if (!enabled_ || records_.size() >= kMaxSpans) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(Record{name, id, parent, now_us(), 0});
    stack_.push_back(static_cast<std::int64_t>(records_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t index) {
    if (index < 0) return;
    records_[static_cast<std::size_t>(index)].end_us = now_us();
    stack_.pop_back();
  }

  /// Writes one JSON object per line: name, id, parent, start_us, dur_us.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                   "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                   i, r.name, static_cast<unsigned long long>(r.id),
                   static_cast<long long>(r.parent), r.start_us,
                   r.end_us - r.start_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kMaxSpans = 500'000;
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

/// RAII span; costs one branch when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer.open(name, id)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// What the command line asks of one workload run.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Scaled-down worlds and the fewest rounds, for the benchmark's own tests.
  bool small = false;
  /// Fleet-churn only: flip one byte of the saved snapshot before loading
  /// it, which the load check must catch (a self-test of that check).
  bool corrupt_snapshot = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a workload reports.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<Metric> metrics;

  void check(bool ok, std::string what) {
    if (ok) return;
    if (errors.size() < 16) errors.push_back(std::move(what));
    correct = false;
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Tracks how much slower than nominal the machine runs during a round.
/// Each sample() times one run of a fixed reference kernel (reference.cpp);
/// a workload samples before a round and at fixed points inside it,
/// between operations, and divides the round's wall times by slowdown().
/// Phases subtract spent_s() so the kernel's own time is not counted.
class SpeedProbe {
 public:
  void sample();
  /// Mean sampled kernel time over its nominal time; 1 before any sample.
  [[nodiscard]] double slowdown() const noexcept {
    return samples_ ? spent_s_ / samples_ / kNominalSeconds : 1.0;
  }
  [[nodiscard]] double spent_s() const noexcept { return spent_s_; }

 private:
  /// About the kernel's time on the 4-core x86-64 VM the baseline was
  /// recorded on; it only sets the scale of the adjusted figures.
  static constexpr double kNominalSeconds = 0.015;
  int samples_ = 0;
  double spent_s_ = 0;
};

/// The number of hardware threads, at least 1.
std::size_t hardware_threads();

Result run_fleet_churn(const Options& options, Tracer& tracer);
Result run_tenant_traffic(const Options& options, Tracer& tracer);
Result run_chaos_sweep(const Options& options, Tracer& tracer);

}  // namespace perfbench
