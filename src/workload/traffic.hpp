// Open-loop, trace-driven traffic engine (ROADMAP item 2): schedules
// request arrivals from a declarative trace — constant rate, linear ramps,
// flash-crowd bursts, diurnal sine waves, multi-tenant per-service mixes —
// *independent of completions*. The closed-loop SiegeClient slows its
// offered load down whenever the service slows down (coordinated omission:
// the worst latencies are exactly the ones it stops measuring); this engine
// keeps arriving at the trace's rate, so queueing delay lands in the
// latency distribution where it belongs. Measurements flow through
// sim::StreamingStats (O(windows) memory, mergeable log-bucketed
// histograms) and can be published as gauges on the control plane's
// MetricsRegistry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/events.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/streaming_stats.hpp"
#include "util/result.hpp"
#include "workload/siege.hpp"

namespace soda::workload {

/// One phase of offered load. Rates are arrivals/second and must stay > 0.
struct TrafficPhase {
  enum class Shape { kConstant, kRamp, kBurst, kDiurnal };
  Shape shape = Shape::kConstant;
  double seconds = 0;    // phase duration
  double rate = 0;       // constant/burst rate; ramp start; diurnal baseline
  double rate_to = 0;    // ramp end rate
  double amplitude = 0;  // diurnal peak deviation from the baseline
  double period_s = 0;   // diurnal period (defaults to the phase length)

  friend bool operator==(const TrafficPhase&, const TrafficPhase&) = default;
};

/// A declarative arrival-rate trace: phases played back to back. Built
/// programmatically or parsed from a compact spec (the scenario verb):
///
///   const:200x10            200 req/s for 10 s
///   ramp:200..1000x20       linear 200 -> 1000 req/s over 20 s
///   burst:5000x2            flash crowd: 5000 req/s for 2 s
///   diurnal:300~200x60      sine around 300 +/- 200 req/s, period 60 s
///   diurnal:300~200x60/30   same but a 30 s period (two cycles)
///   file:PATH               replay recorded arrival offsets from PATH
///
/// Phases are comma-separated: "const:200x5,burst:5000x2,const:200x5".
/// A `file:` trace stands alone — it replays exact timestamps, so mixing it
/// with shaped phases is a parse error. The file holds one arrival offset in
/// seconds per line (non-decreasing, `#` comments and blank lines ignored);
/// the replay cursor is the stream's scheduled-arrival count, which
/// checkpoints already carry, so recorded traces snapshot for free.
class TrafficTrace {
 public:
  TrafficTrace& constant(double rate, double seconds);
  TrafficTrace& ramp(double from, double to, double seconds);
  /// A burst is a constant phase flagged as a flash crowd (reported
  /// distinctly but shaped identically).
  TrafficTrace& burst(double rate, double seconds);
  TrafficTrace& diurnal(double base, double amplitude, double seconds,
                        double period_s = 0);

  static Result<TrafficTrace> parse(std::string_view spec);
  /// Loads a recorded-arrival trace (the `file:PATH` spec body).
  static Result<TrafficTrace> from_file(const std::string& path);

  /// Instantaneous offered rate at offset `t` seconds from trace start
  /// (0 past the end).
  [[nodiscard]] double rate_at(double t) const noexcept;
  [[nodiscard]] double duration_s() const noexcept;
  /// Integral of rate over the trace — the expected arrival count.
  [[nodiscard]] double expected_arrivals() const noexcept;
  [[nodiscard]] const std::vector<TrafficPhase>& phases() const noexcept {
    return phases_;
  }

  /// True for a recorded-arrival (file:) trace.
  [[nodiscard]] bool is_file() const noexcept { return !file_offsets_.empty(); }
  /// Arrival offsets in seconds from stream start (recorded traces only).
  [[nodiscard]] const std::vector<double>& file_offsets() const noexcept {
    return file_offsets_;
  }
  [[nodiscard]] const std::string& file_path() const noexcept {
    return file_path_;
  }

 private:
  std::vector<TrafficPhase> phases_;
  std::string file_path_;             // provenance, empty for shaped traces
  std::vector<double> file_offsets_;  // non-decreasing arrival offsets
};

/// Engine-wide configuration.
struct TrafficEngineConfig {
  sim::StreamingStatsConfig stats;
  std::uint64_t seed = 0x7AFF1C;
};

/// Drives one or more open-loop streams (one per service in a multi-tenant
/// mix), each replaying its own trace through a SiegeClient's routing/
/// failover path, each measured by its own StreamingStats. Arrival gaps are
/// exponential at the trace's instantaneous rate (non-homogeneous Poisson),
/// drawn from a per-stream deterministic RNG — replicas are bit-identical
/// across serial and ParallelRunner execution.
class TrafficEngine {
 public:
  explicit TrafficEngine(sim::Engine& engine, TrafficEngineConfig config = {});

  /// Registers a stream. The client must outlive the engine; its observer
  /// is taken over. The stream's pipeline measures every outcome, so the
  /// client's own (record_samples) would only duplicate it: turn that off.
  /// Call before start().
  void add_stream(std::string name, SiegeClient& client, TrafficTrace trace);

  /// Starts every stream's arrival process at the engine's current time.
  void start();

  /// Arrivals exhausted and every request resolved, on every stream.
  [[nodiscard]] bool finished() const noexcept;

  [[nodiscard]] std::size_t stream_count() const noexcept {
    return streams_.size();
  }
  /// Streaming stats for stream `name` (by registration name). Aborts on
  /// unknown names — stream sets are static, typos are bugs.
  [[nodiscard]] const sim::StreamingStats& stats(std::string_view name) const;
  [[nodiscard]] std::uint64_t scheduled(std::string_view name) const;

  /// Registers p50/p99/p999/error-rate gauges for every stream on the
  /// control plane's metrics registry as "traffic.<stream>.<metric>".
  /// The engine must outlive the registry's readers.
  void register_gauges(core::MetricsRegistry& metrics) const;

  /// Combined FNV fingerprint over every stream's stats digest — the
  /// serial == ParallelRunner bench gate.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Snapshot walk over every stream's cursor: RNG state, trace origin,
  /// next pending arrival, counters, and the StreamingStats pipeline.
  /// In-flight requests belong to the client/network layers — checkpoint at
  /// a point where they are quiesced (or restore those layers alongside).
  /// A load needs an engine with the same streams registered (same names,
  /// same order, not yet started); it re-installs the per-stream observers.
  /// Call rearm_arrivals() after the engine clock is restored to resume
  /// pending arrival processes.
  template <class Ar>
  void serialize(Ar& ar);
  /// Schedules the saved next arrival of every unfinished stream at its
  /// saved absolute time. Requires a restored engine whose clock is at or
  /// before every pending arrival.
  void rearm_arrivals();

 private:
  struct Stream {
    std::string name;
    SiegeClient* client = nullptr;
    TrafficTrace trace;
    sim::Rng rng;
    sim::StreamingStats stats;
    sim::SimTime t0;            // trace origin (engine time at start())
    sim::SimTime next_arrival;  // absolute time of the pending arrival
    std::uint64_t scheduled = 0;
    std::uint64_t resolved = 0;  // completions + refusals observed
    bool arrivals_done = false;
  };

  void schedule_next(Stream& stream);
  void arrival_fire(std::size_t index);
  void install_observer(std::size_t index);
  [[nodiscard]] const Stream& find(std::string_view name) const;

  sim::Engine& engine_;
  TrafficEngineConfig config_;
  /// deque-like stability: streams are appended before start() only, and
  /// scheduled callbacks capture stream indices, so a vector is safe.
  std::vector<Stream> streams_;
  bool started_ = false;
};

}  // namespace soda::workload
