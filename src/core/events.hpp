// The control-plane event bus: the observability seam of the HUP and the
// one place a control-plane record enters. The Master's subsystems (planner
// admission, priming, recovery), the daemons and the HealthMonitor publish
// typed events into one ControlPlaneBus; the agent records its
// request-received there too. The bus owns the TraceLog (the
// operator-facing record tests assert sequences on) and echoes each record
// to the global logger; the MetricsRegistry (named counters/gauges) and any
// ad-hoc subscriber (HealthMonitor, tests) observe published events.
// Publishing is synchronous and deterministic: the trace records first,
// then metrics, then subscribers in subscription order — so replica runs
// see identical event streams.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "sim/time.hpp"

namespace soda::core {

/// Named counters and gauges fed by the bus. Counters accumulate from
/// events (admissions, rejections, primings, failures, recoveries, ...);
/// gauges are registered read-callbacks evaluated on demand (e.g. the
/// HUP-wide bytes-from-origin sum over every daemon's distributor).
class MetricsRegistry {
 public:
  /// The standard counters start at zero so "expect-metric admissions 0"
  /// style assertions hold before the first event.
  MetricsRegistry();

  void increment(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }

  /// Registers (or replaces) a gauge evaluated at read time.
  void register_gauge(const std::string& name, std::function<double()> read) {
    gauges_[name] = std::move(read);
  }

  /// Counter or gauge value; counters win on a name collision.
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  /// All metric names, sorted (counters and gauges interleaved).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Applies the standard kind -> counter mapping for one bus event.
  void observe(const ControlPlaneEvent& event);

  /// Checkpoints counters only — gauges are read-callbacks (wiring), which
  /// restore re-registers as each owning subsystem is rebuilt.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("metrics");
    ar.seq(counters_, [&ar](auto& counter) {
      ar.str(counter.first);
      ar.u64(counter.second);
    });
    ar.end_section();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::function<double()>> gauges_;
};

/// The bus itself. Not thread-safe (the simulation is single-threaded);
/// cheap enough to stay on everywhere, like the TraceLog it owns.
class ControlPlaneBus {
 public:
  using Subscriber = std::function<void(const ControlPlaneEvent&)>;

  /// Adds a subscriber; returns an id for unsubscribe().
  std::size_t subscribe(Subscriber subscriber);
  void unsubscribe(std::size_t id);

  /// The operator trace: every record, in order (bounded).
  [[nodiscard]] TraceLog& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceLog& trace() const noexcept { return trace_; }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Enters one record: appends it to the trace and, when the global
  /// logger's level allows, echoes its render() line there — host-down and
  /// health-changed at warn, every other kind at info. Metrics, subscribers
  /// and the publish counter see only what publish() carries.
  void record(ControlPlaneEvent event);

  /// Publishes one event: record(), then metrics, then subscribers in
  /// subscription order.
  void publish(sim::SimTime at, TraceKind kind, std::string actor,
               std::string subject, std::string detail = {});

  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] std::size_t subscriber_count() const noexcept {
    return subscribers_.size();
  }

  /// Checkpoints the metrics and the publish counter. Subscribers are
  /// wiring, re-established during reconstruction; the Hup walks the trace
  /// in a section of its own.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("bus");
    ar.walk(metrics_);
    ar.u64(published_);
    ar.u64(next_id_);
    ar.end_section();
  }

 private:
  TraceLog trace_;
  MetricsRegistry metrics_;
  std::vector<std::pair<std::size_t, Subscriber>> subscribers_;
  std::size_t next_id_ = 0;
  std::uint64_t published_ = 0;
};

}  // namespace soda::core
