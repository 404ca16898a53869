// Service monitoring (paper §1: the ASP "should be able to perform service
// monitoring and management, as if the service were hosted locally", and
// §3.4: crashed guests must stop receiving requests). Two pieces:
//
//  * HealthMonitor — a Master-side prober that periodically inspects every
//    virtual service node and flips the corresponding switch backend
//    unhealthy/healthy as guests crash and recover, so the switch never
//    directs clients into a dead guest.
//  * ServiceStatusReport — the ASP-facing snapshot served through the Agent
//    (guest state, process count, memory, per-backend routing counters).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/master.hpp"
#include "sim/engine.hpp"
#include "vm/uml.hpp"

namespace soda::core {

/// One virtual service node's health/metrics snapshot.
struct NodeStatus {
  std::string node_name;
  std::string host_name;
  net::Ipv4Address address;
  int port = 0;
  vm::VmState vm_state = vm::VmState::kStopped;
  std::size_t process_count = 0;
  std::int64_t memory_used_mb = 0;
  std::int64_t memory_cap_mb = 0;
  int capacity_units = 0;
  bool healthy_in_switch = true;
  std::uint64_t requests_routed = 0;
};

/// The ASP-facing view of one service.
struct ServiceStatusReport {
  std::string service_name;
  ServiceState state = ServiceState::kRequested;
  std::vector<NodeStatus> nodes;
  std::uint64_t requests_routed = 0;
  std::uint64_t requests_refused = 0;
};

/// Builds a status report for a service known to `master`; error when the
/// service does not exist.
Result<ServiceStatusReport> collect_service_status(SodaMaster& master,
                                                   const std::string& service_name);

/// Periodic prober that keeps switch backend health in sync with guest
/// state. One monitor per HUP; it watches every service the Master knows.
class HealthMonitor {
 public:
  /// Probes every `interval` once started. Subscribes to the Master's
  /// control-plane bus for the monitor's passive view of the HUP.
  HealthMonitor(sim::Engine& engine, SodaMaster& master,
                sim::SimTime interval = sim::SimTime::milliseconds(500));
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Starts the periodic probing loop (idempotent). While the loop runs the
  /// engine always has a pending event, so drive the simulation with
  /// Engine::run_until (or call stop()) rather than Engine::run().
  void start();
  /// Stops after the current tick.
  void stop() noexcept { running_ = false; }

  /// One probing pass over every service/node; public so tests and callers
  /// can force an immediate sweep. Returns the number of health
  /// transitions applied to switches.
  std::size_t probe_once();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }
  [[nodiscard]] std::uint64_t transitions_to_unhealthy() const noexcept {
    return to_unhealthy_;
  }
  [[nodiscard]] std::uint64_t transitions_to_healthy() const noexcept {
    return to_healthy_;
  }
  /// Control-plane events observed through the bus subscription.
  [[nodiscard]] std::uint64_t bus_events_seen() const noexcept {
    return bus_events_seen_;
  }

  // --- Checkpoint / restore ------------------------------------------------

  /// Absolute time of the next probe tick (valid while running).
  [[nodiscard]] sim::SimTime tick_next() const noexcept { return tick_next_; }
  /// Engine id of the pending probe tick (valid while running).
  [[nodiscard]] sim::EventId tick_event() const noexcept { return tick_event_; }
  /// Re-arms the probe tick at the absolute time saved in the checkpoint's
  /// timers section (a load does not schedule).
  void rearm_tick_at(sim::SimTime when);

  /// Checkpoints the probe counters; the interval is a constructor argument
  /// and is verified on load.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("monitor");
    ar.expect("health monitor interval mismatch").time(interval_);
    ar.boolean(running_);
    ar.u64(probes_);
    ar.u64(to_unhealthy_);
    ar.u64(to_healthy_);
    ar.u64(bus_events_seen_);
    ar.end_section();
  }

 private:
  void tick();

  sim::Engine& engine_;
  SodaMaster& master_;
  sim::SimTime interval_;
  bool running_ = false;
  std::uint64_t probes_ = 0;
  std::uint64_t to_unhealthy_ = 0;
  std::uint64_t to_healthy_ = 0;
  std::uint64_t bus_events_seen_ = 0;
  std::size_t subscription_ = 0;
  sim::SimTime tick_next_ = sim::SimTime::zero();
  sim::EventId tick_event_{};
};

}  // namespace soda::core
