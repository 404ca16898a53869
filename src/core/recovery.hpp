// Failure detection & recovery, extracted from the Master behind a narrow
// view of its service table. The detector declares hosts dead when their
// heartbeats lapse (or an active probe finds them down), strips the lost
// placements, rehomes switches off dead colocation nodes, and re-creates
// lost capacity on surviving hosts through the shared planner and node
// batch (core/priming). Every node batch — creation and resize growth too —
// ends through settle(): a service runs only while every admitted unit has
// a booted node, and is degraded otherwise, so a host lost mid-creation or
// mid-resize leaves work for recovery instead of a silent shortfall. Every
// state change publishes into the control-plane bus.
//
// Fleet-scale detector (DESIGN.md §11): instead of the seed's per-check
// O(all-hosts) scan over a name-keyed map, deadlines live in a HostId-dense
// vector and hosts hang in a bucketed timer wheel (granularity = one
// heartbeat interval). A heartbeat just overwrites the host's deadline;
// wheel entries are reconciled lazily when their bucket expires — reinsert
// at the true deadline or declare the host dead — so a check costs
// O(expiring hosts), not O(fleet), and steady state allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "core/ids.hpp"
#include "core/placement.hpp"
#include "core/priming.hpp"
#include "image/distributor.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace soda::core {

struct ServiceRecord;
class ServiceTable;

/// Failure-detector tuning. The Master declares a host dead when no
/// heartbeat arrived for `timeout` (several missed intervals, so one late
/// heartbeat does not flap the host).
struct FailureDetectorConfig {
  sim::SimTime heartbeat_interval = sim::SimTime::milliseconds(250);
  sim::SimTime timeout = sim::SimTime::seconds(1);
};

/// The narrow interface the recovery subsystem holds onto the Master: its
/// service table, daemon list, down-host bitset, and chunk registry — all
/// by reference, so recovery always operates on the live control plane.
struct ControlPlaneView {
  ServiceTable& services;
  const std::vector<SodaDaemon*>& daemons;
  HostSet& down_hosts;
  image::ChunkRegistry& chunk_registry;
};

class RecoveryManager {
 public:
  RecoveryManager(sim::Engine& engine, ControlPlaneView view,
                  const PlacementPlanner& planner,
                  PrimingCoordinator& priming, ControlPlaneBus& bus);
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Arms the timeout-based detector: every registered daemon is considered
  /// heard-from now; check_once() declares any host silent for
  /// `config.timeout` dead.
  void enable(FailureDetectorConfig config);

  /// Starts the periodic detector loop (arms detection first if needed).
  void start(FailureDetectorConfig config);
  void stop() noexcept { running_ = false; }

  /// A daemon registered after enable(): arm it as heard-from now (the seed
  /// left late registrations with a zero heartbeat stamp, instantly dead).
  void on_host_registered(SodaDaemon& daemon);

  /// Heartbeat sink. O(1): overwrites the host's deadline (the wheel entry
  /// is reconciled lazily). A heartbeat from a host previously declared
  /// dead brings it back (host-up) and re-attempts recovery of every
  /// degraded service.
  void on_heartbeat(SodaDaemon& daemon, sim::SimTime now);

  /// One timeout sweep; returns the number of hosts newly declared dead.
  /// Cost is proportional to the hosts whose wheel buckets came due, not to
  /// the fleet.
  std::size_t check_once();

  /// Active-probe variant: polls each daemon's liveness directly; detects
  /// both failures and recoveries. Returns hosts whose state changed.
  std::size_t poll_once();

  /// Re-attempts recovery of every service currently Degraded. Covers the
  /// liveness gap where a failed recovery attempt (e.g. priming died on a
  /// host that crashed mid-recovery) leaves a service degraded with no
  /// event left to retrigger it until the next host transition. Returns the
  /// number of services retried.
  std::size_t retry_recoveries();

  /// The rule every node batch ends through — creation, resize growth and
  /// recovery alike: re-homes the switch off a dead colocation node, then
  /// keeps the service running only while every admitted unit (or
  /// component) has a booted placement. A running service short of that
  /// turns degraded, for the next host-up or retry_recoveries() to re-place;
  /// a degraded one that has it back runs again.
  void settle(ServiceRecord& record);

  // --- Checkpoint / restore ------------------------------------------------

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Absolute time of the next detector tick (valid while running).
  [[nodiscard]] sim::SimTime tick_next() const noexcept { return tick_next_; }
  /// Engine id of the pending detector tick (valid while running).
  [[nodiscard]] sim::EventId tick_event() const noexcept { return tick_event_; }
  /// Re-arms the detector tick at the absolute time saved in the
  /// checkpoint's timers section (a load does not schedule).
  void rearm_tick_at(sim::SimTime when);

  /// Checkpoints the detector: config, deadline wheel, and counters. The
  /// pending tick itself travels through the owner's timers section.
  template <class Ar>
  void serialize(Ar& ar);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t host_failures() const noexcept {
    return host_failures_;
  }
  [[nodiscard]] std::uint64_t placements_lost() const noexcept {
    return placements_lost_;
  }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }

 private:
  void tick();
  /// Stamps `id`'s deadline at now + timeout and hangs it in the wheel
  /// (no-op for hosts already hanging — the deadline alone moves).
  void arm_host(HostId id, sim::SimTime now);
  [[nodiscard]] std::size_t bucket_of(sim::SimTime deadline) const noexcept;
  /// Declares `daemon`'s host dead: strips its placements from every
  /// service (switch backends included), degrades affected services, then
  /// attempts to re-create the lost capacity on surviving hosts.
  void handle_host_failure(SodaDaemon& daemon);
  /// A dead host came back (heartbeat resumed or probe saw it alive).
  void handle_host_recovery(SodaDaemon& daemon);
  /// Re-creates as much of a degraded service's lost capacity as fits on
  /// live hosts; transitions Degraded -> Running when fully restored.
  void attempt_recovery(const std::string& service_name);
  /// Keeps the switch's colocation endpoint pointing at a live node.
  void maybe_rehome_switch(ServiceRecord& record);
  /// Running while every admitted unit has a booted placement, degraded
  /// otherwise (only those two states move).
  void match_state_to_capacity(ServiceRecord& record);

  sim::Engine& engine_;
  ControlPlaneView view_;
  const PlacementPlanner& planner_;
  PrimingCoordinator& priming_;
  ControlPlaneBus& bus_;

  bool enabled_ = false;
  bool running_ = false;
  FailureDetectorConfig config_;

  // Deadline wheel, all indexed by HostId where applicable. Ticks count
  // heartbeat intervals since simulation start; a bucket holds the hosts
  // whose (possibly stale) hang tick maps to it — the authoritative expiry
  // is always deadline_.
  std::vector<sim::SimTime> deadline_;     // HostId -> true expiry instant
  std::vector<std::uint8_t> in_wheel_;     // HostId -> hanging in a bucket?
  std::vector<std::vector<std::uint32_t>> wheel_;  // bucket -> HostId values
  std::uint64_t cursor_tick_ = 0;          // next tick to drain
  std::vector<std::uint32_t> expired_;     // scratch, reused per check
  std::vector<std::uint32_t> drain_;       // scratch bucket being drained

  sim::SimTime tick_next_ = sim::SimTime::zero();
  sim::EventId tick_event_{};

  std::uint64_t host_failures_ = 0;
  std::uint64_t placements_lost_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace soda::core
