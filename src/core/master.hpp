// The SODA Master (paper §3.2): coordinates service creation across the HUP.
// It collects resource availability from the SODA Daemons, admits or rejects
// each <n, M> request, maps admitted requests onto n' <= n virtual service
// nodes (each node's capacity an integer multiple of M; CPU and bandwidth
// conservatively inflated by the virtualization slow-down factor — 1.5 in
// the paper's prototype, no resource aggregation), drives the daemons'
// priming, creates the per-service switch with its configuration file, and
// executes resizing and tear-down.
//
// The class itself is a thin façade over four composable subsystems:
//   * PlacementPlanner (core/placement) — one placement order over the live
//     hosts, kept between decisions, and the packing loop every consumer
//     shares;
//   * PrimingCoordinator (core/priming) — the node batch: creation, resize
//     growth, and recovery add nodes to a service only through it;
//   * RecoveryManager (core/recovery) — failure detection, the recovery
//     policy over the Master's service table, and the rule every node batch
//     ends through (running only at full booted capacity, else degraded);
//   * ControlPlaneBus (core/events) — the typed event bus every subsystem
//     publishes into (trace, metrics, subscribers).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"
#include "core/daemon.hpp"
#include "core/events.hpp"
#include "core/ids.hpp"
#include "core/placement.hpp"
#include "core/priming.hpp"
#include "core/recovery.hpp"
#include "core/service.hpp"
#include "core/service_table.hpp"
#include "core/trace.hpp"
#include "core/switch.hpp"
#include "image/distributor.hpp"
#include "image/repository.hpp"
#include "sim/engine.hpp"
#include "util/result.hpp"

namespace soda::core {

/// Master tuning knobs. Defaults follow the paper's prototype.
struct MasterConfig {
  /// Conservative CPU/bandwidth inflation covering guest-OS overhead
  /// (paper footnote 2: factor 1.5, no resource aggregation).
  double slowdown_factor = 1.5;
  PlacementPolicy placement = PlacementPolicy::kWorstFit;
  /// Whether daemons tailor guest rootfs images during priming.
  bool customize_rootfs = true;
  /// Bridging (default) gives each node its own LAN IP; proxying keeps
  /// nodes on reserved addresses behind host ports (footnote 3).
  AddressMode address_mode = AddressMode::kBridging;
  /// Upper bound of nodes per service (one per host is the natural limit).
  int max_nodes_per_service = 16;
  /// Image-distribution tuning (chunk cache / coalescing / P2P priming),
  /// applied to every daemon's distributor at registration. Disabled by
  /// default: priming then uses the legacy whole-image download path.
  image::DistributionConfig distribution;
};

// ServiceRecord and the slot-based ServiceTable live in
// core/service_table.hpp (DESIGN.md §11).

class SodaMaster {
 public:
  SodaMaster(sim::Engine& engine, MasterConfig config = {});
  SodaMaster(const SodaMaster&) = delete;
  SodaMaster& operator=(const SodaMaster&) = delete;

  /// Wires a host's daemon into the HUP (registration order defines
  /// first-fit order). Pool disjointness against every registered host is
  /// enforced here — the cross-host invariant of §4.3.
  Status register_daemon(SodaDaemon* daemon);

  /// The earliest-registered daemon whose address pool overlaps the `count`
  /// addresses from `first` (count >= 1), or nullptr when none does.
  /// O(log hosts + overlapping pools).
  [[nodiscard]] const SodaDaemon* pool_overlap(net::Ipv4Address first,
                                               std::size_t count) const;

  /// Makes a repository resolvable by name in image locations.
  void register_repository(const image::ImageRepository* repository);

  /// Withdraws a repository from name resolution: downloads already past
  /// their lookup finish, but every later attempt (including retries backing
  /// off right now) fails cleanly instead of dangling. False if unknown.
  bool unregister_repository(const std::string& name);

  /// HUP-wide repository name resolution (daemons' downloaders re-resolve
  /// through this on every attempt).
  [[nodiscard]] const image::RepositoryDirectory& repository_directory()
      const noexcept {
    return directory_;
  }

  /// The chunk-location registry behind peer-to-peer priming.
  [[nodiscard]] image::ChunkRegistry& chunk_registry() noexcept {
    return chunk_registry_;
  }
  [[nodiscard]] const image::ChunkRegistry& chunk_registry() const noexcept {
    return chunk_registry_;
  }

  using WarmCallback = std::function<void(Status, sim::SimTime)>;
  /// Admission-time prefetch: pre-populates the named hosts' chunk caches
  /// with `location`'s image (coalescing with any priming already in
  /// flight), so subsequent creations/boots on them skip the origin. Fires
  /// `done` once every target finished (first error wins). Hosts that are
  /// unknown, dead, or down are skipped; erroring only if none remain.
  void warm_hosts(const image::ImageLocation& location,
                  const std::vector<std::string>& hosts, WarmCallback done);

  using CreateCallback =
      std::function<void(ApiResult<ServiceCreationReply>, sim::SimTime)>;
  /// Admits, primes, and activates a service; `done` fires when the switch
  /// is up (or with the first error after rollback).
  void create_service(const ServiceCreationRequest& request, CreateCallback done);

  /// Synchronous: stops nodes, releases slices/IPs, removes the switch.
  ApiResult<ServiceCreationReply> describe_service(const std::string& name) const;
  Result<void, ApiError> teardown_service(const std::string& name);

  using ResizeCallback =
      std::function<void(ApiResult<ServiceResizingReply>, sim::SimTime)>;
  /// Grows or shrinks a service to n_new machine instances. Growth prefers
  /// in-place slice extension, then adds nodes; shrink releases units from
  /// the last nodes first (never the switch's colocation node).
  void resize_service(const std::string& name, int n_new, ResizeCallback done);

  /// Heterogeneous lookups: a string literal or string_view resolves with
  /// no temporary std::string (DESIGN.md §11).
  [[nodiscard]] const ServiceRecord* find_service(std::string_view name) const;
  [[nodiscard]] ServiceSwitch* find_switch(std::string_view name);
  [[nodiscard]] std::size_t service_count() const noexcept { return services_.size(); }
  /// Names of all services currently known (any lifecycle state).
  [[nodiscard]] std::vector<std::string> service_names() const;
  /// The slot-based service store (name-ordered iteration, dense ids).
  [[nodiscard]] ServiceTable& services() noexcept { return services_; }
  [[nodiscard]] const ServiceTable& services() const noexcept {
    return services_;
  }
  /// O(1) host lookup through the intern table; nullptr when unknown.
  [[nodiscard]] SodaDaemon* daemon_for(std::string_view host_name) const;

  /// The control-plane event bus (publish/subscribe; owns the trace and the
  /// metrics).
  [[nodiscard]] ControlPlaneBus& bus() noexcept { return bus_; }
  [[nodiscard]] const ControlPlaneBus& bus() const noexcept { return bus_; }
  /// Named control-plane counters/gauges (admissions, rejections, primings,
  /// failures, recoveries, bytes_from_origin, bytes_from_peers, ...).
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return bus_.metrics(); }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return bus_.metrics();
  }

  [[nodiscard]] const MasterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<SodaDaemon*>& daemons() const noexcept {
    return daemons_;
  }
  /// The placement subsystem (pure planning, exposed for tests and
  /// benches): how would <n, M> land on the current HUP?
  [[nodiscard]] const PlacementPlanner& planner() const noexcept {
    return planner_;
  }

  /// Total resources currently available across the HUP (sum of daemon
  /// reports).
  [[nodiscard]] host::ResourceVector hup_available() const;

  /// The inflated per-unit reservation for `m` under this config.
  [[nodiscard]] host::ResourceVector inflated_unit(const host::MachineConfig& m) const {
    return planner_.inflated_unit(m);
  }

  // --- Failure detection & recovery (forwarded to the RecoveryManager) ----

  /// Arms the timeout-based failure detector: every registered daemon is
  /// considered heard-from now, and check_failures_once() declares any host
  /// silent for `config.timeout` dead. Call once, after registering hosts;
  /// daemons' heartbeat loops should deliver into on_heartbeat().
  void enable_failure_detection(FailureDetectorConfig config = {}) {
    recovery_.enable(config);
  }

  /// Starts the periodic detector loop: one check_failures_once() per
  /// heartbeat interval (arms detection first if needed). While the loop
  /// runs the engine always has pending events — drive the simulation with
  /// Engine::run_until.
  void start_failure_detector(FailureDetectorConfig config = {}) {
    recovery_.start(config);
  }
  void stop_failure_detector() noexcept { recovery_.stop(); }

  /// Heartbeat sink for SodaDaemon::start_heartbeat. A heartbeat from a
  /// host previously declared dead brings it back (host-up) and re-attempts
  /// recovery of every degraded service.
  void on_heartbeat(SodaDaemon& daemon, sim::SimTime now) {
    recovery_.on_heartbeat(daemon, now);
  }

  /// One timeout sweep: declares hosts whose last heartbeat is older than
  /// the configured timeout dead and runs the recovery policy for every
  /// service that lost placements. Returns the number of hosts newly
  /// declared dead. Requires enable_failure_detection().
  std::size_t check_failures_once() { return recovery_.check_once(); }

  /// Active-probe variant for synchronous callers (scenarios, tests): polls
  /// each daemon's liveness directly instead of waiting out the heartbeat
  /// timeout; detects both failures and recoveries. Returns the number of
  /// hosts whose detected state changed.
  std::size_t poll_liveness_once() { return recovery_.poll_once(); }

  /// Re-attempts recovery of every Degraded service right now (see
  /// RecoveryManager::retry_recoveries). Chaos/stabilization hook: brings
  /// services back when a recovery attempt failed mid-flight and no host
  /// transition is left to retrigger it.
  std::size_t retry_recoveries() { return recovery_.retry_recoveries(); }

  [[nodiscard]] bool host_down(std::string_view host_name) const {
    const HostId id{host_names_.find(host_name)};
    return id.valid() && down_hosts_.test(id);
  }
  /// The down-host membership bitset, keyed by HostId.
  [[nodiscard]] const HostSet& down_hosts() const noexcept {
    return down_hosts_;
  }
  [[nodiscard]] std::uint64_t host_failures_detected() const noexcept {
    return recovery_.host_failures();
  }
  [[nodiscard]] std::uint64_t placements_lost() const noexcept {
    return recovery_.placements_lost();
  }
  [[nodiscard]] std::uint64_t recoveries_completed() const noexcept {
    return recovery_.recoveries();
  }

  // --- Checkpoint / restore ------------------------------------------------

  /// Restore-time wiring: re-attaches a reconstructed daemon without the
  /// registration side effects (no disjointness probe, no detector arming —
  /// the detector's state is restored wholesale by the master's walk).
  /// Call once per daemon, in the saved registration order, before the
  /// master itself is loaded.
  void attach_restored_daemon(SodaDaemon* daemon);

  /// The recovery subsystem's pending detector tick (checkpoint plumbing).
  [[nodiscard]] RecoveryManager& recovery() noexcept { return recovery_; }

  /// Checkpoints the whole control plane: host intern table, down-host set,
  /// chunk registry, bus metrics, priming counters, detector wheel, and the
  /// full service table (switches and policy state included). Repositories
  /// and daemons are owned by the caller — attach/register them first.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  /// Indexes `daemon` at the next HostId and wires it into the HUP.
  void attach(SodaDaemon& daemon);
  void finish_creation(ServiceRecord& record, CreateCallback done);
  /// Tears the record's booted nodes down on their (still-alive) daemons,
  /// found through the host index.
  void release_nodes(ServiceRecord& record);

  sim::Engine& engine_;
  MasterConfig config_;
  std::vector<SodaDaemon*> daemons_;  // registration order == HostId order
  InternTable host_names_;            // host name -> dense HostId
  /// The registered address pools, sorted by first address. They are
  /// disjoint, so they are sorted by last address too. Hosts usually
  /// register in address order, which makes an insert an append.
  struct PoolRange {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    HostId host;
  };
  std::vector<PoolRange> pools_;
  image::RepositoryDirectory directory_;
  image::ChunkRegistry chunk_registry_;
  ServiceTable services_;
  HostSet down_hosts_;
  ControlPlaneBus bus_;
  PlacementPlanner planner_;
  PrimingCoordinator priming_;
  RecoveryManager recovery_;
};

}  // namespace soda::core
