// The SODA Daemon (paper §3.3, §4.3): a host-OS process on every HUP host.
// It reports resource availability to the Master and performs service
// priming at the Master's command: reserve a slice, download the service
// image over HTTP/1.1, tailor the guest root filesystem to the services the
// application needs, boot the UML, assign an IP address from the host's
// pool, register the UML-IP mapping with the bridging module, install the
// outbound bandwidth share in the traffic shaper, and finally start the
// application inside the guest. Once the service runs, the daemon stays out
// of the data path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/ids.hpp"
#include "host/host.hpp"
#include "image/distributor.hpp"
#include "image/repository.hpp"
#include "net/flow_network.hpp"
#include "net/shaper.hpp"
#include "sim/engine.hpp"
#include "core/trace.hpp"
#include "util/result.hpp"
#include "vm/vsnode.hpp"

namespace soda::core {

class ControlPlaneBus;

/// Timing breakdown of one node's priming, kept for the Table 2 bench and
/// the download-time series.
struct PrimingReport {
  sim::SimTime download_time;   // image transfer over the LAN
  sim::SimTime customize_time;  // rootfs tailoring on the host CPU
  vm::BootReport boot;          // mount + kernel + system services
  sim::SimTime app_start_time;  // application launch inside the guest
  std::int64_t image_bytes = 0;       // packaged bytes transferred
  std::int64_t rootfs_bytes = 0;      // final (customized) rootfs size

  [[nodiscard]] sim::SimTime bootstrap_time() const noexcept {
    return boot.total() + app_start_time;
  }
  [[nodiscard]] sim::SimTime total() const noexcept {
    return download_time + customize_time + bootstrap_time();
  }
};

/// How a new virtual service node is made reachable (paper §3.3 and its
/// footnote 3): bridging gives the node its own LAN-visible IP; proxying
/// keeps the node on a reserved (private) address and forwards a port on
/// the host's public address to it — for when IP addresses are scarce.
enum class AddressMode { kBridging, kProxying };

std::string_view address_mode_name(AddressMode mode) noexcept;

/// Master -> Daemon command to create one virtual service node.
struct PrimeCommand {
  std::string node_name;     // HUP-wide unique, e.g. "web-content/0"
  std::string service_name;
  image::ImageLocation location;
  host::MachineConfig unit;  // M
  int capacity_units = 1;    // this node provides capacity_units x M
  /// Resources to reserve (the Master has already applied slow-down
  /// inflation to CPU and bandwidth).
  host::ResourceVector reserve;
  /// Tailor the guest rootfs to the image's required services (on by
  /// default; the Table 2 ablation turns it off).
  bool customize_rootfs = true;
  /// Bridge (default) or proxy the node's connectivity.
  AddressMode address_mode = AddressMode::kBridging;
  /// Guest port the application listens on (proxy target port).
  int listen_port = 8080;
  /// Partitioned services: the component this node runs; overrides the
  /// image's entry command, system-service needs, and port.
  std::optional<image::ServiceComponent> component;
};

class SodaDaemon {
 public:
  SodaDaemon(sim::Engine& engine, net::FlowNetwork& network,
             host::HupHost& host, net::TrafficShaper& shaper);
  SodaDaemon(const SodaDaemon&) = delete;
  SodaDaemon& operator=(const SodaDaemon&) = delete;

  /// Resource availability as reported to the Master.
  [[nodiscard]] host::ResourceVector available() const { return host_.available(); }
  [[nodiscard]] const std::string& host_name() const noexcept {
    return host_.name();
  }
  [[nodiscard]] host::HupHost& host() noexcept { return host_; }
  [[nodiscard]] const host::HupHost& host() const noexcept { return host_; }

  /// Dense fleet-wide id, assigned by the Master at registration
  /// (DESIGN.md §11). Invalid until then.
  [[nodiscard]] HostId host_id() const noexcept { return host_id_; }
  void set_host_id(HostId id) noexcept { host_id_ = id; }

  /// This host's image-distribution front end (chunk cache, coalescing,
  /// P2P priming). The Master wires its registry/directory/config at
  /// daemon registration.
  [[nodiscard]] image::ImageDistributor& distributor() noexcept {
    return distributor_;
  }
  [[nodiscard]] const image::ImageDistributor& distributor() const noexcept {
    return distributor_;
  }

  using PrimeCallback =
      std::function<void(Result<vm::VirtualServiceNode*> node, sim::SimTime now)>;

  /// Runs the full priming pipeline; `done` fires when the node is serving
  /// (or with the first error, after rolling back partial work).
  void prime_node(PrimeCommand command, PrimeCallback done);

  /// Stops a node and releases everything it held (slice, IP, bridge entry,
  /// shaper entry). The guest's processes die with it.
  Status teardown_node(std::string_view node_name);

  /// Grows/shrinks a node in place: new slice reservation, capacity units,
  /// and shaper bandwidth. Fails if the host cannot fit the growth.
  Status resize_node(std::string_view node_name, int new_units,
                     const host::ResourceVector& new_reserve);

  [[nodiscard]] vm::VirtualServiceNode* find_node(std::string_view node_name);
  [[nodiscard]] const vm::VirtualServiceNode* find_node(
      std::string_view node_name) const;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_names_.size();
  }

  /// True when this daemon runs at least one node of `service_name`
  /// ("web" matches "web/3" but not "web-2/0"). Allocation-free: a binary
  /// search over the sorted node-name vector against the virtual needle
  /// `service_name + "/"`.
  [[nodiscard]] bool serves_service(std::string_view service_name) const;

  /// Priming breakdown of a node created by this daemon.
  [[nodiscard]] const PrimingReport* priming_report(
      std::string_view node_name) const;

  // --- Host-level failure model -------------------------------------------

  /// False after crash_host() until recover(): the host OS (and with it the
  /// daemon) is down, heartbeats stop, and every virtual service node it
  /// carried is gone.
  [[nodiscard]] bool alive() const noexcept { return alive_; }

  /// Fail-stop host crash: kills every guest and releases all host state
  /// (slices, IPs, bridge/proxy entries, shaper shares) — a crashed machine
  /// reboots empty. The Master learns of the loss through the failure
  /// detector, not from this call.
  void crash_host();

  /// The host rebooted: the daemon is back, reporting a fully free host.
  /// Lost nodes are NOT resurrected — re-creation is the Master's recovery
  /// policy's job.
  void recover();

  /// Delivered on each heartbeat tick while the daemon is alive.
  using HeartbeatSink = std::function<void(SodaDaemon&, sim::SimTime)>;

  /// Shard-affinity key for this daemon's periodic events (heartbeat
  /// ticks): the host's dense registration index. An unregistered daemon's
  /// invalid id maps exactly onto Engine::kNoShard, so its events stay
  /// serial barriers. Tags are execution hints only — they change nothing
  /// unless the engine enables sharding, and every (re-)arm path re-applies
  /// them, so snapshots never carry them.
  [[nodiscard]] sim::Engine::ShardKey shard_key() const noexcept {
    return sim::Engine::shard_for_host(host_id_.value);
  }

  /// Starts the periodic heartbeat loop (idempotent). Ticks are swallowed
  /// while the host is down and resume on recover(). While the loop runs the
  /// engine always has a pending event — drive the simulation with
  /// Engine::run_until (or stop_heartbeat()) rather than Engine::run().
  void start_heartbeat(sim::SimTime interval, HeartbeatSink sink);
  /// Stops the loop after the current tick.
  void stop_heartbeat() noexcept { heartbeating_ = false; }

  // --- Checkpoint / restore ------------------------------------------------

  [[nodiscard]] bool heartbeating() const noexcept { return heartbeating_; }
  [[nodiscard]] sim::SimTime heartbeat_interval() const noexcept {
    return heartbeat_interval_;
  }
  /// Absolute time of the next heartbeat tick (valid while heartbeating).
  [[nodiscard]] sim::SimTime heartbeat_next() const noexcept {
    return heartbeat_next_;
  }
  /// Engine id of the pending heartbeat event (valid while heartbeating).
  [[nodiscard]] sim::EventId heartbeat_event() const noexcept {
    return heartbeat_event_;
  }
  /// Restore-time wiring: installs the sink WITHOUT scheduling (interval and
  /// the heartbeating flag come from the snapshot walk). The owner re-arms
  /// the tick afterwards via rearm_heartbeat_at so pending events regain
  /// their saved relative order.
  void restore_heartbeat(HeartbeatSink sink);
  /// Schedules the next heartbeat tick at the absolute time saved in the
  /// checkpoint's timers section.
  void rearm_heartbeat_at(sim::SimTime when);

  /// Checkpoints node records (guests, priming reports, slice bookkeeping)
  /// and the distributor. Reconstruction makes no host/network API calls —
  /// slices, IPs, bridge/proxy entries, and shaper shares were restored
  /// wholesale with the host and network tables.
  template <class Ar>
  void serialize(Ar& ar);

  /// Attaches the Master's control-plane bus (done by register_daemon). The
  /// daemon's events flow through it into the trace, metrics, and
  /// subscribers; an unregistered daemon emits nothing.
  void set_bus(ControlPlaneBus* bus) noexcept { bus_ = bus; }

  /// Attaches the world's guest-tree table (done by register_daemon):
  /// priming takes every node's rootfs from it.
  void set_rootfs_table(os::RootFsTable* table) noexcept {
    rootfs_table_ = table;
  }

 private:
  struct NodeRecord {
    std::unique_ptr<vm::VirtualServiceNode> node;
    PrimingReport report;
    host::MachineConfig unit;
    AddressMode address_mode = AddressMode::kBridging;
    int public_port = 0;  // proxying only
  };

  /// Index of `node_name` in the sorted name vector, or npos.
  [[nodiscard]] std::size_t node_index(std::string_view node_name) const;
  /// Inserts a record keeping node_names_ sorted; returns the stable record.
  NodeRecord& insert_node(std::string_view node_name,
                          std::unique_ptr<NodeRecord> record);
  void erase_node(std::size_t index);
  /// Releases all host-side state of the record at `index` (bridge/proxy,
  /// shaper, IP, slice); `crashed` kills the guest instead of shutting down.
  void release_node_state(NodeRecord& record, bool crashed);

  /// Stage 2 of priming, after the image arrived.
  void continue_priming(PrimeCommand command, const image::ImagePtr& image,
                        host::SliceId slice, sim::SimTime download_started,
                        sim::SimTime downloaded_at, PrimeCallback done);

  void heartbeat_tick();

  /// Publishes one control-plane event on the bus (skipped when unset).
  void emit(sim::SimTime at, TraceKind kind, const std::string& subject,
            std::string detail);

  sim::Engine& engine_;
  net::FlowNetwork& network_;
  host::HupHost& host_;
  net::TrafficShaper& shaper_;
  image::ImageDistributor distributor_;
  // Node store: names sorted, records parallel and pointer-stable (the boot
  // callback and priming_report() hold NodeRecord addresses across inserts).
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<NodeRecord>> node_records_;
  HostId host_id_;
  ControlPlaneBus* bus_ = nullptr;
  os::RootFsTable* rootfs_table_ = nullptr;
  bool alive_ = true;
  bool heartbeating_ = false;
  sim::SimTime heartbeat_interval_ = sim::SimTime::zero();
  HeartbeatSink heartbeat_sink_;
  sim::SimTime heartbeat_next_ = sim::SimTime::zero();
  sim::EventId heartbeat_event_{};
};

}  // namespace soda::core
