// The HUP façade: assembles a complete hosting utility platform — engine,
// LAN, hosts with daemons and shapers, repositories, client machines, the
// SODA Master and Agent — so examples and benches build a testbed in a few
// lines. The default LAN mirrors the paper's: a 100 Mbps switched network.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "core/daemon.hpp"
#include "core/master.hpp"
#include "core/monitor.hpp"
#include "core/trace.hpp"
#include "host/host.hpp"
#include "image/repository.hpp"
#include "net/flow_network.hpp"
#include "net/shaper.hpp"
#include "sim/engine.hpp"

namespace soda::core {

/// LAN parameters of the platform (defaults mirror the paper's 100 Mbps
/// departmental network).
struct LanConfig {
  double mbps = 100;
  sim::SimTime latency = sim::SimTime::microseconds(100);
};

/// Everything needed to run SODA experiments, wired and owned in one place.
class Hup {
 public:
  explicit Hup(MasterConfig master_config = {}, LanConfig lan = {});
  /// Federation constructor: this HUP becomes one site of a wide-area
  /// deployment, sharing `engine` and `network` with its peers. `site_name`
  /// prefixes the LAN switch node.
  Hup(sim::Engine& engine, net::FlowNetwork& network, std::string site_name,
      MasterConfig master_config = {}, LanConfig lan = {});
  Hup(const Hup&) = delete;
  Hup& operator=(const Hup&) = delete;

  /// Adds a HUP host: attaches it to the LAN, gives it an IP pool of
  /// `pool_size` addresses starting at `pool_start`, and starts its daemon
  /// (registered with the Master).
  host::HupHost& add_host(host::HostSpec spec, net::Ipv4Address pool_start,
                          std::size_t pool_size = 16);

  /// Adds an ASP image repository machine on the LAN.
  image::ImageRepository& add_repository(const std::string& name);

  /// Adds a client machine on the LAN; returns its network node.
  net::NodeId add_client(const std::string& name);

  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] net::FlowNetwork& network() noexcept { return *network_; }
  [[nodiscard]] net::NodeId lan_switch() const noexcept { return lan_switch_; }
  [[nodiscard]] SodaMaster& master() noexcept { return *master_; }
  [[nodiscard]] SodaAgent& agent() noexcept { return *agent_; }
  /// The HUP's health monitor (created lazily; call start() to enable the
  /// periodic probing loop).
  [[nodiscard]] HealthMonitor& health_monitor();

  /// The control-plane event trace (always on; bounded), owned by the
  /// Master's bus.
  [[nodiscard]] TraceLog& trace() noexcept { return master_->bus().trace(); }

  [[nodiscard]] host::HupHost* find_host(const std::string& name);
  [[nodiscard]] SodaDaemon* find_daemon(const std::string& host_name);
  [[nodiscard]] net::TrafficShaper* find_shaper(const std::string& host_name);
  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }

  // --- Failure handling ----------------------------------------------------

  /// Wires the failure detector end to end: every daemon heartbeats into the
  /// Master, and the Master's periodic timeout sweep runs. The loops keep
  /// the event queue non-empty — drive the simulation with run_until.
  void enable_failure_detection(FailureDetectorConfig config = {});

  /// Fail-stop host crash: kills every guest on the host and releases its
  /// resources; detection/recovery is the Master's job. No-ops when unknown.
  void crash_host(const std::string& host_name);
  /// The crashed host reboots empty and its daemon resumes heartbeating.
  void recover_host(const std::string& host_name);

  /// Scales a host's LAN uplink to `factor` x its base NIC rate in both
  /// directions (slow-host / lossy-link injection; 1.0 restores it).
  void scale_host_uplink(const std::string& host_name, double factor);

  // --- Checkpoint / restore (DESIGN.md §14) --------------------------------

  /// Snapshots the whole world: clock, network, hosts (guests included),
  /// repositories, control plane, and a timers section that accounts for
  /// every pending engine event. Versioned bytes, checksum appended. Fails
  /// when the world is not quiesced — i.e. the engine holds pending events
  /// other than the periodic heartbeat/detector/monitor ticks, which are the
  /// only events a checkpoint can re-arm.
  Result<std::string> save_snapshot() const;

  /// Restores a snapshot into this (freshly constructed, never-run) Hup:
  /// the construction config must match the saved one and no hosts,
  /// repositories, or clients may have been added. Reconstructs hosts,
  /// guests, and repositories, reloads every subsystem wholesale, restores
  /// the clock, and re-arms the saved timers in their saved heap order so a
  /// continued run is bit-identical to an uninterrupted one.
  Status load_snapshot(std::string_view bytes);
  /// File-backed variants (atomic write; clear errors on version skew).
  Status save_snapshot_file(const std::string& path) const;
  Status load_snapshot_file(const std::string& path);

  /// FNV-1a digest of the world's snapshot bytes: two worlds are
  /// bit-identical exactly when their digests are (the save→load→continue
  /// gate value). Costs one save; the digest follows from the checksum
  /// (snapshot::digest), not from a second pass over the bytes.
  [[nodiscard]] Result<std::uint64_t> state_digest() const;

  /// The paper's two-host testbed (§4): seattle + tacoma + one ASP
  /// repository ("asp-repo") + one client machine ("client-0").
  struct PaperTestbed {
    std::unique_ptr<Hup> hup;
    image::ImageRepository* repo;
    net::NodeId client;
  };
  static PaperTestbed paper_testbed(MasterConfig master_config = {});

 private:
  /// One re-armable pending event, as carried in the snapshot's timers
  /// section. Kind tells the restorer which owner to re-arm through.
  struct TimerRecord {
    enum Kind : std::uint8_t { kHeartbeat = 0, kDetector = 1, kMonitor = 2 };
    Kind kind = kHeartbeat;
    std::string owner;  // daemon host name for heartbeats, empty otherwise
    sim::SimTime when;
    /// Live heap sequence at save time. Records are written sorted by it and
    /// the raw value is dropped — absolute seqs differ between an original
    /// and a restored engine, so embedding them would break the
    /// bit-identical digest gate. File order alone carries re-arm order.
    std::uint64_t seq = 0;
  };

  /// The re-armable timers, in saved heap order; an error unless they
  /// account for every pending engine event.
  Result<std::vector<TimerRecord>> pending_timers() const;
  /// Snapshot walk over the world; `timers` is the timers section.
  template <class Ar>
  void serialize(Ar& ar, std::vector<TimerRecord>& timers);
  /// Re-arms restored timers against the restored clock, in file order.
  Status rearm_timers(const std::vector<TimerRecord>& timers);

  struct HostBundle {
    std::unique_ptr<host::HupHost> host;
    std::unique_ptr<net::TrafficShaper> shaper;
    std::unique_ptr<SodaDaemon> daemon;
    /// The host<->LAN-switch link pair and its nominal rate, kept so fault
    /// injection can degrade and restore the uplink.
    std::pair<net::LinkId, net::LinkId> uplink;
    double uplink_mbps = 0;
  };

  // Owned in standalone mode; null when attached to a federation's world.
  std::unique_ptr<sim::Engine> owned_engine_;
  std::unique_ptr<net::FlowNetwork> owned_network_;
  sim::Engine* engine_ = nullptr;
  net::FlowNetwork* network_ = nullptr;
  LanConfig lan_;
  net::NodeId lan_switch_;
  std::map<std::string, HostBundle> hosts_;
  std::vector<std::unique_ptr<image::ImageRepository>> repositories_;
  std::unique_ptr<SodaMaster> master_;
  std::unique_ptr<SodaAgent> agent_;
  std::unique_ptr<HealthMonitor> monitor_;
};

}  // namespace soda::core
