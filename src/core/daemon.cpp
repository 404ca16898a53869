#include "core/daemon.hpp"

#include <algorithm>
#include <utility>

#include "core/events.hpp"
#include "os/rootfs.hpp"
#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace soda::core {

namespace {

const sim::SimTime kBridgeLatency = sim::SimTime::microseconds(20);

// CPU cost of tailoring the rootfs: dependency walks plus file pruning,
// roughly proportional to the number of candidate services.
constexpr double kCustomizePerServiceGhzS = 0.02;

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

// name < (service + "/"), evaluated without materializing the needle.
bool name_below_service_slash(std::string_view name, std::string_view service) {
  const std::size_t n = std::min(name.size(), service.size());
  if (const int c = name.substr(0, n).compare(service.substr(0, n)); c != 0) {
    return c < 0;
  }
  if (name.size() <= service.size()) return true;  // proper prefix of needle
  return name[service.size()] < '/';
}

}  // namespace

std::size_t SodaDaemon::node_index(std::string_view node_name) const {
  const auto it =
      std::lower_bound(node_names_.begin(), node_names_.end(), node_name);
  if (it == node_names_.end() || *it != node_name) return kNoNode;
  return static_cast<std::size_t>(it - node_names_.begin());
}

SodaDaemon::NodeRecord& SodaDaemon::insert_node(
    std::string_view node_name, std::unique_ptr<NodeRecord> record) {
  const auto it =
      std::lower_bound(node_names_.begin(), node_names_.end(), node_name);
  const auto at = it - node_names_.begin();
  node_names_.insert(it, std::string(node_name));
  NodeRecord& stable = *record;
  node_records_.insert(node_records_.begin() + at, std::move(record));
  return stable;
}

void SodaDaemon::erase_node(std::size_t index) {
  node_names_.erase(node_names_.begin() + static_cast<std::ptrdiff_t>(index));
  node_records_.erase(node_records_.begin() +
                      static_cast<std::ptrdiff_t>(index));
}

bool SodaDaemon::serves_service(std::string_view service_name) const {
  const auto it = std::lower_bound(node_names_.begin(), node_names_.end(),
                                   service_name, name_below_service_slash);
  if (it == node_names_.end()) return false;
  const std::string_view name = *it;
  return name.size() > service_name.size() &&
         name[service_name.size()] == '/' &&
         name.substr(0, service_name.size()) == service_name;
}

void SodaDaemon::emit(sim::SimTime at, TraceKind kind,
                      const std::string& subject, std::string detail) {
  if (bus_ != nullptr) {
    bus_->publish(at, kind, "daemon@" + host_.name(), subject,
                  std::move(detail));
  }
}

std::string_view address_mode_name(AddressMode mode) noexcept {
  switch (mode) {
    case AddressMode::kBridging: return "bridging";
    case AddressMode::kProxying: return "proxying";
  }
  return "unknown";
}

SodaDaemon::SodaDaemon(sim::Engine& engine, net::FlowNetwork& network,
                       host::HupHost& host, net::TrafficShaper& shaper)
    : engine_(engine),
      network_(network),
      host_(host),
      shaper_(shaper),
      distributor_(engine, network, host.lan_node(), host.name()) {}

void SodaDaemon::prime_node(PrimeCommand command, PrimeCallback done) {
  SODA_EXPECTS(done != nullptr);
  SODA_EXPECTS(command.capacity_units >= 1);

  if (!alive_) {
    done(Error{"daemon@" + host_.name() + ": host is down"}, engine_.now());
    return;
  }
  if (node_index(command.node_name) != kNoNode) {
    done(Error{"node already exists: " + command.node_name}, engine_.now());
    return;
  }

  // 1. Reserve the slice. Everything later rolls this back on failure.
  auto slice = host_.reserve(command.service_name, command.reserve);
  if (!slice.ok()) {
    done(slice.error(), engine_.now());
    return;
  }
  emit(engine_.now(), TraceKind::kPrimingStarted, command.node_name,
       command.reserve.to_string());

  // 2. Download the service image from the ASP's repository. Copy the
  //    location out first: `command` moves into the callback, and argument
  //    evaluation order would otherwise race the move.
  const sim::SimTime download_started = engine_.now();
  const image::ImageLocation location = command.location;
  distributor_.fetch(
      location,
      [this, command = std::move(command), slice = slice.value(),
       download_started,
       done = std::move(done)](Result<image::ImagePtr> image,
                               sim::SimTime now) mutable {
        if (!alive_) {
          // crash_host() already released the slice with the rest of the
          // host state; releasing again would double-free it.
          done(Error{"daemon@" + host_.name() + ": host crashed mid-priming"},
               now);
          return;
        }
        if (!image.ok()) {
          must(host_.release(slice));
          done(Error{"image download failed: " + image.error().message}, now);
          return;
        }
        emit(now, TraceKind::kImageDownloaded, command.node_name,
             std::to_string(image.value()->packaged_bytes()) + " bytes");
        continue_priming(std::move(command), image.value(), slice,
                         download_started, now, std::move(done));
      });
}

void SodaDaemon::continue_priming(PrimeCommand command,
                                  const image::ImagePtr& image,
                                  host::SliceId slice,
                                  sim::SimTime download_started,
                                  sim::SimTime downloaded_at,
                                  PrimeCallback done) {
  auto& log = util::global_logger();
  auto fail = [&](std::string message) {
    must(host_.release(slice));
    done(Error{std::move(message)}, engine_.now());
  };

  // Effective application parameters: the component's when this node runs
  // one component of a partitioned service, the image's otherwise.
  const std::vector<std::string>& required_services =
      command.component ? command.component->required_services
                        : image->required_services;
  const std::string entry_command =
      command.component ? command.component->entry_command
                        : image->entry_command;
  const double app_start_ghz_s =
      command.component ? command.component->app_start_ghz_s
                        : image->app_start_ghz_s;
  const std::int64_t app_memory_mb =
      command.component ? command.component->app_memory_mb
                        : image->app_memory_mb;
  const int listen_port =
      command.component ? command.component->listen_port : command.listen_port;

  // 3. The guest root filesystem: the image's template, tailored to the
  //    services the node needs, with the application image merged into the
  //    root (the service image is part of the root file system, §4.3).
  //    Nothing changes that tree after priming, so the world's table builds
  //    it once per (image, customize flag, services) and every node of the
  //    key shares it. Simulated customize *time* is still charged per node:
  //    the sharing is a simulator optimization, not a change to the modeled
  //    daemon.
  SODA_EXPECTS(rootfs_table_ != nullptr);
  auto rootfs = rootfs_table_->intern(
      std::shared_ptr<const os::FileSystem>(image, &image->payload),
      image->rootfs_template, command.customize_rootfs, required_services);
  if (!rootfs.ok()) {
    fail(rootfs.error().message);
    return;
  }
  sim::SimTime customize_time = sim::SimTime::zero();
  if (command.customize_rootfs) {
    const std::size_t candidates =
        os::base_rootfs(image->rootfs_template).enabled_services.size();
    customize_time = sim::SimTime::seconds(
        kCustomizePerServiceGhzS * static_cast<double>(candidates) /
        host_.spec().cpu_ghz);
  }

  // 4. Create the UML with the slice's memory as its usage limit.
  const std::int64_t memory_mb = command.reserve.memory_mb;
  if (memory_mb <= vm::UserModeLinux::kKernelMemoryMb + app_memory_mb) {
    fail("slice memory too small for guest kernel + application");
    return;
  }
  auto uml = std::make_unique<vm::UserModeLinux>(std::move(rootfs).value(),
                                                memory_mb);
  const vm::BootReport boot_plan = uml->plan_boot(host_.spec());
  const sim::SimTime app_start_time =
      sim::SimTime::seconds(app_start_ghz_s / host_.spec().cpu_ghz);

  // 5. Networking: IP from the host pool, a network port for the VM, the
  //    bridge mapping, and the outbound bandwidth share in the shaper.
  auto address = host_.ip_pool().allocate();
  if (!address.ok()) {
    fail("no free IP on " + host_.name() + ": " + address.error().message);
    return;
  }
  const net::Ipv4Address ip = address.value();
  const net::NodeId vm_node = network_.add_node(command.node_name);
  // The VM's hop through the host runs at UML's effective NIC rate —
  // tracing every frame costs about half the host's line rate.
  network_.add_duplex_link(vm_node, host_.lan_node(),
                           vm::uml_effective_nic_mbps(host_.spec().nic_mbps),
                           kBridgeLatency);
  int public_port = 0;
  if (command.address_mode == AddressMode::kBridging) {
    if (auto attached = host_.bridge().attach(ip, vm_node); !attached.ok()) {
      host_.ip_pool().release(ip);
      fail(attached.error().message);
      return;
    }
  } else {
    // Proxying: the node keeps its reserved address; clients reach it via a
    // forwarded port on the host's public address.
    auto forwarded =
        host_.proxy().forward(net::ProxyTarget{ip, listen_port});
    if (!forwarded.ok()) {
      host_.ip_pool().release(ip);
      fail(forwarded.error().message);
      return;
    }
    public_port = forwarded.value();
  }
  // The shaper enforces the *un-inflated* bandwidth share the service paid
  // for; the inflation headroom absorbs virtualization overhead.
  shaper_.configure(
      ip, command.unit.bandwidth_mbps * command.capacity_units);

  auto node = std::make_unique<vm::VirtualServiceNode>(
      vm::NodeName{command.node_name}, command.service_name, host_.name(), slice,
      ip, vm_node, command.capacity_units, std::move(uml));
  node->set_service_port(listen_port);
  if (command.component) node->set_component(command.component->name);
  if (command.address_mode == AddressMode::kProxying) {
    node->set_public_endpoint(
        vm::PublicEndpoint{host_.public_address(), public_port});
  }
  vm::VirtualServiceNode* node_ptr = node.get();

  auto record = std::make_unique<NodeRecord>();
  record->node = std::move(node);
  record->address_mode = command.address_mode;
  record->public_port = public_port;
  record->report.download_time = downloaded_at - download_started;
  record->report.customize_time = customize_time;
  record->report.boot = boot_plan;
  record->report.app_start_time = app_start_time;
  record->report.image_bytes = image->packaged_bytes();
  record->report.rootfs_bytes = node_ptr->uml().rootfs().boot.image_bytes;
  record->unit = command.unit;
  insert_node(command.node_name, std::move(record));

  // 6. Boot the guest, then start the application inside it.
  must(node_ptr->uml().begin_boot(engine_.now()));
  const sim::SimTime ready_in = customize_time + boot_plan.total() + app_start_time;
  if (log.enabled(util::LogLevel::kInfo)) {
    log.info("daemon@" + host_.name(),
             command.node_name + ": priming, ip " + ip.to_string() +
                 ", boot plan " + std::to_string(ready_in.to_seconds()) + "s" +
                 (boot_plan.used_ram_disk ? " (ram disk)" : " (disk)"));
  }
  engine_.schedule_after(
      ready_in, [this, name = command.node_name, entry = entry_command,
                 app_mem = app_memory_mb, done = std::move(done)] {
        // Re-find the node: if the host crashed while the guest was booting,
        // crash_host() destroyed the NodeRecord and the pointer is gone.
        const std::size_t index = node_index(name);
        if (!alive_ || index == kNoNode) {
          done(Error{"daemon@" + host_.name() + ": host crashed mid-priming"},
               engine_.now());
          return;
        }
        vm::VirtualServiceNode* node_ptr = node_records_[index]->node.get();
        must(node_ptr->uml().finish_boot(engine_.now()));
        const std::string uid = "svc-" + node_ptr->service_name();
        must(node_ptr->uml().spawn_process(entry, uid, engine_.now()));
        must(node_ptr->uml().allocate_memory(app_mem));
        emit(engine_.now(), TraceKind::kNodeBooted, node_ptr->name().value,
             "ip " + node_ptr->address().to_string() + " runs " + entry);
        done(node_ptr, engine_.now());
      });
}

void SodaDaemon::release_node_state(NodeRecord& record, bool crashed) {
  vm::VirtualServiceNode& node = *record.node;
  if (crashed) {
    node.uml().crash();
  } else {
    node.uml().shutdown();
  }
  if (record.address_mode == AddressMode::kBridging) {
    must(host_.bridge().detach(node.address()));
  } else {
    host_.proxy().remove(record.public_port);
  }
  shaper_.remove(node.address());
  host_.ip_pool().release(node.address());
  must(host_.release(node.slice()));
}

Status SodaDaemon::teardown_node(std::string_view node_name) {
  const std::size_t index = node_index(node_name);
  if (index == kNoNode) {
    return Error{"daemon@" + host_.name() + ": no node " +
                 std::string(node_name)};
  }
  release_node_state(*node_records_[index], /*crashed=*/false);
  erase_node(index);
  // The VM's flow-network port remains in the topology (links cannot be
  // removed), but nothing routes to it once the bridge entry is gone.
  return {};
}

Status SodaDaemon::resize_node(std::string_view node_name, int new_units,
                               const host::ResourceVector& new_reserve) {
  SODA_EXPECTS(new_units >= 1);
  const std::size_t index = node_index(node_name);
  if (index == kNoNode) {
    return Error{"daemon@" + host_.name() + ": no node " +
                 std::string(node_name)};
  }
  NodeRecord& record = *node_records_[index];
  vm::VirtualServiceNode& node = *record.node;
  if (auto resized = host_.resize(node.slice(), new_reserve); !resized.ok()) {
    return resized;
  }
  node.set_capacity_units(new_units);
  shaper_.configure(node.address(), record.unit.bandwidth_mbps * new_units);
  return {};
}

vm::VirtualServiceNode* SodaDaemon::find_node(std::string_view node_name) {
  const std::size_t index = node_index(node_name);
  return index == kNoNode ? nullptr : node_records_[index]->node.get();
}

const vm::VirtualServiceNode* SodaDaemon::find_node(
    std::string_view node_name) const {
  const std::size_t index = node_index(node_name);
  return index == kNoNode ? nullptr : node_records_[index]->node.get();
}

const PrimingReport* SodaDaemon::priming_report(
    std::string_view node_name) const {
  const std::size_t index = node_index(node_name);
  return index == kNoNode ? nullptr : &node_records_[index]->report;
}

void SodaDaemon::crash_host() {
  if (!alive_) return;
  alive_ = false;
  // Fail-stop: every guest dies with the host, and a rebooting machine comes
  // back with nothing reserved — release all host-side state now so recover()
  // reports a free host. Records go in name order, as the seed's map did.
  for (auto& record : node_records_) {
    release_node_state(*record, /*crashed=*/true);
  }
  node_names_.clear();
  node_records_.clear();
  // Image distribution dies with the host: in-flight fetches fail (their
  // prime callbacks observe !alive_), the chunk cache and keep-alive
  // connections are gone, and the Master's chunk registry drops this host
  // so peers fail over mid-transfer.
  distributor_.handle_local_crash();
  util::global_logger().warn("daemon@" + host_.name(), "host crashed");
}

void SodaDaemon::recover() {
  if (alive_) return;
  alive_ = true;
  util::global_logger().info("daemon@" + host_.name(),
                             "host rebooted, daemon back");
}

void SodaDaemon::start_heartbeat(sim::SimTime interval, HeartbeatSink sink) {
  SODA_EXPECTS(interval > sim::SimTime::zero());
  SODA_EXPECTS(sink != nullptr);
  heartbeat_interval_ = interval;
  heartbeat_sink_ = std::move(sink);
  if (heartbeating_) return;
  heartbeating_ = true;
  heartbeat_next_ = engine_.now() + heartbeat_interval_;
  heartbeat_event_ = engine_.schedule_after_sharded(
      heartbeat_interval_, shard_key(), [this] { heartbeat_tick(); });
}

void SodaDaemon::heartbeat_tick() {
  // Host-sharded event: the tick body only reads daemon-local flags; the
  // sink (Master wheel re-arm — global state) and the reschedule (event
  // queue) are effects, deferred to the serial commit. Without sharding the
  // defer runs inline, which is byte-for-byte the pre-sharding behaviour.
  if (!heartbeating_) return;
  engine_.defer([this] {
    if (!heartbeating_) return;
    // A dead host sends nothing, but the loop keeps ticking so heartbeats
    // resume by themselves once the host recovers.
    if (alive_) heartbeat_sink_(*this, engine_.now());
    heartbeat_next_ = engine_.now() + heartbeat_interval_;
    heartbeat_event_ = engine_.schedule_after_sharded(
        heartbeat_interval_, shard_key(), [this] { heartbeat_tick(); });
  });
}

void SodaDaemon::restore_heartbeat(HeartbeatSink sink) {
  SODA_EXPECTS(heartbeat_interval_ > sim::SimTime::zero());
  SODA_EXPECTS(sink != nullptr);
  heartbeat_sink_ = std::move(sink);
}

void SodaDaemon::rearm_heartbeat_at(sim::SimTime when) {
  SODA_EXPECTS(heartbeating_ && heartbeat_sink_ != nullptr);
  heartbeat_next_ = when;
  heartbeat_event_ = engine_.schedule_at_sharded(when, shard_key(),
                                                 [this] { heartbeat_tick(); });
}

template <class Ar>
void SodaDaemon::serialize(Ar& ar) {
  ar.begin_section("daemon");
  // Hosts are saved in registration order, so the id the restore attached
  // this daemon under must be the saved one.
  ar.expect("daemon host id mismatch").u32(host_id_.value);
  ar.boolean(alive_);
  ar.boolean(heartbeating_);
  ar.time(heartbeat_interval_);
  ar.walk(distributor_);
  std::size_t nodes = node_names_.size();
  ar.count(nodes);
  if constexpr (Ar::kLoading) {
    node_names_.clear();
    node_records_.clear();
  }
  for (std::size_t i = 0; i < nodes && ar.ok(); ++i) {
    // Names were saved in sorted order, so appending keeps the store's
    // sorted-names invariant.
    if constexpr (Ar::kLoading) node_names_.emplace_back();
    ar.str(node_names_[i]);
    if constexpr (Ar::kLoading) {
      auto record = std::make_unique<NodeRecord>();
      record->node = std::make_unique<vm::VirtualServiceNode>(
          vm::NodeName{node_names_[i]}, host_.name());
      node_records_.push_back(std::move(record));
    }
    NodeRecord& record = *node_records_[i];
    ar.walk(*record.node);
    ar.check(record.node->net_node().value < network_.node_count(),
             "guest network node out of range");
    // Priming report (Table 2 series) and slice bookkeeping.
    ar.time(record.report.download_time);
    ar.time(record.report.customize_time);
    ar.time(record.report.boot.mount_time);
    ar.time(record.report.boot.kernel_time);
    ar.time(record.report.boot.services_time);
    ar.boolean(record.report.boot.used_ram_disk);
    ar.u64(record.report.boot.services_started);
    ar.time(record.report.app_start_time);
    ar.i64(record.report.image_bytes);
    ar.i64(record.report.rootfs_bytes);
    ar.walk(record.unit);
    ar.u8(record.address_mode, AddressMode::kProxying);
    ar.i64(record.public_port);
  }
  ar.end_section();
}
template void SodaDaemon::serialize(snapshot::Writer&);
template void SodaDaemon::serialize(snapshot::Reader&);

}  // namespace soda::core
