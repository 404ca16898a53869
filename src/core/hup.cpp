#include "core/hup.hpp"

#include <algorithm>

#include "snapshot/format.hpp"
#include "util/contract.hpp"

namespace soda::core {

Hup::Hup(MasterConfig master_config, LanConfig lan)
    : owned_engine_(std::make_unique<sim::Engine>()),
      owned_network_(std::make_unique<net::FlowNetwork>(*owned_engine_)),
      engine_(owned_engine_.get()),
      network_(owned_network_.get()),
      lan_(lan) {
  lan_switch_ = network_->add_node("lan-switch");
  master_ = std::make_unique<SodaMaster>(*engine_, master_config);
  agent_ = std::make_unique<SodaAgent>(*engine_, *master_);
}

Hup::Hup(sim::Engine& engine, net::FlowNetwork& network, std::string site_name,
         MasterConfig master_config, LanConfig lan)
    : engine_(&engine), network_(&network), lan_(lan) {
  lan_switch_ = network_->add_node(site_name + "/lan-switch");
  master_ = std::make_unique<SodaMaster>(*engine_, master_config);
  agent_ = std::make_unique<SodaAgent>(*engine_, *master_);
}

host::HupHost& Hup::add_host(host::HostSpec spec, net::Ipv4Address pool_start,
                             std::size_t pool_size) {
  SODA_EXPECTS(hosts_.count(spec.name) == 0);
  const net::NodeId lan_node = network_->add_node(spec.name);
  const auto uplink =
      network_->add_duplex_link(lan_node, lan_switch_, spec.nic_mbps, lan_.latency);

  HostBundle bundle;
  bundle.uplink = uplink;
  bundle.uplink_mbps = spec.nic_mbps;
  bundle.host = std::make_unique<host::HupHost>(
      spec, lan_node, net::IpPool(pool_start, pool_size));
  bundle.shaper = std::make_unique<net::TrafficShaper>(*network_);
  bundle.daemon = std::make_unique<SodaDaemon>(*engine_, *network_, *bundle.host,
                                               *bundle.shaper);
  must(master_->register_daemon(bundle.daemon.get()));
  auto [it, inserted] = hosts_.emplace(spec.name, std::move(bundle));
  SODA_ENSURES(inserted);
  return *it->second.host;
}

image::ImageRepository& Hup::add_repository(const std::string& name) {
  const net::NodeId node = network_->add_node(name);
  network_->add_duplex_link(node, lan_switch_, lan_.mbps, lan_.latency);
  repositories_.push_back(std::make_unique<image::ImageRepository>(name, node));
  master_->register_repository(repositories_.back().get());
  return *repositories_.back();
}

net::NodeId Hup::add_client(const std::string& name) {
  const net::NodeId node = network_->add_node(name);
  network_->add_duplex_link(node, lan_switch_, lan_.mbps, lan_.latency);
  return node;
}

HealthMonitor& Hup::health_monitor() {
  if (!monitor_) monitor_ = std::make_unique<HealthMonitor>(*engine_, *master_);
  return *monitor_;
}

host::HupHost* Hup::find_host(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.host.get();
}

SodaDaemon* Hup::find_daemon(const std::string& host_name) {
  auto it = hosts_.find(host_name);
  return it == hosts_.end() ? nullptr : it->second.daemon.get();
}

net::TrafficShaper* Hup::find_shaper(const std::string& host_name) {
  auto it = hosts_.find(host_name);
  return it == hosts_.end() ? nullptr : it->second.shaper.get();
}

void Hup::enable_failure_detection(FailureDetectorConfig config) {
  master_->start_failure_detector(config);
  for (auto& [name, bundle] : hosts_) {
    bundle.daemon->start_heartbeat(
        config.heartbeat_interval,
        [this](SodaDaemon& daemon, sim::SimTime now) {
          master_->on_heartbeat(daemon, now);
        });
  }
}

void Hup::crash_host(const std::string& host_name) {
  if (SodaDaemon* daemon = find_daemon(host_name)) daemon->crash_host();
}

void Hup::recover_host(const std::string& host_name) {
  if (SodaDaemon* daemon = find_daemon(host_name)) daemon->recover();
}

void Hup::scale_host_uplink(const std::string& host_name, double factor) {
  SODA_EXPECTS(factor > 0);
  auto it = hosts_.find(host_name);
  if (it == hosts_.end()) return;
  const HostBundle& bundle = it->second;
  network_->set_link_capacity(bundle.uplink.first, bundle.uplink_mbps * factor);
  network_->set_link_capacity(bundle.uplink.second, bundle.uplink_mbps * factor);
}

Result<std::vector<Hup::TimerRecord>> Hup::pending_timers() const {
  // The quiesce gate: the re-armable timers must account for every pending
  // engine event — anything else (an in-flight download, boot, or request)
  // cannot be re-created from a checkpoint.
  std::vector<TimerRecord> timers;
  for (const SodaDaemon* daemon : master_->daemons()) {
    if (!daemon->heartbeating()) continue;
    timers.push_back({TimerRecord::kHeartbeat, daemon->host_name(),
                      daemon->heartbeat_next(),
                      engine_->event_seq(daemon->heartbeat_event())});
  }
  const RecoveryManager& recovery = master_->recovery();
  if (recovery.running()) {
    timers.push_back({TimerRecord::kDetector, "", recovery.tick_next(),
                      engine_->event_seq(recovery.tick_event())});
  }
  if (monitor_ && monitor_->running()) {
    timers.push_back({TimerRecord::kMonitor, "", monitor_->tick_next(),
                      engine_->event_seq(monitor_->tick_event())});
  }
  if (timers.size() != engine_->pending()) {
    return Error{"world not quiesced: " + std::to_string(engine_->pending()) +
                 " pending events, " + std::to_string(timers.size()) +
                 " re-armable timers"};
  }
  for (const TimerRecord& timer : timers) {
    if (timer.seq == 0) {
      return Error{"stale timer event id for '" + timer.owner + "' (kind " +
                   std::to_string(timer.kind) + ")"};
    }
  }
  // Same-time events must re-fire in their saved heap order.
  std::sort(timers.begin(), timers.end(),
            [](const TimerRecord& a, const TimerRecord& b) {
              return a.seq < b.seq;
            });
  return timers;
}

template <class Ar>
void Hup::serialize(Ar& ar, std::vector<TimerRecord>& timers) {
  ar.begin_section("hup");
  auto&& lan = ar.expect("lan config mismatch");
  lan.f64(lan_.mbps);
  lan.time(lan_.latency);
  sim::SimTime now = engine_->now();
  ar.time(now);
  if constexpr (Ar::kLoading) {
    ar.check(hosts_.empty() && repositories_.empty() &&
                 engine_->pending() == 0,
             "restore target is not a fresh world");
    if (!ar.ok()) return;  // a used network may hold flows the walk refuses
  }
  ar.walk(*network_);
  ar.u64(lan_switch_.value);
  ar.walk(trace());
  // Hosts in daemon-registration order, so restore re-attaches them into
  // the same dense HostId space.
  std::size_t host_count = master_->daemons().size();
  ar.count(host_count);
  const snapshot::Below nodes{network_->node_count()};
  const snapshot::Below links{network_->link_count()};
  for (std::size_t i = 0; i < host_count && ar.ok(); ++i) {
    HostBundle restored;
    HostBundle* bundle = &restored;
    host::HostSpec spec;
    net::NodeId lan_node;
    std::uint32_t pool_start = 0;
    std::size_t pool_size = 0;
    if constexpr (!Ar::kLoading) {
      bundle = &hosts_.at(master_->daemons()[i]->host_name());
      spec = bundle->host->spec();
      lan_node = bundle->host->lan_node();
      pool_start = bundle->host->ip_pool().first().value();
      pool_size = bundle->host->ip_pool().capacity();
    }
    ar.walk(spec);
    ar.u64(lan_node.value, nodes);
    ar.u32(pool_start);
    ar.count(pool_size);  // one byte per address follows in the pool
    ar.check(pool_size >= 1, "empty host address pool");
    ar.check(pool_size <= net::IpPool::room_from(net::Ipv4Address{pool_start}),
             "host address pool runs past 255.255.255.255");
    ar.u64(bundle->uplink.first.value, links);
    ar.u64(bundle->uplink.second.value, links);
    ar.f64(bundle->uplink_mbps);
    ar.check(bundle->uplink_mbps > 0, "host uplink rate out of range");
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) return;
      ar.check(master_->pool_overlap(net::Ipv4Address{pool_start},
                                     pool_size) == nullptr,
               "host address pools overlap");
      if (!ar.ok()) return;
      // The LAN node, uplink links, bridge entries, and shaper shares were
      // restored wholesale with the network — construct alongside, not into.
      bundle->host = std::make_unique<host::HupHost>(
          spec, lan_node, net::IpPool(net::Ipv4Address{pool_start}, pool_size));
      bundle->shaper = std::make_unique<net::TrafficShaper>(*network_);
      bundle->daemon = std::make_unique<SodaDaemon>(
          *engine_, *network_, *bundle->host, *bundle->shaper);
    }
    ar.walk(*bundle->host);
    ar.walk(*bundle->shaper);
    if constexpr (Ar::kLoading) {
      master_->attach_restored_daemon(bundle->daemon.get());
    }
    ar.walk(*bundle->daemon);
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) return;
      hosts_.emplace(spec.name, std::move(restored));
    }
  }
  ar.seq(repositories_, [&ar](auto& repository) {
    if constexpr (Ar::kLoading) {
      repository = std::make_unique<image::ImageRepository>();
    }
    ar.walk(*repository);
  });
  if constexpr (Ar::kLoading) {
    for (const auto& repository : repositories_) {
      ar.check(repository->node().value < nodes.limit,
               "repository node out of range");
      master_->register_repository(repository.get());
    }
  }
  if constexpr (Ar::kLoading) {
    // The monitor subscribes to the bus when constructed, and the saved bus
    // id counter already counts that subscription: build it before the
    // counter is restored, and drop it again when the snapshot has none.
    monitor_ = std::make_unique<HealthMonitor>(*engine_, *master_);
  }
  ar.walk(*master_);
  ar.walk(*agent_);
  bool monitored = monitor_ != nullptr;
  ar.boolean(monitored);
  if constexpr (Ar::kLoading) {
    if (!monitored) monitor_.reset();
  }
  if (monitored) ar.walk(*monitor_);
  ar.begin_section("timers");
  ar.seq(timers, [&ar](auto& timer) {
    ar.u8(timer.kind, TimerRecord::kMonitor);
    ar.str(timer.owner);
    ar.time(timer.when);
  });
  ar.end_section();
  ar.end_section();
  if constexpr (Ar::kLoading) {
    if (ar.ok()) engine_->restore_clock(now);
  }
}

Status Hup::rearm_timers(const std::vector<TimerRecord>& timers) {
  for (const TimerRecord& timer : timers) {
    if (timer.when < engine_->now()) {
      return Error{"snapshot: timer due before the restored clock"};
    }
    switch (timer.kind) {
      case TimerRecord::kHeartbeat: {
        SodaDaemon* daemon = find_daemon(timer.owner);
        if (daemon == nullptr || !daemon->heartbeating() ||
            daemon->heartbeat_interval() <= sim::SimTime::zero()) {
          return Error{"snapshot: heartbeat timer for unknown host '" +
                       timer.owner + "'"};
        }
        daemon->restore_heartbeat([this](SodaDaemon& d, sim::SimTime now) {
          master_->on_heartbeat(d, now);
        });
        daemon->rearm_heartbeat_at(timer.when);
        break;
      }
      case TimerRecord::kDetector:
        if (!master_->recovery().running()) {
          return Error{"snapshot: detector timer without a running detector"};
        }
        master_->recovery().rearm_tick_at(timer.when);
        break;
      case TimerRecord::kMonitor:
        if (!monitor_ || !monitor_->running()) {
          return Error{"snapshot: monitor timer without a running monitor"};
        }
        monitor_->rearm_tick_at(timer.when);
        break;
    }
  }
  SODA_ENSURES(engine_->pending() == timers.size());
  return {};
}

Result<std::string> Hup::save_snapshot() const {
  Result<std::vector<TimerRecord>> timers = pending_timers();
  if (!timers) return timers.error();
  snapshot::Writer writer;
  // The Writer walk only reads the world.
  const_cast<Hup&>(*this).serialize(writer, timers.value());
  return writer.finish();
}

Status Hup::load_snapshot(std::string_view bytes) {
  snapshot::Reader reader(bytes);
  std::vector<TimerRecord> timers;
  serialize(reader, timers);
  if (!reader.ok()) return reader.status();
  return rearm_timers(timers);
}

Status Hup::save_snapshot_file(const std::string& path) const {
  Result<std::string> bytes = save_snapshot();
  if (!bytes) return bytes.error();
  return snapshot::write_file(path, bytes.value());
}

Status Hup::load_snapshot_file(const std::string& path) {
  Result<std::string> bytes = snapshot::read_file(path);
  if (!bytes) return bytes.error();
  return load_snapshot(bytes.value());
}

Result<std::uint64_t> Hup::state_digest() const {
  Result<std::string> bytes = save_snapshot();
  if (!bytes) return bytes.error();
  return snapshot::fnv1a(bytes.value());
}

Hup::PaperTestbed Hup::paper_testbed(MasterConfig master_config) {
  PaperTestbed testbed;
  testbed.hup = std::make_unique<Hup>(master_config);
  testbed.hup->add_host(host::HostSpec::seattle(),
                        *net::Ipv4Address::parse("128.10.9.120"), 16);
  testbed.hup->add_host(host::HostSpec::tacoma(),
                        *net::Ipv4Address::parse("128.10.9.140"), 16);
  testbed.repo = &testbed.hup->add_repository("asp-repo");
  testbed.client = testbed.hup->add_client("client-0");
  return testbed;
}

}  // namespace soda::core
