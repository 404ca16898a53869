#include "core/master.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "snapshot/format.hpp"
#include "util/contract.hpp"

namespace soda::core {

namespace {

/// `placement`'s node descriptor (which must exist).
std::vector<NodeDescriptor>::iterator node_of(ServiceRecord& record,
                                              const Placement& placement) {
  const auto desc = std::find_if(record.nodes.begin(), record.nodes.end(),
                                 [&](const NodeDescriptor& d) {
                                   return d.node_name == placement.node_name;
                                 });
  SODA_ENSURES(desc != record.nodes.end());
  return desc;
}

/// Resizes a booted node to `units` in place — its slice, switch weight,
/// descriptor and placement — for shrink and growth alike.
void resize_in_place(ServiceRecord& record, Placement& placement, int units,
                     const host::ResourceVector& unit) {
  must(placement.daemon->resize_node(placement.node_name, units,
                                     unit.scaled(units)));
  const auto desc = node_of(record, placement);
  must(record.service_switch->set_backend_capacity(desc->address, desc->port,
                                                   units));
  desc->capacity_units = units;
  placement.units = units;
}

}  // namespace

SodaMaster::SodaMaster(sim::Engine& engine, MasterConfig config)
    : engine_(engine),
      config_(config),
      planner_(down_hosts_, config_.placement, config_.slowdown_factor),
      priming_(engine, directory_, services_),
      recovery_(engine,
                ControlPlaneView{services_, daemons_, down_hosts_,
                                 chunk_registry_},
                planner_, priming_, bus_) {
  // HUP-wide distribution byte totals, read on demand. With distribution
  // enabled the chunk layer accounts origin bytes itself; the legacy
  // whole-image path is counted by each host's downloader.
  bus_.metrics().register_gauge("bytes_from_origin", [this] {
    double total = 0;
    for (SodaDaemon* daemon : daemons_) {
      total += config_.distribution.enabled
                   ? static_cast<double>(
                         daemon->distributor().bytes_from_origin())
                   : static_cast<double>(
                         daemon->distributor().downloader().bytes_downloaded());
    }
    return total;
  });
  bus_.metrics().register_gauge("bytes_from_peers", [this] {
    double total = 0;
    for (const SodaDaemon* daemon : daemons_) {
      total += static_cast<double>(daemon->distributor().bytes_from_peers());
    }
    return total;
  });
}

Status SodaMaster::register_daemon(SodaDaemon* daemon) {
  SODA_EXPECTS(daemon != nullptr);
  if (host_names_.contains(daemon->host_name())) {
    return Error{"duplicate host: " + daemon->host_name()};
  }
  const net::IpPool& pool = daemon->host().ip_pool();
  if (const SodaDaemon* owner = pool_overlap(pool.first(), pool.capacity())) {
    return Error{"IP pools of " + owner->host_name() + " and " +
                 daemon->host_name() + " overlap"};
  }
  // Registration order defines the dense HostId space every fleet-scale
  // structure (down-host bitset, detector wheel, planner tie-breaks) is
  // indexed by.
  const HostId id{host_names_.intern(daemon->host_name())};
  SODA_ENSURES(id.index() == daemons_.size());
  daemon->set_host_id(id);
  daemons_.push_back(daemon);
  const PoolRange range{
      pool.first().value(),
      static_cast<std::uint32_t>(pool.first().value() + pool.capacity() - 1),
      id};
  pools_.insert(std::upper_bound(pools_.begin(), pools_.end(), range,
                                 [](const PoolRange& a, const PoolRange& b) {
                                   return a.first < b.first;
                                 }),
                range);
  planner_.add_host(*daemon);
  // Wire the host's image-distribution front end into the HUP: shared
  // repository directory (per-attempt name resolution), shared chunk
  // registry (P2P priming), and the Master's distribution policy. The
  // daemon's control-plane events flow into the Master's bus, and its
  // guests' trees come from the world's table.
  daemon->distributor().configure(config_.distribution);
  daemon->distributor().set_directory(&directory_);
  daemon->distributor().set_registry(&chunk_registry_);
  daemon->set_bus(&bus_);
  daemon->set_rootfs_table(&rootfs_table_);
  recovery_.on_host_registered(*daemon);
  return {};
}

const SodaDaemon* SodaMaster::pool_overlap(net::Ipv4Address first,
                                           std::size_t count) const {
  SODA_EXPECTS(count >= 1);
  const std::uint64_t lo = first.value();
  const std::uint64_t last = lo + count - 1;
  // The pools that overlap [lo, last] are consecutive in address order: the
  // first is the first pool that ends at or after lo.
  auto it = std::lower_bound(
      pools_.begin(), pools_.end(), lo,
      [](const PoolRange& pool, std::uint64_t at) { return pool.last < at; });
  const SodaDaemon* earliest = nullptr;
  for (; it != pools_.end() && it->first <= last; ++it) {
    const SodaDaemon* owner = daemons_[it->host.index()];
    if (earliest == nullptr || owner->host_id() < earliest->host_id()) {
      earliest = owner;
    }
  }
  return earliest;
}

template <class Ar>
void SodaMaster::serialize(Ar& ar) {
  ar.begin_section("master");
  auto&& same = ar.expect("master config mismatch");
  same.f64(config_.slowdown_factor);
  same.u8(config_.placement);
  same.boolean(config_.customize_rootfs);
  same.u8(config_.address_mode);
  same.i64(kMaxNodesPerService);
  ar.expect("daemon count mismatch (register restored daemons before load)")
      .u64(daemons_.size());
  // Registration interned the restored daemons; the saved table must name
  // the same hosts in the same order, since daemon_for() and every HostId
  // index by it.
  if constexpr (Ar::kLoading) {
    InternTable saved;
    ar.walk(saved);
    ar.check(saved == host_names_,
             "host name table disagrees with the registered hosts");
  } else {
    ar.walk(host_names_);
  }
  ar.walk(down_hosts_);
  ar.walk(chunk_registry_);
  ar.walk(bus_);
  ar.walk(priming_);
  ar.walk(recovery_);
  services_.serialize(
      ar, [this](std::string_view host) { return daemon_for(host); });
  ar.end_section();
}
template void SodaMaster::serialize(snapshot::Writer&);
template void SodaMaster::serialize(snapshot::Reader&);

void SodaMaster::register_repository(const image::ImageRepository* repository) {
  SODA_EXPECTS(repository != nullptr);
  directory_.add(repository);
}

bool SodaMaster::unregister_repository(const std::string& name) {
  return directory_.remove(name);
}

void SodaMaster::warm_hosts(const image::ImageLocation& location,
                            const std::vector<std::string>& hosts,
                            WarmCallback done) {
  SODA_EXPECTS(done != nullptr);
  if (directory_.find(location.repository) == nullptr) {
    done(Error{"unknown repository: " + location.repository}, engine_.now());
    return;
  }
  std::vector<SodaDaemon*> targets;
  for (const std::string& host : hosts) {
    SodaDaemon* daemon = daemon_for(host);
    if (daemon != nullptr && daemon->alive() &&
        !down_hosts_.test(daemon->host_id())) {
      targets.push_back(daemon);
    }
  }
  if (targets.empty()) {
    done(Error{"no live host to warm with " + location.url()}, engine_.now());
    return;
  }
  struct WarmJoin {
    std::size_t pending = 0;
    bool failed = false;
    std::string first_error;
  };
  auto join = std::make_shared<WarmJoin>();
  join->pending = targets.size();
  for (SodaDaemon* daemon : targets) {
    // The fetch lands the chunks in the host's cache (and registry); the
    // image itself is not needed — priming re-fetches it for free.
    daemon->distributor().fetch(
        location,
        [join, done](Result<image::ImagePtr> image, sim::SimTime now) {
          if (!image.ok() && !join->failed) {
            join->failed = true;
            join->first_error = image.error().message;
          }
          if (--join->pending > 0) return;
          if (join->failed) {
            done(Error{join->first_error}, now);
          } else {
            done({}, now);
          }
        });
  }
}

SodaDaemon* SodaMaster::daemon_for(std::string_view host_name) const {
  const HostId id{host_names_.find(host_name)};
  return id.valid() ? daemons_[id.index()] : nullptr;
}

host::ResourceVector SodaMaster::hup_available() const {
  host::ResourceVector total;
  for (const SodaDaemon* daemon : daemons_) {
    if (down_hosts_.test(daemon->host_id())) continue;
    total += daemon->available();
  }
  return total;
}

void SodaMaster::create_service(const ServiceCreationRequest& request,
                                CreateCallback done) {
  SODA_EXPECTS(done != nullptr);

  if (request.service_name.empty()) {
    done(ApiError{ApiErrorCode::kInvalidRequest, "service name must not be empty"},
         engine_.now());
    return;
  }
  if (services_.contains(request.service_name)) {
    done(ApiError{ApiErrorCode::kServiceExists,
                  "service already hosted: " + request.service_name},
         engine_.now());
    return;
  }
  const image::ImageRepository* repo =
      directory_.find(request.image_location.repository);
  if (repo == nullptr) {
    done(ApiError{ApiErrorCode::kImageNotFound,
                  "unknown repository: " + request.image_location.repository},
         engine_.now());
    return;
  }
  auto image = repo->lookup(request.image_location.path);
  if (!image.ok()) {
    done(ApiError{ApiErrorCode::kImageNotFound, image.error().message},
         engine_.now());
    return;
  }

  const bool partitioned = image.value()->partitioned();
  if (partitioned &&
      request.requirement.n != image.value()->total_component_units()) {
    done(ApiError{ApiErrorCode::kInvalidRequest,
                  "partitioned image needs n = " +
                      std::to_string(image.value()->total_component_units()) +
                      " (sum of component units), got " +
                      std::to_string(request.requirement.n)},
         engine_.now());
    return;
  }
  // Cache-affinity placement consults per-host chunk caches through the
  // image's manifest; the other policies ignore it.
  const image::ImageManifest* affinity =
      config_.placement == PlacementPolicy::kCacheAffinity
          ? &image.value()->manifest
          : nullptr;
  auto plan = partitioned
                  ? planner_.plan_components(request.requirement.m,
                                             image.value()->components,
                                             affinity)
                  : planner_.plan_allocation(request.service_name,
                                             request.requirement, affinity);
  if (!plan.ok()) {
    bus_.publish(engine_.now(), TraceKind::kRejected, "master",
                 request.service_name, plan.error().to_string());
    done(plan.error(), engine_.now());
    return;
  }

  // Admit: record the service and transition the lifecycle.
  ServiceRecord& live = services_.create(request.service_name);
  live.asp_id = request.credentials.asp_id;
  live.requirement = request.requirement;
  live.image_location = request.image_location;
  live.listen_port = partitioned ? image.value()->components.front().listen_port
                                 : image.value()->listen_port;
  live.customize_rootfs = config_.customize_rootfs;
  live.address_mode = config_.address_mode;
  live.components = image.value()->components;
  live.lifecycle = ServiceLifecycle(request.service_name);
  must(live.lifecycle.transition(ServiceState::kAdmitted));
  must(live.lifecycle.transition(ServiceState::kPriming));
  bus_.publish(engine_.now(), TraceKind::kAdmitted, "master",
               request.service_name,
               request.requirement.to_string() + " -> " +
                   std::to_string(plan.value().size()) + " node(s)");

  priming_.add_nodes(
      live, std::move(plan).value(), planner_.inflated_unit(live.requirement.m),
      [this, done](ServiceRecord* rec, const Status& primed,
                   sim::SimTime now) {
        // A priming service has no teardown edge, so its record outlives
        // the batch.
        SODA_ENSURES(rec != nullptr);
        if (primed.ok() && !rec->nodes.empty()) {
          finish_creation(*rec, done);
          return;
        }
        // All or nothing. Nodes can also all be gone without a failed
        // priming: each booted, then its host was declared down.
        const std::string name = rec->service_name;
        const std::string message = primed.ok()
                                        ? "every node was lost with its host"
                                        : primed.error().message;
        release_nodes(*rec);
        must(rec->lifecycle.transition(ServiceState::kFailed));
        services_.erase(name);
        bus_.publish(now, TraceKind::kPrimingFailed, "master", name, message);
        done(ApiError{ApiErrorCode::kPrimingFailed, message}, now);
      });
}

void SodaMaster::finish_creation(ServiceRecord& record, CreateCallback done) {
  // Deterministic backend order regardless of priming completion order.
  std::sort(record.nodes.begin(), record.nodes.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) {
              return a.node_name < b.node_name;
            });
  // The switch is colocated in the first virtual service node (§3.4).
  const NodeDescriptor& front = record.nodes.front();
  record.service_switch = std::make_unique<ServiceSwitch>(
      record.service_name, front.address, record.listen_port);
  for (const NodeDescriptor& node : record.nodes) {
    must(record.service_switch->add_backend(BackEndEntry{
        node.address, node.port, node.capacity_units, node.component}));
  }
  for (const auto& component : record.components) {
    if (!component.route_prefix.empty()) {
      record.service_switch->set_component_route(component.route_prefix,
                                                 component.name);
    }
  }
  must(record.lifecycle.transition(ServiceState::kRunning));
  bus_.publish(engine_.now(), TraceKind::kSwitchCreated, "master",
               record.service_name,
               front.address.to_string() + ":" +
                   std::to_string(record.listen_port));
  bus_.publish(engine_.now(), TraceKind::kServiceRunning, "master",
               record.service_name,
               std::to_string(record.nodes.size()) + " node(s)");
  recovery_.settle(record);

  ServiceCreationReply reply;
  reply.service_name = record.service_name;
  reply.nodes = record.nodes;
  reply.switch_address = front.address;
  reply.switch_port = record.listen_port;
  done(reply, engine_.now());
}

ApiResult<ServiceCreationReply> SodaMaster::describe_service(
    const std::string& name) const {
  const ServiceRecord* record = services_.find(name);
  if (record == nullptr || !record->service_switch) {
    return ApiError{ApiErrorCode::kNoSuchService, "no such service: " + name};
  }
  ServiceCreationReply reply;
  reply.service_name = record->service_name;
  reply.nodes = record->nodes;
  reply.switch_address = record->service_switch->listen_address();
  reply.switch_port = record->service_switch->listen_port();
  return reply;
}

Result<void, ApiError> SodaMaster::teardown_service(const std::string& name) {
  ServiceRecord* record = services_.find(name);
  if (record == nullptr) {
    return ApiError{ApiErrorCode::kNoSuchService, "no such service: " + name};
  }
  if (auto moved = record->lifecycle.transition(ServiceState::kTearingDown);
      !moved.ok()) {
    return ApiError{ApiErrorCode::kInvalidRequest, moved.error().message};
  }
  release_nodes(*record);
  must(record->lifecycle.transition(ServiceState::kGone));
  services_.erase(name);
  bus_.publish(engine_.now(), TraceKind::kTornDown, "master", name);
  return {};
}

const ServiceRecord* SodaMaster::find_service(std::string_view name) const {
  return services_.find(name);
}

ServiceSwitch* SodaMaster::find_switch(std::string_view name) {
  ServiceRecord* record = services_.find(name);
  return record == nullptr ? nullptr : record->service_switch.get();
}

std::vector<std::string> SodaMaster::service_names() const {
  std::vector<std::string> names;
  names.reserve(services_.size());
  services_.for_each([&](const std::string& name, const ServiceRecord&) {
    names.push_back(name);
  });
  return names;
}

void SodaMaster::resize_service(const std::string& name, int n_new,
                                ResizeCallback done) {
  SODA_EXPECTS(done != nullptr);
  ServiceRecord* found = services_.find(name);
  if (found == nullptr) {
    done(ApiError{ApiErrorCode::kNoSuchService, "no such service: " + name},
         engine_.now());
    return;
  }
  ServiceRecord& record = *found;
  if (!record.components.empty()) {
    done(ApiError{ApiErrorCode::kInvalidRequest,
                  "resizing a partitioned service is not supported; tear down "
                  "and recreate with new component units"},
         engine_.now());
    return;
  }
  if (n_new < 1) {
    done(ApiError{ApiErrorCode::kInvalidRequest, "n_new must be >= 1"},
         engine_.now());
    return;
  }
  if (auto moved = record.lifecycle.transition(ServiceState::kResizing);
      !moved.ok()) {
    done(ApiError{ApiErrorCode::kInvalidRequest, moved.error().message},
         engine_.now());
    return;
  }

  int current = 0;
  for (const Placement& p : record.placements) current += p.units;
  const host::ResourceVector unit = planner_.inflated_unit(record.requirement.m);

  auto reply_now = [&] {
    must(record.lifecycle.transition(ServiceState::kRunning));
    bus_.publish(engine_.now(), TraceKind::kResized, "master", name,
                 "n=" + std::to_string(n_new));
    record.requirement.n = n_new;
    done(ServiceResizingReply{name, record.nodes}, engine_.now());
  };

  if (n_new == current) {
    reply_now();
    return;
  }

  if (n_new < current) {
    // --- Shrink: shed units from the last placements first; never remove
    // the first node (the switch is colocated there). ---
    int to_shed = current - n_new;
    for (std::size_t idx = record.placements.size(); idx-- > 0 && to_shed > 0;) {
      Placement& placement = record.placements[idx];
      const bool is_switch_node = idx == 0;
      const int min_units = is_switch_node ? 1 : 0;
      const int shed = std::min(placement.units - min_units, to_shed);
      if (shed <= 0) continue;
      const int new_units = placement.units - shed;
      if (new_units == 0) {
        const auto desc = node_of(record, placement);
        must(record.service_switch->remove_backend(desc->address, desc->port));
        must(placement.daemon->teardown_node(placement.node_name));
        record.nodes.erase(desc);
        record.placements.erase(record.placements.begin() +
                                static_cast<std::ptrdiff_t>(idx));
      } else {
        resize_in_place(record, placement, new_units, unit);
      }
      to_shed -= shed;
    }
    SODA_ENSURES(to_shed == 0);
    reply_now();
    return;
  }

  // --- Grow: plan first (in-place extension, then new nodes), then apply. ---
  int to_add = n_new - current;
  std::vector<std::pair<std::size_t, int>> in_place;  // placement idx, extra
  for (std::size_t idx = 0; idx < record.placements.size() && to_add > 0; ++idx) {
    const Placement& placement = record.placements[idx];
    const int extra =
        std::min(units_that_fit(placement.daemon->available(), unit), to_add);
    if (extra >= 1) {
      in_place.emplace_back(idx, extra);
      to_add -= extra;
    }
  }
  std::vector<Placement> new_nodes;
  if (to_add > 0) {
    to_add = planner_.plan_growth(unit, to_add, record.placements, new_nodes);
  }
  if (to_add > 0) {
    must(record.lifecycle.transition(ServiceState::kRunning));
    done(ApiError{ApiErrorCode::kInsufficientResources,
                  "cannot grow " + name + " to " + std::to_string(n_new) +
                      " instance(s); short by " + std::to_string(to_add)},
         engine_.now());
    return;
  }

  // Apply the in-place extensions.
  for (const auto& [idx, extra] : in_place) {
    Placement& placement = record.placements[idx];
    resize_in_place(record, placement, placement.units + extra, unit);
  }
  if (new_nodes.empty()) {
    reply_now();
    return;
  }

  priming_.add_nodes(
      record, std::move(new_nodes), unit,
      [this, name, n_new, done](ServiceRecord* rec, const Status& primed,
                                sim::SimTime now) {
        if (rec == nullptr) {
          // Torn down mid-growth: an ok reply would reopen its billing.
          done(ApiError{ApiErrorCode::kNoSuchService,
                        "no such service: " + name},
               now);
          return;
        }
        must(rec->lifecycle.transition(ServiceState::kRunning));
        if (primed.ok()) rec->requirement.n = n_new;
        recovery_.settle(*rec);
        if (!primed.ok()) {
          done(ApiError{ApiErrorCode::kPrimingFailed, primed.error().message},
               now);
          return;
        }
        done(ServiceResizingReply{name, rec->nodes}, now);
      });
}

void SodaMaster::release_nodes(ServiceRecord& record) {
  for (const NodeDescriptor& node : record.nodes) {
    // A crashed host already released everything it carried; there is
    // nothing left to tear down there.
    SodaDaemon* daemon = daemon_for(node.host_name);
    if (daemon != nullptr && daemon->alive()) {
      must(daemon->teardown_node(node.node_name));
    }
  }
  record.nodes.clear();
}

}  // namespace soda::core
