#include "core/recovery.hpp"

#include <algorithm>

#include "core/master.hpp"
#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace soda::core {

RecoveryManager::RecoveryManager(sim::Engine& engine, ControlPlaneView view,
                                 const PlacementPlanner& planner,
                                 PrimingCoordinator& priming,
                                 ControlPlaneBus& bus)
    : engine_(engine), view_(view), planner_(planner), priming_(priming),
      bus_(bus) {}

void RecoveryManager::enable(FailureDetectorConfig config) {
  SODA_EXPECTS(config.heartbeat_interval > sim::SimTime::zero());
  SODA_EXPECTS(config.timeout >= config.heartbeat_interval);
  config_ = config;
  enabled_ = true;
  // Wheel geometry: one bucket per heartbeat interval, spanning a little
  // more than the timeout so any deadline armed "now" lands in a bucket
  // that has not been drained yet.
  const auto granularity = static_cast<std::uint64_t>(
      config_.heartbeat_interval.ns());
  const std::size_t buckets = static_cast<std::size_t>(
      static_cast<std::uint64_t>(config_.timeout.ns()) / granularity + 2);
  wheel_.assign(buckets, {});
  deadline_.assign(view_.daemons.size(), sim::SimTime::zero());
  in_wheel_.assign(view_.daemons.size(), 0);
  const sim::SimTime now = engine_.now();
  cursor_tick_ = static_cast<std::uint64_t>(now.ns()) / granularity;
  // Every registered host counts as heard-from now, so an idle HUP does not
  // mass-expire at the first check.
  for (const SodaDaemon* daemon : view_.daemons) {
    arm_host(daemon->host_id(), now);
  }
}

void RecoveryManager::start(FailureDetectorConfig config) {
  if (!enabled_) enable(config);
  if (running_) return;
  running_ = true;
  tick_next_ = engine_.now() + config_.heartbeat_interval;
  tick_event_ =
      engine_.schedule_after(config_.heartbeat_interval, [this] { tick(); });
}

void RecoveryManager::tick() {
  // Deliberately untagged: the detector sweep reads every host's freshness
  // and can trigger Master-wide recovery placement, so under a sharded
  // engine it must stay a serial barrier. The schedule-sequence position of
  // the barrier is preserved exactly (DESIGN.md §15).
  if (!running_) return;
  check_once();
  tick_next_ = engine_.now() + config_.heartbeat_interval;
  tick_event_ =
      engine_.schedule_after(config_.heartbeat_interval, [this] { tick(); });
}

void RecoveryManager::rearm_tick_at(sim::SimTime when) {
  SODA_EXPECTS(running_);
  tick_next_ = when;
  tick_event_ = engine_.schedule_at(when, [this] { tick(); });
}

template <class Ar>
void RecoveryManager::serialize(Ar& ar) {
  ar.begin_section("recovery");
  ar.boolean(enabled_);
  ar.boolean(running_);
  ar.check(enabled_ || !running_, "detector running but not enabled");
  ar.time(config_.heartbeat_interval);
  ar.time(config_.timeout);
  // An enabled detector indexes its arrays by HostId and divides by the
  // heartbeat interval and the wheel size.
  std::size_t hosts = deadline_.size();
  ar.count(hosts);
  if (enabled_) {
    ar.check(hosts == view_.daemons.size(), "detector host count mismatch");
    ar.check(config_.heartbeat_interval > sim::SimTime::zero() &&
                 config_.timeout >= config_.heartbeat_interval,
             "detector interval out of range");
  }
  if constexpr (Ar::kLoading) {
    deadline_.clear();
    in_wheel_.clear();
  }
  for (std::size_t i = 0; i < hosts && ar.ok(); ++i) {
    if constexpr (Ar::kLoading) deadline_.emplace_back();
    ar.time(deadline_[i]);
  }
  for (std::size_t i = 0; i < hosts && ar.ok(); ++i) {
    if constexpr (Ar::kLoading) in_wheel_.emplace_back();
    ar.u8(in_wheel_[i]);
  }
  ar.seq(wheel_, [&](auto& bucket) {
    ar.seq(bucket, [&](auto& id) { ar.u32(id, snapshot::Below{hosts}); });
  });
  if (enabled_) ar.check(!wheel_.empty(), "detector wheel has no buckets");
  ar.u64(cursor_tick_);
  ar.u64(host_failures_);
  ar.u64(placements_lost_);
  ar.u64(recoveries_);
  ar.end_section();
}
template void RecoveryManager::serialize(snapshot::Writer&);
template void RecoveryManager::serialize(snapshot::Reader&);

void RecoveryManager::on_host_registered(SodaDaemon& daemon) {
  if (!enabled_) return;
  const HostId id = daemon.host_id();
  if (id.index() >= deadline_.size()) {
    deadline_.resize(id.index() + 1, sim::SimTime::zero());
    in_wheel_.resize(id.index() + 1, 0);
  }
  arm_host(id, engine_.now());
}

std::size_t RecoveryManager::bucket_of(sim::SimTime deadline) const noexcept {
  const auto granularity = static_cast<std::uint64_t>(
      config_.heartbeat_interval.ns());
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(deadline.ns()) / granularity) %
      wheel_.size());
}

void RecoveryManager::arm_host(HostId id, sim::SimTime now) {
  deadline_[id.index()] = now + config_.timeout;
  if (in_wheel_[id.index()] != 0) return;  // bucket hint stays; deadline moved
  wheel_[bucket_of(deadline_[id.index()])].push_back(id.value);
  in_wheel_[id.index()] = 1;
}

void RecoveryManager::on_heartbeat(SodaDaemon& daemon, sim::SimTime now) {
  if (enabled_) arm_host(daemon.host_id(), now);
  if (view_.down_hosts.test(daemon.host_id())) handle_host_recovery(daemon);
}

std::size_t RecoveryManager::check_once() {
  SODA_EXPECTS(enabled_);
  const sim::SimTime now = engine_.now();
  const auto granularity = static_cast<std::uint64_t>(
      config_.heartbeat_interval.ns());
  const std::uint64_t now_tick = static_cast<std::uint64_t>(now.ns()) /
                                 granularity;
  expired_.clear();
  while (cursor_tick_ <= now_tick) {
    std::vector<std::uint32_t>& bucket = wheel_[static_cast<std::size_t>(
        cursor_tick_ % wheel_.size())];
    drain_.clear();
    drain_.swap(bucket);  // capacities ping-pong; steady state allocates none
    for (const std::uint32_t raw : drain_) {
      const HostId id{raw};
      in_wheel_[id.index()] = 0;
      if (view_.down_hosts.test(id)) continue;  // unhung until it recovers
      const sim::SimTime deadline = deadline_[id.index()];
      if (deadline <= now) {
        expired_.push_back(raw);
        continue;
      }
      // Heard from since it was hung: reinsert at the true deadline (never
      // into a tick this pass already drained).
      std::uint64_t tick = static_cast<std::uint64_t>(deadline.ns()) /
                           granularity;
      if (tick <= cursor_tick_) tick = cursor_tick_ + 1;
      wheel_[static_cast<std::size_t>(tick % wheel_.size())].push_back(raw);
      in_wheel_[id.index()] = 1;
    }
    ++cursor_tick_;
  }
  // Registration order (== HostId order), exactly how the seed's linear scan
  // declared deaths — the recovery trace is pinned to it.
  std::sort(expired_.begin(), expired_.end());
  for (const std::uint32_t raw : expired_) {
    handle_host_failure(*view_.daemons[HostId{raw}.index()]);
  }
  return expired_.size();
}

std::size_t RecoveryManager::poll_once() {
  std::size_t changed = 0;
  for (SodaDaemon* daemon : view_.daemons) {
    const bool marked_down = view_.down_hosts.test(daemon->host_id());
    if (!daemon->alive() && !marked_down) {
      handle_host_failure(*daemon);
      ++changed;
    } else if (daemon->alive() && marked_down) {
      handle_host_recovery(*daemon);
      ++changed;
    }
  }
  return changed;
}

void RecoveryManager::handle_host_failure(SodaDaemon& daemon) {
  const HostId id = daemon.host_id();
  if (view_.down_hosts.test(id)) return;
  view_.down_hosts.set(id);
  const std::string& host = daemon.host_name();
  ++host_failures_;
  bus_.publish(engine_.now(), TraceKind::kHostDown, "master", host);
  // The crashed host's chunks are unreachable: purge them from the registry
  // so peers stop selecting it and fail over their in-flight transfers.
  view_.chunk_registry.remove_host(daemon.distributor().registry_slot());

  std::vector<std::string> degraded;
  view_.services.for_each([&](const std::string& name, ServiceRecord& record) {
    bool lost_any = false;
    int units_lost = 0;
    for (auto p_it = record.placements.begin();
         p_it != record.placements.end();) {
      if (p_it->daemon != &daemon) {
        ++p_it;
        continue;
      }
      lost_any = true;
      units_lost += p_it->units;
      ++placements_lost_;
      bus_.publish(engine_.now(), TraceKind::kNodeLost, "master",
                   p_it->node_name, "host " + host + " down");
      auto d_it = std::find_if(record.nodes.begin(), record.nodes.end(),
                               [&](const NodeDescriptor& d) {
                                 return d.node_name == p_it->node_name;
                               });
      if (d_it != record.nodes.end()) {
        if (record.service_switch) {
          // The backend may still be mid-priming and absent from the switch.
          (void)record.service_switch->remove_backend(d_it->address,
                                                      d_it->port);
        }
        record.nodes.erase(d_it);
      }
      p_it = record.placements.erase(p_it);
    }
    if (!lost_any) return;
    maybe_rehome_switch(record);
    if (record.lifecycle.state() == ServiceState::kRunning) {
      must(record.lifecycle.transition(ServiceState::kDegraded));
      bus_.publish(engine_.now(), TraceKind::kDegraded, "master", name,
                   std::to_string(units_lost) + " unit(s) lost with " + host);
    }
    if (record.lifecycle.state() == ServiceState::kDegraded) {
      degraded.push_back(name);
    }
  });
  for (const std::string& name : degraded) attempt_recovery(name);
}

void RecoveryManager::handle_host_recovery(SodaDaemon& daemon) {
  const HostId id = daemon.host_id();
  if (!view_.down_hosts.test(id)) return;
  view_.down_hosts.reset(id);
  if (enabled_) arm_host(id, engine_.now());
  bus_.publish(engine_.now(), TraceKind::kHostUp, "master", daemon.host_name());
  // The returned capacity may complete recoveries that were stuck short.
  retry_recoveries();
}

std::size_t RecoveryManager::retry_recoveries() {
  std::vector<std::string> degraded;
  view_.services.for_each(
      [&](const std::string& name, const ServiceRecord& record) {
        if (record.lifecycle.state() == ServiceState::kDegraded) {
          degraded.push_back(name);
        }
      });
  for (const std::string& name : degraded) attempt_recovery(name);
  return degraded.size();
}

void RecoveryManager::maybe_rehome_switch(ServiceRecord& record) {
  if (!record.service_switch || record.nodes.empty()) return;
  const net::Ipv4Address listen = record.service_switch->listen_address();
  for (const NodeDescriptor& node : record.nodes) {
    if (node.address == listen) return;  // colocation node is still alive
  }
  // Deterministic choice: the surviving node with the smallest name.
  const NodeDescriptor* front = &record.nodes.front();
  for (const NodeDescriptor& node : record.nodes) {
    if (node.node_name < front->node_name) front = &node;
  }
  record.service_switch->rehome(front->address, record.listen_port);
  bus_.publish(engine_.now(), TraceKind::kSwitchCreated, "master",
               record.service_name,
               "rehomed to " + front->address.to_string() + ":" +
                   std::to_string(record.listen_port));
}

void RecoveryManager::settle(ServiceRecord& record) {
  maybe_rehome_switch(record);
  match_state_to_capacity(record);
}

void RecoveryManager::match_state_to_capacity(ServiceRecord& record) {
  // Only booted placements count: a placement exists from the moment a
  // batch plans it, but its capacity is real only once the node descriptor
  // lands. Declaring kRunning on an in-flight placement strands the service
  // at reduced capacity if that priming later fails.
  const auto booted = [&](const Placement& p) {
    return std::any_of(record.nodes.begin(), record.nodes.end(),
                       [&](const NodeDescriptor& d) {
                         return d.node_name == p.node_name;
                       });
  };
  int have = 0;
  for (const Placement& p : record.placements) {
    if (booted(p)) have += p.units;
  }
  bool restored = have >= record.requirement.n;
  if (!record.components.empty()) {
    restored = std::all_of(
        record.components.begin(), record.components.end(),
        [&](const image::ServiceComponent& component) {
          return std::any_of(record.placements.begin(),
                             record.placements.end(),
                             [&](const Placement& p) {
                               return p.component == component.name &&
                                      booted(p);
                             });
        });
  }
  const ServiceState state = record.lifecycle.state();
  if (restored && state == ServiceState::kDegraded) {
    must(record.lifecycle.transition(ServiceState::kRunning));
    ++recoveries_;
    bus_.publish(engine_.now(), TraceKind::kRecovered, "master",
                 record.service_name,
                 std::to_string(record.nodes.size()) + " node(s)");
  } else if (!restored && state == ServiceState::kRunning) {
    // A host declared down while a creation or resize batch primed took
    // capacity the batch could not count on.
    must(record.lifecycle.transition(ServiceState::kDegraded));
    bus_.publish(engine_.now(), TraceKind::kDegraded, "master",
                 record.service_name,
                 std::to_string(have) + "/" +
                     std::to_string(record.requirement.n) +
                     " unit(s) booted");
  }
}

void RecoveryManager::attempt_recovery(const std::string& service_name) {
  ServiceRecord* found = view_.services.find(service_name);
  if (found == nullptr) return;
  ServiceRecord& record = *found;
  if (record.lifecycle.state() != ServiceState::kDegraded ||
      !record.service_switch) {
    return;
  }

  // Re-run admission for the lost capacity on the surviving hosts.
  std::vector<Placement> plan;
  if (!record.components.empty()) {
    std::vector<image::ServiceComponent> lost;
    for (const auto& component : record.components) {
      if (std::none_of(record.placements.begin(), record.placements.end(),
                       [&](const Placement& p) {
                         return p.component == component.name;
                       })) {
        lost.push_back(component);
      }
    }
    if (lost.empty()) {
      match_state_to_capacity(record);
      return;
    }
    auto planned = planner_.plan_components(record.requirement.m, lost);
    if (!planned.ok()) return;  // no host fits: stay degraded
    plan = std::move(planned).value();
  } else {
    int have = 0;
    for (const Placement& p : record.placements) have += p.units;
    const int missing = record.requirement.n - have;
    if (missing <= 0) {
      match_state_to_capacity(record);
      return;
    }
    planner_.plan_growth(planner_.inflated_unit(record.requirement.m), missing,
                         record.placements, plan);
    // Whatever fits is re-created now; a later host-up retries the rest.
    if (plan.empty()) return;
  }

  util::global_logger().info(
      "master", "recovering " + service_name + ": re-priming " +
                    std::to_string(plan.size()) + " node(s)");
  priming_.add_nodes(
      record, std::move(plan), planner_.inflated_unit(record.requirement.m),
      [this](ServiceRecord* rec, const Status& primed, sim::SimTime) {
        if (rec == nullptr) return;  // torn down meanwhile
        if (!primed.ok()) {
          // The service stays degraded with whatever did come up.
          util::global_logger().warn("master", rec->service_name +
                                                   " recovery incomplete: " +
                                                   primed.error().message);
        }
        settle(*rec);
      });
}

}  // namespace soda::core
