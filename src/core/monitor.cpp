#include "core/monitor.hpp"

#include "util/contract.hpp"

namespace soda::core {

namespace {

/// Resolves the live node object behind a descriptor, or nullptr when the
/// host or node is gone.
vm::VirtualServiceNode* resolve_node(SodaMaster& master,
                                     const NodeDescriptor& descriptor) {
  SodaDaemon* daemon = master.daemon_for(descriptor.host_name);
  return daemon == nullptr ? nullptr : daemon->find_node(descriptor.node_name);
}

}  // namespace

Result<ServiceStatusReport> collect_service_status(
    SodaMaster& master, const std::string& service_name) {
  const ServiceRecord* record = master.find_service(service_name);
  if (!record) return Error{"no such service: " + service_name};

  ServiceStatusReport report;
  report.service_name = service_name;
  report.state = record->lifecycle.state();
  ServiceSwitch* service_switch = master.find_switch(service_name);
  if (service_switch) {
    report.requests_routed = service_switch->requests_routed();
    report.requests_refused = service_switch->requests_refused();
  }
  for (const NodeDescriptor& descriptor : record->nodes) {
    NodeStatus status;
    status.node_name = descriptor.node_name;
    status.host_name = descriptor.host_name;
    status.address = descriptor.address;
    status.port = descriptor.port;
    status.capacity_units = descriptor.capacity_units;
    if (const vm::VirtualServiceNode* node = resolve_node(master, descriptor)) {
      status.vm_state = node->uml().state();
      status.process_count = node->uml().processes().count();
      status.memory_used_mb = node->uml().memory_used_mb();
      status.memory_cap_mb = node->uml().memory_cap_mb();
    }
    if (service_switch) {
      status.requests_routed =
          service_switch->routed_to(descriptor.address, descriptor.port);
      for (const BackEndState& backend : service_switch->backends()) {
        if (backend.entry.address == descriptor.address &&
            backend.entry.port == descriptor.port) {
          status.healthy_in_switch = backend.healthy;
        }
      }
    }
    report.nodes.push_back(std::move(status));
  }
  return report;
}

HealthMonitor::HealthMonitor(sim::Engine& engine, SodaMaster& master,
                             sim::SimTime interval)
    : engine_(engine), master_(master), interval_(interval) {
  SODA_EXPECTS(interval > sim::SimTime::zero());
  // A passive bus tap: the monitor observes the control plane it probes
  // (host-down/up, recoveries) without polling the Master for them.
  subscription_ = master_.bus().subscribe(
      [this](const ControlPlaneEvent&) { ++bus_events_seen_; });
}

HealthMonitor::~HealthMonitor() { master_.bus().unsubscribe(subscription_); }

void HealthMonitor::start() {
  if (running_) return;
  running_ = true;
  tick_next_ = engine_.now() + interval_;
  tick_event_ = engine_.schedule_after(interval_, [this] { tick(); });
}

void HealthMonitor::tick() {
  // Deliberately untagged (a serial barrier under a sharded engine): the
  // probe walks the whole service table and flips switch health fleet-wide.
  if (!running_) return;
  probe_once();
  tick_next_ = engine_.now() + interval_;
  tick_event_ = engine_.schedule_after(interval_, [this] { tick(); });
}

void HealthMonitor::rearm_tick_at(sim::SimTime when) {
  SODA_EXPECTS(running_);
  tick_next_ = when;
  tick_event_ = engine_.schedule_at(when, [this] { tick(); });
}

std::size_t HealthMonitor::probe_once() {
  ++probes_;
  std::size_t transitions = 0;
  // Straight over the service table — no per-probe name-vector churn.
  master_.services().for_each([&](const std::string&, ServiceRecord& record) {
    ServiceSwitch* service_switch = record.service_switch.get();
    if (!service_switch) return;
    for (const NodeDescriptor& descriptor : record.nodes) {
      vm::VirtualServiceNode* node = resolve_node(master_, descriptor);
      const bool alive = node != nullptr && node->running();
      bool currently_healthy = true;
      for (const BackEndState& backend : service_switch->backends()) {
        if (backend.entry.address == descriptor.address &&
            backend.entry.port == descriptor.port) {
          currently_healthy = backend.healthy;
        }
      }
      if (alive != currently_healthy) {
        must(service_switch->set_backend_health(descriptor.address,
                                                descriptor.port, alive));
        ++transitions;
        if (alive) {
          ++to_healthy_;
        } else {
          ++to_unhealthy_;
        }
        master_.bus().publish(engine_.now(), TraceKind::kHealthChanged,
                              "monitor", descriptor.node_name,
                              alive ? "healthy" : "unhealthy");
      }
    }
  });
  return transitions;
}

}  // namespace soda::core
