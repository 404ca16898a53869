#include "workload/siege.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace soda::workload {

sim::SimTime switch_forward_cost(double cpu_ghz, vm::ExecMode mode) noexcept {
  static const vm::SyscallCostModel model;
  const std::uint64_t cycles =
      2 * model.cycles(vm::Syscall::kSocketRecv, mode) +
      2 * model.cycles(vm::Syscall::kSocketSend, mode) +
      50'000;  // user-mode parse + policy pick
  return sim::SimTime::seconds(static_cast<double>(cycles) / (cpu_ghz * 1e9));
}

SiegeClient::SiegeClient(sim::Engine& engine, net::FlowNetwork& network,
                         net::NodeId client, core::ServiceSwitch* service_switch,
                         std::optional<net::NodeId> switch_node,
                         SiegeConfig config)
    : engine_(engine),
      network_(network),
      client_(client),
      switch_(service_switch),
      switch_node_(switch_node),
      config_(config) {
  SODA_EXPECTS(config_.max_requests >= 1);
  SODA_EXPECTS(switch_ == nullptr || switch_node_.has_value());
  if (config_.record_samples) stats_.emplace();
}

SiegeClient::Backend* SiegeClient::find_backend(std::uint32_t address) noexcept {
  auto it = std::lower_bound(backends_.begin(), backends_.end(), address,
                             [](const Backend& b, std::uint32_t key) {
                               return b.address < key;
                             });
  if (it == backends_.end() || it->address != address) return nullptr;
  return &*it;
}

const SiegeClient::Backend* SiegeClient::find_backend(
    std::uint32_t address) const noexcept {
  return const_cast<SiegeClient*>(this)->find_backend(address);
}

void SiegeClient::register_backend(net::Ipv4Address address,
                                   WebContentServer* server,
                                   net::NodeId server_node) {
  SODA_EXPECTS(server != nullptr);
  if (Backend* existing = find_backend(address.value())) {
    existing->server = server;
    existing->node = server_node;
    return;
  }
  Backend backend;
  backend.address = address.value();
  backend.server = server;
  backend.node = server_node;
  const auto at = std::lower_bound(backends_.begin(), backends_.end(),
                                   backend.address,
                                   [](const Backend& b, std::uint32_t key) {
                                     return b.address < key;
                                   });
  backends_.insert(at, std::move(backend));
}

void SiegeClient::start() {
  SODA_EXPECTS(!backends_.empty());
  const int workers = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(config_.concurrency), config_.max_requests));
  for (int i = 0; i < workers; ++i) issue_request();
}

void SiegeClient::issue_request() {
  if (issued_ >= config_.max_requests) return;
  ++issued_;
  begin_request(engine_.now());
}

void SiegeClient::inject(sim::SimTime scheduled) {
  external_drive_ = true;
  ++issued_;
  if (config_.max_in_flight > 0 && in_flight_ >= config_.max_in_flight) {
    backlog_.push_back(scheduled);
    return;
  }
  begin_request(scheduled);
}

void SiegeClient::pump_backlog() {
  if (backlog_.empty()) return;
  if (config_.max_in_flight > 0 && in_flight_ >= config_.max_in_flight) return;
  const sim::SimTime scheduled = backlog_.front();
  backlog_.pop_front();
  begin_request(scheduled);
}

void SiegeClient::finish_refused(sim::SimTime started) {
  ++refused_;
  if (stats_) stats_->record_error(engine_.now());
  if (observer_) {
    RequestOutcome outcome;
    outcome.scheduled = started;
    outcome.finished = engine_.now();
    outcome.latency_s = (outcome.finished - started).to_seconds();
    outcome.refused = true;
    observer_(outcome);
  }
  --in_flight_;
  pump_backlog();
  maybe_continue();
}

void SiegeClient::begin_request(sim::SimTime started) {
  ++in_flight_;

  if (switch_ == nullptr) {
    // Direct scenario: one backend, no switch hop.
    SODA_EXPECTS(backends_.size() == 1);
    const std::uint32_t key = backends_.front().address;
    WebContentServer* server = backends_.front().server;
    must(network_.start_flow(client_, backends_.front().node, kRequestBytes,
                             [this, key, server, started](sim::SimTime) {
                               dispatch_to(
                                   core::BackEndEntry{net::Ipv4Address(key), 0,
                                                      1, {}},
                                   server, started);
                             }));
    return;
  }

  // Hop 1: client -> switch.
  must(network_.start_flow(client_, *switch_node_, kRequestBytes,
                           [this, started](sim::SimTime) {
    // Switch CPU work, then hop 2: switch -> chosen backend.
    engine_.schedule_after(config_.switch_delay, [this, started] {
      auto routed = config_.target.empty()
                        ? switch_->route()
                        : switch_->route_target(config_.target);
      if (!routed.ok()) {
        finish_refused(started);
        return;
      }
      core::BackEndEntry entry = routed.value();
      Backend* backend = find_backend(entry.address.value());
      if (!backend) {
        // Configuration names a backend we have no server object for.
        switch_->on_request_complete(entry.address, entry.port);
        finish_refused(started);
        return;
      }
      if (backend->server->down()) {
        // The routed backend died after the health monitor's last probe.
        // One-shot failover: report the failure and retry among the
        // remaining healthy backends; a second dead pick is refused.
        const std::string_view component =
            config_.target.empty() ? std::string_view()
                                   : switch_->component_for(config_.target);
        auto retried = switch_->route_failover(entry, component);
        if (!retried.ok()) {
          // route_failover already released the dead backend's routed
          // connection (see the least-conn regression in traffic_test).
          finish_refused(started);
          return;
        }
        entry = retried.value();
        backend = find_backend(entry.address.value());
        if (!backend || backend->server->down()) {
          switch_->on_request_complete(entry.address, entry.port);
          finish_refused(started);
          return;
        }
        ++failed_over_;
      }
      WebContentServer* server = backend->server;
      must(network_.start_flow(*switch_node_, backend->node, kRequestBytes,
                               [this, entry, server, started](sim::SimTime) {
                                 dispatch_to(entry, server, started);
                               }));
    });
  }));
}

void SiegeClient::dispatch_to(const core::BackEndEntry& entry,
                              WebContentServer* server, sim::SimTime started) {
  server->handle_request(
      client_, config_.response_bytes,
      [this, entry, started](sim::SimTime delivered) {
        on_response(entry, started, delivered);
      });
}

void SiegeClient::on_response(const core::BackEndEntry& entry,
                              sim::SimTime started, sim::SimTime delivered) {
  const double rt = (delivered - started).to_seconds();
  if (stats_) stats_->record_latency(delivered, rt);
  if (Backend* backend = find_backend(entry.address.value())) {
    backend->latency.add(rt);
  }
  ++completed_;
  if (switch_) {
    switch_->on_request_complete(entry.address, entry.port);
    switch_->report_response_time(entry.address, entry.port, rt);
  }
  if (observer_) {
    RequestOutcome outcome;
    outcome.scheduled = started;
    outcome.finished = delivered;
    outcome.latency_s = rt;
    outcome.backend = entry.address;
    observer_(outcome);
  }
  --in_flight_;
  pump_backlog();
  maybe_continue();
}

void SiegeClient::maybe_continue() {
  // Externally driven (inject): the TrafficEngine owns the arrival process;
  // a completion must never spawn a closed-loop follow-up request.
  if (external_drive_) return;
  if (issued_ >= config_.max_requests) return;
  engine_.schedule_after(config_.think_time, [this] { issue_request(); });
}

const sim::StreamingStats& SiegeClient::stats() const noexcept {
  SODA_EXPECTS(stats_.has_value());
  return *stats_;
}

sim::RunningStats SiegeClient::backend_latency(net::Ipv4Address address) const {
  const Backend* backend = find_backend(address.value());
  return backend ? backend->latency : sim::RunningStats{};
}

}  // namespace soda::workload
