#include "chaos/runner.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>

#include "chaos/checkpoint.hpp"
#include "chaos/dsl.hpp"
#include "core/daemon.hpp"
#include "core/faults.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "image/image.hpp"
#include "util/fnv.hpp"
#include "vm/vsnode.hpp"

namespace soda::chaos {

namespace {

// --- end-state digest (FNV-1a 64) ----------------------------------------

void mix(std::uint64_t& h, std::uint64_t value) {
  h = util::fnv1a_word(h, value);
}

void mix(std::uint64_t& h, double value) {
  mix(h, std::bit_cast<std::uint64_t>(value));
}

void mix(std::uint64_t& h, const std::string& value) {
  // The trailing multiply delimits, so "ab"+"c" != "a"+"bc".
  h = util::fnv1a(h, value) * util::kFnvPrime;
}

// --- open-loop load driver -------------------------------------------------

/// One service's open-loop arrival process. A slimmed-down TrafficEngine
/// stream that routes through the chaos failover path: the trace keeps
/// offering load at its own rate while hosts crash underneath, and every
/// arrival that lands on a dead backend exercises route_failover exactly
/// like the SiegeClient would.
class LoadDriver {
 public:
  LoadDriver(core::Hup& hup, core::ServiceSwitch& sw,
             const core::ServiceRecord& record,
             workload::TrafficTrace trace, std::uint64_t seed,
             double horizon_s, InvariantChecker* checker)
      : hup_(hup),
        sw_(sw),
        record_(record),
        trace_(std::move(trace)),
        rng_(seed),
        horizon_s_(horizon_s),
        checker_(checker) {}

  void start() {
    t0_ = hup_.engine().now();
    schedule_next();
  }

  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }
  [[nodiscard]] const core::ServiceSwitch& service_switch() const noexcept {
    return sw_;
  }

 private:
  void schedule_next() {
    sim::Engine& engine = hup_.engine();
    const double offset = (engine.now() - t0_).to_seconds();
    if (offset >= trace_.duration_s() || offset >= horizon_s_) return;
    const double rate = std::max(trace_.rate_at(offset), 1e-3);
    engine.schedule_after(sim::SimTime::seconds(rng_.exponential(1.0 / rate)),
                          [this] {
                            const double at =
                                (hup_.engine().now() - t0_).to_seconds();
                            if (at < trace_.duration_s() && at < horizon_s_) {
                              arrive();
                            }
                            schedule_next();
                          });
  }

  void arrive() {
    ++attempts_;
    auto routed = sw_.route();
    if (!routed.ok()) return;
    core::BackEndEntry entry = routed.value();
    if (checker_) checker_->check_routed(sw_, entry);
    // A backend whose host crashed an instant ago is still routable until
    // the detector or monitor notices — that is the failover path, not an
    // invariant violation. Each report_backend_failure marks the backend
    // unhealthy, so the loop strictly shrinks the routable set.
    while (!backend_alive(entry)) {
      auto re = sw_.route_failover(entry);
      ++attempts_;
      ++failovers_;
      if (!re.ok()) return;
      entry = re.value();
      if (checker_) checker_->check_routed(sw_, entry);
    }
    const double service_s = 0.0005 + rng_.uniform() * 0.002;
    const core::BackEndEntry held = entry;
    hup_.engine().schedule_after(
        sim::SimTime::seconds(service_s), [this, held, service_s] {
          sw_.on_request_complete(held.address, held.port);
          sw_.report_response_time(held.address, held.port, service_s);
          ++completed_;
        });
  }

  [[nodiscard]] bool backend_alive(const core::BackEndEntry& entry) {
    for (const core::NodeDescriptor& node : record_.nodes) {
      if (!(node.address == entry.address && node.port == entry.port)) {
        continue;
      }
      core::SodaDaemon* daemon = hup_.find_daemon(node.host_name);
      if (!daemon || !daemon->alive()) return false;
      const vm::VirtualServiceNode* vsn = daemon->find_node(node.node_name);
      return vsn && vsn->running();
    }
    return false;  // no longer a node of this service
  }

  core::Hup& hup_;
  core::ServiceSwitch& sw_;
  const core::ServiceRecord& record_;  // deque slot: address is stable
  workload::TrafficTrace trace_;
  sim::Rng rng_;
  sim::SimTime t0_;
  double horizon_s_ = 0;
  InvariantChecker* checker_ = nullptr;
  std::uint64_t attempts_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failovers_ = 0;
};

std::uint64_t end_state_digest(core::Hup& hup, const ChaosReport& report,
                               const std::vector<std::unique_ptr<LoadDriver>>&
                                   drivers) {
  std::uint64_t h = util::kFnvBasisSnapshot;
  for (const core::ControlPlaneEvent& event : hup.trace().events()) {
    mix(h, event.at.to_seconds());
    mix(h, static_cast<std::uint64_t>(event.kind));
    mix(h, event.actor);
    mix(h, event.subject);
    mix(h, event.detail);
  }
  const core::MetricsRegistry& metrics = hup.master().metrics();
  for (const std::string& name : metrics.names()) {
    mix(h, name);
    mix(h, metrics.value(name));
  }
  hup.master().services().for_each([&](const std::string& name,
                                       const core::ServiceRecord& record) {
    mix(h, name);
    mix(h, std::string(core::service_state_name(record.lifecycle.state())));
    for (const core::NodeDescriptor& node : record.nodes) {
      mix(h, node.node_name);
      mix(h, node.host_name);
      mix(h, node.address.to_string());
      mix(h, static_cast<std::uint64_t>(node.port));
      mix(h, static_cast<std::uint64_t>(node.capacity_units));
    }
    for (const core::Placement& placement : record.placements) {
      mix(h, placement.node_name);
      mix(h, static_cast<std::uint64_t>(placement.units));
    }
    if (record.service_switch) {
      mix(h, record.service_switch->requests_routed());
      mix(h, record.service_switch->requests_refused());
      mix(h, record.service_switch->failovers());
      mix(h, static_cast<std::uint64_t>(
                 record.service_switch->backends().size()));
    }
  });
  for (const core::SodaDaemon* daemon : hup.master().daemons()) {
    const host::HupHost& host = daemon->host();
    mix(h, static_cast<std::uint64_t>(daemon->alive() ? 1 : 0));
    mix(h, host.reserved().cpu_mhz);
    mix(h, static_cast<std::uint64_t>(host.reserved().memory_mb));
    mix(h, static_cast<std::uint64_t>(host.reserved().disk_mb));
    mix(h, host.reserved().bandwidth_mbps);
    mix(h, static_cast<std::uint64_t>(host.slices().size()));
  }
  mix(h, report.faults_injected);
  for (const auto& driver : drivers) {
    mix(h, driver->attempts());
    mix(h, driver->completed());
  }
  return h;
}

}  // namespace

ChaosReport run_scenario(const ChaosSpec& spec, const ChaosOptions& options) {
  ChaosReport report;
  if (auto valid = validate_spec(spec); !valid.ok()) {
    report.setup_error = valid.error().message;
    return report;
  }

  const std::string from = !options.from_checkpoint.empty()
                               ? options.from_checkpoint
                               : spec.snapshot;

  core::MasterConfig config;
  config.placement = spec.placement;
  core::Hup hup(config);
  // Sharded execution covers the whole scenario — build, faults, recovery —
  // not just the steady state; every phase must digest identically.
  hup.engine().enable_sharding(options.shard_workers);
  std::optional<InvariantChecker> checker;
  InvariantChecker::Options checker_options;
  checker_options.synthetic_violation_on_host_down =
      options.synthetic_violation_on_host_down;

  std::size_t attempts = 0;
  if (!from.empty()) {
    // Warm start: the expensive build phase (hosts, priming, switch
    // configuration, detector arming) is restored wholesale from the
    // checkpointed T0 world; only the fault plan and traffic are new.
    auto checkpoint = read_chaos_checkpoint(from);
    if (!checkpoint.ok()) {
      report.setup_error = checkpoint.error().message;
      return report;
    }
    if (auto compat = base_compatible(checkpoint.value().base, spec);
        !compat.ok()) {
      report.setup_error = compat.error().message;
      return report;
    }
    if (auto loaded = hup.load_snapshot(checkpoint.value().world);
        !loaded.ok()) {
      report.setup_error = loaded.error().message;
      return report;
    }
    report.warm_started = true;
    attempts = spec.services.size();
    for (const ChaosService& service : spec.services) {
      if (hup.master().find_service(service.name) != nullptr) {
        ++report.services_running;
      } else {
        ++report.creations_rejected;
      }
    }
    // The checker can only subscribe now — the build-phase bus events it
    // would have observed are already folded into the restored state.
    if (options.check_invariants) {
      checker.emplace(hup, std::move(checker_options));
    }
  } else {
    for (int i = 0; i < static_cast<int>(spec.hosts.size()); ++i) {
      host::HostSpec host_spec = spec.hosts[static_cast<std::size_t>(i)].big
                                     ? host::HostSpec::seattle()
                                     : host::HostSpec::tacoma();
      host_spec.name = chaos_host_name(spec, i);
      hup.add_host(
          host_spec,
          net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i + 1), 0), 16);
    }

    // Observe creations too: the checker subscribes before the first event.
    if (options.check_invariants) {
      checker.emplace(hup, std::move(checker_options));
    }

    if (!spec.services.empty()) {
      image::ImageRepository& repo = hup.add_repository("asp-repo");
      hup.agent().register_asp("chaos", "key");
      auto location = repo.publish(image::web_content_image(
          static_cast<std::int64_t>(spec.content_mb) * 1024 * 1024));
      if (!location.ok()) {
        report.setup_error = location.error().message;
        return report;
      }
      for (const ChaosService& service : spec.services) {
        core::ServiceCreationRequest request;
        request.credentials = {"chaos", "key"};
        request.service_name = service.name;
        request.image_location = location.value();
        // The scenario DSL's `create` unit (Table 1's example machine), so a
        // rendered reproducer means exactly what this runner executed.
        request.requirement = {service.units, host::MachineConfig{}};
        bool rejected = false;
        hup.agent().service_creation(
            request, [&rejected](core::ApiResult<core::ServiceCreationReply>
                                     reply,
                                 sim::SimTime) {
              if (!reply.ok()) rejected = true;
            });
        hup.engine().run();
        ++attempts;
        if (rejected) {
          ++report.creations_rejected;
          continue;
        }
        ++report.services_running;
        core::ServiceSwitch* sw = hup.master().find_switch(service.name);
        auto policy = core::make_switch_policy_by_name(
            service.policy,
            service.policy_seed ? service.policy_seed : 0x50DA);
        if (!policy.ok()) {
          report.setup_error = policy.error().message;
          return report;
        }
        if (sw) sw->set_policy(std::move(policy).value());
      }
    }

    hup.enable_failure_detection();
  }
  const sim::SimTime t0 = hup.engine().now();

  if (!options.save_checkpoint.empty()) {
    // T0 is the one quiesce point every scenario passes through: the only
    // pending events are the re-armable heartbeat/detector timers.
    auto bytes = hup.save_snapshot();
    if (!bytes.ok()) {
      report.setup_error = bytes.error().message;
      return report;
    }
    if (auto written = write_chaos_checkpoint(
            options.save_checkpoint, spec, std::move(bytes).value());
        !written.ok()) {
      report.setup_error = written.error().message;
      return report;
    }
  }

  core::FaultPlan plan;
  for (const ChaosFault& fault : spec.faults) {
    core::FaultEvent event;
    event.at = t0 + sim::SimTime::seconds(fault.at_s);
    event.kind = fault.kind;
    event.severity = fault.severity;
    if (fault.kind == core::FaultKind::kGuestCrash) {
      // The target service may have been rejected at admission — the
      // generator cannot know, so nonexistent nodes are skipped, not
      // errors.
      bool exists = false;
      for (core::SodaDaemon* daemon : hup.master().daemons()) {
        if (daemon->find_node(fault.node)) exists = true;
      }
      if (!exists) continue;
      event.target = fault.node;
    } else {
      event.target = chaos_host_name(spec, fault.host);
    }
    plan.add(std::move(event));
  }
  core::FaultInjector injector(hup);
  if (auto armed = injector.arm(plan); !armed.ok()) {
    report.setup_error = armed.error().message;
    return report;
  }

  std::vector<std::unique_ptr<LoadDriver>> drivers;
  for (const ChaosService& service : spec.services) {
    if (service.trace.empty()) continue;
    core::ServiceSwitch* sw = hup.master().find_switch(service.name);
    const core::ServiceRecord* record =
        hup.master().find_service(service.name);
    if (!sw || !record) continue;  // rejected at admission
    drivers.push_back(std::make_unique<LoadDriver>(
        hup, *sw, *record, trace_from_phases(service.trace),
        service.traffic_seed, spec.horizon_s,
        checker ? &*checker : nullptr));
    drivers.back()->start();
  }

  hup.engine().run_until(t0 + sim::SimTime::seconds(spec.horizon_s));
  report.faults_injected = injector.injected();

  // Quiesce the periodic loops, then give recovery a bounded number of
  // stabilization rounds. Fixed count, not run-to-convergence: a service
  // degraded for lack of capacity legitimately stays degraded forever.
  hup.master().stop_failure_detector();
  for (core::SodaDaemon* daemon : hup.master().daemons()) {
    daemon->stop_heartbeat();
  }
  hup.engine().run();
  for (int round = 0; round < 3; ++round) {
    hup.master().poll_liveness_once();
    hup.master().retry_recoveries();
    hup.engine().run();
  }

  for (const auto& driver : drivers) {
    report.requests += driver->attempts();
  }
  hup.master().services().for_each(
      [&](const std::string&, const core::ServiceRecord& record) {
        if (!record.service_switch) return;
        report.routed += record.service_switch->requests_routed();
        report.refused += record.service_switch->requests_refused();
      });

  if (checker) {
    checker->sweep();
    for (const auto& driver : drivers) {
      const core::ServiceSwitch& sw = driver->service_switch();
      checker->expect(
          driver->attempts() ==
              sw.requests_routed() + sw.requests_refused(),
          "request-conservation",
          sw.service_name() + " saw " + std::to_string(driver->attempts()) +
              " arrivals but routed+refused = " +
              std::to_string(sw.requests_routed() + sw.requests_refused()));
    }
    const double admitted = hup.master().metrics().value("admissions");
    const double rejected = hup.master().metrics().value("rejections");
    checker->expect(admitted + rejected == static_cast<double>(attempts),
                    "admission-accounting",
                    "admissions+rejections != creation attempts");
    checker->final_checks();
    report.violations = checker->violations();
  }

  report.digest = end_state_digest(hup, report, drivers);
  return report;
}

}  // namespace soda::chaos
