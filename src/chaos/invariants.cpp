#include "chaos/invariants.hpp"

#include <cmath>
#include <cstdlib>

#include "core/daemon.hpp"
#include "core/master.hpp"
#include "vm/vsnode.hpp"

namespace soda::chaos {

namespace {

/// Incrementally-maintained double aggregates (cpu/bandwidth) tolerate a
/// relative epsilon; the integer fields (memory/disk) must match exactly.
bool close(double a, double b) {
  return std::abs(a - b) <= 1e-6 * (1.0 + std::abs(a) + std::abs(b));
}

}  // namespace

std::vector<std::string> billing_conservation_violations(
    const std::vector<core::BillingEntry>& entries,
    const std::vector<BillingExpectation>& live, sim::SimTime now) {
  std::vector<std::string> problems;
  const auto live_of = [&](const std::string& service)
      -> const BillingExpectation* {
    for (const BillingExpectation& expectation : live) {
      if (expectation.service == service) return &expectation;
    }
    return nullptr;
  };

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::BillingEntry& entry = entries[i];
    if (entry.started_at > now) {
      problems.push_back(entry.service_name + " accrues from the future (" +
                         std::to_string(entry.started_at.to_seconds()) +
                         "s > now)");
    }
    if (!entry.open() && entry.ended_at < entry.started_at) {
      problems.push_back(entry.service_name + " window runs backwards");
    }
    if (entry.machine_instances <= 0) {
      problems.push_back(entry.service_name + " charges " +
                         std::to_string(entry.machine_instances) +
                         " machine instances");
    }
    // Same-service windows must be disjoint: an overlap charges the same
    // placement interval twice.
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      const core::BillingEntry& other = entries[j];
      if (other.service_name != entry.service_name) continue;
      const sim::SimTime a_end = entry.open() ? now : entry.ended_at;
      const sim::SimTime b_end = other.open() ? now : other.ended_at;
      if (entry.started_at < b_end && other.started_at < a_end) {
        problems.push_back(entry.service_name +
                           " is double-billed: overlapping accrual windows");
      }
    }
  }

  // Live services carry exactly one open window, with the right owner and
  // size; nothing else may still accrue.
  for (const BillingExpectation& expectation : live) {
    std::size_t open = 0;
    for (const core::BillingEntry& entry : entries) {
      if (entry.service_name != expectation.service || !entry.open()) continue;
      ++open;
      if (entry.asp_id != expectation.asp_id) {
        problems.push_back(expectation.service + " accrues to " +
                           entry.asp_id + " but is owned by " +
                           expectation.asp_id);
      }
      if (entry.machine_instances != expectation.instances) {
        problems.push_back(expectation.service + " charges " +
                           std::to_string(entry.machine_instances) +
                           " instances but runs " +
                           std::to_string(expectation.instances));
      }
    }
    if (open == 0) {
      problems.push_back(expectation.service +
                         " is live but its accrual was dropped");
    } else if (open > 1) {
      problems.push_back(expectation.service + " is double-billed: " +
                         std::to_string(open) + " open accrual windows");
    }
  }
  for (const core::BillingEntry& entry : entries) {
    if (entry.open() && live_of(entry.service_name) == nullptr) {
      problems.push_back(entry.service_name +
                         " still accrues but is not a live service");
    }
  }
  return problems;
}

InvariantChecker::InvariantChecker(core::Hup& hup, Options options)
    : hup_(hup), options_(std::move(options)) {
  subscription_ = hup_.master().bus().subscribe(
      [this](const core::ControlPlaneEvent& event) { on_event(event); });
}

InvariantChecker::~InvariantChecker() {
  hup_.master().bus().unsubscribe(subscription_);
}

void InvariantChecker::expect(bool ok, std::string invariant,
                              std::string detail) {
  if (ok) return;
  violations_.push_back(Violation{hup_.engine().now().to_seconds(),
                                  std::move(invariant), std::move(detail)});
}

void InvariantChecker::check_routed(const core::ServiceSwitch& sw,
                                    const core::BackEndEntry& entry) {
  for (const core::BackEndState& backend : sw.backends()) {
    if (!(backend.entry == entry)) continue;
    expect(backend.healthy && !backend.draining, "routed-to-unroutable",
           "switch routed to " + entry.address.to_string() + ":" +
               std::to_string(entry.port) +
               (backend.draining ? " (draining)" : " (unhealthy)"));
    return;
  }
  expect(false, "routed-to-stranger",
         "switch routed to " + entry.address.to_string() + ":" +
             std::to_string(entry.port) + " which is not a backend");
}

void InvariantChecker::on_event(const core::ControlPlaneEvent& event) {
  ++events_;
  if (event.kind == core::TraceKind::kHostDown &&
      !options_.synthetic_violation_on_host_down.empty() &&
      event.subject == options_.synthetic_violation_on_host_down) {
    expect(false, "seeded-violation",
           "synthetic failure armed on host " + event.subject);
  }
  // Recovery cascades publish mid-mutation (down_hosts is set before the
  // kHostDown event, placements are pruned after), so a sweep inside the
  // callback would see legitimate transient states. Defer to a zero-delay
  // event instead: FIFO ordering at equal timestamps runs it after the
  // cascade completes, and the pending flag coalesces event storms into
  // one sweep per simulation instant.
  if (sweep_pending_) return;
  sweep_pending_ = true;
  hup_.engine().schedule_after(sim::SimTime::zero(), [this] {
    sweep_pending_ = false;
    sweep();
  });
}

void InvariantChecker::sweep() {
  ++sweeps_;
  const core::SodaMaster& master = hup_.master();

  for (const core::SodaDaemon* daemon : master.daemons()) {
    const host::HupHost& host = daemon->host();
    const host::ResourceVector& cap = host.capacity();
    const host::ResourceVector& res = host.reserved();
    expect(res.cpu_mhz <= cap.cpu_mhz * (1 + 1e-9) &&
               res.memory_mb <= cap.memory_mb && res.disk_mb <= cap.disk_mb &&
               res.bandwidth_mbps <= cap.bandwidth_mbps * (1 + 1e-9),
           "host-over-capacity",
           host.name() + " reserved " + res.to_string() + " of " +
               cap.to_string());
    host::ResourceVector sum;
    for (const host::Slice& slice : host.slices()) {
      sum.cpu_mhz += slice.resources.cpu_mhz;
      sum.memory_mb += slice.resources.memory_mb;
      sum.disk_mb += slice.resources.disk_mb;
      sum.bandwidth_mbps += slice.resources.bandwidth_mbps;
    }
    expect(close(sum.cpu_mhz, res.cpu_mhz) && sum.memory_mb == res.memory_mb &&
               sum.disk_mb == res.disk_mb &&
               close(sum.bandwidth_mbps, res.bandwidth_mbps),
           "host-accounting-drift",
           host.name() + " slices sum to " + sum.to_string() +
               " but reserved is " + res.to_string());
  }

  master.services().for_each([&](const std::string& name,
                                 const core::ServiceRecord& record) {
    for (const core::NodeDescriptor& node : record.nodes) {
      // "Down" means detector-declared: a crashed-but-undetected host still
      // legitimately backs placements until the next missed heartbeat.
      expect(!master.host_down(node.host_name), "placement-on-down-host",
             name + " node " + node.node_name + " on declared-down host " +
                 node.host_name);
      expect(hup_.find_daemon(node.host_name) != nullptr,
             "placement-on-unknown-host",
             name + " node " + node.node_name + " on unregistered host " +
                 node.host_name);
      bool placed = false;
      for (const core::Placement& placement : record.placements) {
        if (placement.node_name == node.node_name) placed = true;
      }
      expect(placed, "node-without-placement",
             name + " node " + node.node_name + " holds no placement");
    }
    if (record.service_switch) {
      for (const core::BackEndState& backend :
           record.service_switch->backends()) {
        if (backend.draining) continue;
        bool known = false;
        for (const core::NodeDescriptor& node : record.nodes) {
          if (node.address == backend.entry.address &&
              node.port == backend.entry.port) {
            known = true;
          }
        }
        expect(known, "backend-without-node",
               name + " switch backend " + backend.entry.address.to_string() +
                   ":" + std::to_string(backend.entry.port) +
                   " maps to no node");
      }
    }
    if (record.lifecycle.state() == core::ServiceState::kRunning &&
        record.components.empty()) {
      int units = 0;
      for (const core::Placement& placement : record.placements) {
        units += placement.units;
      }
      expect(units >= record.requirement.n, "running-below-capacity",
             name + " is kRunning with " + std::to_string(units) + "/" +
                 std::to_string(record.requirement.n) + " units placed");
    }
  });
}

void InvariantChecker::final_checks() {
  const core::SodaMaster& master = hup_.master();
  master.services().for_each([&](const std::string& name,
                                 const core::ServiceRecord& record) {
    const core::ServiceState state = record.lifecycle.state();
    expect(state != core::ServiceState::kRequested &&
               state != core::ServiceState::kAdmitted &&
               state != core::ServiceState::kPriming &&
               state != core::ServiceState::kResizing,
           "stuck-mid-lifecycle",
           name + " ended in " +
               std::string(core::service_state_name(state)));
    if (state != core::ServiceState::kDegraded) return;
    if (record.nodes.size() >= std::size_t{core::kMaxNodesPerService}) {
      return;  // capped, degradation is structural
    }
    // Degraded is only legal when no survivor could host another unit:
    // every live host either already carries this service or has no room
    // for one inflated unit. Anything else means recovery failed to
    // converge to full re-admission.
    const host::ResourceVector unit =
        master.inflated_unit(record.requirement.m);
    for (const core::SodaDaemon* daemon : master.daemons()) {
      if (!daemon->alive() || master.host_down(daemon->host_name())) continue;
      bool used = false;
      for (const core::Placement& placement : record.placements) {
        if (placement.daemon == daemon) used = true;
      }
      if (used) continue;
      expect(core::units_that_fit(daemon->available(), unit) == 0,
             "recovery-not-converged",
             name + " is degraded but " + daemon->host_name() +
                 " has room for another unit");
    }
  });

  check_billing();

  const core::MetricsRegistry& metrics = master.metrics();
  const auto check_counter = [&](const char* counter, std::uint64_t truth) {
    expect(metrics.value(counter) == static_cast<double>(truth),
           "metrics-drift",
           std::string(counter) + " counter is " +
               std::to_string(metrics.value(counter)) + ", master saw " +
               std::to_string(truth));
  };
  check_counter("failures", master.host_failures_detected());
  check_counter("placements_lost", master.placements_lost());
  check_counter("recoveries", master.recoveries_completed());
}

void InvariantChecker::check_billing() {
  // Billing accrues from creation success: a service is "live" for the
  // ledger while it is running (possibly degraded or resizing) and has an
  // enrolled owner; kFailed / kGone services never (or no longer) accrue.
  std::vector<BillingExpectation> live;
  hup_.master().services().for_each(
      [&](const std::string& name, const core::ServiceRecord& record) {
        const core::ServiceState state = record.lifecycle.state();
        if (state != core::ServiceState::kRunning &&
            state != core::ServiceState::kDegraded &&
            state != core::ServiceState::kResizing) {
          return;
        }
        const std::string* owner = hup_.agent().owner_of(name);
        if (!owner) return;
        live.push_back(BillingExpectation{name, *owner, record.requirement.n});
      });
  for (std::string& problem : billing_conservation_violations(
           hup_.agent().billing().entries(), live, hup_.engine().now())) {
    expect(false, "billing-conservation", std::move(problem));
  }
}

}  // namespace soda::chaos
