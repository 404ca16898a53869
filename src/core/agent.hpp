// The SODA Agent (paper §3.1): the interface between ASPs and the HUP. It
// authenticates every call, enforces that an ASP only manages its own
// services, forwards validated requests to the SODA Master, and keeps the
// billing ledger (hosting is a utility: ASPs pay per machine-instance-hour).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/master.hpp"
#include "core/monitor.hpp"
#include "sim/engine.hpp"
#include "util/result.hpp"

namespace soda::core {

/// One billing ledger entry: a service's accrual window and size.
struct BillingEntry {
  std::string asp_id;
  std::string service_name;
  int machine_instances = 0;      // n of <n, M> at creation/last resize
  sim::SimTime started_at;
  sim::SimTime ended_at = sim::SimTime::max();  // max() = still accruing

  [[nodiscard]] bool open() const noexcept { return ended_at == sim::SimTime::max(); }
};

/// Accrues machine-instance-hours per ASP.
class BillingLedger {
 public:
  /// Opens an accrual window (service creation / post-resize segment).
  void open(const std::string& asp_id, const std::string& service_name,
            int machine_instances, sim::SimTime now);

  /// Closes the open window for `service_name` (tear-down or resize split).
  /// No-op when none is open.
  void close(const std::string& service_name, sim::SimTime now);

  /// Machine-instance-hours accrued by `asp_id` up to `now`.
  [[nodiscard]] double instance_hours(const std::string& asp_id,
                                      sim::SimTime now) const;

  /// Amount due at `rate_per_instance_hour`.
  [[nodiscard]] double amount_due(const std::string& asp_id, sim::SimTime now,
                                  double rate_per_instance_hour) const;

  [[nodiscard]] const std::vector<BillingEntry>& entries() const noexcept {
    return entries_;
  }

  /// Renders an itemized invoice for `asp_id` at `now`: one row per accrual
  /// segment (service, instances, window, hours, amount) plus a total line.
  [[nodiscard]] std::string render_invoice(const std::string& asp_id,
                                           sim::SimTime now,
                                           double rate_per_instance_hour) const;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("billing");
    ar.seq(entries_, [&ar](auto& entry) {
      ar.str(entry.asp_id);
      ar.str(entry.service_name);
      ar.i64(entry.machine_instances);
      ar.time(entry.started_at);
      ar.time(entry.ended_at);
    });
    ar.end_section();
  }

 private:
  std::vector<BillingEntry> entries_;
};

/// The Agent. All ASP-facing API calls land here first.
class SodaAgent {
 public:
  SodaAgent(sim::Engine& engine, SodaMaster& master);

  /// Registers an ASP and its API key (out-of-band enrollment).
  void register_asp(const std::string& asp_id, const std::string& api_key);

  /// Validates credentials. Unknown ASP and wrong key are indistinguishable
  /// in the error (no account probing).
  Result<void, ApiError> authenticate(const Credentials& credentials) const;

  using CreateCallback = SodaMaster::CreateCallback;
  /// SODA_service_creation: authenticate, validate, forward to the Master,
  /// and start billing accrual on success.
  void service_creation(const ServiceCreationRequest& request,
                        CreateCallback done);

  /// SODA_service_teardown: authenticate, check ownership, forward, close
  /// the billing window.
  Result<void, ApiError> service_teardown(const ServiceTeardownRequest& request);

  using ResizeCallback = SodaMaster::ResizeCallback;
  /// SODA_service_resizing: authenticate, check ownership, forward; on
  /// success the billing window is split at the resize instant.
  void service_resizing(const ServiceResizingRequest& request,
                        ResizeCallback done);

  /// Service monitoring for the ASP (paper §1: "as if the service were
  /// hosted locally"): authenticate, check ownership, return the live
  /// status report.
  Result<ServiceStatusReport, ApiError> service_status(
      const Credentials& credentials, const std::string& service_name);

  [[nodiscard]] const BillingLedger& billing() const noexcept { return billing_; }
  [[nodiscard]] std::size_t asp_count() const noexcept { return api_keys_.size(); }

  /// The ASP owning `service_name`, if any.
  [[nodiscard]] const std::string* owner_of(const std::string& service_name) const;

  /// Checkpoints enrolled ASPs, service ownership, and the billing ledger.
  template <class Ar>
  void serialize(Ar& ar) {
    const auto string_pair = [&ar](auto& entry) {
      ar.str(entry.first);
      ar.str(entry.second);
    };
    ar.begin_section("agent");
    ar.seq(api_keys_, string_pair);
    ar.seq(owners_, string_pair);
    ar.walk(billing_);
    ar.end_section();
  }

 private:
  Result<void, ApiError> check_owner(const Credentials& credentials,
                                     const std::string& service_name) const;

  sim::Engine& engine_;
  SodaMaster& master_;
  std::map<std::string, std::string> api_keys_;  // asp_id -> key
  std::map<std::string, std::string> owners_;    // service -> asp_id
  BillingLedger billing_;
};

}  // namespace soda::core
