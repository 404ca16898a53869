#include "core/agent.hpp"

#include <algorithm>

#include <cstdio>

#include "util/contract.hpp"
#include "util/table.hpp"

namespace soda::core {

void BillingLedger::open(const std::string& asp_id,
                         const std::string& service_name, int machine_instances,
                         sim::SimTime now) {
  SODA_EXPECTS(machine_instances >= 1);
  entries_.push_back(BillingEntry{asp_id, service_name, machine_instances, now});
}

void BillingLedger::close(const std::string& service_name, sim::SimTime now) {
  for (auto& entry : entries_) {
    if (entry.service_name == service_name && entry.open()) {
      entry.ended_at = now;
    }
  }
}

double BillingLedger::instance_hours(const std::string& asp_id,
                                     sim::SimTime now) const {
  double hours = 0;
  for (const auto& entry : entries_) {
    if (entry.asp_id != asp_id) continue;
    const sim::SimTime end = entry.open() ? now : entry.ended_at;
    if (end <= entry.started_at) continue;
    hours += (end - entry.started_at).to_seconds() / 3600.0 *
             static_cast<double>(entry.machine_instances);
  }
  return hours;
}

double BillingLedger::amount_due(const std::string& asp_id, sim::SimTime now,
                                 double rate_per_instance_hour) const {
  SODA_EXPECTS(rate_per_instance_hour >= 0);
  return instance_hours(asp_id, now) * rate_per_instance_hour;
}

std::string BillingLedger::render_invoice(const std::string& asp_id,
                                          sim::SimTime now,
                                          double rate_per_instance_hour) const {
  SODA_EXPECTS(rate_per_instance_hour >= 0);
  util::AsciiTable table(
      {"Service", "Instances", "From (s)", "To (s)", "Inst-hours", "Amount"});
  table.set_alignment({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});
  double total = 0;
  char from[32], to[32], hours_cell[32], amount_cell[32], instances[16];
  for (const auto& entry : entries_) {
    if (entry.asp_id != asp_id) continue;
    const sim::SimTime end = entry.open() ? now : entry.ended_at;
    const double hours =
        end <= entry.started_at
            ? 0.0
            : (end - entry.started_at).to_seconds() / 3600.0 *
                  static_cast<double>(entry.machine_instances);
    const double amount = hours * rate_per_instance_hour;
    total += amount;
    std::snprintf(instances, sizeof instances, "%d", entry.machine_instances);
    std::snprintf(from, sizeof from, "%.2f", entry.started_at.to_seconds());
    std::snprintf(to, sizeof to, entry.open() ? "(open)" : "%.2f",
                  end.to_seconds());
    std::snprintf(hours_cell, sizeof hours_cell, "%.6f", hours);
    std::snprintf(amount_cell, sizeof amount_cell, "%.4f", amount);
    table.add_row({entry.service_name, instances, from, to, hours_cell,
                   amount_cell});
  }
  char total_line[96];
  std::snprintf(total_line, sizeof total_line,
                "total due for %s: %.4f (at %.2f per instance-hour)\n",
                asp_id.c_str(), total, rate_per_instance_hour);
  return table.render() + total_line;
}

SodaAgent::SodaAgent(sim::Engine& engine, SodaMaster& master)
    : engine_(engine), master_(master) {}

void SodaAgent::register_asp(const std::string& asp_id,
                             const std::string& api_key) {
  SODA_EXPECTS(!asp_id.empty() && !api_key.empty());
  api_keys_[asp_id] = api_key;
}

Result<void, ApiError> SodaAgent::authenticate(
    const Credentials& credentials) const {
  auto it = api_keys_.find(credentials.asp_id);
  if (it == api_keys_.end() || it->second != credentials.api_key) {
    return ApiError{ApiErrorCode::kAuthenticationFailed,
                    "invalid ASP credentials"};
  }
  return {};
}

Result<void, ApiError> SodaAgent::check_owner(
    const Credentials& credentials, const std::string& service_name) const {
  auto it = owners_.find(service_name);
  if (it == owners_.end()) {
    return ApiError{ApiErrorCode::kNoSuchService,
                    "no such service: " + service_name};
  }
  if (it->second != credentials.asp_id) {
    // Administration isolation at the API: an ASP has administrator
    // privilege only within its own services (§2.1).
    return ApiError{ApiErrorCode::kAuthenticationFailed,
                    "service " + service_name + " is not owned by " +
                        credentials.asp_id};
  }
  return {};
}

void SodaAgent::service_creation(const ServiceCreationRequest& request,
                                 CreateCallback done) {
  SODA_EXPECTS(done != nullptr);
  if (auto auth = authenticate(request.credentials); !auth.ok()) {
    done(auth.error(), engine_.now());
    return;
  }
  if (request.requirement.n < 1) {
    done(ApiError{ApiErrorCode::kInvalidRequest, "requirement n must be >= 1"},
         engine_.now());
    return;
  }
  // Trace and log only: metrics, subscribers and the publish counter have
  // never seen request-received.
  master_.bus().record({engine_.now(), TraceKind::kRequestReceived, "agent",
                        request.service_name,
                        "creation " + request.requirement.to_string() +
                            " by " + request.credentials.asp_id});
  master_.create_service(
      request, [this, asp = request.credentials.asp_id,
                n = request.requirement.n, done = std::move(done)](
                   ApiResult<ServiceCreationReply> reply, sim::SimTime now) {
        if (reply.ok()) {
          owners_[reply.value().service_name] = asp;
          billing_.open(asp, reply.value().service_name, n, now);
        }
        done(std::move(reply), now);
      });
}

Result<void, ApiError> SodaAgent::service_teardown(
    const ServiceTeardownRequest& request) {
  if (auto auth = authenticate(request.credentials); !auth.ok()) return auth;
  if (auto owner = check_owner(request.credentials, request.service_name);
      !owner.ok()) {
    return owner;
  }
  if (auto torn = master_.teardown_service(request.service_name); !torn.ok()) {
    return torn;
  }
  billing_.close(request.service_name, engine_.now());
  owners_.erase(request.service_name);
  return {};
}

void SodaAgent::service_resizing(const ServiceResizingRequest& request,
                                 ResizeCallback done) {
  SODA_EXPECTS(done != nullptr);
  if (auto auth = authenticate(request.credentials); !auth.ok()) {
    done(auth.error(), engine_.now());
    return;
  }
  if (auto owner = check_owner(request.credentials, request.service_name);
      !owner.ok()) {
    done(owner.error(), engine_.now());
    return;
  }
  master_.resize_service(
      request.service_name, request.n_new,
      [this, asp = request.credentials.asp_id, name = request.service_name,
       n_new = request.n_new, done = std::move(done)](
          ApiResult<ServiceResizingReply> reply, sim::SimTime now) {
        if (reply.ok()) {
          // Split the accrual window: the old size ends now, the new begins.
          billing_.close(name, now);
          billing_.open(asp, name, n_new, now);
        }
        done(std::move(reply), now);
      });
}

Result<ServiceStatusReport, ApiError> SodaAgent::service_status(
    const Credentials& credentials, const std::string& service_name) {
  if (auto auth = authenticate(credentials); !auth.ok()) return auth.error();
  if (auto owner = check_owner(credentials, service_name); !owner.ok()) {
    return owner.error();
  }
  auto report = collect_service_status(master_, service_name);
  if (!report.ok()) {
    return ApiError{ApiErrorCode::kNoSuchService, report.error().message};
  }
  return std::move(report).value();
}

const std::string* SodaAgent::owner_of(const std::string& service_name) const {
  auto it = owners_.find(service_name);
  return it == owners_.end() ? nullptr : &it->second;
}

}  // namespace soda::core
