// Service lifecycle. A SODA service moves through a strict state machine:
// Requested -> Admitted -> Priming -> Running -> (Resizing <-> Running)
// -> TearingDown -> Gone, with Failed reachable from the setup states and
// Degraded <-> Running when host failures cost the service capacity.
#pragma once

#include <string>

#include "util/result.hpp"

namespace soda::core {

enum class ServiceState {
  kRequested,    // creation call accepted by the Agent
  kAdmitted,     // Master admitted it against HUP availability
  kPriming,      // daemons are downloading images / booting nodes
  kRunning,      // switch created, nodes serving
  kResizing,     // SODA_service_resizing in progress
  kDegraded,     // running below admitted capacity after a host failure
  kTearingDown,  // SODA_service_teardown in progress
  kGone,         // fully released
  kFailed,       // creation failed (resources / image / priming)
};

std::string_view service_state_name(ServiceState state) noexcept;

/// Validated transition helper: returns an error naming both states when the
/// move is not legal.
class ServiceLifecycle {
 public:
  explicit ServiceLifecycle(std::string service_name)
      : service_name_(std::move(service_name)) {}

  [[nodiscard]] ServiceState state() const noexcept { return state_; }

  /// Attempts the transition; legal edges are exactly those of the diagram
  /// above.
  Status transition(ServiceState to);

  /// True when the service holds HUP resources (admitted through resizing).
  [[nodiscard]] bool holds_resources() const noexcept;

  [[nodiscard]] const std::string& service_name() const noexcept {
    return service_name_;
  }

  /// Snapshot walk: a load sets the state directly, bypassing transition
  /// validation (the saved state was legal when captured).
  template <class Ar>
  void serialize(Ar& ar) {
    ar.u8(state_, ServiceState::kFailed);
  }

 private:
  std::string service_name_;
  ServiceState state_ = ServiceState::kRequested;
};

}  // namespace soda::core
