#include "chaos/spec.hpp"

#include <set>

#include "sim/time.hpp"

namespace soda::chaos {

std::string chaos_host_name(const ChaosSpec& spec, int index) {
  const char* kind = spec.hosts[static_cast<std::size_t>(index)].big
                         ? "seattle"
                         : "tacoma";
  if (index == 0) return kind;
  return std::string(kind) + "-" + std::to_string(index);
}

Status validate_spec(const ChaosSpec& spec) {
  if (spec.hosts.empty()) return Error{"chaos spec has no hosts"};
  if (!(spec.horizon_s > 0)) return Error{"chaos spec horizon must be > 0"};
  if (spec.horizon_s > sim::kMaxInputSeconds) {
    return Error{"chaos spec horizon must be at most " +
                 std::to_string(sim::kMaxInputSeconds) + "s"};
  }
  std::set<std::string> names;
  for (const ChaosService& service : spec.services) {
    if (service.name.empty()) return Error{"chaos service with empty name"};
    if (!names.insert(service.name).second) {
      return Error{"duplicate chaos service name '" + service.name + "'"};
    }
    if (service.units < 1) {
      return Error{"chaos service '" + service.name + "' has units < 1"};
    }
  }
  double last_at = 0;
  for (const ChaosFault& fault : spec.faults) {
    if (fault.at_s < last_at) return Error{"chaos faults are not sorted"};
    last_at = fault.at_s;
    if (!(fault.at_s <= spec.horizon_s)) {
      // A fault past the horizon would fire during the drain-the-queue
      // quiesce after the measured window, racing the detector teardown.
      return Error{"chaos fault at t=" + std::to_string(fault.at_s) +
                   "s lies past the horizon"};
    }
    const bool guest = fault.kind == core::FaultKind::kGuestCrash;
    if (guest) {
      if (fault.node.find('/') == std::string::npos) {
        return Error{"guest-crash fault needs a service/ordinal node name"};
      }
    } else if (fault.host < 0 ||
               fault.host >= static_cast<int>(spec.hosts.size())) {
      return Error{"chaos fault references host index " +
                   std::to_string(fault.host) + " out of range"};
    }
    if ((fault.kind == core::FaultKind::kSlowHost ||
         fault.kind == core::FaultKind::kLossyLink) &&
        !(fault.severity > 0)) {
      return Error{"chaos fault has non-positive factor"};
    }
  }
  return {};
}

}  // namespace soda::chaos
